import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from brute import brute_solve
from fixpoints import (
    ProductLattice,
    check_monotone_on_samples,
    elements,
    intermediate,
    kleene_gfp,
    kleene_lfp,
)
from genhes import random_hes, with_signs
from routes import make_phi_body

from paritrace.hes import (
    MAX_NESTING,
    Equation,
    HesFormatError,
    HierEqSystem,
    parse_hes_text,
    solve,
)
from paritrace.lattice import (
    MU,
    NU,
    FunctionLattice,
    IterationBudgetError,
    MonotonicityError,
    PowersetLattice,
    default_iteration_budget,
)
from paritrace.trace import predecessor_maps

P2 = PowersetLattice((0, 1))
P1 = PowersetLattice(("p",))


def single(sign, body=lambda a: a[0], lat=P2):
    return HierEqSystem([Equation("u1", lat, sign, body)])


class TestIterationBudget:
    """``PARITRACE_ITER_BUDGET`` is read at every solve, so a value changed
    between solves takes effect."""

    #: u1 =mu {0} | {1 if 0 in u1}: three evaluations, two strict steps
    GROWING = staticmethod(lambda a: 0b01 | (0b10 if a[0] & 1 else 0))

    def test_budgets_set_in_turn_are_each_applied(self, monkeypatch):
        system = single(MU, self.GROWING)
        monkeypatch.delenv("PARITRACE_ITER_BUDGET", raising=False)
        assert default_iteration_budget() == 1_000_000
        assert solve(system).body_evals == 3
        for raw, ok in (("1", False), ("100000", True), ("1", False), ("3", True), ("2", False)):
            monkeypatch.setenv("PARITRACE_ITER_BUDGET", raw)
            assert default_iteration_budget() == int(raw)
            if ok:
                assert solve(system).assignment == (0b11,)
            else:
                with pytest.raises(IterationBudgetError, match=f"budget {raw}$"):
                    solve(system)
        monkeypatch.delenv("PARITRACE_ITER_BUDGET")
        assert default_iteration_budget() == 1_000_000

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_values_raise_on_every_call(self, monkeypatch, raw):
        monkeypatch.setenv("PARITRACE_ITER_BUDGET", "5")
        assert default_iteration_budget() == 5
        monkeypatch.setenv("PARITRACE_ITER_BUDGET", raw)
        for _ in range(2):
            with pytest.raises(IterationBudgetError, match="positive integer"):
                default_iteration_budget()
            with pytest.raises(IterationBudgetError, match="positive integer"):
                solve(single(MU))


class TestSolveBasics:
    def test_single_mu_identity(self):
        assert solve(single(MU)).assignment == (P2.bottom,)

    def test_single_nu_identity(self):
        assert solve(single(NU)).assignment == (P2.top,)

    def test_solution_indexing(self):
        sol = solve(single(NU))
        assert sol.variables == ("u1",) and sol.assignment == (P2.top,)

    def test_order_sensitivity_pinned(self):
        # u1 =mu u2, u2 =nu u1 solves to ({p},{p}); swapping the signs to
        # u1 =nu u2, u2 =mu u1 flips the answer to (empty, empty)
        forward = HierEqSystem(
            [
                Equation("u1", P1, MU, lambda a: a[1]),
                Equation("u2", P1, NU, lambda a: a[0]),
            ]
        )
        assert solve(forward).assignment == (1, 1)
        swapped = with_signs(forward, [NU, MU])
        assert solve(swapped).assignment == (0, 0)

    def test_single_equation_equals_direct_kleene(self):
        body = lambda a: a[0] | 0b01
        assert solve(single(MU, body)).assignment[0] == kleene_lfp(lambda s: s | 1, P2)
        assert solve(single(NU, body)).assignment[0] == kleene_gfp(lambda s: s | 1, P2)

    def test_resolve_deterministic(self):
        rng = random.Random(5)
        for _ in range(10):
            hes = random_hes(rng)
            a = solve(hes)
            b = solve(hes)
            assert a.assignment == b.assignment
            assert a.iterations == b.iterations
            assert a.body_evals == b.body_evals

    def test_non_monotone_detected_mid_solve(self):
        bad = HierEqSystem(
            [Equation("u1", P2, MU, lambda a: P2.top & ~a[0])]
        )
        with pytest.raises(MonotonicityError):
            solve(bad)


#: a two-item carrier of pairs of two-bit masks
F = FunctionLattice(("x", "y"), P2)
#: a strict step of the outer level: nu moves from the top down to this
OUTER_STEP = (0b01, 0b11)
#: a chain that first steps the right way, then moves against it
BAD_CHAINS = {
    "mu-down": (MU, [(0b00, 0b00), (0b11, 0b00), (0b01, 0b00)]),
    "mu-incomparable": (MU, [(0b00, 0b00), (0b01, 0b00), (0b00, 0b01)]),
    "nu-up": (NU, [(0b11, 0b11), (0b00, 0b11), (0b10, 0b11)]),
    "nu-incomparable": (NU, [(0b11, 0b11), (0b10, 0b11), (0b11, 0b10)]),
}


def _chain_system(sign, values, placement):
    """A system whose level ``own`` maps each value of ``values`` to the
    next, once the outer level ``a[outer]`` has stepped to ``OUTER_STEP``
    (at once without an outer level), and otherwise holds its value.

    ``placement`` puts that level alone at level 0, at level 0 under an
    outer nu-level that restarts it, or at level 1 between an inner level
    and such an outer level, so the restart passes through a level."""
    own, outer = {"alone": (0, None), "level-0": (0, 1), "level-1": (1, 2)}[placement]
    nxt = dict(zip(values, values[1:]))

    def body(a):
        u = a[own]
        if outer is None or a[outer] == OUTER_STEP:
            return nxt.get(u, u)
        return u

    equations = [Equation(f"u{own + 1}", F, sign, body)]
    if own:
        equations.insert(0, Equation("u1", F, MU, lambda a: a[0]))
    if outer is not None:
        equations.append(Equation(f"u{outer + 1}", F, NU, lambda a: OUTER_STEP))
    return HierEqSystem(equations)


PLACEMENTS = ("alone", "level-0", "level-1")


class TestOneSidedChainCheck:
    """A strict step checks only its level's own direction; a step down in a
    mu-chain, up in a nu-chain, or to an incomparable value is rejected."""

    @pytest.mark.parametrize("name", sorted(BAD_CHAINS))
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("warm_start", [True, False])
    def test_step_against_the_chain_rejected(self, name, placement, warm_start):
        sign, values = BAD_CHAINS[name]
        hes = _chain_system(sign, values, placement)
        var = "'u2'" if placement == "level-1" else "'u1'"
        with pytest.raises(MonotonicityError, match=var):
            solve(hes, warm_start=warm_start)

    @pytest.mark.parametrize("name", sorted(BAD_CHAINS))
    def test_chain_cut_before_the_bad_step_solves(self, name):
        sign, values = BAD_CHAINS[name]
        sol = solve(_chain_system(sign, values[:2], "level-1"))
        assert sol.assignment == (F.bottom, values[1], OUTER_STEP)
        assert sol.iterations == (0, 1, 1)

    def test_non_powerset_codomain_rejected(self):
        with pytest.raises(TypeError):
            FunctionLattice(("x",), F)
        with pytest.raises(TypeError):
            FunctionLattice(("x",), ProductLattice((P2, P1)))


class TestIntermediate:
    def test_base_single_mu(self):
        assert intermediate(single(MU), 1, 1) == P2.bottom

    def test_definitional_identity_two_equations(self):
        hes = HierEqSystem(
            [
                Equation("u1", P1, MU, lambda a: a[1]),
                Equation("u2", P1, NU, lambda a: a[0]),
            ]
        )
        sol = solve(hes)
        u2_sol = intermediate(hes, 2, 2)
        assert sol.assignment[0] == intermediate(hes, 1, 1, (u2_sol,))
        assert sol.assignment[1] == u2_sol

    def test_four_step_schedule_on_restricted_system(self):
        # the two-state instance: intro automaton restricted to (ba)^w;
        # hand-unrolled values established by direct calculation
        from paritrace.harness import intro_automaton
        from paritrace.omega_input import LassoWord
        from paritrace.trace import build_restricted_hes

        rh = build_restricted_hes(intro_automaton(), LassoWord((), ("b", "a")), "ordinary")
        hes = rh.hes
        top2 = rh.carriers[1].top  # u2 ranges over maps {y} -> P({0,1})

        # step 1: the inner least fixpoint at the topmost outer argument
        l11_top = intermediate(hes, 1, 1, (top2,))
        assert l11_top == ((0b11,))

        # step 2: one application of the second body at the intermediate point
        f2 = hes.equations[1].body((l11_top, top2))
        assert f2 == (0b11,)

        # steps 3 and 4: the outer greatest fixpoint and the final backfill
        l22 = intermediate(hes, 2, 2)
        assert l22 == (0b11,)
        assert intermediate(hes, 1, 1, (l22,)) == (0b11,)

        sol = solve(hes)
        assert sol.assignment == ((0b11,), (0b11,))

    def test_four_step_schedule_rejecting_instance(self):
        from paritrace.harness import intro_automaton
        from paritrace.omega_input import LassoWord
        from paritrace.trace import build_restricted_hes

        rh = build_restricted_hes(intro_automaton(), LassoWord(("b",), ("a",)), "ordinary")
        hes = rh.hes
        assert intermediate(hes, 2, 2) == (0,)
        assert solve(hes).assignment == ((0,), (0,))

    def test_index_validation(self):
        with pytest.raises(ValueError):
            intermediate(single(MU), 2, 1)
        with pytest.raises(ValueError):
            intermediate(single(MU), 1, 1, ("extra",))


class TestDeepSystems:
    """The solver keeps no call stack per equation, so depth is bounded only
    by the body-evaluation budget."""

    @staticmethod
    def deep_system(m):
        # u0 =mu u_top | {p}; identity links alternate mu (stay empty) and
        # nu (stay full); u_top =nu u0 & {q} steps once and restarts them all
        lines = ["ground: p q", f"u0 =mu u{m - 1} | {{p}}"]
        lines += [f"u{i} ={'mu' if i % 2 else 'nu'} u{i}" for i in range(1, m - 1)]
        lines.append(f"u{m - 1} =nu u0 & {{q}}")
        return parse_hes_text("\n".join(lines) + "\n")

    def test_shape_matches_enumeration(self):
        hes = self.deep_system(5)
        assert solve(hes).assignment == brute_solve(hes) == (0b11, 0b00, 0b11, 0b00, 0b10)

    def test_deeper_than_the_recursion_limit(self):
        m = sys.getrecursionlimit() + 100
        sol = solve(self.deep_system(m))
        links = tuple(0b00 if i % 2 else 0b11 for i in range(1, m - 1))
        assert sol.assignment == (0b11,) + links + (0b10,)
        assert sol.iterations[0] == 2 and sol.iterations[-1] == 1
        assert sol.body_evals < 3 * m

    def test_intermediate_at_depth(self):
        m = sys.getrecursionlimit() + 100
        hes = self.deep_system(m)
        assert intermediate(hes, m, m) == 0b10
        assert intermediate(hes, m, 1) == 0b11
        assert intermediate(hes, m - 1, 1, (0b00,)) == 0b01
        assert intermediate(hes, m - 1, 2, (0b00,)) == 0b00
        assert intermediate(hes, m - 1, m - 1, (0b00,)) == 0b11


class TestAgainstBruteForce:
    def test_random_systems_match_enumeration(self):
        rng = random.Random(11)
        for _ in range(40):
            hes = random_hes(rng)
            assert solve(hes).assignment == brute_solve(hes)

    def test_alternating_signs_stress(self):
        # force all four sign patterns on two-variable systems
        rng = random.Random(12)
        for signs in ([MU, MU], [MU, NU], [NU, MU], [NU, NU]):
            for _ in range(10):
                hes = random_hes(rng, max_equations=2)
                if len(hes) != 2:
                    continue
                hes = with_signs(hes, signs)
                assert solve(hes).assignment == brute_solve(hes)


class TestMakePhiBody:
    def test_identity_parts_give_identity_body(self):
        carrier = FunctionLattice(("x",), PowersetLattice((0, 1, 2)))
        # every position is its own only child, and x must hold there
        preds = predecessor_maps([(0,), (1,), (2,)])
        body = make_phi_body([[(((0, 0),), 0b111)]], preds, widths=(1,))
        for elem in elements(carrier, max_size=512):
            assert body((elem,)) == elem

    def test_dimension_mismatch(self):
        preds = predecessor_maps([(0,)])
        for groups in (
            [[(((3, 0),), 1)]],  # equation index
            [[(((0, 1),), 1)]],  # state index
            [[(((0, 0), (0, 0)), 1)]],  # child slot no position has
        ):
            with pytest.raises(ValueError):
                make_phi_body(groups, preds, widths=(1,))
        with pytest.raises(ValueError):
            predecessor_maps([(1,)])  # child position

    def test_lasso_predecessors_are_two_shifts(self):
        # stem 0 1, cycle 2 3 4: every position steps to the next, 4 wraps to 2
        children = [(1,), (2,), (3,), (4,), (2,)]
        assert predecessor_maps(children) == ((((1, 0b01111),), ((2, 0b10000),)),)
        preds = predecessor_maps(children)
        body = make_phi_body([[(((0, 0),), 0b11111)]], preds, widths=(1,))
        assert body(((0b00100,),)) == (0b10010,)

    def test_restricted_bodies_monotone_on_samples(self):
        from paritrace.automata import (
            TreeGenParams,
            WordGenParams,
            random_tree_automaton,
            random_word_automaton,
        )
        from paritrace.omega_input import (
            DecoratedLassoWord,
            random_lasso,
            random_regular_tree,
        )
        from paritrace.trace import build_restricted_hes

        def assert_monotone(rh, seed):
            joint = ProductLattice([eq.lattice for eq in rh.hes.equations])
            for i, eq in enumerate(rh.hes.equations):
                ce = check_monotone_on_samples(
                    eq.body, joint, out=eq.lattice, budget=40, seed=seed
                )
                assert ce is None, f"equation {i} non-monotone at {ce}"

        rng = random.Random(3)
        for trial in range(15):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.5), trial
            )
            w = random_lasso(aut.alphabet, 2, 3, rng)
            assert_monotone(build_restricted_hes(aut, w, "ordinary"), trial)
            xi = DecoratedLassoWord(
                tuple((a, rng.randint(1, 4)) for a in w.stem),
                tuple((a, rng.randint(1, 4)) for a in w.cycle),
            )
            assert_monotone(build_restricted_hes(aut, xi, "decorated"), trial)
            taut = random_tree_automaton(
                TreeGenParams(n_states=3, n_symbols=2, max_arity=2, two_n=4), trial
            )
            t = random_regular_tree(taut.alphabet, rng.randint(1, 4), rng)
            assert_monotone(build_restricted_hes(taut, t, "ordinary"), trial)


_HES_NOISE = st.one_of(
    st.sampled_from(
        ["", "# comment", "ground: p", "u1 =mu", "v =xi {p}", "v =mu undeclared", "u1 =nu {z}",
         "u2 =mu (u2", "u2 =nu u2 u2", "w9 =mu u2 &"]
    ),
    st.text(max_size=12),
)


@st.composite
def hes_texts(draw):
    """Mostly well-formed systems; now and then a repeated ground item, a
    repeated variable or one noise line (malformed, undeclared, unknown)."""
    rare = st.integers(0, 4).map(lambda k: k == 0)
    ground = draw(st.lists(st.sampled_from("pqr"), max_size=3, unique=True))
    if ground and draw(rare):
        ground.append(draw(st.sampled_from(ground)))
    names = draw(st.lists(st.sampled_from(["u1", "u2", "v", "w9"]), min_size=1, max_size=4, unique=True))
    if draw(rare):
        names.append(draw(st.sampled_from(names)))
    leaves = st.sampled_from(names) | st.lists(st.sampled_from(ground or ["p"]), max_size=3).map(
        lambda xs: "{" + ", ".join(xs) + "}" if ground else "{}"
    )
    exprs = st.recursive(
        leaves,
        lambda inner: st.tuples(inner, st.sampled_from([" | ", " & ", "∪", "∩"]), inner).map("".join)
        | inner.map("({})".format),
        max_leaves=6,
    )
    lines = ["ground: " + " ".join(ground)]
    lines += [f"{v} ={draw(st.sampled_from(['mu', 'nu']))} {draw(exprs)}" for v in names]
    if draw(rare):
        lines.insert(draw(st.integers(0, len(lines))), draw(_HES_NOISE))
    return "\n".join(lines)


class TestTextFormat:
    def test_parse_and_solve(self):
        text = """
        # tiny two-variable system
        ground: p q
        u1 =mu u2 | {p}
        u2 =nu u1 & {p q}
        """
        hes = parse_hes_text(text)
        sol = solve(hes)
        assert hes.format_solution(sol) == "u1 = {p q}\nu2 = {p q}"

    def test_signs_respected(self):
        text = "ground: p\nu1 =mu u1\n"
        assert solve(parse_hes_text(text)).assignment == (0,)
        text = "ground: p\nu1 =nu u1\n"
        assert solve(parse_hes_text(text)).assignment == (1,)

    def test_error_reports_line(self):
        with pytest.raises(HesFormatError) as err:
            parse_hes_text("ground: p\nu1 =mu u1\nu2 == u1\n")
        assert "line 3" in str(err.value)

    def test_undeclared_variable(self):
        with pytest.raises(HesFormatError):
            parse_hes_text("ground: p\nu1 =mu u9\n")

    def test_unknown_ground_item(self):
        with pytest.raises(HesFormatError):
            parse_hes_text("ground: p\nu1 =mu {z}\n")

    def test_missing_ground(self):
        with pytest.raises(HesFormatError):
            parse_hes_text("u1 =mu {p}\n")

    def test_order_preserved(self):
        hes = parse_hes_text("ground: p\nu2 =nu u1\nu1 =mu u2\n")
        assert [eq.var for eq in hes.equations] == ["u2", "u1"]

    def test_duplicate_ground_items(self):
        with pytest.raises(HesFormatError) as err:
            parse_hes_text("# items\nground: p q p\nu1 =mu u1\n")
        assert "line 2" in str(err.value) and "'p'" in str(err.value)

    def test_nesting_cap(self):
        deep = "(" * MAX_NESTING + "{p}" + ")" * MAX_NESTING
        assert solve(parse_hes_text(f"ground: p\nu1 =mu {deep}\n")).assignment == (1,)
        with pytest.raises(HesFormatError) as err:
            parse_hes_text(f"ground: p\nu1 =mu ({deep})\n")
        assert "line 2" in str(err.value)

    def test_long_operator_chains_do_not_nest(self):
        chain = " & ".join(["u1"] * 3000) + " | " + " | ".join(["{p}"] * 3000)
        assert solve(parse_hes_text(f"ground: p q\nu1 =nu {chain}\n")).assignment == (0b11,)

    @settings(max_examples=100, deadline=None)
    @given(hes_texts())
    def test_parse_yields_solvable_system_or_format_error(self, text):
        try:
            system = parse_hes_text(text)
        except HesFormatError:
            return
        sol = solve(system)
        assert len(system.format_solution(sol).splitlines()) == len(system)


class TestWarmStartIsolation:
    def test_warm_start_matches_cold_start_on_deep_systems(self):
        rng = random.Random(77)
        for trial in range(300):
            hes = random_hes(rng, max_equations=6, max_ground=3)
            warm = solve(hes)
            cold = solve(hes, warm_start=False)
            assert warm.assignment == cold.assignment, f"trial {trial}"

    def test_cold_start_matches_brute_force(self):
        rng = random.Random(78)
        for trial in range(50):
            hes = random_hes(rng, max_equations=4, max_ground=2)
            assert solve(hes, warm_start=False).assignment == brute_solve(hes)

    def test_warm_start_saves_work(self):
        rng = random.Random(79)
        saved = 0
        for trial in range(40):
            hes = random_hes(rng, max_equations=5, max_ground=3)
            warm = solve(hes)
            cold = solve(hes, warm_start=False)
            assert warm.body_evals <= cold.body_evals
            if warm.body_evals < cold.body_evals:
                saved += 1
        assert saved > 0
