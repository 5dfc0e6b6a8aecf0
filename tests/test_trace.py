import inspect
import json
import random
from operator import itemgetter
from pathlib import Path

import pytest

from paritrace import graphutil, trace
from paritrace import hes as hes_mod
from paritrace import oracle as oracle_mod
from paritrace.automata import (
    BuchiWordAutomaton,
    DeterministicExceptionAutomaton,
    ParityTreeAutomaton,
    ParityWordAutomaton,
    RankedAlphabet,
    WordGenParams,
    buchi_to_parity,
    parse,
    random_word_automaton,
)
from paritrace.harness import appendix_automaton, intro_automaton
from paritrace.hes import Equation
from paritrace.lattice import MU, NU, PowersetLattice
from paritrace.omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    DecorationError,
    InputError,
    LassoWord,
    RegularTreeRep,
    RunLasso,
    all_lassos,
    decorate_run,
    normalize,
    parse_decorated_lasso,
    parse_lasso,
    parse_tree,
    random_lasso,
    unroll,
)
from paritrace.oracle import lasso_acceptance, tree_membership_oracle
from paritrace.trace import (
    BOTTOM,
    AlphabetMismatchError,
    FlatteningReport,
    GradeMismatchError,
    MembershipVerdict,
    SolveStats,
    build_restricted_hes,
    buchi_trace_membership,
    decorated_trace_membership,
    det_exception_behavior,
    finite_trace_enum,
    finite_trace_membership,
    flattening_theorem_check,
    infinitary_trace_membership,
    parity_trace_membership,
    tree_language_membership,
)


class TestRestrictedConstruction:
    def test_intro_shape(self):
        rh = build_restricted_hes(intro_automaton(), parse_lasso(";ba"), "ordinary")
        assert len(rh.hes) == 2
        assert [eq.sign for eq in rh.hes.equations] == [MU, NU]
        assert rh.carriers[0].domain == ("x",)
        assert rh.carriers[1].domain == ("y",)
        assert all(len(c.codomain.ground) == 2 for c in rh.carriers)

    def test_appendix_has_four_equations_with_empty_block(self):
        rh = build_restricted_hes(appendix_automaton(), parse_lasso(";b"), "ordinary")
        assert len(rh.hes) == 4
        # priority class 4 is empty and carried as a one-point lattice
        assert rh.carriers[3].domain == ()
        assert rh.carriers[3].size() == 1

    def test_decorated_signs_all_nu(self):
        rh = build_restricted_hes(
            intro_automaton(), parse_decorated_lasso("b:1;a:2,b:1"), "decorated"
        )
        assert [eq.sign for eq in rh.hes.equations] == [NU, NU]

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            build_restricted_hes(intro_automaton(), parse_lasso(";zb"), "ordinary")

    def test_decorated_bodies_below_ordinary(self):
        # decorations only constrain: pointwise on sampled assignments
        rng = random.Random(0)
        for seed in range(20):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.5), seed
            )
            plain = random_lasso(aut.alphabet, 1, 2, rng)
            xi = DecoratedLassoWord(
                tuple((a, rng.randint(1, 4)) for a in plain.stem),
                tuple((a, rng.randint(1, 4)) for a in plain.cycle),
            )
            rh_dec = build_restricted_hes(aut, xi, "decorated")
            rh_ord = build_restricted_hes(aut, plain, "ordinary")
            for _ in range(20):
                assign = tuple(
                    tuple(rng.randrange(c.codomain.size()) for _ in c.domain)
                    for c in rh_ord.carriers
                )
                for k in range(len(rh_ord.hes.equations)):
                    dec = rh_dec.hes.equations[k].body(assign)
                    ordi = rh_ord.hes.equations[k].body(assign)
                    assert rh_ord.carriers[k].leq(dec, ordi)


class TestParityMembership:
    def test_intro_accepts_ba_cycle(self):
        assert parity_trace_membership(intro_automaton(), "x", parse_lasso(";ba")).value

    def test_intro_rejects_b_then_a_forever(self):
        assert not parity_trace_membership(intro_automaton(), "x", parse_lasso("b;a")).value

    def test_appendix_verdicts(self):
        aut = appendix_automaton()
        assert parity_trace_membership(aut, "x", parse_lasso(";b")).value
        assert not parity_trace_membership(aut, "x", parse_lasso(";bc")).value

    def test_matches_oracle_on_random_instances(self):
        rng = random.Random(1)
        for seed in range(60):
            aut = random_word_automaton(
                WordGenParams(
                    n_states=rng.randint(1, 5),
                    n_letters=rng.randint(1, 3),
                    two_n=2 * rng.randint(1, 3),
                    density=rng.uniform(0.2, 0.6),
                ),
                seed,
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 2, 3, rng)
            assert (
                parity_trace_membership(aut, x, w).value
                == lasso_acceptance(aut, x, w).value
            )

    def test_invariant_under_unroll_and_normalize(self):
        aut = appendix_automaton()
        for w in [parse_lasso(";b"), parse_lasso("c;ab"), parse_lasso("bc;ba")]:
            base = parity_trace_membership(aut, "x", w).value
            for k in (2, 3):
                assert parity_trace_membership(aut, "x", unroll(w, k)).value == base
            assert parity_trace_membership(aut, "x", normalize(w)).value == base


class TestBuchiMembership:
    def intro_buchi(self):
        return BuchiWordAutomaton(
            ("x", "y"),
            ("a", "b"),
            [("x", "a", "x"), ("x", "b", "y"), ("y", "a", "x"), ("y", "b", "y")],
            {"y"},
        )

    def test_pinned_cases(self):
        aut = self.intro_buchi()
        assert buchi_trace_membership(aut, "x", parse_lasso(";ba")).value
        assert not buchi_trace_membership(aut, "x", parse_lasso("b;a")).value

    def test_agrees_with_parity_encoding(self):
        from paritrace.automata import random_buchi_automaton

        rng = random.Random(2)
        seen = set()
        for seed in range(50):
            baut = random_buchi_automaton(
                WordGenParams(n_states=4, n_letters=2, density=0.4), seed
            )
            x = rng.choice(baut.states)
            w = random_lasso(baut.alphabet, 2, 3, rng)
            encoded = buchi_to_parity(baut)
            verdict = buchi_trace_membership(baut, x, w).value
            assert verdict == parity_trace_membership(encoded, x, w).value
            assert verdict == lasso_acceptance(encoded, x, w).value
            seen.add(verdict)
        assert seen == {True, False}


class TestDecoratedMembership:
    def test_realized_decoration_accepted(self):
        xi = parse_decorated_lasso("b:1;a:2,b:1")
        assert decorated_trace_membership(intro_automaton(), "x", xi).value

    def test_self_loop_decoration(self):
        xi = parse_decorated_lasso(";b:2")
        assert decorated_trace_membership(intro_automaton(), "y", xi).value

    def test_grade_mismatch_distinct_error(self):
        xi = parse_decorated_lasso(";b:2")
        with pytest.raises(GradeMismatchError):
            decorated_trace_membership(intro_automaton(), "x", xi)

    def test_invariant_violation_rejected(self):
        xi = DecoratedLassoWord((), (("a", 1),))
        with pytest.raises(DecorationError):
            decorated_trace_membership(intro_automaton(), "x", xi)

    def test_unrealizable_decoration_false(self):
        # priorities along (ba)^w from x are forced to 1,2,1,2,...
        xi = parse_decorated_lasso("b:1;a:2,b:2")  # wrong: b is read from x only
        # make it law-abiding: cycle max is even already; grade 1 matches x
        assert not decorated_trace_membership(intro_automaton(), "x", xi).value

    def test_alphabet_mismatch_distinct_error(self):
        xi = parse_decorated_lasso(";z:2")
        with pytest.raises(AlphabetMismatchError):
            decorated_trace_membership(intro_automaton(), "y", xi)


def unary_loop_tree():
    return RegularTreeRep({"n": ("f", ("n",))}, "n")


class TestTreeMembership:
    def test_single_nullary_symbol(self):
        alph = RankedAlphabet([("c", 0)])
        aut = ParityTreeAutomaton(("x",), alph, [("x", "c", ())], {"x": 1})
        t = RegularTreeRep({"n": ("c", ())}, "n")
        assert tree_language_membership(aut, "x", t).value

    def test_unary_loop_parity(self):
        alph = RankedAlphabet([("f", 1)])
        t = unary_loop_tree()
        for prio, expected in ((1, False), (2, True)):
            aut = ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": prio})
            assert tree_language_membership(aut, "x", t).value is expected

    def test_branching_needs_both_children(self):
        alph = RankedAlphabet([("f", 2), ("c", 0)])
        aut = ParityTreeAutomaton(
            ("x", "y"),
            alph,
            [("x", "f", ("y", "y")), ("y", "c", ())],
            {"x": 2, "y": 2},
        )
        good = RegularTreeRep(
            {"n0": ("f", ("n1", "n1")), "n1": ("c", ())}, "n0"
        )
        assert tree_language_membership(aut, "x", good).value
        bad = RegularTreeRep({"n0": ("f", ("n0", "n1")), "n1": ("c", ())}, "n0")
        assert not tree_language_membership(aut, "x", bad).value

    def test_decorated_tree_membership(self):
        alph = RankedAlphabet([("f", 1)])
        aut = ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": 2})
        xi = DecoratedRegularTreeRep({"n": (("f", 2), ("n",))}, "n")
        assert decorated_trace_membership(aut, "x", xi).value
        wrong = DecoratedRegularTreeRep(
            {"n0": (("f", 4), ("n1",)), "n1": (("f", 2), ("n1",))}, "n0"
        )
        with pytest.raises(GradeMismatchError):
            decorated_trace_membership(aut, "x", wrong)

    def test_decorated_tree_in_ordinary_mode_rejected(self):
        # a decorated label is a (symbol, priority) pair, never a symbol
        alph = RankedAlphabet([("f", 1)])
        aut = ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": 2})
        xi = DecoratedRegularTreeRep({"n": (("f", 2), ("n",))}, "n")
        with pytest.raises(AlphabetMismatchError):
            tree_language_membership(aut, "x", xi)
        with pytest.raises(AlphabetMismatchError):
            build_restricted_hes(aut, xi, "ordinary")


class TestFiniteTraces:
    def flagged_loop(self):
        return ParityWordAutomaton(
            ("x",), ("a",), [("x", "a", "x")], {"x": 1}, final=("x",)
        )

    def test_loop_enumeration(self):
        words = finite_trace_enum(self.flagged_loop(), "x", 3)
        assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_no_flags_empty(self):
        aut = ParityWordAutomaton(("x",), ("a",), [("x", "a", "x")], {"x": 1})
        assert finite_trace_enum(aut, "x", 4) == frozenset()

    def test_empty_alphabet_has_only_the_empty_word(self):
        aut = ParityWordAutomaton(("x",), (), [], {"x": 1}, final=("x",))
        assert finite_trace_enum(aut, "x", 10**9) == {()}

    def test_membership(self):
        aut = self.flagged_loop()
        assert finite_trace_membership(aut, "x", ("a", "a"))
        assert finite_trace_membership(aut, "x", ())
        aut2 = ParityWordAutomaton(
            ("x", "y"), ("a",), [("x", "a", "y")], {"x": 1, "y": 1}, final=("y",)
        )
        assert finite_trace_membership(aut2, "x", ("a",))
        assert not finite_trace_membership(aut2, "x", ())
        assert not finite_trace_membership(aut2, "x", ("a", "a"))


class TestInfinitary:
    def test_intro_has_runs(self):
        assert infinitary_trace_membership(intro_automaton(), "x", parse_lasso(";ba"))

    def test_deadlock_automaton_rejects_everything(self):
        aut = ParityWordAutomaton(("x",), ("a",), [], {"x": 2})
        assert not infinitary_trace_membership(aut, "x", parse_lasso(";a"))

    def test_acceptance_implies_run_existence(self):
        rng = random.Random(3)
        for seed in range(500):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.4), seed
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 2, 3, rng)
            if parity_trace_membership(aut, x, w).value:
                assert infinitary_trace_membership(aut, x, w)

    @staticmethod
    def run_exists(aut, x, w) -> bool:
        """Some vertex reachable from (x, 0) in the (state, position)
        product graph lies on a cycle: a depth-first search from (x, 0)
        meets a vertex still on its stack."""
        def successors(v):
            y, p = v
            return [(z, w.next_pos(p)) for z in aut.successors(y, w.letter(p))]

        on_stack, done = {(x, 0)}, set()
        stack = [((x, 0), iter(successors((x, 0))))]
        while stack:
            v, kids = stack[-1]
            for u in kids:
                if u in on_stack:
                    return True
                if u not in done:
                    on_stack.add(u)
                    stack.append((u, iter(successors(u))))
                    break
            else:
                stack.pop()
                on_stack.discard(v)
                done.add(v)
        return False

    def test_matches_product_graph_with_deadlocks(self):
        rng = random.Random("run-existence")
        counts = {True: 0, False: 0}
        for seed in range(600):
            base = random_word_automaton(
                WordGenParams(n_states=rng.randint(2, 6), n_letters=2, density=0.3), seed
            )
            stuck = set(rng.sample(base.states, rng.randint(0, len(base.states) - 1)))
            aut = ParityWordAutomaton(
                base.states,
                base.alphabet,
                [t for t in base.transitions if t[0] not in stuck],
                base.priorities,
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 4, 4, rng)
            verdict = infinitary_trace_membership(aut, x, w)
            assert verdict == self.run_exists(aut, x, w), (seed, x, w)
            # the all-priority-2 copy leaves the automaton's priorities alone
            assert aut.priorities == base.priorities and aut.two_n == base.two_n
            counts[verdict] += 1
        assert min(counts.values()) >= 100, counts


def word_det(delta, priorities):
    alph = RankedAlphabet([("a", 1), ("b", 1)])
    states = tuple(priorities)
    return DeterministicExceptionAutomaton(states, alph, delta, priorities, "word")


class TestDetException:
    def test_even_self_loop(self):
        aut = word_det({"x": ("a", ("x",))}, {"x": 2})
        got = det_exception_behavior(aut, "x")
        assert got == DecoratedLassoWord((), (("a", 2),))

    def test_exception_reached(self):
        aut = word_det({"x": ("a", ("y",))}, {"x": 2, "y": 2})
        assert det_exception_behavior(aut, "x") is BOTTOM

    def test_parity_failure(self):
        aut = word_det({"x": ("a", ("x",))}, {"x": 1})
        assert det_exception_behavior(aut, "x") is BOTTOM

    def test_stem_then_cycle(self):
        aut = word_det(
            {"x": ("a", ("y",)), "y": ("b", ("y",))}, {"x": 1, "y": 2}
        )
        got = det_exception_behavior(aut, "x")
        assert got == DecoratedLassoWord((("a", 1),), (("b", 2),))

    def test_tree_behavior(self):
        alph = RankedAlphabet([("f", 2), ("c", 0)])
        aut = DeterministicExceptionAutomaton(
            ("x", "y"),
            alph,
            {"x": ("f", ("x", "y")), "y": ("c", ())},
            {"x": 2, "y": 1},
            "tree",
        )
        got = det_exception_behavior(aut, "x")
        assert isinstance(got, DecoratedRegularTreeRep)
        assert got.grade == 2
        aut_bad = DeterministicExceptionAutomaton(
            ("x", "y"),
            alph,
            {"x": ("f", ("x", "y")), "y": ("c", ())},
            {"x": 1, "y": 2},
            "tree",
        )
        assert det_exception_behavior(aut_bad, "x") is BOTTOM


class TestFlattening:
    def test_pinned_positive(self):
        report = flattening_theorem_check(intro_automaton(), "x", parse_lasso(";ba"))
        assert report.agree and report.membership and report.witness_found
        assert normalize(report.witness) == normalize(parse_decorated_lasso("b:1;a:2,b:1"))

    def test_pinned_negative(self):
        report = flattening_theorem_check(intro_automaton(), "x", parse_lasso("b;a"))
        assert report.agree and not report.membership and report.witness is None

    def test_campaign_sample(self):
        rng = random.Random(4)
        for seed in range(60):
            aut = random_word_automaton(
                WordGenParams(
                    n_states=rng.randint(1, 5),
                    n_letters=rng.randint(1, 3),
                    two_n=2 * rng.randint(1, 3),
                    density=rng.uniform(0.2, 0.6),
                ),
                seed,
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 2, 3, rng)
            assert flattening_theorem_check(aut, x, w).agree


class TestAppendixLanguage:
    def test_language_matches_run_footprint_on_all_short_lassos(self):
        aut = appendix_automaton()
        delta = {(s, a): t for (s, a, t) in aut.transitions}
        count = 0
        for w in all_lassos(("a", "b", "c"), 1, 2):
            cur, pos = "x", 0
            letters = w.stem + w.cycle
            seen = {}
            verdict = None
            while (cur, pos) not in seen:
                seen[(cur, pos)] = True
                key = (cur, letters[pos])
                if key not in delta:
                    verdict = False
                    break
                cur = delta[key]
                pos = pos + 1 if pos + 1 < len(letters) else len(w.stem)
            if verdict is None:
                first = (cur, pos)
                cyc = set()
                while True:
                    cyc.add(letters[pos])
                    cur = delta[(cur, letters[pos])]
                    pos = pos + 1 if pos + 1 < len(letters) else len(w.stem)
                    if (cur, pos) == first:
                        break
                verdict = ("b" in cyc) and ("c" not in cyc)
            assert parity_trace_membership(aut, "x", w).value == verdict
            count += 1
        assert count == 48  # (1 + 3 stems) x (3 + 9 cycles)


class TestDecoratedImpliesOrdinary:
    def test_sampled_implication(self):
        # decorated acceptance of xi forces plain acceptance of flatten(xi)
        from paritrace.omega_input import flatten_word
        from paritrace.oracle import lasso_acceptance, tree_membership_oracle

        rng = random.Random(5)
        positives = 0
        for seed in range(120):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.45), seed
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 1, 3, rng)
            verdict = lasso_acceptance(aut, x, w)
            if not verdict.value:
                continue
            from paritrace.omega_input import decorate_run

            xi = decorate_run(verdict.run, aut.priorities)
            if decorated_trace_membership(aut, x, xi).value:
                positives += 1
                assert parity_trace_membership(aut, x, flatten_word(xi)).value
        assert positives > 10


SOLVE_COUNTERS = Path(__file__).parent / "data" / "solve_counters.json"


#: Case kinds recorded on the literal system: the input reader and mode of
#: ``build_restricted_hes``.
LITERAL_KINDS = {
    "lasso": (parse_lasso, "ordinary"),
    "decorated-lasso": (parse_decorated_lasso, "decorated"),
    "tree": (parse_tree, "ordinary"),
    "decorated-tree": (parse_tree, "decorated"),
}


def _solve_counter_case(case) -> dict:
    """The recorded route: the literal system for lassos and trees, and for
    Büchi automata that of their parity encoding; the membership function
    for every other kind."""
    aut = parse(case["automaton"])
    x, text, kind = case["state"], case["input"], case["kind"]
    if kind == "buchi":
        aut, kind = buchi_to_parity(aut), "lasso"
    if kind == "infinitary":
        return {"verdict": infinitary_trace_membership(aut, x, parse_lasso(text))}
    if kind == "finite":
        word = tuple(text.split(",")) if text else ()
        return {"verdict": finite_trace_membership(aut, x, word)}
    if kind in LITERAL_KINDS:
        read, mode = LITERAL_KINDS[kind]
        rh = build_restricted_hes(aut, read(text), mode)
        sol = rh.solve()
        return {
            "verdict": rh.member(sol.assignment, x, aut.priority(x)),
            "iterations": list(sol.iterations),
            "body_evals": sol.body_evals,
        }
    raise AssertionError(f"unknown case kind {kind!r}")


def _membership_case(case):
    """The membership function's verdict on a case that records counters."""
    aut = parse(case["automaton"])
    x, text, kind = case["state"], case["input"], case["kind"]
    if kind == "lasso":
        return parity_trace_membership(aut, x, parse_lasso(text))
    if kind == "buchi":
        return buchi_trace_membership(aut, x, parse_lasso(text))
    if kind == "decorated-lasso":
        return decorated_trace_membership(aut, x, parse_decorated_lasso(text))
    if kind == "tree":
        return tree_language_membership(aut, x, parse_tree(text))
    if kind == "decorated-tree":
        return decorated_trace_membership(aut, x, parse_tree(text))
    raise AssertionError(f"unknown case kind {kind!r}")


class TestSolveCounters:
    """Verdicts and work counters pinned on a seeded mix of every input kind.

    The expected values were recorded once and are never regenerated: equal
    iteration and body-evaluation counts show that a rebuilt restricted
    system has extensionally the same bodies as the one that was recorded.
    They were recorded on the literal system, which is asserted exactly;
    the compacted system the membership functions solve must give every
    recorded verdict with no more body evaluations.
    """

    def test_recorded_counters_reproduce(self):
        cases = json.loads(SOLVE_COUNTERS.read_text(encoding="utf-8"))["cases"]
        kinds = {case["kind"] for case in cases}
        assert kinds == {
            "lasso", "decorated-lasso", "buchi", "infinitary", "finite", "tree", "decorated-tree"
        }
        mismatches = [
            (i, case["kind"], case["expected"], got)
            for i, case in enumerate(cases)
            if (got := _solve_counter_case(case)) != case["expected"]
        ]
        assert not mismatches, mismatches[:5]

    def test_membership_route_within_recorded(self):
        cases = json.loads(SOLVE_COUNTERS.read_text(encoding="utf-8"))["cases"]
        cases = [case for case in cases if "body_evals" in case["expected"]]
        assert len(cases) == 376
        recorded = solved = 0
        for i, case in enumerate(cases):
            v = _membership_case(case)
            expected = case["expected"]
            assert v.value == expected["verdict"], (i, case["kind"])
            assert v.stats.body_evals <= expected["body_evals"], (i, case["kind"])
            recorded += expected["body_evals"]
            solved += v.stats.body_evals
        assert solved < recorded


DEEP_SOLVE_COUNTERS = Path(__file__).parent / "data" / "deep_solve_counters.json"


def _deep_counter_case(case) -> dict:
    aut = parse(case["automaton"])
    x = case["state"]
    rh = build_restricted_hes(aut, parse_lasso(case["input"]))
    warm, cold = rh.solve(), rh.solve(warm_start=False)
    verdict = rh.member(warm.assignment, x, aut.priority(x))
    assert rh.member(cold.assignment, x, aut.priority(x)) == verdict
    return {
        "verdict": verdict,
        "warm": {"iterations": list(warm.iterations), "body_evals": warm.body_evals},
        "cold": {"iterations": list(cold.iterations), "body_evals": cold.body_evals},
    }


class TestDeepSolveCounters:
    """Verdicts and nested-solve counters pinned on 10-state lassos with
    2n of 8, 10 and 12, with and without warm starts.

    Recorded once on the literal system and never regenerated: equal counts
    show that a rewritten solver runs the same schedule of inner solves as
    the recorded one.  The compacted membership route must give every
    recorded verdict with no more body evaluations than the warm solve.
    """

    def test_recorded_counters_reproduce(self):
        cases = json.loads(DEEP_SOLVE_COUNTERS.read_text(encoding="utf-8"))["cases"]
        assert {case["two_n"] for case in cases} == {8, 10, 12}
        assert {case["expected"]["verdict"] for case in cases} == {True, False}
        mismatches = [
            (i, case["expected"], got)
            for i, case in enumerate(cases)
            if (got := _deep_counter_case(case)) != case["expected"]
        ]
        assert not mismatches, mismatches[:3]

    def test_membership_route_within_recorded(self):
        cases = json.loads(DEEP_SOLVE_COUNTERS.read_text(encoding="utf-8"))["cases"]
        recorded = solved = 0
        for i, case in enumerate(cases):
            aut = parse(case["automaton"])
            v = parity_trace_membership(aut, case["state"], parse_lasso(case["input"]))
            expected = case["expected"]
            assert v.value == expected["verdict"], i
            assert v.stats.body_evals <= expected["warm"]["body_evals"], i
            recorded += expected["warm"]["body_evals"]
            solved += v.stats.body_evals
        assert solved < recorded


DATA = Path(__file__).parent / "data"


class TestQuadraticLasso:
    """A mu-equation that moves one position per Kleene step around a
    1,600-position lasso: thousands of evaluations of a wide body."""

    def test_verdict_and_counters(self):
        aut = parse((DATA / "quadratic_lasso.aut").read_text(encoding="utf-8"))
        w = parse_lasso((DATA / "quadratic_lasso.txt").read_text(encoding="utf-8").strip())
        assert w.n_positions == 1600 and len(aut.states) == 12
        rh = build_restricted_hes(aut, w)
        sol = rh.solve()
        assert rh.member(sol.assignment, "s1", aut.priority("s1")) is False
        assert sol.body_evals == 4363
        assert sol.iterations == (4173, 93, 0, 0)
        # the compacted system drops the empty class 4: one evaluation fewer
        v = parity_trace_membership(aut, "s1", w)
        assert v.value is False
        assert v.stats.body_evals == 4362
        assert v.stats.iterations == (4173, 93, 0)
        assert lasso_acceptance(aut, "s1", w).value is False


def wide_tree(rng, n_nodes, alphabet):
    """A tree generator of exactly ``n_nodes`` nodes, all reachable: nodes
    hang off a random spanning tree, and the child slots left over point
    back at random nodes."""
    branching = [s for s in alphabet.symbols if alphabet.arity(s) > 0]
    labels, kids, open_slots = [], [], []

    def add(symbols):
        sym = rng.choice(symbols)
        labels.append(sym)
        kids.append([None] * alphabet.arity(sym))
        open_slots.extend((len(labels) - 1, j) for j in range(alphabet.arity(sym)))

    add(branching)
    while len(labels) < n_nodes:
        parent, j = open_slots.pop(rng.randrange(len(open_slots)))
        kids[parent][j] = f"n{len(labels)}"
        add(branching if not open_slots else alphabet.symbols)
    for parent, j in open_slots:
        kids[parent][j] = f"n{rng.randrange(n_nodes)}"
    nodes = {f"n{i}": (sym, tuple(ks)) for i, (sym, ks) in enumerate(zip(labels, kids))}
    return RegularTreeRep(nodes, "n0")


class TestWideDifferential:
    """Engine against the independent oracles on inputs of hundreds of
    positions and tens of states."""

    def test_long_lassos_match_product_graph(self):
        rng = random.Random(404)
        verdicts = []
        for _ in range(10):
            states = [f"s{i}" for i in range(rng.randint(12, 36))]
            transitions = [
                (x, a, y) for x in states for a in "ab" for y in rng.sample(states, 3)
            ]
            # priorities 1..3 weighted so that about half the lassos are accepted
            priorities = dict(zip(states, rng.choices((1, 2, 3), (3, 1, 4), k=len(states))))
            aut = ParityWordAutomaton(states, ("a", "b"), transitions, priorities)
            n = rng.randint(150, 800)
            word = tuple(rng.choice("ab") for _ in range(n))
            split = rng.randint(0, n // 4)
            w = LassoWord(word[:split], word[split:])
            x = rng.choice(states)
            v = parity_trace_membership(aut, x, w).value
            assert v == lasso_acceptance(aut, x, w).value, x
            verdicts.append(v)
        assert True in verdicts and False in verdicts

    def test_wide_trees_match_parity_game(self):
        rng = random.Random(405)
        alphabet = RankedAlphabet([("f", 2), ("g", 1), ("h", 2), ("c", 0)])
        verdicts = []
        for _ in range(40):
            states = [f"s{i}" for i in range(rng.randint(4, 10))]
            transitions = [
                (x, sym, tuple(rng.choice(states) for _ in range(alphabet.arity(sym))))
                for x in states
                for sym in alphabet.symbols
                for _ in range(rng.choice((1, 1, 2)))
            ]
            priorities = {x: rng.randint(1, 4) for x in states}
            aut = ParityTreeAutomaton(states, alphabet, transitions, priorities)
            t = wide_tree(rng, rng.randint(20, 48), alphabet)
            x = rng.choice(states)
            v = tree_language_membership(aut, x, t).value
            assert v == tree_membership_oracle(aut, x, t).value, x
            verdicts.append(v)
        assert True in verdicts and False in verdicts


def with_priorities(prios):
    """A one-letter word automaton whose states ``s<q>`` have the listed
    priorities."""
    states = [f"s{q}" for q in prios]
    transitions = [(x, "a", y) for x in states for y in states]
    return ParityWordAutomaton(states, ("a",), transitions, dict(zip(states, prios)))


def sparse_priorities(rng, states):
    """Priorities from a random set of one to four values in 1..12."""
    used = rng.sample(range(1, 13), rng.randint(1, 4))
    return {x: rng.choice(used) for x in states}


class TestCompaction:
    """Membership solves one equation per maximal run of used priorities
    of equal parity; the literal system stays one equation per class."""

    def test_runs_of_equal_parity_merge(self):
        aut = with_priorities((8, 1, 4, 3, 6))
        partition, signs, block_of = trace._compact_blocks(aut, False, aut.states)
        assert partition == [("s1", "s3"), ("s4", "s6", "s8")]
        assert signs == [MU, NU]
        assert block_of == {"s1": 1, "s3": 1, "s4": 2, "s6": 2, "s8": 2}
        assert len(build_restricted_hes(aut, parse_lasso(";a")).hes) == 8

    @pytest.mark.parametrize("priority, sign", [(2, NU), (3, MU)])
    def test_single_priority_is_one_block(self, priority, sign):
        aut = with_priorities((priority,))
        assert trace._compact_blocks(aut, False, aut.states) == (
            [(f"s{priority}",)], [sign], {f"s{priority}": 1}
        )

    def test_decorated_is_one_nu_block(self):
        aut = with_priorities((8, 1, 4, 3, 6))
        partition, signs, block_of = trace._compact_blocks(aut, True, aut.states)
        assert partition == [("s1", "s3", "s4", "s6", "s8")]
        assert signs == [NU]
        assert set(block_of.values()) == {1}

    def test_sparse_lassos_match_product_graph(self):
        rng = random.Random(707)
        verdicts = []
        for _ in range(600):
            states = [f"s{i}" for i in range(rng.randint(1, 6))]
            transitions = [
                (x, a, y)
                for x in states
                for a in "ab"
                for y in rng.sample(states, rng.randint(0, min(2, len(states))))
            ]
            aut = ParityWordAutomaton(states, ("a", "b"), transitions, sparse_priorities(rng, states))
            x = rng.choice(states)
            w = random_lasso(aut.alphabet, 3, 4, rng)
            v = parity_trace_membership(aut, x, w).value
            oracle = lasso_acceptance(aut, x, w)
            assert v == oracle.value, (aut.priorities, x, w)
            if v:
                xi = decorate_run(oracle.run, aut.priorities)
                assert decorated_trace_membership(aut, x, xi).value
            verdicts.append(v)
        assert True in verdicts and False in verdicts

    def test_sparse_trees_match_parity_game(self):
        rng = random.Random(708)
        alphabet = RankedAlphabet([("f", 2), ("g", 1), ("c", 0)])
        verdicts = []
        for _ in range(200):
            states = [f"s{i}" for i in range(rng.randint(1, 6))]
            transitions = [
                (x, sym, tuple(rng.choice(states) for _ in range(alphabet.arity(sym))))
                for x in states
                for sym in alphabet.symbols
                for _ in range(rng.choice((1, 1, 2)))
            ]
            aut = ParityTreeAutomaton(states, alphabet, transitions, sparse_priorities(rng, states))
            t = wide_tree(rng, rng.randint(5, 20), alphabet)
            x = rng.choice(states)
            v = tree_language_membership(aut, x, t).value
            oracle = tree_membership_oracle(aut, x, t)
            assert v == oracle.value, (aut.priorities, x)
            if v:
                xi = decorate_run(oracle.run, aut.priorities)
                assert decorated_trace_membership(aut, x, xi).value
            verdicts.append(v)
        assert True in verdicts and False in verdicts

    def test_decorated_matches_literal_system(self):
        # arbitrary decorations, most of them unrealisable
        rng = random.Random(709)
        verdicts = []
        for _ in range(300):
            states = [f"s{i}" for i in range(rng.randint(1, 5))]
            transitions = [(x, a, y) for x in states for a in "ab" for y in rng.sample(states, 1)]
            aut = ParityWordAutomaton(states, ("a", "b"), transitions, sparse_priorities(rng, states))
            x = rng.choice(states)
            used = sorted(set(aut.priorities.values()))
            plain = random_lasso(aut.alphabet, 2, 3, rng)
            xi = DecoratedLassoWord(
                tuple((a, rng.choice(used)) for a in plain.stem),
                tuple((a, rng.choice(used)) for a in plain.cycle),
            )
            rh = build_restricted_hes(aut, xi, "decorated")
            literal = rh.member(rh.solve().assignment, x, aut.priority(x))
            assert trace._compact_verdict(aut, x, xi, True).value == literal
            verdicts.append(literal)
        assert True in verdicts and False in verdicts


def reference_cone(aut, x, inp) -> set:
    """The states of the cone of ``(x, root)``, by search over (state,
    position) pairs with the input's own child lists: a pair steps along
    every transition its position's symbol enables, and a decorated
    position admits only the states of its priority."""
    if isinstance(inp, (LassoWord, DecoratedLassoWord)):
        root, label, kids = 0, inp.letter, lambda p: (inp.next_pos(p),)
    else:
        root, label, kids = inp.root, inp.label, inp.children
    decorated = isinstance(inp, (DecoratedLassoWord, DecoratedRegularTreeRep))
    succ: dict = {}
    for y, sym, ys in aut.transitions:
        succ.setdefault((y, sym), []).append(ys if isinstance(ys, tuple) else (ys,))
    seen = {(x, root)}
    stack = [(x, root)]
    while stack:
        y, p = stack.pop()
        sym = label(p)
        if decorated:
            sym, q = sym
            if q != aut.priority(y):
                continue
        for ys in succ.get((y, sym), ()):
            for pair in zip(ys, kids(p)):
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
    return {y for y, _ in seen}


def literal_verdict(aut, x, inp, mode="ordinary"):
    rh = build_restricted_hes(aut, inp, mode)
    return rh.member(rh.solve().assignment, x, aut.priority(x))


def hidden_word_automaton(rng):
    """A word automaton over a, b, c with sparse priorities whose states
    ``h*`` are entered only on c."""
    states = [f"s{i}" for i in range(rng.randint(1, 6))]
    hidden = [f"h{i}" for i in range(rng.randint(1, 3))]
    transitions = [
        (x, a, y)
        for x in states
        for a in "ab"
        for y in rng.sample(states, rng.randint(0, min(2, len(states))))
    ]
    transitions += [(x, "c", rng.choice(hidden)) for x in states if rng.random() < 0.6]
    transitions += [(h, a, rng.choice(states + hidden)) for h in hidden for a in "abc"]
    priorities = sparse_priorities(rng, states + hidden)
    return ParityWordAutomaton(states + hidden, ("a", "b", "c"), transitions, priorities)


def hidden_tree_automaton(rng, alphabet):
    """A tree automaton with sparse priorities whose states ``h*`` are
    entered only below an ``h`` node."""
    states = [f"s{i}" for i in range(rng.randint(1, 5))]
    hidden = [f"h{i}" for i in range(rng.randint(1, 3))]
    transitions = []
    for x in states + hidden:
        for sym in alphabet.symbols:
            targets = states + hidden if sym == "h" or x in hidden else states
            for _ in range(rng.choice((1, 1, 2))):
                transitions.append(
                    (x, sym, tuple(rng.choice(targets) for _ in range(alphabet.arity(sym))))
                )
    priorities = sparse_priorities(rng, states + hidden)
    return ParityTreeAutomaton(states + hidden, alphabet, transitions, priorities)


class TestCone:
    """Membership solves the compacted system over the states of the cone
    of (x, root) only: the pairs that the input can drive a run into.  The
    verdicts equal the literal system's and the oracles', and ``widths``
    count exactly the cone's states.

    Besides random inputs, each differential runs fixed edge shapes of the
    generator, whose child slots the walk reads off the predecessor maps:
    one-position lassos (the wrap is a shift by 0), cycles of length 1
    after a stem, and trees whose child slots have several distinct right
    and left offsets, a shift by 0, and nullary leaves."""

    EDGE_LASSOS = (";a", ";c", "ab;c", "c;a", "bc;b", "abc;a")
    EDGE_TREES = (
        RegularTreeRep({"n0": ("c", ())}, "n0"),
        RegularTreeRep(
            {
                "n0": ("c", ()),
                "n1": ("g", ("n3",)),
                "n2": ("h", ("n0", "n4")),
                "n3": ("f", ("n2", "n0")),
                "n4": ("f", ("n1", "n4")),
                "n5": ("h", ("n4", "n2")),
            },
            "n5",
        ),
        RegularTreeRep(
            {"r": ("f", ("a", "b")), "a": ("h", ("c1", "b")), "b": ("g", ("r",)), "c1": ("c", ())},
            "r",
        ),
    )
    EDGE_DRAWS = 20

    def test_edge_tree_offsets(self):
        t = self.EDGE_TREES[1]
        index = {n: i for i, n in enumerate(t.node_ids())}
        children = [tuple(index[c] for c in t.children(n)) for n in t.node_ids()]
        (right0, left0), (right1, left1) = trace.predecessor_maps(children)
        assert sorted(d for d, _ in right0) == [2] and sorted(d for d, _ in left0) == [1, 2, 3]
        assert sorted(d for d, _ in right1) == [0, 2] and sorted(d for d, _ in left1) == [3]

    def test_appendix_cone_leaves_out_z(self):
        # z is reachable only on c, which a;bab never reads
        aut = appendix_automaton()
        w = parse_lasso("a;bab")
        assert reference_cone(aut, "x", w) == {"x", "y"}
        v = parity_trace_membership(aut, "x", w)
        assert v.value is True and literal_verdict(aut, "x", w) is True
        assert v.stats.widths == (1, 1)
        assert len(v.stats.iterations) == 2
        assert len(trace._compact_blocks(aut, False, aut.states)[0]) == 3
        assert len(build_restricted_hes(aut, w).hes) == 4

    def test_lassos_match_literal_system_and_product_graph(self):
        rng = random.Random(808)
        verdicts, smaller = [], 0
        edges = [parse_lasso(e) for e in self.EDGE_LASSOS for _ in range(self.EDGE_DRAWS)]
        for i in range(400 + len(edges)):
            aut = hidden_word_automaton(rng)
            x = rng.choice(aut.states)
            w = random_lasso("ab" if i % 3 else "abc", 3, 4, rng) if i < 400 else edges[i - 400]
            cone = reference_cone(aut, x, w)
            smaller += len(cone) < len(aut.states)
            v = parity_trace_membership(aut, x, w)
            oracle = lasso_acceptance(aut, x, w)
            assert v.value == literal_verdict(aut, x, w) == oracle.value, (aut.priorities, x, w)
            assert sum(v.stats.widths) == len(cone), (x, w)
            if v.value:
                xi = decorate_run(oracle.run, aut.priorities)
                d = decorated_trace_membership(aut, x, xi)
                assert d.value and d.stats.widths == (len(reference_cone(aut, x, xi)),)
            verdicts.append(v.value)
        assert True in verdicts and False in verdicts
        assert smaller >= 200

    def test_decorated_lassos_match_literal_system(self):
        # arbitrary decorations, most of them unrealisable
        rng = random.Random(809)
        verdicts = []
        edges = [parse_lasso(e) for e in self.EDGE_LASSOS for _ in range(self.EDGE_DRAWS)]
        for i in range(300 + len(edges)):
            aut = hidden_word_automaton(rng)
            x = rng.choice(aut.states)
            used = sorted(set(aut.priorities.values()))
            if i < 300:
                plain = random_lasso("ab" if i % 3 else "abc", 2, 3, rng)
            else:
                plain = edges[i - 300]
            xi = DecoratedLassoWord(
                tuple((a, rng.choice(used)) for a in plain.stem),
                tuple((a, rng.choice(used)) for a in plain.cycle),
            )
            v = trace._compact_verdict(aut, x, xi, True)
            assert v.value == literal_verdict(aut, x, xi, "decorated"), (x, xi)
            assert v.stats.widths == (len(reference_cone(aut, x, xi)),)
            verdicts.append(v.value)
        assert True in verdicts and False in verdicts

    def test_trees_match_literal_system_and_parity_game(self):
        rng = random.Random(810)
        alphabet = RankedAlphabet([("f", 2), ("g", 1), ("h", 2), ("c", 0)])
        without_h = RankedAlphabet([("f", 2), ("g", 1), ("c", 0)])
        verdicts, smaller = [], 0
        edges = [t for t in self.EDGE_TREES for _ in range(self.EDGE_DRAWS)]
        for i in range(200 + len(edges)):
            aut = hidden_tree_automaton(rng, alphabet)
            x = rng.choice(aut.states)
            if i < 200:
                t = wide_tree(rng, rng.randint(3, 16), without_h if i % 3 else alphabet)
            else:
                t = edges[i - 200]
            cone = reference_cone(aut, x, t)
            smaller += len(cone) < len(aut.states)
            v = tree_language_membership(aut, x, t)
            oracle = tree_membership_oracle(aut, x, t)
            assert v.value == literal_verdict(aut, x, t) == oracle.value, (aut.priorities, x)
            assert sum(v.stats.widths) == len(cone), x
            used = sorted(set(aut.priorities.values()))
            xi = DecoratedRegularTreeRep(
                {n: ((t.label(n), rng.choice(used)), t.children(n)) for n in t.node_ids()},
                t.root,
            )
            d = trace._compact_verdict(aut, x, xi, True)
            assert d.value == literal_verdict(aut, x, xi, "decorated"), x
            assert d.stats.widths == (len(reference_cone(aut, x, xi)),)
            verdicts.append(v.value)
        assert True in verdicts and False in verdicts
        assert smaller >= 100

    def test_routes_call_no_oracle_or_graph_code(self, monkeypatch):
        aut = appendix_automaton()
        w = parse_lasso("a;bab")
        xi = decorate_run(lasso_acceptance(aut, "x", w).run, aut.priorities)
        alph = RankedAlphabet([("f", 2), ("c", 0)])
        tree_aut = ParityTreeAutomaton(
            ("x", "y", "z"),
            alph,
            [("x", "f", ("y", "y")), ("y", "c", ()), ("z", "f", ("z", "z"))],
            {"x": 2, "y": 2, "z": 1},
        )
        t = RegularTreeRep({"n0": ("f", ("n1", "n1")), "n1": ("c", ())}, "n0")

        def refuse(*args, **kwargs):
            raise AssertionError("the engine must not call the oracles or graphutil")

        monkeypatch.setattr(oracle_mod, "lasso_acceptance", refuse)
        monkeypatch.setattr(oracle_mod, "tree_membership_oracle", refuse)
        patched = 0
        for name, fn in vars(graphutil).items():
            if inspect.isfunction(fn) and fn.__module__ == graphutil.__name__:
                monkeypatch.setattr(graphutil, name, refuse)
                patched += 1
        assert patched >= 5
        assert parity_trace_membership(aut, "x", w).value
        assert decorated_trace_membership(aut, "x", xi).value
        assert tree_language_membership(tree_aut, "x", t).value


def pre(maps, s):
    """``pre(S)`` from one child slot's ``(right, left)`` shift maps."""
    right, left = maps
    acc = 0
    for d, m in right:
        acc |= (s >> d) & m
    for d, m in left:
        acc |= (s << d) & m
    return acc


def pre_by_definition(children, s, i=0):
    """``{p : children[p][i] in S}``, read off the child lists."""
    return sum(1 << p for p, kids in enumerate(children) if len(kids) > i and (s >> kids[i]) & 1)


class TestLassoPredecessorMaps:
    """A lasso's generator states its predecessor map in closed form: a
    right shift by 1 and the wrap from the last position to the loop
    start.  It must agree with ``predecessor_maps`` over child lists built
    from ``next_pos``."""

    LASSOS = [
        parse_lasso(";a"),  # n = 1
        parse_lasso(";abba"),  # stem 0
        parse_lasso("abab;b"),  # cycle of length 1 after a stem
        parse_lasso("ab;ba"),
        parse_decorated_lasso(";b:1"),
        parse_decorated_lasso("b:1;a:2,b:1"),
        parse_decorated_lasso("a:1,b:2,b:3;a:2"),
    ]

    @staticmethod
    def long_lasso():
        rng = random.Random(5000)
        word = tuple(rng.choice("ab") for _ in range(5000))
        return LassoWord(word[:1234], word[1234:])

    @pytest.mark.parametrize("i", range(len(LASSOS) + 1))
    def test_closed_form_equals_child_lists(self, i):
        w = self.LASSOS[i] if i < len(self.LASSOS) else self.long_lasso()
        aut = intro_automaton()
        symbol_of = itemgetter(0) if isinstance(w, DecoratedLassoWord) else None
        labels, preds, root = trace._lasso_generator(aut, w, symbol_of)
        n = w.n_positions
        children = tuple((w.next_pos(p),) for p in range(n))
        assert root == 0
        assert list(labels) == [w.letter(p) for p in range(n)]
        assert preds == trace.predecessor_maps(children)
        rng = random.Random(f"pre-{i}")
        for s in [0, (1 << n) - 1, 1, 1 << (n - 1)] + [rng.getrandbits(n) for _ in range(50)]:
            assert pre(preds[0], s) == pre_by_definition(children, s)

    def test_predecessor_maps_on_random_child_lists(self):
        # dense and sparse offsets, nullary positions and two child slots
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 300)
            children = []
            for p in range(n):
                arity = rng.choice((0, 1, 2, 2))
                near = rng.random() < 0.5
                children.append(
                    tuple(
                        min(n - 1, p + 1) if near else rng.randrange(n) for _ in range(arity)
                    )
                )
            maps = trace.predecessor_maps(children)
            s = rng.getrandbits(n)
            for i, slot in enumerate(maps):
                assert pre(slot, s) == pre_by_definition(children, s, i)

    def test_lasso_memberships_never_read_child_lists(self, monkeypatch):
        def refuse(children):
            raise AssertionError("a lasso's predecessor maps are built in closed form")

        monkeypatch.setattr(trace, "predecessor_maps", refuse)
        aut = intro_automaton()
        assert parity_trace_membership(aut, "x", parse_lasso(";ba")).value
        w = self.long_lasso()
        assert parity_trace_membership(aut, "x", w).value == lasso_acceptance(aut, "x", w).value
        assert decorated_trace_membership(aut, "x", parse_decorated_lasso("b:1;a:2,b:1")).value
        buchi = BuchiWordAutomaton(aut.states, aut.alphabet, aut.transitions, {"y"})
        assert buchi_trace_membership(buchi, "x", parse_lasso(";ba")).value
        assert not buchi_trace_membership(buchi, "x", parse_lasso("b;a")).value
        assert infinitary_trace_membership(aut, "x", parse_lasso("b;a"))


class TestValueClasses:
    """The value records are read-only tuples that keep their checks, truth
    values, equality and hashing."""

    def test_truth_is_the_verdict(self):
        stats = SolveStats((), 0, 1, ())
        for value in (True, False):
            assert bool(MembershipVerdict(value, stats)) is value
            assert bool(oracle_mod.OracleVerdict(value)) is value

    def test_fields_are_read_only(self):
        records = [
            LassoWord((), ("a",)),
            DecoratedLassoWord((), (("a", 2),)),
            RunLasso((), (("a", "x"),)),
            SolveStats((1,), 2, 3, (4,)),
            MembershipVerdict(True, SolveStats((1,), 2, 3, (4,))),
            oracle_mod.OracleVerdict(False),
            FlatteningReport(True, False, False, None, {}),
            WordGenParams(),
            Equation("u1", PowersetLattice(()), MU, lambda a: 0),
        ]
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)

    def test_equality_and_hashing(self):
        makers = [
            lambda: LassoWord(("a",), ("b",)),
            lambda: DecoratedLassoWord((("a", 1),), (("b", 2),)),
            lambda: RunLasso((), (("a", "x"),)),
            lambda: SolveStats((1, 2), 3, 4, (5, 6)),
        ]
        for make in makers:
            a, b = make(), make()
            assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert LassoWord(("a",), ("b",)) != LassoWord((), ("a", "b"))
        assert SolveStats((1,), 2, 3, (4,)) != SolveStats((1,), 2, 3, (5,))

    def test_construction_checks(self):
        with pytest.raises(InputError):
            LassoWord(("a",), ())
        with pytest.raises(InputError):
            DecoratedLassoWord((("a", 1),), ())
        with pytest.raises(InputError):
            DecoratedLassoWord((), (("a", 0),))
        with pytest.raises(ValueError):
            Equation("u1", PowersetLattice(()), "lfp", lambda a: 0)

    def test_solution_equality_and_repr(self):
        system = build_restricted_hes(intro_automaton(), parse_lasso(";ba"), "ordinary").hes
        a, b = hes_mod.solve(system), hes_mod.solve(system)
        assert a == b and a["u1"] == a.assignment[0]
        assert repr(a) == repr(b) and repr(a).startswith("Solution(assignment=")
