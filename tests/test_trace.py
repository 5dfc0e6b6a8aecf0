import json
import random
from pathlib import Path

import pytest

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
from paritrace.lattice import MU, NU
from paritrace.omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    DecorationError,
    LassoWord,
    RegularTreeRep,
    all_lassos,
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
    GradeMismatchError,
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
        for seed in range(50):
            baut = random_buchi_automaton(
                WordGenParams(n_states=4, n_letters=2, density=0.4), seed
            )
            x = rng.choice(baut.states)
            w = random_lasso(baut.alphabet, 2, 3, rng)
            assert (
                buchi_trace_membership(baut, x, w).value
                == parity_trace_membership(buchi_to_parity(baut), x, w).value
            )


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


def _solve_counter_case(case) -> dict:
    aut = parse(case["automaton"])
    x, text, kind = case["state"], case["input"], case["kind"]
    if kind == "infinitary":
        return {"verdict": infinitary_trace_membership(aut, x, parse_lasso(text))}
    if kind == "finite":
        word = tuple(text.split(",")) if text else ()
        return {"verdict": finite_trace_membership(aut, x, word)}
    if kind == "lasso":
        v = parity_trace_membership(aut, x, parse_lasso(text))
    elif kind == "buchi":
        v = buchi_trace_membership(aut, x, parse_lasso(text))
    elif kind == "decorated-lasso":
        v = decorated_trace_membership(aut, x, parse_decorated_lasso(text))
    elif kind == "tree":
        v = tree_language_membership(aut, x, parse_tree(text))
    elif kind == "decorated-tree":
        v = decorated_trace_membership(aut, x, parse_tree(text))
    else:
        raise AssertionError(f"unknown case kind {kind!r}")
    return {
        "verdict": v.value,
        "iterations": list(v.stats.iterations),
        "body_evals": v.stats.body_evals,
    }


class TestSolveCounters:
    """Verdicts and work counters pinned on a seeded mix of every input kind.

    The expected values were recorded once and are never regenerated: equal
    iteration and body-evaluation counts show that a rebuilt restricted
    system has extensionally the same bodies as the one that was recorded.
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

    Recorded once and never regenerated: equal counts show that a rewritten
    solver runs the same schedule of inner solves as the recorded one.
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


DATA = Path(__file__).parent / "data"


class TestQuadraticLasso:
    """A mu-equation that moves one position per Kleene step around a
    1,600-position lasso: thousands of evaluations of a wide body."""

    def test_verdict_and_counters(self):
        aut = parse((DATA / "quadratic_lasso.aut").read_text(encoding="utf-8"))
        w = parse_lasso((DATA / "quadratic_lasso.txt").read_text(encoding="utf-8").strip())
        assert w.n_positions == 1600 and len(aut.states) == 12
        v = parity_trace_membership(aut, "s1", w)
        assert v.value is False
        assert v.stats.body_evals == 4363
        assert v.stats.iterations == (4173, 93, 0, 0)
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
