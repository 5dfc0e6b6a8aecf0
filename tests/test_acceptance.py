"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (visible with ``pytest -s``) after its
assertions, including the measured wall time against the stated budget.
Criteria 4 and 5 share one campaign, computed once per session.
"""

import random
import time

import pytest
from brute import brute_solve
from genhes import random_hes

from paritrace.automata import (
    DetGenParams,
    TreeGenParams,
    WordGenParams,
    buchi_to_parity,
    random_buchi_automaton,
    random_det_exception_automaton,
    random_tree_automaton,
    random_word_automaton,
)
from paritrace.harness import _simulate_det, appendix_automaton, intro_automaton
from paritrace.hes import solve
from paritrace.lattice import MU, NU
from paritrace.omega_input import (
    DecoratedLassoWord,
    all_lassos,
    check_decorated_invariant,
    normalize,
    random_lasso,
    random_regular_tree,
    tree_reps_bisimilar,
    unroll,
)
from paritrace.oracle import (
    finite_run_enumeration,
    lasso_acceptance,
    tree_membership_oracle,
)
from paritrace.trace import (
    BOTTOM,
    buchi_trace_membership,
    det_exception_behavior,
    finite_trace_enum,
    flattening_theorem_check,
    parity_trace_membership,
)


def announce(number: int, name: str, elapsed: float, budget: float | None, extra: str = ""):
    budget_txt = f" (budget {budget:.0f}s)" if budget else ""
    print(f"\nACCEPTANCE {number} [{name}]: PASS in {elapsed:.2f}s{budget_txt}{extra}")


# ---------------------------------------------------------------------------
# 1. Pinned two-state instance, both routes
# ---------------------------------------------------------------------------

def test_criterion_1_pinned_intro_instance():
    t0 = time.time()
    from paritrace.omega_input import parse_lasso

    aut = intro_automaton()
    ba = parse_lasso(";ba")
    b_then_a = parse_lasso("b;a")
    assert parity_trace_membership(aut, "x", ba).value is True
    assert lasso_acceptance(aut, "x", ba).value is True
    assert parity_trace_membership(aut, "x", b_then_a).value is False
    assert lasso_acceptance(aut, "x", b_then_a).value is False
    elapsed = time.time() - t0
    assert elapsed < 1.0
    announce(1, "pinned intro instance", elapsed, 1.0)


# ---------------------------------------------------------------------------
# 2. Pinned three-state instance on every short lasso
# ---------------------------------------------------------------------------

def _unique_run_cycle_letters(aut, x, w):
    """Letters on the cycle of the unique run, or None if the run dies.

    Direct step-by-step simulation (the automaton is deterministic),
    independent of both the equation engine and the graph oracle.
    """
    delta = {(s, a): t for (s, a, t) in aut.transitions}
    letters = w.stem + w.cycle
    stem_len = len(w.stem)
    cur, pos = x, 0
    seen = set()
    while (cur, pos) not in seen:
        seen.add((cur, pos))
        key = (cur, letters[pos])
        if key not in delta:
            return None
        cur = delta[key]
        pos = pos + 1 if pos + 1 < len(letters) else stem_len
    first = (cur, pos)
    cyc = set()
    while True:
        cyc.add(letters[pos])
        cur = delta[(cur, letters[pos])]
        pos = pos + 1 if pos + 1 < len(letters) else stem_len
        if (cur, pos) == first:
            return cyc


def test_criterion_2_pinned_appendix_language():
    t0 = time.time()
    aut = appendix_automaton()
    checked = 0
    naive_mismatches = 0
    for w in all_lassos(("a", "b", "c"), 2, 3):
        member = parity_trace_membership(aut, "x", w).value
        cyc = _unique_run_cycle_letters(aut, "x", w)
        predicate = cyc is not None and ("b" in cyc) and ("c" not in cyc)
        assert member == predicate, f"lasso {w}: member={member} predicate={predicate}"
        assert member == lasso_acceptance(aut, "x", w).value
        naive = ("b" in w.cycle) and ("c" not in w.cycle)
        if member != naive:
            naive_mismatches += 1
        checked += 1
    assert checked >= 360
    # the input-cycle reading of the predicate is wrong exactly on the
    # lassos whose stem kills the unique run (see the decisions ledger)
    assert naive_mismatches == 59
    elapsed = time.time() - t0
    assert elapsed < 10.0
    announce(2, "pinned appendix language", elapsed, 10.0, f" on {checked} lassos")


# ---------------------------------------------------------------------------
# 3. Solver vs brute-force evaluation; pinned order sensitivity
# ---------------------------------------------------------------------------

def test_criterion_3_solver_matches_brute_force():
    t0 = time.time()
    rng = random.Random(2024)
    for trial in range(200):
        hes = random_hes(rng, max_equations=3, max_ground=4)
        assert solve(hes).assignment == brute_solve(hes), f"trial {trial}"
    # pinned order-sensitivity instance
    from paritrace.hes import Equation, HierEqSystem
    from paritrace.lattice import PowersetLattice

    lat = PowersetLattice(("p",))
    forward = HierEqSystem(
        [
            Equation("u1", lat, MU, lambda a: a[1]),
            Equation("u2", lat, NU, lambda a: a[0]),
        ]
    )
    assert solve(forward).assignment == (1, 1)
    assert solve(forward.with_signs([NU, MU])).assignment == (0, 0)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    announce(3, "solver vs brute force", elapsed, 30.0, " on 200 systems")


# ---------------------------------------------------------------------------
# 4 + 5. Shared campaign: 500 automata x all short lassos
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def word_campaign():
    rng = random.Random(20240501)
    stats = {
        "automata": 0,
        "memberships": 0,
        "disagreements": 0,
        "flattening_failures": 0,
        "positives": 0,
        "elapsed_membership": 0.0,
        "elapsed_flattening": 0.0,
    }
    t0 = time.time()
    for trial in range(500):
        params = WordGenParams(
            n_states=rng.randint(1, 6),
            n_letters=rng.randint(1, 3),
            two_n=2 * rng.randint(1, 3),
            density=rng.uniform(0.1, 0.6),
        )
        aut = random_word_automaton(params, rng.random())
        x = rng.choice(aut.states)
        stats["automata"] += 1
        for w in all_lassos(aut.alphabet, 2, 3):
            stats["memberships"] += 1
            engine = parity_trace_membership(aut, x, w).value
            graph = lasso_acceptance(aut, x, w).value
            if engine != graph:
                stats["disagreements"] += 1
            report = flattening_theorem_check(aut, x, w)
            if not report.agree:
                stats["flattening_failures"] += 1
            if report.membership:
                stats["positives"] += 1
                assert report.witness is not None
                assert check_decorated_invariant(report.witness, aut.priority(x)) == []
                assert report.checks.get("flatten_equal") and report.checks.get(
                    "decorated_membership"
                )
    stats["elapsed"] = time.time() - t0
    return stats


def test_criterion_4_differential_membership(word_campaign):
    assert word_campaign["automata"] == 500
    assert word_campaign["disagreements"] == 0
    assert word_campaign["elapsed"] < 300.0
    announce(
        4,
        "differential membership",
        word_campaign["elapsed"],
        300.0,
        f" on {word_campaign['memberships']} memberships",
    )


def test_criterion_5_flattening_theorem(word_campaign):
    assert word_campaign["flattening_failures"] == 0
    assert word_campaign["positives"] > 0
    announce(
        5,
        "flattening theorem at membership level",
        word_campaign["elapsed"],
        None,
        f" with {word_campaign['positives']} verified witnesses",
    )


# ---------------------------------------------------------------------------
# 6. Tree semantics vs the game oracle
# ---------------------------------------------------------------------------

def test_criterion_6_tree_semantics():
    from paritrace.trace import tree_language_membership

    t0 = time.time()
    rng = random.Random(61)
    for trial in range(100):
        params = TreeGenParams(
            n_states=rng.randint(1, 5),
            n_symbols=rng.randint(1, 3),
            max_arity=2,
            two_n=2 * rng.randint(1, 2),
            density=rng.uniform(0.2, 0.7),
        )
        aut = random_tree_automaton(params, rng.random())
        tree = random_regular_tree(aut.alphabet, rng.randint(1, 4), rng)
        x = rng.choice(aut.states)
        engine = tree_language_membership(aut, x, tree).value
        graph = tree_membership_oracle(aut, x, tree).value
        assert engine == graph, f"trial {trial}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(6, "tree semantics vs game oracle", elapsed, 120.0, " on 100 NPTAs")


# ---------------------------------------------------------------------------
# 7. Finite traces vs path enumeration
# ---------------------------------------------------------------------------

def test_criterion_7_finite_traces():
    t0 = time.time()
    rng = random.Random(71)
    for trial in range(100):
        params = WordGenParams(
            n_states=rng.randint(1, 6),
            n_letters=rng.randint(1, 3),
            two_n=2,
            density=rng.uniform(0.1, 0.5),
            final_prob=0.4,
        )
        aut = random_word_automaton(params, rng.random())
        x = rng.choice(aut.states)
        assert finite_trace_enum(aut, x, 5) == finite_run_enumeration(aut, x, 5)
    # the oracle's own cap, max-len 8, on one- and two-letter alphabets
    for trial in range(40):
        params = WordGenParams(
            n_states=rng.randint(1, 6),
            n_letters=1 + trial % 2,
            two_n=2,
            density=rng.uniform(0.1, 0.5),
            final_prob=0.4,
        )
        aut = random_word_automaton(params, rng.random())
        x = rng.choice(aut.states)
        assert finite_trace_enum(aut, x, 8) == finite_run_enumeration(aut, x, 8)
    elapsed = time.time() - t0
    announce(7, "finite trace enumeration", elapsed, None, " on 140 automata")


# ---------------------------------------------------------------------------
# 8. Deterministic-with-exception vs direct simulation
# ---------------------------------------------------------------------------

def test_criterion_8_det_exception():
    t0 = time.time()
    rng = random.Random(81)
    kinds = {"value": 0, "bottom-deadlock": 0, "bottom-parity": 0}
    for trial in range(120):
        params = DetGenParams(
            n_states=rng.randint(1, 6),
            n_symbols=rng.randint(1, 3),
            max_arity=2,
            two_n=2 * rng.randint(1, 3),
            undefined_prob=rng.uniform(0.0, 0.4),
            word=rng.random() < 0.5,
        )
        aut = random_det_exception_automaton(params, rng.random())
        x = rng.choice(aut.states)
        got = det_exception_behavior(aut, x)
        want = _simulate_det(aut, x)
        if got is BOTTOM or want is BOTTOM:
            assert got is want, f"trial {trial}"
            # classify the reason for the coverage assertion below
            reach, stack, dead = {x}, [x], False
            while stack:
                y = stack.pop()
                if y not in aut.delta:
                    dead = True
                    break
                for z in aut.delta[y][1]:
                    if z not in reach:
                        reach.add(z)
                        stack.append(z)
            kinds["bottom-deadlock" if dead else "bottom-parity"] += 1
        else:
            kinds["value"] += 1
            if isinstance(got, DecoratedLassoWord):
                assert normalize(got) == normalize(want)
            else:
                assert tree_reps_bisimilar(got, want)
            grade_src = got.grade
            assert grade_src == aut.priority(x)
            assert check_decorated_invariant(got, aut.priority(x)) == []
    assert kinds["value"] > 0
    assert kinds["bottom-deadlock"] > 0
    assert kinds["bottom-parity"] > 0
    elapsed = time.time() - t0
    announce(8, "deterministic-with-exception", elapsed, None, f" kinds={kinds}")


# ---------------------------------------------------------------------------
# 9. Invariance suite
# ---------------------------------------------------------------------------

def test_criterion_9_invariance_suite():
    t0 = time.time()
    rng = random.Random(91)
    n_cases = 200
    for trial in range(n_cases):
        baut = random_buchi_automaton(
            WordGenParams(
                n_states=rng.randint(1, 5),
                n_letters=rng.randint(1, 3),
                density=rng.uniform(0.15, 0.6),
            ),
            rng.random(),
        )
        aut = buchi_to_parity(baut)
        x = rng.choice(aut.states)
        w = random_lasso(aut.alphabet, 2, 3, rng)
        base = parity_trace_membership(aut, x, w).value
        # unrolling
        for k in (2, 3):
            assert parity_trace_membership(aut, x, unroll(w, k)).value == base
        # normalisation
        assert parity_trace_membership(aut, x, normalize(w)).value == base
        # Buchi vs two-priority encoding
        assert buchi_trace_membership(baut, x, w).value == base
        # priority shift by two
        assert parity_trace_membership(aut.shifted(2), x, w).value == base
    elapsed = time.time() - t0
    announce(9, "invariance suite", elapsed, None, f" on {n_cases} cases x 4 classes")
