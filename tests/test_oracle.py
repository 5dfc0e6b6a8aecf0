import itertools
import random

import pytest
from inputs import all_lassos

from paritrace.automata import (
    AutomatonError,
    ParityTreeAutomaton,
    ParityWordAutomaton,
    RankedAlphabet,
    WordGenParams,
    random_word_automaton,
)
from paritrace.graphutil import (
    cycle_with_max_parity,
    enumerate_simple_cycles,
    reachable_from,
    strongly_connected_components,
)
from paritrace.harness import appendix_automaton, intro_automaton
from paritrace.omega_input import (
    LassoWord,
    RegularTreeRep,
    check_decorated_invariant,
    decorate_run,
    parse_lasso,
    random_lasso,
)
from paritrace.oracle import (
    EXISTS,
    FORALL,
    GameSolution,
    ParityGame,
    ProductGraph,
    finite_run_enumeration,
    lasso_acceptance,
    tree_membership_oracle,
    zielonka_solve,
)


class TestGraphUtil:
    def test_scc_partition(self):
        succ = {1: [2], 2: [1, 3], 3: [3], 4: []}
        sccs = strongly_connected_components([1, 2, 3, 4], succ)
        assert sorted(map(sorted, sccs)) == [[1, 2], [3], [4]]

    def test_cycle_parity_search(self):
        succ = {1: [2], 2: [1]}
        prio = {1: 1, 2: 2}.get
        assert cycle_with_max_parity([1, 2], succ, prio, parity=0) == (2, {1, 2}, succ)
        assert cycle_with_max_parity([1, 2], succ, prio, parity=1) is None

    def test_enumerate_simple_cycles(self):
        succ = {1: [2, 1], 2: [1]}
        cycles = sorted(sorted(c) for c in enumerate_simple_cycles([1, 2], succ))
        assert cycles == [[1], [1, 2]]

    def test_reachable(self):
        assert reachable_from({1: [2], 2: [], 3: [1]}, 1) == {1, 2}


class TestLassoAcceptance:
    def test_intro_positive_with_run(self):
        verdict = lasso_acceptance(intro_automaton(), "x", parse_lasso(";ba"))
        assert verdict.value
        states = [x for _, x in verdict.run.stem + verdict.run.cycle]
        assert set(states) == {"x", "y"}

    def test_intro_negative(self):
        assert not lasso_acceptance(intro_automaton(), "x", parse_lasso("b;a")).value

    def test_appendix_cases(self):
        aut = appendix_automaton()
        assert lasso_acceptance(aut, "x", parse_lasso(";b")).value
        assert not lasso_acceptance(aut, "x", parse_lasso(";bc")).value

    def test_positive_witness_decorates_lawfully(self):
        rng = random.Random(0)
        for seed in range(80):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.4), seed
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 2, 3, rng)
            verdict = lasso_acceptance(aut, x, w)
            if verdict.value:
                xi = decorate_run(verdict.run, aut.priorities)
                assert check_decorated_invariant(xi, aut.priority(x)) == []

    def test_negative_verdicts_by_cycle_enumeration(self):
        # exhaustively enumerate product cycles on small instances
        rng = random.Random(1)
        checked = 0
        for seed in range(60):
            aut = random_word_automaton(
                WordGenParams(n_states=3, n_letters=2, two_n=4, density=0.35), seed
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 1, 2, rng)
            if lasso_acceptance(aut, x, w).value:
                continue
            pg = ProductGraph(aut, w, x)
            assert len(pg.vertices) <= 64
            for cycle in enumerate_simple_cycles(pg.vertices, pg.succ):
                assert max(pg.priority(v) for v in cycle) % 2 == 1
            checked += 1
        assert checked > 10


def solve_exhaustively(game: ParityGame):
    """Ground truth for tiny games: try every Exists positional strategy.

    Exists wins from v iff some strategy leaves no odd-dominated cycle and
    no Exists dead end reachable from v in the strategy-restricted graph.
    """
    exists_vertices = [v for v in game.vertices() if game.owner[v] == EXISTS]
    choice_lists = []
    for v in exists_vertices:
        outs = list(game.edges.get(v, ()))
        choice_lists.append(outs if outs else [None])
    w0 = set()
    for combo in itertools.product(*choice_lists):
        strategy = dict(zip(exists_vertices, combo))
        succ = {}
        for v in game.vertices():
            if game.owner[v] == EXISTS:
                succ[v] = [strategy[v]] if strategy[v] is not None else []
            else:
                succ[v] = list(game.edges.get(v, ()))
        for v in game.vertices():
            if v in w0:
                continue
            reach = reachable_from(succ, v)
            if any(
                game.owner[u] == EXISTS and not succ[u] for u in reach
            ):
                continue
            bad = cycle_with_max_parity(reach, succ, lambda u: game.priority[u], parity=1)
            if bad is None:
                w0.add(v)
    return w0


def random_game(rng: random.Random, n: int) -> ParityGame:
    vertices = list(range(n))
    owner = {v: rng.choice((EXISTS, FORALL)) for v in vertices}
    edges = {
        v: tuple(
            rng.sample(vertices, rng.randint(0, min(2, n)))
        )
        for v in vertices
    }
    priority = {v: rng.randint(1, 4) for v in vertices}
    return ParityGame(owner, edges, priority)


def verify_exists_strategy(game: ParityGame, sol: GameSolution):
    """Fixing the strategy must leave Forall no odd cycle and no escape."""
    succ = {}
    for v in sol.exists_region:
        if game.owner[v] == EXISTS:
            succ[v] = [sol.exists_strategy[v]] if v in sol.exists_strategy else []
        else:
            succ[v] = list(game.edges.get(v, ()))
    for v in sol.exists_region:
        reach = reachable_from(succ, v)
        assert reach <= set(sol.exists_region), "strategy leaks out of the region"
        for u in reach:
            if game.owner[u] == EXISTS and game.edges.get(u):
                assert u in sol.exists_strategy
        bad = cycle_with_max_parity(reach, succ, lambda u: game.priority[u], parity=1)
        assert bad is None, f"odd cycle under the winning strategy at {bad}"


class TestZielonka:
    def test_even_self_loop_wins(self):
        g = ParityGame({0: EXISTS}, {0: (0,)}, {0: 2})
        sol = zielonka_solve(g)
        assert sol.exists_region == {0}

    def test_odd_self_loop_loses(self):
        g = ParityGame({0: EXISTS}, {0: (0,)}, {0: 1})
        sol = zielonka_solve(g)
        assert sol.forall_region == {0}

    def test_dead_end_loses_for_owner(self):
        g = ParityGame({0: EXISTS, 1: FORALL}, {}, {0: 2, 1: 2})
        sol = zielonka_solve(g)
        assert 0 in sol.forall_region
        assert 1 in sol.exists_region

    def test_regions_partition(self):
        rng = random.Random(2)
        for _ in range(60):
            g = random_game(rng, rng.randint(1, 8))
            sol = zielonka_solve(g)
            assert sol.exists_region | sol.forall_region == set(g.vertices())
            assert not (sol.exists_region & sol.forall_region)

    def test_against_exhaustive_strategy_enumeration(self):
        rng = random.Random(3)
        for trial in range(50):
            g = random_game(rng, rng.randint(1, 8))
            sol = zielonka_solve(g)
            assert set(sol.exists_region) == solve_exhaustively(g), f"trial {trial}"

    def test_strategies_reverify(self):
        rng = random.Random(4)
        for _ in range(60):
            g = random_game(rng, rng.randint(1, 8))
            verify_exists_strategy(g, zielonka_solve(g))


def chain_tree_automaton():
    alph = RankedAlphabet([("f", 1), ("c", 0)])
    return ParityTreeAutomaton(
        ("x", "y"),
        alph,
        [("x", "f", ("y",)), ("y", "c", ())],
        {"x": 1, "y": 1},
    )


class TestTreeOracle:
    def test_nullary_chain_accepts(self):
        from paritrace.omega_input import RegularTreeRep

        aut = chain_tree_automaton()
        t = RegularTreeRep({"n0": ("f", ("n1",)), "n1": ("c", ())}, "n0")
        assert tree_membership_oracle(aut, "x", t).value
        # no matching chain from y at the root symbol
        assert not tree_membership_oracle(aut, "y", t).value

    def test_unary_loop_parity(self):
        from paritrace.omega_input import RegularTreeRep

        alph = RankedAlphabet([("f", 1)])
        t = RegularTreeRep({"n": ("f", ("n",))}, "n")
        accept = ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": 2})
        reject = ParityTreeAutomaton(("x",), alph, [("x", "f", ("x",))], {"x": 1})
        assert tree_membership_oracle(accept, "x", t).value
        assert not tree_membership_oracle(reject, "x", t).value

    def test_arity_mismatch_raises(self):
        from paritrace.omega_input import RegularTreeRep

        aut = chain_tree_automaton()
        t = RegularTreeRep({"n": ("f", ("n", "n"))}, "n")
        with pytest.raises(AutomatonError):
            tree_membership_oracle(aut, "x", t)

    def test_witness_is_valid_run(self):
        from paritrace.omega_input import RegularTreeRep, tree_reps_bisimilar

        alph = RankedAlphabet([("f", 2), ("c", 0)])
        aut = ParityTreeAutomaton(
            ("x", "y"),
            alph,
            [("x", "f", ("x", "y")), ("x", "f", ("y", "y")), ("y", "c", ())],
            {"x": 2, "y": 2},
        )
        t = RegularTreeRep({"n0": ("f", ("n0", "n1")), "n1": ("c", ())}, "n0")
        verdict = tree_membership_oracle(aut, "x", t)
        assert verdict.value
        xi = decorate_run(verdict.run, aut.priorities)
        assert check_decorated_invariant(xi, 2) == []
        from paritrace.omega_input import delst

        assert tree_reps_bisimilar(delst(xi), t)


class TestFiniteRuns:
    def test_final_at_start_contains_epsilon(self):
        aut = ParityWordAutomaton(("x",), ("a",), [("x", "a", "x")], {"x": 1}, final=("x",))
        words = finite_run_enumeration(aut, "x", 3)
        assert words == {(), ("a",), ("a", "a"), ("a", "a", "a")}

    def test_no_final_states_empty(self):
        aut = ParityWordAutomaton(("x",), ("a",), [("x", "a", "x")], {"x": 1})
        assert finite_run_enumeration(aut, "x", 4) == frozenset()

    def test_cap(self):
        aut = ParityWordAutomaton(("x",), ("a",), [], {"x": 1})
        with pytest.raises(ValueError):
            finite_run_enumeration(aut, "x", 9)


class TestBuchiEncodingPreservesLanguage:
    def test_oracle_agreement_on_all_short_lassos(self):
        # direct Buchi acceptance (accepting state on a reachable product
        # cycle) vs parity acceptance of the 2-priority encoding
        from paritrace.automata import BuchiWordAutomaton, buchi_to_parity, random_buchi_automaton

        def buchi_oracle(baut: BuchiWordAutomaton, x, w):
            parity = buchi_to_parity(baut)
            pg = ProductGraph(parity, w, x)
            for scc in strongly_connected_components(pg.vertices, pg.succ):
                internal = len(scc) > 1 or any(
                    v in pg.succ.get(v, ()) for v in scc
                )
                if internal and any(state in baut.accepting for (state, _) in scc):
                    return True
            return False

        rng = random.Random(9)
        agreements = 0
        for seed in range(100):
            baut = random_buchi_automaton(
                WordGenParams(
                    n_states=rng.randint(1, 4),
                    n_letters=rng.randint(1, 2),
                    density=rng.uniform(0.2, 0.6),
                ),
                seed,
            )
            parity = buchi_to_parity(baut)
            x = rng.choice(baut.states)
            for w in all_lassos(baut.alphabet, 2, 3):
                assert buchi_oracle(baut, x, w) == lasso_acceptance(parity, x, w).value
                agreements += 1
        assert agreements > 1000


def symbol_tree(run) -> RegularTreeRep:
    """A run tree's input tree: each (symbol, state) label cut to its symbol."""
    return RegularTreeRep({n: (lab[0], kids) for n, (lab, kids) in run.nodes.items()}, run.root)


class TestWitnessRoundTrips:
    def test_word_witness_reads_its_word(self):
        # the decorated witness of an accepting run flattens to the input
        from paritrace.omega_input import flatten_word, normalize

        rng = random.Random(10)
        found = 0
        for seed in range(100):
            aut = random_word_automaton(
                WordGenParams(n_states=4, n_letters=2, two_n=4, density=0.4), seed
            )
            x = rng.choice(aut.states)
            w = random_lasso(aut.alphabet, 2, 3, rng)
            verdict = lasso_acceptance(aut, x, w)
            if not verdict.value:
                continue
            found += 1
            run = verdict.run
            word = LassoWord(tuple(a for a, _ in run.stem), tuple(a for a, _ in run.cycle))
            assert normalize(word) == normalize(w)
            xi = decorate_run(verdict.run, aut.priorities)
            assert normalize(flatten_word(xi)) == normalize(w)
        assert found > 10

    def test_tree_witness_projects_to_input(self):
        from paritrace.automata import TreeGenParams, random_tree_automaton
        from paritrace.omega_input import delst, random_regular_tree, tree_reps_bisimilar

        rng = random.Random(11)
        found = 0
        for seed in range(100):
            aut = random_tree_automaton(
                TreeGenParams(n_states=3, n_symbols=2, max_arity=2, two_n=2, density=0.6),
                seed,
            )
            t = random_regular_tree(aut.alphabet, rng.randint(1, 4), rng)
            x = rng.choice(aut.states)
            verdict = tree_membership_oracle(aut, x, t)
            if not verdict.value:
                continue
            found += 1
            assert tree_reps_bisimilar(symbol_tree(verdict.run), t)
            xi = decorate_run(verdict.run, aut.priorities)
            assert tree_reps_bisimilar(delst(xi), t)
        assert found > 10
