"""Independent graph-theoretic deciders used as ground truth.

Nothing in here touches the equation-system machinery: lasso membership is
decided on the synchronized product graph by cycle analysis, tree membership
by a parity game solved with the classic recursive algorithm.  The point is
structural diversity from the fixpoint engine, so agreement between the two
routes is evidence, not tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (
    AutomatonError,
    ParityTreeAutomaton,
    ParityWordAutomaton,
)
from .graphutil import (
    cycle_through,
    cycle_with_max_parity,
    shortest_path,
)
from .omega_input import LassoWord, RegularTreeRep, RunLasso, RunTreeRep

__all__ = [
    "ProductGraph",
    "OracleVerdict",
    "lasso_acceptance",
    "EXISTS",
    "FORALL",
    "ParityGame",
    "GameSolution",
    "zielonka_solve",
    "tree_membership_oracle",
    "finite_run_enumeration",
    "MAX_FINITE_LEN",
]

#: Longest word ``finite_run_enumeration`` enumerates.
MAX_FINITE_LEN = 8


@dataclass(frozen=True)
class OracleVerdict:
    """Boolean verdict plus, when positive, a run witnessing it."""

    value: bool
    run: object = None

    def __bool__(self) -> bool:
        return self.value


class ProductGraph:
    """Synchronized product of a word automaton and a lasso.

    Vertices are (state, position) pairs; edges follow transitions whose
    letter matches the position's letter; each vertex inherits its state's
    priority.  Infinite paths from (x, 0) are exactly the runs over the
    lasso from x.
    """

    def __init__(self, aut: ParityWordAutomaton, w: LassoWord, start_state: str):
        if start_state not in aut.states:
            raise AutomatonError(f"undeclared state {start_state!r}")
        self.aut = aut
        self.word = w
        self.start = (start_state, 0)
        succ: dict[tuple[str, int], list[tuple[str, int]]] = {}
        frontier = [self.start]
        seen = {self.start}
        while frontier:
            v = frontier.pop()
            y, p = v
            nxt = w.next_pos(p)
            targets = [(z, nxt) for z in aut.successors(y, w.letter(p))]
            succ[v] = targets
            for u in targets:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        self.succ = succ
        self.vertices = seen

    def priority(self, v: tuple[str, int]) -> int:
        return self.aut.priority(v[0])

    def run_from_paths(self, path: list, cycle: list) -> RunLasso:
        w = self.word
        stem = tuple((w.letter(p), y) for (y, p) in path[:-1])
        cyc = tuple((w.letter(p), y) for (y, p) in cycle)
        return RunLasso(stem, cyc)


def lasso_acceptance(aut: ParityWordAutomaton, x: str, w: LassoWord) -> OracleVerdict:
    """Is some run over the lasso from x parity-accepting?

    Accepts iff the product graph has a reachable cycle whose maximum
    priority is even; the witness run follows a shortest path to such a
    cycle and then around it.
    """
    pg = ProductGraph(aut, w, x)
    found = cycle_with_max_parity(pg.vertices, pg.succ, pg.priority, parity=0)
    if found is None:
        return OracleVerdict(False)
    hit, scc, sub_succ = found
    cycle = cycle_through(hit, scc, sub_succ)
    path = shortest_path(pg.start, hit, pg.succ)
    return OracleVerdict(True, pg.run_from_paths(path, cycle))


# ---------------------------------------------------------------------------
# Parity games
# ---------------------------------------------------------------------------

EXISTS = 0  # wins a play iff the maximum priority seen infinitely often is even
FORALL = 1

_SINK_EVEN = ("__sink__", 0)
_SINK_ODD = ("__sink__", 1)


class ParityGame:
    """Two-player parity game; a dead end loses for the vertex's owner."""

    def __init__(self, owner, edges, priority):
        self.owner = dict(owner)
        self.edges = {v: tuple(dict.fromkeys(ws)) for v, ws in edges.items()}
        self.priority = dict(priority)
        for v in self.owner:
            if self.owner[v] not in (EXISTS, FORALL):
                raise ValueError(f"vertex {v!r}: owner must be EXISTS or FORALL")
            if v not in self.priority:
                raise ValueError(f"vertex {v!r} has no priority")
            if self.priority[v] < 0:
                raise ValueError(f"vertex {v!r}: negative priority")
        for v, ws in self.edges.items():
            if v not in self.owner:
                raise ValueError(f"edges from unknown vertex {v!r}")
            for w in ws:
                if w not in self.owner:
                    raise ValueError(f"edge {v!r} -> {w!r}: unknown target")

    def vertices(self):
        return self.owner.keys()


@dataclass
class GameSolution:
    exists_region: frozenset
    forall_region: frozenset
    exists_strategy: dict
    forall_strategy: dict


def _attract(
    player: int, base: set, live: set, owner, succ, pred
) -> tuple[set, dict]:
    """Attractor of ``base`` for ``player`` within ``live`` vertices.

    Also returns the attractor strategy: for player-owned vertices pulled in
    (outside the base), one edge moving strictly toward the base.
    """
    attracted = set(base)
    strategy: dict = {}
    # count remaining escape edges for opponent vertices
    out_count = {
        v: sum(1 for w in succ.get(v, ()) if w in live)
        for v in live
        if owner[v] != player
    }
    queue = list(base)
    while queue:
        u = queue.pop()
        for v in pred.get(u, ()):
            if v not in live or v in attracted:
                continue
            if owner[v] == player:
                attracted.add(v)
                strategy[v] = u
                queue.append(v)
            else:
                out_count[v] -= 1
                if out_count[v] == 0:
                    attracted.add(v)
                    queue.append(v)
    return attracted, strategy


def _zielonka(live: set, owner, succ, pred, priority):
    if not live:
        return set(), set(), {}, {}
    p = max(priority[v] for v in live)
    player = EXISTS if p % 2 == 0 else FORALL
    opp = 1 - player
    top = {v for v in live if priority[v] == p}
    region_a, a_strat = _attract(player, top, live, owner, succ, pred)
    w0, w1, s0, s1 = _zielonka(live - region_a, owner, succ, pred, priority)
    wins = (w0, w1)
    strats = (s0, s1)
    if not wins[opp]:
        strat = dict(strats[player])
        strat.update(a_strat)
        for v in top:
            if owner[v] == player and v not in strat:
                for u in succ.get(v, ()):
                    if u in live:
                        strat[v] = u
                        break
        if player == EXISTS:
            return set(live), set(), strat, {}
        return set(), set(live), {}, strat
    region_b, b_strat = _attract(opp, wins[opp], live, owner, succ, pred)
    w0b, w1b, s0b, s1b = _zielonka(live - region_b, owner, succ, pred, priority)
    opp_strat = dict(s1b if opp == FORALL else s0b)
    opp_strat.update(b_strat)
    # inside the first-stage opponent region the first-stage strategy stands
    first = strats[opp]
    for v, u in first.items():
        if v in wins[opp]:
            opp_strat.setdefault(v, u)
    if opp == FORALL:
        return w0b, w1b | region_b, s0b, opp_strat
    return w0b | region_b, w1b, opp_strat, s1b


def zielonka_solve(game: ParityGame) -> GameSolution:
    """Exact winning regions and positional strategies, recursively.

    Dead ends are totalised through two self-loop sinks (an odd one losing
    for the Exists player, an even one losing for Forall) before running the
    textbook recursion; the sinks are stripped from the answer.
    """
    owner = dict(game.owner)
    succ = {v: list(game.edges.get(v, ())) for v in game.owner}
    priority = dict(game.priority)
    owner[_SINK_EVEN] = FORALL
    owner[_SINK_ODD] = EXISTS
    priority[_SINK_EVEN] = 2
    priority[_SINK_ODD] = 1
    succ[_SINK_EVEN] = [_SINK_EVEN]
    succ[_SINK_ODD] = [_SINK_ODD]
    for v in game.owner:
        if not succ[v]:
            succ[v] = [_SINK_ODD if game.owner[v] == EXISTS else _SINK_EVEN]
    pred: dict = {v: [] for v in owner}
    for v, ws in succ.items():
        for w in ws:
            pred[w].append(v)
    live = set(owner)
    w0, w1, s0, s1 = _zielonka(live, owner, succ, pred, priority)
    sinks = {_SINK_EVEN, _SINK_ODD}
    real = set(game.owner)

    def clean(strat):
        return {v: u for v, u in strat.items() if v in real and u not in sinks}

    return GameSolution(
        exists_region=frozenset(w0 & real),
        forall_region=frozenset(w1 & real),
        exists_strategy=clean(s0),
        forall_strategy=clean(s1),
    )


# ---------------------------------------------------------------------------
# Tree membership via the acceptance game
# ---------------------------------------------------------------------------

def _membership_game(aut: ParityTreeAutomaton, x: str, t: RegularTreeRep) -> ParityGame:
    """Exists picks transitions at (state, node); Forall picks a branch."""
    for n in t.node_ids():
        lab = t.label(n)
        if lab not in aut.alphabet:
            raise AutomatonError(f"tree symbol {lab!r} not in automaton alphabet")
        if aut.alphabet.arity(lab) != len(t.children(n)):
            raise AutomatonError(
                f"node {n!r}: symbol {lab!r} has arity {aut.alphabet.arity(lab)}, "
                f"tree gives {len(t.children(n))} children"
            )
    owner: dict = {}
    edges: dict = {}
    priority: dict = {}
    start = ("E", x, t.root)
    stack = [start]
    while stack:
        v = stack.pop()
        if v in owner:
            continue
        if v[0] == "E":
            _, y, n = v
            owner[v] = EXISTS
            priority[v] = aut.priority(y)
            outs = []
            for sym, targets in aut.transitions_from(y):
                if sym != t.label(n):
                    continue
                u = ("A", y, n, sym, targets)
                outs.append(u)
                stack.append(u)
            edges[v] = outs
        else:
            _, y, n, sym, targets = v
            owner[v] = FORALL
            priority[v] = 1
            outs = []
            for child_state, child_node in zip(targets, t.children(n)):
                u = ("E", child_state, child_node)
                outs.append(u)
                stack.append(u)
            edges[v] = outs
    return ParityGame(owner, edges, priority)


def tree_membership_oracle(aut: ParityTreeAutomaton, x: str, t: RegularTreeRep) -> OracleVerdict:
    """Decide membership of the tree's unfolding by solving the parity game.

    A positive verdict returns the regular run tree induced by the winning
    positional strategy.
    """
    if x not in aut.states:
        raise AutomatonError(f"undeclared state {x!r}")
    game = _membership_game(aut, x, t)
    sol = zielonka_solve(game)
    start = ("E", x, t.root)
    if start not in sol.exists_region:
        return OracleVerdict(False)
    nodes: dict = {}
    stack = [start]
    seen = set()
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        _, y, n = v
        choice = sol.exists_strategy.get(v)
        if choice is None:
            # no transition needed: impossible for a won vertex unless the
            # state has a matching nullary transition chosen below
            raise AssertionError(f"missing strategy at won vertex {v!r}")
        _, _, _, sym, targets = choice
        kid_ids = []
        for child_state, child_node in zip(targets, t.children(n)):
            u = ("E", child_state, child_node)
            kid_ids.append(f"{child_state}@{child_node}")
            stack.append(u)
        nodes[f"{y}@{n}"] = ((sym, y), tuple(kid_ids))
    run = RunTreeRep(nodes, f"{x}@{t.root}")
    return OracleVerdict(True, run)


def finite_run_enumeration(aut: ParityWordAutomaton, x: str, maxlen: int) -> frozenset:
    """Breadth-first enumeration of termination-flagged finite words from x.

    A word is collected when some run over it ends in a state carrying the
    termination flag.  Words are letter tuples.
    """
    if x not in aut.states:
        raise AutomatonError(f"undeclared state {x!r}")
    if maxlen > MAX_FINITE_LEN:
        raise ValueError(f"maxlen {maxlen} exceeds the enumeration cap of {MAX_FINITE_LEN}")
    words = set()
    level: dict[tuple, set] = {(): {x}}
    for _ in range(maxlen + 1):
        next_level: dict[tuple, set] = {}
        for word, states in level.items():
            if states & aut.final:
                words.add(word)
            if len(word) == maxlen:
                continue
            for a in aut.alphabet:
                targets = {z for y in states for z in aut.successors(y, a)}
                if targets:
                    next_level.setdefault(word + (a,), set()).update(targets)
        level = next_level
        if not level:
            break
    return frozenset(words)
