"""Independent graph-theoretic deciders used as ground truth.

Nothing in here touches the equation-system machinery: lasso membership is
decided on the synchronized product graph by cycle analysis, tree membership
by a parity game on numbered vertices, solved with Zielonka's algorithm in
its loop form.  The point is structural diversity from the fixpoint engine,
so agreement between the two routes is evidence, not tautology.
"""

from __future__ import annotations

from collections import namedtuple

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
    "solve_parity_game",
    "tree_membership_oracle",
    "finite_run_enumeration",
    "MAX_FINITE_LEN",
]

#: Longest word ``finite_run_enumeration`` enumerates.
MAX_FINITE_LEN = 8


class OracleVerdict(namedtuple("OracleVerdict", "value run", defaults=(None,))):
    """Boolean verdict ``value`` plus, when positive, a ``run`` witnessing it."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.value


class ProductGraph:
    """Synchronized product of a word automaton and a lasso, on numbered
    vertices.

    Vertex i stands for the (state, position) pair ``pairs[i]``; its edges
    ``succ[i]`` follow the transitions on the position's letter, and it
    carries its state's priority ``priority[i]``.  Infinite paths from
    vertex 0, the pair (x, 0), are exactly the runs over the lasso from x.
    The vertices are numbered in discovery order by a stack walk that
    numbers each vertex when it pushes it, so the witness run does not
    depend on the string hash seed.
    """

    def __init__(self, aut: ParityWordAutomaton, w: LassoWord, start_state: str):
        if start_state not in aut.states:
            raise AutomatonError(f"undeclared state {start_state!r}")
        letters = (*w.stem, *w.cycle)
        missing = set(letters).difference(aut.alphabet)
        if missing:
            raise AutomatonError(f"letters not in automaton alphabet: {sorted(missing)}")
        last, loop = len(letters) - 1, len(w.stem)
        successors = aut.successors
        pairs = [(start_state, 0)]
        number = {pairs[0]: 0}
        succ: list = [None]
        stack = [0]
        while stack:
            v = stack.pop()
            y, p = pairs[v]
            nxt = p + 1 if p < last else loop
            out = []
            for z in successors(y, letters[p]):
                pair = (z, nxt)
                u = number.get(pair)
                if u is None:
                    u = number[pair] = len(pairs)
                    pairs.append(pair)
                    succ.append(None)
                    stack.append(u)
                out.append(u)
            succ[v] = out
        prio = aut.priorities
        self.letters = letters
        self.pairs = pairs
        self.succ = succ
        self.priority = [prio[y] for y, _ in pairs]

    def run_from_paths(self, path: list[int], cycle: list[int]) -> RunLasso:
        """The run along ``path`` (without its last vertex) and then around
        ``cycle``, as (letter, state) steps."""
        letters, pairs = self.letters, self.pairs
        stem = tuple([(letters[p], y) for y, p in map(pairs.__getitem__, path[:-1])])
        cyc = tuple([(letters[p], y) for y, p in map(pairs.__getitem__, cycle)])
        return RunLasso(stem, cyc)


def lasso_acceptance(aut: ParityWordAutomaton, x: str, w: LassoWord) -> OracleVerdict:
    """Is some run over the lasso from x parity-accepting?

    Accepts iff the product graph has a reachable cycle whose maximum
    priority is even; the witness run follows a shortest path to such a
    cycle and then around it.  A state or letter the automaton does not
    declare raises ``AutomatonError``.
    """
    pg = ProductGraph(aut, w, x)
    found = cycle_with_max_parity(range(len(pg.pairs)), pg.succ, pg.priority, parity=0)
    if found is None:
        return OracleVerdict(False)
    hit, scc = found
    cycle = cycle_through(hit, scc, pg.succ)
    path = shortest_path(0, hit, pg.succ)
    return OracleVerdict(True, pg.run_from_paths(path, cycle))


# ---------------------------------------------------------------------------
# Parity games
# ---------------------------------------------------------------------------

EXISTS = 0  # wins a play iff the maximum priority seen infinitely often is even
FORALL = 1


def solve_parity_game(owner: list, prio: list, succ: list) -> tuple[set, list]:
    """Exists' winning region and a positional winning strategy on it.

    Vertex v of 0..n-1 belongs to ``owner[v]``, carries priority ``prio[v]``
    and moves to one of ``succ[v]``, which must not be empty.
    ``strategy[v]`` is Exists' move at each Exists vertex of the region and
    None elsewhere.

    Zielonka's algorithm (TCS 1998) in its loop form: a call peels the
    vertices of the top priority p, with their attractor for p's player,
    and solves the rest.  If the opponent wins none of the rest, p's player
    wins the whole game; otherwise the opponent's attractor of that region
    is won by the opponent and the call loops on what is left.  Suspended
    calls live on an explicit stack, so no depth limit applies.
    """
    n = len(owner)
    pred: list = [[] for _ in range(n)]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    strategy: list = [None] * n

    def attract(player: int, base, live: set) -> set:
        """Attractor of ``base`` for ``player`` within ``live``, breadth
        first; each Exists vertex it pulls in moves one step toward
        ``base``.  An opponent vertex's live out-degree is counted when an
        edge first reaches it."""
        region = set(base)
        escapes: dict = {}
        queue = list(base)
        for u in queue:
            for v in pred[u]:
                if v in region or v not in live:
                    continue
                if owner[v] != player:
                    left = escapes.get(v)
                    if left is None:
                        left = sum(w in live for w in succ[v])
                    escapes[v] = left = left - 1
                    if left:
                        continue
                elif player == EXISTS:
                    strategy[v] = u
                region.add(v)
                queue.append(v)
        return region

    frames = []  # suspended calls: (live, won, player, top, peeled)
    live, won = set(range(n)), set()
    while True:
        if live:
            p = max([prio[v] for v in live])
            player = p & 1
            top = [v for v in live if prio[v] == p]
            peeled = attract(player, top, live)
            frames.append((live, won, player, top, peeled))
            live, won = live - peeled, set()
            continue
        # the call on the game just emptied returns Exists' region ``won``
        if not frames:
            return won, strategy
        sub = won
        live, won, player, top, peeled = frames.pop()
        if player == EXISTS and len(sub) + len(peeled) == len(live):
            won |= live
            for v in top:
                if owner[v] == EXISTS:
                    strategy[v] = next(w for w in succ[v] if w in live)
            live = set()
        elif player == EXISTS:
            live = live - attract(FORALL, live - peeled - sub, live)
        elif sub:
            gained = attract(EXISTS, sub, live)
            won |= gained
            live = live - gained
        else:
            live = set()


# ---------------------------------------------------------------------------
# Tree membership via the acceptance game
# ---------------------------------------------------------------------------

def tree_membership_oracle(aut: ParityTreeAutomaton, x: str, t: RegularTreeRep) -> OracleVerdict:
    """Decide membership of the tree's unfolding by solving its acceptance
    game.

    Exists owns the (state, node) vertices and picks a transition on the
    node's symbol; Forall owns the chosen transitions and picks a child.
    The vertices are numbered in discovery order from (x, root), and a dead
    end loses for its owner through a self-loop sink, made when a dead end
    first needs it.  A positive verdict returns the regular run tree of
    Exists' positional winning strategy; it does not depend on the string
    hash seed.  An undeclared state, a symbol outside the alphabet or a node
    whose child count is not its symbol's arity raises ``AutomatonError``.
    """
    if x not in aut.states:
        raise AutomatonError(f"undeclared state {x!r}")
    for n in t.node_ids():
        lab = t.label(n)
        if lab not in aut.alphabet:
            raise AutomatonError(f"tree symbol {lab!r} not in automaton alphabet")
        if aut.alphabet.arity(lab) != len(t.children(n)):
            raise AutomatonError(
                f"node {n!r}: symbol {lab!r} has arity {aut.alphabet.arity(lab)}, "
                f"tree gives {len(t.children(n))} children"
            )
    priorities = aut.priorities
    # label[v]: (state, node) at an Exists vertex, (symbol, targets) at a
    # Forall one, None at a sink
    label, owner, prio, succ = [(x, t.root)], [EXISTS], [priorities[x]], [None]
    number = {label[0]: 0}
    sinks: dict = {}

    def add(who: int, p: int, lab) -> int:
        label.append(lab)
        owner.append(who)
        prio.append(p)
        succ.append(None)
        return len(label) - 1

    def sink(who: int) -> int:
        """The self-loop that ``who`` loses: priority 1 for Exists, 0 for
        Forall."""
        s = sinks.get(who)
        if s is None:
            s = sinks[who] = add(who, 1 - who, None)
            succ[s] = [s]
        return s

    stack = [0]
    while stack:
        v = stack.pop()
        y, n = label[v]
        symbol, kids = t.label(n), t.children(n)
        moves = []
        for sym, targets in aut.transitions_from(y):
            if sym != symbol:
                continue
            u = add(FORALL, 1, (sym, targets))
            branches = []
            for pair in zip(targets, kids):
                w = number.get(pair)
                if w is None:
                    w = number[pair] = add(EXISTS, priorities[pair[0]], pair)
                    stack.append(w)
                branches.append(w)
            succ[u] = branches or [sink(FORALL)]
            moves.append(u)
        succ[v] = moves or [sink(EXISTS)]

    won, strategy = solve_parity_game(owner, prio, succ)
    if 0 not in won:
        return OracleVerdict(False)
    nodes: dict = {}
    stack = [0]
    seen = {0}
    while stack:
        v = stack.pop()
        y, n = label[v]
        sym, targets = label[strategy[v]]
        kid_ids = []
        for z, m in zip(targets, t.children(n)):
            kid_ids.append(f"{z}@{m}")
            w = number[z, m]
            if w not in seen:
                seen.add(w)
                stack.append(w)
        nodes[f"{y}@{n}"] = ((sym, y), tuple(kid_ids))
    return OracleVerdict(True, RunTreeRep(nodes, f"{x}@{t.root}"))


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
