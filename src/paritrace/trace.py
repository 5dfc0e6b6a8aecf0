"""The fixpoint semantics engine.

Membership of a finitely represented input in an automaton's trace
semantics is decided by *restricting* the defining equation system to the
input: the carrier of the equation for priority class i becomes the finite
map lattice (states of priority i) -> (sets of input positions), where a
position is a node of the input's pointed generator: a suffix class of a
lasso, a node of a tree generator, or a letter (or the end marker) of a
finite word.  One builder, ``_moves`` then ``_system_from_moves``, serves
every input kind; its bodies compute the sets of all positions of an
equation at once, on bitmasks, from label masks and predecessor shift maps.
Equation bodies act position-locally, so the restriction is closed under
them; its adequacy is enforced empirically by the differential oracle
suite rather than proven.

Ordinary semantics alternates signs (mu on odd priority classes, nu on
even ones); the decorated semantics is the all-nu system over the input's
``(symbol, priority)`` labels and the transitions relabelled with their
source's priority, whose positive answers mean "some run realises exactly
this decoration".  Büchi membership and run existence are parity
membership of an encoding (``buchi_to_parity``, every state at priority
2).  Every omega-input membership question is solved by
``_compact_verdict``, at the automaton's alternation depth, over the states
of the root's cone only: the cone of (x, root) is the set of (state,
position) pairs that it reaches over enabled transitions
(``_cone_states``), the other states are left out, then empty classes are
dropped and adjacent classes of one sign share an equation
(``_compact_blocks``); ``build_restricted_hes`` keeps the literal system.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from operator import itemgetter
from typing import Callable, Sequence

from . import hes as hes_mod
from .automata import (
    AutomatonError,
    BuchiWordAutomaton,
    DeterministicExceptionAutomaton,
    ParityTreeAutomaton,
    ParityWordAutomaton,
    buchi_to_parity,
)
from .hes import Equation, HierEqSystem
from .lattice import (
    MU,
    NU,
    FunctionLattice,
    LatticeTooLargeError,
    PowersetLattice,
)
from .omega_input import (
    DecoratedLassoWord,
    DecoratedRegularTreeRep,
    DecorationError,
    LassoWord,
    RegularTreeRep,
    check_decorated_invariant,
    decorate_run,
    flatten_word,
    normalize,
)
from . import oracle as oracle_mod

__all__ = [
    "AlphabetMismatchError",
    "GradeMismatchError",
    "BOTTOM",
    "SolveStats",
    "MembershipVerdict",
    "FlatteningReport",
    "RestrictedHes",
    "build_restricted_hes",
    "make_phi_body",
    "predecessor_maps",
    "parity_trace_membership",
    "buchi_trace_membership",
    "decorated_trace_membership",
    "tree_language_membership",
    "finite_trace_membership",
    "finite_trace_enum",
    "infinitary_trace_membership",
    "det_exception_behavior",
    "flattening_theorem_check",
]


class AlphabetMismatchError(Exception):
    """Input letters/symbols do not fit the automaton's alphabet."""


class GradeMismatchError(Exception):
    """A decorated input's grade differs from the queried state's priority."""


class _Bottom:
    """The exception value of the deterministic-with-exception semantics."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "bottom"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


class SolveStats(namedtuple("SolveStats", "iterations body_evals positions widths")):
    """Deterministic counters of one solve: Kleene steps per equation, body
    evaluations, generator positions and states per equation."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "iterations": list(self.iterations),
            "body_evals": self.body_evals,
            "positions": self.positions,
            "widths": list(self.widths),
        }


class MembershipVerdict(namedtuple("MembershipVerdict", "value stats")):
    """Boolean verdict ``value`` plus the SolveStats of the solve behind it."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.value

    def to_json(self) -> dict:
        return {"schema_version": 1, "verdict": self.value, "stats": self.stats.to_json()}


class RestrictedHes:
    """An equation system restricted to one (automaton, input) pair.

    Equation i-1 (0-based) belongs to block i of the system's partition and
    lives in the lattice (states of that block) -> P(positions).  In the
    paper's literal system (``build_restricted_hes``) block i is priority
    class i, and an empty class keeps its equation over a one-point lattice
    so the indexing of the defining system stays intact.  The membership
    functions solve the compacted system instead: its blocks hold only the
    states of the cone of (x, root), the states that the input can drive a
    run from x into, one block per maximal run of their priorities of equal
    parity (one block in decorated mode), and a transition to a state
    outside the cone is left out.  ``positions`` is every position of the
    generator either way.  The finite-trace system is one mu-equation over
    all states.
    """

    def __init__(self, hes, carriers, positions, start):
        self.hes: HierEqSystem = hes
        self.carriers: tuple[FunctionLattice, ...] = tuple(carriers)
        self.positions = tuple(positions)
        self.start = start

    def member(self, assignment: tuple, state: str, priority: int, pos=None) -> bool:
        """Does the suffix at ``pos`` (default: the input itself) belong to
        the solved variable of ``state``?  ``priority`` is the 1-based index
        of ``state``'s equation, which in the literal system is its
        priority."""
        pos = self.start if pos is None else pos
        mask = self.carriers[priority - 1].get(assignment[priority - 1], state)
        return bool((mask >> pos) & 1)

    def solve(self, **kwargs) -> hes_mod.Solution:
        return hes_mod.solve(self.hes, **kwargs)


# ---------------------------------------------------------------------------
# Restricted-system construction
# ---------------------------------------------------------------------------

def _masks_by_value(values) -> dict:
    """``value -> bitmask of the positions p with values[p] == value``;
    positions whose value is None are left out.  Each mask is made once,
    from a '0'/'1' string over the span of its positions."""
    where: dict = {}
    for p, v in enumerate(values):
        if v is not None:
            where.setdefault(v, []).append(p)
    masks = {}
    for v, ps in where.items():
        lo, hi = ps[0], ps[-1]
        buf = bytearray(b"0") * (hi - lo + 1)
        for p in ps:
            buf[hi - p] = 49  # ord("1"): bit p is character hi - p
        masks[v] = int(buf, 2) << lo
    return masks


def predecessor_maps(children: Sequence[Sequence[int]]) -> tuple:
    """Shift decompositions of the predecessor maps of a pointed generator,
    read off its child lists (a lasso's generator states them in closed form
    instead, see ``_lasso_generator``).

    ``children[p]`` lists the child positions of position ``p``.  Child slot
    ``i`` has the predecessor map ``pre_i(S) = {p : children[p][i] in S}``,
    which is ``OR_d shift(S, d) & mask_d`` with
    ``mask_d = {p : children[p][i] == p + d}``, where ``shift(S, d)`` moves
    bit ``p + d`` of ``S`` to bit ``p``.  Slot ``i`` is returned as the pair
    ``(right, left)`` of ``(shift, mask_d)`` tuples: right shifts by ``d``
    for ``d >= 0`` and left shifts by ``-d`` for ``d < 0``.  Each mask is
    built once, so the cost is linear in the child slots plus the spans of
    the offsets' positions.
    """
    n = len(children)
    offsets: list[list] = []  # offsets[i][p]: children[p][i] - p, None without slot i
    for p, kids in enumerate(children):
        for i, q in enumerate(kids):
            if not (0 <= q < n):
                raise ValueError(f"position {p}: child position {q} out of range")
            if i == len(offsets):
                offsets.append([None] * n)
            offsets[i][p] = q - p
    maps = [_masks_by_value(slot) for slot in offsets]
    return tuple(
        (
            tuple((d, mask) for d, mask in m.items() if d >= 0),
            tuple((-d, mask) for d, mask in m.items() if d < 0),
        )
        for m in maps
    )


def make_phi_body(
    groups: Sequence[Sequence[tuple[Sequence[tuple[int, int]], int]]],
    preds: Sequence[tuple[tuple, tuple]],
    *,
    widths: Sequence[int],
) -> Callable[[tuple], tuple]:
    """Build one equation body of the compose-map-recompose shape.

    ``groups[x]`` belongs to the x-th domain item of the equation's carrier
    and lists ``(slots, mask)`` pairs, one per successor tuple of its
    transitions: ``slots[i] = (equation_index, domain_index)`` is the
    variable that must hold at child slot ``i``, and ``mask`` is the set of
    positions whose symbol has a transition to that tuple.  ``preds`` are
    the generator's predecessor maps (see ``predecessor_maps``) and
    ``widths[k]`` is the number of domain items of equation ``k``.  The body
    computes every position at once:

        out[x] = OR over (slots, mask) of mask & AND_i pre_i(S[slots[i]])

    where ``S`` is the joint assignment.  A group without slots (a nullary
    position) yields its mask unchanged.  The body is monotone by
    construction (slots are positive).

    Each key ``(child slot, equation, domain index)`` keeps the last
    argument it shifted and the image it got, and reuses the image while
    the assignment holds that same object (``is``): between two steps of a
    nested solve most values are unchanged.  The pair is replaced in one
    assignment, so two threads evaluating one body never read an argument
    with another argument's image; an equal value in a distinct object is
    only recomputed.
    """
    keys: dict[tuple[int, int, int], int] = {}
    rows = []
    for row in groups:
        compiled = []
        for slots, mask in row:
            idx = []
            for i, (k, yi) in enumerate(slots):
                j = keys.get((i, k, yi))
                if j is None:
                    if not (0 <= k < len(widths)):
                        raise ValueError(f"slot {(k, yi)}: equation index out of range")
                    if not (0 <= yi < widths[k]):
                        raise ValueError(f"slot {(k, yi)}: state index out of range")
                    if i >= len(preds):
                        raise ValueError(f"slot {(k, yi)}: no position has a child slot {i}")
                    j = keys[(i, k, yi)] = len(keys)
                idx.append(j)
            compiled.append((mask, tuple(idx)))
        rows.append(tuple(compiled))
    # (equation, domain index, right shifts, left shifts), one entry per key
    inputs = tuple((k, yi) + preds[i] for (i, k, yi) in keys)

    memo = [(None, 0)] * len(inputs)

    def body(assign: tuple) -> tuple:
        pre = []
        for j, (k, yi, right, left) in enumerate(inputs):
            s = assign[k][yi]
            last_s, acc = memo[j]
            if last_s is s:
                pre.append(acc)
                continue
            acc = 0
            if s:
                for d, m in right:
                    acc |= (s >> d) & m
                for d, m in left:
                    acc |= (s << d) & m
            memo[j] = (s, acc)
            pre.append(acc)
        out = []
        for row in rows:
            acc = 0
            for mask, idx in row:
                for j in idx:
                    mask &= pre[j]
                    if not mask:
                        break
                acc |= mask
            out.append(acc)
        return tuple(out)

    return body


def _moves(transitions, labels) -> dict:
    """Group ``(state, label, ys)`` transition triples in one pass into
    ``moves[x][ys]``: the set of positions where some transition of state
    ``x`` to the successor tuple ``ys`` is enabled, as a bitmask.

    Position ``p`` enables the transitions on its label ``labels[p]``.  A
    decorated input comes with its transitions relabelled (see
    ``_generator``), so its labels are ``(symbol, priority)`` pairs and
    state x admits only the positions of its own priority.
    """
    label_masks = _masks_by_value(labels)
    moves: dict = {}
    for x, label, ys in transitions:
        mask = label_masks.get(label, 0)
        if mask:
            row = moves.setdefault(x, {})
            row[ys] = row.get(ys, 0) | mask
    return moves


def _system_from_moves(moves, n, preds, root, partition, signs) -> RestrictedHes:
    """The restricted system over ``n`` positions whose equation k ranges
    over the states of ``partition[k]``, with the grouped ``moves`` of
    ``_moves``.  A move to a state outside the partition is left out.
    ``preds`` are the generator's predecessor maps, in the form of
    ``predecessor_maps``, and ``root`` its start position."""
    pos_lat = PowersetLattice(range(n))
    slot_of = {y: (k, yi) for k, block in enumerate(partition) for yi, y in enumerate(block)}
    widths = tuple(len(block) for block in partition)
    equations = []
    carriers = []
    for k, block in enumerate(partition):
        groups = []
        for x in block:
            row = []
            for ys, mask in moves.get(x, {}).items():
                slots = tuple(map(slot_of.get, ys))
                if None not in slots:
                    row.append((slots, mask))
            groups.append(row)
        carrier = FunctionLattice(block, pos_lat)
        carriers.append(carrier)
        body = make_phi_body(groups, preds, widths=widths)
        equations.append(Equation(f"u{k + 1}", carrier, signs[k], body))
    return RestrictedHes(HierEqSystem(equations), carriers, pos_lat.ground, root)


def _cone_states(moves, preds, labels, states, x, root) -> list:
    """The states of the cone of ``(x, root)``, in the order of ``states``:
    the (state, position) pairs that ``(x, root)`` reaches over enabled
    transitions.

    The walk reads the generator's own description: ``labels``, and the
    predecessor maps ``preds`` of ``predecessor_maps``, where child slot
    ``i`` of position ``p`` is ``p + d`` for the right shift ``(d, mask)``
    of slot ``i`` whose mask holds ``p``, or ``p - d`` for such a left
    shift.  A state steps at ``p`` to the ``ys`` of each of its ``moves``
    whose mask holds ``p``.  The walk carries the states at a position as
    a bitmask over ``states`` and memoises each (states, label) step, since
    positions of one label enable the same moves.  It stops as soon as it
    has reached every state that x reaches in the automaton's graph over
    ``moves``, the bound on any cone.
    """
    bit = {y: 1 << i for i, y in enumerate(states)}
    start = bit[x]
    bound, new = start, start
    while new:
        low = new & -new
        new ^= low
        for ys in moves.get(states[low.bit_length() - 1], ()):
            for y in ys:
                m = bit[y]
                new |= m & ~bound
                bound |= m
    memo: dict = {}
    reached = {root: start}
    seen = start
    todo = [(root, start)]
    while todo and seen != bound:
        p, at = todo.pop()
        here = 1 << p
        outs = memo.get((at, labels[p]))
        if outs is None:
            outs = [0] * len(preds)
            rest = at
            while rest:
                low = rest & -rest
                rest ^= low
                for ys, mask in moves.get(states[low.bit_length() - 1], {}).items():
                    if mask & here:
                        for i, y in enumerate(ys):
                            outs[i] |= bit[y]
            memo[(at, labels[p])] = outs
        for (right, left), out in zip(preds, outs):
            if not out:
                continue
            q = next((p + d for d, m in right if m & here), None)
            if q is None:
                q = next(p - d for d, m in left if m & here)
            fresh = out & ~reached.get(q, 0)
            if fresh:
                reached[q] = reached.get(q, 0) | fresh
                seen |= fresh
                todo.append((q, fresh))
    return [y for i, y in enumerate(states) if (seen >> i) & 1]


def _word_transitions(aut) -> list:
    """A word automaton's transitions as ``(x, a, (y,))`` triples."""
    return [(x, a, (y,)) for (x, a, y) in aut.transitions]


def _parity_blocks(aut, decorated: bool):
    """The defining system's partition into priority classes, and its signs."""
    partition = [aut.priority_class(i) for i in range(1, aut.two_n + 1)]
    if decorated:
        return partition, [NU] * aut.two_n
    return partition, [MU if i % 2 == 1 else NU for i in range(1, aut.two_n + 1)]


def _compact_blocks(aut, decorated: bool, states):
    """The system the membership functions solve: the defining system
    over ``states`` without its empty priority classes, with each maximal
    run of used priorities of equal parity merged into one equation.

    Equations come in ascending order of priority, mu on odd runs and nu on
    even ones; the decorated system is all-nu, so it is one nu-equation over
    all states.  An empty class is an equation over a one-point lattice,
    and by Bekić's lemma adjacent equations of one sign have the same
    solution as the single equation over their product, so no verdict
    changes.  Returns the partition, its signs, and each state's 1-based
    equation index.
    """
    prio = aut.priorities
    blocks: list[list] = []
    signs: list[str] = []
    for y in sorted(states, key=prio.__getitem__):
        sign = NU if decorated or prio[y] % 2 == 0 else MU
        if not signs or signs[-1] != sign:
            blocks.append([])
            signs.append(sign)
        blocks[-1].append(y)
    partition = [tuple(block) for block in blocks]
    block_of = {x: k + 1 for k, block in enumerate(partition) for x in block}
    return partition, signs, block_of


def _lasso_generator(aut, w, symbol_of=None):
    """The unary generator of a lasso, with its predecessor map in closed
    form.  Position p carries letter p of ``stem + cycle`` and has the one
    child ``p + 1``, except that the last position wraps to the loop start
    ``len(stem)``.  So ``pre(S)`` is two shifts: a right shift by 1 masked to
    positions ``0 .. n - 2``, and at position ``n - 1`` a left shift by
    ``n - 1 - len(stem)`` (a right shift by 0 when the cycle has length 1).
    ``symbol_of(label)`` is the part of a label checked against the
    alphabet (default: the whole label).
    """
    labels = (*w.stem, *w.cycle)
    missing = set(labels if symbol_of is None else map(symbol_of, labels)) - set(aut.alphabet)
    if missing:
        raise AlphabetMismatchError(f"letters not in automaton alphabet: {sorted(missing)}")
    n, wrap = len(labels), len(labels) - 1 - len(w.stem)
    last = 1 << (n - 1)
    step = ((1, last - 1),) if n > 1 else ()
    preds = (step + ((0, last),), ()) if wrap == 0 else (step, ((wrap, last),))
    return labels, (preds,), 0


def _tree_nodes(aut, t, symbol_of=None):
    """The node graph of a regular tree, nodes numbered in declaration
    order: labels, child lists and root.  ``symbol_of(label)`` is the part
    of a label checked against the ranked alphabet (default: the whole
    label)."""
    nodes = t.node_ids()
    index = {n: i for i, n in enumerate(nodes)}
    labels = tuple([t.label(n) for n in nodes])
    for n, label in zip(nodes, labels):
        sym = label if symbol_of is None else symbol_of(label)
        if sym not in aut.alphabet:
            raise AlphabetMismatchError(f"tree symbol {sym!r} not in automaton alphabet")
        if aut.alphabet.arity(sym) != len(t.children(n)):
            raise AlphabetMismatchError(
                f"node {n!r}: symbol {sym!r} has arity {aut.alphabet.arity(sym)}, "
                f"tree gives {len(t.children(n))} children"
            )
    children = tuple(tuple(index[c] for c in t.children(n)) for n in nodes)
    return labels, children, index[t.root]


def _generator(aut, input_obj, decorated: bool):
    """The pointed generator of a lasso or tree input, as ``(transitions,
    labels, preds, root)``: ``preds`` are its predecessor maps, in the form
    of ``predecessor_maps``.

    A decorated input keeps its ``(symbol, priority)`` labels, and each
    transition ``(x, a, ys)`` becomes ``(x, (a, priority(x)), ys)``, so
    state x admits exactly the positions of its own priority.  The
    alphabet checks read the symbol part of a decorated label and the whole
    label of an ordinary one, so a decorated input in ordinary mode fails
    them."""
    symbol_of = itemgetter(0) if decorated else None
    if isinstance(aut, ParityWordAutomaton):
        if decorated and not isinstance(input_obj, DecoratedLassoWord):
            raise TypeError("decorated mode needs a DecoratedLassoWord")
        if not decorated and not isinstance(input_obj, LassoWord):
            raise TypeError("ordinary mode needs a LassoWord")
        labels, preds, root = _lasso_generator(aut, input_obj, symbol_of)
        transitions = _word_transitions(aut)
    elif isinstance(aut, ParityTreeAutomaton):
        if decorated and not isinstance(input_obj, DecoratedRegularTreeRep):
            raise TypeError("decorated mode needs a DecoratedRegularTreeRep")
        if not decorated and not isinstance(input_obj, RegularTreeRep):
            raise TypeError("ordinary mode needs a RegularTreeRep")
        labels, children, root = _tree_nodes(aut, input_obj, symbol_of)
        transitions, preds = aut.transitions, predecessor_maps(children)
    else:
        raise TypeError(f"cannot restrict {type(aut).__name__}")
    if decorated:
        prio = aut.priorities
        transitions = [(x, (a, prio[x]), ys) for x, a, ys in transitions]
    return transitions, labels, preds, root


def build_restricted_hes(aut, input_obj, mode: str = "ordinary") -> RestrictedHes:
    """Restrict the defining equation system of ``aut`` to one input: the
    paper's literal system, one equation per priority class 1..2n.

    ``mode`` is ``"ordinary"`` (alternating signs, plain input) or
    ``"decorated"`` (all-nu, decorated input).  The membership functions
    solve the compacted system of ``_compact_blocks`` instead.
    """
    if mode not in ("ordinary", "decorated"):
        raise ValueError(f"mode must be 'ordinary' or 'decorated', got {mode!r}")
    decorated = mode == "decorated"
    transitions, labels, preds, root = _generator(aut, input_obj, decorated)
    partition, signs = _parity_blocks(aut, decorated)
    moves = _moves(transitions, labels)
    return _system_from_moves(moves, len(labels), preds, root, partition, signs)


def _compact_verdict(aut, x: str, input_obj, decorated: bool) -> MembershipVerdict:
    """Solve the compacted system of ``aut`` over the states of the cone of
    ``(x, root)``, restricted to ``input_obj``, and ask whether the input
    lies in ``x``'s variable.

    The cone is closed under the dependencies of its pairs, so leaving out
    the other states, and every move to them, changes no value on it."""
    transitions, labels, preds, root = _generator(aut, input_obj, decorated)
    moves = _moves(transitions, labels)
    cone = _cone_states(moves, preds, labels, aut.states, x, root)
    partition, signs, block_of = _compact_blocks(aut, decorated, cone)
    rh = _system_from_moves(moves, len(labels), preds, root, partition, signs)
    sol = rh.solve()
    widths = tuple(len(block) for block in partition)
    stats = SolveStats(sol.iterations, sol.body_evals, len(labels), widths)
    return MembershipVerdict(rh.member(sol.assignment, x, block_of[x]), stats)


# ---------------------------------------------------------------------------
# Membership operations
# ---------------------------------------------------------------------------

def _require_state(aut, x: str):
    if x not in aut.states:
        raise AutomatonError(f"undeclared state {x!r}")


def parity_trace_membership(
    aut: ParityWordAutomaton, x: str, w: LassoWord
) -> MembershipVerdict:
    """Is the lasso's infinite word in the parity trace semantics at x?"""
    _require_state(aut, x)
    return _compact_verdict(aut, x, w, False)


def buchi_trace_membership(
    aut: BuchiWordAutomaton, x: str, w: LassoWord
) -> MembershipVerdict:
    """Membership for an automaton given by its accepting set: parity
    membership of its two-priority encoding."""
    _require_state(aut, x)
    return _compact_verdict(buchi_to_parity(aut), x, w, False)


def decorated_trace_membership(aut, x: str, xi) -> MembershipVerdict:
    """Is the decorated input realised by some run from x?

    Requires the input's grade to equal the priority of x and the input to
    satisfy the decorated parity law.
    """
    _require_state(aut, x)
    problems = check_decorated_invariant(xi)
    if problems:
        raise DecorationError("; ".join(problems))
    if aut.priority(x) != xi.grade:
        raise GradeMismatchError(
            f"state {x!r} has priority {aut.priority(x)}, input has grade {xi.grade}"
        )
    return _compact_verdict(aut, x, xi, True)


def tree_language_membership(
    aut: ParityTreeAutomaton, x: str, t: RegularTreeRep
) -> MembershipVerdict:
    """Is the unfolding of the tree representation in the language at x?"""
    _require_state(aut, x)
    return _compact_verdict(aut, x, t, False)


#: Cap on the candidate words ``finite_trace_enum`` builds.
MAX_ENUM_WORDS = 4096

#: Symbol of the nullary end position of a finite word.  It is a tuple, so
#: it never equals a letter.
_TICK = ("✓",)


def _finite_trace_system(aut: ParityWordAutomaton, labels, children) -> RestrictedHes:
    """The finite-trace equation restricted to a generator whose end
    positions carry ``✓``: one mu-equation over all states, where every
    final state has a nullary ``✓`` transition."""
    transitions = _word_transitions(aut) + [(y, _TICK, ()) for y in aut.final]
    moves = _moves(transitions, labels)
    preds = predecessor_maps(children)
    return _system_from_moves(moves, len(labels), preds, 0, [aut.states], [MU])


def finite_trace_membership(aut: ParityWordAutomaton, x: str, word) -> bool:
    """Does some run over the finite word end with the termination flag?

    The generator is the word followed by a nullary end position.
    """
    _require_state(aut, x)
    word = tuple(word)
    missing = set(word) - set(aut.alphabet)
    if missing:
        raise AlphabetMismatchError(f"letters not in automaton alphabet: {sorted(missing)}")
    children = tuple((p + 1,) for p in range(len(word))) + ((),)
    rh = _finite_trace_system(aut, word + (_TICK,), children)
    return rh.member(rh.solve().assignment, x, 1)


def finite_trace_enum(aut: ParityWordAutomaton, x: str, maxlen: int) -> frozenset:
    """All termination-flagged words of length <= maxlen accepted from x.

    One solve of the finite-trace equation on the generator of all words of
    length <= maxlen, in level order: the empty word first, carrying the end
    marker, then each word ``a.w`` with the symbol ``a`` and the one child
    ``w``.  The offset from ``a.w`` to ``w`` depends only on the length and
    on ``a``, so the predecessor maps need at most |alphabet| * maxlen
    shifts.  The oracle's breadth-first enumeration is the independent
    route.
    """
    _require_state(aut, x)
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    labels: list = [_TICK]
    children: list[tuple[int, ...]] = [()]
    level_start, level_len = 0, 1
    for _ in range(maxlen if aut.alphabet else 0):
        if len(labels) + len(aut.alphabet) * level_len > MAX_ENUM_WORDS:
            raise LatticeTooLargeError(f"maxlen {maxlen} enumerates too many words")
        start = len(labels)
        for a in aut.alphabet:
            labels.extend([a] * level_len)
            children.extend((level_start + i,) for i in range(level_len))
        level_start, level_len = start, len(labels) - start
    rh = _finite_trace_system(aut, labels, children)
    mask = rh.carriers[0].get(rh.solve().assignment[0], x)

    def word(p: int) -> tuple[str, ...]:
        letters = []
        while children[p]:
            letters.append(labels[p])
            (p,) = children[p]
        return tuple(letters)

    return frozenset(word(p) for p in range(len(labels)) if (mask >> p) & 1)


def infinitary_trace_membership(aut: ParityWordAutomaton, x: str, w: LassoWord) -> bool:
    """Does any infinite run over the lasso exist from x (acceptance ignored)?

    Parity membership of the copy of ``aut`` with every state at priority
    2, in which every infinite run is accepting.  The copy shares the
    already validated states and transitions instead of building them again.
    """
    _require_state(aut, x)
    every_run = copy.copy(aut)
    every_run.priorities, every_run.two_n = dict.fromkeys(aut.states, 2), 2
    return _compact_verdict(every_run, x, w, False).value


def det_exception_behavior(aut: DeterministicExceptionAutomaton, x: str):
    """Total decorated behavior of a deterministic automaton at x.

    Simulates the unique run; returns the decorated lasso/tree when the run
    is total and satisfies the parity law, and BOTTOM otherwise (exception
    reached, or the generated decoration fails the law).
    """
    _require_state(aut, x)
    if aut.word_kind:
        seen = {x: 0}
        pairs: list[tuple[str, int]] = []
        cur = x
        while True:
            if cur not in aut.delta:
                return BOTTOM
            sym, (nxt,) = aut.delta[cur]
            pairs.append((sym, aut.priority(cur)))
            if nxt in seen:
                split = seen[nxt]
                stem, cycle = tuple(pairs[:split]), tuple(pairs[split:])
                xi = DecoratedLassoWord(stem, cycle)
                if check_decorated_invariant(xi):
                    return BOTTOM
                return xi
            seen[nxt] = len(pairs)
            cur = nxt
    # tree case: the reachable state graph is the run generator
    reach = {x}
    stack = [x]
    while stack:
        y = stack.pop()
        if y not in aut.delta:
            return BOTTOM
        _, targets = aut.delta[y]
        for z in targets:
            if z not in reach:
                reach.add(z)
                stack.append(z)
    nodes = {
        y: ((aut.delta[y][0], aut.priority(y)), aut.delta[y][1]) for y in reach
    }
    xi = DecoratedRegularTreeRep(nodes, x)
    if check_decorated_invariant(xi):
        return BOTTOM
    return xi


class FlatteningReport(
    namedtuple("FlatteningReport", "agree membership witness_found witness checks")
):
    """Outcome of comparing plain membership with decorated-witness existence:
    the witness is a DecoratedLassoWord or None, and ``checks`` maps each
    re-verification of it to its result."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "agree": self.agree,
            "membership": self.membership,
            "witness_found": self.witness_found,
            "witness": None if self.witness is None else str(self.witness),
            "checks": dict(self.checks),
        }


def flattening_theorem_check(
    aut: ParityWordAutomaton, x: str, w: LassoWord
) -> FlatteningReport:
    """Membership-level check that flattening the decorated semantics gives
    the plain semantics.

    The left side is the engine's parity membership; the right side is the
    existence of a decorated input of grade priority(x) that flattens to the
    word and is decorated-accepted, searched via the oracle's product-graph
    run extraction (complete for regular witnesses by positional
    determinacy).  Every returned witness is re-verified on the decorated
    route before it counts.
    """
    left = parity_trace_membership(aut, x, w)
    overdict = oracle_mod.lasso_acceptance(aut, x, w)
    checks: dict = {}
    witness = None
    witness_ok = False
    if overdict.value:
        witness = decorate_run(overdict.run, aut.priorities)
        checks["invariant"] = not check_decorated_invariant(witness, aut.priority(x))
        checks["flatten_equal"] = normalize(flatten_word(witness)) == normalize(w)
        checks["decorated_membership"] = decorated_trace_membership(aut, x, witness).value
        witness_ok = all(checks.values())
    agree = left.value == overdict.value and left.value == witness_ok
    return FlatteningReport(
        agree=agree,
        membership=left.value,
        witness_found=witness_ok,
        witness=witness if witness_ok else None,
        checks=checks,
    )
