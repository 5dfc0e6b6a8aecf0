"""The fixpoint semantics engine.

Membership of a finitely represented input in an automaton's trace
semantics is decided by *restricting* the defining equation system to the
input: the carrier of the equation for priority class i becomes the finite
map lattice (states of priority i) -> (sets of input positions), where a
position is a node of the input's pointed generator: a suffix class of a
lasso, a node of a tree generator, or a letter (or the end marker) of a
finite word.  One builder, ``_restricted_system``, serves every input kind;
its bodies compute the sets of all positions of an equation at once, on
bitmasks, from symbol masks and predecessor shift maps.
Equation bodies act position-locally, so the restriction is closed under
them; its adequacy is enforced empirically by the differential oracle
suite rather than proven.

Ordinary semantics alternates signs (mu on odd priority classes, nu on
even ones); the decorated semantics is the all-nu system whose bodies also
pin the input's priorities against the automaton's, and whose positive
answers mean "some run realises exactly this decoration".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from . import hes as hes_mod
from .automata import (
    AutomatonError,
    BuchiWordAutomaton,
    DeterministicExceptionAutomaton,
    ParityTreeAutomaton,
    ParityWordAutomaton,
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


@dataclass(frozen=True)
class SolveStats:
    iterations: tuple[int, ...]
    body_evals: int

    def to_json(self) -> dict:
        return {"iterations": list(self.iterations), "body_evals": self.body_evals}


@dataclass
class MembershipVerdict:
    value: bool
    witness: Any = None
    stats: SolveStats | None = None

    def __bool__(self) -> bool:
        return self.value

    def to_json(self) -> dict:
        doc: dict = {"schema_version": 1, "verdict": self.value}
        if self.witness is not None:
            doc["witness"] = str(self.witness)
        if self.stats is not None:
            doc["stats"] = self.stats.to_json()
        return doc


class RestrictedHes:
    """An equation system restricted to one (automaton, input) pair.

    Equation i-1 (0-based) belongs to priority class i (or, for the Büchi
    and run-existence systems, to block i of their partition) and lives in
    the lattice (states of that class) -> P(positions).  Empty priority
    classes keep their equation over a one-point lattice so the indexing of
    the defining system stays intact.
    """

    def __init__(self, hes, carriers, positions, start):
        self.hes: HierEqSystem = hes
        self.carriers: tuple[FunctionLattice, ...] = tuple(carriers)
        self.positions = tuple(positions)
        self.start = start

    def member(self, assignment: tuple, state: str, priority: int, pos=None) -> bool:
        """Does the suffix at ``pos`` (default: the input itself) belong to
        the solved variable of ``state``?"""
        pos = self.start if pos is None else pos
        mask = self.carriers[priority - 1].get(assignment[priority - 1], state)
        return bool((mask >> pos) & 1)

    def solve(self, **kwargs) -> hes_mod.Solution:
        return hes_mod.solve(self.hes, **kwargs)


def _verdict(rh: RestrictedHes, x: str, block: int) -> MembershipVerdict:
    """Solve ``rh`` and ask whether the input lies in ``x``'s variable."""
    sol = rh.solve()
    value = rh.member(sol.assignment, x, block)
    return MembershipVerdict(value, stats=SolveStats(sol.iterations, sol.body_evals))


# ---------------------------------------------------------------------------
# Restricted-system construction
# ---------------------------------------------------------------------------

def predecessor_maps(children: Sequence[Sequence[int]]) -> tuple:
    """Shift decompositions of the predecessor maps of a pointed generator.

    ``children[p]`` lists the child positions of position ``p``.  Child slot
    ``i`` has the predecessor map ``pre_i(S) = {p : children[p][i] in S}``,
    which is ``OR_d shift(S, d) & mask_d`` with
    ``mask_d = {p : children[p][i] == p + d}``, where ``shift(S, d)`` moves
    bit ``p + d`` of ``S`` to bit ``p``.  Slot ``i`` is returned as the pair
    ``(right, left)`` of ``(shift, mask_d)`` tuples: right shifts by ``d``
    for ``d >= 0`` and left shifts by ``-d`` for ``d < 0``.  A lasso needs
    two offsets, ``+1`` and the wrap back to the loop start, whatever its
    length.
    """
    n = len(children)
    maps: list[dict[int, int]] = []
    for p, kids in enumerate(children):
        for i, q in enumerate(kids):
            if not (0 <= q < n):
                raise ValueError(f"position {p}: child position {q} out of range")
            if i == len(maps):
                maps.append({})
            maps[i][q - p] = maps[i].get(q - p, 0) | (1 << p)
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
    """
    keys: dict[tuple[int, int, int], int] = {}
    rows = []
    for row in groups:
        compiled = []
        for slots, mask in row:
            idx = []
            for i, (k, yi) in enumerate(slots):
                if not (0 <= k < len(widths)):
                    raise ValueError(f"slot {(k, yi)}: equation index out of range")
                if not (0 <= yi < widths[k]):
                    raise ValueError(f"slot {(k, yi)}: state index out of range")
                if i >= len(preds):
                    raise ValueError(f"slot {(k, yi)}: no position has a child slot {i}")
                idx.append(keys.setdefault((i, k, yi), len(keys)))
            compiled.append((mask, tuple(idx)))
        rows.append(tuple(compiled))
    # (equation, domain index, right shifts, left shifts), one entry per key
    inputs = tuple((k, yi) + preds[i] for (i, k, yi) in keys)

    def body(assign: tuple) -> tuple:
        pre = []
        for k, yi, right, left in inputs:
            s = assign[k][yi]
            acc = 0
            if s:
                for d, m in right:
                    acc |= (s >> d) & m
                for d, m in left:
                    acc |= (s << d) & m
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


def _masks_by_value(values) -> dict:
    """``value -> bitmask of the positions p with values[p] == value``."""
    masks: dict = {}
    for p, v in enumerate(values):
        masks[v] = masks.get(v, 0) | (1 << p)
    return masks


def _restricted_system(moves, labels, children, root, partition, signs, prios=None):
    """Restrict the equation system given by ``partition`` and ``signs`` to
    the pointed generator ``(labels, children, root)``.

    Positions are ``0 .. len(labels) - 1``; position ``p`` carries the symbol
    ``labels[p]`` and has the child positions ``children[p]``.  ``moves`` maps
    ``(state, symbol)`` to the successor-state tuples of its transitions,
    whose i-th state must hold at ``children[p][i]``.  Equation k ranges over
    the states of ``partition[k]``.  In decorated mode ``prios`` gives each
    position's priority, and equation k admits position p only when
    ``prios[p] == k + 1``.

    Everything position-wise is a bitmask built here once: the positions of
    each symbol, the positions of each priority, and the predecessor maps.
    """
    positions = tuple(range(len(labels)))
    pos_lat = PowersetLattice(positions)
    sym_masks = _masks_by_value(labels)
    prio_masks = _masks_by_value(prios or ())
    preds = predecessor_maps(children)
    slot_of = {y: (k, yi) for k, block in enumerate(partition) for yi, y in enumerate(block)}
    widths = tuple(len(block) for block in partition)
    equations = []
    carriers = []
    for k, block in enumerate(partition):
        admitted = pos_lat.top if prios is None else prio_masks.get(k + 1, 0)
        groups = []
        for x in block:
            by_targets: dict = {}
            for sym, sym_mask in sym_masks.items():
                mask = sym_mask & admitted
                if not mask:
                    continue
                for ys in moves.get((x, sym), ()):
                    by_targets[ys] = by_targets.get(ys, 0) | mask
            groups.append([(tuple(slot_of[y] for y in ys), m) for ys, m in by_targets.items()])
        carrier = FunctionLattice(block, pos_lat)
        carriers.append(carrier)
        body = make_phi_body(groups, preds, widths=widths)
        equations.append(Equation(f"u{k + 1}", carrier, signs[k], body))
    return RestrictedHes(HierEqSystem(equations), carriers, positions, root)


def _moves(transitions) -> dict:
    """``(state, symbol) -> [successor-state tuple, ...]`` in transition order."""
    moves: dict = {}
    for x, sym, targets in transitions:
        moves.setdefault((x, sym), []).append(targets)
    return moves


def _word_moves(aut) -> dict:
    return _moves((x, a, (y,)) for (x, a, y) in aut.transitions)


def _parity_blocks(aut, decorated: bool):
    """The defining system's partition into priority classes, and its signs."""
    partition = [aut.priority_class(i) for i in range(1, aut.two_n + 1)]
    if decorated:
        return partition, [NU] * aut.two_n
    return partition, [MU if i % 2 == 1 else NU for i in range(1, aut.two_n + 1)]


def _split_labels(labels, decorated: bool):
    """Separate decorated ``(symbol, priority)`` labels into two tuples."""
    if not decorated:
        return tuple(labels), None
    return tuple(sym for sym, _ in labels), tuple(q for _, q in labels)


def _lasso_generator(aut, w, decorated: bool):
    """The unary generator of a lasso: position p has the one child
    ``next_pos(p)``."""
    n = w.n_positions
    labels, prios = _split_labels([w.letter(p) for p in range(n)], decorated)
    missing = set(labels) - set(aut.alphabet)
    if missing:
        raise AlphabetMismatchError(f"letters not in automaton alphabet: {sorted(missing)}")
    return labels, tuple((w.next_pos(p),) for p in range(n)), 0, prios


def _tree_generator(aut, t, decorated: bool):
    """The node graph of a regular tree, nodes numbered in declaration order."""
    nodes = t.node_ids()
    index = {n: i for i, n in enumerate(nodes)}
    labels, prios = _split_labels([t.label(n) for n in nodes], decorated)
    for n, sym in zip(nodes, labels):
        if sym not in aut.alphabet:
            raise AlphabetMismatchError(f"tree symbol {sym!r} not in automaton alphabet")
        if aut.alphabet.arity(sym) != len(t.children(n)):
            raise AlphabetMismatchError(
                f"node {n!r}: symbol {sym!r} has arity {aut.alphabet.arity(sym)}, "
                f"tree gives {len(t.children(n))} children"
            )
    children = tuple(tuple(index[c] for c in t.children(n)) for n in nodes)
    return labels, children, index[t.root], prios


def build_restricted_hes(aut, input_obj, mode: str = "ordinary") -> RestrictedHes:
    """Restrict the defining equation system of ``aut`` to one input.

    ``mode`` is ``"ordinary"`` (alternating signs, plain input) or
    ``"decorated"`` (all-nu, decorated input).
    """
    if mode not in ("ordinary", "decorated"):
        raise ValueError(f"mode must be 'ordinary' or 'decorated', got {mode!r}")
    decorated = mode == "decorated"
    if isinstance(aut, ParityWordAutomaton):
        if decorated and not isinstance(input_obj, DecoratedLassoWord):
            raise TypeError("decorated mode needs a DecoratedLassoWord")
        if not decorated and not isinstance(input_obj, LassoWord):
            raise TypeError("ordinary mode needs a LassoWord")
        moves = _word_moves(aut)
        labels, children, root, prios = _lasso_generator(aut, input_obj, decorated)
    elif isinstance(aut, ParityTreeAutomaton):
        if decorated and not isinstance(input_obj, DecoratedRegularTreeRep):
            raise TypeError("decorated mode needs a DecoratedRegularTreeRep")
        if not decorated and not isinstance(input_obj, RegularTreeRep):
            raise TypeError("ordinary mode needs a RegularTreeRep")
        moves = _moves(aut.transitions)
        labels, children, root, prios = _tree_generator(aut, input_obj, decorated)
    else:
        raise TypeError(f"cannot restrict {type(aut).__name__}")
    partition, signs = _parity_blocks(aut, decorated)
    return _restricted_system(moves, labels, children, root, partition, signs, prios)


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
    return _verdict(build_restricted_hes(aut, w, "ordinary"), x, aut.priority(x))


def buchi_trace_membership(
    aut: BuchiWordAutomaton, x: str, w: LassoWord
) -> MembershipVerdict:
    """Membership for an automaton given by its accepting set.

    Builds the two-block system directly from the accepting partition
    (non-accepting states under mu, accepting under nu).
    """
    _require_state(aut, x)
    partition = [
        tuple(s for s in aut.states if s not in aut.accepting),
        tuple(s for s in aut.states if s in aut.accepting),
    ]
    labels, children, root, _ = _lasso_generator(aut, w, False)
    rh = _restricted_system(_word_moves(aut), labels, children, root, partition, [MU, NU])
    return _verdict(rh, x, 2 if x in aut.accepting else 1)


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
    return _verdict(build_restricted_hes(aut, xi, "decorated"), x, aut.priority(x))


def tree_language_membership(
    aut: ParityTreeAutomaton, x: str, t: RegularTreeRep
) -> MembershipVerdict:
    """Is the unfolding of the tree representation in the language at x?"""
    _require_state(aut, x)
    return _verdict(build_restricted_hes(aut, t, "ordinary"), x, aut.priority(x))


#: Cap on the candidate words ``finite_trace_enum`` builds.
MAX_ENUM_WORDS = 4096

#: Symbol of the nullary end position of a finite word.  It is a tuple, so
#: it never equals a letter.
_TICK = ("✓",)


def _finite_trace_system(aut: ParityWordAutomaton, labels, children) -> RestrictedHes:
    """The finite-trace equation restricted to a generator whose end
    positions carry ``✓``: one mu-equation over all states, where every
    final state has a nullary ``✓`` move."""
    moves = _word_moves(aut)
    for y in aut.final:
        moves[(y, _TICK)] = [()]
    return _restricted_system(moves, labels, children, 0, [aut.states], [MU])


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

    A single nu-equation over all states.
    """
    _require_state(aut, x)
    labels, children, root, _ = _lasso_generator(aut, w, False)
    rh = _restricted_system(_word_moves(aut), labels, children, root, [aut.states], [NU])
    sol = rh.solve()
    return rh.member(sol.assignment, x, 1)


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


@dataclass
class FlatteningReport:
    """Outcome of comparing plain membership with decorated-witness existence."""

    agree: bool
    membership: bool
    witness_found: bool
    witness: DecoratedLassoWord | None
    checks: dict = field(default_factory=dict)

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
