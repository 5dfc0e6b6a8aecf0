"""The fixpoint semantics engine.

Membership of a finitely represented input in an automaton's trace
semantics is decided by *restricting* the defining equation system to the
input: the carrier of the equation for priority class i becomes the finite
map lattice (states of priority i) -> (sets of input positions), where a
position is a node of the input's pointed generator: a suffix class of a
lasso, a node of a tree generator, or a letter (or the end marker) of a
finite word.  One builder, ``_restricted_system``, serves every input kind.
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
    MAX_GROUND,
    MU,
    NU,
    FunctionLattice,
    LatticeTooLargeError,
    PowersetLattice,
    kleene_fixpoint,
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

def make_phi_body(
    rows: Sequence[Sequence[tuple[int, Sequence[tuple]]]],
    *,
    n_positions: int,
    n_equations: int,
) -> Callable[[tuple], tuple]:
    """Build one equation body of the compose-map-recompose shape.

    ``rows[d]`` belongs to the d-th domain item of the equation's carrier
    and lists ``(p, alternatives)`` pairs: the alternatives are the
    transitions that match the input at position ``p``, each given as its
    successor slots ``(equation_index, domain_index, position)`` into the
    joint assignment.  The body puts ``p`` into the set of item ``d`` when
    some alternative has all its slots satisfied by the current assignment.

    The body is monotone by construction (slots are positive).  Positions
    absent from a row are never in that item's set.
    """
    for row in rows:
        for p, alternatives in row:
            if not (0 <= p < n_positions):
                raise ValueError(f"cell position {p}: out of range")
            for slots in alternatives:
                for (k, yi, q) in slots:
                    if not (0 <= k < n_equations):
                        raise ValueError(f"slot {(k, yi, q)}: equation index out of range")
                    if not (0 <= q < n_positions):
                        raise ValueError(f"slot {(k, yi, q)}: position out of range")

    def body(assign: tuple) -> tuple:
        out = []
        for row in rows:
            mask = 0
            for p, alternatives in row:
                for slots in alternatives:
                    for (k, yi, q) in slots:
                        if not (assign[k][yi] >> q) & 1:
                            break
                    else:
                        mask |= 1 << p
                        break
            out.append(mask)
        return tuple(out)

    return body


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
    """
    positions = tuple(range(len(labels)))
    pos_lat = PowersetLattice(positions)
    slot_of = {y: (k, yi) for k, block in enumerate(partition) for yi, y in enumerate(block)}
    equations = []
    carriers = []
    for k, block in enumerate(partition):
        admitted = [p for p in positions if prios is None or prios[p] == k + 1]
        rows = []
        for x in block:
            row = []
            for p in admitted:
                targets = moves.get((x, labels[p]))
                if targets:
                    kids = children[p]
                    row.append(
                        (p, [tuple(slot_of[y] + (q,) for y, q in zip(ys, kids)) for ys in targets])
                    )
            rows.append(row)
        carrier = FunctionLattice(block, pos_lat)
        carriers.append(carrier)
        body = make_phi_body(rows, n_positions=len(positions), n_equations=len(partition))
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


#: Symbol of the nullary end position of a finite word.  It is a tuple, so
#: it never equals a letter.
_TICK = ("✓",)


def finite_trace_membership(aut: ParityWordAutomaton, x: str, word) -> bool:
    """Does some run over the finite word end with the termination flag?

    One mu-equation over all states, restricted to the word followed by a
    nullary end position whose only moves are the termination flags.
    """
    _require_state(aut, x)
    word = tuple(word)
    missing = set(word) - set(aut.alphabet)
    if missing:
        raise AlphabetMismatchError(f"letters not in automaton alphabet: {sorted(missing)}")
    moves = _word_moves(aut)
    for y in aut.final:
        moves[(y, _TICK)] = [()]
    children = tuple((p + 1,) for p in range(len(word))) + ((),)
    rh = _restricted_system(moves, word + (_TICK,), children, 0, [aut.states], [MU])
    return rh.member(rh.solve().assignment, x, 1)


def finite_trace_enum(aut: ParityWordAutomaton, x: str, maxlen: int) -> frozenset:
    """All termination-flagged words of length <= maxlen accepted from x.

    Computed as the least fixpoint of the word-building one-step map over
    the lattice of bounded-length word sets (the enumeration counterpart of
    the finite-trace equation), not by path search; the oracle's
    breadth-first enumeration is the independent route.
    """
    _require_state(aut, x)
    if maxlen < 0:
        raise ValueError("maxlen must be >= 0")
    words: list[tuple[str, ...]] = [()]
    level = words
    for _ in range(maxlen):
        level = [(a,) + w for a in aut.alphabet for w in level]
        words = words + level
        if len(words) > MAX_GROUND:
            raise LatticeTooLargeError(f"maxlen {maxlen} enumerates too many words")
    words.sort(key=lambda w: (len(w), w))
    widx = {w: i for i, w in enumerate(words)}
    word_lat = PowersetLattice(tuple(words))
    carrier = FunctionLattice(aut.states, word_lat)
    sidx = {y: i for i, y in enumerate(aut.states)}
    # prepend[a][i] = index of a . words[i], when still within the bound
    prepend = {
        a: [widx.get((a,) + w) for w in words] for a in aut.alphabet
    }
    moves = {y: [] for y in aut.states}
    for (src, a, y) in aut.transitions:
        moves[src].append((a, sidx[y]))
    epsilon_bit = 1 << widx[()]

    def body(elem):
        out = []
        for y in aut.states:
            mask = epsilon_bit if y in aut.final else 0
            for (a, ti) in moves[y]:
                src_mask = elem[ti]
                pre = prepend[a]
                m = src_mask
                while m:
                    low = (m & -m).bit_length() - 1
                    m &= m - 1
                    tgt = pre[low]
                    if tgt is not None:
                        mask |= 1 << tgt
            out.append(mask)
        return tuple(out)

    value, _steps = kleene_fixpoint(body, carrier, MU)
    return frozenset(word_lat.to_set(carrier.get(value, x)))


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
