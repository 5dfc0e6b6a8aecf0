"""Finite representations of infinite inputs and their decorated variants.

Ultimately periodic words are stored as stem+cycle lassos; regular trees as
finite pointed node graphs.  The decorated variants carry a priority on
every letter/node; flattening drops the priorities, and unrolling and
normalisation change a lasso's representation but not its word.

A decorated object is *law-abiding* when every infinite suffix/branch keeps
seeing an even maximum priority; over these finite representations that is
exactly "the cycle maximum is even" (words) and "no reachable cycle of the
node graph has an odd maximum" (trees).  Constructors only check shape;
the law lives in ``check_decorated_invariant`` so that deliberately broken
decorations can be built and then rejected.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from typing import Any, Mapping, Sequence

from .automata import ParseError, RankedAlphabet
from .graphutil import cycle_with_max_parity, reachable_from

__all__ = [
    "InputError",
    "DecorationError",
    "LassoWord",
    "DecoratedLassoWord",
    "RegularTreeRep",
    "DecoratedRegularTreeRep",
    "RunLasso",
    "RunTreeRep",
    "flatten_word",
    "delst",
    "decorate_run",
    "check_decorated_invariant",
    "unroll",
    "normalize",
    "parse_lasso",
    "parse_decorated_lasso",
    "format_lasso",
    "parse_tree",
    "serialize_tree",
    "tree_reps_bisimilar",
    "random_lasso",
    "random_regular_tree",
]


class InputError(Exception):
    """Structurally invalid input representation."""


class DecorationError(Exception):
    """A decorated object (or candidate decoration) breaks the parity law."""


# ---------------------------------------------------------------------------
# Lasso words
# ---------------------------------------------------------------------------

class _Lasso(namedtuple("_Lasso", "stem cycle")):
    """A tuple of letters ``stem`` and a nonempty tuple of letters ``cycle``,
    read as ``stem . cycle^omega``; position p is letter p of
    ``stem + cycle``."""

    __slots__ = ()

    def __new__(cls, stem, cycle):
        if not cycle:
            raise InputError("lasso cycle must be nonempty")
        return super().__new__(cls, stem, cycle)

    @property
    def n_positions(self) -> int:
        return len(self.stem) + len(self.cycle)

    def letter(self, p: int):
        if p < len(self.stem):
            return self.stem[p]
        return self.cycle[p - len(self.stem)]

    def next_pos(self, p: int) -> int:
        q = p + 1
        return q if q < self.n_positions else len(self.stem)

    def __str__(self) -> str:
        return format_lasso(self)


class LassoWord(_Lasso):
    """The ultimately periodic word ``stem . cycle^omega``."""

    __slots__ = ()


class DecoratedLassoWord(_Lasso):
    """A lasso over letter/priority pairs; the grade is the first priority."""

    __slots__ = ()

    def __new__(cls, stem, cycle):
        self = super().__new__(cls, stem, cycle)
        for (sym, p) in stem + cycle:
            if not isinstance(p, int) or p < 1:
                raise InputError(f"priority must be a positive int, got {p!r} on {sym!r}")
        return self

    @property
    def grade(self) -> int:
        first = self.stem[0] if self.stem else self.cycle[0]
        return first[1]


def _primitive_root(cycle: tuple) -> tuple:
    n = len(cycle)
    for p in range(1, n + 1):
        if n % p == 0 and cycle == cycle[:p] * (n // p):
            return cycle[:p]
    return cycle


def normalize(w):
    """Canonical representative: shortest period, then shortest stem.

    Two lassos denote the same infinite word iff their normal forms are
    equal, so equality of inputs is decided here.
    """
    cycle = _primitive_root(w.cycle)
    stem = list(w.stem)
    while stem and stem[-1] == cycle[-1]:
        cycle = (cycle[-1],) + cycle[:-1]
        stem.pop()
    return type(w)(tuple(stem), cycle)


def unroll(w, k: int):
    """Same infinite word with ``k - 1`` extra cycle copies moved to the stem."""
    if k < 1:
        raise ValueError(f"unroll factor must be >= 1, got {k}")
    return type(w)(w.stem + w.cycle * (k - 1), w.cycle)


def flatten_word(xi: DecoratedLassoWord) -> LassoWord:
    """Drop all priorities pointwise."""
    return LassoWord(tuple(s for s, _ in xi.stem), tuple(s for s, _ in xi.cycle))


# ---------------------------------------------------------------------------
# Regular trees
# ---------------------------------------------------------------------------

class RegularTreeRep:
    """Finite pointed node graph generating an infinite (or finite) tree.

    ``nodes`` maps node ids to ``(label, children)`` where children is an
    ordered tuple of node ids; a node with no children is a leaf (its label
    should have arity 0 wherever an alphabet is in play).  Every node must
    be reachable from the root.
    """

    def __init__(self, nodes: Mapping[str, tuple[Any, tuple[str, ...]]], root: str):
        self.nodes = {n: (lab, tuple(kids)) for n, (lab, kids) in nodes.items()}
        self.root = root
        if root not in self.nodes:
            raise InputError(f"root {root!r} is not a node")
        succ = {n: kids for n, (_, kids) in self.nodes.items()}
        for n, (_, kids) in self.nodes.items():
            for c in kids:
                if c not in self.nodes:
                    raise InputError(f"node {n!r} has undeclared child {c!r}")
        unreachable = set(self.nodes) - reachable_from(succ, root)
        if unreachable:
            raise InputError(f"unreachable nodes: {sorted(unreachable)}")
        self._check_labels()

    def _check_labels(self):
        for n, (lab, _) in self.nodes.items():
            if not isinstance(lab, str):
                raise InputError(f"node {n!r}: plain tree labels must be symbols, got {lab!r}")

    @classmethod
    def pruned(cls, nodes: Mapping[str, tuple[Any, tuple[str, ...]]], root: str):
        """Construct after dropping nodes not reachable from the root."""
        succ = {n: tuple(kids) for n, (_, kids) in nodes.items()}
        keep = reachable_from(succ, root)
        return cls({n: v for n, v in nodes.items() if n in keep}, root)

    def label(self, n: str):
        return self.nodes[n][0]

    def children(self, n: str) -> tuple[str, ...]:
        return self.nodes[n][1]

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.nodes!r}, root={self.root!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.root == other.root and self.nodes == other.nodes


class DecoratedRegularTreeRep(RegularTreeRep):
    """Regular tree whose labels are symbol/priority pairs."""

    def _check_labels(self):
        for n, (lab, _) in self.nodes.items():
            if not (isinstance(lab, tuple) and len(lab) == 2 and isinstance(lab[1], int)):
                raise InputError(f"node {n!r}: decorated labels are (symbol, priority) pairs")
            if lab[1] < 1:
                raise InputError(f"node {n!r}: priority must be >= 1, got {lab[1]}")

    @property
    def grade(self) -> int:
        return self.nodes[self.root][0][1]

    def priority(self, n: str) -> int:
        return self.nodes[n][0][1]

    def symbol(self, n: str) -> str:
        return self.nodes[n][0][0]


def delst(xi: DecoratedRegularTreeRep) -> RegularTreeRep:
    """Project labels to their symbol; the graph shape is preserved."""
    return RegularTreeRep(
        {n: (lab[0], kids) for n, (lab, kids) in xi.nodes.items()}, xi.root
    )


# ---------------------------------------------------------------------------
# Runs and decoration
# ---------------------------------------------------------------------------

class RunLasso(namedtuple("RunLasso", "stem cycle")):
    """A run of a word automaton over a lasso, as tuples ``stem`` and
    ``cycle`` of (letter, state) pairs.

    Each pair records the state a letter is read *from*, so the decoration
    of position i is the priority of the i-th state of the run.
    """

    __slots__ = ()


class RunTreeRep(RegularTreeRep):
    """A regular run tree: labels are (symbol, state) pairs."""

    def _check_labels(self):
        for n, (lab, _) in self.nodes.items():
            if not (isinstance(lab, tuple) and len(lab) == 2):
                raise InputError(f"node {n!r}: run labels are (symbol, state) pairs")


def decorate_run(run, priorities: Mapping[str, int]):
    """Replace each state in a run by its priority.

    The result must satisfy the decorated parity law (a run of an accepting
    shape always does); otherwise the run was not accepting and the
    decoration is rejected with DecorationError.
    """
    if isinstance(run, RunLasso):
        xi = DecoratedLassoWord(
            tuple((a, priorities[x]) for a, x in run.stem),
            tuple((a, priorities[x]) for a, x in run.cycle),
        )
    elif isinstance(run, RunTreeRep):
        xi = DecoratedRegularTreeRep(
            {
                n: ((sym, priorities[state]), kids)
                for n, ((sym, state), kids) in run.nodes.items()
            },
            run.root,
        )
    else:
        raise TypeError(f"cannot decorate {type(run).__name__}")
    problems = check_decorated_invariant(xi)
    if problems:
        raise DecorationError("; ".join(problems))
    return xi


def check_decorated_invariant(xi, expected_grade: int | None = None) -> list[str]:
    """Check the parity law of a decorated object; empty list means ok.

    Words: the maximum priority on the cycle must be even (that is the
    limsup of the unrolled sequence).  Trees: no cycle reachable in the node
    graph may have an odd maximum priority, which over finite
    representations is equivalent to every infinite branch having an even
    limsup.  With ``expected_grade`` the first/root priority is also pinned.
    """
    problems = []
    if isinstance(xi, DecoratedLassoWord):
        cycle_max = max(p for _, p in xi.cycle)
        if cycle_max % 2 != 0:
            problems.append(f"odd cycle maximum: {cycle_max}")
    elif isinstance(xi, DecoratedRegularTreeRep):
        succ = {n: kids for n, (_, kids) in xi.nodes.items()}
        prio = {n: lab[1] for n, (lab, _) in xi.nodes.items()}
        found = cycle_with_max_parity(xi.nodes, succ, prio, parity=1)
        if found is not None:
            bad = found[0]
            problems.append(
                f"reachable cycle with odd maximum priority {xi.priority(bad)} (at node {bad!r})"
            )
    else:
        raise TypeError(f"not a decorated input: {type(xi).__name__}")
    if expected_grade is not None and xi.grade != expected_grade:
        problems.append(f"grade is {xi.grade}, expected {expected_grade}")
    return problems


# ---------------------------------------------------------------------------
# Text syntax
# ---------------------------------------------------------------------------

def _split_letters(segment: str, comma_mode: bool) -> tuple[str, ...]:
    segment = segment.strip()
    if not segment:
        return ()
    if comma_mode:
        return tuple(s for s in re.split(r"[,\s]+", segment) if s)
    return tuple(segment)


def parse_lasso(text: str) -> LassoWord:
    """Parse ``u;v`` (e.g. ``b;ab``).

    Single-character letters may be concatenated; the presence of a comma
    (or whitespace) anywhere switches the whole lasso to separated mode, so
    multi-character letters are written ``aa,bb;cc,`` (a trailing comma is
    allowed and marks separated mode for otherwise ambiguous segments).
    """
    if ";" not in text:
        raise ParseError(f"lasso needs a ';' between stem and cycle: {text!r}")
    stem_txt, _, cycle_txt = text.partition(";")
    comma_mode = ("," in text) or (" " in text.strip())
    stem = _split_letters(stem_txt, comma_mode)
    cycle = _split_letters(cycle_txt, comma_mode)
    if not cycle:
        raise ParseError(f"lasso cycle must be nonempty: {text!r}")
    return LassoWord(stem, cycle)


def parse_decorated_lasso(text: str) -> DecoratedLassoWord:
    """Parse ``b:1;a:2,b:1`` -- comma-separated letter:priority pairs."""
    if ";" not in text:
        raise ParseError(f"lasso needs a ';' between stem and cycle: {text!r}")
    stem_txt, _, cycle_txt = text.partition(";")

    def pairs(segment: str):
        out = []
        for chunk in re.split(r"[,\s]+", segment.strip()):
            if not chunk:
                continue
            if ":" not in chunk:
                raise ParseError(f"expected letter:priority, got {chunk!r}")
            sym, _, p = chunk.rpartition(":")
            try:
                out.append((sym, int(p)))
            except ValueError:
                raise ParseError(f"bad priority in {chunk!r}") from None
        return tuple(out)

    cycle = pairs(cycle_txt)
    if not cycle:
        raise ParseError(f"lasso cycle must be nonempty: {text!r}")
    return DecoratedLassoWord(pairs(stem_txt), cycle)


def format_lasso(w) -> str:
    if isinstance(w, DecoratedLassoWord):
        fmt = lambda seg: ",".join(f"{s}:{p}" for s, p in seg)
        return f"{fmt(w.stem)};{fmt(w.cycle)}"
    multi = any(len(s) != 1 for s in w.stem + w.cycle)
    if not multi:
        return f"{''.join(w.stem)};{''.join(w.cycle)}"
    text = f"{','.join(w.stem)};{','.join(w.cycle)}"
    if "," not in text:
        text += ","  # force separated mode on re-parse
    return text


_NODE_RE = re.compile(r"^(\w+)\s*=\s*([\w']+?)(?::(\d+))?\s*\(([^()]*)\)\s*$")


def parse_tree(text: str):
    """Parse the node-graph tree syntax.

    Headers ``tree`` and ``decorated-tree``; then ``root: n0`` and one
    ``node n = f(kids);`` (or ``f:2(kids);`` when decorated) per line.
    """
    header = None
    root = None
    nodes: dict[str, tuple[Any, tuple[str, ...]]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("tree", "decorated-tree"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            header = line
            continue
        if header is None:
            raise ParseError("missing header ('tree' or 'decorated-tree')", lineno)
        if line.startswith("root:"):
            root = line[len("root:"):].strip()
            continue
        if line.startswith("node "):
            body = line[len("node "):].rstrip(";").strip()
            m = _NODE_RE.match(body)
            if not m:
                raise ParseError(f"bad node declaration {body!r}", lineno)
            name, sym, prio, kids_txt = m.groups()
            kids = tuple(s for s in re.split(r"[,\s]+", kids_txt.strip()) if s)
            if header == "decorated-tree":
                if prio is None:
                    raise ParseError(f"decorated node {name!r} needs symbol:priority", lineno)
                nodes[name] = ((sym, int(prio)), kids)
            else:
                if prio is not None:
                    raise ParseError(f"plain tree node {name!r} cannot carry a priority", lineno)
                nodes[name] = (sym, kids)
            continue
        raise ParseError(f"unexpected line {line!r}", lineno)
    if header is None:
        raise ParseError("missing header ('tree' or 'decorated-tree')")
    if root is None:
        raise ParseError("missing 'root:' line")
    cls = DecoratedRegularTreeRep if header == "decorated-tree" else RegularTreeRep
    try:
        return cls(nodes, root)
    except InputError as exc:
        raise ParseError(str(exc)) from exc


def serialize_tree(t) -> str:
    decorated = isinstance(t, DecoratedRegularTreeRep)
    lines = ["decorated-tree" if decorated else "tree", f"root: {t.root}"]
    for n in t.node_ids():
        lab, kids = t.nodes[n]
        sym = f"{lab[0]}:{lab[1]}" if decorated else lab
        lines.append(f"node {n} = {sym}({', '.join(kids)});")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structural helpers and generators
# ---------------------------------------------------------------------------

def tree_reps_bisimilar(t1: RegularTreeRep, t2: RegularTreeRep) -> bool:
    """Do two representations generate the same (infinite) tree?"""
    seen = set()
    stack = [(t1.root, t2.root)]
    while stack:
        a, b = stack.pop()
        if (a, b) in seen:
            continue
        seen.add((a, b))
        la, ka = t1.nodes[a]
        lb, kb = t2.nodes[b]
        if la != lb or len(ka) != len(kb):
            return False
        stack.extend(zip(ka, kb))
    return True


def random_lasso(
    alphabet: Sequence[str], max_stem: int, max_cycle: int, rng: random.Random
) -> LassoWord:
    stem = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_stem)))
    cycle = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, max_cycle)))
    return LassoWord(stem, cycle)


def random_regular_tree(
    alphabet: RankedAlphabet, n_nodes: int, rng: random.Random
) -> RegularTreeRep:
    """Random generator graph; nodes beyond the root may end up pruned."""
    names = [f"n{i}" for i in range(n_nodes)]
    nodes = {}
    for n in names:
        sym = rng.choice(alphabet.symbols)
        kids = tuple(rng.choice(names) for _ in range(alphabet.arity(sym)))
        nodes[n] = (sym, kids)
    return RegularTreeRep.pruned(nodes, names[0])
