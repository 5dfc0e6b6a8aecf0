"""Finite-state word and tree automata with parity priorities.

All automata here are immutable after construction and validated eagerly:
state/letter references must be declared, priorities must lie in [1, 2n],
and tree transitions must match their symbol's arity.  The priority map and
the partition of states into priority classes are interconvertible; we store
the map.

The module also owns the line-based text format (plus its JSON mirror) and
the seeded random generators used by the differential harness.

Text format, one directive per line, ``#`` starts a comment::

    word-parity                  # or tree-parity / word-det-exc / tree-det-exc
    alphabet: a b                # word automata
    ranked-alphabet: f/2 c/0     # tree automata
    states: x y
    priorities: x:1 y:2          # or Buchi shorthand:  accepting: y
    final: y                     # optional termination flags (word automata)
    trans: x a y;                # word transition
    trans: x -> f(x, y);         # tree transition
"""

from __future__ import annotations

import json
import random
import re
from collections import namedtuple
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AutomatonError",
    "ParseError",
    "RankedAlphabet",
    "ParityWordAutomaton",
    "BuchiWordAutomaton",
    "ParityTreeAutomaton",
    "DeterministicExceptionAutomaton",
    "buchi_to_parity",
    "validate",
    "parse",
    "serialize",
    "WordGenParams",
    "TreeGenParams",
    "DetGenParams",
    "random_word_automaton",
    "random_buchi_automaton",
    "random_tree_automaton",
    "random_det_exception_automaton",
]

SCHEMA_VERSION = 1


class AutomatonError(Exception):
    """Structurally invalid automaton."""


class ParseError(Exception):
    """Malformed automaton/input text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _even_ceiling(n: int) -> int:
    return n if n % 2 == 0 else n + 1


class RankedAlphabet:
    """A finite symbol set with an arity for each symbol."""

    def __init__(self, arities: Mapping[str, int] | Iterable[tuple[str, int]]):
        entries = tuple(arities.items()) if isinstance(arities, Mapping) else tuple(arities)
        symbols = [s for s, _ in entries]
        if not symbols:
            raise AutomatonError("ranked alphabet needs at least one symbol")
        if len(set(symbols)) != len(symbols):
            raise AutomatonError(f"duplicate symbols in ranked alphabet {symbols}")
        for s, n in entries:
            if n < 0:
                raise AutomatonError(f"symbol {s!r} has negative arity {n}")
        self.symbols = tuple(symbols)
        self._arity = dict(entries)

    def arity(self, symbol: str) -> int:
        try:
            return self._arity[symbol]
        except KeyError:
            raise AutomatonError(f"symbol {symbol!r} not in ranked alphabet") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._arity

    def __eq__(self, other) -> bool:
        return isinstance(other, RankedAlphabet) and self._arity == other._arity

    def __repr__(self) -> str:
        return f"RankedAlphabet({self._arity!r})"


def _check_priorities(states, priorities) -> int:
    """Validate a priority map and return the induced 2n."""
    missing = [x for x in states if x not in priorities]
    if missing:
        raise AutomatonError(f"states without a priority: {missing}")
    extra = [x for x in priorities if x not in states]
    if extra:
        raise AutomatonError(f"priorities for undeclared states: {extra}")
    for x, p in priorities.items():
        if not isinstance(p, int) or p < 1:
            raise AutomatonError(f"priority out of [1,2n]: state {x!r} has {p!r}")
    two_n = max(2, _even_ceiling(max(priorities.values(), default=1)))
    return two_n


class ParityWordAutomaton:
    """Nondeterministic word automaton with a priority function.

    ``final`` marks states with an explicit termination option; it is only
    consumed by the finite/infinitary-trace operations and does not affect
    parity membership.
    """

    kind = "word-parity"

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        transitions: Iterable[tuple[str, str, str]],
        priorities: Mapping[str, int],
        final: Iterable[str] = (),
    ):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError(f"duplicate states: {self.states}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise AutomatonError(f"duplicate letters: {self.alphabet}")
        seen = set()
        trans = []
        for t in transitions:
            if t not in seen:
                seen.add(t)
                trans.append(t)
        self.transitions = tuple(trans)
        self.priorities = dict(priorities)
        self.final = frozenset(final)
        self.two_n = _check_priorities(self.states, self.priorities)
        state_set = set(self.states)
        for (x, a, y) in self.transitions:
            if x not in state_set or y not in state_set:
                raise AutomatonError(f"transition {x} {a} {y}: undeclared state")
            if a not in self.alphabet:
                raise AutomatonError(f"transition {x} {a} {y}: undeclared letter {a!r}")
        bad_final = self.final - state_set
        if bad_final:
            raise AutomatonError(f"final flags on undeclared states: {sorted(bad_final)}")
        succ: dict[tuple[str, str], list[str]] = {}
        for (x, a, y) in self.transitions:
            succ.setdefault((x, a), []).append(y)
        self._succ = {k: tuple(v) for k, v in succ.items()}

    def successors(self, x: str, a: str) -> tuple[str, ...]:
        return self._succ.get((x, a), ())

    def priority(self, x: str) -> int:
        return self.priorities[x]

    def priority_class(self, i: int) -> tuple[str, ...]:
        return tuple(x for x in self.states if self.priorities[x] == i)

    def shifted(self, delta: int = 2) -> "ParityWordAutomaton":
        """Copy with every priority shifted by an even delta."""
        if delta % 2 != 0:
            raise ValueError("priority shift must be even")
        return ParityWordAutomaton(
            self.states,
            self.alphabet,
            self.transitions,
            {x: p + delta for x, p in self.priorities.items()},
            self.final,
        )

    def _key(self):
        return (
            self.kind,
            frozenset(self.states),
            frozenset(self.alphabet),
            frozenset(self.transitions),
            frozenset(self.priorities.items()),
            self.final,
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ParityWordAutomaton) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class BuchiWordAutomaton:
    """Word automaton with an accepting-state set (the two-priority case)."""

    kind = "word-buchi"

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        transitions: Iterable[tuple[str, str, str]],
        accepting: Iterable[str],
        final: Iterable[str] = (),
    ):
        self.accepting = frozenset(accepting)
        priorities = {x: (2 if x in self.accepting else 1) for x in states}
        bad = self.accepting - set(states)
        if bad:
            raise AutomatonError(f"accepting flags on undeclared states: {sorted(bad)}")
        # reuse the parity validation by building the encoded automaton now
        self._parity = ParityWordAutomaton(states, alphabet, transitions, priorities, final)
        self.states = self._parity.states
        self.alphabet = self._parity.alphabet
        self.transitions = self._parity.transitions
        self.final = self._parity.final

    def successors(self, x: str, a: str) -> tuple[str, ...]:
        return self._parity.successors(x, a)


def buchi_to_parity(aut: BuchiWordAutomaton) -> ParityWordAutomaton:
    """Encode accepting states as priority 2, the rest as priority 1."""
    return aut._parity


class ParityTreeAutomaton:
    """Nondeterministic tree automaton over a ranked alphabet."""

    kind = "tree-parity"

    def __init__(
        self,
        states: Sequence[str],
        alphabet: RankedAlphabet,
        transitions: Iterable[tuple[str, str, tuple[str, ...]]],
        priorities: Mapping[str, int],
    ):
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError(f"duplicate states: {self.states}")
        self.alphabet = alphabet
        seen = set()
        trans = []
        for (x, sym, targets) in transitions:
            t = (x, sym, tuple(targets))
            if t not in seen:
                seen.add(t)
                trans.append(t)
        self.transitions = tuple(trans)
        self.priorities = dict(priorities)
        self.two_n = _check_priorities(self.states, self.priorities)
        state_set = set(self.states)
        for (x, sym, targets) in self.transitions:
            if x not in state_set:
                raise AutomatonError(f"transition from undeclared state {x!r}")
            n = alphabet.arity(sym)
            if len(targets) != n:
                raise AutomatonError(
                    f"transition {x} -> {sym}{targets}: symbol has arity {n}, "
                    f"got {len(targets)} children"
                )
            for y in targets:
                if y not in state_set:
                    raise AutomatonError(f"transition {x} -> {sym}{targets}: undeclared state {y!r}")
        succ: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for (x, sym, targets) in self.transitions:
            succ.setdefault(x, []).append((sym, targets))
        self._succ = {k: tuple(v) for k, v in succ.items()}

    def transitions_from(self, x: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._succ.get(x, ())

    def priority(self, x: str) -> int:
        return self.priorities[x]

    def priority_class(self, i: int) -> tuple[str, ...]:
        return tuple(x for x in self.states if self.priorities[x] == i)

    def shifted(self, delta: int = 2) -> "ParityTreeAutomaton":
        if delta % 2 != 0:
            raise ValueError("priority shift must be even")
        return ParityTreeAutomaton(
            self.states,
            self.alphabet,
            self.transitions,
            {x: p + delta for x, p in self.priorities.items()},
        )

    def _key(self):
        return (
            self.kind,
            frozenset(self.states),
            tuple(sorted(self.alphabet._arity.items())),
            frozenset(self.transitions),
            frozenset(self.priorities.items()),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, ParityTreeAutomaton) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class DeterministicExceptionAutomaton:
    """Deterministic automaton whose transition map may be undefined.

    An undefined ``delta(x)`` encodes the exception: a run reaching such a
    state cannot be completed.  The word case is the arity-1 restriction and
    uses the word file syntax.
    """

    def __init__(
        self,
        states: Sequence[str],
        alphabet: RankedAlphabet,
        delta: Mapping[str, tuple[str, tuple[str, ...]]],
        priorities: Mapping[str, int],
        kind: str = "tree",
    ):
        if kind not in ("word", "tree"):
            raise AutomatonError(f"kind must be 'word' or 'tree', got {kind!r}")
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError(f"duplicate states: {self.states}")
        self.alphabet = alphabet
        self.delta = {x: (sym, tuple(targets)) for x, (sym, targets) in delta.items()}
        self.priorities = dict(priorities)
        self.word_kind = kind == "word"
        self.kind = "word-det-exc" if self.word_kind else "tree-det-exc"
        self.two_n = _check_priorities(self.states, self.priorities)
        state_set = set(self.states)
        for x, (sym, targets) in self.delta.items():
            if x not in state_set:
                raise AutomatonError(f"transition from undeclared state {x!r}")
            n = alphabet.arity(sym)
            if len(targets) != n:
                raise AutomatonError(
                    f"delta({x}) = {sym}{targets}: symbol has arity {n}, "
                    f"got {len(targets)} children"
                )
            for y in targets:
                if y not in state_set:
                    raise AutomatonError(f"delta({x}): undeclared state {y!r}")
        if self.word_kind:
            for s in alphabet.symbols:
                if alphabet.arity(s) != 1:
                    raise AutomatonError(
                        f"word-kind automaton needs arity-1 symbols, {s!r} has {alphabet.arity(s)}"
                    )

    def priority(self, x: str) -> int:
        return self.priorities[x]


def validate(aut) -> list[str]:
    """Re-run the structural checks on an instance; empty list means ok.

    Construction already validates, so this catches instances whose fields
    were mutated afterwards (or deserialised through a side door).
    """
    try:
        if isinstance(aut, ParityWordAutomaton):
            ParityWordAutomaton(aut.states, aut.alphabet, aut.transitions, aut.priorities, aut.final)
        elif isinstance(aut, BuchiWordAutomaton):
            BuchiWordAutomaton(aut.states, aut.alphabet, aut.transitions, aut.accepting, aut.final)
        elif isinstance(aut, ParityTreeAutomaton):
            ParityTreeAutomaton(aut.states, aut.alphabet, aut.transitions, aut.priorities)
        elif isinstance(aut, DeterministicExceptionAutomaton):
            DeterministicExceptionAutomaton(
                aut.states, aut.alphabet, aut.delta, aut.priorities,
                "word" if aut.word_kind else "tree",
            )
        else:
            return [f"unknown automaton type {type(aut).__name__}"]
    except AutomatonError as exc:
        return [str(exc)]
    return []


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

_HEADERS = ("word-parity", "tree-parity", "word-det-exc", "tree-det-exc")
_TREE_TRANS_RE = re.compile(r"^(\w+)\s*->\s*(\w+)\s*\(([^()]*)\)\s*$")


def _parse_lines(text: str):
    """Yield (lineno, directive, payload) for non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            head, payload = line.split(":", 1)
            yield lineno, head.strip(), payload.strip()
        else:
            yield lineno, line, None


def parse(text: str):
    """Parse an automaton from the text format or its JSON mirror."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"not valid JSON: {exc}") from None
        return _from_json(doc)

    header = None
    alphabet: list[str] = []
    ranked: list[tuple[str, int]] = []
    states: list[str] = []
    priorities: dict[str, int] = {}
    accepting: list[str] | None = None
    final: list[str] = []
    word_trans: list[tuple[str, str, str]] = []
    tree_trans: list[tuple[str, str, tuple[str, ...]]] = []

    for lineno, head, payload in _parse_lines(text):
        if payload is None:
            if head in _HEADERS:
                if header is not None:
                    raise ParseError("duplicate header", lineno)
                header = head
                continue
            raise ParseError(f"unexpected directive {head!r}", lineno)
        if header is None:
            raise ParseError(f"missing header line (one of {', '.join(_HEADERS)})", lineno)
        if head == "alphabet":
            alphabet.extend(payload.split())
        elif head == "ranked-alphabet":
            for chunk in payload.split():
                if "/" not in chunk:
                    raise ParseError(f"expected symbol/arity, got {chunk!r}", lineno)
                sym, _, ar = chunk.partition("/")
                try:
                    ranked.append((sym, int(ar)))
                except ValueError:
                    raise ParseError(f"bad arity in {chunk!r}", lineno) from None
        elif head == "states":
            states.extend(payload.split())
        elif head == "priorities":
            for chunk in payload.split():
                if ":" not in chunk:
                    raise ParseError(f"expected state:priority, got {chunk!r}", lineno)
                x, _, p = chunk.partition(":")
                try:
                    priorities[x] = int(p)
                except ValueError:
                    raise ParseError(f"bad priority in {chunk!r}", lineno) from None
        elif head == "accepting":
            accepting = (accepting or []) + payload.split()
        elif head == "final":
            final.extend(payload.split())
        elif head == "trans":
            body = payload.rstrip(";").strip()
            if "->" in body:
                m = _TREE_TRANS_RE.match(body)
                if not m:
                    raise ParseError(f"bad tree transition {body!r}", lineno)
                x, sym, kids = m.group(1), m.group(2), m.group(3)
                targets = tuple(s for s in re.split(r"[,\s]+", kids.strip()) if s)
                tree_trans.append((x, sym, targets))
            else:
                parts = body.split()
                if len(parts) != 3:
                    raise ParseError(f"bad word transition {body!r}", lineno)
                word_trans.append((parts[0], parts[1], parts[2]))
        else:
            raise ParseError(f"unknown directive {head!r}", lineno)

    if header is None:
        raise ParseError(f"missing header line (one of {', '.join(_HEADERS)})")
    if accepting is not None and priorities:
        raise ParseError("give either 'priorities:' or 'accepting:', not both")

    try:
        if header == "word-parity":
            if accepting is not None:
                return BuchiWordAutomaton(states, alphabet, word_trans, accepting, final)
            return ParityWordAutomaton(states, alphabet, word_trans, priorities, final)
        if header == "tree-parity":
            return ParityTreeAutomaton(states, RankedAlphabet(ranked), tree_trans, priorities)
        if header == "word-det-exc":
            ranked_word = RankedAlphabet([(a, 1) for a in alphabet])
            delta: dict[str, tuple[str, tuple[str, ...]]] = {}
            for (x, a, y) in word_trans:
                if x in delta and delta[x] != (a, (y,)):
                    raise AutomatonError(f"state {x!r} has more than one transition")
                delta[x] = (a, (y,))
            return DeterministicExceptionAutomaton(states, ranked_word, delta, priorities, "word")
        if header == "tree-det-exc":
            delta = {}
            for (x, sym, targets) in tree_trans:
                if x in delta and delta[x] != (sym, targets):
                    raise AutomatonError(f"state {x!r} has more than one transition")
                delta[x] = (sym, targets)
            return DeterministicExceptionAutomaton(states, RankedAlphabet(ranked), delta, priorities, "tree")
    except AutomatonError as exc:
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unhandled header {header!r}")


def serialize(aut, as_json: bool = False) -> str:
    """Render an automaton in the text format (or the JSON mirror)."""
    if as_json:
        return json.dumps(_to_json(aut), indent=2, sort_keys=True) + "\n"
    # the Buchi shorthand shares the word-parity header
    lines = ["word-parity" if isinstance(aut, BuchiWordAutomaton) else aut.kind]
    if isinstance(aut, (ParityWordAutomaton, BuchiWordAutomaton)) or (
        isinstance(aut, DeterministicExceptionAutomaton) and aut.word_kind
    ):
        letters = aut.alphabet.symbols if isinstance(aut.alphabet, RankedAlphabet) else aut.alphabet
        lines.append("alphabet: " + " ".join(letters))
    else:
        lines.append(
            "ranked-alphabet: "
            + " ".join(f"{s}/{aut.alphabet.arity(s)}" for s in aut.alphabet.symbols)
        )
    lines.append("states: " + " ".join(aut.states))
    if isinstance(aut, BuchiWordAutomaton):
        lines.append("accepting: " + " ".join(sorted(aut.accepting)))
    else:
        lines.append("priorities: " + " ".join(f"{x}:{aut.priorities[x]}" for x in aut.states))
    if getattr(aut, "final", None):
        lines.append("final: " + " ".join(sorted(aut.final)))
    if isinstance(aut, (ParityWordAutomaton, BuchiWordAutomaton)):
        for (x, a, y) in sorted(aut.transitions):
            lines.append(f"trans: {x} {a} {y};")
    elif isinstance(aut, ParityTreeAutomaton):
        for (x, sym, targets) in sorted(aut.transitions):
            lines.append(f"trans: {x} -> {sym}({', '.join(targets)});")
    else:
        for x in aut.states:
            if x in aut.delta:
                sym, targets = aut.delta[x]
                if aut.word_kind:
                    lines.append(f"trans: {x} {sym} {targets[0]};")
                else:
                    lines.append(f"trans: {x} -> {sym}({', '.join(targets)});")
    return "\n".join(lines) + "\n"


def _to_json(aut) -> dict:
    doc: dict = {"schema_version": SCHEMA_VERSION, "kind": aut.kind}
    if isinstance(aut, (ParityWordAutomaton, BuchiWordAutomaton)):
        doc["alphabet"] = list(aut.alphabet)
        doc["states"] = list(aut.states)
        doc["transitions"] = [list(t) for t in sorted(aut.transitions)]
        if isinstance(aut, BuchiWordAutomaton):
            doc["accepting"] = sorted(aut.accepting)
        else:
            doc["priorities"] = dict(aut.priorities)
        doc["final"] = sorted(aut.final)
    elif isinstance(aut, ParityTreeAutomaton):
        doc["ranked_alphabet"] = {s: aut.alphabet.arity(s) for s in aut.alphabet.symbols}
        doc["states"] = list(aut.states)
        doc["priorities"] = dict(aut.priorities)
        doc["transitions"] = [[x, sym, list(tg)] for (x, sym, tg) in sorted(aut.transitions)]
    elif isinstance(aut, DeterministicExceptionAutomaton):
        if aut.word_kind:
            doc["alphabet"] = list(aut.alphabet.symbols)
        else:
            doc["ranked_alphabet"] = {s: aut.alphabet.arity(s) for s in aut.alphabet.symbols}
        doc["states"] = list(aut.states)
        doc["priorities"] = dict(aut.priorities)
        doc["delta"] = {x: [sym, list(tg)] for x, (sym, tg) in sorted(aut.delta.items())}
    else:
        raise AutomatonError(f"cannot serialize {type(aut).__name__}")
    return doc


#: Shapes of the JSON fields: a type, ``[shape]`` for a list of it,
#: ``(shape, ...)`` for a list of that length, ``{str: shape}`` for an object.
_JSON_SHAPES = {
    "states": [str],
    "alphabet": [str],
    "accepting": [str],
    "final": [str],
    "priorities": {str: int},
    "ranked_alphabet": {str: int},
    "delta": {str: (str, [str])},
}
_WORD_TRANSITIONS = [(str, str, str)]
_TREE_TRANSITIONS = [(str, str, [str])]


def _has_shape(value, shape) -> bool:
    if isinstance(shape, list):
        return isinstance(value, list) and all(_has_shape(v, shape[0]) for v in value)
    if isinstance(shape, tuple):
        return (
            isinstance(value, list)
            and len(value) == len(shape)
            and all(map(_has_shape, value, shape))
        )
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_has_shape(v, shape[str]) for v in value.values())
    return isinstance(value, shape) and not isinstance(value, bool)


def _from_json(doc: dict):
    tree = doc.get("kind") == "tree-parity"
    shapes = {**_JSON_SHAPES, "transitions": _TREE_TRANSITIONS if tree else _WORD_TRANSITIONS}
    for key, shape in shapes.items():
        if key in doc and not _has_shape(doc[key], shape):
            raise ParseError(f"bad JSON automaton: field {key!r} has the wrong shape")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    try:
        if kind == "word-parity":
            return ParityWordAutomaton(
                doc["states"],
                doc["alphabet"],
                [tuple(t) for t in doc["transitions"]],
                doc["priorities"],
                doc.get("final", ()),
            )
        if kind == "word-buchi":
            return BuchiWordAutomaton(
                doc["states"],
                doc["alphabet"],
                [tuple(t) for t in doc["transitions"]],
                doc["accepting"],
                doc.get("final", ()),
            )
        if kind == "tree-parity":
            return ParityTreeAutomaton(
                doc["states"],
                RankedAlphabet(doc["ranked_alphabet"]),
                [(x, sym, tuple(tg)) for x, sym, tg in doc["transitions"]],
                doc["priorities"],
            )
        if kind in ("word-det-exc", "tree-det-exc"):
            word = kind == "word-det-exc"
            alphabet = (
                RankedAlphabet([(a, 1) for a in doc["alphabet"]])
                if word
                else RankedAlphabet(doc["ranked_alphabet"])
            )
            delta = {x: (sym, tuple(tg)) for x, (sym, tg) in doc["delta"].items()}
            return DeterministicExceptionAutomaton(
                doc["states"], alphabet, delta, doc["priorities"], "word" if word else "tree"
            )
    except (KeyError, AutomatonError) as exc:
        raise ParseError(f"bad JSON automaton: {exc}") from exc
    raise ParseError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Random generation (seed-deterministic)
# ---------------------------------------------------------------------------

_LETTERS = "abcdefgh"


class WordGenParams(
    namedtuple("WordGenParams", "n_states n_letters two_n density final_prob", defaults=(4, 2, 4, 0.5, 0.0))
):
    __slots__ = ()


class TreeGenParams(
    namedtuple("TreeGenParams", "n_states n_symbols max_arity two_n density", defaults=(4, 3, 2, 4, 0.4))
):
    __slots__ = ()


class DetGenParams(
    namedtuple(
        "DetGenParams",
        "n_states n_symbols max_arity two_n undefined_prob word",
        defaults=(4, 2, 2, 4, 0.2, False),
    )
):
    __slots__ = ()


def _rng(seed) -> random.Random:
    return random.Random(seed)


def random_word_automaton(params: WordGenParams, seed) -> ParityWordAutomaton:
    """Seed-deterministic random parity word automaton within the bounds."""
    rng = _rng(seed)
    states = [f"s{i}" for i in range(params.n_states)]
    alphabet = list(_LETTERS[: params.n_letters])
    transitions = [
        (x, a, y)
        for x in states
        for a in alphabet
        for y in states
        if rng.random() < params.density
    ]
    priorities = {x: rng.randint(1, params.two_n) for x in states}
    final = [x for x in states if rng.random() < params.final_prob]
    return ParityWordAutomaton(states, alphabet, transitions, priorities, final)


def random_buchi_automaton(params: WordGenParams, seed) -> BuchiWordAutomaton:
    rng = _rng(seed)
    states = [f"s{i}" for i in range(params.n_states)]
    alphabet = list(_LETTERS[: params.n_letters])
    transitions = [
        (x, a, y)
        for x in states
        for a in alphabet
        for y in states
        if rng.random() < params.density
    ]
    accepting = [x for x in states if rng.random() < 0.5]
    final = [x for x in states if rng.random() < params.final_prob]
    return BuchiWordAutomaton(states, alphabet, transitions, accepting, final)


def random_ranked_alphabet(n_symbols: int, max_arity: int, rng: random.Random) -> RankedAlphabet:
    symbols = [f"f{i}" for i in range(n_symbols)]
    return RankedAlphabet([(s, rng.randint(0, max_arity)) for s in symbols])


def random_tree_automaton(params: TreeGenParams, seed) -> ParityTreeAutomaton:
    """Seed-deterministic random parity tree automaton within the bounds."""
    rng = _rng(seed)
    states = [f"s{i}" for i in range(params.n_states)]
    alphabet = random_ranked_alphabet(params.n_symbols, params.max_arity, rng)
    transitions = []
    for x in states:
        for sym in alphabet.symbols:
            n = alphabet.arity(sym)
            if rng.random() < params.density:
                transitions.append((x, sym, tuple(rng.choice(states) for _ in range(n))))
    priorities = {x: rng.randint(1, params.two_n) for x in states}
    return ParityTreeAutomaton(states, alphabet, transitions, priorities)


def random_det_exception_automaton(params: DetGenParams, seed) -> DeterministicExceptionAutomaton:
    """Random deterministic automaton; some states get no transition at all."""
    rng = _rng(seed)
    states = [f"s{i}" for i in range(params.n_states)]
    if params.word:
        alphabet = RankedAlphabet([(a, 1) for a in _LETTERS[: params.n_symbols]])
    else:
        alphabet = random_ranked_alphabet(params.n_symbols, params.max_arity, rng)
    delta = {}
    for x in states:
        if rng.random() < params.undefined_prob:
            continue
        sym = rng.choice(alphabet.symbols)
        delta[x] = (sym, tuple(rng.choice(states) for _ in range(alphabet.arity(sym))))
    priorities = {x: rng.randint(1, params.two_n) for x in states}
    return DeterministicExceptionAutomaton(
        states, alphabet, delta, priorities, "word" if params.word else "tree"
    )
