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
    priorities: x:1 y:2          # or Buchi shorthand:  accepting: y (word-parity)
    final: y                     # optional termination flags (word-parity)
    trans: x a y;                # word transition
    trans: x -> f(x, y);         # tree transition

A line that the header's kind does not read is a ``ParseError``.
"""

from __future__ import annotations

import copy
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


def _check_targets(what, alphabet, x, sym, targets, state_set) -> None:
    """Check that ``targets`` are declared states, as many as the arity of
    ``sym``; the template ``what``, filled with ``x``, ``sym`` and
    ``targets`` only on an error, names the transition in the messages."""
    n = alphabet.arity(sym)
    if len(targets) != n:
        what = what.format(x=x, sym=sym, targets=targets)
        raise AutomatonError(f"{what}: symbol has arity {n}, got {len(targets)} children")
    for y in targets:
        if y not in state_set:
            what = what.format(x=x, sym=sym, targets=targets)
            raise AutomatonError(f"{what}: undeclared state {y!r}")


class _Automaton:
    """The states and priorities that every parity automaton has, and
    equality by the kind and ``_key`` of an instance, which
    ``BuchiWordAutomaton`` shares."""

    def _set_states(self, states, priorities) -> set:
        """Store and check ``states`` and ``priorities``, set ``two_n``,
        and return the set of states."""
        self.states = tuple(states)
        if len(set(self.states)) != len(self.states):
            raise AutomatonError(f"duplicate states: {self.states}")
        self.priorities = dict(priorities)
        self.two_n = _check_priorities(self.states, self.priorities)
        return set(self.states)

    def priority(self, x: str) -> int:
        return self.priorities[x]

    def priority_class(self, i: int) -> tuple[str, ...]:
        return tuple(x for x in self.states if self.priorities[x] == i)

    def shifted(self, delta: int = 2):
        """Copy with every priority shifted by an even delta."""
        if delta % 2 != 0:
            raise ValueError("priority shift must be even")
        twin = copy.copy(self)
        twin.priorities = {x: p + delta for x, p in self.priorities.items()}
        twin.two_n = _check_priorities(self.states, twin.priorities)
        return twin

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class ParityWordAutomaton(_Automaton):
    """Nondeterministic word automaton with a priority function.

    ``final`` marks states with an explicit termination option; it is only
    consumed by the finite-trace operations and does not affect
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
        state_set = self._set_states(states, priorities)
        self.alphabet = tuple(alphabet)
        if len(set(self.alphabet)) != len(self.alphabet):
            raise AutomatonError(f"duplicate letters: {self.alphabet}")
        self.transitions = tuple(dict.fromkeys(transitions))
        self.final = frozenset(final)
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

    def _key(self):
        return (
            frozenset(self.states),
            frozenset(self.alphabet),
            frozenset(self.transitions),
            frozenset(self.priorities.items()),
            self.final,
        )


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

    def _key(self):
        return (
            frozenset(self.states),
            frozenset(self.alphabet),
            frozenset(self.transitions),
            self.accepting,
            self.final,
        )

    __eq__ = _Automaton.__eq__
    __hash__ = _Automaton.__hash__


def buchi_to_parity(aut: BuchiWordAutomaton) -> ParityWordAutomaton:
    """Encode accepting states as priority 2, the rest as priority 1."""
    return aut._parity


class ParityTreeAutomaton(_Automaton):
    """Nondeterministic tree automaton over a ranked alphabet."""

    kind = "tree-parity"

    def __init__(
        self,
        states: Sequence[str],
        alphabet: RankedAlphabet,
        transitions: Iterable[tuple[str, str, tuple[str, ...]]],
        priorities: Mapping[str, int],
    ):
        state_set = self._set_states(states, priorities)
        self.alphabet = alphabet
        self.transitions = tuple(dict.fromkeys((x, sym, tuple(tg)) for x, sym, tg in transitions))
        for (x, sym, targets) in self.transitions:
            if x not in state_set:
                raise AutomatonError(f"transition from undeclared state {x!r}")
            _check_targets("transition {x} -> {sym}{targets}", alphabet, x, sym, targets, state_set)
        succ: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for (x, sym, targets) in self.transitions:
            succ.setdefault(x, []).append((sym, targets))
        self._succ = {k: tuple(v) for k, v in succ.items()}

    def transitions_from(self, x: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return self._succ.get(x, ())

    def _key(self):
        return (
            frozenset(self.states),
            tuple(sorted(self.alphabet._arity.items())),
            frozenset(self.transitions),
            frozenset(self.priorities.items()),
        )


class DeterministicExceptionAutomaton(_Automaton):
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
        state_set = self._set_states(states, priorities)
        self.alphabet = alphabet
        self.delta = {x: (sym, tuple(targets)) for x, (sym, targets) in delta.items()}
        self.word_kind = kind == "word"
        self.kind = "word-det-exc" if self.word_kind else "tree-det-exc"
        for x, (sym, targets) in self.delta.items():
            if x not in state_set:
                raise AutomatonError(f"transition from undeclared state {x!r}")
            _check_targets("delta({x}) = {sym}{targets}", alphabet, x, sym, targets, state_set)
        if self.word_kind:
            for s in alphabet.symbols:
                if alphabet.arity(s) != 1:
                    raise AutomatonError(
                        f"word-kind automaton needs arity-1 symbols, {s!r} has {alphabet.arity(s)}"
                    )

    def _key(self):
        return (
            self.word_kind,
            frozenset(self.states),
            tuple(sorted(self.alphabet._arity.items())),
            frozenset(self.delta.items()),
            frozenset(self.priorities.items()),
        )


# ---------------------------------------------------------------------------
# Text and JSON formats
# ---------------------------------------------------------------------------

#: The headers of the text format, each with the directives its kind reads.
_HEADERS = {
    "word-parity": {"alphabet", "states", "priorities", "accepting", "final", "trans"},
    "tree-parity": {"ranked-alphabet", "states", "priorities", "trans"},
    "word-det-exc": {"alphabet", "states", "priorities", "trans"},
    "tree-det-exc": {"ranked-alphabet", "states", "priorities", "trans"},
}
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


def _int_pairs(payload: str, name: str, sep: str, number: str, lineno: int) -> list:
    """The ``name<sep>number`` chunks of a directive as (name, int) pairs."""
    pairs = []
    for chunk in payload.split():
        if sep not in chunk:
            raise ParseError(f"expected {name}{sep}{number}, got {chunk!r}", lineno)
        key, _, value = chunk.partition(sep)
        try:
            pairs.append((key, int(value)))
        except ValueError:
            raise ParseError(f"bad {number} in {chunk!r}", lineno) from None
    return pairs


def _det_delta(transitions) -> dict:
    """The map ``x -> (symbol, targets)`` of a deterministic automaton's
    ``(x, symbol, targets)`` transitions; a repeated transition is one."""
    delta: dict[str, tuple[str, tuple[str, ...]]] = {}
    for (x, sym, targets) in transitions:
        if delta.setdefault(x, (sym, targets)) != (sym, targets):
            raise AutomatonError(f"state {x!r} has more than one transition")
    return delta


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
    trans: list[tuple] = []

    for lineno, head, payload in _parse_lines(text):
        if payload is None:
            if head in _HEADERS:
                if header is not None:
                    raise ParseError("duplicate header", lineno)
                header, reads, tree = head, _HEADERS[head], head.startswith("tree")
                continue
            raise ParseError(f"unexpected directive {head!r}", lineno)
        if header is None:
            raise ParseError(f"missing header line (one of {', '.join(_HEADERS)})", lineno)
        if head not in reads:
            if any(head in directives for directives in _HEADERS.values()):
                raise ParseError(f"a {header} automaton takes no {head!r} line", lineno)
            raise ParseError(f"unknown directive {head!r}", lineno)
        if head == "alphabet":
            alphabet.extend(payload.split())
        elif head == "ranked-alphabet":
            ranked.extend(_int_pairs(payload, "symbol", "/", "arity", lineno))
        elif head == "states":
            states.extend(payload.split())
        elif head == "priorities":
            priorities.update(_int_pairs(payload, "state", ":", "priority", lineno))
        elif head == "accepting":
            accepting = (accepting or []) + payload.split()
        elif head == "final":
            final.extend(payload.split())
        elif tree:
            body = payload.rstrip(";").strip()
            m = _TREE_TRANS_RE.match(body)
            if not m:
                raise ParseError(f"bad tree transition {body!r}", lineno)
            x, sym, kids = m.groups()
            trans.append((x, sym, tuple(s for s in re.split(r"[,\s]+", kids.strip()) if s)))
        else:
            body = payload.rstrip(";").strip()
            parts = body.split()
            if len(parts) != 3 or "->" in body:
                raise ParseError(f"bad word transition {body!r}", lineno)
            trans.append(tuple(parts))

    if header is None:
        raise ParseError(f"missing header line (one of {', '.join(_HEADERS)})")
    if accepting is not None and priorities:
        raise ParseError("give either 'priorities:' or 'accepting:', not both")

    try:
        if header == "word-parity":
            if accepting is not None:
                return BuchiWordAutomaton(states, alphabet, trans, accepting, final)
            return ParityWordAutomaton(states, alphabet, trans, priorities, final)
        if header == "tree-parity":
            return ParityTreeAutomaton(states, RankedAlphabet(ranked), trans, priorities)
        if header == "word-det-exc":
            ranked_word = RankedAlphabet([(a, 1) for a in alphabet])
            delta = _det_delta((x, a, (y,)) for (x, a, y) in trans)
            return DeterministicExceptionAutomaton(states, ranked_word, delta, priorities, "word")
        delta = _det_delta(trans)
        return DeterministicExceptionAutomaton(states, RankedAlphabet(ranked), delta, priorities, "tree")
    except AutomatonError as exc:
        raise ParseError(str(exc)) from exc


def serialize(aut, as_json: bool = False) -> str:
    """Render an automaton in the text format (or the JSON mirror)."""
    if as_json:
        return json.dumps(_to_json(aut), indent=2, sort_keys=True) + "\n"
    # the Buchi shorthand shares the word-parity header
    lines = ["word-parity" if isinstance(aut, BuchiWordAutomaton) else aut.kind]
    if aut.kind.startswith("word"):
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
    if not isinstance(aut, (_Automaton, BuchiWordAutomaton)):
        raise AutomatonError(f"cannot serialize {type(aut).__name__}")
    doc: dict = {"schema_version": SCHEMA_VERSION, "kind": aut.kind, "states": list(aut.states)}
    if aut.kind.startswith("word"):
        doc["alphabet"] = list(getattr(aut.alphabet, "symbols", aut.alphabet))
    else:
        doc["ranked_alphabet"] = {s: aut.alphabet.arity(s) for s in aut.alphabet.symbols}
    if isinstance(aut, BuchiWordAutomaton):
        doc["accepting"] = sorted(aut.accepting)
    else:
        doc["priorities"] = dict(aut.priorities)
    if isinstance(aut, DeterministicExceptionAutomaton):
        doc["delta"] = {x: [sym, list(tg)] for x, (sym, tg) in sorted(aut.delta.items())}
    else:  # a tree transition's targets tuple becomes a JSON list
        doc["transitions"] = [list(t) for t in sorted(aut.transitions)]
    if hasattr(aut, "final"):
        doc["final"] = sorted(aut.final)
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


#: The fields each kind of JSON automaton reads, besides its schema version
#: and kind.
_JSON_FIELDS = {
    "word-parity": {"states", "alphabet", "transitions", "priorities", "final"},
    "word-buchi": {"states", "alphabet", "transitions", "accepting", "final"},
    "tree-parity": {"states", "ranked_alphabet", "transitions", "priorities"},
    "word-det-exc": {"states", "alphabet", "delta", "priorities"},
    "tree-det-exc": {"states", "ranked_alphabet", "delta", "priorities"},
}


def _from_json(doc: dict):
    tree = doc.get("kind") == "tree-parity"
    shapes = {**_JSON_SHAPES, "transitions": _TREE_TRANSITIONS if tree else _WORD_TRANSITIONS}
    for key, shape in shapes.items():
        if key in doc and not _has_shape(doc[key], shape):
            raise ParseError(f"bad JSON automaton: field {key!r} has the wrong shape")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _JSON_FIELDS:
        raise ParseError(f"unknown kind {kind!r}")
    extra = sorted(set(doc) - _JSON_FIELDS[kind] - {"schema_version", "kind"})
    if extra:
        raise ParseError(f"bad JSON automaton: a {kind} automaton takes no field {extra[0]!r}")
    try:
        if kind in ("word-parity", "word-buchi"):
            cls = ParityWordAutomaton if kind == "word-parity" else BuchiWordAutomaton
            return cls(
                doc["states"],
                doc["alphabet"],
                [tuple(t) for t in doc["transitions"]],
                doc["priorities" if kind == "word-parity" else "accepting"],
                doc.get("final", ()),
            )
        if kind == "tree-parity":
            return ParityTreeAutomaton(
                doc["states"],
                RankedAlphabet(doc["ranked_alphabet"]),
                [(x, sym, tuple(tg)) for x, sym, tg in doc["transitions"]],
                doc["priorities"],
            )
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


def _letters(n: int) -> list:
    if n > len(_LETTERS):
        raise ValueError(f"at most {len(_LETTERS)} letters, got {n}")
    return list(_LETTERS[:n])


def _random_word_shape(params: WordGenParams, rng: random.Random):
    """The states, letters and transitions of a random word automaton, the
    first draws of both word generators."""
    states = [f"s{i}" for i in range(params.n_states)]
    alphabet = _letters(params.n_letters)
    transitions = [
        (x, a, y)
        for x in states
        for a in alphabet
        for y in states
        if rng.random() < params.density
    ]
    return states, alphabet, transitions


def random_word_automaton(params: WordGenParams, seed) -> ParityWordAutomaton:
    """Seed-deterministic random parity word automaton within the bounds."""
    rng = _rng(seed)
    states, alphabet, transitions = _random_word_shape(params, rng)
    priorities = {x: rng.randint(1, params.two_n) for x in states}
    final = [x for x in states if rng.random() < params.final_prob]
    return ParityWordAutomaton(states, alphabet, transitions, priorities, final)


def random_buchi_automaton(params: WordGenParams, seed) -> BuchiWordAutomaton:
    rng = _rng(seed)
    states, alphabet, transitions = _random_word_shape(params, rng)
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
        alphabet = RankedAlphabet([(a, 1) for a in _letters(params.n_symbols)])
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
