"""Engine routes that only the tests use.

``make_phi_body`` builds one equation body from explicit slots, for tests
that hand-write a system; the two membership functions are the engine's
finite-trace and run-existence questions on one input.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

from paritrace.omega_input import LassoWord
from paritrace.trace import (
    _TICK,
    AlphabetMismatchError,
    _compact_verdict,
    _finite_trace_system,
    _flat_shift,
    _holds,
    _phi_body,
    _require_state,
    _solve,
)


def make_phi_body(
    groups: Sequence[Sequence[tuple[Sequence[tuple[int, int]], int]]],
    preds: Sequence[tuple[tuple, tuple]],
    *,
    widths: Sequence[int],
) -> Callable[[tuple], tuple]:
    """The body of ``trace._phi_body`` over explicit slots.

    ``groups[x]`` lists ``(slots, mask)`` pairs, where ``slots[i] =
    (equation_index, domain_index)`` is the variable that must hold at
    child slot ``i``; ``widths[k]`` is the number of domain items of
    equation ``k``.  A slot outside ``widths``, or a child slot that no
    position has, raises ``ValueError``.
    """
    slot_of = {}
    for row in groups:
        for slots, _ in row:
            for i, (k, yi) in enumerate(slots):
                if not (0 <= k < len(widths)):
                    raise ValueError(f"slot {(k, yi)}: equation index out of range")
                if not (0 <= yi < widths[k]):
                    raise ValueError(f"slot {(k, yi)}: state index out of range")
                if i >= len(preds):
                    raise ValueError(f"slot {(k, yi)}: no position has a child slot {i}")
                slot_of[k, yi] = (k, yi)
    return _phi_body(groups, slot_of, preds, _flat_shift(preds[0]) if preds else None)


def finite_trace_membership(aut, x: str, word) -> bool:
    """Does some run over the finite word end with the termination flag?

    The generator is the word followed by a nullary end position.
    """
    _require_state(aut, x)
    word = tuple(word)
    missing = set(word) - set(aut.alphabet)
    if missing:
        raise AlphabetMismatchError(f"letters not in automaton alphabet: {sorted(missing)}")
    children = tuple((p + 1,) for p in range(len(word))) + ((),)
    system = _finite_trace_system(aut, word + (_TICK,), children)
    return _holds(system, _solve(system)[0], x)


def infinitary_trace_membership(aut, x: str, w: LassoWord) -> bool:
    """Does any infinite run over the lasso exist from x (acceptance ignored)?

    Parity membership of the copy of ``aut`` with every state at priority
    2, in which every infinite run is accepting.  The copy shares the
    already validated states and transitions instead of building them again.
    """
    _require_state(aut, x)
    every_run = copy.copy(aut)
    every_run.priorities, every_run.two_n = dict.fromkeys(aut.states, 2), 2
    return _compact_verdict(every_run, x, w, False).value
