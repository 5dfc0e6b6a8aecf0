"""Input operations that only the tests use.

The one-step destructor, grade shifting and concatenation of decorated
inputs, which make the datatype story of the decorated semantics
executable, plus finite unfoldings of trees and the enumeration of all
small lassos.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from paritrace.omega_input import DecoratedLassoWord, DecoratedRegularTreeRep, LassoWord


def unfold_step(xi):
    """Pop the root symbol; return ``(symbol, ((grade, child), ...))``.

    Each child is again a decorated input whose grade is its own first/root
    priority.  For words the cycle is rotated into the stem position when
    the stem runs out, so representations stay in step with the suffix.
    """
    if isinstance(xi, DecoratedLassoWord):
        if xi.stem:
            sym = xi.stem[0][0]
            rest = xi.stem[1:]
            if rest:
                child = DecoratedLassoWord(rest, xi.cycle)
            else:
                child = DecoratedLassoWord((xi.cycle[0],), xi.cycle[1:] + (xi.cycle[0],))
        else:
            sym = xi.cycle[0][0]
            child = DecoratedLassoWord((), xi.cycle[1:] + (xi.cycle[0],))
        return sym, ((child.grade, child),)
    if isinstance(xi, DecoratedRegularTreeRep):
        sym = xi.symbol(xi.root)
        kids = []
        for c in xi.children(xi.root):
            sub = type(xi).pruned(xi.nodes, c)
            kids.append((sub.grade, sub))
        return sym, tuple(kids)
    raise TypeError(f"not a decorated input: {type(xi).__name__}")


_FRESH_ROOT = "@root"


def decomp(xi):
    """Shift the grade down by one: only the first/root priority changes.

    Recurring occurrences of the first letter (a lasso with an empty stem,
    or a tree whose root lies on a cycle) keep their old priority, so the
    representation is unrolled by one step first.
    """
    if not isinstance(xi, (DecoratedLassoWord, DecoratedRegularTreeRep)):
        raise TypeError(f"not a decorated input: {type(xi).__name__}")
    if xi.grade < 2:
        raise ValueError("grade is already 1, cannot shift down")
    if isinstance(xi, DecoratedLassoWord):
        if xi.stem:
            (sym, p) = xi.stem[0]
            return DecoratedLassoWord(((sym, p - 1),) + xi.stem[1:], xi.cycle)
        (sym, p) = xi.cycle[0]
        return DecoratedLassoWord(((sym, p - 1),), xi.cycle[1:] + (xi.cycle[0],))
    (sym, p), kids = xi.nodes[xi.root]
    fresh = _FRESH_ROOT
    while fresh in xi.nodes:
        fresh += "'"
    nodes = dict(xi.nodes)
    nodes[fresh] = ((sym, p - 1), kids)
    return DecoratedRegularTreeRep.pruned(nodes, fresh)


def concat_mu(prefix: Sequence[str], tail: LassoWord) -> LassoWord:
    """Concatenate a nonempty finite word onto the front of a lasso."""
    prefix = tuple(prefix)
    if not prefix:
        raise ValueError("prefix must be nonempty")
    return type(tail)(prefix + tail.stem, tail.cycle)


def unfold_prefix(t, depth: int):
    """Finite unfolding to a nested ``(label, children)`` tuple."""
    def go(n: str, d: int):
        lab, kids = t.nodes[n]
        if d == 0:
            return (lab, "...") if kids else (lab, ())
        return (lab, tuple(go(c, d - 1) for c in kids))

    return go(t.root, depth)


def all_lassos(alphabet: Sequence[str], max_stem: int, max_cycle: int) -> Iterator[LassoWord]:
    """Every lasso with ``|stem| <= max_stem`` and ``1 <= |cycle| <= max_cycle``."""
    for ls in range(max_stem + 1):
        for stem in itertools.product(alphabet, repeat=ls):
            for lc in range(1, max_cycle + 1):
                for cycle in itertools.product(alphabet, repeat=lc):
                    yield LassoWord(stem, cycle)
