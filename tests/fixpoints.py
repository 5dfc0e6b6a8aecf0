"""Lattice code that only the tests use: a product lattice, a plain Kleene
loop with its least/greatest fixpoints, and enumeration- and sampling-based
oracles.  The Kleene loop is independent of the nested solver in
``paritrace.hes``, so the tests can compare the two."""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Iterator

from paritrace.lattice import (
    MAX_ENUM,
    MU,
    NU,
    FiniteLattice,
    FunctionLattice,
    IterationBudgetError,
    LatticeError,
    MonotonicityError,
    PowersetLattice,
    default_iteration_budget,
)


class NoExtremalFixpointError(LatticeError):
    """Brute-force search found no unique least/greatest fixpoint."""


class ProductLattice(FiniteLattice):
    """Componentwise product of an ordered list of lattices."""

    def __init__(self, components):
        self.components = tuple(components)
        self._bottom = tuple(c.bottom for c in self.components)
        self._top = tuple(c.top for c in self.components)

    @property
    def bottom(self) -> tuple:
        return self._bottom

    @property
    def top(self) -> tuple:
        return self._top

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple(c.join(x, y) for c, x, y in zip(self.components, a, b))

    def meet(self, a: tuple, b: tuple) -> tuple:
        return tuple(c.meet(x, y) for c, x, y in zip(self.components, a, b))

    def leq(self, a: tuple, b: tuple) -> bool:
        return all(c.leq(x, y) for c, x, y in zip(self.components, a, b))

    def size(self) -> int:
        n = 1
        for c in self.components:
            n *= c.size()
        return n

    def height(self) -> int:
        return sum(c.height() for c in self.components)

    def _iter_elements(self) -> Iterator[tuple]:
        pools = [list(c._iter_elements()) for c in self.components]
        return (tuple(combo) for combo in itertools.product(*pools))

    def __repr__(self) -> str:
        return f"ProductLattice({list(self.components)!r})"


def kleene_fixpoint(
    f: Callable[[Any], Any],
    lat: FiniteLattice,
    sign: str,
    *,
    budget: int | None = None,
) -> tuple[Any, int]:
    """Iterate ``f`` to its ``sign``-extremal fixpoint; return (value, steps).

    ``steps`` counts strict updates, which for a monotone body never exceeds
    the lattice height.

    The chain direction is checked at every step: a reversal raises
    MonotonicityError, which is how non-monotone bodies surface at runtime.
    """
    if sign not in (MU, NU):
        raise ValueError(f"sign must be {MU!r} or {NU!r}, got {sign!r}")
    if budget is None:
        budget = default_iteration_budget()
    ascending = sign == MU
    x = lat.bottom if ascending else lat.top
    steps = 0
    while True:
        fx = f(x)
        if fx == x:
            return x, steps
        ok = lat.leq(x, fx) if ascending else lat.leq(fx, x)
        if not ok:
            raise MonotonicityError(
                f"{sign}-iteration stepped against the chain direction "
                f"(body is not monotone)"
            )
        steps += 1
        if steps > budget:
            raise IterationBudgetError(f"fixpoint iteration exceeded budget {budget}")
        x = fx


def kleene_lfp(f: Callable[[Any], Any], lat: FiniteLattice, *, budget: int | None = None) -> Any:
    """Least fixpoint of a monotone ``f`` by iteration from bottom."""
    value, _ = kleene_fixpoint(f, lat, MU, budget=budget)
    return value


def kleene_gfp(f: Callable[[Any], Any], lat: FiniteLattice, *, budget: int | None = None) -> Any:
    """Greatest fixpoint of a monotone ``f`` by iteration from top."""
    value, _ = kleene_fixpoint(f, lat, NU, budget=budget)
    return value


def brute_force_extremal_fixpoint(
    f: Callable[[Any], Any],
    lat: FiniteLattice,
    which: str,
    *,
    max_size: int = MAX_ENUM,
) -> Any:
    """Test oracle: enumerate all elements, filter fixpoints, pick the extremum.

    ``which`` is ``"least"`` or ``"greatest"``.  Raises if the fixpoint set is
    empty or has no unique extremum under leq -- both impossible for a monotone
    body on a finite lattice, hence signals of a caller bug.
    """
    if which not in ("least", "greatest"):
        raise ValueError(f"which must be 'least' or 'greatest', got {which!r}")
    fixpoints = [x for x in lat.elements(max_size=max_size) if f(x) == x]
    if not fixpoints:
        raise NoExtremalFixpointError("no fixpoint found (non-monotone body?)")
    if which == "least":
        cands = [x for x in fixpoints if all(lat.leq(x, y) for y in fixpoints)]
    else:
        cands = [x for x in fixpoints if all(lat.leq(y, x) for y in fixpoints)]
    if not cands:
        raise NoExtremalFixpointError(f"fixpoint set has no {which} element")
    return cands[0]


def check_monotone_on_samples(
    f: Callable[[Any], Any],
    lat: FiniteLattice,
    *,
    out: FiniteLattice | None = None,
    budget: int = 200,
    seed: int = 0,
) -> tuple[Any, Any] | None:
    """Look for a monotonicity violation of ``f``.

    Returns a counterexample pair ``(a, b)`` with ``a <= b`` but
    ``f(a) !<= f(b)``, or None if no violation was found within the budget.
    Small lattices are checked exhaustively; larger ones are sampled from
    meet-generated comparable pairs.  ``out`` is the codomain lattice when
    ``f`` is not an endofunction (equation bodies map a product of carriers
    into one of them).
    """
    out = out if out is not None else lat
    if lat.size() ** 2 <= budget:
        elems = list(lat.elements())
        pairs = ((a, b) for a in elems for b in elems if lat.leq(a, b))
    else:
        rng = random.Random(seed)
        elems = _sample_elements(lat, rng, 2 * budget)

        def _gen():
            for _ in range(budget):
                x = rng.choice(elems)
                y = rng.choice(elems)
                yield lat.meet(x, y), x

        pairs = _gen()
    for a, b in pairs:
        if not out.leq(f(a), f(b)):
            return (a, b)
    return None


def _sample_elements(lat: FiniteLattice, rng: random.Random, n: int) -> list:
    """Draw random elements without full enumeration."""
    if isinstance(lat, PowersetLattice):
        return [rng.randrange(lat.size()) for _ in range(n)]
    if isinstance(lat, FunctionLattice):
        inner = _sample_elements(lat.codomain, rng, n * max(1, len(lat.domain)))
        k = len(lat.domain)
        return [tuple(rng.choice(inner) for _ in range(k)) for _ in range(n)]
    if isinstance(lat, ProductLattice):
        pools = [_sample_elements(c, rng, n) for c in lat.components]
        return [tuple(rng.choice(p) for p in pools) for _ in range(n)]
    return list(itertools.islice(lat._iter_elements(), n)) + [lat.bottom, lat.top]
