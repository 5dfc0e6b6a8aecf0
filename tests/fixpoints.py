"""Lattice code that only the tests use: a product lattice, capped
enumeration of a lattice's elements, a plain Kleene loop with its
least/greatest fixpoints, enumeration- and sampling-based oracles,
powerset singletons, and white-box access to the nested solver's
intermediate solutions.  The Kleene loop is independent of the nested
solver in ``paritrace.hes``, so the tests can compare the two."""

from __future__ import annotations

import itertools
import random
from typing import Any, Callable, Iterator, Sequence

from paritrace.hes import HierEqSystem, _system_solver
from paritrace.lattice import (
    MU,
    NU,
    FiniteLattice,
    FunctionLattice,
    IterationBudgetError,
    LatticeError,
    LatticeTooLargeError,
    MonotonicityError,
    PowersetLattice,
    default_iteration_budget,
)

#: Default cap on the number of *elements* a lattice may have before
#: exhaustive enumeration (and hence brute-force fixpoint search) refuses.
MAX_ENUM = 256


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

    def __repr__(self) -> str:
        return f"ProductLattice({list(self.components)!r})"


def elements(lat: FiniteLattice, max_size: int = MAX_ENUM) -> Iterator[Any]:
    """Exhaustively enumerate the elements of ``lat``; refuses above ``max_size``."""
    if lat.size() > max_size:
        raise LatticeTooLargeError(
            f"lattice has {lat.size()} elements, enumeration capped at {max_size}"
        )
    return _iter_elements(lat)


def _iter_elements(lat: FiniteLattice) -> Iterator[Any]:
    if isinstance(lat, PowersetLattice):
        return iter(range(lat.top + 1))
    if isinstance(lat, FunctionLattice):
        pools = [list(_iter_elements(lat.codomain))] * len(lat.domain)
    else:
        pools = [list(_iter_elements(c)) for c in lat.components]
    return (tuple(combo) for combo in itertools.product(*pools))


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
    fixpoints = [x for x in elements(lat, max_size) if f(x) == x]
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
        elems = list(elements(lat))
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
    return list(itertools.islice(_iter_elements(lat), n)) + [lat.bottom, lat.top]


def singleton(lat: PowersetLattice, item: Any) -> int:
    """The one-item subset ``{item}`` of a powerset lattice."""
    return 1 << lat.index(item)


def intermediate(hes: HierEqSystem, i: int, j: int, outer_args: Sequence[Any] = ()) -> Any:
    """White-box access to the intermediate solution of variable j at level i.

    ``i`` and ``j`` are 1-based with ``1 <= j <= i <= len(hes)``;
    ``outer_args`` supplies values for variables i+1..m, in order.
    """
    m = len(hes)
    if not (1 <= j <= i <= m):
        raise ValueError(f"need 1 <= j <= i <= {m}, got i={i}, j={j}")
    outer_args = tuple(outer_args)
    if len(outer_args) != m - i:
        raise ValueError(f"expected {m - i} outer arguments, got {len(outer_args)}")
    return _system_solver(hes).prefix(i, outer_args)[j - 1]
