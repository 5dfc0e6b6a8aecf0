"""Finite complete lattices and Kleene fixpoint computation.

Every nested-fixpoint solve in this package bottoms out here: elements are
plain hashable Python values (bitmask ints, tuples of them), lattices are
small objects that know how to order and combine them, and fixpoints are
computed by exact Kleene iteration (no tolerances -- everything is discrete).
"""

from __future__ import annotations

import itertools
import os
import random
from abc import ABC, abstractmethod
from typing import Any, Callable, Iterator

#: Hard cap on powerset ground sets; anything bigger is outside the intended
#: desk-scale envelope of this package.
MAX_GROUND = 4096

#: Default cap on the number of *elements* a lattice may have before
#: exhaustive enumeration (and hence brute-force fixpoint search) refuses.
MAX_ENUM = 256


def default_iteration_budget() -> int:
    """Global cap on fixpoint iterations, overridable via environment.

    ``PARITRACE_ITER_BUDGET`` must be a positive integer when set; any other
    value raises IterationBudgetError.
    """
    raw = os.environ.get("PARITRACE_ITER_BUDGET")
    if not raw:
        return 1_000_000
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise IterationBudgetError(
            f"PARITRACE_ITER_BUDGET must be a positive integer, got {raw!r}"
        )
    return budget


class LatticeError(Exception):
    """Base class for lattice-level failures."""


class LatticeTooLargeError(LatticeError):
    """A size cap (ground set or enumeration) was exceeded."""


class IterationBudgetError(LatticeError):
    """Kleene iteration did not stabilise within its budget, or the budget
    itself is not a positive integer.

    On a finite lattice this signals a body that is not a function into the
    lattice, or a budget set below the lattice height.
    """


class MonotonicityError(LatticeError):
    """An iteration step moved against the chain direction.

    Kleene chains from bottom (resp. top) must be ascending (descending)
    when the body is monotone, so a reversal is a proof of non-monotonicity.
    """


class NoExtremalFixpointError(LatticeError):
    """Brute-force search found no unique least/greatest fixpoint."""


class FiniteLattice(ABC):
    """A finite complete lattice over hashable, immutable elements.

    Concrete subclasses fix an element representation and implement the
    order-theoretic primitives; everything else (fixpoints, enumeration
    checks, sampling) is generic.
    """

    @property
    @abstractmethod
    def bottom(self) -> Any: ...

    @property
    @abstractmethod
    def top(self) -> Any: ...

    @abstractmethod
    def join(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def meet(self, a: Any, b: Any) -> Any: ...

    @abstractmethod
    def leq(self, a: Any, b: Any) -> bool: ...

    @abstractmethod
    def size(self) -> int:
        """Number of elements."""

    @abstractmethod
    def height(self) -> int:
        """Length (number of strict steps) of the longest chain."""

    @abstractmethod
    def _iter_elements(self) -> Iterator[Any]: ...

    def elements(self, max_size: int = MAX_ENUM) -> Iterator[Any]:
        """Exhaustively enumerate elements; refuses above ``max_size``."""
        if self.size() > max_size:
            raise LatticeTooLargeError(
                f"lattice has {self.size()} elements, enumeration capped at {max_size}"
            )
        return self._iter_elements()


class PowersetLattice(FiniteLattice):
    """Subsets of a finite indexed ground set, represented as bitmask ints.

    Bit ``i`` of an element corresponds to ``ground[i]``; the subset order
    coincides with bitwise implication.
    """

    def __init__(self, ground: Any):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise ValueError("ground set has duplicate items")
        if len(ground) > MAX_GROUND:
            raise LatticeTooLargeError(
                f"ground set of size {len(ground)} exceeds cap {MAX_GROUND}"
            )
        self.ground = ground
        self._index = {item: i for i, item in enumerate(ground)}
        self._top = (1 << len(ground)) - 1

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self._top

    def join(self, a: int, b: int) -> int:
        return a | b

    def meet(self, a: int, b: int) -> int:
        return a & b

    def leq(self, a: int, b: int) -> bool:
        return a & ~b == 0

    def size(self) -> int:
        return 1 << len(self.ground)

    def height(self) -> int:
        return len(self.ground)

    def _iter_elements(self) -> Iterator[int]:
        return iter(range(self._top + 1))

    def index(self, item: Any) -> int:
        return self._index[item]

    def singleton(self, item: Any) -> int:
        return 1 << self._index[item]

    def from_iterable(self, items) -> int:
        mask = 0
        for item in items:
            mask |= 1 << self._index[item]
        return mask

    def to_set(self, mask: int) -> frozenset:
        return frozenset(g for i, g in enumerate(self.ground) if (mask >> i) & 1)

    def __repr__(self) -> str:
        return f"PowersetLattice({list(self.ground)!r})"


class FunctionLattice(FiniteLattice):
    """Total maps from a finite domain into a codomain lattice, pointwise.

    Elements are tuples aligned with the (fixed) domain order, so they stay
    hashable and comparisons reduce to componentwise work.
    """

    def __init__(self, domain: Any, codomain: FiniteLattice):
        domain = tuple(domain)
        if len(set(domain)) != len(domain):
            raise ValueError("domain has duplicate items")
        self.domain = domain
        self.codomain = codomain
        self._index = {d: i for i, d in enumerate(domain)}
        self._bottom = (codomain.bottom,) * len(domain)
        self._top = (codomain.top,) * len(domain)

    @property
    def bottom(self) -> tuple:
        return self._bottom

    @property
    def top(self) -> tuple:
        return self._top

    def join(self, a: tuple, b: tuple) -> tuple:
        cod = self.codomain
        return tuple(cod.join(x, y) for x, y in zip(a, b))

    def meet(self, a: tuple, b: tuple) -> tuple:
        cod = self.codomain
        return tuple(cod.meet(x, y) for x, y in zip(a, b))

    def leq(self, a: tuple, b: tuple) -> bool:
        cod = self.codomain
        return all(cod.leq(x, y) for x, y in zip(a, b))

    def size(self) -> int:
        return self.codomain.size() ** len(self.domain)

    def height(self) -> int:
        return self.codomain.height() * len(self.domain)

    def _iter_elements(self) -> Iterator[tuple]:
        pools = [list(self.codomain._iter_elements()) for _ in self.domain]
        return (tuple(combo) for combo in itertools.product(*pools))

    def index(self, d: Any) -> int:
        return self._index[d]

    def get(self, elem: tuple, d: Any) -> Any:
        return elem[self._index[d]]

    def __repr__(self) -> str:
        return f"FunctionLattice({list(self.domain)!r}, {self.codomain!r})"


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


MU = "mu"
NU = "nu"


def kleene_fixpoint(
    f: Callable[[Any], Any],
    lat: FiniteLattice,
    sign: str,
    *,
    start: Any = None,
    budget: int | None = None,
) -> tuple[Any, int]:
    """Iterate ``f`` to its ``sign``-extremal fixpoint; return (value, steps).

    ``steps`` counts strict updates, which for a monotone body never exceeds
    the lattice height.  ``start`` allows warm-starting from a point already
    known to be on the correct side of the target fixpoint (the HES solver
    uses this); callers must guarantee soundness of such a start.

    The chain direction is checked at every step: a reversal raises
    MonotonicityError, which is how non-monotone bodies surface at runtime.
    """
    if sign not in (MU, NU):
        raise ValueError(f"sign must be {MU!r} or {NU!r}, got {sign!r}")
    if budget is None:
        budget = default_iteration_budget()
    ascending = sign == MU
    x = (lat.bottom if ascending else lat.top) if start is None else start
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
