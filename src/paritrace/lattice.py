"""Finite complete lattices, fixpoint signs, and the iteration budget.

Elements are plain hashable Python values (bitmask ints, tuples of them),
and lattices are small objects that know how to order and combine them.
The one Kleene loop that iterates over them is the nested solver in
``paritrace.hes`` (no tolerances -- everything is discrete).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Any


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
    """An enumeration cap (lattice elements or candidate words) was exceeded."""


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


def _masks_leq(a: tuple, b: tuple) -> bool:
    """The pointwise order of two equally long tuples of bitmasks: the
    order of ``FunctionLattice`` and of every level of a restricted system
    in the nested solver."""
    for x, y in zip(a, b):
        if x & ~y:
            return False
    return True


class FiniteLattice(ABC):
    """A finite complete lattice over hashable, immutable elements.

    Concrete subclasses fix an element representation and implement the
    order-theoretic primitives.
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


class PowersetLattice(FiniteLattice):
    """Subsets of a finite indexed ground set, represented as bitmask ints.

    Bit ``i`` of an element corresponds to ``ground[i]``; the subset order
    coincides with bitwise implication.  The item -> bit index is built on
    first use, since position lattices are only ever read as bitmasks; a
    ``range`` ground needs no duplicate check.
    """

    def __init__(self, ground: Any):
        distinct = isinstance(ground, range)
        ground = tuple(ground)
        if not distinct and len(set(ground)) != len(ground):
            raise ValueError("ground set has duplicate items")
        self.ground = ground
        self._index: dict | None = None
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

    def _indices(self) -> dict:
        if self._index is None:
            self._index = {item: i for i, item in enumerate(self.ground)}
        return self._index

    def index(self, item: Any) -> int:
        return self._indices()[item]

    def from_iterable(self, items) -> int:
        index = self._indices()
        mask = 0
        for item in items:
            mask |= 1 << index[item]
        return mask

    def to_set(self, mask: int) -> frozenset:
        return frozenset(g for i, g in enumerate(self.ground) if (mask >> i) & 1)

    def __repr__(self) -> str:
        return f"PowersetLattice({list(self.ground)!r})"


class FunctionLattice(FiniteLattice):
    """Total maps from a finite domain into a powerset lattice, pointwise.

    Elements are tuples of bitmasks aligned with the (fixed) domain order,
    so they stay hashable, and the order and the operations are one plain
    loop of bitwise work over the two tuples.  Any other codomain is
    rejected.  As in ``PowersetLattice``, the item -> index dict is built
    on first use: a solve reads its carriers only as tuples.
    """

    def __init__(self, domain: Any, codomain: PowersetLattice):
        if not isinstance(codomain, PowersetLattice):
            raise TypeError(f"codomain must be a PowersetLattice, got {codomain!r}")
        domain = tuple(domain)
        if len(set(domain)) != len(domain):
            raise ValueError("domain has duplicate items")
        self.domain = domain
        self.codomain = codomain
        self._index: dict | None = None
        self._bottom = (codomain.bottom,) * len(domain)
        self._top = (codomain.top,) * len(domain)

    @property
    def bottom(self) -> tuple:
        return self._bottom

    @property
    def top(self) -> tuple:
        return self._top

    def join(self, a: tuple, b: tuple) -> tuple:
        return tuple([x | y for x, y in zip(a, b)])

    def meet(self, a: tuple, b: tuple) -> tuple:
        return tuple([x & y for x, y in zip(a, b)])

    leq = staticmethod(_masks_leq)

    def size(self) -> int:
        return self.codomain.size() ** len(self.domain)

    def height(self) -> int:
        return self.codomain.height() * len(self.domain)

    def index(self, d: Any) -> int:
        if self._index is None:
            self._index = {item: i for i, item in enumerate(self.domain)}
        return self._index[d]

    def get(self, elem: tuple, d: Any) -> Any:
        return elem[self.index(d)]

    def __repr__(self) -> str:
        return f"FunctionLattice({list(self.domain)!r}, {self.codomain!r})"


MU = "mu"
NU = "nu"

