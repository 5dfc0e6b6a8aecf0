import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixpoints import (
    NoExtremalFixpointError,
    ProductLattice,
    brute_force_extremal_fixpoint,
    check_monotone_on_samples,
    elements,
    kleene_fixpoint,
    kleene_gfp,
    kleene_lfp,
    singleton,
)

from paritrace.lattice import (
    FunctionLattice,
    IterationBudgetError,
    LatticeTooLargeError,
    MonotonicityError,
    PowersetLattice,
)

P2 = PowersetLattice((0, 1))


def bit(lat, *items):
    return lat.from_iterable(items)


class TestPowersetBasics:
    def test_order_is_bitwise_implication(self):
        assert P2.leq(0b01, 0b11)
        assert not P2.leq(0b10, 0b01)
        assert P2.bottom == 0 and P2.top == 0b11

    def test_roundtrip(self):
        mask = P2.from_iterable([1])
        assert P2.to_set(mask) == frozenset({1})

    def test_ground_cap(self):
        # position lattices have no ground cap; only enumeration is capped
        big = PowersetLattice(range(5000))
        assert big.height() == 5000 and big.top == (1 << 5000) - 1
        assert big.leq(singleton(big, 4999), big.top)
        with pytest.raises(LatticeTooLargeError):
            list(elements(big))

    def test_duplicate_ground_rejected_and_index_built_on_use(self):
        with pytest.raises(ValueError):
            PowersetLattice(("a", "a"))
        lat = PowersetLattice(("b", "a"))
        assert lat.index("a") == 1 and singleton(lat, "b") == 1
        assert lat.from_iterable("ab") == 0b11
        positions = PowersetLattice(range(3))
        assert positions.ground == (0, 1, 2) and positions.from_iterable([2]) == 0b100

    def test_enumeration_cap(self):
        big = PowersetLattice(range(12))
        with pytest.raises(LatticeTooLargeError):
            list(elements(big))
        assert len(list(elements(big, max_size=5000))) == 4096


small_masks = st.integers(min_value=0, max_value=3)


class TestLatticeLaws:
    @given(small_masks, small_masks)
    def test_join_meet_commute(self, a, b):
        assert P2.join(a, b) == P2.join(b, a)
        assert P2.meet(a, b) == P2.meet(b, a)

    @given(small_masks, small_masks, small_masks)
    def test_associativity(self, a, b, c):
        assert P2.join(P2.join(a, b), c) == P2.join(a, P2.join(b, c))
        assert P2.meet(P2.meet(a, b), c) == P2.meet(a, P2.meet(b, c))

    @given(small_masks, small_masks)
    def test_join_is_least_upper_bound(self, a, b):
        j = P2.join(a, b)
        assert P2.leq(a, j) and P2.leq(b, j)
        for u in elements(P2):
            if P2.leq(a, u) and P2.leq(b, u):
                assert P2.leq(j, u)

    @given(small_masks, small_masks)
    def test_meet_is_greatest_lower_bound(self, a, b):
        m = P2.meet(a, b)
        assert P2.leq(m, a) and P2.leq(m, b)
        for u in elements(P2):
            if P2.leq(u, a) and P2.leq(u, b):
                assert P2.leq(u, m)

    @given(small_masks)
    def test_bounds(self, a):
        assert P2.leq(P2.bottom, a) and P2.leq(a, P2.top)


class TestKleene:
    def test_lfp_identity_is_bottom(self):
        assert kleene_lfp(lambda s: s, P2) == P2.bottom

    def test_lfp_constant(self):
        assert kleene_lfp(lambda s: 0b11, P2) == 0b11

    def test_lfp_union_singleton(self):
        # frozen expected value from the enumeration oracle below
        f = lambda s: s | bit(P2, 0)
        expected = brute_force_extremal_fixpoint(f, P2, "least")
        assert expected == bit(P2, 0)
        assert kleene_lfp(f, P2) == expected

    def test_gfp_identity_is_top(self):
        assert kleene_gfp(lambda s: s, P2) == P2.top

    def test_gfp_intersect_singleton(self):
        f = lambda s: s & bit(P2, 0)
        expected = brute_force_extremal_fixpoint(f, P2, "greatest")
        assert expected == bit(P2, 0)
        assert kleene_gfp(f, P2) == expected

    def test_gfp_constant_empty(self):
        assert kleene_gfp(lambda s: 0, P2) == 0

    def test_non_monotone_detected(self):
        complement = lambda s: P2.top & ~s
        with pytest.raises(MonotonicityError):
            kleene_lfp(complement, P2)

    def test_budget(self):
        lat = PowersetLattice(range(8))
        grow = lambda s: (s << 1) | 1 if s != lat.top else lat.top
        with pytest.raises(IterationBudgetError):
            kleene_fixpoint(grow, lat, "mu", budget=2)

    def test_iteration_count_bounded_by_height(self):
        lat = PowersetLattice(range(6))
        f = lambda s: s | 1 | (s << 1) & lat.top
        _, steps = kleene_fixpoint(f, lat, "mu")
        assert steps <= lat.height()


class TestBruteForce:
    def test_identity_extremes(self):
        assert brute_force_extremal_fixpoint(lambda s: s, P2, "least") == P2.bottom
        assert brute_force_extremal_fixpoint(lambda s: s, P2, "greatest") == P2.top

    def test_no_unique_extremum(self):
        # swap is an order-automorphism without least/greatest fixpoint below top
        swap = {0b00: 0b11, 0b11: 0b00, 0b01: 0b01, 0b10: 0b10}
        with pytest.raises(NoExtremalFixpointError):
            brute_force_extremal_fixpoint(lambda s: swap[s], P2, "least")

    def test_size_cap(self):
        big = PowersetLattice(range(12))
        with pytest.raises(LatticeTooLargeError):
            brute_force_extremal_fixpoint(lambda s: s, big, "least")


class TestMonotoneChecker:
    def test_identity_clean(self):
        assert check_monotone_on_samples(lambda s: s, P2) is None

    def test_complement_counterexample(self):
        p1 = PowersetLattice((0,))
        ce = check_monotone_on_samples(lambda s: p1.top & ~s, p1)
        assert ce == (0, 1)

    def test_union_clean_exhaustive(self):
        assert check_monotone_on_samples(lambda s: s | 1, P2) is None


def random_monotone_function(lat: PowersetLattice, rng: random.Random):
    """f(S) = base | union of per-singleton images: monotone by construction."""
    n = len(lat.ground)
    base = rng.randrange(lat.size())
    images = [rng.randrange(lat.size()) for _ in range(n)]

    def f(s):
        out = base
        for i in range(n):
            if (s >> i) & 1:
                out |= images[i]
        return out

    return f


class TestFixpointProperties:
    def test_kleene_matches_brute_force(self):
        rng = random.Random(0)
        lat = PowersetLattice(range(4))
        for _ in range(100):
            f = random_monotone_function(lat, rng)
            assert kleene_lfp(f, lat) == brute_force_extremal_fixpoint(f, lat, "least")
            assert kleene_gfp(f, lat) == brute_force_extremal_fixpoint(f, lat, "greatest")

    def test_lfp_below_gfp(self):
        rng = random.Random(1)
        lat = PowersetLattice(range(5))
        for _ in range(100):
            f = random_monotone_function(lat, rng)
            assert lat.leq(kleene_lfp(f, lat), kleene_gfp(f, lat))


class TestCompositeLattices:
    def test_function_lattice_pointwise(self):
        fl = FunctionLattice(("a", "b"), P2)
        x = (0b01, 0b10)
        y = (0b11, 0b00)
        assert fl.join(x, y) == (0b11, 0b10)
        assert fl.meet(x, y) == (0b01, 0b00)
        assert fl.leq(x, fl.join(x, y))
        assert not fl.leq(x, y)
        assert fl.height() == 2 * P2.height()
        assert fl.size() == 16

    def test_function_lattice_empty_domain_is_one_point(self):
        fl = FunctionLattice((), P2)
        assert fl.bottom == fl.top == ()
        assert fl.size() == 1 and fl.height() == 0

    def test_product_lattice(self):
        pl = ProductLattice((P2, PowersetLattice((0,))))
        assert pl.bottom == (0, 0)
        assert pl.top == (0b11, 0b1)
        assert pl.join((0b01, 0), (0b10, 1)) == (0b11, 1)
        assert pl.height() == 3
        assert len(list(elements(pl))) == 8

    @settings(max_examples=30)
    @given(st.tuples(small_masks, small_masks), st.tuples(small_masks, small_masks))
    def test_product_componentwise_agrees(self, a, b):
        pl = ProductLattice((P2, P2))
        assert pl.leq(a, b) == (P2.leq(a[0], b[0]) and P2.leq(a[1], b[1]))
