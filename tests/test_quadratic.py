import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut.errors import EmptyIntervalError, FieldMismatchError
from apercut.quadratic import (
    D_BOUND,
    QuadNum,
    RingSpec,
    RingVariant,
    enumerate_ring_in_rectangle,
    floor_div,
    floor_sqrt,
    is_square_free,
    serialize_quadnum,
)

SQRT2 = QuadNum(0, 1, 2)


# ---------------------------------------------------------------------------
# independent oracle: decide sign(a + b*sqrt(d)) by bracketing sqrt(d) between
# isqrt(d * N^2)/N and (isqrt(d * N^2) + 1)/N at growing precision N
# ---------------------------------------------------------------------------

def oracle_sign(a: Fraction, b: Fraction, d: int) -> int:
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return (a > 0) - (a < 0)
    n = 10 ** 8
    for _ in range(8):
        root_lo = Fraction(math.isqrt(d * n * n), n)
        root_hi = root_lo + Fraction(1, n)
        if b > 0:
            lo, hi = a + b * root_lo, a + b * root_hi
        else:
            lo, hi = a + b * root_hi, a + b * root_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        n *= 10 ** 4
    raise AssertionError("oracle ran out of precision (value too close to zero?)")


def oracle_in_interval(a, b, d, lo, hi) -> bool:
    return oracle_sign(Fraction(a) - lo, Fraction(b), d) >= 0 and (
        oracle_sign(Fraction(a) - hi, Fraction(b), d) <= 0
    )


def oracle_enumerate(ring, phys, grid, internal):
    """Brute-force grid scan, completely independent of the library route."""
    p1, p2 = Fraction(phys[0]), Fraction(phys[1])
    i1, i2 = Fraction(internal[0]), Fraction(internal[1])
    hits = []
    if ring.variant is RingVariant.Z_SQRT_D:
        candidates = [
            (Fraction(a), Fraction(b))
            for a in range(-grid, grid + 1)
            for b in range(-grid, grid + 1)
        ]
    else:
        candidates = [
            (Fraction(p, 2), Fraction(q, 2))
            for p in range(-2 * grid, 2 * grid + 1)
            for q in range(-2 * grid, 2 * grid + 1)
            if (p - q) % 2 == 0
        ]
    for a, b in candidates:
        if oracle_in_interval(a, b, ring.d, p1, p2) and oracle_in_interval(
            a, -b, ring.d, i1, i2
        ):
            hits.append((a, b))
    return sorted(hits, key=lambda ab: (ab[0] + ab[1] * math.sqrt(ring.d)))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_known_inverse():
    x = QuadNum(1, 1, 2)
    assert x.inverse() == QuadNum(-1, 1, 2)
    assert x * x.inverse() == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        QuadNum(0, 0, 2).inverse()
    with pytest.raises(ZeroDivisionError):
        QuadNum(1, 1, 2) / QuadNum(0, 0, 5)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QuadNum(0, 1, 2) + QuadNum(0, 1, 3)
    with pytest.raises(FieldMismatchError):
        QuadNum(1, 2, 2) * QuadNum(3, 1, 5)


def test_rational_values_cross_fields():
    # a d=3 rational combines fine with sqrt(2)
    assert QuadNum(1, 0, 3) + SQRT2 == QuadNum(1, 1, 2)
    assert QuadNum(2, 0, 5) * SQRT2 == QuadNum(0, 2, 2)
    assert QuadNum(7, 0, 3) == QuadNum(7, 0, 5) == 7
    assert hash(QuadNum(7, 0, 3)) == hash(7)


def test_pow():
    x = QuadNum(1, 1, 2)
    expected = QuadNum(1, 0, 2)
    for _ in range(7):
        expected = expected * x
    assert x ** 7 == expected
    assert x ** 0 == 1
    assert x ** -3 == (x ** 3).inverse()


def test_d_validation():
    for bad in (1, 0, -2, 4, 8, 9, 12, 18):
        with pytest.raises(ValueError):
            QuadNum(1, 1, bad)
    for good in (2, 3, 5, 6, 7, 10, 11, 13):
        QuadNum(1, 1, good)
        assert is_square_free(good)


def test_d_bound():
    # 2^40 - 2 is the largest square-free d at most the bound, and the
    # square-free 2^40 + 1 is refused with the bound in the message
    assert D_BOUND == 2 ** 40
    assert QuadNum(3, 5, D_BOUND - 2).d == RingSpec(D_BOUND - 2).d
    for bad in (D_BOUND, D_BOUND - 1):  # 4 and 25 divide them
        with pytest.raises(ValueError, match="square-free"):
            QuadNum(3, 5, bad)
    message = f"at most 2\\^40 = {D_BOUND}, got {D_BOUND + 1}"
    for make in (lambda: QuadNum(3, 5, D_BOUND + 1),
                 lambda: RingSpec(D_BOUND + 1)):
        with pytest.raises(ValueError, match=message):
            make()


def test_d_checked_once_per_d():
    is_square_free.cache_clear()
    for _ in range(100):
        QuadNum(3, 5, 1000003)
        RingSpec(1000003)
        QuadNum(1, 2, 7)
        with pytest.raises(ValueError):
            QuadNum(1, 2, 12)
    assert is_square_free.cache_info().misses == 3


def test_conjugation_is_homomorphism_randomized():
    rng = random.Random(20260823)
    for _ in range(300):
        d = rng.choice([2, 3, 5])
        x = QuadNum(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9)), d)
        y = QuadNum(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                    Fraction(rng.randint(-50, 50), rng.randint(1, 9)), d)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * x.conjugate() == x.norm()


# ---------------------------------------------------------------------------
# exact sign
# ---------------------------------------------------------------------------

def test_sign_basics():
    assert QuadNum(0, 0, 2).sign() == 0
    assert QuadNum(1, 1, 2).sign() == 1
    assert QuadNum(1, -1, 2).sign() == -1
    assert QuadNum(-1, 1, 2).sign() == 1
    assert QuadNum(-1, -1, 2).sign() == -1
    assert QuadNum(3, -2, 2).sign() == 1       # 3 > 2*sqrt(2)
    assert QuadNum(-3, 2, 2).sign() == -1


def test_sign_defeats_float_precision():
    # Pell-style convergents p/q of sqrt(2): p^2 - 2 q^2 = +-1, so the
    # difference p/q - sqrt(2) is far below float resolution but has a
    # knowable exact sign.
    p, q = 1, 1
    for _ in range(30):
        p, q = p + 2 * q, p + q
    x = QuadNum(Fraction(p, q), -1, 2)
    assert abs(float(x)) < 1e-12  # the whole point: floats cannot see it
    assert x.sign() == (1 if p * p - 2 * q * q > 0 else -1)
    assert x.sign() == oracle_sign(Fraction(p, q), Fraction(-1), 2)


def test_sign_matches_oracle_randomized():
    rng = random.Random(7)
    for _ in range(500):
        d = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
        b = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
        assert QuadNum(a, b, d).sign() == oracle_sign(a, b, d)


def test_total_order():
    values = [QuadNum(1, 1, 2), QuadNum(0, 0, 2), QuadNum(2, -1, 2),
              QuadNum(-1, 2, 2), QuadNum(3, -2, 2), QuadNum(0, 1, 2)]
    ordered = sorted(values)
    floats = [float(v) for v in ordered]
    assert floats == sorted(floats)
    assert ordered[0] == QuadNum(0, 0, 2)


nonzero = st.integers(-50, 50).filter(bool)
quadnums = st.builds(QuadNum._mk, st.integers(-10**6, 10**6),
                     st.integers(-10**6, 10**6), nonzero,
                     st.sampled_from([2, 3, 5, 7]))
rationals = st.one_of(st.integers(-10**6, 10**6),
                      st.builds(Fraction, st.integers(-10**6, 10**6), nonzero))


@given(quadnums, rationals)
def test_rational_comparisons_match_coerced(x, r):
    """Comparisons with int and Fraction equal those with the QuadNum that
    _coerce makes of them, denominators of either sign included."""
    s = (x - x._coerce(r)).sign()
    assert (x < r, x <= r, x > r, x >= r) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (r > x, r >= x, r < x, r <= x) == (s < 0, s <= 0, s > 0, s >= 0)


def test_floor():
    assert math.floor(SQRT2) == 1
    assert math.floor(-SQRT2) == -2
    assert math.floor(QuadNum(3, 0, 2)) == 3
    assert math.floor(QuadNum(Fraction(1, 2), Fraction(1, 2), 5)) == 1
    assert math.ceil(SQRT2) == 2
    assert floor_div(SQRT2, Fraction(1, 2)) == 2
    assert floor_div(QuadNum(-1, -1, 2), Fraction(1, 2)) == -5


def test_floor_sqrt_exact():
    rng = random.Random(99)
    for _ in range(300):
        q = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 3))
        k = floor_sqrt(q)
        assert k * k <= q < (k + 1) * (k + 1)


# ---------------------------------------------------------------------------
# rings and membership
# ---------------------------------------------------------------------------

def test_ring_validation():
    RingSpec(2)
    RingSpec(5, RingVariant.FULL_INTEGERS)
    RingSpec(13, RingVariant.FULL_INTEGERS)
    with pytest.raises(ValueError):
        RingSpec(2, RingVariant.FULL_INTEGERS)  # 2 != 1 (mod 4)
    with pytest.raises(ValueError):
        RingSpec(3, RingVariant.FULL_INTEGERS)
    with pytest.raises(ValueError):
        RingSpec(4)
    with pytest.raises(ValueError):
        RingSpec(1)


def test_membership():
    golden = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
    assert RingSpec(5, RingVariant.FULL_INTEGERS).contains(golden)
    assert not RingSpec(5).contains(golden)
    assert RingSpec(5).contains(QuadNum(0, 1, 5))
    assert RingSpec(5, RingVariant.FULL_INTEGERS).contains(QuadNum(0, 1, 5))
    assert not RingSpec(5, RingVariant.FULL_INTEGERS).contains(
        QuadNum(Fraction(1, 2), 0, 5))
    assert not RingSpec(5).contains(QuadNum(Fraction(1, 2), Fraction(3, 2), 5))
    # half-integer parts of opposite parity are not in the full ring either
    assert not RingSpec(5, RingVariant.FULL_INTEGERS).contains(
        QuadNum(Fraction(1, 2), 1, 5))
    with pytest.raises(FieldMismatchError):
        RingSpec(5).contains(QuadNum(1, 1, 2))


def test_full_ring_closed_under_multiplication():
    ring = RingSpec(5, RingVariant.FULL_INTEGERS)
    one, omega = ring.fundamental_elements()
    assert ring.contains(omega * omega)
    assert ring.contains((one + omega) * omega - omega)


# ---------------------------------------------------------------------------
# rectangle enumeration
# ---------------------------------------------------------------------------

def test_enumerate_documented_example():
    # brute-force oracle answer for phys [0, 3], internal [-1, 1] over Z[sqrt2]:
    # 2 is excluded (conjugate 2 misses the internal window), 2+sqrt2 > 3
    got = enumerate_ring_in_rectangle(RingSpec(2), (0, 3), (-1, 1))
    assert got == [QuadNum(0, 0, 2), QuadNum(1, 0, 2), QuadNum(1, 1, 2)]
    oracle = oracle_enumerate(RingSpec(2), (0, 3), 10, (-1, 1))
    assert [(x.a, x.b) for x in got] == oracle


def test_enumerate_point_rectangle():
    got = enumerate_ring_in_rectangle(RingSpec(2), (0, 0), (0, 0))
    assert got == [QuadNum(0, 0, 2)]


def test_enumerate_empty_interval_raises():
    with pytest.raises(EmptyIntervalError):
        enumerate_ring_in_rectangle(RingSpec(2), (5, 4), (-1, 1))
    with pytest.raises(EmptyIntervalError):
        enumerate_ring_in_rectangle(RingSpec(2), (0, 1), (1, 0))


def test_enumerate_sorted_and_distinct():
    got = enumerate_ring_in_rectangle(RingSpec(2), (-10, 10), (-3, 3))
    assert all(got[i] < got[i + 1] for i in range(len(got) - 1))


def test_enumerate_against_oracle_randomized():
    rng = random.Random(20260823)
    rings = [RingSpec(2), RingSpec(3), RingSpec(5),
             RingSpec(5, RingVariant.FULL_INTEGERS)]
    for ring in rings:
        for _ in range(8):
            # endpoints within [-20, 20] keep every solution inside the
            # oracle's |a|, |b| <= 30 grid
            ends = sorted(Fraction(rng.randint(-100, 100), rng.randint(5, 9))
                          for _ in range(2))
            iends = sorted(Fraction(rng.randint(-100, 100), rng.randint(5, 9))
                           for _ in range(2))
            got = enumerate_ring_in_rectangle(ring, tuple(ends), tuple(iends))
            want = oracle_enumerate(ring, tuple(ends), 30, tuple(iends))
            assert [(x.a, x.b) for x in got] == want, (ring, ends, iends)


def test_enumerate_monotone_in_intervals():
    ring = RingSpec(2)
    small = set(enumerate_ring_in_rectangle(ring, (-5, 5), (-1, 1)))
    wider_phys = set(enumerate_ring_in_rectangle(ring, (-8, 8), (-1, 1)))
    wider_int = set(enumerate_ring_in_rectangle(ring, (-5, 5), (-2, 2)))
    assert small <= wider_phys
    assert small <= wider_int


def test_enumerate_full_ring_contains_zsqrt():
    z = enumerate_ring_in_rectangle(RingSpec(5), (-6, 6), (-6, 6))
    full = enumerate_ring_in_rectangle(
        RingSpec(5, RingVariant.FULL_INTEGERS), (-6, 6), (-6, 6))
    assert set(z) <= set(full)
    golden = QuadNum(Fraction(1, 2), Fraction(1, 2), 5)
    assert golden in set(full) and golden not in set(z)


def reference_enumerate(ring, phys, internal):
    """The earlier candidate filter, kept as the reference: every a (or p)
    and b (or q) in the ranges the two intervals allow, filtered by four
    exact QuadNum comparisons, then sorted as QuadNums."""
    p1, p2 = Fraction(phys[0]), Fraction(phys[1])
    i1, i2 = Fraction(internal[0]), Fraction(internal[1])
    d = ring.d
    a_lo, a_hi = (p1 + i1) / 2, (p2 + i2) / 2
    c_lo, c_hi = (p1 - i2) / 2, (p2 - i1) / 2
    bd_sq = max(c_lo * c_lo, c_hi * c_hi)
    out = []
    if ring.variant is RingVariant.Z_SQRT_D:
        b_abs = floor_sqrt(bd_sq / d)
        for a in range(math.ceil(a_lo), math.floor(a_hi) + 1):
            for b in range(-b_abs, b_abs + 1):
                x = QuadNum(a, b, d)
                if p1 <= x <= p2 and i1 <= x.conjugate() <= i2:
                    out.append(x)
    else:
        q_abs = floor_sqrt(4 * bd_sq / d)
        for p in range(math.ceil(2 * a_lo), math.floor(2 * a_hi) + 1):
            for q in range(-q_abs, q_abs + 1):
                if (p - q) % 2 == 0:
                    x = QuadNum(Fraction(p, 2), Fraction(q, 2), d)
                    if p1 <= x <= p2 and i1 <= x.conjugate() <= i2:
                        out.append(x)
    out.sort()
    return out


ENUM_RINGS = [RingSpec(d) for d in (2, 3, 5, 13)] + [
    RingSpec(d, RingVariant.FULL_INTEGERS) for d in (5, 13)]


@st.composite
def endpoints(draw, d):
    """Two ordered rational endpoints, each on a ring element (an integer),
    next to one (a rational approximation of a + b*sqrt(d), or an integer,
    moved by at most 10^-3), or far from any (a fraction of small
    denominator)."""
    ends = []
    for _ in range(2):
        where = draw(st.sampled_from(["on", "next", "far"]))
        a = draw(st.integers(-12, 12))
        if where == "on":
            ends.append(Fraction(a))
        elif where == "next":
            b = draw(st.integers(-6, 6))
            x = Fraction(a + b * math.sqrt(d)).limit_denominator(10 ** 9)
            nudge = Fraction(draw(st.integers(-1, 1)),
                             10 ** draw(st.integers(3, 12)))
            ends.append(x + nudge)
        else:
            ends.append(Fraction(draw(st.integers(-480, 480)),
                                 draw(st.integers(12, 37))))
    return tuple(sorted(ends))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ENUM_RINGS).flatmap(
    lambda ring: st.tuples(st.just(ring), endpoints(ring.d),
                           endpoints(ring.d))))
def test_enumerate_matches_reference(case):
    ring, phys, internal = case
    got = enumerate_ring_in_rectangle(ring, phys, internal)
    want = reference_enumerate(ring, phys, internal)
    assert got == want
    assert [(x._p, x._q, x._den) for x in got] == [
        (x._p, x._q, x._den) for x in want]


@pytest.mark.parametrize("shift", [10 ** 17, 10 ** 400],
                         ids=["collide", "overflow"])
@pytest.mark.parametrize("ring", [RingSpec(2),
                                  RingSpec(5, RingVariant.FULL_INTEGERS)],
                         ids=["zsqrt2", "full5"])
def test_enumerate_orders_values_floats_cannot_separate(ring, shift):
    # adding an integer u moves both x and its conjugate by u, so the
    # shifted rectangle holds the same elements plus u, in the same order;
    # out there floats collide (10^17) or overflow (10^400)
    near = enumerate_ring_in_rectangle(ring, (0, 10), (-10, 10))
    far = enumerate_ring_in_rectangle(ring, (shift, shift + 10),
                                      (shift - 10, shift + 10))
    assert len(near) > 50
    assert far == [x + shift for x in near]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_round_trip():
    x = QuadNum(Fraction(-3, 7), Fraction(22, 5), 5)
    parts = serialize_quadnum(x)
    assert parts == ["-3", "7", "22", "5"]
