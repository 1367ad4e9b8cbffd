"""Property tests: the model-set row predicates against the QuadNum oracle.

A `ModelSet` holds each point as integer numerators over one denominator e
(1 for Z[sqrt(d)], 2 for the full ring). Box containment, the conjugate's
window test, the order of adjacent rows and the float conversion are decided
on those integers; each must agree with the same question asked of QuadNum
values. Numerators are drawn at three magnitudes: small, past 2^31, and past
2^64.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut.cutproject import (
    Box,
    ModelSet,
    Scheme,
    _in_interval,
    generate_model_set,
)
from apercut.heisenberg import GroupKind
from apercut.quadratic import QuadNum, RingSpec, RingVariant
from apercut.quadratic import row_order as _row_order

FULL = RingVariant.FULL_INTEGERS
# (ring, e): the sample denominator each ring's elements share
RINGS = ((RingSpec(2), 1), (RingSpec(3), 1), (RingSpec(5, FULL), 2),
         (RingSpec(13, FULL), 2))
MAGNITUDES = (8, 2 ** 33, 4 * (1 << 62))

SETTINGS = settings(max_examples=200, deadline=None)


def numerator_pair(draw, e, mag):
    """(u, w) of a ring element (u + w*sqrt(d))/e."""
    u = draw(st.integers(-mag, mag))
    w = draw(st.integers(-mag, mag) | st.just(0))
    if e == 2:
        u += (u - w) % 2  # the full ring needs u = w (mod 2)
    return u, w


def value(u, w, e, d):
    return QuadNum._mk(u, w, e, d)


@st.composite
def ring_values(draw):
    ring, e = draw(st.sampled_from(RINGS))
    mag = draw(st.sampled_from(MAGNITUDES))
    return ring.d, e, numerator_pair(draw, e, mag)


def near(draw, x: QuadNum) -> Fraction:
    """A rational close to x, so the sign tests meet small differences."""
    offset = draw(st.fractions(-2, 2, max_denominator=10 ** 6))
    return math.floor(x) + offset


@SETTINGS
@given(ring_values(), st.data())
def test_box_and_window_tests_match_quadnum(case, data):
    d, e, (u, w) = case
    x = value(u, w, e, d)
    for target in (x, x.conjugate()):
        lo = near(data.draw, target)
        hi = lo + data.draw(st.fractions(0, 3, max_denominator=10 ** 6))
        sign = 1 if target is x else -1
        assert _in_interval(u, sign * w, e, d, (lo, hi)) == (
            lo <= target <= hi)


@st.composite
def row_pairs(draw):
    """Two rows that agree on a drawn prefix of coordinates and may agree
    everywhere, so every position of the first difference occurs."""
    ring, e = draw(st.sampled_from(RINGS))
    mag = draw(st.sampled_from(MAGNITUDES))
    c = draw(st.sampled_from((1, 3, 5)))
    first = [numerator_pair(draw, e, mag) for _ in range(c)]
    shared = draw(st.integers(0, c))
    second = first[:shared] + [
        numerator_pair(draw, e, mag) if draw(st.booleans()) else p
        for p in first[shared:]]

    def row(pairs):
        return tuple(u for u, _ in pairs) + tuple(w for _, w in pairs)
    return ring.d, e, c, row(first), row(second)


@SETTINGS
@given(row_pairs())
def test_row_order_matches_quadnum_tuples(case):
    d, e, c, r, s = case

    def coords(row):
        return tuple(value(row[k], row[c + k], e, d) for k in range(c))
    a, b = coords(r), coords(s)
    assert _row_order(r, s, c, d) == (b > a) - (b < a)


@SETTINGS
@given(st.data())
def test_float_conversion_matches_quadnum_bit_for_bit(data):
    ring, e = data.draw(st.sampled_from(RINGS))
    c = data.draw(st.sampled_from((1, 3)))
    mags = [data.draw(st.sampled_from(MAGNITUDES)) for _ in range(c)]
    rows = [
        tuple(u for u, _ in pairs) + tuple(w for _, w in pairs)
        for pairs in ([numerator_pair(data.draw, e, m) for m in mags]
                      for _ in range(data.draw(st.integers(1, 4))))
    ]
    d = ring.d
    expected = [tuple(float(value(r[k], r[c + k], e, d)) for k in range(c))
                for r in rows]
    box = Box(((0, 1),) * c)
    ms = ModelSet(Scheme(GroupKind.euclidean(c), ring), box, box,
                  tuple(rows), e)
    assert ms.float_points() == expected


@pytest.mark.parametrize("ring", [RingSpec(2), RingSpec(5, FULL)],
                         ids=["zsqrt2", "full5"])
def test_views_match_rows(ring):
    kind = GroupKind.heisenberg(1)
    ms = generate_model_set(Scheme(kind, ring),
                            Box.cube(kind, Fraction(9, 10)),
                            Box.gauge_box(kind, 3))
    assert ms.e == (2 if ring.variant is FULL else 1)
    assert ms.float_points() == [p.to_float() for p in ms.points]
    assert [q.coords for q in ms.internal_points] == [
        tuple(c.conjugate() for c in p.coords) for p in ms.points]
    rebuilt = ModelSet.from_points(ms.scheme, ms.window, ms.region,
                                   ms.points, ms.internal_points)
    assert rebuilt == ms
