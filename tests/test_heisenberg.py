import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut.errors import KindMismatchError
from apercut.heisenberg import (
    Family,
    GroupKind,
    GroupPoint,
    box_volume,
    identity_coords,
    inv_coords,
    mul_coords,
    qdist_leq,
    qnorm,
    qnorm_leq,
    sym_dist,
    sym_dist_leq,
    sym_dist_sq,
)
from apercut.quadratic import QuadNum

H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)
E2 = GroupKind.euclidean(2)


def hp(*coords):
    return GroupPoint(H1, tuple(coords))


def rand_h(rng, kind, span=9):
    return GroupPoint(kind, tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, 4))
        for _ in range(kind.coord_count)))


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------

def test_h1_products_by_hand():
    a, b = hp(1, 0, 0), hp(0, 1, 0)
    assert (a * b).coords == (1, 1, 1)
    assert (b * a).coords == (1, 1, 0)
    assert hp(1, 1, 1).inverse().coords == (-1, -1, 0)
    assert (hp(1, 1, 1) * hp(1, 1, 1).inverse()).coords == (0, 0, 0)


def test_h2_product_by_hand():
    # (x1,x2,y1,y2,t): cross term x1*y1' + x2*y2'
    p = GroupPoint(H2, (1, 2, 3, 4, 5))
    q = GroupPoint(H2, (6, 7, 8, 9, 10))
    # t = 5 + 10 + (1*8 + 2*9) = 41
    assert (p * q).coords == (7, 9, 11, 13, 41)
    assert (p * p.inverse()).coords == (0, 0, 0, 0, 0)


def test_euclidean_product():
    p = GroupPoint(E2, (1, 2))
    q = GroupPoint(E2, (3, -5))
    assert (p * q).coords == (4, -3)
    assert (q * p).coords == (4, -3)
    assert p.inverse().coords == (-1, -2)


def test_group_axioms_randomized():
    rng = random.Random(4)
    for kind in (H1, H2, E2):
        e = GroupPoint.identity(kind)
        for _ in range(60):
            p, q, r = (rand_h(rng, kind) for _ in range(3))
            assert ((p * q) * r).coords == (p * (q * r)).coords
            assert (p * e).coords == p.coords
            assert (e * p).coords == p.coords
            assert (p * p.inverse()).coords == e.coords
            assert (p.inverse() * p).coords == e.coords


def test_noncommutative_only_in_center():
    a, b = hp(1, 0, 0), hp(0, 1, 0)
    assert (a * b).coords != (b * a).coords
    comm = a * b * a.inverse() * b.inverse()
    assert comm.coords == (0, 0, 1)


def test_mixed_kind_raises():
    with pytest.raises(KindMismatchError):
        hp(1, 0, 0) * GroupPoint(E2, (1, 0))
    with pytest.raises(KindMismatchError):
        hp(1, 0, 0) * GroupPoint(H1, (1.0, 0.0, 0.0))
    with pytest.raises(KindMismatchError):
        GroupPoint(H1, (1.0, 0, 0))
    with pytest.raises(KindMismatchError):
        hp(1, 0, 0).dilate(0.5)


def test_exact_quadnum_coordinates():
    s = QuadNum(0, 1, 2)
    p = GroupPoint(H1, (s, QuadNum(1, 0, 2), QuadNum(0, 0, 2)))
    q = GroupPoint(H1, (QuadNum(1, 0, 2), s, QuadNum(0, 0, 2)))
    # t coordinate: 0 + 0 + sqrt2 * sqrt2 = 2
    prod = p * q
    assert prod.coords[2] == QuadNum(2, 0, 2)
    assert prod.coords[0] == QuadNum(1, 1, 2)


# ---------------------------------------------------------------------------
# dilations
# ---------------------------------------------------------------------------

def test_dilation_by_hand():
    assert hp(1, 1, 1).dilate(2).coords == (2, 2, 4)
    assert hp(3, -2, 5).dilate(Fraction(1, 2)).coords == (
        Fraction(3, 2), -1, Fraction(5, 4))
    assert GroupPoint(E2, (3, -2)).dilate(2).coords == (6, -4)


def test_dilation_is_automorphism_randomized():
    rng = random.Random(11)
    for kind in (H1, H2, E2):
        for _ in range(50):
            p, q = rand_h(rng, kind), rand_h(rng, kind)
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            left = (p * q).dilate(lam)
            right = p.dilate(lam) * q.dilate(lam)
            assert left.coords == right.coords


def test_dilation_composition():
    rng = random.Random(12)
    p = rand_h(rng, H1)
    assert p.dilate(Fraction(2)).dilate(Fraction(3)).coords == p.dilate(6).coords


# ---------------------------------------------------------------------------
# gauges and distances
# ---------------------------------------------------------------------------

def test_qnorm_leq_examples():
    assert qnorm_leq(hp(1, 1, 1), 1)
    assert not qnorm_leq(hp(1, 1, 2), 1)  # |t| = 2 > 1^2
    assert qnorm_leq(hp(1, 1, 2), Fraction(3, 2))  # 2 <= 9/4
    assert qnorm_leq(hp(0, 0, 4), 2)
    assert not qnorm_leq(hp(0, 0, 4), Fraction(199, 100))
    assert qnorm_leq(GroupPoint(E2, (1, -2)), 2)
    assert not qnorm_leq(GroupPoint(E2, (1, -2)), 1)


def test_qnorm_float_matches_exact_threshold():
    rng = random.Random(5)
    for _ in range(200):
        p = rand_h(rng, H1)
        v = qnorm(p)
        # exact test at a rational just above/below the float value
        above = Fraction(v).limit_denominator(10 ** 6) + Fraction(1, 1000)
        below = Fraction(v).limit_denominator(10 ** 6) - Fraction(1, 1000)
        assert qnorm_leq(p, above)
        if below > 0:
            assert not qnorm_leq(p, below * Fraction(998, 1000))


def test_gauge_homogeneous_under_dilation():
    rng = random.Random(6)
    for _ in range(100):
        p = rand_h(rng, H1)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 3))
        r = Fraction(rng.randint(1, 30), rng.randint(1, 5))
        assert qnorm_leq(p, r) == qnorm_leq(p.dilate(lam), lam * r)


def test_directed_gauge_asymmetry():
    g = hp(2, 3, 10)
    # g has |t| = 10 > 9 = max(|x|,|y|)^2, the inverse has |t| = |6-10| = 4
    assert not qnorm_leq(g, 3)
    assert qnorm_leq(g.inverse(), 3)
    e = GroupPoint.identity(H1)
    assert qdist_leq(e, g, 4) and qdist_leq(g, e, 3)
    assert not sym_dist_leq(e, g, 3)
    assert sym_dist_leq(e, g, Fraction(math.isqrt(10 * 10 ** 8), 10 ** 4) + 1)


def test_left_invariance_of_distance():
    rng = random.Random(8)
    for _ in range(100):
        p, q, g = (rand_h(rng, H1) for _ in range(3))
        r = Fraction(rng.randint(0, 40), rng.randint(1, 4))
        assert qdist_leq(p, q, r) == qdist_leq(g * p, g * q, r)
        assert sym_dist_leq(p, q, r) == sym_dist_leq(g * p, g * q, r)


def test_sym_dist_sq_consistent_with_threshold_tests():
    rng = random.Random(9)
    for kind in (H1, E2):
        for _ in range(150):
            p, q = rand_h(rng, kind, 6), rand_h(rng, kind, 6)
            d2 = sym_dist_sq(p, q)
            d_float = sym_dist(p, q)
            assert abs(float(d2) - d_float ** 2) < 1e-9
            # threshold agreement on both sides of sqrt(d2)
            hi = Fraction(d_float).limit_denominator(10 ** 8) + Fraction(1, 100)
            assert sym_dist_leq(p, q, hi)


def scan_sym_dist_sq(p, q):
    """The squared symmetric distance as a scan over its terms by exact
    signs, keeping the first of equal maxima."""
    def sign(v):
        return v.sign() if isinstance(v, QuadNum) else (v > 0) - (v < 0)

    if p.kind.family is Family.EUCLIDEAN:
        terms = [(a - b) * (a - b) for a, b in zip(p.coords, q.coords)]
    else:
        g1 = mul_coords(p.kind, inv_coords(p.kind, p.coords), q.coords)
        g2 = mul_coords(p.kind, inv_coords(p.kind, q.coords), p.coords)
        terms = [c * c for c in g1[:-1]]
        terms.append(g1[-1] if sign(g1[-1]) >= 0 else -g1[-1])
        terms.append(g2[-1] if sign(g2[-1]) >= 0 else -g2[-1])
    best = terms[0]
    for term in terms[1:]:
        if sign(term - best) > 0:
            best = term
    return best


# small values, so that equal terms of different types are common
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
    st.builds(QuadNum, st.integers(-3, 3), st.integers(-1, 1)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([H1, H2, E2]), st.data())
def test_sym_dist_sq_equals_the_scan(kind, data):
    p, q = (GroupPoint(kind, tuple(data.draw(SCALARS)
                                   for _ in range(kind.coord_count)))
            for _ in range(2))
    got, expected = sym_dist_sq(p, q), scan_sym_dist_sq(p, q)
    assert got == expected
    # the same term wins a tie
    assert type(got) is type(expected)


def test_volume_scaling():
    assert box_volume(H1, Fraction(1)) == 8
    assert box_volume(H1, Fraction(2)) == 8 * 2 ** 4
    assert box_volume(H2, Fraction(3)) == 2 ** 5 * 3 ** 6
    assert box_volume(E2, Fraction(5)) == 100
    # homogeneity: vol(lambda box) = lambda^growth_degree * vol(box)
    for kind in (H1, H2, E2):
        lam = Fraction(7, 2)
        assert box_volume(kind, lam) == (
            lam ** kind.growth_degree * box_volume(kind, Fraction(1)))


def test_coords_helpers():
    p = GroupPoint(H2, (1, 2, 3, 4, 5))
    assert p.x_part == (1, 2)
    assert p.y_part == (3, 4)
    assert p.t_part == 5
    assert GroupKind.heisenberg(1).coord_count == 3
    assert GroupKind.heisenberg(2).coord_count == 5
    assert GroupKind.heisenberg(1).growth_degree == 4
    assert GroupKind.euclidean(3).growth_degree == 3
    assert identity_coords(H2) == (0, 0, 0, 0, 0)
    assert mul_coords(H1, (1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert inv_coords(H1, (1, 1, 1)) == (-1, -1, 0)
