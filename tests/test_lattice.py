"""Property tests: the integer-row kernel against the QuadNum oracle.

Coordinates are drawn at three magnitudes. At 2^40 every product and every
sign test leaves int64, so the Python-int path of each step runs too.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut.heisenberg import (
    GroupKind,
    GroupPoint,
    inv_coords,
    mul_coords,
    qnorm_leq,
    sym_dist_leq,
    sym_dist_sq,
)
from apercut.lattice import LIMIT, CellCodes, Lattice, Quad
from apercut.quadratic import (
    QuadNum,
    RingSpec,
    RingVariant,
    floor_div,
    numerator_rows,
)

FULL = RingVariant.FULL_INTEGERS
RINGS = (RingSpec(2), RingSpec(3), RingSpec(5, FULL), RingSpec(13, FULL))
KINDS = (GroupKind.euclidean(2), GroupKind.heisenberg(1),
         GroupKind.heisenberg(2))
MAGNITUDES = (8, 2 ** 20, 2 ** 40)

SETTINGS = settings(max_examples=150, deadline=None)


def ring_element(draw, ring, mag):
    if ring.variant is FULL:
        # (p + q*sqrt(d))/2 with p = q (mod 2)
        p = draw(st.integers(-2 * mag, 2 * mag))
        q = draw(st.integers(-2 * mag, 2 * mag) | st.just(0))
        p += (p - q) % 2
        return QuadNum(Fraction(p, 2), Fraction(q, 2), ring.d)
    a = draw(st.integers(-mag, mag))
    b = draw(st.integers(-mag, mag) | st.just(0))
    return QuadNum(a, b, ring.d)


@st.composite
def samples(draw):
    kind = draw(st.sampled_from(KINDS))
    ring = draw(st.sampled_from(RINGS))
    mag = draw(st.sampled_from(MAGNITUDES))
    count = draw(st.integers(2, 5))
    points = [
        tuple(ring_element(draw, ring, mag) for _ in range(kind.coord_count))
        for _ in range(count)
    ]
    return kind, ring.d, points


def all_pairs(count):
    i, j = np.divmod(np.arange(count * count), count)
    return i, j


def radii(points):
    """Rationals near the gauges in play, so tests land on both sides."""
    scale = max(abs(float(c)) for p in points for c in p) + 1
    return st.sampled_from([
        Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 2),
        Fraction(math.floor(scale)), Fraction(math.floor(scale ** 0.5)),
        Fraction(math.floor(2 * scale), 3),
    ])


@SETTINGS
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.sampled_from([2, 3, 5, 13]), st.sampled_from([2 ** 10, 2 ** 40,
                                                        2 ** 70]))
def test_sign_matches_quadnum(u, w, d, cap):
    u, w = u % cap - cap // 2, w % cap - cap // 2
    dtype = np.int64 if cap < LIMIT else object
    q = Quad(np.array([u, -u, u], dtype=dtype),
             np.array([w, w, 0], dtype=dtype), d)
    expected = [QuadNum(u, w, d).sign(), QuadNum(-u, w, d).sign(),
                (u > 0) - (u < 0)]
    assert q.sign().tolist() == expected


@SETTINGS
@given(samples())
def test_differences_match_group_product(sample):
    kind, d, points = sample
    lat = Lattice(kind, d, *numerator_rows(points))
    i, j = all_pairs(len(points))
    left = lat.to_coords(lat.left_diff(i, j).rows().tolist())
    right = lat.to_coords(lat.right_diff(i, j).rows().tolist())
    for a, b, g, h in zip(i.tolist(), j.tolist(), left, right):
        inv_a = inv_coords(kind, points[a])
        assert g == mul_coords(kind, inv_a, points[b])
        assert h == mul_coords(kind, points[b], inv_a)


@SETTINGS
@given(st.data())
def test_gauge_tests_match_oracle(data):
    kind, d, points = data.draw(samples())
    r = data.draw(radii(points))
    lat = Lattice(kind, d, *numerator_rows(points))
    i, j = all_pairs(len(points))
    g = lat.left_diff(i, j)
    directed = lat.gauge_leq(g, r).tolist()
    symmetric = lat.gauge_leq(g, r, symmetric=True).tolist()
    for k, (a, b) in enumerate(zip(i.tolist(), j.tolist())):
        p, q = GroupPoint(kind, points[a]), GroupPoint(kind, points[b])
        assert directed[k] == qnorm_leq(p.inverse() * q, r)
        assert symmetric[k] == sym_dist_leq(p, q, r)


@SETTINGS
@given(samples())
def test_squared_gauges_match_oracle_and_order(sample):
    kind, d, points = sample
    lat = Lattice(kind, d, *numerator_rows(points))
    i, j = all_pairs(len(points))
    sq = lat.sq_gauge(lat.left_diff(i, j))
    den = lat.e * lat.e
    exact = [QuadNum(Fraction(u, den), Fraction(w, den), d)
             for u, w in zip(sq.u.tolist(), sq.w.tolist())]
    oracle = [sym_dist_sq(GroupPoint(kind, points[a]),
                          GroupPoint(kind, points[b]))
              for a, b in zip(i.tolist(), j.tolist())]
    assert exact == oracle
    # the kernel's pairwise order is the oracle's order
    first = sq[np.zeros(len(i), dtype=np.intp)]
    order = (sq - first).sign().tolist()
    assert order == [(x > oracle[0]) - (x < oracle[0]) for x in oracle]


@SETTINGS
@given(samples(), st.data())
def test_membership_of_translates(sample, data):
    kind, d, points = sample
    lat = Lattice(kind, d, *numerator_rows(points))
    members = set(points)
    i, j = all_pairs(len(points))
    g = lat.left_diff(i, j)
    k = np.array(data.draw(st.lists(st.integers(0, len(points) - 1),
                                    min_size=len(i), max_size=len(i))))
    prod = lat.mul(g, lat.points(k))
    got = lat.contains(prod).tolist()
    coords = lat.to_coords(prod.rows().tolist())
    for x, c, a, b, m in zip(got, coords, i.tolist(), j.tolist(), k.tolist()):
        diff = mul_coords(kind, inv_coords(kind, points[a]), points[b])
        assert c == mul_coords(kind, diff, points[m])
        assert x == (c in members)


@SETTINGS
@given(samples(), st.sampled_from([Fraction(1, 16), Fraction(3, 7),
                                   Fraction(1), Fraction(5, 2),
                                   Fraction(2 ** 30 + 1, 3)]))
def test_cell_keys_match_floor_div(sample, size):
    kind, d, points = sample
    lat = Lattice(kind, d, *numerator_rows(points))
    for k in range(kind.coord_count):
        got = lat.floor_div(k, size).tolist()
        assert got == [floor_div(p[k], size) for p in points]


@SETTINGS
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1,
                max_size=40),
       st.sampled_from([3, 2 ** 40]),
       st.lists(st.tuples(*[st.integers(-6, 6)] * 3), max_size=10))
def test_cell_codes_pack_keys_and_neighbors(near, far, outside):
    # one far cell stretches the key range; at 2^40 the codes leave int64
    cell_keys = near + [(far, -far, far)]
    cells = CellCodes([np.array(axis) for axis in zip(*cell_keys)])
    assert (cells.codes.dtype == object) == (far == 2 ** 40)
    code_of = dict(zip(cell_keys, cells.codes.tolist()))
    assert len(set(code_of.values())) == len(code_of)
    lo = [min(axis) for axis in zip(*cell_keys)]
    hi = [max(axis) for axis in zip(*cell_keys)]
    offsets = list(itertools.product((-1, 0, 1), repeat=3))
    # the points' own keys, and keys at and beyond the edge of their range
    asked = list(code_of) + outside + [(far + 2, 0, -far - 5)]
    rows = cells.neighbors([np.array(axis) for axis in zip(*asked)])
    packed = {}
    for key, row in zip(asked, rows.tolist()):
        for offset, code in zip(offsets, row):
            cell = tuple(k + o for k, o in zip(key, offset))
            if all(a <= c <= b for a, c, b in zip(lo, cell, hi)):
                assert packed.setdefault(cell, code) == code
                if cell in code_of:
                    assert code_of[cell] == code
            else:
                assert code == -1  # skipped, never packed onto another cell
        assert list(cells.neighbor_codes(key)) == [c for c in row if c >= 0]
    assert len(set(packed.values())) == len(packed)
