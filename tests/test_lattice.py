"""Property tests: the integer-row kernel against the QuadNum oracle.

Coordinates are drawn at three magnitudes. At 2^40 every product and every
sign test leaves int64, so the Python-int path of each step runs too.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
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
from apercut.lattice import (
    LIMIT,
    CellCodes,
    Lattice,
    Quad,
    cell_floor,
    int_array,
    sheared_cell_floor,
)
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


@pytest.mark.parametrize("values,dtype,bound", [
    ([], np.int64, 0),
    ([LIMIT - 1, 0, -(LIMIT - 1)], np.int64, LIMIT - 1),
    ([3, LIMIT], object, LIMIT),
    ([-LIMIT, 3], object, LIMIT),
    ([(1, LIMIT - 1), (-(LIMIT - 1), 2)], np.int64, LIMIT - 1),
    ([(1, 2), (LIMIT, 0)], object, LIMIT),
    ([(1, 2), (0, -LIMIT)], object, LIMIT),
    # beyond int64 itself
    ([(1, 2), (0, -(1 << 70))], object, 1 << 70),
], ids=["empty", "below", "limit", "minus-limit", "rows-below",
        "rows-limit", "rows-minus-limit", "rows-beyond-int64"])
def test_int_array_moves_to_python_ints_at_limit(values, dtype, bound):
    a, b = int_array(values)
    assert a.dtype == dtype
    assert b == bound
    assert a.tolist() == [list(v) if isinstance(v, tuple) else v
                          for v in values]


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
        got = cell_floor(lat.coord(k), lat.e, size).tolist()
        assert got == [floor_div(p[k], size) for p in points]


@SETTINGS
@given(samples().filter(lambda s: s[0].family.value == "heisenberg"),
       st.sampled_from([Fraction(1, 8), Fraction(1), Fraction(5, 2),
                        Fraction(2 ** 30 + 1, 3)]),
       st.sampled_from([Fraction(1, 3), Fraction(5, 2), Fraction(2 ** 40)]),
       st.integers(-1, 1))
def test_sheared_keys_match_quadnum(sample, width, size, offset):
    kind, d, points = sample
    n = kind.rank
    lat = Lattice(kind, d, *numerator_rows(points))
    coords = lat.numerators()
    cols = np.stack([cell_floor(coords[:, k], lat.e, width) + offset
                     for k in range(n)], axis=1)
    got = sheared_cell_floor(coords[:, n:2 * n], coords[:, 2 * n], lat.e,
                             cols, width, size).tolist()
    expected = []
    for p, col in zip(points, cols.tolist()):
        s = p[2 * n]
        for i in range(n):
            s = s - p[n + i] * ((col[i] + Fraction(1, 2)) * width)
        expected.append(floor_div(s, size))
    assert got == expected


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
    # the points' own keys, and keys at and beyond the edge of their range
    asked = list(code_of) + outside + [(far + 2, 0, -far - 5)]
    first, last = cells.neighbors([np.array(axis) for axis in zip(*asked)])
    found = cells_in_runs(first, last, [key[:2] for key in asked],
                          lambda q, offsets: asked[q][2], lo, hi)
    check_codes(found, code_of)
    for n, key in enumerate(asked):
        # one query alone gets the runs it gets among the others
        alone = cells.neighbors([np.array([k]) for k in key])
        assert [a.tolist() for a in alone] == [[first[n].tolist()],
                                               [last[n].tolist()]]


@SETTINGS
@given(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1,
                max_size=30),
       st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                          st.tuples(*[st.integers(-5, 5)] * 3)),
                min_size=1, max_size=10))
def test_cell_codes_keys_per_leading_offset(points, asked):
    # the key on the last axis depends on the offset on the first one, as
    # the sheared t key of a Heisenberg query depends on its x column
    cells = CellCodes([np.array(axis) for axis in zip(*points)])
    code_of = dict(zip(points, cells.codes.tolist()))
    lo = [min(axis) for axis in zip(*points)]
    hi = [max(axis) for axis in zip(*points)]
    first, last = cells.neighbors([np.array([a for a, _, _ in asked]),
                                   np.array([b for _, b, _ in asked]),
                                   np.array([list(t) for _, _, t in asked])])
    found = cells_in_runs(first, last, [(a, b) for a, b, _ in asked],
                          lambda q, offsets: asked[q][2][offsets[0] + 1],
                          lo, hi)
    check_codes(found, code_of)


def cells_in_runs(first, last, lead, last_key, lo, hi):
    """The cells, with their codes, that the runs of `CellCodes.neighbors`
    hold: one dict per query. lead[q] is the key of query q on the axes but
    the last, and last_key(q, offsets) its key on the last axis in the
    cells at those offsets. Checks that each run holds exactly the three
    cells around that key that lie in the points' key range [lo, hi]."""
    found = []
    for q, (row_first, row_last) in enumerate(zip(first.tolist(),
                                                  last.tolist())):
        cells = {}
        offsets = itertools.product((-1, 0, 1), repeat=len(lead[q]))
        for offs, a, b in zip(offsets, row_first, row_last):
            head = tuple(k + o for k, o in zip(lead[q], offs))
            t = last_key(q, offs)
            inside = [head + (t + o,) for o in (-1, 0, 1)
                      if all(x <= c <= y
                             for x, c, y in zip(lo, head + (t + o,), hi))]
            codes = list(range(a, b + 1))
            # cells outside the range are skipped, never packed
            assert len(codes) == len(inside)
            cells.update(zip(inside, codes))
        found.append(cells)
    return found


def check_codes(found, code_of):
    """Every cell gets one code, the code of its points if it has any, and
    distinct cells get distinct codes."""
    packed = dict(code_of)
    for cells in found:
        for cell, code in cells.items():
            assert packed.setdefault(cell, code) == code
    assert len(set(packed.values())) == len(packed)
