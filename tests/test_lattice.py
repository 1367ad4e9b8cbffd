"""Property tests: the exact lattice arithmetic of the neighbour index
against the QuadNum oracle.

`analysis.NeighborIndex` keeps the left differences p^-1 q of sample points
as integer numerator rows, and decides gauges and their order by integer
sign tests. The samples are `from_points` sets whose coordinates are drawn
at magnitudes up to 2^40, so every product and sign test runs on integers
well beyond 64 bits too.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from apercut import analysis
from apercut.analysis import NeighborIndex
from apercut.heisenberg import (
    inv_coords,
    mul_coords,
    sym_dist_leq,
    sym_dist_sq,
)
from apercut.quadratic import QuadNum, sign_pq
from oracles import large_samples

SETTINGS = settings(max_examples=150, deadline=None)


def covering_radius(ms):
    """A radius within which every pair of sample points lies."""
    widest = max(float(sym_dist_sq(p, q))
                 for p, q in itertools.product(ms.points, repeat=2))
    return Fraction(math.isqrt(math.ceil(widest)) + 2)


def coords_of(ms, row):
    return tuple(analysis.element_coords(ms.scheme.kind, ms.scheme.d, ms.e,
                                         [row])[0])


@SETTINGS
@given(st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 70, 2 ** 70),
       st.sampled_from([2, 3, 5, 13]), st.sampled_from([2 ** 10, 2 ** 40,
                                                        2 ** 70]))
def test_sign_matches_quadnum(u, w, d, cap):
    u, w = u % cap - cap // 2, w % cap - cap // 2
    assert [sign_pq(u, w, d), sign_pq(-u, w, d), sign_pq(u, 0, d)] == [
        QuadNum(u, w, d).sign(), QuadNum(-u, w, d).sign(), (u > 0) - (u < 0)]


@SETTINGS
@given(large_samples())
def test_differences_match_group_product(sample):
    # at a radius that holds every pair, the rows of each point p are those
    # of p^-1 q for every sample point q, in order
    ms, _ = sample
    kind = ms.scheme.kind
    index = NeighborIndex(ms, covering_radius(ms))
    for i, p in enumerate(ms.points):
        inv_p = inv_coords(kind, p.coords)
        expected = sorted((mul_coords(kind, inv_p, q.coords), j)
                          for j, q in enumerate(ms.points))
        got = index.near(ms.grid.cell_of(i))
        assert [(coords_of(ms, row), j) for row, j in got] == expected


@SETTINGS
@given(large_samples())
def test_gauge_tests_match_oracle(sample):
    # per point p, the points q within the radius, with the rows of p^-1 q
    # in order, against `QuadNum` gauges and products
    ms, radius = sample
    kind = ms.scheme.kind
    index = NeighborIndex(ms, radius)
    for i, p in enumerate(ms.points):
        inv_p = inv_coords(kind, p.coords)
        expected = sorted((mul_coords(kind, inv_p, q.coords), j)
                          for j, q in enumerate(ms.points)
                          if sym_dist_leq(p, q, radius))
        got = index.near(ms.grid.cell_of(i))
        assert [(coords_of(ms, row), j) for row, j in got] == expected


@SETTINGS
@given(large_samples())
def test_squared_gauges_match_oracle_and_order(sample):
    ms, _ = sample
    d, e = ms.scheme.d, ms.e
    index = NeighborIndex(ms, covering_radius(ms))
    for i, p in enumerate(ms.points):
        got = index.near(ms.grid.cell_of(i))
        gauges = [index.sq_gauge(row) for row, _ in got]
        oracle = [sym_dist_sq(p, ms.points[j]) for _, j in got]
        assert [QuadNum(Fraction(u, e * e), Fraction(w, e * e), d)
                for u, w in gauges] == oracle
        for (row, _), (u, w) in zip(got, gauges):
            assert not index.below(row, (u, w))
            assert index.below(row, (u + 1, w))
        # the index's order of gauges is the oracle's order
        for (row, _), x in zip(got, oracle):
            for bound, y in zip(gauges, oracle):
                if y > 0:
                    assert index.below(row, bound) == (x < y)
