import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut import analysis, lattice
from apercut.analysis import (
    PatchCatalog,
    PatchClass,
    _initial_radius,
    complexity_table,
    covering_radius_estimate,
    delone_report,
    left_interior,
    patch_at,
    patch_catalog,
    period_search,
    repetitivity_radii,
    right_interior,
    separation,
)
from apercut.cutproject import (
    Box,
    ModelSet,
    Scheme,
    generate_model_set,
    periodic_control_model_set,
)
from apercut.errors import ErosionError
from apercut.heisenberg import (
    GroupKind,
    GroupPoint,
    inv_coords,
    mul_coords,
    sym_dist_leq,
    sym_dist_sq,
)
from apercut.quadratic import QuadNum, RingSpec, RingVariant, floor_div
from apercut.lattice import NeighborIndex
from oracles import (
    ROUTES,
    bare_samples,
    brute_patch_classes,
    brute_periods,
    brute_separation,
    dense_covering,
    float_sym_gauge,
    pair_route,
    reference_return_radii,
    small_samples,
)

E1 = GroupKind.euclidean(1)
E2 = GroupKind.euclidean(2)
H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)
SCHEME_1D = Scheme(E1, RingSpec(2))
SCHEME_H1 = Scheme(H1, RingSpec(2))
FULL5 = RingSpec(5, RingVariant.FULL_INTEGERS)

STURMIAN_WINDOW = Box(((Fraction(-9, 10), Fraction(11, 10)),))


def sturmian(r=100):
    return generate_model_set(SCHEME_1D, STURMIAN_WINDOW,
                              Box(((Fraction(-r), Fraction(r)),)))


def h1_sample(r=4):
    return generate_model_set(SCHEME_H1, Box.cube(H1, Fraction(9, 10)),
                              Box.gauge_box(H1, r))


# ---------------------------------------------------------------------------
# separation, with a sort-and-scan oracle in one dimension
# ---------------------------------------------------------------------------

def test_separation_1d_matches_sort_scan_oracle():
    ms = sturmian(100)
    values = [p.coords[0] for p in ms.points]
    gaps = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    oracle_min = min(gaps)  # 1d symmetric gauge is |difference|
    result = separation(ms)
    assert result.separation_sq == oracle_min * oracle_min
    assert result.positive
    i, j = result.certificate
    assert abs(float(values[j] - values[i])) == pytest.approx(
        result.separation, rel=1e-12)
    lo, hi = result.bracket
    assert lo * lo <= result.separation_sq <= hi * hi
    assert hi - lo < Fraction(1, 10 ** 9)


def test_separation_three_gap_structure():
    ms = sturmian(100)
    values = [p.coords[0] for p in ms.points]
    gaps = {values[i + 1] - values[i] for i in range(len(values) - 1)}
    assert 1 <= len(gaps) <= 3


def test_separation_h1_certificate_is_global_min():
    ms = h1_sample(3)
    result = separation(ms)
    assert result.positive
    # brute force over all pairs using the exact boolean test at the bracket
    lo, hi = result.bracket
    below = lo * Fraction(999, 1000)
    for p, q in itertools.combinations(ms.points, 2):
        assert not sym_dist_leq(p, q, below)


def test_separation_certificate_and_bracket_contract():
    # tie-heavy sample: many pairs at the minimum sep^2 = 1
    ms = h1_sample(3)
    result = separation(ms)
    pairs = list(itertools.combinations(range(len(ms.points)), 2))
    sq = {(i, j): sym_dist_sq(ms.points[i], ms.points[j]) for i, j in pairs}
    least = min(sq.values())
    ties = sorted(pair for pair, value in sq.items() if value == least)
    assert least == 1 and len(ties) > 1
    assert result.separation_sq == least
    assert result.certificate == ties[0]
    radius = _initial_radius(ms)
    while least > radius * radius:
        radius *= 2
    assert result.bracket[1] == radius


def test_separation_far_from_origin_on_a_narrow_region():
    """Two points that differ in y alone, at x = 1000: their gauge is
    sqrt(1000), far beyond every axis width of the region."""
    points = tuple(GroupPoint(H1, tuple(QuadNum(v, 0, 2) for v in p))
                   for p in [(1000, 0, 0), (1000, 1, 0)])
    region = Box(((1000, 1001), (0, 1), (0, 1)))
    ms = ModelSet.from_points(SCHEME_H1, region, region, points, points)
    result = separation(ms)
    assert result.separation_sq == 1000
    assert result.certificate == (0, 1)


def h_point_sets(kind):
    """Up to 40 distinct points with coordinates a + b*sqrt(2), a a half
    integer, the x coordinates moved by up to 10^3 from the origin."""
    n = kind.rank
    coord = st.builds(lambda k, b: QuadNum(Fraction(k, 2), b, 2),
                      st.integers(-6, 6), st.integers(-1, 1))
    offsets = st.lists(st.integers(-1000, 1000), min_size=n, max_size=n)
    cells = st.lists(st.tuples(*[coord] * kind.coord_count), min_size=2,
                     max_size=40, unique=True)
    return st.builds(
        lambda off, pts: sorted(
            tuple(c + off[k] if k < n else c for k, c in enumerate(p))
            for p in pts),
        offsets, cells)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_separation_matches_all_pairs_oracle(data):
    kind = data.draw(st.sampled_from([H1, H2]), label="kind")
    coords = data.draw(h_point_sets(kind), label="points")
    points = [GroupPoint(kind, p) for p in coords]
    internal = [GroupPoint(kind, tuple(c.conjugate() for c in p))
                for p in coords]
    region = Box(tuple((math.floor(min(axis)), math.ceil(max(axis)))
                       for axis in zip(*coords)))
    ms = ModelSet.from_points(Scheme(kind, RingSpec(2)), region, region,
                              points, internal)
    sq = {
        (i, j): sym_dist_sq(points[i], points[j])
        for i, j in itertools.combinations(range(len(points)), 2)
    }
    least = min(sq.values())
    result = separation(ms)
    assert result.separation_sq == least
    assert result.certificate == min(k for k, v in sq.items() if v == least)


def test_separation_tiny_sets():
    ms = generate_model_set(SCHEME_1D, STURMIAN_WINDOW,
                            Box(((Fraction(0), Fraction(0)),)),
                            allow_degenerate_window=False)
    assert len(ms) == 1
    result = separation(ms)
    assert result.separation == math.inf
    assert result.certificate is None


# ---------------------------------------------------------------------------
# interior cores, against the corner-translate characterization
# ---------------------------------------------------------------------------

def corner_elements(kind, depth):
    r = Fraction(depth)
    if kind.family.value == "euclidean":
        for signs in itertools.product((-1, 1), repeat=kind.rank):
            yield tuple(s * r for s in signs)
        return
    n = kind.rank
    for signs in itertools.product((-1, 1), repeat=2 * n + 1):
        head = tuple(s * r for s in signs[:-1])
        yield head + (signs[-1] * r * r,)


def test_right_interior_matches_corner_translates():
    ms = h1_sample(3)
    depth = Fraction(1)
    mask = set(right_interior(ms, depth))
    corners = list(corner_elements(H1, depth))
    for idx, p in enumerate(ms.points):
        inside = all(
            ms.region.contains(mul_coords(H1, p.coords, u)) for u in corners
        )
        assert (idx in mask) == inside, idx


def test_left_interior_matches_corner_translates():
    ms = h1_sample(3)
    depth = Fraction(1)
    mask = set(left_interior(ms, depth))
    corners = list(corner_elements(H1, depth))
    for idx, p in enumerate(ms.points):
        inside = all(
            ms.region.contains(mul_coords(H1, u, p.coords)) for u in corners
        )
        assert (idx in mask) == inside, idx


def test_interior_euclidean_simple():
    ms = sturmian(10)
    depth = Fraction(2)
    mask = right_interior(ms, depth)
    assert mask == left_interior(ms, depth)
    for idx in mask:
        v = ms.points[idx].coords[0]
        assert -8 <= v <= 8


# ---------------------------------------------------------------------------
# neighbor index
# ---------------------------------------------------------------------------

def off_origin_h1():
    # x and y in [20, 32]: the x-column offsets c_x - X_j reach 3r/2 here
    # as anywhere, but an index sized by the region's x-span would need t
    # cells of r^2 + 32r
    return generate_model_set(SCHEME_H1, Box.cube(H1, Fraction(9, 10)),
                              Box(((20, 32), (20, 32), (-24, 24))))


def h1_on_cell_edges():
    """Integer x and y, t in halves: many points lie exactly on a sheared
    t cell boundary, and many pairs exactly at gauge 1 or 5/2."""
    triples = itertools.product(range(-2, 3), range(-2, 3),
                                [Fraction(k, 2) for k in range(-12, 13)])
    points = tuple(GroupPoint(H1, tuple(QuadNum(v, 0, 2) for v in p))
                   for p in triples)
    region = Box(((-2, 2), (-2, 2), (-6, 6)))
    return ModelSet.from_points(SCHEME_H1, region, region, points, points)


def on_sheared_edge(ms, radius):
    """How many points have t - (k + 1/2) * radius * y, for their x-cell
    key k, an exact multiple of the t cell side (1 + 3/2) * radius^2."""
    size = Fraction(5, 2) * radius * radius
    count = 0
    for x, y, t in (p.coords for p in ms.points):
        k = floor_div(x, radius)
        s = t - y * ((k + Fraction(1, 2)) * radius)
        count += floor_div(s, size) * size == s
    return count


def left_neighbours(ms, radius):
    """Every (i, j) with gauge(p_i^-1 p_j) <= radius, by the exact kernel
    over all pairs."""
    lat = ms.lattice
    n = len(lat)
    found = set()
    for a in range(0, n, 128):
        i, j = np.divmod(np.arange(a * n, min(a + 128, n) * n), n)
        near = lat.gauge_leq(lat.left_diff(i, j), radius)
        found.update(zip(i[near].tolist(), j[near].tolist()))
    return found


INDEX_SAMPLES = {
    "h1": lambda: h1_sample(3),
    "h1-off-origin": off_origin_h1,
    "h2": lambda: generate_model_set(Scheme(H2, RingSpec(2)),
                                     Box.cube(H2, Fraction(9, 10)),
                                     Box.gauge_box(H2, 3)),
    "h1-edges": h1_on_cell_edges,
}


@pytest.mark.parametrize("radius", [Fraction(1, 8), Fraction(1),
                                    Fraction(5, 2)], ids=["1/8", "1", "5/2"])
@pytest.mark.parametrize("name", list(INDEX_SAMPLES))
def test_index_candidates_complete(name, radius):
    ms = INDEX_SAMPLES[name]()
    if name == "h1-edges":
        assert on_sheared_edge(ms, radius) > 0
    index = NeighborIndex(ms, radius)
    got = {(i, j) for i, p in enumerate(ms.points)
           for j in index.candidates(p.coords)}
    expected = left_neighbours(ms, radius)
    assert len(expected) > len(ms) or radius < 1
    assert expected <= got


def test_index_pairs_match_candidates_in_any_chunking(monkeypatch):
    ms = h1_sample(3)
    index = NeighborIndex(ms, Fraction(3, 2))
    expected = sorted(
        (i, j) for i, p in enumerate(ms.points)
        for j in index.candidates(p.coords))
    for chunk in (1, 50, 1 << 18):
        monkeypatch.setattr(lattice, "PAIR_CHUNK", chunk)
        got = [pair for i, j in index.pairs()
               for pair in zip(i.tolist(), j.tolist())]
        assert sorted(got) == expected
    # chosen centers come out grouped, in the order given, never split
    centers = [40, 2, 17]
    monkeypatch.setattr(lattice, "PAIR_CHUNK", 5)
    chunks = [i.tolist() for i, _ in index.pairs(centers)]
    assert [i for chunk in chunks for i in chunk] == [
        c for c in centers for _ in index.candidates(ms.points[c].coords)]
    assert all(len(set(chunk)) == 1 for chunk in chunks)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

def test_patch_at_equals_brute_force():
    ms = h1_sample(3)
    radius = Fraction(1)
    interior = right_interior(ms, radius)
    rng = random.Random(1)
    kind = ms.scheme.kind
    for idx in rng.sample(interior, min(25, len(interior))):
        got = patch_at(ms, idx, radius)
        center = ms.points[idx]
        inv_c = inv_coords(kind, center.coords)
        brute = sorted(
            mul_coords(kind, inv_c, q.coords)
            for q in ms.points
            if sym_dist_leq(center, q, radius)
        )
        assert list(got) == brute
        ident = tuple(QuadNum(0, 0, 2) for _ in range(3))
        assert ident in got


def test_patch_at_boundary_raises():
    ms = periodic_control_model_set(SCHEME_1D, Box(((-5, 5),)))
    # the outermost point sits on the region boundary; its radius-2 patch
    # would be clipped there
    assert ms.points[-1].coords[0] == QuadNum(5, 0, 2)
    with pytest.raises(ErosionError):
        patch_at(ms, len(ms.points) - 1, Fraction(2))


def test_patch_catalog_1d_counts():
    ms = sturmian(100)
    cat = patch_catalog(ms, Fraction(2))
    assert cat.center_count > 0
    assert sum(c.multiplicity for c in cat.classes) == cat.center_count
    assert 1 <= cat.class_count <= 10
    for c in cat.classes:
        assert c.relative_coords == tuple(sorted(c.relative_coords))


def test_patch_catalog_stable_across_region_growth():
    small, large = sturmian(60), sturmian(120)
    for radius in (1, 2, 3):
        k_small = patch_catalog(small, Fraction(radius)).keys()
        k_large = patch_catalog(large, Fraction(radius)).keys()
        assert k_small == k_large


def test_periodic_control_single_class():
    ms = periodic_control_model_set(SCHEME_1D, Box(((-30, 30),)))
    for radius in (1, 2, 5):
        cat = patch_catalog(ms, Fraction(radius))
        assert cat.class_count == 1
        assert cat.classes[0].size == 2 * radius + 1


def test_complexity_table_monotone_radii():
    ms = sturmian(100)
    rows = complexity_table(ms, [1, 2, 3])
    assert [r.radius for r in rows] == [1, 2, 3]
    counts = [r.class_count for r in rows]
    assert all(c >= 1 for c in counts)
    # wider patches can only reveal more structure
    assert counts == sorted(counts)


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------

def test_covering_radius_1d_near_half_max_gap():
    ms = sturmian(60)
    values = [p.coords[0] for p in ms.points]
    max_gap = max(
        float(values[i + 1] - values[i]) for i in range(len(values) - 1))
    step = Fraction(1, 50)
    est = covering_radius_estimate(ms, step, Fraction(3))
    assert abs(est - max_gap / 2) <= float(step) + 1e-9


def test_covering_radius_validation():
    ms = sturmian(10)
    with pytest.raises(ValueError):
        covering_radius_estimate(ms, Fraction(0), Fraction(1))
    with pytest.raises(ErosionError):
        covering_radius_estimate(ms, Fraction(1, 10), Fraction(30))


def sparse_e2():
    # a window of width 1/10 leaves nine points, about 34 apart
    return generate_model_set(Scheme(E2, RingSpec(2)),
                              Box.cube(E2, Fraction(1, 20)), Box.cube(E2, 40))


def covering_samples():
    cube = Fraction(9, 10)
    return [
        (sturmian(60), Fraction(1, 50), Fraction(3)),
        (generate_model_set(Scheme(E2, RingSpec(2)), Box.cube(E2, cube),
                            Box.cube(E2, 12)), Fraction(1, 3), Fraction(1)),
        (generate_model_set(SCHEME_H1, Box.cube(H1, cube),
                            Box(((-5, 5), (-5, 5), (-14, 14)))),
         Fraction(1, 2), Fraction(1)),
        (generate_model_set(Scheme(H2, RingSpec(2)), Box.cube(H2, cube),
                            Box.gauge_box(H2, 3)), Fraction(1), Fraction(1)),
        (generate_model_set(Scheme(H1, FULL5), Box.cube(H1, cube),
                            Box(((-4, 4), (-4, 4), (-10, 10)))),
         Fraction(1, 2), Fraction(1)),
        (sparse_e2(), Fraction(1), Fraction(0)),
        (off_origin_h1(), Fraction(1, 2), Fraction(1, 2)),
    ]


@pytest.mark.parametrize(
    "ms,step,erosion", covering_samples(),
    ids=["e1", "e2", "h1", "h2", "h1-full5", "e2-sparse", "h1-off-origin"])
def test_covering_radius_equals_dense_scan(ms, step, erosion, monkeypatch):
    expected = dense_covering(ms, step, erosion)
    assert ms.grid is not None
    assert covering_radius_estimate(ms, step, erosion) == expected
    assert covering_radius_estimate(pair_route(ms), step, erosion) == expected
    # small chunks split the grid blocks and the pairs of one round
    monkeypatch.setattr(lattice, "PAIR_CHUNK", 200)
    assert covering_radius_estimate(pair_route(ms), step, erosion) == expected


def test_index_work_stays_below_region_sized_cells(monkeypatch):
    # the benchmark's H1 sample; with t cells sized r^2 + r*X by the
    # region's x-span X = 5, the index yielded 49,857 pairs to
    # `separation`, 33,605 to `complexity_table([1, 2])` and 510,212 to
    # `covering_radius_estimate(1/2, 1)`
    ms = pair_route(generate_model_set(
        SCHEME_H1, Box.cube(H1, Fraction(9, 10)),
        Box(((-5, 5), (-5, 5), (-14, 14)))))
    assert len(ms) == 833
    pairs_near = NeighborIndex.pairs_near
    yielded = [0]

    def counted(self, *args):
        for i, j in pairs_near(self, *args):
            yielded[0] += len(i)
            yield i, j

    monkeypatch.setattr(NeighborIndex, "pairs_near", counted)
    # the covering kernel takes its candidates in rank tiles, not through
    # pairs_near: count the pairs it compares
    gauge = lattice._Gauge.__call__

    def compared(self, q, t, i, j):
        yielded[0] += len(i)
        return gauge(self, q, t, i, j)

    monkeypatch.setattr(lattice._Gauge, "__call__", compared)
    for run, region_sized in [
        (lambda: separation(ms), 49_857),
        (lambda: complexity_table(ms, [1, 2]), 33_605),
        (lambda: covering_radius_estimate(ms, Fraction(1, 2), 1), 510_212),
    ]:
        yielded[0] = 0
        run()
        assert 0 < yielded[0] <= 0.65 * region_sized


def test_covering_sparse_grid_leaves_point_key_range():
    # the eroded grid of the e2-sparse case reaches |x| = 40; cells of side
    # >= 1 there lie more than one cell beyond every point, outside the key
    # range the index packs
    farthest = max(abs(c) for p in sparse_e2().float_points() for c in p)
    assert farthest + 2 < 40


def test_covering_radius_doubles_through_three_rounds(monkeypatch):
    ms = pair_route(sturmian(60))
    radii = []

    class CountedIndex(NeighborIndex):
        def __init__(self, ms, radius, *args):
            radii.append(radius)
            super().__init__(ms, radius, *args)

    monkeypatch.setattr(lattice, "NeighborIndex", CountedIndex)
    step = Fraction(1, 50)
    assert covering_radius_estimate(ms, step, Fraction(3)) == \
        dense_covering(ms, step, Fraction(3))
    # the rounds start at the power of two nearest the typical gap,
    # region width / (2 * points) for one dimension, and double
    start = round(math.log2(120 / (2 * len(ms))))
    assert start == -1
    delta = radii[0] - Fraction(2) ** start
    assert 0 < delta < Fraction(1, 10 ** 9)
    assert len(radii) >= 3
    assert radii == [Fraction(2) ** (start + k) + delta
                     for k in range(len(radii))]


def test_covering_estimate_peak_memory():
    # the benchmark's H1 sample: pair tiles of PAIR_CHUNK / 4 pairs on
    # reused buffers keep the traced peak below 3.5 MB, where whole
    # 2^16-pair chunks gathered as (P, 3) arrays need about 7 MB
    ms = pair_route(generate_model_set(
        SCHEME_H1, Box.cube(H1, Fraction(9, 10)),
        Box(((-5, 5), (-5, 5), (-14, 14)))))
    ms.lattice
    tracemalloc.start()
    try:
        covering_radius_estimate(ms, Fraction(1, 2), Fraction(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_float_gauge_error_bounds_exact_gauge(data):
    kind = data.draw(st.sampled_from([E1, E2, H1, H2]))
    scale = data.draw(st.sampled_from([1, 2 ** 6, 2 ** 19]))

    def sample_point():
        return tuple(
            QuadNum(data.draw(st.integers(-scale, scale)),
                    data.draw(st.integers(-scale // 2, scale // 2)), 2)
            for _ in range(kind.coord_count))

    grid = tuple(
        Fraction(data.draw(st.integers(-scale * 8, scale * 8)), 8)
        for _ in range(kind.coord_count))
    # the query is a rational grid point or another sample point
    query = data.draw(st.sampled_from([grid, sample_point()]))
    point = sample_point()
    # |c| <= scale and |p| + |q|*sqrt(2) < 2*scale, so coordinates and
    # their float conversions stay within 2^20
    delta = lattice._float_gauge_error(kind, 2 * scale)
    one = np.zeros(1, dtype=np.intp)
    d_f = float(lattice._Gauge(kind)(
        [np.array([float(c)]) for c in query],
        [np.array([float(c)]) for c in point], one, one)[0])
    c, p = GroupPoint(kind, query), GroupPoint(kind, point)
    assert sym_dist_leq(c, p, Fraction(d_f) + delta)
    if d_f > delta:
        assert not sym_dist_leq(c, p, Fraction(d_f) - delta)


# ---------------------------------------------------------------------------
# repetitivity
# ---------------------------------------------------------------------------

def test_repetitivity_periodic_control():
    ms = periodic_control_model_set(SCHEME_1D, Box(((-30, 30),)))
    report = repetitivity_radii(ms, Fraction(2))
    assert report.max_return_radius == pytest.approx(1.0)
    assert not report.any_lower_bound
    assert len(report.per_class) == 1


def test_repetitivity_sturmian_finite():
    ms = sturmian(100)
    report = repetitivity_radii(ms, Fraction(2))
    assert report.max_return_radius > 0
    assert math.isfinite(report.max_return_radius)
    assert sum(c.multiplicity for c in report.per_class) > 0
    for c in report.per_class:
        if c.multiplicity == 1:
            assert c.lower_bound_only


@pytest.mark.parametrize("ms,radius", [
    (h1_sample(3), Fraction(1)),
    (h1_sample(3), Fraction(2)),
    (off_origin_h1(), Fraction(1, 2)),
    (off_origin_h1(), Fraction(1)),
    (sturmian(100), Fraction(2)),
], ids=["h1-1", "h1-2", "h1-off-origin-1/2", "h1-off-origin-1", "e1"])
def test_repetitivity_radii_match_brute_force(ms, radius):
    """Each class's return radius is the max, over interior centres, of the
    float gauge to the nearest other centre of the class."""
    kind = ms.scheme.kind
    pts = [p.to_float() for p in ms.points]
    centers = right_interior(ms, radius)
    expected = []
    for cls in patch_catalog(ms, radius).classes:
        nearest = [min((float_sym_gauge(kind, pts[c], pts[m])
                        for m in cls.centers if m != c), default=math.inf)
                   for c in centers]
        finite = [v for v in nearest if v < math.inf]
        expected.append((cls.multiplicity, max(finite, default=math.inf),
                         cls.multiplicity == 1))
    report = repetitivity_radii(ms, radius)
    assert [(c.multiplicity, c.return_radius, c.lower_bound_only)
            for c in report.per_class] == expected
    assert report.max_return_radius == max(
        (r for _, r, _ in expected if r < math.inf), default=0.0)
    assert report.any_lower_bound == any(lb for _, _, lb in expected)


def _return_radii(report):
    return [(c.multiplicity, c.return_radius, c.lower_bound_only)
            for c in report.per_class]


@pytest.mark.parametrize("chunk", [1, 5, 200, lattice.PAIR_CHUNK])
def test_max_min_kernel_equals_full_scans_at_any_chunk(chunk, monkeypatch):
    cases = [(sturmian(20), Fraction(1, 10), Fraction(1)),
             (h1_sample(2), Fraction(1, 2), Fraction(0))]
    expected = [dense_covering(*case) for case in cases]
    rep_cases = [(sturmian(100), Fraction(2)), (h1_sample(3), Fraction(1))]
    rep_expected = [reference_return_radii(ms, patch_catalog(ms, radius))
                    for ms, radius in rep_cases]
    monkeypatch.setattr(lattice, "PAIR_CHUNK", chunk)
    for route in ROUTES:
        assert [covering_radius_estimate(route(ms), *rest)
                for ms, *rest in cases] == expected
        assert [_return_radii(repetitivity_radii(route(ms), radius))
                for ms, radius in rep_cases] == rep_expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_max_min_kernel_matches_full_scans_on_random_samples(data):
    ms = data.draw(bare_samples(), label="sample")
    kind = ms.scheme.kind
    step = Fraction(2 if kind.coord_count > 3 else 1)
    # small chunks send even these samples through the index rounds
    chunk = data.draw(st.sampled_from([5, 200, lattice.PAIR_CHUNK]),
                      label="chunk")
    route = data.draw(st.sampled_from(ROUTES), label="route")
    default, lattice.PAIR_CHUNK = lattice.PAIR_CHUNK, chunk
    try:
        _check_kernel(data, route(ms), step)
    finally:
        lattice.PAIR_CHUNK = default


def _check_kernel(data, ms, step):
    assert covering_radius_estimate(ms, step, Fraction(0)) == \
        dense_covering(ms, step, Fraction(0))
    # random classes over a random subset of the points as centers
    labels = data.draw(st.lists(st.integers(-1, 3), min_size=len(ms),
                                max_size=len(ms)), label="labels")
    members = {}
    for point, label in enumerate(labels):
        if label >= 0:
            members.setdefault(label, []).append(point)
    if not members:
        return
    one = Fraction(1)
    classes = tuple(PatchClass(one, ((k,),), tuple(m), ms.scheme.kind,
                               ms.scheme.d, ms.e)
                    for k, m in enumerate(members.values()))
    catalog = PatchCatalog(one, classes, sum(map(len, members.values())))
    assert _return_radii(repetitivity_radii(ms, one, catalog)) == \
        reference_return_radii(ms, catalog)


@pytest.mark.parametrize("ms", [sturmian(100), h1_sample(4)],
                         ids=["e1", "h1"])
def test_repetitivity_row_blocks_match_unblocked(ms, monkeypatch):
    ms = pair_route(ms)
    monkeypatch.setattr(lattice, "PAIR_CHUNK", 1 << 40)
    whole = repetitivity_radii(ms, Fraction(1))
    for chunk in (1, 5, 64):
        monkeypatch.setattr(lattice, "PAIR_CHUNK", chunk)
        assert repetitivity_radii(ms, Fraction(1)) == whole
    assert any(c.multiplicity > 5 for c in whole.per_class)


@pytest.mark.parametrize("ms", [sturmian(100), h1_sample(4)],
                         ids=["e1", "h1"])
def test_repetitivity_reuses_the_catalog(ms):
    radius = Fraction(1)
    cat = patch_catalog(ms, radius)
    centers = [c for cls in cat.classes for c in cls.centers]
    assert sorted(centers) == right_interior(ms, radius)
    index = NeighborIndex(ms, radius)
    for cls in cat.classes:
        assert list(cls.centers) == sorted(cls.centers)
        assert all(patch_at(ms, c, radius, index) == cls.relative_coords
                   for c in cls.centers)
    assert repetitivity_radii(ms, radius, cat) == repetitivity_radii(
        ms, radius)
    with pytest.raises(ValueError):
        repetitivity_radii(ms, Fraction(2), cat)


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

def test_period_search_sturmian_empty():
    ms = sturmian(100)
    report = period_search(ms, Fraction(5), Fraction(5))
    assert report.nontrivial_periods == ()
    assert report.candidates_tested > 0
    assert report.core_size > 0
    assert not report.periodic


def test_period_search_periodic_control_finds_all_small_periods():
    ms = periodic_control_model_set(SCHEME_1D, Box(((-30, 30),)))
    report = period_search(ms, Fraction(3), Fraction(3))
    found = {g[0] for g in report.nontrivial_periods}
    assert found == {QuadNum(k, 0, 2) for k in (-3, -2, -1, 1, 2, 3)}
    assert report.periodic


def test_period_search_validation():
    ms = sturmian(20)
    with pytest.raises(ErosionError):
        period_search(ms, Fraction(5), Fraction(2))
    with pytest.raises(ErosionError):
        period_search(ms, Fraction(25), Fraction(25))


# ---------------------------------------------------------------------------
# full ring of integers (coordinates with denominator 2), against brute force
# ---------------------------------------------------------------------------


def full_ring_samples():
    line = generate_model_set(Scheme(E1, FULL5), STURMIAN_WINDOW,
                              Box(((Fraction(-30), Fraction(30)),)))
    heis = generate_model_set(Scheme(H1, FULL5), Box.cube(H1, Fraction(9, 10)),
                              Box.gauge_box(H1, 2))
    return [line, heis]


@pytest.mark.parametrize("ms", full_ring_samples(), ids=["e1", "h1"])
def test_full_ring_separation_brute_force(ms):
    assert any(c.b.denominator == 2 for p in ms.points for c in p.coords)
    result = separation(ms)
    sq = {
        (i, j): sym_dist_sq(ms.points[i], ms.points[j])
        for i, j in itertools.combinations(range(len(ms.points)), 2)
    }
    least = min(sq.values())
    assert result.separation_sq == least
    assert result.certificate == min(k for k, v in sq.items() if v == least)


def check_patch_catalog(ms, radius):
    brute = brute_patch_classes(ms, radius)
    for route in ROUTES:
        if not brute:
            with pytest.raises(ErosionError):
                patch_catalog(route(ms), radius)
            continue
        cat = patch_catalog(route(ms), radius)
        # classes in order, each with its coordinates in order and its
        # centers
        assert [(c.relative_coords, c.centers) for c in cat.classes] == \
            sorted(brute.items())
        assert cat.center_count == sum(map(len, brute.values()))
        # the return radii of both routes equal the full scans
        assert _return_radii(repetitivity_radii(route(ms), radius, cat)) \
            == reference_return_radii(ms, cat)


def check_period_search(ms, bound):
    if not left_interior(ms, bound):
        for route in ROUTES:
            with pytest.raises(ErosionError):
                period_search(route(ms), bound, bound)
        return
    tested, survivors = brute_periods(ms, bound)
    for route in ROUTES:
        report = period_search(route(ms), bound, bound)
        assert report.candidates_tested == tested
        assert list(report.nontrivial_periods) == survivors


@settings(max_examples=150, deadline=None)
@given(ms=small_samples())
def test_separation_matches_brute_force_on_random_samples(ms):
    if len(ms) < 2:
        return
    least, pair, bracket = brute_separation(ms)
    for route in ROUTES:
        result = separation(route(ms))
        assert result.separation_sq == least
        assert result.certificate == pair
        assert result.bracket == bracket


@settings(max_examples=60, deadline=None)
@given(ms=small_samples(), step=st.sampled_from([Fraction(1, 2), 1]),
       erosion=st.sampled_from([Fraction(0), Fraction(1, 2)]))
def test_covering_matches_dense_scan_on_random_samples(ms, step, erosion):
    kind = ms.scheme.kind
    if kind.coord_count > 3:
        step = Fraction(2)
    try:
        expected = dense_covering(ms, step, erosion)
    except (ValueError, IndexError):
        return
    for route in ROUTES:
        try:
            got = covering_radius_estimate(route(ms), step, erosion)
        except ErosionError:
            return
        assert got == expected


@pytest.mark.parametrize("ms", full_ring_samples(), ids=["e1", "h1"])
def test_full_ring_patch_catalog_brute_force(ms):
    assert patch_catalog(ms, Fraction(1)).class_count > 1
    check_patch_catalog(ms, Fraction(1))


@pytest.mark.parametrize("ms", full_ring_samples(), ids=["e1", "h1"])
def test_full_ring_period_search_brute_force(ms):
    assert brute_periods(ms, Fraction(1))[0] > 0
    check_period_search(ms, Fraction(1))


RADII = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]


@settings(max_examples=150, deadline=None)
@given(ms=small_samples(), radius=st.sampled_from(RADII))
def test_patch_catalog_matches_brute_force_on_random_samples(ms, radius):
    check_patch_catalog(ms, radius)


@settings(max_examples=150, deadline=None)
@given(ms=small_samples(), bound=st.sampled_from(RADII))
def test_period_search_matches_brute_force_on_random_samples(ms, bound):
    check_period_search(ms, bound)


def test_period_search_finds_left_periods_that_are_not_right_differences():
    """In {(k, y, k*y + 10m)} the left translation by (1, 0, 0) maps
    (k, y, t) to (k + 1, y, t + y), so every (j, 0, 0) is a period. Yet
    (1, 0, 0) is never a difference p^-1 q of two points (that needs
    y = 0 mod 10), so a search over those differences misses it."""
    triples = sorted(
        (k, y, t)
        for k in range(-20, 21) for y in range(3, 10)
        for t in range(-400, 401) if (t - k * y) % 10 == 0)
    assert len(triples) == 23023
    points = tuple(GroupPoint(H1, tuple(QuadNum(v, 0, 2) for v in p))
                   for p in triples)
    region = Box(((-20, 20), (3, 9), (-400, 400)))
    ms = ModelSet.from_points(SCHEME_H1, region, region, points, points)
    ms.validate()
    report = period_search(ms, Fraction(2), Fraction(2))
    assert [tuple(int(c.a) for c in g) for g in report.nontrivial_periods] \
        == [(-2, 0, 0), (-1, 0, 0), (1, 0, 0), (2, 0, 0)]


def test_delone_report_combined():
    ms = sturmian(30)
    report = delone_report(ms, grid_step=Fraction(1, 20), erosion=Fraction(2))
    assert report.separation.positive
    assert report.covering_radius is not None
    assert report.covering_radius > 0
