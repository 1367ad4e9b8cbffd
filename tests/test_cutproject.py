import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut import cutproject, quadratic
from apercut.cutproject import (
    WITNESS_FILL_BOUND,
    Box,
    ModelSet,
    Scheme,
    _axis_fill,
    check_irreducibility,
    check_window_regular,
    generate_model_set,
    periodic_control_model_set,
)
from apercut.errors import WindowError
from apercut.heisenberg import GroupKind, GroupPoint
from apercut.quadratic import (
    QuadNum,
    RingSpec,
    RingVariant,
    count_ring_in_rectangle,
    enumerate_ring_in_rectangle,
    floor_div,
)

E1 = GroupKind.euclidean(1)
E2 = GroupKind.euclidean(2)
H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)

SCHEME_1D = Scheme(E1, RingSpec(2))
SCHEME_H1 = Scheme(H1, RingSpec(2))


def interval_box(*pairs):
    return Box(tuple((Fraction(a), Fraction(b)) for a, b in pairs))


# ---------------------------------------------------------------------------
# boxes
# ---------------------------------------------------------------------------

def test_box_validation():
    with pytest.raises(WindowError):
        interval_box((1, 0))
    b = interval_box((0, 0), (-1, 1))
    assert not b.has_interior
    assert interval_box((-1, 1)).has_interior


def test_gauge_box_shapes():
    b = Box.gauge_box(H1, 3)
    assert b.intervals == ((Fraction(-3), Fraction(3)),) * 2 + (
        (Fraction(-9), Fraction(9)),)
    assert Box.gauge_box(E1, 2).intervals == ((Fraction(-2), Fraction(2)),)
    assert Box.cube(H1, 1).intervals == ((Fraction(-1), Fraction(1)),) * 3


def test_box_contains():
    b = interval_box((0, 2), (-1, 1))
    assert b.contains((QuadNum(1, 0, 2), QuadNum(0, 0, 2)))
    assert b.contains((2, 1))  # closed: endpoints count
    assert not b.contains((3, 0))


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_1d_documented_example():
    ms = generate_model_set(SCHEME_1D, interval_box((-1, 1)),
                            interval_box((0, 3)))
    values = [p.coords[0] for p in ms.points]
    assert values == [QuadNum(0, 0, 2), QuadNum(1, 0, 2), QuadNum(1, 1, 2)]
    assert [q.coords[0] for q in ms.internal_points] == [
        v.conjugate() for v in values]


def test_generate_degenerate_window():
    with pytest.raises(WindowError):
        generate_model_set(SCHEME_1D, interval_box((0, 0)),
                           interval_box((0, 0)))
    ms = generate_model_set(SCHEME_1D, interval_box((0, 0)),
                            interval_box((0, 0)),
                            allow_degenerate_window=True)
    assert [p.coords[0] for p in ms.points] == [QuadNum(0, 0, 2)]


def test_generate_wrong_arity():
    with pytest.raises(WindowError):
        generate_model_set(SCHEME_H1, interval_box((-1, 1)),
                           Box.gauge_box(H1, 2))


def test_generate_h1_is_product_of_axes():
    window = Box.cube(H1, Fraction(9, 10))
    region = Box.gauge_box(H1, 4)
    ms = generate_model_set(SCHEME_H1, window, region)
    ms.validate()
    # brute-force oracle: triple loop over 1d enumerations done by hand
    from apercut.quadratic import enumerate_ring_in_rectangle

    xs = enumerate_ring_in_rectangle(RingSpec(2), (-4, 4),
                                     (Fraction(-9, 10), Fraction(9, 10)))
    ts = enumerate_ring_in_rectangle(RingSpec(2), (-16, 16),
                                     (Fraction(-9, 10), Fraction(9, 10)))
    expected = {(x.a, x.b, y.a, y.b, t.a, t.b)
                for x in xs for y in xs for t in ts}
    got = {(p.coords[0].a, p.coords[0].b, p.coords[1].a, p.coords[1].b,
            p.coords[2].a, p.coords[2].b) for p in ms.points}
    assert got == expected
    assert len(ms) == len(xs) ** 2 * len(ts)


def test_generate_sorted_canonically():
    ms = generate_model_set(SCHEME_H1, Box.cube(H1, Fraction(9, 10)),
                            Box.gauge_box(H1, 3))
    coords = [p.coords for p in ms.points]
    assert coords == sorted(coords)


def test_lattice_closure_under_group_law():
    # products and inverses of lattice points stay lattice points
    ms = generate_model_set(SCHEME_H1, Box.cube(H1, 1),
                            Box.gauge_box(H1, 2),
                            allow_degenerate_window=False)
    rng = random.Random(3)
    ring = SCHEME_H1.ring
    pts = list(ms.points)
    for _ in range(40):
        p, q = rng.choice(pts), rng.choice(pts)
        prod = p * q
        assert all(ring.contains(c) for c in prod.coords)
        assert all(ring.contains(c) for c in p.inverse().coords)


def test_model_set_validate_catches_corruption():
    ms = generate_model_set(SCHEME_1D, interval_box((-1, 1)),
                            interval_box((0, 3)))
    pts, internal = ms.points, ms.internal_points
    assert len(pts) >= 2

    def point(a, b):
        return GroupPoint(E1, (QuadNum(a, b, 2),))

    def check(points, internal_points, message):
        with pytest.raises(ValueError, match=message):
            ModelSet.from_points(ms.scheme, ms.window, ms.region, points,
                                 internal_points).validate()

    ms.validate()
    check(pts, internal[:-1], "points and internal_points differ in length")
    check(pts, internal[::-1], "internal point mismatch")
    # 7 is its own conjugate; sqrt(2) is in the region, its conjugate not
    # in the window
    check(pts + (point(7, 0),), internal + (point(7, 0),),
          "physical point outside region")
    check(pts + (point(0, 1),), internal + (point(0, -1),),
          "internal point outside window")
    check(pts + pts[-1:], internal + internal[-1:], "duplicate point")
    check(pts[::-1], internal[::-1], "points not in canonical sorted order")


def test_generate_full_ring_denser():
    scheme_z = Scheme(E1, RingSpec(5))
    scheme_full = Scheme(E1, RingSpec(5, RingVariant.FULL_INTEGERS))
    window = interval_box((Fraction(-9, 10), Fraction(9, 10)))
    region = interval_box((-20, 20))
    sparse = generate_model_set(scheme_z, window, region)
    dense = generate_model_set(scheme_full, window, region)
    assert {p.coords for p in sparse.points} < {p.coords for p in dense.points}


def test_generate_full_ring_sample_in_z_sqrt_d_has_denominator_1():
    # on each axis the only elements with |conjugate| <= 1/4 in [0, 9/2]
    # are 0 and (4 + 2*sqrt(5))/2 = 2 + sqrt(5): both in Z[sqrt(5)]
    scheme = Scheme(E2, RingSpec(5, RingVariant.FULL_INTEGERS))
    ms = generate_model_set(scheme,
                            interval_box((Fraction(-1, 4), Fraction(1, 4)),
                                         (Fraction(-1, 4), Fraction(1, 4))),
                            interval_box((0, Fraction(9, 2)),
                                         (0, Fraction(9, 2))))
    assert ms.e == 1
    assert ms.rows == ((0, 0, 0, 0), (0, 2, 0, 1), (2, 0, 1, 0),
                       (2, 2, 1, 1))
    ms.validate()


def test_periodic_control_set():
    region = interval_box((-10, 10))
    ms = periodic_control_model_set(SCHEME_1D, region)
    ms.validate()
    assert len(ms) == 21
    assert ms.window == region
    values = [p.coords[0] for p in ms.points]
    assert values == [QuadNum(k, 0, 2) for k in range(-10, 11)]
    assert ms.internal_points == ms.points


# ---------------------------------------------------------------------------
# window regularity
# ---------------------------------------------------------------------------

def test_regularity_integer_endpoints_not_clear():
    report = check_window_regular(SCHEME_1D, interval_box((-1, 1)))
    assert report.interior_nonempty
    assert not report.boundary_clear
    touched = {w[0] for w in report.boundary_witnesses}
    assert touched == {QuadNum(-1, 0, 2), QuadNum(1, 0, 2)}
    assert not report.window_regular


def test_regularity_shifted_window_clear():
    report = check_window_regular(
        SCHEME_1D, interval_box((Fraction(-9, 10), Fraction(11, 10))))
    assert report.boundary_clear
    assert report.window_regular
    assert report.boundary_witnesses == ()


def test_regularity_witness_found_beyond_small_bound():
    # endpoint 17 is an integer beyond the witness fill bound of 10; the
    # endpoint itself is the witness
    report = check_window_regular(SCHEME_1D,
                                  interval_box((Fraction(1, 2), 17)))
    assert not report.boundary_clear
    assert report.boundary_witnesses == ((QuadNum(17, 0, 2),),)


@pytest.mark.parametrize("scheme,window,hit", [
    # (1, -4179 - 2955*sqrt(2)) has internal image (1, 0.001077...), on the
    # face w_0 = 1, though no fill value below the fill bound exists
    (Scheme(GroupKind.euclidean(2), RingSpec(2)),
     interval_box((1, Fraction(3, 2)), (Fraction(1, 1000), Fraction(2, 1000))),
     (QuadNum(1, 0, 2), QuadNum(-4179, -2955, 2))),
    (SCHEME_H1,
     interval_box((Fraction(1, 1000), Fraction(2, 1000)),
                  (Fraction(-9, 10), Fraction(9, 10)), (-1, 1)),
     (QuadNum(-4179, -2955, 2), QuadNum(0, 0, 2), QuadNum(1, 0, 2))),
], ids=["z2", "h1"])
def test_regularity_boundary_hit_without_small_fill(scheme, window, hit):
    assert window.contains(tuple(c.conjugate() for c in hit))
    report = check_window_regular(scheme, window)
    assert not report.boundary_clear
    assert not report.window_regular
    # the fill value comes from the continued fraction of sqrt(d); every
    # witness is a lattice point whose internal image lies on the boundary
    assert report.boundary_witnesses
    for witness in report.boundary_witnesses:
        conj = tuple(c.conjugate() for c in witness)
        assert window.contains(conj)
        assert any(c in iv for c, iv in zip(conj, window.intervals))


@settings(max_examples=200, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 6, 7, 13, 61]),
       variant=st.sampled_from(list(RingVariant)),
       lo=st.fractions(-5, 5, max_denominator=10 ** 6),
       digits=st.integers(0, 15))
def test_axis_fill_conjugate_in_window(d, variant, lo, digits):
    if variant is RingVariant.FULL_INTEGERS and d % 4 != 1:
        variant = RingVariant.Z_SQRT_D
    ring = RingSpec(d, variant)
    window = (lo, lo + Fraction(1, 10 ** digits))
    x = _axis_fill(ring, window)
    assert ring.contains(x)
    assert window[0] <= x.conjugate() <= window[1]


def test_axis_fill_search_grows_with_the_window_not_its_square(monkeypatch):
    # the full range [-1000, 1000] holds about 1.4 million elements with
    # conjugate in the window; the search walks about 1,414 values of v and
    # reads one element of each
    work = []

    class Counted:
        """A p-range that counts the elements read from it."""

        def __init__(self, ps):
            self.ps = ps

        def __len__(self):
            return len(self.ps)

        def __getitem__(self, k):
            work.append(1)
            return self.ps[k]

        def __iter__(self):
            for p in self.ps:
                work.append(1)
                yield p

    def counting(*args):
        for v, ps in p_ranges(*args):
            work.append(1)
            yield v, Counted(ps)
    p_ranges = quadratic._p_ranges
    monkeypatch.setattr(quadratic, "_p_ranges", counting)
    monkeypatch.setattr(cutproject, "_p_ranges", counting)
    x = _axis_fill(RingSpec(2), (Fraction(-1000), Fraction(1000)))
    assert -1000 <= x.conjugate() <= 1000
    assert 0 < len(work) <= 4 * 1000


@pytest.mark.parametrize("intervals,filled", [
    (((-100000, 100000),), []),
    (((-100000, 100000), (0, Fraction(1, 2))), [0, 1]),
    (((1, Fraction(3, 2)), (Fraction(1, 1000), Fraction(2, 1000))), [1]),
], ids=["m1", "m2-both-touch", "m2-one-touches"])
def test_regularity_builds_only_the_fills_a_witness_uses(intervals, filled,
                                                         monkeypatch):
    window = interval_box(*intervals)
    scheme = Scheme(GroupKind.euclidean(window.dim), RingSpec(2))
    expected = check_window_regular(scheme, window)
    calls = []

    def counting(ring, w):
        calls.append(window.intervals.index(w))
        return _axis_fill(ring, w)
    monkeypatch.setattr(cutproject, "_axis_fill", counting)
    assert check_window_regular(scheme, window) == expected
    # each fill a witness uses is built once
    assert sorted(calls) == filled
    assert expected.boundary_witnesses


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3, 5, 7]),
       variant=st.sampled_from(list(RingVariant)),
       lo=st.fractions(-40, 40, max_denominator=20),
       width=st.one_of(st.just(Fraction(0)),
                       st.fractions(0, 50, max_denominator=20)))
def test_axis_fill_is_least_in_full_range(d, variant, lo, width):
    if variant is RingVariant.FULL_INTEGERS and d % 4 != 1:
        variant = RingVariant.Z_SQRT_D
    ring = RingSpec(d, variant)
    window = (lo, lo + width)
    # the whole range at once: the least element there is the fill value
    bound = max(Fraction(WITNESS_FILL_BOUND), abs(window[0]), abs(window[1]))
    full = enumerate_ring_in_rectangle(ring, (-bound, bound), window)
    if full:
        assert _axis_fill(ring, window) == full[0]
    elif not width:
        assert _axis_fill(ring, window) is None


@pytest.mark.parametrize("intervals,clear", [
    # a degenerate axis that is no integer point carries no lattice value
    (((1, Fraction(3, 2)), (Fraction(1, 2), Fraction(1, 2))), True),
    (((1, Fraction(3, 2)), (2, 2)), False),
], ids=["non-integer-point", "integer-point"])
def test_regularity_degenerate_axis(intervals, clear):
    scheme = Scheme(GroupKind.euclidean(2), RingSpec(2))
    report = check_window_regular(scheme, interval_box(*intervals))
    assert report.boundary_clear is clear


def test_regularity_degenerate_interior():
    report = check_window_regular(SCHEME_1D, interval_box((0, 0)))
    assert not report.interior_nonempty
    assert not report.window_regular


def test_regularity_h1_window():
    report = check_window_regular(SCHEME_H1, Box.cube(H1, Fraction(9, 10)))
    assert report.boundary_clear
    assert report.window_regular
    report2 = check_window_regular(SCHEME_H1, Box.cube(H1, 1))
    assert not report2.boundary_clear
    # a witness is a full lattice coordinate tuple with one conjugate at +-1
    w = report2.boundary_witnesses[0]
    assert len(w) == 3
    assert any(c.conjugate() in (QuadNum(-1, 0, 2), QuadNum(1, 0, 2))
               for c in w)


# ---------------------------------------------------------------------------
# irreducibility evidence
# ---------------------------------------------------------------------------

def test_irreducibility_1d():
    report = check_irreducibility(SCHEME_1D, sample_bound=5)
    assert report.sample_size > 0
    ks = [k for k, _ in report.density_fractions]
    assert ks == [1, 2, 3, 4]
    assert all(0 <= f <= 1 for _, f in report.density_fractions)


def test_irreducibility_density_monotone_in_bound():
    small = check_irreducibility(SCHEME_1D, sample_bound=5)
    large = check_irreducibility(SCHEME_1D, sample_bound=20)
    for (k1, f1), (k2, f2) in zip(small.density_fractions,
                                  large.density_fractions):
        assert k1 == k2
        assert f2 >= f1


def test_irreducibility_density_fills_at_bound_50():
    report = check_irreducibility(SCHEME_1D, sample_bound=50)
    by_k = dict(report.density_fractions)
    assert by_k[4] == 1.0


def test_irreducibility_h1():
    report = check_irreducibility(SCHEME_H1, sample_bound=3)
    assert report.sample_size == 25875
    # fractions of the 2^(3k) cells of the unit cube hit at k = 1..4
    assert report.density_fractions == (
        (1, 1.0), (2, 1.0), (3, 200 / 512), (4, 275 / 4096))


def test_irreducibility_h1_default_bound():
    # 1,211,565 sample points, counted per axis
    report = check_irreducibility(SCHEME_H1)
    assert report.sample_size == 1211565
    assert report.density_fractions == (
        (1, 1.0), (2, 1.0), (3, 0.765625), (4, 0.31640625))


def test_irreducibility_h2_default_bound_is_bounded():
    # 1.66e9 sample points: the check never builds them
    scheme = Scheme(H2, RingSpec(2))
    start = time.perf_counter()
    report = check_irreducibility(scheme)
    assert time.perf_counter() - start < 2
    assert report.sample_size == math.prod(
        count_ring_in_rectangle(scheme.ring, iv, iv)
        for iv in Box.gauge_box(H2, 5).intervals)
    assert report.sample_size > 10 ** 9


def _irreducibility_by_product(scheme, sample_bound, density_box,
                               max_subdivision):
    """The density fractions of the whole sample, point by point."""
    kind = scheme.kind
    axes = [enumerate_ring_in_rectangle(scheme.ring, iv, iv)
            for iv in Box.gauge_box(kind, Fraction(sample_bound)).intervals]
    internal = [tuple(c.conjugate() for c in coords)
                for coords in itertools.product(*axes)]
    fractions = []
    for k in range(1, max_subdivision + 1):
        cells = 2 ** k
        hit = set()
        for coords in internal:
            if density_box.contains(coords):
                hit.add(tuple(
                    min(floor_div(c - lo, (hi - lo) / cells), cells - 1)
                    for c, (lo, hi) in zip(coords, density_box.intervals)))
        fractions.append((k, len(hit) / cells ** kind.coord_count))
    return len(internal), tuple(fractions)


@settings(max_examples=100, deadline=None)
@given(data=st.data(),
       kind=st.sampled_from([E1, E2, H1]),
       d=st.sampled_from([2, 3, 5]),
       full=st.booleans(),
       sample_bound=st.fractions(0, 3, max_denominator=2),
       max_subdivision=st.integers(0, 4))
def test_irreducibility_matches_product_of_points(data, kind, d, full,
                                                  sample_bound,
                                                  max_subdivision):
    variant = (RingVariant.FULL_INTEGERS if full and d % 4 == 1
               else RingVariant.Z_SQRT_D)
    scheme = Scheme(kind, RingSpec(d, variant))
    intervals = []
    for _ in range(kind.coord_count):
        lo = data.draw(st.fractions(-2, 1, max_denominator=4))
        width = data.draw(st.fractions(Fraction(1, 4), 3, max_denominator=4))
        intervals.append((lo, lo + width))
    density_box = Box(tuple(intervals))
    report = check_irreducibility(scheme, sample_bound, density_box,
                                  max_subdivision)
    assert (report.sample_size, report.density_fractions) == (
        _irreducibility_by_product(scheme, sample_bound, density_box,
                                   max_subdivision))
