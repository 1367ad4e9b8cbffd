"""Brute-force oracles for the analysis kernels, and the small samples they
run on.

Each oracle answers one analysis question by the definition, with
`QuadNum` products and gauges or float full scans over every pair, so it
stays independent of the axis kernels and the neighbour index. `ROUTES`
runs an analysis on a sample as it comes (the axis kernels, for a product
of axes) and as a set that is no product (`pair_route`): the exact phases
on the cells its grid lists as members, through `analysis.NeighborIndex`,
and the float estimates by the plain row scan of `analysis`. The samples are
small (at most about 60 points), which keeps the O(N^2) oracles fast:
cut-and-project samples with random rational box windows; bare
`ModelSet.from_points` sets, which reach sparse cases that cut-and-project
samples avoid; and products of progressions with irrational steps, whose
periods are irrational.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from apercut.analysis import _initial_radius, left_interior, right_interior
from apercut.cutproject import (
    Box,
    ModelSet,
    Scheme,
    generate_model_set,
    model_set_size,
)
from apercut.heisenberg import (
    Family,
    GroupKind,
    GroupPoint,
    inv_coords,
    mul_coords,
    qnorm_leq,
    sym_dist_leq,
    sym_dist_sq,
)
from apercut.quadratic import QuadNum, RingSpec, RingVariant

E1 = GroupKind.euclidean(1)
E2 = GroupKind.euclidean(2)
H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)
FULL5 = RingSpec(5, RingVariant.FULL_INTEGERS)
RINGS = (RingSpec(2), RingSpec(3), RingSpec(5), FULL5)


def pair_route(ms):
    """A copy of ms that the analyses serve as they serve samples that are
    no product of their axes: the grid of a product copy gets every cell
    as a member."""
    copy = ModelSet(ms.scheme, ms.window, ms.region, ms.rows, ms.e)
    if copy.grid.members is None:
        copy.grid.members = list(range(len(ms)))
    return copy


ROUTES = (lambda ms: ms, pair_route)


# ---------------------------------------------------------------------------
# separation, patches and periods, by exact QuadNum products
# ---------------------------------------------------------------------------

def brute_separation(ms):
    """(separation_sq, certificate, bracket) of `separation(ms)` on at
    least two points: the least exact squared symmetric distance over every
    pair, the least pair (i, j), i < j, at it, and the bracket of 40
    bisection steps from [0, r], r the first `_initial_radius` * 2^k whose
    square reaches it."""
    points = ms.points
    sq = {(i, j): sym_dist_sq(points[i], points[j])
          for i, j in itertools.combinations(range(len(points)), 2)}
    least = min(sq.values())
    hi = _initial_radius(ms)
    while least > hi * hi:
        hi *= 2
    lo = Fraction(0)
    for _ in range(40):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if least <= mid * mid else (mid, hi)
    return least, min(k for k, v in sq.items() if v == least), (lo, hi)


def brute_patch_classes(ms, radius):
    """{relative coordinates: centers} over the right-interior centers: the
    sorted coordinates c^-1 * q of the points q within symmetric distance
    radius of the center c, and the ascending centers carrying them."""
    kind = ms.scheme.kind
    classes = {}
    for idx in right_interior(ms, radius):
        center = ms.points[idx]
        inv_c = inv_coords(kind, center.coords)
        key = tuple(sorted(
            mul_coords(kind, inv_c, q.coords)
            for q in ms.points if sym_dist_leq(center, q, radius)))
        classes.setdefault(key, []).append(idx)
    return {key: tuple(found) for key, found in classes.items()}


def brute_periods(ms, bound):
    """(candidates tested, sorted survivors) of `period_search(ms, bound,
    bound)`: every g = q * c^-1 within the gauge bound, over every core
    point c and sample point q != c, that maps every core point into the
    sample; the candidates are those of the first core point."""
    kind = ms.scheme.kind
    members = {p.coords for p in ms.points}
    core = [ms.points[i].coords for i in left_interior(ms, bound)]
    candidates = {}
    for c in core:
        inv_c = inv_coords(kind, c)
        candidates[c] = {
            g for g in (mul_coords(kind, q.coords, inv_c)
                        for q in ms.points if q.coords != c)
            if qnorm_leq(GroupPoint(kind, g), bound)
        }
    survivors = sorted(
        g for g in set().union(*candidates.values())
        if all(mul_coords(kind, g, c) in members for c in core))
    return len(candidates[core[0]]), survivors


# ---------------------------------------------------------------------------
# float gauges: the covering radius and the return radii, by full scans
# ---------------------------------------------------------------------------

def float_sym_gauge(kind, c, p):
    """Float symmetric gauge of c^-1 p for one pair of float coordinate
    tuples, term by term as the float gauge of `analysis` computes it."""
    if kind.family is Family.EUCLIDEAN:
        return max(abs(b - a) for a, b in zip(c, p))
    n = kind.rank
    dx = [p[k] - c[k] for k in range(n)]
    dy = [p[n + k] - c[n + k] for k in range(n)]
    dt = p[2 * n] - c[2 * n]
    tau1 = dt - sum(c[k] * dy[k] for k in range(n))    # t part of c^-1 p
    tau2 = sum(p[k] * dy[k] for k in range(n)) - dt    # t part of p^-1 c
    head = max(max(map(abs, dx)), max(map(abs, dy)))
    return max(head, math.sqrt(max(abs(tau1), abs(tau2))))


def dense_gauge(kind, centers, pts):
    """Float symmetric gauge of every center against every point, as the
    full scan computed it."""
    c = centers[:, None, :]
    p = pts[None, :, :]
    if kind.family is Family.EUCLIDEAN:
        return np.abs(p - c).max(axis=2)
    n = kind.rank
    dx = p[..., :n] - c[..., :n]
    dy = p[..., n:2 * n] - c[..., n:2 * n]
    dt = p[..., 2 * n] - c[..., 2 * n]
    tau1 = dt - (c[..., :n] * dy).sum(axis=2)
    tau2 = (p[..., :n] * dy).sum(axis=2) - dt
    head = np.maximum(np.abs(dx).max(axis=2), np.abs(dy).max(axis=2))
    tmax = np.maximum(np.abs(tau1), np.abs(tau2))
    return np.maximum(head, np.sqrt(tmax))


def dense_covering(ms, grid_step, erosion):
    """Reference: every grid point against every sample point."""
    kind = ms.scheme.kind
    axes = []
    for i, (lo, hi) in enumerate(ms.region.intervals):
        margin = erosion
        if kind.family is Family.HEISENBERG and i == kind.coord_count - 1:
            xspan = sum(max(abs(a), abs(b))
                        for a, b in ms.region.intervals[:kind.rank])
            margin = erosion * erosion + erosion * xspan
        a, b = lo + margin, hi - margin
        steps = int((b - a) / grid_step)
        axes.append([float(a + k * grid_step) for k in range(steps + 1)])
    pts = np.array(ms.float_points(), dtype=float)
    worst = 0.0
    chunk = []
    for coords in itertools.product(*axes):
        chunk.append(coords)
        if len(chunk) >= 2048:
            dists = dense_gauge(kind, np.array(chunk, dtype=float), pts)
            worst = max(worst, float(dists.min(axis=1).max()))
            chunk = []
    if chunk:
        dists = dense_gauge(kind, np.array(chunk, dtype=float), pts)
        worst = max(worst, float(dists.min(axis=1).max()))
    return worst


def nearest_other(kind, feats, members):
    """Reference: per row of feats, the float gauge to the nearest row of
    members other than itself (inf if there is none), by the full scan."""
    members = np.asarray(members, dtype=np.intp)
    dists = dense_gauge(kind, feats, feats[members])
    dists[np.arange(len(feats))[:, None] == members[None, :]] = math.inf
    return dists.min(axis=1)


def reference_return_radii(ms, catalog):
    """(multiplicity, return radius, lower bound only) per class: the max
    over all centers of `nearest_other` among the class's centers."""
    centers = sorted(c for cls in catalog.classes for c in cls.centers)
    position = {c: k for k, c in enumerate(centers)}
    feats = np.array(ms.float_points(), dtype=float)[centers]
    expected = []
    for cls in catalog.classes:
        nearest = nearest_other(ms.scheme.kind, feats,
                                [position[c] for c in cls.centers])
        finite = nearest[np.isfinite(nearest)]
        expected.append((cls.multiplicity,
                         float(finite.max()) if finite.size else math.inf,
                         cls.multiplicity == 1))
    return expected


# ---------------------------------------------------------------------------
# small samples
# ---------------------------------------------------------------------------

def bare_samples(min_size=2, max_size=24):
    """Bare `from_points` sets of up to max_size points (from min_size
    drawn cells): E1, E2, H1, H2 over Z[sqrt(d)] for d in {2, 3, 5} and
    over the full ring of Q(sqrt(5)), the first coordinate moved by up to
    10^3 from the origin."""
    def build(kind, ring, offset, cells):
        d = ring.d
        if ring.variant is RingVariant.FULL_INTEGERS:
            coord = [QuadNum(Fraction(a, 2), Fraction(b, 2), d)
                     for a, b in cells]
        else:
            coord = [QuadNum(a, b, d) for a, b in cells]
        c = kind.coord_count
        pts = sorted({tuple(coord[(k * c + i) % len(coord)]
                            + (offset if i == 0 else 0) for i in range(c))
                      for k in range(len(coord))})
        points = [GroupPoint(kind, p) for p in pts]
        internal = [GroupPoint(kind, tuple(x.conjugate() for x in p))
                    for p in pts]
        region = Box(tuple((math.floor(min(axis)), math.ceil(max(axis)))
                           for axis in zip(*pts)))
        return ModelSet.from_points(Scheme(kind, ring), region, region,
                                    points, internal)

    def cells(ring):
        if ring.variant is RingVariant.FULL_INTEGERS:
            # (a + b*sqrt(5))/2 with a = b (mod 2)
            return st.tuples(st.integers(-3, 3), st.integers(-1, 1)).map(
                lambda ab: (2 * ab[0] + ab[1] % 2, ab[1]))
        return st.tuples(st.integers(-3, 3), st.integers(-1, 1))

    return st.tuples(st.sampled_from([E1, E2, H1, H2]),
                     st.sampled_from(RINGS)).flatmap(
        lambda kr: st.builds(build, st.just(kr[0]), st.just(kr[1]),
                             st.integers(-1000, 1000),
                             st.lists(cells(kr[1]), min_size=min_size,
                                      max_size=max_size)))


# the region width per coordinate, so a window of width up to 2 leaves a
# few dozen points at most
REGION_WIDTHS = {E1: (48,), E2: (8, 8), H1: (4, 4, 12), H2: (3, 3, 3, 3, 6)}


@st.composite
def cut_project_samples(draw, max_points=60):
    """`generate_model_set` samples of at most max_points points: E1, E2,
    H1, H2 over the rings of `RINGS`, a random rational box window of width
    1/2 to 2 per axis, and a region of half to all of `REGION_WIDTHS`, its
    first axis moved by up to 10^3."""
    kind = draw(st.sampled_from(list(REGION_WIDTHS)))
    ring = draw(st.sampled_from(RINGS))

    def twelfths(lo, hi):
        return Fraction(draw(st.integers(lo, hi)), 12)
    window = []
    for _ in REGION_WIDTHS[kind]:
        lo = twelfths(-24, 12)
        window.append((lo, lo + twelfths(6, 24)))
    offset = draw(st.just(0) | st.integers(-1000, 1000))
    region = []
    for k, width in enumerate(REGION_WIDTHS[kind]):
        lo = twelfths(-6, 6) - Fraction(width, 2) + (offset if k == 0 else 0)
        region.append((lo, lo + width * twelfths(6, 12)))
    scheme, window, region = Scheme(kind, ring), Box(window), Box(region)
    assume(model_set_size(scheme, window, region, max_points) <= max_points)
    return generate_model_set(scheme, window, region)


# small steps g = a + b*sqrt(d) per ring: 0 < g < 1, irrational
STEPS = {RingSpec(2): [(-1, 1), (3, -2)], RingSpec(3): [(2, -1), (-1, 1)],
         RingSpec(5): [(-2, 1)], FULL5: [(Fraction(-1, 2), Fraction(1, 2))]}


@st.composite
def progression_samples(draw):
    """Bare E1 and E2 sets that are products of arithmetic progressions
    with irrational steps, so the period search finds irrational periods
    (the multiples of each step within the gauge bound, away from the
    region's edges)."""
    kind = draw(st.sampled_from([E1, E2]))
    ring = draw(st.sampled_from(RINGS))
    axes = []
    for _ in range(kind.coord_count):
        a, b = draw(st.sampled_from(STEPS[ring]))
        step = QuadNum(a, b, ring.d) * draw(st.sampled_from([1, -1]))
        start = draw(st.integers(-1000, 1000))
        length = draw(st.integers(5, 40 if kind is E1 else 7))
        axes.append([start + k * step for k in range(length)])
    pts = sorted(itertools.product(*axes))
    points = [GroupPoint(kind, p) for p in pts]
    internal = [GroupPoint(kind, tuple(x.conjugate() for x in p))
                for p in pts]
    region = Box(tuple((math.floor(min(axis)), math.ceil(max(axis)))
                       for axis in axes))
    return ModelSet.from_points(Scheme(kind, ring), region, region, points,
                                internal)


def small_samples():
    return (cut_project_samples() | bare_samples(min_size=8)
            | progression_samples())


def large_element(draw, ring, mag):
    if ring.variant is FULL5.variant:
        # (p + q*sqrt(d))/2 with p = q (mod 2)
        p = draw(st.integers(-2 * mag, 2 * mag))
        q = draw(st.integers(-2 * mag, 2 * mag) | st.just(0))
        p += (p - q) % 2
        return QuadNum(Fraction(p, 2), Fraction(q, 2), ring.d)
    a = draw(st.integers(-mag, mag))
    b = draw(st.integers(-mag, mag) | st.just(0))
    return QuadNum(a, b, ring.d)


@st.composite
def large_samples(draw):
    """`from_points` sets of two to five points of E2, H1 or H2 with
    coordinates of magnitude up to 8, 2^20 or 2^40, and a radius near the
    gauges in play."""
    kind = draw(st.sampled_from([E2, H1, H2]))
    ring = draw(st.sampled_from([RingSpec(2), RingSpec(3), FULL5,
                                 RingSpec(13, RingVariant.FULL_INTEGERS)]))
    mag = draw(st.sampled_from([8, 2 ** 20, 2 ** 40]))
    pts = sorted({tuple(large_element(draw, ring, mag)
                        for _ in range(kind.coord_count))
                  for _ in range(draw(st.integers(2, 5)))})
    assume(len(pts) > 1)
    points = [GroupPoint(kind, p) for p in pts]
    internal = [GroupPoint(kind, tuple(c.conjugate() for c in p))
                for p in pts]
    region = Box(tuple((math.floor(min(axis)), math.ceil(max(axis)))
                       for axis in zip(*pts)))
    ms = ModelSet.from_points(Scheme(kind, ring), region, region, points,
                              internal)
    scale = max(abs(float(c)) for p in pts for c in p) + 1
    radius = draw(st.sampled_from([
        Fraction(1, 3), Fraction(1), Fraction(7, 2),
        Fraction(math.floor(scale)), Fraction(math.floor(scale ** 0.5)),
        Fraction(math.floor(2 * scale), 3)]))
    return ms, radius
