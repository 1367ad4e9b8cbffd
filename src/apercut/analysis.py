"""Point-set analysis for finite model-set samples.

Everything radius-dependent works on eroded cores so that finite truncation
cannot fake or hide structure:

* patch statistics use centers whose right translate ball lambda*B_K stays
  inside the region, so the patch at the center is provably complete;
* period tests use centers whose left translates g*lambda stay inside the
  region for every gauge(g) <= bound, so a true period can never fail the
  membership test on truncation grounds.

In Heisenberg coordinates the t-axis margins are position dependent:
K^2 + K*sum|x_i| for right translates, K^2 + K*sum|y_i| for left ones.

Separation, patch membership and the period search decide every predicate
on the integer-row kernel of `lattice` (`ModelSet.lattice`): the index
emits candidate pairs as index arrays, in bounded chunks (the period search
takes its candidates from one core point instead), and the kernel tests
whole chunks with exact integer arithmetic. Separation is exact
(squared symmetric gauges stay inside the field), with a rational bisection
bracket reported alongside the float value.

The index (`NeighborIndex`) follows the left-invariant metric: for H_n it
keys t on the sheared coordinate t - <X, y>, X the centre of the point's
x-cell, in cells of side (1 + 3n/2) r^2 at radius r. A query c looks up each
neighbouring x-column j at its own key t_c - <X_j, y_c>, and every p with
gauge(c^-1 p) <= r is found, because |tau(c^-1 p)| <= r^2 and
|c_x - X_j| <= 3r/2 bound the sheared difference by r^2 + (3/2) n r^2 on
any region. Its candidates therefore do not grow with the region's x-span.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .cutproject import ModelSet
from .errors import ErosionError, check_budget
from .heisenberg import Family, GroupKind
# perfbench/worker.py looks these up on this module to count their calls
from .heisenberg import (  # noqa: F401
    mul_coords,
    qnorm_leq,
    sym_dist_leq,
    sym_dist_sq,
)
from .lattice import (
    CellCodes,
    Quad,
    cell_floor,
    int_array,
    sheared_cell_floor,
)
from .quadratic import QuadNum, numerator_rows


# ---------------------------------------------------------------------------
# interior cores
# ---------------------------------------------------------------------------

def _t_margin(k: Fraction, span, den: int = 1):
    """Heisenberg t-axis reach K^2 + K*span of translates by gauge(g) <= k
    from a point (or region) with sum|x_i| (or sum|y_i|) at most span.

    span is a Fraction, or a `Quad` of per-point numerators over den; the
    reach of a Quad comes back as numerators over k.denominator**2 * den."""
    if isinstance(span, Quad):
        a, b = k.numerator, k.denominator
        return span.scale(a * b).add_int(a * a * den)
    return k * k + k * span


def _region_xspan(ms: ModelSet) -> Fraction:
    """Bound on sum|x_i| over the region."""
    n = ms.scheme.kind.rank
    return sum(max(abs(lo), abs(hi)) for lo, hi in ms.region.intervals[:n])


def right_interior(ms: ModelSet, depth: Fraction) -> list[int]:
    """Indices of points p with p * (gauge ball of radius depth) inside the
    region, so every point within symmetric distance depth is in the sample."""
    return _interior(ms, Fraction(depth), use_x_margin=True)


def left_interior(ms: ModelSet, depth: Fraction) -> list[int]:
    """Indices of points p with g * p inside the region for all
    gauge(g) <= depth."""
    return _interior(ms, Fraction(depth), use_x_margin=False)


def _interior(ms: ModelSet, depth: Fraction, use_x_margin: bool) -> list[int]:
    if depth < 0:
        raise ValueError("erosion depth must be >= 0")
    kind = ms.scheme.kind
    lat = ms.lattice
    e = lat.e
    ivs = ms.region.intervals
    ok = np.ones(len(lat), dtype=bool)
    for k in range(lat.head_len):
        x = lat.coord(k)
        ok &= ((x.cmp_rational(e, ivs[k][0] + depth) >= 0)
               & (x.cmp_rational(e, ivs[k][1] - depth) <= 0))
    if kind.family is Family.HEISENBERG:
        # lo + margin <= t <= hi - margin, with the margin of sum|anchor|
        n = kind.rank
        anchor = range(n) if use_x_margin else range(n, 2 * n)
        span = lat.coord(anchor[0]).abs()
        for k in anchor[1:]:
            span = span + lat.coord(k).abs()
        margin = _t_margin(depth, span, e)
        scale = depth.denominator ** 2
        t = lat.coord(2 * n).scale(scale)
        lo, hi = ivs[2 * n]
        ok &= (((t - margin).cmp_rational(scale * e, lo) >= 0)
               & ((t + margin).cmp_rational(scale * e, hi) <= 0))
    return np.flatnonzero(ok).tolist()


# ---------------------------------------------------------------------------
# neighbor index
# ---------------------------------------------------------------------------

# Candidate pairs per chunk: bounds the memory of the vectorized predicates
# (about 130 bytes a pair for the float gauge). At 2^16 the temporaries stay
# near cache size; 2^18 was no faster on the R=8 and R=12 H1 samples.
PAIR_CHUNK = 1 << 16


class NeighborIndex:
    """Cell index over exact coordinates for radius-bounded candidate lookup.

    The head axes (all of Z^m; x and y of H_n) have cells of side r =
    `radius`. For H_n the metric is left-invariant: the t part of c^-1 p is
    tau = dt - <c_x, dy>, so the t axis is keyed on the sheared coordinate
    s = t - <X, y>, where X is the centre of the point's x-cell (its
    column: X_i = (k_i + 1/2) r for the x keys k_i), in cells of side
    (1 + 3n/2) r^2. A query c in the x-cells k looks up the columns j with
    each j_i in k_i-1..k_i+1, each at its own key, the floor of
    (t_c - <X_j, y_c>) / ((1 + 3n/2) r^2). If gauge(c^-1 p) <= r, then p lies
    in one of those columns, j say, and since |c_x,i - X_j,i| <= 3r/2 and
    |dy_i| <= r,

        |s_p - (t_c - <X_j, y_c>)| = |tau + <c_x - X_j, dy>|
                                   <= r^2 + (3/2) n r^2,

    which is the t cell side, so the keys of p and of the query differ by at
    most one on every axis: the 3^dim cells around the query hold every
    such p. The bound does not depend on the region. Every key is an exact
    floor in Q(sqrt(d)). The keys are packed into one integer code with the
    last axis (t for H_n) in the lowest place, and the points are sorted by
    code, so the three cells around a key on that axis are one
    searchsorted range.
    """

    def __init__(self, ms: ModelSet, radius: Fraction) -> None:
        radius = Fraction(radius)
        if radius <= 0:
            raise ValueError("index radius must be positive")
        self.ms = ms
        self.radius = radius
        kind = ms.scheme.kind
        lat = ms.lattice
        self._head = lat.head_len
        if kind.family is Family.EUCLIDEAN:
            self._t_size = None
        else:
            n = kind.rank
            self._t_size = (1 + Fraction(3 * n, 2)) * radius * radius
            # the x-cell offsets of the columns a query looks up
            self._columns = np.array(
                list(itertools.product((-1, 0, 1), repeat=n)))
        keys = self._keys(lat.numerators(), lat.e, own=True)
        self._cells = CellCodes(keys)
        codes = self._cells.codes
        self._order = np.argsort(codes, kind="stable")
        self._sorted = codes[self._order]

    def _keys(self, coords: Quad, den: int, own: bool) -> list:
        """Cell keys of the points with numerators coords over den: one
        array per head axis, then for H_n the sheared t keys in the
        points' own columns (own) or, one column per x-cell offset in
        `itertools.product` order, in the columns a query looks up."""
        head = [cell_floor(coords[:, k], den, self.radius)
                for k in range(self._head)]
        if self._t_size is None:
            return head
        n = self._head // 2
        offsets = np.zeros((1, n), dtype=np.int64) if own else self._columns
        cols = (np.stack(head[:n], axis=1)[:, None, :] + offsets)
        at = np.repeat(np.arange(len(cols)), len(offsets))
        t = sheared_cell_floor(coords[at, n:2 * n], coords[at, 2 * n], den,
                               cols.reshape(-1, n), self.radius, self._t_size)
        t = t.reshape(len(cols), len(offsets))
        return head + [t[:, 0] if own else t]

    def candidates(self, coords) -> Iterable[int]:
        """Indices in the 3^dim cell neighborhood of the point with exact
        coordinates coords; a superset of the points p with
        gauge(coords^-1 p) <= `radius`."""
        rows, den = numerator_rows([coords])
        c = len(coords)
        u = np.array([rows[0][:c]], dtype=object)
        w = np.array([rows[0][c:]], dtype=object)
        for _, j in self.pairs_near(np.zeros(1, dtype=np.intp),
                                    Quad(u, w, self.ms.lattice.d), den):
            yield from j.tolist()

    def pairs(self, centers: Sequence[int] | None = None) -> Iterator[tuple]:
        """Index arrays (i, j): i over centers (default: every point), j
        over the 3^dim cell neighborhood of i, i itself included. Yields
        about `PAIR_CHUNK` pairs at a time, never splitting one center's
        pairs."""
        if centers is None:
            queries = np.arange(len(self._sorted))
        else:
            queries = np.asarray(centers, dtype=np.intp)
        lat = self.ms.lattice
        return self.pairs_near(queries, lat.numerators(queries), lat.e)

    def pairs_near(self, queries: np.ndarray, coords: Quad,
                   den: int) -> Iterator[tuple]:
        """Index arrays (i, j): i over queries, j over the points in the
        3^dim cells around the query point with numerators coords[n] over
        den, for queries[n] (a query may lie anywhere, inside the points'
        key range or not). Chunked as `pairs`."""
        keys = self._keys(coords, den, own=False)
        chunk = PAIR_CHUNK
        block = max(1, chunk // 3 ** len(keys))
        for start in range(0, len(queries), block):
            q = queries[start:start + block]
            first, last = self._cells.neighbors(
                [k[start:start + block] for k in keys])
            lo = np.searchsorted(self._sorted, first, side="left")
            counts = np.searchsorted(self._sorted, last, side="right") - lo
            ends = np.cumsum(counts.sum(axis=1))
            a = 0
            while a < len(q):
                base = ends[a - 1] if a else 0
                b = max(a + 1, int(np.searchsorted(ends, base + chunk,
                                                   side="right")))
                yield self._expand(q[a:b], lo[a:b], counts[a:b])
                a = b

    def _expand(self, q, lo, counts) -> tuple:
        per_query = counts.sum(axis=1)
        flat_lo, flat_n = lo.ravel(), counts.ravel()
        total = int(flat_n.sum())
        first = np.cumsum(flat_n) - flat_n
        pos = np.repeat(flat_lo - first, flat_n) + np.arange(total)
        return np.repeat(q, per_query), self._order[pos]


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationResult:
    """Exact minimum pairwise symmetric distance with certificate."""

    separation: float
    separation_sq: object | None  # exact scalar, None when < 2 points
    certificate: Tuple[int, int] | None
    bracket: Tuple[Fraction, Fraction] | None

    @property
    def positive(self) -> bool:
        return self.separation > 0


def separation(ms: ModelSet) -> SeparationResult:
    """Minimum symmetric gauge distance over all point pairs.

    The search radius starts at `_initial_radius` and doubles until some
    pair lies within it; every index candidate pair is tested exactly at
    that radius. The doubling ends on any region: two distinct points have
    a finite gauge g, and the index yields their pair once the radius
    reaches g. The squared distances of the pairs within the radius are
    compared exactly, and the certificate is the lexicographically smallest
    pair (i, j), i < j, at the minimum. A 40-step rational bisection on that
    exact square then brackets the minimum inside [0, radius], so
    bracket[1] never exceeds the first doubling radius that holds a pair.
    """
    if len(ms) < 2:
        return SeparationResult(math.inf, None, None, None)
    lat = ms.lattice
    radius = _initial_radius(ms)
    while True:
        found = []
        for i, j in NeighborIndex(ms, radius).pairs():
            upper = i < j
            i, j = i[upper], j[upper]
            g = lat.left_diff(i, j)
            near = np.flatnonzero(lat.gauge_leq(g, radius, symmetric=True))
            if near.size:
                found.append((i[near], j[near], lat.sq_gauge(g[near])))
        if found:
            break
        radius *= 2

    i = np.concatenate([f[0] for f in found])
    j = np.concatenate([f[1] for f in found])
    sq = Quad.concat([f[2] for f in found])
    # guess the minimum by float, then refine until no pair is smaller
    approx = sq.to_float()
    pool = np.arange(len(i))
    while True:
        best = pool[np.argmin(approx[pool])]
        order = (sq - sq[np.full(len(i), best)]).sign()
        pool = np.flatnonzero(order < 0)
        if not pool.size:
            break
    ties = np.flatnonzero(order == 0)
    first = ties[np.lexsort((j[ties], i[ties]))[0]]
    best_pair = (int(i[first]), int(j[first]))
    best_sq = QuadNum._mk(int(sq.u[first]), int(sq.w[first]),
                          lat.e * lat.e, lat.d)

    # the symmetric gauge is at most mid iff its square is at most mid^2
    lo, hi = Fraction(0), radius
    for _ in range(40):
        mid = (lo + hi) / 2
        if best_sq <= mid * mid:
            hi = mid
        else:
            lo = mid
    return SeparationResult(
        separation=math.sqrt(float(best_sq)),
        separation_sq=best_sq,
        certificate=best_pair,
        bracket=(lo, hi),
    )


def _initial_radius(ms: ModelSet) -> Fraction:
    # heuristic seed; doubling makes correctness independent of the guess
    span = min(hi - lo for lo, hi in ms.region.intervals)
    guess = span / max(len(ms), 1)
    return max(guess, Fraction(1, 16))


# ---------------------------------------------------------------------------
# covering radius estimate
# ---------------------------------------------------------------------------

def covering_radius_estimate(
    ms: ModelSet, grid_step: Fraction, erosion: Fraction
) -> float:
    """Float estimate: max over grid points of the eroded region of the
    float symmetric distance to the nearest sample point. Resolution
    grid_step; not exact.

    The grid is walked in blocks, never built whole. Each grid point is
    compared only with the points of its index neighbourhood, in rounds of
    doubling radius r from grid_step. A round indexes at r + delta, where
    delta (`_float_gauge_error`) bounds |float gauge - exact gauge| over the
    region. A grid point whose float minimum over its candidates is <= r is
    settled: the nearest point p* of the full scan has float gauge <= r, so
    its exact gauge is <= r + delta, so p* is a candidate and both minima
    are the same float. The others go to the next round; a grid point
    whose p* has float gauge D is settled by the first round with r >= D at
    the latest. The candidates come from the query keys of the grid point
    itself: exact floors of its coordinates, held as integer numerators
    over one common denominator; for H_n the t key depends on the grid
    point's y and on the column looked up, and the sheared cells of
    `NeighborIndex` keep every point within r + delta among the candidates
    wherever the region lies. The float gauge takes the same operations as
    the full scan, so the estimate equals it bit for bit.

    Raises BudgetExceededError before any work when the grid has more
    points than `errors.element_budget()`.
    """
    grid_step = Fraction(grid_step)
    erosion = Fraction(erosion)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if erosion < 0:
        raise ValueError("erosion must be >= 0")
    if not len(ms):
        raise ErosionError("empty point set has no covering radius")
    kind = ms.scheme.kind
    starts, shape = [], []
    for i, (lo, hi) in enumerate(ms.region.intervals):
        if kind.family is Family.HEISENBERG and i == kind.coord_count - 1:
            margin = _t_margin(erosion, _region_xspan(ms))
        else:
            margin = erosion
        a, b = lo + margin, hi - margin
        if a > b:
            raise ErosionError(f"eroded region empty on axis {i}")
        starts.append(a)
        shape.append(int((b - a) / grid_step) + 1)
    total = math.prod(shape)
    check_budget(total, f"covering grid of {total} points")
    axes = [[a + k * grid_step for k in range(count)]
            for a, count in zip(starts, shape)]
    grid_axes = [np.array([float(v) for v in axis]) for axis in axes]
    # exact grid coordinates: integer numerators over one denominator
    rows, den = numerator_rows(axes)
    num_axes = [int_array(row[:len(axis)])[0]
                for row, axis in zip(rows, axes)]
    pts = ms.lattice.float_coords()
    delta = _float_gauge_error(kind, _float_magnitude(ms))
    indexes = []  # per doubling radius
    worst = 0.0
    block = max(1, PAIR_CHUNK // 3 ** len(shape))
    for start in range(0, total, block):
        todo = np.arange(start, min(start + block, total))
        r = grid_step
        k = 0
        while todo.size:
            if k == len(indexes):
                indexes.append(NeighborIndex(ms, r + delta))
            at = np.unravel_index(todo, shape)
            grid = np.stack([g[a] for g, a in zip(grid_axes, at)], axis=1)
            u = np.stack([g[a] for g, a in zip(num_axes, at)], axis=1)
            exact = Quad(u, np.zeros_like(u), ms.lattice.d)
            nearest = np.full(len(todo), np.inf)
            for i, j in indexes[k].pairs_near(np.arange(len(todo)), exact,
                                              den):
                # take gathers rows several times faster than grid[i]
                gauge = _float_sym_gauge(kind, grid.take(i, axis=0),
                                         pts.take(j, axis=0))
                np.minimum.at(nearest, i, gauge)
            settled = nearest <= _float_at_most(r)
            if settled.any():
                worst = max(worst, float(nearest[settled].max()))
            todo = todo[~settled]
            r *= 2
            k += 1
    return worst


def _float_at_most(r: Fraction) -> float:
    """The largest float <= r."""
    f = float(r)
    return math.nextafter(f, -math.inf) if Fraction(f) > r else f


def _float_magnitude(ms: ModelSet) -> int:
    """An integer B >= 1 with |v| <= B for every coordinate v of the region
    and, for every sample coordinate (p + q*sqrt(d))/den, with
    (|p| + |q|*sqrt(d))/den <= B: the float conversion works on p and q, so
    its error scales with that sum, which cancellation can make larger than
    |v|."""
    region = max(max(abs(lo), abs(hi)) for lo, hi in ms.region.intervals)
    lat = ms.lattice
    parts = Fraction(lat.bound * (math.isqrt(lat.d) + 2), lat.e)
    return max(1, math.ceil(region), math.ceil(parts))


def _float_gauge_error(kind: GroupKind, bound: int) -> Fraction:
    """A power of two delta >= |float gauge - exact gauge| of c^-1 p, for a
    rational grid point c and a sample point p whose magnitudes and float
    conversions are bounded by `bound` >= 1 as in `_float_magnitude`.

    With u = 2^-53, each float operation is exact up to a factor (1 + e),
    |e| <= u. Then float(c) is off by <= u*B, and float(p), computed as
    (p + q*sqrt(d))/den, by <= 7u*B (about 3u on each of |p| and |q|sqrt(d),
    3u on |v|). Differences are off by <= 11u*B, and so are the coordinate
    terms of the gauge and their maximum. For H_n, each product x*dy is off
    by <= 28u*B^2 (|dy| <= 2.03B); with dt off by 11u*B and the roundings of
    the n-term sum and of the subtraction (<= 2.1(n^2 + n)u*B^2 + 2.03u*B),
    each t part tau is off by E <= 32(n+1)^2 u*B^2, as B >= 1. sqrt is not
    Lipschitz at 0, but |sqrt(a) - sqrt(b)| <= sqrt|a - b|, and rounding the
    sqrt adds u*sqrt|tau| <= 2(n+1)u*B; so the sqrt term is off by at most
    sqrt(E) + 2(n+1)u*B = (n+1)*B*(2^-24 + 2^-52), which exceeds 11u*B.
    The bound is rounded up to a power of two, which keeps the index cell
    sizes r + delta short fractions.
    """
    u = Fraction(1, 1 << 53)
    if kind.family is Family.EUCLIDEAN:
        err = 11 * u * bound
    else:
        err = (kind.rank + 1) * bound * (Fraction(1, 1 << 24) + 2 * u)
    delta = Fraction(1)
    while delta < err:
        delta *= 2
    while delta / 2 >= err:
        delta /= 2
    return delta


def _float_sym_gauge(kind: GroupKind, c: np.ndarray,
                     p: np.ndarray) -> np.ndarray:
    """Float symmetric gauge of c^-1 p over the last axis of two arrays
    that broadcast together: (P, dim) pairs, or (C, 1, dim) against
    (1, N, dim) for all pairs."""
    if kind.family is Family.EUCLIDEAN:
        return np.abs(p - c).max(axis=-1)
    n = kind.rank
    dx = p[..., :n] - c[..., :n]
    dy = p[..., n:2 * n] - c[..., n:2 * n]
    dt = p[..., 2 * n] - c[..., 2 * n]
    tau1 = dt - (c[..., :n] * dy).sum(axis=-1)    # t part of c^-1 p
    tau2 = (p[..., :n] * dy).sum(axis=-1) - dt    # t part of p^-1 c
    head = np.maximum(np.abs(dx).max(axis=-1), np.abs(dy).max(axis=-1))
    tmax = np.maximum(np.abs(tau1), np.abs(tau2))
    return np.maximum(head, np.sqrt(tmax))


@dataclass(frozen=True)
class DeloneReport:
    separation: SeparationResult
    covering_radius: float | None
    grid_step: Fraction | None
    erosion: Fraction | None


def delone_report(
    ms: ModelSet,
    grid_step: Fraction | None = None,
    erosion: Fraction | None = None,
) -> DeloneReport:
    sep = separation(ms)
    cov = None
    if grid_step is not None and erosion is not None:
        cov = covering_radius_estimate(ms, grid_step, erosion)
    return DeloneReport(sep, cov, grid_step, erosion)


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchClass:
    """A patch up to translation: exact relative coordinates of the points
    within distance K of a center, the center mapped to the identity; and
    the sample indices of the centers carrying it, ascending."""

    radius: Fraction
    relative_coords: Tuple[tuple, ...]
    centers: Tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.centers)

    @property
    def size(self) -> int:
        return len(self.relative_coords)


@dataclass(frozen=True)
class PatchCatalog:
    radius: Fraction
    classes: Tuple[PatchClass, ...]
    center_count: int

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def keys(self) -> set:
        return {c.relative_coords for c in self.classes}


def patch_at(ms: ModelSet, center_index: int, radius: Fraction,
             index: NeighborIndex | None = None) -> Tuple[tuple, ...]:
    """Exact relative patch at one interior center; raises ErosionError for
    centers whose patch could be clipped by the region boundary."""
    radius = Fraction(radius)
    interior = set(right_interior(ms, radius))
    if center_index not in interior:
        raise ErosionError(
            f"center {center_index} is within {radius} of the region boundary"
        )
    if index is None:
        index = NeighborIndex(ms, radius)
    keys, coords = _patch_rows(ms, [center_index], radius, index)
    return coords[keys[0]]


def _patch_rows(ms: ModelSet, centers: Sequence[int], radius: Fraction,
                index: NeighborIndex) -> tuple[list, dict]:
    """Patches at the centers, each as the sorted numerator rows of the
    relative coordinates p_c^-1 * q of the points q within symmetric
    distance radius; and, per distinct patch, those coordinates as sorted
    exact tuples."""
    lat = ms.lattice
    keys = []
    for i, j in index.pairs(centers):
        g = lat.left_diff(i, j)
        near = lat.gauge_leq(g, radius, symmetric=True)
        i, rows = i[near], list(map(tuple, g[near].rows().tolist()))
        # pairs arrive grouped by center, in the order of centers
        cuts = (np.flatnonzero(np.diff(i)) + 1).tolist()
        keys += [tuple(sorted(rows[a:b]))
                 for a, b in zip([0] + cuts, cuts + [len(rows)])]
    coords = {key: tuple(sorted(lat.to_coords(key))) for key in set(keys)}
    return keys, coords


def patch_catalog(ms: ModelSet, radius: Fraction) -> PatchCatalog:
    """Group all complete patches at interior centers by exact equality."""
    radius = Fraction(radius)
    centers = right_interior(ms, radius)
    if not centers:
        raise ErosionError(f"no interior centers at radius {radius}")
    keys, coords = _patch_rows(ms, centers, radius,
                               NeighborIndex(ms, radius))
    members: dict[tuple, list[int]] = {}
    for center, key in zip(centers, keys):
        members.setdefault(key, []).append(center)
    classes = tuple(sorted(
        (PatchClass(radius, coords[key], tuple(found))
         for key, found in members.items()),
        key=lambda c: c.relative_coords))
    return PatchCatalog(radius, classes, len(centers))


@dataclass(frozen=True)
class ComplexityRow:
    radius: Fraction
    class_count: int
    center_count: int
    # the catalog the row counts, for reuse by `repetitivity_radii`
    catalog: PatchCatalog = field(compare=False, repr=False)


def complexity_table(ms: ModelSet, radii: Sequence[Fraction]) -> list[ComplexityRow]:
    rows = []
    for r in radii:
        cat = patch_catalog(ms, Fraction(r))
        rows.append(ComplexityRow(Fraction(r), cat.class_count,
                                  cat.center_count, cat))
    return rows


# ---------------------------------------------------------------------------
# repetitivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassReturn:
    class_index: int
    multiplicity: int
    return_radius: float
    lower_bound_only: bool


@dataclass(frozen=True)
class RepetitivityReport:
    radius: Fraction
    per_class: Tuple[ClassReturn, ...]
    max_return_radius: float
    any_lower_bound: bool


def repetitivity_radii(ms: ModelSet, radius: Fraction,
                       catalog: PatchCatalog | None = None
                       ) -> RepetitivityReport:
    """Finite-sample return radii: for each patch class, the largest over
    interior centers of the distance to the nearest other center carrying
    that class. Classes seen only once are flagged as lower bounds (their
    recurrence lies beyond the sampled region). `catalog`, if given, is
    `patch_catalog(ms, radius)`, already built."""
    radius = Fraction(radius)
    if catalog is None:
        catalog = patch_catalog(ms, radius)
    elif catalog.radius != radius:
        raise ValueError(f"catalog is at radius {catalog.radius}, "
                         f"not {radius}")
    centers = sorted(c for cls in catalog.classes for c in cls.centers)
    position = {c: pos for pos, c in enumerate(centers)}

    kind = ms.scheme.kind
    feats = ms.lattice.float_coords()[np.asarray(centers, dtype=np.intp)]
    per_class = []
    overall = 0.0
    any_lb = False
    for ci, cls in enumerate(catalog.classes):
        members = [position[c] for c in cls.centers]
        nearest = _nearest_other(kind, feats, members)
        finite = nearest[np.isfinite(nearest)]
        lb = len(members) == 1
        if lb:
            any_lb = True
        radius_c = float(finite.max()) if finite.size else math.inf
        per_class.append(ClassReturn(ci, len(members), radius_c, lb))
        if math.isfinite(radius_c):
            overall = max(overall, radius_c)
    return RepetitivityReport(radius, tuple(per_class), overall, any_lb)


def _nearest_other(kind: GroupKind, feats: np.ndarray,
                   members: Sequence[int]) -> np.ndarray:
    """Per row of feats, the float symmetric gauge to the nearest row of
    members other than itself (inf if there is none), over tiles of at most
    `PAIR_CHUNK` pairs."""
    members = np.asarray(members)
    nearest = np.full(len(feats), np.inf)
    cols = min(len(members), PAIR_CHUNK)
    rows = max(1, PAIR_CHUNK // cols)
    for a in range(0, len(feats), rows):
        block = np.arange(a, min(a + rows, len(feats)))
        for b in range(0, len(members), cols):
            m = members[b:b + cols]
            dists = _float_sym_gauge(kind, feats[block, None, :],
                                     feats[None, m, :])
            dists[block[:, None] == m[None, :]] = math.inf  # self-returns
            nearest[block] = np.minimum(nearest[block], dists.min(axis=1))
    return nearest


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodReport:
    """Left periods g with gauge(g) <= gauge_bound of a sample.

    candidates_tested counts the elements q * p0^-1 (q a sample point other
    than p0, p0 the first core point) within the gauge bound: every such
    period is one of them."""

    gauge_bound: Fraction
    erosion: Fraction
    core_size: int
    candidates_tested: int
    nontrivial_periods: Tuple[tuple, ...]

    @property
    def periodic(self) -> bool:
        return bool(self.nontrivial_periods)


def period_search(ms: ModelSet, gauge_bound: Fraction,
                  erosion: Fraction) -> PeriodReport:
    """Find every nontrivial g with gauge(g) <= gauge_bound such that g*p
    lies in the sample for every core point p.

    The core is left-eroded at depth erosion >= gauge_bound, so survivors
    cannot be truncation artifacts. Such a g maps the first core point p0
    into the sample, so the candidates q * p0^-1 over the sample points q
    include every one; q -> q * p0^-1 is one to one, so they are distinct.
    """
    gauge_bound = Fraction(gauge_bound)
    erosion = Fraction(erosion)
    if erosion < gauge_bound:
        raise ErosionError(
            f"erosion {erosion} must be at least the gauge bound {gauge_bound}"
        )
    core = left_interior(ms, erosion)
    if not core:
        raise ErosionError(f"eroded core empty at depth {erosion}")
    lat = ms.lattice
    others = np.delete(np.arange(len(lat)), core[0])  # q = p0 is the identity
    g = lat.right_diff(np.full(len(others), core[0]), others)
    rows = g[lat.gauge_leq(g, gauge_bound)].rows()
    candidates = lat.elems(rows)

    # a candidate dies at its first core point p with g*p outside the
    # sample; blocks of core points grow while candidates survive
    alive = np.arange(len(rows))
    core = np.asarray(core)
    start, size = 0, 16
    while alive.size and start < len(core):
        block = core[start:start + size]
        g = candidates[np.repeat(alive, len(block))]
        inside = lat.contains(lat.mul(g, lat.points(np.tile(block,
                                                             len(alive)))))
        alive = alive[inside.reshape(len(alive), len(block)).all(axis=1)]
        start += len(block)
        size = max(1, min(2 * size, PAIR_CHUNK // max(len(alive), 1)))
    survivors = sorted(lat.to_coords(rows[alive].tolist()))
    return PeriodReport(
        gauge_bound=gauge_bound,
        erosion=erosion,
        core_size=len(core),
        candidates_tested=len(rows),
        nontrivial_periods=tuple(survivors),
    )
