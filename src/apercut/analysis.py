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

The two float estimates, the covering radius (grid point to nearest sample
point) and the return radii (centre to nearest other centre of a class),
are max-min problems and share one kernel (`_MaxMin`). It retires a query
as soon as some candidate lies within the running maximum W, which is
exact: a query whose candidate minimum is <= W cannot raise the maximum.
A query with no candidate within W or within the round's radius r has its
nearest target beyond r, since every target within r is a candidate, so
it goes on to the next round, until the radius reaches that target.

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
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .cutproject import ModelSet
from .errors import LIMIT, ErosionError, Record, check_budget
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
from .quadratic import QuadNum, numerator_rows, row_key


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

# Candidate pairs per chunk: bounds the memory of the vectorized predicates.
# At 2^16 the temporaries stay near cache size; 2^18 was no faster on the
# R=8 and R=12 H1 samples. The max-min kernel derives its sizes from it:
# pair tiles of PAIR_CHUNK / 4 for the float gauge, a spread sample of
# PAIR_CHUNK / 1024 queries, and query blocks of PAIR_CHUNK / 3^dim grid
# points or 4 * PAIR_CHUNK / 3^(dim - 1) centres.
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

    def __init__(self, ms: ModelSet, radius: Fraction, points=None,
                 labels=None) -> None:
        """Index the sample points `points` (default: all of them). With
        labels, one non-negative int per indexed point, the label is the
        leading digit of every code, so the points of one label form one
        block of the sorted order, keyed by cell inside it."""
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
        rows = slice(None) if points is None else points
        keys = self._keys(lat.numerators(rows), lat.e, own=True)
        self._cells = CellCodes(keys)
        codes = self._cells.codes
        if labels is not None:
            labels = np.asarray(labels)
            top = (int(labels.max()) + 1) * self._cells.size
            dtype = np.int64 if top < LIMIT else object
            codes = labels.astype(dtype) * self._cells.size + codes.astype(
                dtype)
        self._order = np.argsort(codes, kind="stable")
        self._sorted = codes[self._order]
        self._points = np.arange(len(lat)) if points is None else np.asarray(
            points, dtype=np.intp)
        if points is not None:
            self._order = self._points[self._order]

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
            queries = self._points
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
            lo, counts = self.lookup(*self._cells.neighbors(
                [k[start:start + block] for k in keys]))
            ends = np.cumsum(counts.sum(axis=1))
            a = 0
            while a < len(q):
                base = ends[a - 1] if a else 0
                b = max(a + 1, int(np.searchsorted(ends, base + chunk,
                                                   side="right")))
                yield self._expand(q[a:b], lo[a:b], counts[a:b])
                a = b

    def cell_runs(self, coords: Quad, den: int) -> tuple:
        """The code runs (first, last) of the 3^dim cells around the query
        points with numerators coords over den, without labels: arrays of
        shape (Q, 3^(dim-1)) as from `CellCodes.neighbors`."""
        return self._cells.neighbors(self._keys(coords, den, own=False))

    def lookup(self, first, last, label=0) -> tuple:
        """(lo, count): the indexed points of label (an int, or an int
        array that broadcasts against first) whose cells lie in the runs
        first..last of `cell_runs`, as runs lo..lo+count-1 of the sorted
        order. The label digit is looked up at offset 0 only."""
        label = np.asarray(label)
        if self._sorted.dtype == object:
            label = label.astype(object)
        shift = label * self._cells.size
        lo = np.searchsorted(self._sorted, first + shift, side="left")
        hi = np.searchsorted(self._sorted, last + shift, side="right")
        return lo, hi - lo

    def _expand(self, q, lo, counts) -> tuple:
        per_query = counts.sum(axis=1)
        pos = _expand_runs(lo.ravel(), counts.ravel())
        return np.repeat(q, per_query), self._order[pos]


# ---------------------------------------------------------------------------
# separation
# ---------------------------------------------------------------------------

class SeparationResult(Record):
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

    The grid is walked in blocks, never built whole, and each block goes
    through the max-min kernel (`_MaxMin`) with the sample points as
    targets and a single label. The kernel compares a grid point only with
    the points of its index neighbourhood, at doubling radii r, each
    indexed at r + delta (delta from `_float_gauge_error` bounds
    |float gauge - exact gauge| over the region). A grid point whose
    candidate minimum is <= r has its nearest point among the candidates,
    so it contributes its exact float distance. It retires as soon as some
    candidate lies within the running maximum W: its nearest point is no
    farther than that candidate, so it cannot raise the maximum. A grid
    point with neither has its nearest point beyond r and goes on to the
    next radius. Every grid point either contributes or retires, so the
    estimate equals the full grid-by-sample scan bit for bit. The candidates come from the
    query keys of the grid point itself: exact floors of its coordinates,
    held as integer numerators over one common denominator, and the
    sheared cells of `NeighborIndex` keep every point within r + delta
    among them wherever the region lies.

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
    den = math.lcm(1, *(v.denominator for axis in axes for v in axis))
    num_axes = [int_array([int(v * den) for v in axis])[0] for axis in axes]
    kernel = _MaxMin(ms)
    block = max(1, PAIR_CHUNK // 3 ** len(shape))
    for start in range(0, total, block):
        at = np.unravel_index(np.arange(start, min(start + block, total)),
                              shape)
        u = np.stack([g[a] for g, a in zip(num_axes, at)], axis=1)
        kernel.add([g[a] for g, a in zip(grid_axes, at)],
                   Quad(u, np.zeros_like(u), ms.lattice.d), den)
    return float(kernel.worst[0])


class _MaxMin:
    """The max-min kernel: per label c, the largest over query points q of
    the float symmetric gauge from q to its nearest target of label c,
    q itself excluded (a directed Hausdorff distance per label). Targets
    are sample points, every label has one at least, and `worst[c]` holds
    the running maximum W_c (-inf while no query of label c has a finite
    distance). Queries arrive in blocks (`add`), and each block meets the
    labels one at a time.

    The queries of a label go through rounds at radii r = 2^k, from the
    rung of the label (`_start_rungs`). Round k looks the queries up in one
    `NeighborIndex` of all targets at r + delta, shared by every label and
    every block: the label is the leading digit of its codes, so a query
    looks up the 3^dim cells around it inside the block of its label
    (offset 0 on the label digit). The neighbourhoods of a block's queries
    are computed once per round and shared by the labels. The queries of
    one neighbourhood share its candidate list, ordered by gauge from one
    of them, so that its first ranks are near for each. A query takes its
    candidates in rank tiles of doubling width and leaves as soon as one
    of two things holds:

    * retired: some candidate lies within W_c. Its nearest target is no
      farther, so it cannot raise the maximum, whatever its exact value.
    * settled: all its candidates are in and their minimum m is <= r. The
      nearest target p* of the full scan has float gauge D <= m <= r, so
      its exact gauge is <= r + delta and p* is a candidate: m = D, which
      W_c then takes.

    A query with neither has no candidate within W_c or within r, so its
    nearest target lies beyond r (every target within r is a candidate),
    and it goes on to the next radius. So every query with a finite
    distance leaves by the round whose radius reaches that distance, and
    W_c ends as the maximum of the full scan bit for bit: the float gauge
    takes the full scan's operations (`_Gauge`). Taha and Hanbury, "An efficient algorithm for calculating
    the exact Hausdorff distance" (IEEE TPAMI 37(11), 2015), give the early
    break and the order: while some W_c is unset, a spread sample of the
    block's queries is first compared with every target, which sets each
    W_c near its final value, so the rest mostly retire on their first
    candidate. A block whose queries times targets fit in one pair chunk
    is compared whole the same way.
    """

    def __init__(self, ms: ModelSet, targets=None, labels=None,
                 label_count: int = 1) -> None:
        self.ms = ms
        self.targets = targets
        self.labels = labels
        floats = ms.lattice.float_coords()
        self.cols = [np.ascontiguousarray(floats[:, k])
                     for k in range(floats.shape[1])]
        self.delta = _float_gauge_error(ms.scheme.kind, _float_magnitude(ms))
        self.worst = np.full(label_count, -math.inf)
        points = np.arange(len(ms)) if targets is None else targets
        label = np.zeros(len(points), dtype=np.intp) if labels is None \
            else np.asarray(labels)
        counts = np.bincount(label, minlength=label_count)
        self.start = _start_rungs(ms, counts)
        # the one target of a single-target label is no target for itself
        self.only = np.full(label_count, -1)
        single = counts[label] == 1
        self.only[label[single]] = points[single]
        # the targets by label, for blocks compared with all of them
        by_label = np.argsort(label, kind="stable")
        self.by_label = points[by_label]
        self.label_starts = np.flatnonzero(
            np.r_[True, np.diff(label[by_label]) != 0])
        self.indexes: dict[int, NeighborIndex] = {}
        self.gauge = _Gauge(ms.scheme.kind)
        self.tile = max(1, PAIR_CHUNK >> 2)
        self.sample = max(1, PAIR_CHUNK >> 10)

    def add(self, qcols: list, qnum: Quad, den: int, own=None) -> None:
        """Fold in the query points with float coordinate columns qcols
        and exact numerators qnum (shape (B, dim)) over den; own holds
        their sample indices when they are targets too."""
        size = len(qcols[0])
        if size * len(self.by_label) <= PAIR_CHUNK:
            self._all_pairs(qcols, own, np.arange(size))
            return
        first = np.zeros(size, dtype=bool)
        if (self.worst == -math.inf).any():
            # a spread sample against every target sets each W_c
            first[::max(1, size // self.sample)] = True
            self._all_pairs(qcols, own, np.flatnonzero(first))
        rest = np.flatnonzero(~first)
        self._block = (qcols, qnum, den, own, {})
        for label in range(len(self.worst)):
            queries = rest
            if own is not None and self.only[label] >= 0:
                queries = rest[own[rest] != self.only[label]]
            self._label(label, queries)
        del self._block

    def _all_pairs(self, qcols: list, own, rows: np.ndarray) -> None:
        """The query points rows against every target: a round at a radius
        beyond every distance, so each of them settles."""
        targets = self.by_label
        step = max(1, PAIR_CHUNK // len(targets))
        for s in range(0, len(rows), step):
            q = rows[s:s + step]
            i = np.repeat(q, len(targets))
            j = np.tile(targets, len(q))
            dist = self._gauges(qcols, i, j)
            if own is not None:
                dist[j == own[i]] = math.inf
            nearest = np.minimum.reduceat(dist.reshape(len(q), -1),
                                          self.label_starts, axis=1)
            nearest[np.isinf(nearest)] = -math.inf
            np.maximum(self.worst, nearest.max(axis=0), out=self.worst)

    def _label(self, label: int, queries: np.ndarray) -> None:
        rung = int(self.start[label])
        near = np.full(len(queries), math.inf)
        while queries.size:
            done = self._round(label, rung, queries, near)
            queries, near = queries[~done], near[~done]
            rung += 1

    def _index(self, rung: int) -> NeighborIndex:
        index = self.indexes.get(rung)
        if index is None:
            index = self.indexes[rung] = NeighborIndex(
                self.ms, Fraction(2) ** rung + self.delta, self.targets,
                self.labels)
        return index

    def _hoods(self, rung: int, index: NeighborIndex,
               queries: np.ndarray) -> tuple:
        """Per query, its neighbourhood: a row of the distinct code runs
        (first, last) of `NeighborIndex.cell_runs`. With several labels
        the rows of the whole block are computed once per round."""
        _, qnum, den, _, cache = self._block
        if len(self.worst) == 1:  # nothing to share: the open queries only
            return _distinct_rows(*index.cell_runs(qnum[queries], den))
        if rung not in cache:
            cache[rung] = _distinct_rows(*index.cell_runs(qnum, den))
        hood, first, last = cache[rung]
        return hood[queries], first, last

    def _round(self, label: int, rung: int, queries: np.ndarray,
               near: np.ndarray) -> np.ndarray:
        """One round at radius 2^rung for the queries of label, whose
        running minima near it updates; returns which are done."""
        r = 2.0 ** rung  # a power of two: the float is exact
        worst = self.worst
        done = near <= worst[label]
        live = np.flatnonzero(~done)
        if not live.size:
            return done
        index = self._index(rung)
        hood, first, last = self._hoods(rung, index, queries)
        need = np.zeros(len(first), dtype=bool)
        need[hood[live]] = True
        lo, cnt = index.lookup(first[need], last[need], label)
        total = cnt.sum(axis=1)
        row = (np.cumsum(need) - 1)[hood]  # per query, a row of lo and cnt
        live = live[total[row[live]] > 0]
        if not live.size:
            return done
        # each row's candidates, nearest to one of its queries first: the
        # queries of a row share their cells, so its early ranks are near
        # for each of them
        qcols, _, _, own, _ = self._block
        rep = np.empty(len(total), dtype=np.intp)
        rep[row[live[::-1]]] = queries[live[::-1]]
        owner = np.repeat(np.arange(len(total)), total)
        target = index._order[_expand_runs(lo.ravel(), cnt.ravel())]
        key = self._gauges(qcols, rep[owner], target)
        target = target[np.lexsort((key, owner))]
        start = np.cumsum(total) - total
        a, b = 0, 1
        while live.size:
            # ranks a..b-1 of the live queries' candidates
            rows = row[live]
            if a == 0:  # one each
                pair, cand = live, target[start[rows]]
            else:
                n = np.minimum(total[rows], b) - a
                pair = np.repeat(live, n)
                cand = target[_expand_runs(start[rows] + a, n)]
            q = queries[pair]
            g = self._gauges(qcols, q, cand)
            if own is not None:
                g[cand == own[q]] = math.inf
            if a == 0:
                np.minimum(near[live], g, out=g)
                near[live] = g
            else:
                _min_into(near, pair, g)
            retired = near[live] <= worst[label]
            spent = total[rows] <= b
            settled = spent & ~retired & (near[live] <= r)
            if settled.any():
                worst[label] = max(worst[label], near[live[settled]].max())
            done[live[retired | settled]] = True
            live = live[~(retired | spent)]
            a, b = b, 2 * b
        return done

    def _gauges(self, qcols: list, i: np.ndarray, j: np.ndarray
                ) -> np.ndarray:
        """The float gauges of the pairs (i, j), tile by tile."""
        out = np.empty(len(i))
        for s in range(0, len(i), self.tile):
            out[s:s + self.tile] = self.gauge(qcols, self.cols,
                                              i[s:s + self.tile],
                                              j[s:s + self.tile])
        return out


def _start_rungs(ms: ModelSet, counts: np.ndarray) -> np.ndarray:
    """Per label with counts[c] >= 1 targets, the exponent k whose radius
    2^k lies nearest (in log scale) the typical nearest distance to them:
    the radius whose gauge ball would hold one target if they spread
    evenly over the region (axes narrower than 1 taken as 1). The
    radius is only a starting guess; the rounds are exact from any."""
    kind = ms.scheme.kind
    if kind.family is Family.EUCLIDEAN:
        ball, dim = kind.rank, kind.rank  # log2 of the unit ball's volume
    else:
        ball, dim = 2 * kind.rank + 1, 2 * kind.rank + 2
    volume = sum(math.log2(max(hi - lo, 1)) for lo, hi in ms.region.intervals)
    return np.rint((volume - ball - np.log2(counts)) / dim).astype(np.intp)


def _distinct_rows(first: np.ndarray, last: np.ndarray) -> tuple:
    """Per row of (first, last), the index of its distinct row; and the
    distinct rows, ordered by their first code. Rows are told apart by a
    64-bit polynomial hash, checked row by row; on a collision they are
    sorted instead. Python-int codes are not deduplicated."""
    if first.dtype == object:
        return np.arange(len(first)), first, last
    rows = np.hstack([first, last])
    base = 0x9E3779B97F4A7C15
    weights = np.array([pow(base, k + 1, 1 << 64)
                        for k in range(rows.shape[1])], dtype=np.uint64)
    with np.errstate(over="ignore"):
        code = (rows.astype(np.uint64) * weights).sum(axis=1)
    _, index, inverse = np.unique(code, return_index=True,
                                  return_inverse=True)
    inverse = inverse.reshape(-1)
    if not np.array_equal(rows[index][inverse], rows):
        _, index, inverse = np.unique(rows, axis=0, return_index=True,
                                      return_inverse=True)
        inverse = inverse.reshape(-1)
    # sorted needles make the label lookups' binary searches cheap
    order = np.argsort(first[index, 0], kind="stable")
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order))
    index = index[order]
    return rank[inverse], first[index], last[index]


def _expand_runs(begin: np.ndarray, count: np.ndarray) -> np.ndarray:
    """begin[k], begin[k] + 1, ..., begin[k] + count[k] - 1 for every k,
    concatenated."""
    total = int(count.sum())
    return np.repeat(begin - (np.cumsum(count) - count), count) + np.arange(
        total)


def _min_into(best: np.ndarray, idx: np.ndarray, values: np.ndarray) -> None:
    """best[idx] = min(best[idx], values), for a sorted idx."""
    first = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
    at = idx[first]
    best[at] = np.minimum(best[at], np.minimum.reduceat(values, first))


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
    """A power of two delta >= |float gauge - exact gauge| of c^-1 p, for c
    a rational grid point or a sample point and p a sample point, whose
    magnitudes and float conversions are bounded by `bound` = B >= 1 as in
    `_float_magnitude`.

    With u = 2^-53, each float operation is exact up to a factor (1 + e),
    |e| <= u. A grid coordinate converts with error <= u*B, and a sample
    coordinate, computed as (p + q*sqrt(d))/den, with error <= 7u*B (about
    3u on each of |p| and |q|sqrt(d), and u on the sum). So both operands
    are off by <= 7u*B, their difference (|.| <= 2B) by <= 14u*B before and
    16.1u*B after its own rounding, and the coordinate terms of the gauge
    and their maximum by <= 17u*B. For H_n, each product x*dy is off by
    <= B*17u*B + 2.03B*7u*B + 2.03u*B^2 <= 34u*B^2 (|dy| <= 2.03B with its
    error); with dt off by 17u*B and the roundings of the n-term sum and of
    the subtraction (<= 2.1(n^2 + n)u*B^2 + 2.03u*B), each t part tau is
    off by E <= (2.1n^2 + 37n + 20)u*B^2 <= 32(n+1)^2 u*B^2, as B >= 1.
    sqrt is not Lipschitz at 0, but |sqrt(a) - sqrt(b)| <= sqrt|a - b|,
    and rounding the sqrt adds u*sqrt|tau| <= 2(n+1)u*B; so the sqrt term
    is off by at most sqrt(E) + 2(n+1)u*B = (n+1)*B*(2^-24 + 2^-52), which
    exceeds 17u*B. The bound is rounded up to a power of two, which keeps
    the index cell sizes r + delta short fractions.
    """
    u = Fraction(1, 1 << 53)
    if kind.family is Family.EUCLIDEAN:
        err = 17 * u * bound
    else:
        err = (kind.rank + 1) * bound * (Fraction(1, 1 << 24) + 2 * u)
    delta = Fraction(1)
    while delta < err:
        delta *= 2
    while delta / 2 >= err:
        delta /= 2
    return delta


class _Gauge:
    """The float symmetric gauge of c^-1 p for the pairs (c, p) = (q[i],
    t[j]) of index arrays i, j into the float coordinate columns q and t
    (one 1-D array per coordinate). It takes the full scan's operations in
    its order, so it gives the same floats, computed column by column into
    buffers allocated once and reused (they grow to the largest tile)."""

    def __init__(self, kind: GroupKind) -> None:
        self.kind = kind
        self.size = 0

    def _buffers(self, size: int) -> None:
        if size <= self.size:
            return
        self.size = size
        self.out, self.a, self.b, self.dt = (np.empty(size) for _ in range(4))
        if self.kind.family is Family.HEISENBERG:
            n = self.kind.rank
            self.dy = np.empty((n, size))
            self.c_dy = np.empty((size, n))
            self.p_dy = np.empty((size, n))

    def __call__(self, q: list, t: list, i: np.ndarray,
                 j: np.ndarray) -> np.ndarray:
        size = len(i)
        self._buffers(size)
        out, a, b = self.out[:size], self.a[:size], self.b[:size]
        if self.kind.family is Family.EUCLIDEAN:
            # max_k |p_k - c_k|
            for k in range(len(q)):
                np.take(t[k], j, out=a)
                np.take(q[k], i, out=b)
                np.subtract(a, b, out=a)
                np.abs(a, out=a)
                if k:
                    np.maximum(out, a, out=out)
                else:
                    np.copyto(out, a)
            return out
        n = self.kind.rank
        dy, dt = self.dy[:, :size], self.dt[:size]
        c_dy, p_dy = self.c_dy[:size], self.p_dy[:size]
        for k in range(n):
            np.take(t[n + k], j, out=dy[k])
            np.take(q[n + k], i, out=a)
            np.subtract(dy[k], a, out=dy[k])
        np.take(t[2 * n], j, out=dt)
        np.take(q[2 * n], i, out=a)
        np.subtract(dt, a, out=dt)
        for k in range(n):
            np.take(q[k], i, out=a)        # c_x
            np.take(t[k], j, out=b)        # p_x
            np.multiply(a, dy[k], out=c_dy[:, k])
            np.multiply(b, dy[k], out=p_dy[:, k])
            np.subtract(b, a, out=a)       # dx
            np.abs(a, out=a)
            np.abs(dy[k], out=b)
            np.maximum(a, b, out=a)
            if k:
                np.maximum(out, a, out=out)
            else:
                np.copyto(out, a)
        # the t parts of c^-1 p and of p^-1 c, summed as the (P, n) rows of
        # the full scan
        np.sum(c_dy, axis=1, out=a)
        np.subtract(dt, a, out=a)
        np.sum(p_dy, axis=1, out=b)
        np.subtract(b, dt, out=b)
        np.abs(a, out=a)
        np.abs(b, out=b)
        np.maximum(a, b, out=a)
        np.sqrt(a, out=a)
        np.maximum(out, a, out=out)
        return out


class DeloneReport(Record):
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

class PatchClass(Record):
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


class PatchCatalog(Record):
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
    distance radius; and, per distinct patch, those coordinates as exact
    tuples, ordered by `row_order` before they are converted."""
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
    order = row_key(lat.kind.coord_count, lat.d)
    coords = {key: tuple(lat.to_coords(sorted(key, key=order)))
              for key in set(keys)}
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


def complexity_table(ms: ModelSet,
                     radii: Sequence[Fraction]) -> list[PatchCatalog]:
    """The patch catalog at each radius, in the order given."""
    return [patch_catalog(ms, Fraction(r)) for r in radii]


# ---------------------------------------------------------------------------
# repetitivity
# ---------------------------------------------------------------------------

class ClassReturn(Record):
    class_index: int
    multiplicity: int
    return_radius: float
    lower_bound_only: bool


class RepetitivityReport(Record):
    radius: Fraction
    per_class: Tuple[ClassReturn, ...]
    max_return_radius: float
    any_lower_bound: bool


def repetitivity_radii(ms: ModelSet, radius: Fraction,
                       catalog: PatchCatalog | None = None
                       ) -> RepetitivityReport:
    """Finite-sample return radii: for each patch class, the largest over
    interior centers of the float distance to the nearest other center
    carrying that class. Classes seen only once are flagged as lower bounds
    (their recurrence lies beyond the sampled region). `catalog`, if given,
    is `patch_catalog(ms, radius)`, already built.

    The centers go through the max-min kernel (`_MaxMin`) as queries and as
    targets, labelled by class, with one index per round for all classes
    (the class is the leading digit of its codes). A pair (center, class)
    retires as soon as some other center of the class lies within the
    class's running maximum: its nearest one is no farther, so it cannot
    raise that maximum. A pair with no candidate within that maximum or
    within the round's radius has its nearest one beyond the radius, and
    the rounds go on until they find it. So each radius equals the full
    scan's bit for bit."""
    radius = Fraction(radius)
    if catalog is None:
        catalog = patch_catalog(ms, radius)
    elif catalog.radius != radius:
        raise ValueError(f"catalog is at radius {catalog.radius}, "
                         f"not {radius}")
    centers = np.array(sorted(c for cls in catalog.classes
                              for c in cls.centers), dtype=np.intp)
    labels = np.empty(len(centers), dtype=np.intp)
    for ci, cls in enumerate(catalog.classes):
        labels[np.searchsorted(centers, cls.centers)] = ci
    count = len(catalog.classes)
    kernel = _MaxMin(ms, centers, labels, count)
    lat = ms.lattice
    # the block's neighbourhoods are kept per round: 4 * PAIR_CHUNK rows
    block = max(1, 4 * PAIR_CHUNK // 3 ** (lat.kind.coord_count - 1))
    for start in range(0, len(centers), block):
        idx = centers[start:start + block]
        kernel.add([c[idx] for c in kernel.cols], lat.numerators(idx), lat.e,
                   own=idx)
    per_class = []
    for ci, cls in enumerate(catalog.classes):
        w = float(kernel.worst[ci])
        per_class.append(ClassReturn(ci, cls.multiplicity,
                                     w if w >= 0 else math.inf,
                                     cls.multiplicity == 1))
    finite = [c.return_radius for c in per_class
              if math.isfinite(c.return_radius)]
    return RepetitivityReport(radius, tuple(per_class), max(finite, default=0.0),
                              any(c.lower_bound_only for c in per_class))


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

class PeriodReport(Record):
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
    survivors = lat.to_coords(sorted(
        rows[alive].tolist(), key=row_key(lat.kind.coord_count, lat.d)))
    return PeriodReport(
        gauge_bound=gauge_bound,
        erosion=erosion,
        core_size=len(core),
        candidates_tested=len(rows),
        nontrivial_periods=tuple(survivors),
    )
