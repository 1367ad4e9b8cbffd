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

Every sample lies in the product of its axes: one ascending list of values
per coordinate (`ModelSet.axes`). Every sample the CLI builds or reads is
that whole product, and every phase runs here, in pure Python, on the axes
(`Grid`). The product is (x, y, t)(a, b, tau) = (x + a, y + b, t + tau +
<x, b>), so the points q with gauge(p^-1 q) <= r of a point p = (x, y, t)
are found one axis at a time: x' within r of x and y' within r of y on
their axes by bisection, then, for each b = y' - y, the t' of the t axis
around s_b = t + <x, b> with tau = t' - s_b inside [-r^2, r^2] and <a, b>
- tau too (a = x' - x). Every bound is decided exactly, on integer
numerators over e or e^2 (`quadratic.sign_pq`), with floats only to skip
comparisons they settle with a proven margin. On Z^m each axis stands
alone. The phases built on that neighbourhood:

* interior cores: per-axis bounds, and a t bound that depends only on the
  anchor coordinates;
* separation: the least x gap, the least t gap, then pairs with dy != 0;
  the certificate comes from index arithmetic over the product order;
* patches: one neighbourhood per x, per y and per (x, t, b), shared by
  every centre that needs it;
* return radii and the covering estimate: for a query, the head rows (x',
  y') in order of increasing head gauge max(|dx|, |dy|), and in each row
  the t' around t + <x, dy> + <dx, dy>/2, in the float operations and
  order of the full scan; the return radii of a class skip the head rows
  of queries that a bound from the gaps of its rows shows cannot raise
  its maximum;
* the period search: candidates from the neighbourhood of the first core
  point, tested by membership on the axes.

On one axis the return radii need only the neighbours of each centre in
index order. A sample that is no whole product (`ModelSet.from_points`
sets), or whose float order disagrees with its exact order, has a grid with
members, the cells that hold its points; each exact phase keeps only
those. Its cores are the members of the interior runs, its period
candidates the members among the candidates, and its patches and
separation pairs come from `NeighborIndex`, which finds the members within
a radius row by row. Its two float estimates scan every row of its points
with the same kernel, `_MaxMin`, with no bound that skips a row of
queries.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, Tuple

from .cutproject import ModelSet
from .errors import ErosionError, Record, check_budget
from .heisenberg import Family, GroupKind
# perfbench/worker.py looks these up on this module to count their calls
from .heisenberg import (  # noqa: F401
    mul_coords,
    qnorm_leq,
    sym_dist_leq,
    sym_dist_sq,
)
from .quadratic import QuadNum, numerator_rows, row_key, row_order, sign_pq


def element_coords(kind: GroupKind, d: int, e: int,
                   rows: Sequence[Sequence[int]]) -> list:
    """Exact `QuadNum` coordinates of group elements given as numerator
    rows: the u parts of the coordinates, then the w parts, the head
    coordinates over e and, for H_n, t over e^2."""
    c = kind.coord_count
    head = c if kind.family is Family.EUCLIDEAN else c - 1
    dens = [e] * head + [e * e] * (c - head)
    return [tuple(QuadNum._mk(row[k], row[c + k], dens[k], d)
                  for k in range(c))
            for row in rows]


def _product(a: tuple, b: tuple, d: int) -> tuple:
    """(a0 + a1*sqrt(d)) * (b0 + b1*sqrt(d)) as a numerator pair."""
    return a[0] * b[0] + a[1] * b[1] * d, a[0] * b[1] + a[1] * b[0]


def _dot(xs: Sequence[tuple], ys: Sequence[tuple], d: int) -> tuple:
    u = w = 0
    for a, b in zip(xs, ys):
        pu, pw = _product(a, b, d)
        u += pu
        w += pw
    return u, w


# ---------------------------------------------------------------------------
# the axes of a product sample
# ---------------------------------------------------------------------------

# Floats decide a comparison only when they clear it by this fraction of
# the magnitudes involved. A float computed from integer numerators p, q
# as (p + q*sqrt(d))/den, or as a short sum of such floats, is off by a
# few units of 2^-53 times |p|/den + |q|*sqrt(d)/den, far below 2^-40.
FLOAT_SLACK = 2.0 ** -40


class Grid:
    """The axes of a sample, prepared for the axis kernels. Per axis k:
    `values[k]`, the ascending numerator pairs (u, w) over e (`ModelSet.axes`),
    and `floats[k]`, each equal to float() of its value as
    `ModelSet.float_points` computes it, so the float gauges here are those
    of the full scans. `magnitude` bounds (|u| + |w|*sqrt(d))/e over every
    axis value.

    The sample points lie in the product of the axes; a cell of the product
    is a tuple of axis indices, or its mixed-radix index. `members` is None
    when the sample is that whole product, its points in index order, and
    every axis's float order is its exact order: the product kernels serve
    it. Otherwise `members` lists the index of each point's cell, ascending
    as the points are sorted, so the points of a run of cells are a run of
    point indices; the exact phases then keep the cells that are members,
    and the float estimates scan the rows of the points."""

    def __init__(self, ms: ModelSet) -> None:
        self.kind = kind = ms.scheme.kind
        self.d = d = ms.scheme.d
        self.e = e = ms.e
        self.region = ms.region
        self.root = root = math.sqrt(d)
        self.values = ms.axes
        self.floats = [[(u + w * root) / e for u, w in axis]
                       for axis in self.values]
        self.ordered = [f == sorted(f) for f in self.floats]
        self.sizes = [len(axis) for axis in self.values]
        strides, stride = [], 1
        for size in reversed(self.sizes):
            strides.append(stride)
            stride *= size
        self.strides = strides[::-1]
        self.size = stride
        self.magnitude = max([1.0] + [
            (max(map(abs, map(itemgetter(0), axis)), default=0)
             + max(map(abs, map(itemgetter(1), axis)), default=0) * root) / e
            for axis in self.values])
        self.heisenberg = kind.family is Family.HEISENBERG
        self.n = kind.rank
        # the head axes: all of Z^m, x and y of H_n
        self.head = 2 * kind.rank if self.heisenberg else kind.rank
        self._gaps: dict = {}
        self.members = None
        if not ms.is_product or not all(self.ordered):
            c, at = len(self.values), self.positions
            self.members = [self.index([at[k][row[k], row[c + k]]
                                        for k in range(c)])
                            for row in ms.rows]

    @functools.cached_property
    def positions(self) -> list[dict]:
        """Per axis, each value's index."""
        return [{v: i for i, v in enumerate(axis)} for axis in self.values]

    def index_of(self, point: int) -> int:
        """The index of the cell of a sample point."""
        return point if self.members is None else self.members[point]

    def cell_of(self, point: int) -> list[int]:
        """The axis indices of a sample point."""
        return self.cell(self.index_of(point))

    def points(self, start: int, stop: int) -> range:
        """The sample points in the cells of index start..stop-1."""
        if self.members is None:
            return range(start, stop)
        return range(bisect_left(self.members, start),
                     bisect_left(self.members, stop))

    def present(self, ranges: Sequence[range]) -> list[tuple]:
        """The cells of the product of index ranges of the first axes that
        hold sample points, in index order, each with the index of its
        first cell on all axes; found one axis at a time, among the runs of
        points of the cells found so far, so the work grows with the cells
        present."""
        members = range(self.size) if self.members is None else self.members
        level = [((), 0, 0, len(members))]
        for window, stride in zip(ranges, self.strides):
            found = []
            for cell, base, lo, hi in level:
                at = bisect_left(members, base + window.start * stride, lo, hi)
                end = bisect_left(members, base + window.stop * stride, at, hi)
                while at < end:
                    j = (members[at] - base) // stride
                    start = base + j * stride
                    stop = bisect_left(members, start + stride, at, end)
                    found.append((cell + (j,), start, at, stop))
                    at = stop
            level = found
        return [(cell, base) for cell, base, _, _ in level]

    def slack(self, *magnitudes: float) -> float:
        return FLOAT_SLACK * (self.magnitude + 1 + sum(magnitudes))

    def index(self, cell: Sequence[int]) -> int:
        """The point index of the axis indices cell."""
        return sum(i * s for i, s in zip(cell, self.strides))

    def cell(self, index: int) -> list[int]:
        """The axis indices of the point index."""
        out = []
        for size in reversed(self.sizes):
            index, i = divmod(index, size)
            out.append(i)
        return out[::-1]

    def first(self, k: int, bound: tuple, strict: bool = False) -> int:
        """The first index of axis k whose value is >= bound (> bound when
        strict), for bound = (U, W, D), the value (U + W*sqrt(d))/D, D > 0.
        On an axis in float order, floats settle every value that clears
        the bound by the slack; the rest are bisected exactly."""
        u_b, w_b, den = bound
        values, e, d = self.values[k], self.e, self.d
        i, j = 0, len(values)
        if self.ordered[k]:
            fb = (u_b + w_b * self.root) / den
            slack = self.slack((abs(u_b) + abs(w_b) * self.root) / den)
            floats = self.floats[k]
            i = bisect_left(floats, fb - slack)
            j = bisect_left(floats, fb + slack, i)
        least = 1 if strict else 0
        while i < j:
            mid = (i + j) // 2
            if sign_pq(values[mid][0] * den - u_b * e,
                       values[mid][1] * den - w_b * e, d) < least:
                i = mid + 1
            else:
                j = mid
        return i

    def span(self, k: int, lo: tuple, hi: tuple) -> range:
        """The indices of axis k with values in the closed interval [lo,
        hi], bounds as in `first`."""
        return range(self.first(k, lo), self.first(k, hi, strict=True))

    def around(self, k: int, i: int, r: Fraction) -> range:
        """The indices of axis k with values within r of that of index i."""
        u, w = self.values[k][i]
        p, q, e = r.numerator, r.denominator, self.e
        return self.span(k, (q * u - p * e, q * w, q * e),
                         (q * u + p * e, q * w, q * e))

    def rational_span(self, k: int, lo: Fraction, hi: Fraction) -> range:
        return self.span(k, (lo.numerator, 0, lo.denominator),
                         (hi.numerator, 0, hi.denominator))

    def gaps(self, k: int) -> tuple:
        """(ids, gaps): per index i of axis k but the last, an id of the
        gap from value i to value i + 1, equal ids for equal gaps; and the
        distinct gaps (u, w) over e, gaps[id] the gap of that id."""
        table = self._gaps.get(k)
        if table is None:
            values, seen = self.values[k], {}
            ids = [seen.setdefault((b[0] - a[0], b[1] - a[1]), len(seen))
                   for a, b in zip(values, values[1:])]
            table = self._gaps[k] = ids, list(seen)
        return table

    def windows(self, k: int, cells: range, radius: Fraction) -> tuple:
        """Per index i in cells, the index range lo..hi-1 of the values of
        axis k within radius of value i, and a key of the window, equal for
        equal lists of differences v_j - v_i: the offset i - lo and the ids
        of the gaps inside the window fix them. Returns the lists (ranges,
        keys), aligned with cells."""
        values, floats, n = self.values[k], self.floats[k], self.sizes[k]
        a, b = radius.numerator, radius.denominator
        e, d = self.e, self.d
        rf = float(radius)
        slack = self.slack(rf)

        def within(i: int, j: int) -> bool:
            # v_j - v_i <= radius, for i <= j
            diff = floats[j] - floats[i]
            if diff < rf - slack:
                return True
            if diff > rf + slack:
                return False
            return sign_pq(b * (values[j][0] - values[i][0]) - a * e,
                           b * (values[j][1] - values[i][1]), d) <= 0

        gaps = self.gaps(k)[0]
        ranges, keys = [], []
        if not cells:
            return ranges, keys
        u, w = values[cells.start]
        lo = self.first(k, (b * u - a * e, b * w, b * e))
        hi = cells.start
        for i in cells:
            while not within(lo, i):
                lo += 1
            hi = max(hi, i + 1)
            while hi < n and within(i, hi):
                hi += 1
            ranges.append((lo, hi))
            keys.append((i - lo, tuple(gaps[lo:hi - 1])))
        return ranges, keys

    def diffs(self, k: int, i: int, cells: range) -> list[tuple]:
        """v_j - v_i over j in cells, as numerator pairs over e."""
        values = self.values[k]
        u, w = values[i]
        return [(values[j][0] - u, values[j][1] - w) for j in cells]

    def t_bound(self, s: tuple, shift: Fraction) -> tuple:
        """The bound s + shift, for s = (U, W) over e^2 and a rational
        shift, as (U, W, D)."""
        p, q = shift.numerator, shift.denominator
        e2 = self.e * self.e
        return q * s[0] + p * e2, q * s[1], q * e2


# ---------------------------------------------------------------------------
# interior cores
# ---------------------------------------------------------------------------

def _t_margin(k: Fraction, span: Fraction) -> Fraction:
    """Heisenberg t-axis reach K^2 + K*span of translates by gauge(g) <= k
    from a point (or region) with sum|x_i| (or sum|y_i|) at most span."""
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
    grid = ms.grid
    index: list[int] = []
    for _, cells, base in _interior_runs(grid, depth, use_x_margin):
        index += grid.points(base + cells.start, base + cells.stop)
    return index


def _interior_runs(grid: Grid, depth: Fraction, use_x_margin: bool
                   ) -> Iterator[tuple]:
    """The interior at depth as runs along the last axis, in index order:
    (head cell, last-axis index range, index of the head cell's first
    point). The head axes keep the values within [lo + depth, hi - depth];
    on H_n the t axis keeps lo + m <= t <= hi - m, the margin m = depth^2 +
    depth * sum|anchor| of the anchor coordinates (x for right translates,
    y for left ones)."""
    ivs = grid.region.intervals
    last = len(ivs) - 1
    heads = [grid.rational_span(k, lo + depth, hi - depth)
             for k, (lo, hi) in enumerate(ivs[:last])]
    lo, hi = ivs[last]
    if not grid.heisenberg:
        cells = grid.rational_span(last, lo + depth, hi - depth)
        for head, base in grid.present(heads):
            yield head, cells, base
        return
    n, d, e = grid.n, grid.d, grid.e
    anchor = range(n) if use_x_margin else range(n, 2 * n)
    a, b = depth.numerator, depth.denominator
    low, high = lo + depth * depth, hi - depth * depth
    spans: dict = {}
    for head, base in grid.present(heads):
        key = tuple(head[k] for k in anchor)
        cells = spans.get(key)
        if cells is None:
            # sum|anchor| as numerators (su, sw) over e
            su = sw = 0
            for k in anchor:
                u, w = grid.values[k][head[k]]
                sign = 1 if sign_pq(u, w, d) >= 0 else -1
                su, sw = su + sign * u, sw + sign * w
            # low + depth*span and high - depth*span over q*b*e
            bounds = [(r.numerator * b * e + s * a * r.denominator * su,
                       s * a * r.denominator * sw, r.denominator * b * e)
                      for r, s in ((low, 1), (high, -1))]
            cells = spans[key] = grid.span(last, *bounds)
        yield head, cells, base


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

    The squared distance is exact (squared symmetric gauges stay inside
    the field), and the certificate is the lexicographically smallest pair
    (i, j), i < j, at the minimum. The bracket's upper end is the first
    radius `_initial_radius` * 2^k whose square reaches the minimum, and a
    40-step rational bisection on the exact square then brackets the
    minimum inside [0, that radius].
    """
    if len(ms) < 2:
        return SeparationResult(math.inf, None, None, None)
    radius = _initial_radius(ms)
    grid = ms.grid
    if grid.members is None:
        (u, w), best_pair = _axis_separation(grid)
    else:
        (u, w), best_pair = _masked_separation(ms, radius)
    e2 = ms.e * ms.e
    best_sq = QuadNum._mk(u, w, e2, ms.scheme.d)
    while best_sq > radius * radius:
        radius *= 2

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


def _masked_separation(ms: ModelSet, radius: Fraction) -> tuple:
    """((u, w), (i, j)) of `separation` on a grid with members: the pairs
    within the radius from `NeighborIndex`, the radius doubled until some
    pair is within it. Two points differ on some axis by at least its least
    gap, so the doubling starts at the first radius that the least squared
    gauge of such a step can reach."""
    grid = ms.grid
    d, e2 = grid.d, grid.e * grid.e
    ex = _Exact(d)
    steps = []
    for k in range(len(grid.sizes)):
        g = _least_gaps(grid, k)[0]
        if g is not None:
            t = grid.heisenberg and k == grid.head
            steps.append((grid.e * g[0], grid.e * g[1]) if t
                         else _product(g, g, d))
    low = ex.min(steps)
    while QuadNum._mk(low[0], low[1], e2, d) > radius * radius:
        radius *= 2
    while True:
        index = NeighborIndex(ms, radius)
        best = pair = None
        for i in range(len(ms)):
            for row, j in index.near(grid.cell_of(i)):
                if j > i and (best is None or index.below(row, best)):
                    best, pair = index.sq_gauge(row), (i, j)
        if best is not None:
            return best, pair
        radius *= 2


class _Exact:
    """Exact comparisons of values (u, w) over one common denominator."""

    def __init__(self, d: int) -> None:
        self.d = d

    def cmp(self, a: tuple, b: tuple) -> int:
        return sign_pq(a[0] - b[0], a[1] - b[1], self.d)

    def min(self, values: Iterator[tuple]) -> tuple | None:
        best = None
        for v in values:
            if best is None or self.cmp(v, best) < 0:
                best = v
        return best

    def max(self, values: Iterable[tuple]) -> tuple | None:
        best = None
        for v in values:
            if best is None or self.cmp(v, best) > 0:
                best = v
        return best

    def abs(self, a: tuple) -> tuple:
        return a if sign_pq(a[0], a[1], self.d) >= 0 else (-a[0], -a[1])


def _least_gaps(grid: Grid, k: int) -> tuple:
    """(g, starts): the least gap g = (u, w) over e between consecutive
    values of axis k (None for fewer than two), and the indices i whose
    gap to i + 1 is g."""
    ids, gaps = grid.gaps(k)
    best = _Exact(grid.d).min(gaps)
    if best is None:
        return None, []
    least = gaps.index(best)
    return best, [i for i, g in enumerate(ids) if g == least]


def _axis_separation(grid: Grid) -> tuple:
    """((u, w), (i, j)): the least squared symmetric gauge over e^2 and its
    certificate, on a product sample of two points at least.

    Z^m: the least squared gap of any axis; a pair at it has that gap on
    some axis and at most it on the others, so the pair (p, q) with the
    least p and then the least q is found by index arithmetic. H_n: the
    least of the least squared x gap, the least t gap (a t-only pair has
    squared gauge |dt|) and, when the least squared y gap is below both,
    the least over pairs with dy != 0 (`_least_dy_pair`); the certificate
    then comes from the points in index order that can reach the minimum
    (`_first_pair`)."""
    d, e = grid.d, grid.e
    ex = _Exact(d)
    least = [_least_gaps(grid, k) for k in range(grid.head)]
    square = [None if g is None else _product(g, g, d) for g, _ in least]
    if not grid.heisenberg:
        best = ex.min(s for s in square if s is not None)
        starts = [at if s == best else [] for s, (_, at) in zip(square, least)]
        return best, _first_euclidean_pair(grid, starts)
    n = grid.n
    t_gap = _least_gaps(grid, 2 * n)[0]
    candidates = [s for s in square[:n] if s is not None]
    if t_gap is not None:
        candidates.append((e * t_gap[0], e * t_gap[1]))
    best = ex.min(candidates)
    least_y = ex.min(s for s in square[n:] if s is not None)
    if least_y is not None and (best is None or ex.cmp(least_y, best) < 0):
        below = _least_dy_pair(grid, best)
        if below is not None:
            best = below
    return best, _first_pair(grid, best)


def _first_euclidean_pair(grid: Grid, starts: list) -> tuple:
    """The certificate on Z^m. Let S_k = starts[k] hold the indices of
    axis k whose gap to the next squares to the minimum (empty when the
    least gap of axis k is larger). A point pairs at the minimum with a
    later one exactly when some axis k has its index in S_k, and its least
    partner moves the last such axis one step up. The least such point is
    the origin cell when some S_k holds 0, and otherwise the cell with min
    S_K on the last axis K whose S_K is not empty."""
    zero = [k for k, s in enumerate(starts) if s and s[0] == 0]
    if zero:
        k = zero[-1]
        return 0, grid.strides[k]
    k = max(k for k, s in enumerate(starts) if s)
    i = starts[k][0] * grid.strides[k]
    return i, i + grid.strides[k]


def _least_dy_pair(grid: Grid, bound: tuple | None) -> tuple | None:
    """The least squared gauge (u, w) over e^2 of a pair with dy != 0 on
    H_n, if it is below bound (over e^2; None for no bound), else None.

    Below the bound, which is at most the least squared x gap, such a pair
    has dx = 0, so for x and b = dy its squared gauge is max(|b|^2, |tau|)
    with tau = t' - t - <x, b>: for each t the best t' is a neighbour of
    t + <x, b> on the t axis. y itself enters only through which b the y
    axes realise."""
    n, d, e = grid.n, grid.d, grid.e
    ex = _Exact(d)
    larger = functools.cmp_to_key(ex.cmp)
    ts, tf = grid.values[2 * n], grid.floats[2 * n]

    def below(v: tuple) -> bool:
        return bound is None or ex.cmp(v, bound) < 0

    def steps(k: int) -> set:
        # the differences of axis k with squares below the bound
        values = grid.values[k]
        return {v for v in ((b[0] - a[0], b[1] - a[1])
                            for a in values for b in values)
                if below(_product(v, v, d))}
    dys = [v for v in itertools.product(*[steps(n + k) for k in range(n)])
           if any(c != (0, 0) for c in v)]
    best = None
    for x in itertools.product(*grid.values[:n]):
        for dy in dys:
            head = max((_product(v, v, d) for v in dy), key=larger)
            c = _dot(x, dy, d)
            cf = (c[0] + c[1] * grid.root) / (e * e)
            for t, (tu, tw) in enumerate(ts):
                j = bisect_left(tf, tf[t] + cf)
                for near in ts[max(j - 1, 0):j + 2]:
                    tau = ex.abs((e * (near[0] - tu) - c[0],
                                  e * (near[1] - tw) - c[1]))
                    value = max(head, tau, key=larger)
                    if below(value) and (best is None
                                         or ex.cmp(value, best) < 0):
                        best = value
    return best


def _first_pair(grid: Grid, best: tuple) -> tuple:
    """The certificate on H_n: the least pair (i, j), i < j, whose squared
    gauge is best (u, w) over e^2, the least over all pairs.

    A pair within best has squared gauge best. A point whose head axes all
    lack a neighbour within sqrt(best) can only pair with a point of its
    own head (dx = dy = 0), so only its t values with a t neighbour within
    best are scanned; the points are visited in index order until one has
    a later partner. Its partners in its own head have t' > t, the others
    lie in later heads; a partner head (x + a, y + b) holds the t' with
    tau = t' - t - <x, b> in [max(-best, h - best), min(best, h + best)],
    h = <a, b>, and the least index is the least t' of the first such head
    whose range is not empty."""
    n, d, e = grid.n, grid.d, grid.e
    ex = _Exact(d)
    e2 = e * e
    ts = grid.values[2 * n]

    def reach(k: int, i: int) -> list:
        # the indices of axis k within sqrt(best) of index i, ascending
        values = grid.values[k]
        out = []
        for j in range(len(values)):
            v = (values[j][0] - values[i][0], values[j][1] - values[i][1])
            if ex.cmp(_product(v, v, d), best) <= 0:
                out.append(j)
        return out

    reaches = [[reach(k, i) for i in range(grid.sizes[k])]
               for k in range(2 * n)]
    t_near = [t for t in range(len(ts)) if any(
        ex.cmp((e * abs_gap[0], e * abs_gap[1]), best) <= 0
        for abs_gap in (ex.abs((ts[s][0] - ts[t][0], ts[s][1] - ts[t][1]))
                        for s in (t - 1, t + 1) if 0 <= s < len(ts)))]
    for head in itertools.product(*[range(s) for s in grid.sizes[:2 * n]]):
        others = [h for h in itertools.product(
            *[reaches[k][i] for k, i in enumerate(head)]) if h > head]
        cells = range(len(ts)) if others else t_near
        base = grid.index(head + (0,))
        x = [grid.values[k][head[k]] for k in range(n)]
        parts = []
        for other in others:
            delta = [(grid.values[k][j][0] - grid.values[k][i][0],
                      grid.values[k][j][1] - grid.values[k][i][1])
                     for k, (i, j) in enumerate(zip(head, other))]
            a, b = delta[:n], delta[n:]
            c, h = _dot(x, b, d), _dot(a, b, d)
            low = (h[0] - best[0], h[1] - best[1])
            if ex.cmp(low, (-best[0], -best[1])) < 0:
                low = (-best[0], -best[1])
            high = (h[0] + best[0], h[1] + best[1])
            if ex.cmp(high, best) > 0:
                high = best
            parts.append((grid.index(other + (0,)), c, low, high))
        for t in cells:
            tu, tw = ts[t]
            if t + 1 < len(ts) and ex.cmp(
                    (e * (ts[t + 1][0] - tu), e * (ts[t + 1][1] - tw)),
                    best) <= 0:
                return base + t, base + t + 1
            for start, c, low, high in parts:
                s = (e * tu + c[0], e * tw + c[1])
                j = grid.first(2 * n, (s[0] + low[0], s[1] + low[1], e2))
                if j < len(ts) and ex.cmp(
                        (e * ts[j][0], e * ts[j][1]),
                        (s[0] + high[0], s[1] + high[1])) <= 0:
                    return base + t, start + j
    raise AssertionError("no pair at the least squared gauge")


# ---------------------------------------------------------------------------
# covering radius estimate, and the max-min kernel
# ---------------------------------------------------------------------------

def covering_radius_estimate(
    ms: ModelSet, grid_step: Fraction, erosion: Fraction
) -> float:
    """Float estimate: max over grid points of the eroded region of the
    float symmetric distance to the nearest sample point. Resolution
    grid_step; not exact.

    The value equals the full grid-by-sample scan bit for bit, through
    `_MaxMin` below: on a grid without members the rows around each grid
    head are walked outward on the axes (`_Rows`); on any other, every row
    of sample points is sorted by head gauge from the grid head
    (`_scan_rows`).

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
    floats = [[float(a + k * grid_step) for k in range(count)]
              for a, count in zip(starts, shape)]
    grid, rows = ms.grid, None
    if grid.members is not None:
        rows = _scan_rows(grid, _cells(grid), range(len(ms)))
    kernel = _MaxMin(grid)
    worst = -math.inf
    for head in itertools.product(*floats[:-1]):
        if rows is None:
            walk = _Rows(kernel, head)
            items, extend = walk.items, walk.extend
        else:
            items, extend = _scan_items(kernel, head, rows, {}), None
        for t in floats[-1]:
            worst = max(worst, kernel.nearest(items, t, None, worst, extend))
    return worst


class _MaxMin:
    """The max-min kernel of every sample, on the grid of its axes: the
    float symmetric gauge from a query point to its nearest target, the
    query itself excluded. The targets are sample points grouped by head
    cell (all axes but the last) into rows, each row a sorted list of
    last-axis floats: every sample point for the covering estimate, the
    centres of one class for the return radii.

    `nearest` reads rows in order of increasing head gauge (the max over
    the head axes of |dx| and |dy|), and stops at a row whose head gauge
    reaches the best value found, since every later target has a larger
    one. Within a row the float gauge of a target t' has the t part
    max(|dt - <c_x, dy>|, |<p_x, dy> - dt|) (on Z^m, |dt|), at least |t' -
    z| for z = t + (<c_x, dy> + <p_x, dy>)/2 (on Z^m, t) up to rounding, so
    the row's targets are read outward from z on both sides until that
    bound exceeds the best value. The gauge takes the full scan's float
    operations in its order (the t parts dt - <c_x, dy> and <p_x, dy> - dt,
    the root of the larger of their absolute values, then the maximum with
    the head gauge), so the nearest value is the full scan's bit for bit.
    The search also stops as soon as some target lies within `worst`, the
    running maximum of the caller: that query cannot raise it (Taha and
    Hanbury, "An efficient algorithm for calculating the exact Hausdorff
    distance", IEEE TPAMI 37(11), 2015)."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.heisenberg = grid.heisenberg
        region = max(abs(v) for iv in grid.region.intervals for v in iv)
        scale = max(grid.magnitude, float(region)) + 1
        self.slack = FLOAT_SLACK * (grid.n + 2) * scale * scale

    def offset(self, head: Sequence[float], cell: Sequence[int]) -> tuple:
        """(head gauge, <c_x, dy>, <p_x, dy>) from a query with head floats
        head to the head cell cell; the head gauge is 0.0 on one axis."""
        floats = self.grid.floats
        dist = max((abs(floats[k][i] - h)
                    for k, (i, h) in enumerate(zip(cell, head))), default=0.0)
        return (dist,) + self.shear(head, cell)

    def shear(self, head: Sequence[float], cell: Sequence[int]) -> tuple:
        """(<c_x, dy>, <p_x, dy>) from a query with head floats head to the
        head cell cell, the sums taken term by term in coordinate order as
        the full scan does; (0.0, 0.0) on Z^m."""
        if not self.heisenberg:
            return 0.0, 0.0
        floats, n = self.grid.floats, self.grid.n
        cd = pd = 0.0
        for m in range(n):
            dy = floats[n + m][cell[n + m]] - head[n + m]
            c = head[m] * dy
            p = floats[m][cell[m]] * dy
            cd, pd = (c, p) if m == 0 else (cd + c, pd + p)
        return cd, pd

    def nearest(self, rows: list, t: float, own: int | None, worst: float,
                extend: Callable[[], bool] | None = None) -> float:
        """The gauge from the query with last float t to its nearest target
        other than the point own, or a value <= worst once one is found.
        rows holds the target rows around the query in order of increasing
        head gauge, each (head gauge, last-axis floats, their point indices
        or None when own is none of them, <c_x, dy>, <p_x, dy>); extend, if
        given, appends the next row to rows, False when there is none."""
        best = math.inf
        heisenberg, slack = self.heisenberg, self.slack
        r = 0
        while r < len(rows) or extend is not None and extend():
            dist, floats, points, cd, pd = rows[r]
            r += 1
            if dist >= best:
                break
            z = t + (cd + pd) / 2 if heisenberg else t
            j = bisect_left(floats, z)
            for side in (range(j - 1, -1, -1), range(j, len(floats))):
                for i in side:
                    ft = floats[i]
                    bound = best * best if heisenberg else best
                    if abs(ft - z) - slack > bound:
                        break
                    if points is not None and points[i] == own:
                        continue
                    if heisenberg:
                        dt = ft - t
                        a = abs(dt - cd)
                        b = abs(pd - dt)
                        g = math.sqrt(a if a >= b else b)
                        if dist > g:
                            g = dist
                    else:
                        g = abs(ft - t)
                        if dist > g:
                            g = dist
                    if g < best:
                        best = g
                        if best <= worst:
                            return best
        return best


class _Rows:
    """The rows of every sample point around one query head, in order of
    increasing head gauge, built only as far as they are read and shared
    by the queries of that head, as items of `_MaxMin.nearest`. Per head
    axis the points' values are taken outward from the query, nearest
    first; a row is emitted when the last of its head values is taken, at
    the largest of their gauges."""

    __slots__ = ("items", "_gen")

    def __init__(self, kernel: _MaxMin, head: Sequence[float]) -> None:
        self.items: list = []
        self._gen = self._walk(kernel, head)

    def extend(self) -> bool:
        item = next(self._gen, None)
        if item is None:
            return False
        self.items.append(item)
        return True

    @staticmethod
    def _outward(floats: list, q: float) -> Iterator[tuple]:
        j = bisect_left(floats, q)
        i = j - 1
        while i >= 0 or j < len(floats):
            if j == len(floats) or i >= 0 and q - floats[i] < floats[j] - q:
                yield abs(floats[i] - q), i
                i -= 1
            else:
                yield abs(floats[j] - q), j
                j += 1

    def _walk(self, kernel: _MaxMin, head: Sequence[float]) -> Iterator:
        grid = kernel.grid
        last = grid.floats[-1]
        walks = [self._outward(f, q) for f, q in zip(grid.floats, head)]
        if not walks:
            yield 0.0, last, None, 0.0, 0.0
            return
        taken: list = [[] for _ in walks]
        pending = [next(w, None) for w in walks]
        while True:
            live = [k for k, p in enumerate(pending) if p is not None]
            if not live:
                return
            k = min(live, key=lambda k: pending[k][0])
            dist, cell = pending[k]
            pending[k] = next(walks[k], None)
            taken[k].append(cell)
            parts = [taken[j] if j != k else [cell] for j in range(len(walks))]
            if not all(parts):
                continue
            for cells in itertools.product(*parts):
                yield (dist, last, None) + kernel.shear(head, cells)


def _cells(grid: Grid) -> list[tuple]:
    """Per sample point of a grid with members, its axis indices."""
    return [tuple(grid.cell(i)) for i in grid.members]


def _scan_rows(grid: Grid, cells: list, points: Iterable[int]) -> list:
    """The points, with axis indices cells, as rows of the plain scan: per
    head cell (every axis but the last, on Z^m too), (head cell, points,
    last-axis floats), sorted by float, which need not be index order."""
    last = grid.floats[-1]
    rows: dict = {}
    for p in points:
        rows.setdefault(cells[p][:-1], []).append((last[cells[p][-1]], p))
    return [(head, [p for _, p in row], [f for f, _ in row])
            for head, row in ((h, sorted(r)) for h, r in rows.items())]


def _scan_items(kernel: _MaxMin, head: Sequence[float], rows: list,
                known: dict, own: tuple | None = None) -> list:
    """The items of `_MaxMin.nearest` from a query with head floats head to
    the rows of `_scan_rows`, in order of increasing head gauge; the
    offsets are cached in known by head cell, and only the row of head cell
    own (the query's) keeps its points."""
    items = []
    for cell, points, ts in rows:
        got = known.get(cell)
        if got is None:
            got = known[cell] = kernel.offset(head, cell)
        items.append((got[0], ts, points if cell == own else None) + got[1:])
    items.sort(key=itemgetter(0))
    return items


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
    """A patch up to translation, and the sample indices of the centers
    carrying it, ascending. The patch is kept as the numerator rows of the
    relative coordinates p_c^-1 * q of its points q, in `row_order` (the u
    parts, then the w parts, of the head coordinates over e and, for H_n,
    t over e^2, in a sample of `kind` over Q(sqrt(d))); `relative_coords`,
    the exact coordinates, are built on first use, the center mapped to
    the identity."""

    radius: Fraction
    rows: Tuple[tuple, ...]
    centers: Tuple[int, ...]
    kind: GroupKind
    d: int
    e: int

    @functools.cached_property
    def relative_coords(self) -> Tuple[tuple, ...]:
        return tuple(element_coords(self.kind, self.d, self.e, self.rows))

    @property
    def multiplicity(self) -> int:
        return len(self.centers)

    @property
    def size(self) -> int:
        return len(self.rows)


class PatchCatalog(Record):
    radius: Fraction
    classes: Tuple[PatchClass, ...]
    center_count: int

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def keys(self) -> set:
        return {c.relative_coords for c in self.classes}


def _patch_order(kind: GroupKind, d: int):
    """The sort key of patches, as row lists in `row_order`: by their
    first differing row, a prefix first, which is the order of their
    coordinate tuples."""
    c = kind.coord_count

    def compare(a: PatchClass, b: PatchClass) -> int:
        for r, s in zip(a.rows, b.rows):
            order = row_order(r, s, c, d)
            if order:
                return -order
        return len(a.rows) - len(b.rows)
    return functools.cmp_to_key(compare)


def patch_at(ms: ModelSet, center_index: int, radius: Fraction,
             index: NeighborIndex | None = None) -> Tuple[tuple, ...]:
    """Exact relative patch at one interior center; raises ErosionError for
    centers whose patch could be clipped by the region boundary. index, if
    given, is `NeighborIndex(ms, radius)`, already built."""
    radius = Fraction(radius)
    interior = set(right_interior(ms, radius))
    if center_index not in interior:
        raise ErosionError(
            f"center {center_index} is within {radius} of the region boundary"
        )
    if index is None:
        index = NeighborIndex(ms, radius)
    found = [row for row, _ in index.near(ms.grid.cell_of(center_index))]
    return tuple(element_coords(ms.scheme.kind, ms.scheme.d, ms.e, found))


def patch_catalog(ms: ModelSet, radius: Fraction) -> PatchCatalog:
    """Group all complete patches at interior centers by exact equality:
    by the keys of `_AxisPatches` on a grid without members, else by the
    rows `NeighborIndex` finds."""
    radius = Fraction(radius)
    grid = ms.grid
    members: dict = {}
    if grid.members is None:
        patches = _AxisPatches(grid, radius)
        for head, cells, base in _interior_runs(grid, radius, True):
            for t, key in zip(cells, patches.run_keys(head, cells)):
                members.setdefault(key, []).append(base + t)
        rows_of = patches.rows
    else:
        index = NeighborIndex(ms, radius)
        for head, cells, base in _interior_runs(grid, radius, True):
            for p in grid.points(base + cells.start, base + cells.stop):
                key = tuple(row for row, _ in index.near(
                    head + (grid.members[p] - base,)))
                members.setdefault(key, []).append(p)
        rows_of = tuple
    count = sum(map(len, members.values()))
    if not count:
        raise ErosionError(f"no interior centers at radius {radius}")
    kind, d = ms.scheme.kind, ms.scheme.d
    classes = sorted((PatchClass(radius, rows_of(key), tuple(found), kind, d,
                                 ms.e)
                      for key, found in members.items()),
                     key=_patch_order(kind, d))
    return PatchCatalog(radius, tuple(classes), count)


def complexity_table(ms: ModelSet,
                     radii: Sequence[Fraction]) -> list[PatchCatalog]:
    """The patch catalog at each radius, in the order given."""
    return [patch_catalog(ms, Fraction(r)) for r in radii]


class _AxisPatches:
    """The patches of a product sample at one radius r, keyed by centre.

    On Z^m the patch of a centre is the product of the windows of its
    values on the axes (the differences v_j - v_i within r), so its key is
    the tuple of the windows' ids (`Grid.windows`). On H_n the patch of p =
    (x, y, t) holds (a, b, tau) for the windows a of x and b of y, and tau =
    t' - s_b, s_b = t + <x, b>, over the t' of the t axis with |tau| <= r^2
    and |<a, b> - tau| <= r^2. Its key is the window ids of x and, for each
    b with some t' within r^2 of s_b (for a = 0 those are all kept), b and
    the id of the tuple of tau lists over the a; equal keys hold equal
    patches and, as every a occurs with b = 0, tau = 0, equal patches get
    equal keys. The tau lists are computed once per (x, t, b), and the key
    once per (x, windows of y, t)."""

    def __init__(self, grid: Grid, radius: Fraction) -> None:
        self.grid = grid
        self.radius = radius
        self.windows: dict = {}  # axis -> {index: window id}
        self.diffs: dict = {}    # window id -> its differences
        self.ids: dict = {}      # (kind of value, value) -> id
        self.values: list = []   # id -> value
        self.heads: dict = {}
        self.taus: dict = {}
        self.keys: dict = {}

    def _intern(self, tag: str, value) -> int:
        got = self.ids.get((tag, value))
        if got is None:
            got = self.ids[tag, value] = len(self.values)
            self.values.append(value)
        return got

    def _window(self, k: int, i: int) -> int:
        known = self.windows.get(k)
        if known is None:
            known = self.windows[k] = {}
        wid = known.get(i)
        if wid is None:
            # the windows of the whole interior run of axis k at once
            grid, r = self.grid, self.radius
            lo, hi = grid.region.intervals[k]
            cells = grid.rational_span(k, lo + r, hi - r)
            if i not in cells:
                cells = range(i, i + 1)
            for j, (lo, hi), key in zip(cells, *grid.windows(k, cells, r)):
                size = len(self.values)
                wid = known[j] = self._intern("window", (k, key))
                if wid == size:
                    self.diffs[wid] = grid.diffs(k, j, range(lo, hi))
            wid = known[i]
        return wid

    def _vectors(self, axes: range, cell: Sequence[int]) -> list:
        """The difference vectors of the windows of cell on axes, in
        lexicographic order."""
        return list(itertools.product(*[
            self.diffs[self._window(k, i)] for k, i in zip(axes, cell)]))

    def run_keys(self, head: Sequence[int], cells: range) -> list[int]:
        """The keys of the patches at the centres of one interior run: head
        cell head and the last-axis indices cells. On Z^m only the last
        axis's window varies along the run, taking few distinct ids, and
        the run is the interior run whose windows `_window` builds."""
        if self.grid.heisenberg or not cells:
            return [self.key(head, t) for t in cells]
        last = len(head)
        self._window(last, cells[0])
        known = self.windows[last]
        wids = [known[t] for t in cells]
        prefix = tuple(self._window(k, i) for k, i in enumerate(head))
        keys = {w: self._intern("patch", prefix + (w,))
                for w in dict.fromkeys(wids)}
        return [keys[w] for w in wids]

    def key(self, head: Sequence[int], t: int) -> int:
        """The key of the patch at the centre with head cell head (the
        axis indices but the last) and last-axis index t."""
        grid = self.grid
        if not grid.heisenberg:
            wids = [self._window(k, i) for k, i in enumerate(head)]
            wids.append(self._window(len(head), t))
            return self._intern("patch", tuple(wids))
        n = grid.n
        x, y = tuple(head[:n]), tuple(head[n:])
        ykey = tuple(self._window(n + k, i) for k, i in enumerate(y))
        found = self.keys.get((x, ykey, t))
        if found is None:
            xinfo = self.heads.get(x)
            if xinfo is None:
                xinfo = self.heads[x] = (
                    self._intern("x", tuple(self._window(k, i)
                                            for k, i in enumerate(x))),
                    self._vectors(range(n), x),
                    [grid.values[k][i] for k, i in enumerate(x)])
            xid, dxs, xv = xinfo
            parts = []
            for b in self._vectors(range(n, 2 * n), y):
                comp = self.taus.get((x, t, b))
                if comp is None:
                    comp = self.taus[x, t, b] = self._taus(xv, t, b, dxs)
                if comp >= 0:
                    parts.append((self._intern("b", b), comp))
            found = self.keys[x, ykey, t] = self._intern(
                "patch", (xid, tuple(parts)))
        return found

    def _taus(self, xv: list, t: int, b: tuple, dxs: list) -> int:
        """The id of the tuple, over the a of dxs, of the sorted tau of the
        t' with |tau| <= r^2 and |<a, b> - tau| <= r^2, tau = t' - t -
        <x, b> as numerators over e^2; -1 when there is no t' at all."""
        grid, r = self.grid, self.radius
        d, e, root = grid.d, grid.e, grid.root
        last = 2 * grid.n
        e2 = e * e
        tu, tw = grid.values[last][t]
        c = _dot(xv, b, d)
        s = (e * tu + c[0], e * tw + c[1])
        r2 = r * r
        cells = range(grid.first(last, grid.t_bound(s, -r2)),
                      grid.first(last, grid.t_bound(s, r2), strict=True))
        if not cells:
            return -1
        values = grid.values[last]
        taus = [(e * values[j][0] - s[0], e * values[j][1] - s[1])
                for j in cells]
        floats = [(u + w * root) / e2 for u, w in taus]
        r2f = float(r2)
        p, q = r2.numerator, r2.denominator
        comp = []
        for a in dxs:
            h = _dot(a, b, d)
            if h == (0, 0):
                comp.append(self._intern("taus", tuple(taus)))
                continue
            hf = (h[0] + h[1] * root) / e2
            slack = grid.slack((abs(h[0]) + abs(h[1]) * root) / e2, r2f,
                               (abs(s[0]) + abs(s[1]) * root) / e2)
            kept = []
            for tau, f in zip(taus, floats):
                # |h - tau| <= r^2, decided by floats clear of the slack
                off = f - hf
                if abs(off) < r2f - slack:
                    kept.append(tau)
                elif abs(off) <= r2f + slack:
                    du, dw = q * (tau[0] - h[0]), q * (tau[1] - h[1])
                    if (sign_pq(du - p * e2, dw, d) <= 0
                            and sign_pq(du + p * e2, dw, d) >= 0):
                        kept.append(tau)
            comp.append(self._intern("taus", tuple(kept)))
        return self._intern("comp", tuple(comp))

    def rows(self, key: int) -> tuple:
        """The numerator rows of the patch of a key, in `row_order`."""
        grid = self.grid
        value = self.values[key]
        if not grid.heisenberg:
            return tuple(tuple(u for u, _ in v) + tuple(w for _, w in v)
                         for v in itertools.product(
                             *[self.diffs[w] for w in value]))
        xid, parts = value
        dxs = itertools.product(*[self.diffs[w] for w in self.values[xid]])
        out = []
        for i, a in enumerate(dxs):
            for bid, comp in parts:
                b = self.values[bid]
                head = a + b
                for tau in self.values[self.values[comp][i]]:
                    out.append(tuple(u for u, _ in head) + (tau[0],)
                               + tuple(w for _, w in head) + (tau[1],))
        return tuple(out)


class NeighborIndex:
    """The sample points within symmetric distance `radius` of a point, on
    the grid of the sample's axes: the neighbourhoods of `patch_at`, and of
    the patches and separation of a sample whose grid has members.

    A point q = (x + a, y + b, t') lies within radius r of p = (x, y, t)
    when every head difference (a and b) is at most r in absolute value and
    tau = t' - t - c, c = <x, b>, has |tau| <= r^2 and |h - tau| <= r^2, h
    = <a, b>: t' lies in [t + c + max(0, h) - r^2, t + c + min(0, h) + r^2]
    (on Z^m, t' within r of t). So the sample points within r of p are, per
    row of sample points (one head cell) within r of p's head on each head
    axis, one run of the row, its ends found by `Grid.first`. The rows are
    found one head axis at a time among the cells of the sample points."""

    def __init__(self, ms: ModelSet, radius: Fraction) -> None:
        radius = Fraction(radius)
        if radius <= 0:
            raise ValueError("index radius must be positive")
        self.grid = grid = ms.grid
        self.radius = radius
        # the last coordinate over den: t over e^2 on H_n, over e on Z^m
        self.scale = grid.e if grid.heisenberg else 1
        self.den = grid.e * self.scale
        self.reach = radius * radius if grid.heisenberg else radius
        self.spans: dict = {}
        self.rows: dict = {}

    def head_rows(self, head: tuple) -> list:
        """The rows of sample points within the radius of the head cell
        head on each head axis, in index order: the u and the w parts of
        the head differences, c, the shifts c + max(0, h) and c + min(0, h)
        (over den) and the index of the row's first cell."""
        got = self.rows.get(head)
        if got is not None:
            return got
        grid, windows = self.grid, []
        for k, i in enumerate(head):
            window = self.spans.get((k, i))
            if window is None:
                window = self.spans[k, i] = grid.around(k, i, self.radius)
            windows.append(window)
        n, d, values = grid.n, grid.d, grid.values
        got = self.rows[head] = []
        for cell, base in grid.present(windows):
            diffs = [(values[k][j][0] - values[k][i][0],
                      values[k][j][1] - values[k][i][1])
                     for k, (i, j) in enumerate(zip(head, cell))]
            c = h = (0, 0)
            if grid.heisenberg:
                c = _dot([values[k][i] for k, i in enumerate(head[:n])],
                         diffs[n:], d)
                h = _dot(diffs[:n], diffs[n:], d)
            shifted = (c[0] + h[0], c[1] + h[1])
            low, high = ((shifted, c) if sign_pq(h[0], h[1], d) > 0
                         else (c, shifted))
            got.append((tuple(u for u, _ in diffs), tuple(w for _, w in diffs),
                        c, low, high, base))
        return got

    def near(self, cell: Sequence[int]) -> list[tuple]:
        """(row, point) for each sample point q within the radius of the
        cell with axis indices cell, in `row_order` of the rows: the
        numerator rows of p^-1 q, p the point of the cell, laid out as
        `PatchClass.rows`."""
        grid, scale = self.grid, self.scale
        last = len(grid.sizes) - 1
        ts = grid.values[last]
        s0, s1 = scale * ts[cell[last]][0], scale * ts[cell[last]][1]
        p, q, den = self.reach.numerator, self.reach.denominator, self.den
        out = []
        for hu, hw, c, low, high, base in self.head_rows(tuple(cell[:last])):
            j0 = grid.first(last, (q * (s0 + low[0]) - p * den,
                                   q * (s1 + low[1]), q * den))
            j1 = grid.first(last, (q * (s0 + high[0]) + p * den,
                                   q * (s1 + high[1]), q * den), strict=True)
            for i in grid.points(base + j0, base + j1):
                u, w = ts[grid.index_of(i) - base]
                out.append((hu + (scale * u - s0 - c[0],)
                            + hw + (scale * w - s1 - c[1],), i))
        return out

    def candidates(self, coords: Sequence[QuadNum]) -> list[int]:
        """The sample points within the radius of the point with exact
        coordinates coords, a cell of the product of the axes."""
        grid = self.grid
        (row,), den = numerator_rows([coords])
        c, (m, rest) = len(coords), divmod(grid.e, den)
        cell = [grid.positions[k].get((m * row[k], m * row[c + k]))
                for k in range(c)]
        if rest or None in cell:
            raise ValueError(f"{coords} is not on the axes of the sample")
        return [i for _, i in self.near(cell)]

    def _sq_terms(self, row: tuple) -> Iterator[tuple]:
        """The terms (u, w) over e^2, up to sign, whose largest absolute
        value is the squared symmetric gauge of the element with numerator
        row row (laid out as `near` gives it): the squared head
        coordinates, then on H_n tau and <a, b> - tau (on Z^m, the squared
        last coordinate)."""
        grid = self.grid
        d, c, n = grid.d, len(grid.sizes), grid.n
        head = c - 1 if grid.heisenberg else c
        for k in range(head):
            yield _product((row[k], row[c + k]), (row[k], row[c + k]), d)
        if grid.heisenberg:
            tau = row[c - 1], row[-1]
            yield tau
            h = _dot([(row[k], row[c + k]) for k in range(n)],
                     [(row[k], row[c + k]) for k in range(n, 2 * n)], d)
            yield h[0] - tau[0], h[1] - tau[1]

    def sq_gauge(self, row: tuple) -> tuple:
        """The squared symmetric gauge (u, w) over e^2 of the element with
        numerator row row."""
        ex = _Exact(self.grid.d)
        return ex.max(map(ex.abs, self._sq_terms(row)))

    def below(self, row: tuple, bound: tuple) -> bool:
        """Whether the squared symmetric gauge of the element with
        numerator row row is below bound (u, w) over e^2, bound > 0."""
        (bu, bw), d = bound, self.grid.d
        for u, w in self._sq_terms(row):
            if (sign_pq(bu - u, bw - w, d) <= 0
                    or sign_pq(bu + u, bw + w, d) <= 0):
                return False
        return True


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

    Each radius equals the full scan's bit for bit: on a grid without
    members of one axis by `_line_return_radii`, of more axes by
    `_axis_return_radii`; on any other by the plain row scan
    `_scan_return_radii`."""
    radius = Fraction(radius)
    if catalog is None:
        catalog = patch_catalog(ms, radius)
    elif catalog.radius != radius:
        raise ValueError(f"catalog is at radius {catalog.radius}, "
                         f"not {radius}")
    members = [cls.centers for cls in catalog.classes]
    grid = ms.grid
    if grid.members is not None:
        worst = _scan_return_radii(grid, members)
    elif len(grid.sizes) == 1:
        worst = _line_return_radii(grid, members)
    else:
        worst = _axis_return_radii(grid, members)
    per_class = []
    for ci, cls in enumerate(catalog.classes):
        w = float(worst[ci])
        per_class.append(ClassReturn(ci, cls.multiplicity,
                                     w if w >= 0 else math.inf,
                                     cls.multiplicity == 1))
    finite = [c.return_radius for c in per_class
              if math.isfinite(c.return_radius)]
    return RepetitivityReport(radius, tuple(per_class), max(finite, default=0.0),
                              any(c.lower_bound_only for c in per_class))


def _line_return_radii(grid: Grid, members: Sequence[Sequence[int]]
                       ) -> list[float]:
    """`_axis_return_radii` on a sample of one axis, where index order is
    float order: the nearest other centre of a class is a neighbour in that
    order, so only the queries next to the centres and around the float
    midpoints between them can give the maximum."""
    floats = grid.floats[0]
    queries = sorted(c for centers in members for c in centers)
    qf = [floats[c] for c in queries]
    at = {c: i for i, c in enumerate(queries)}
    return [_line_return_radius(qf, sorted(at[c] for c in centers))
            for centers in members]


def _line_return_radius(qf: list, positions: list) -> float:
    """The largest over the query floats qf (ascending) of the float
    distance abs(target - query) to the nearest target other than the query
    itself, the targets being the queries at positions (ascending); -inf
    when no query has one."""
    worst = -math.inf
    first, last = positions[0], positions[-1]
    if first > 0:
        worst = abs(qf[first] - qf[0])
    if last < len(qf) - 1:
        worst = max(worst, abs(qf[last] - qf[-1]))
    gaps = [abs(qf[j] - qf[i]) for i, j in zip(positions, positions[1:])]
    if gaps:
        # each target to its nearer neighbour target
        worst = max(worst, gaps[0], gaps[-1], *map(min, zip(gaps, gaps[1:])))
    for i, j in zip(positions, positions[1:]):
        if j - i < 2:
            continue
        a, b = qf[i], qf[j]
        # Between targets a and b, abs(a - q) rises and abs(b - q) falls
        # with q, so their minimum peaks at the last query k with abs(a -
        # q) <= abs(b - q) or at the next; the float midpoint is a guess
        # of k that the two walks correct.
        k = bisect_left(qf, (a + b) / 2, i + 1, j) - 1
        while k + 1 < j and abs(a - qf[k + 1]) <= abs(b - qf[k + 1]):
            k += 1
        while k > i and abs(a - qf[k]) > abs(b - qf[k]):
            k -= 1
        for q in qf[max(k, i + 1):min(k + 2, j)]:
            worst = max(worst, min(abs(a - q), abs(b - q)))
    return worst


def _axis_return_radii(grid: Grid, members: Sequence[Sequence[int]]
                       ) -> list[float]:
    """`repetitivity_radii` on a product sample of more than one axis: per
    class (its ascending centres), the largest over the queries, every
    centre of every class, of the float gauge to the nearest centre of the
    class other than the query itself (-inf when none has one).

    The points of one head cell (every axis but the last, on Z^m too) form
    a row. Take a row h of queries, last floats t_lo to t_hi, and a row of
    centres of the class, last floats ts with largest gap `gap`, at head
    gauge `dist` from h. With cd = <c_x, dy>, pd = <p_x, dy> and mid = (cd
    + pd)/2, the t part of the gauge from t to t' is max(|t' - t - cd|,
    |t' - t - pd|) = |t' - (t + mid)| + |cd - pd|/2 (on Z^m, |t' - t|), and
    for t + mid in [t_lo + mid, t_hi + mid] some t' lies within max(ts[0] -
    (t_lo + mid), (t_hi + mid) - ts[-1], gap/2). In h's own row a query's
    nearest other centre lies within the whole gap, and a row holding only
    that query gives no bound. So, up to the rounding the kernel's slack
    covers, every query of h has its nearest centre within bound(h), the
    least over the rows of max(dist, sqrt(reach + |cd - pd|/2)) (on Z^m,
    without the root). The query rows are visited by decreasing bound, and
    each of their queries is evaluated by `_MaxMin.nearest`; the first row
    whose bound is <= the running maximum ends the class, since none of
    its queries, nor those of the rows after it, can raise it."""
    kernel = _MaxMin(grid)
    size, last = grid.sizes[-1], grid.floats[-1]
    heisenberg, slack = kernel.heisenberg, kernel.slack

    def by_row(points: Iterable[int]) -> list:
        # (head number, head cell, points, last floats, largest gap)
        rows: dict = {}
        for p in points:
            rows.setdefault(p // size, []).append(p)
        out = []
        for h, found in rows.items():
            ts = [last[p - h * size] for p in found]
            gap = max(map(float.__sub__, ts[1:], ts[:-1]), default=0.0)
            out.append((h, grid.cell(h * size)[:-1], found, ts, gap))
        return out

    def offset(head: list, cell: list, tq: list) -> tuple:
        # (dist, cd, pd, t_lo + mid, t_hi + mid, |cd - pd|/2)
        dist, cd, pd = kernel.offset(head, cell)
        mid = (cd + pd) / 2
        return dist, cd, pd, tq[0] + mid, tq[-1] + mid, abs(cd - pd) / 2

    # per query row, the offsets of the rows of centres from it by head
    # number, shared by the classes
    queries = [(h, [grid.floats[k][i] for k, i in enumerate(cell)], points,
                tq, {})
               for h, cell, points, tq, _ in by_row(sorted(
                   itertools.chain(*members)))]
    radii = []
    for centers in members:
        targets = by_row(centers)
        visits = []
        for h, head, points, tq, known in queries:
            bound = math.inf
            for r, cell, _, ts, gap in targets:
                got = known.get(r)
                if got is None:
                    got = known[r] = offset(head, cell, tq)
                dist, _, _, lo, hi, half = got
                if dist >= bound:
                    continue
                if r != h:
                    gap /= 2
                elif len(ts) == 1:
                    continue
                part = max(ts[0] - lo, hi - ts[-1], gap) + half + slack
                if heisenberg:
                    part = math.sqrt(part)
                bound = min(bound, part if part > dist else dist)
            visits.append((bound, h, points, tq, known))
        visits.sort(key=itemgetter(0), reverse=True)
        worst = -math.inf
        for bound, h, points, tq, known in visits:
            if bound <= worst:
                break
            items = sorted(((known[r][0], ts, found if r == h else None)
                            + known[r][1:3]
                            for r, _, found, ts, _ in targets),
                           key=itemgetter(0))
            for p, t in zip(points, tq):
                found = kernel.nearest(items, t, p, worst)
                if worst < found < math.inf:
                    worst = found
        radii.append(worst)
    return radii


def _scan_return_radii(grid: Grid, members: Sequence[Sequence[int]]
                       ) -> list[float]:
    """`_axis_return_radii` by the plain row scan, on a grid with members:
    per class, every query is evaluated by `_MaxMin.nearest` over the
    class's rows. No bound skips a query row, so the two routes agree only
    if the bounds of `_axis_return_radii` hold. The offsets between a query
    row and a row of centres are cached per pair of rows and shared by the
    classes."""
    kernel = _MaxMin(grid)
    cells = _cells(grid)
    queries = [(cell, [grid.floats[k][i] for k, i in enumerate(cell)],
                points, tq, {})
               for cell, points, tq in _scan_rows(
                   grid, cells, sorted(itertools.chain(*members)))]
    radii = []
    for centers in members:
        targets = _scan_rows(grid, cells, centers)
        worst = -math.inf
        for cell, head, points, tq, known in queries:
            items = _scan_items(kernel, head, targets, known, cell)
            for p, t in zip(points, tq):
                found = kernel.nearest(items, t, p, worst)
                if worst < found < math.inf:
                    worst = found
        radii.append(worst)
    return radii


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
    A candidate dies at its first core point p with g*p outside the sample.
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
    tested, survivors = _axis_periods(ms.grid, core, gauge_bound)
    kind, d = ms.scheme.kind, ms.scheme.d
    survivors.sort(key=row_key(kind.coord_count, d))
    return PeriodReport(
        gauge_bound=gauge_bound,
        erosion=erosion,
        core_size=len(core),
        candidates_tested=tested,
        nontrivial_periods=tuple(element_coords(kind, d, ms.e, survivors)),
    )


def _axis_periods(grid: Grid, core: list, bound: Fraction) -> tuple:
    """(candidates, survivor rows) of `period_search`.

    With p0 = (x0, y0, t0), q * p0^-1 = (a, b, t' - t0 - <a, y0>) for q =
    (x0 + a, y0 + b, t'), so the candidates are the sample points q among
    the x' and y' within the bound of x0 and y0 on their axes and, for each
    a, the t' within bound^2 of t0 + <a, y0>; on Z^m, among the values
    within the bound of p0 on each axis. g*p = (x + a, y + b, t + g_t +
    <a, y>) lies in the sample when each coordinate lies on its axis and
    the cell is a sample point's."""
    d, e = grid.d, grid.e
    c = len(grid.sizes)
    cell0 = grid.cell_of(core[0])
    head = c - 1 if grid.heisenberg else c
    values = grid.values
    spans = [grid.around(k, cell0[k], bound) for k in range(head)]
    n, b2 = grid.n, bound * bound
    if grid.heisenberg:
        t0 = values[-1][cell0[-1]]
        y0 = [values[n + k][cell0[n + k]] for k in range(n)]
    candidates = []
    for cell, base in grid.present(spans):
        g = tuple((values[k][j][0] - values[k][i][0],
                   values[k][j][1] - values[k][i][1])
                  for k, (i, j) in enumerate(zip(cell0, cell)))
        if not grid.heisenberg:
            candidates.append(g)
            continue
        # t' - t0 - <a, y0> in [-bound^2, bound^2], over e^2
        ay = _dot(g[:n], y0, d)
        s = (e * t0[0] + ay[0], e * t0[1] + ay[1])
        for p in grid.points(
                base + grid.first(c - 1, grid.t_bound(s, -b2)),
                base + grid.first(c - 1, grid.t_bound(s, b2), strict=True)):
            u, w = values[-1][grid.index_of(p) - base]
            candidates.append(g + ((e * u - s[0], e * w - s[1]),))
    zero = tuple((0, 0) for _ in range(c))
    candidates = [g for g in candidates if g != zero]
    tested = len(candidates)
    # blocks of core points grow while candidates survive
    start, size = 0, 16
    while candidates and start < len(core):
        points = [[grid.values[k][i] for k, i in enumerate(grid.cell_of(p))]
                  for p in core[start:start + size]]
        candidates = [g for g in candidates
                      if all(_translate_in(grid, g, p) for p in points)]
        start += size
        size *= 2
    return tested, [tuple(u for u, _ in g) + tuple(w for _, w in g)
                    for g in candidates]


def _translate_in(grid: Grid, g: tuple, p: list) -> bool:
    """Whether g*p is a sample point, g with the t part over e^2."""
    at = grid.positions
    cell = [at[k].get((a[0] + x[0], a[1] + x[1]))
            for k, (a, x) in enumerate(zip(g[:grid.head], p))]
    if grid.heisenberg:
        n, d, e = grid.n, grid.d, grid.e
        ay = _dot(g[:n], p[n:2 * n], d)
        u = g[-1][0] + e * p[-1][0] + ay[0]
        w = g[-1][1] + e * p[-1][1] + ay[1]
        cell.append(at[-1].get((u // e, w // e))
                    if u % e == 0 and w % e == 0 else None)
    if None in cell:
        return False
    i = grid.index(cell)
    return bool(grid.points(i, i + 1))
