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

Every sample the CLI builds or reads is a product of axes: one ascending
list of values per coordinate (`ModelSet.axes`), the points being all their
combinations. On such a sample every phase runs here, in pure Python, on
the axes (`Grid`). The product is (x, y, t)(a, b, tau) = (x + a, y + b,
t + tau + <x, b>), so the points q with gauge(p^-1 q) <= r of a point p =
(x, y, t) are found one axis at a time: x' within r of x and y' within r of
y on their axes by bisection, then, for each b = y' - y, the t' of the t
axis around s_b = t + <x, b> with tau = t' - s_b inside [-r^2, r^2] and
<a, b> - tau too (a = x' - x). Every bound is decided exactly, on integer
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
  order of the full scan;
* the period search: candidates from the neighbourhood of the first core
  point, tested by membership on the axes.

On one axis the return radii need only the neighbours of each centre in
index order. Any other sample (`ModelSet.from_points` sets), and the
return radii of more than `AXIS_QUERIES` (query, class) pairs on more than
one axis, take the pair route of `lattice`, which loads numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

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
from .quadratic import QuadNum, row_key, row_order, sign_pq


def __getattr__(name: str):
    # the neighbour index of the pair route, loaded with numpy on first use
    if name == "NeighborIndex":
        from .lattice import NeighborIndex

        return NeighborIndex
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """The axes of a sample that is their product, prepared for the axis
    kernels. Per axis k: `values[k]`, the ascending numerator pairs (u, w)
    over e (`ModelSet.axes`), and `floats[k]`, each equal to float() of its
    value as `Lattice.float_coords` computes it, so the float gauges here
    are those of the full scans. `magnitude` bounds (|u| + |w|*sqrt(d))/e
    over every axis value."""

    def __init__(self, ms: ModelSet) -> None:
        self.kind = kind = ms.scheme.kind
        self.d = d = ms.scheme.d
        self.e = e = ms.e
        self.region = ms.region
        self.root = root = math.sqrt(d)
        self.values = ms.axes
        self.floats = [[(u + w * root) / e for u, w in axis]
                       for axis in self.values]
        self.sizes = [len(axis) for axis in self.values]
        strides, stride = [], 1
        for size in reversed(self.sizes):
            strides.append(stride)
            stride *= size
        self.strides = strides[::-1]
        self.magnitude = max([1.0] + [
            (max(map(abs, map(itemgetter(0), axis)), default=0)
             + max(map(abs, map(itemgetter(1), axis)), default=0) * root) / e
            for axis in self.values])
        self.heisenberg = kind.family is Family.HEISENBERG
        self.n = kind.rank
        # the head axes: all of Z^m, x and y of H_n
        self.head = 2 * kind.rank if self.heisenberg else kind.rank
        self._gaps: dict = {}

    @classmethod
    def build(cls, ms: ModelSet) -> Grid | None:
        """The grid of ms, or None when ms is no product of its axes or
        the float order of an axis disagrees with its exact order (then
        the pair route serves it)."""
        if not ms.is_product:
            return None
        grid = cls(ms)
        if any(f != sorted(f) for f in grid.floats):
            return None
        return grid

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
        Floats settle every value that clears the bound by the slack; the
        rest are compared exactly."""
        u_b, w_b, den = bound
        fb = (u_b + w_b * self.root) / den
        slack = self.slack((abs(u_b) + abs(w_b) * self.root) / den)
        floats = self.floats[k]
        i = bisect_left(floats, fb - slack)
        j = bisect_left(floats, fb + slack, i)
        if i == j:
            return i
        values, e, d = self.values[k], self.e, self.d
        least = 1 if strict else 0
        while i < j and sign_pq(values[i][0] * den - u_b * e,
                                values[i][1] * den - w_b * e, d) < least:
            i += 1
        return i

    def span(self, k: int, lo: tuple, hi: tuple) -> range:
        """The indices of axis k with values in the closed interval [lo,
        hi], bounds as in `first`."""
        return range(self.first(k, lo), self.first(k, hi, strict=True))

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
    if grid is None:
        from .lattice import interior

        return interior(ms, depth, use_x_margin)
    index = [0]
    for _, cells, base in _interior_runs(grid, depth, use_x_margin):
        index += [base + i for i in cells]
    return index[1:]


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
        for head in itertools.product(*heads):
            yield head, cells, grid.index(head + (0,))
        return
    n, d, e = grid.n, grid.d, grid.e
    anchor = range(n) if use_x_margin else range(n, 2 * n)
    a, b = depth.numerator, depth.denominator
    low, high = lo + depth * depth, hi - depth * depth
    spans: dict = {}
    for head in itertools.product(*heads):
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
        yield head, cells, grid.index(head + (0,))


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
    radius `_initial_radius` * 2^k whose square reaches the minimum (the
    radius at which the pair route of `lattice` first finds a pair), and a
    40-step rational bisection on the exact square then brackets the
    minimum inside [0, that radius].
    """
    if len(ms) < 2:
        return SeparationResult(math.inf, None, None, None)
    radius = _initial_radius(ms)
    grid = ms.grid
    if grid is None:
        from .lattice import separation_pairs

        u, w, best_pair, radius = separation_pairs(ms, radius)
    else:
        (u, w), best_pair = _axis_separation(grid)
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
# covering radius estimate, and the max-min kernel of product samples
# ---------------------------------------------------------------------------

def covering_radius_estimate(
    ms: ModelSet, grid_step: Fraction, erosion: Fraction
) -> float:
    """Float estimate: max over grid points of the eroded region of the
    float symmetric distance to the nearest sample point. Resolution
    grid_step; not exact.

    The value equals the full grid-by-sample scan bit for bit: on a product
    sample through `_MaxMin` below, on any other through the pair route of
    `lattice` (`lattice.covering_pairs`).

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
    grid = ms.grid
    if grid is None:
        from .lattice import covering_pairs

        return covering_pairs(ms, axes)
    kernel = _MaxMin(grid)
    floats = [[float(v) for v in axis] for axis in axes]
    worst = -math.inf
    for head in itertools.product(*floats[:-1]):
        rows = kernel.rows(head, head)
        for t in floats[-1]:
            worst = max(worst, kernel.nearest(rows, t, None, worst))
    return worst


class _MaxMin:
    """The max-min kernel of a product sample: the float symmetric gauge
    from a query point to its nearest target, the query itself excluded.
    The targets are sample points grouped by head cell (all axes but the
    last) into rows, each row a sorted list of last-axis floats: every
    sample point for the covering estimate, the centres of one class for
    the return radii.

    `nearest` visits the head rows around the query in order of increasing
    head gauge (the max over the head axes of |dx| and |dy|, by `_Rows`),
    and stops at a row whose head gauge reaches the best value found, since
    every later target has a larger one. Within a row the float gauge of a
    target t' has the t part max(|dt - <c_x, dy>|, |<p_x, dy> - dt|) (on
    Z^m, |dt|), at least |t' - z| for z = t + (<c_x, dy> + <p_x, dy>)/2 (on
    Z^m, t) up to rounding, so the row's targets are read outward from z on
    both sides until that bound exceeds the best value. The gauge takes the
    full scan's float operations in its order (`lattice._Gauge`), so the
    nearest value is the full scan's bit for bit. The search also stops as
    soon as some target lies within `worst`, the running maximum of the
    caller: that query cannot raise it (Taha and Hanbury, "An efficient
    algorithm for calculating the exact Hausdorff distance", IEEE TPAMI
    37(11), 2015)."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.orders: dict = {}
        self.heisenberg = grid.heisenberg
        region = max(abs(v) for iv in grid.region.intervals for v in iv)
        scale = max(grid.magnitude, float(region)) + 1
        self.slack = FLOAT_SLACK * (grid.n + 2) * scale * scale

    def rows(self, key, head: Sequence[float]) -> "_Rows":
        """The head rows around a query with head floats head, shared by
        every query with the same key."""
        order = self.orders.get(key)
        if order is None:
            order = self.orders[key] = _Rows(self, head)
        return order

    def nearest(self, rows: "_Rows", t: float, own: int | None,
                worst: float, targets: dict | None = None) -> float:
        """The gauge from the query with head rows rows and last float t
        to its nearest target other than the point own, or a value <=
        worst once one is found; targets maps head cells to the (floats,
        point indices) of their rows, None for every sample point."""
        best = math.inf
        last = self.grid.floats[-1]
        heisenberg, slack = self.heisenberg, self.slack
        items = rows.items
        r = 0
        while r < len(items) or rows.extend():
            dist, cell, cd, pd = items[r]
            r += 1
            if dist >= best:
                break
            if targets is None:
                floats, points = last, None
            else:
                row = targets.get(cell)
                if row is None:
                    continue
                floats, points = row
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
    """The head rows of a `_MaxMin` kernel around one query head, in
    order of increasing head gauge, built only as far as they are read.
    Each item is (head gauge, head cell, <c_x, dy>, <p_x, dy>) for H_n, the
    two sums taken term by term in coordinate order as the full scan does
    (0.0, 0.0 on Z^m). Per head axis the targets' values are taken outward
    from the query, nearest first; a row is emitted when the last of its
    head values is taken, at the largest of their gauges."""

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
        walks = [self._outward(f, q) for f, q in zip(grid.floats, head)]
        if not walks:
            yield 0.0, (), 0.0, 0.0
            return
        taken: list = [[] for _ in walks]
        pending = [next(w, None) for w in walks]
        n = grid.n
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
                if not kernel.heisenberg:
                    yield dist, cells, 0.0, 0.0
                    continue
                cd = pd = 0.0
                for m in range(n):
                    dy = grid.floats[n + m][cells[n + m]] - head[n + m]
                    c = head[m] * dy
                    p = grid.floats[m][cells[m]] * dy
                    cd, pd = (c, p) if m == 0 else (cd + c, pd + p)
                yield dist, cells, cd, pd


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
    relative coordinates p_c^-1 * q of its points q, in `row_order` (laid
    out as `lattice.Elems.rows`: the head coordinates over e and, for H_n,
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
             index=None) -> Tuple[tuple, ...]:
    """Exact relative patch at one interior center; raises ErosionError for
    centers whose patch could be clipped by the region boundary. index, a
    `lattice.NeighborIndex` at radius, serves samples that are no product
    of their axes."""
    radius = Fraction(radius)
    interior = set(right_interior(ms, radius))
    if center_index not in interior:
        raise ErosionError(
            f"center {center_index} is within {radius} of the region boundary"
        )
    grid = ms.grid
    if grid is None:
        from .lattice import NeighborIndex, patch_rows

        if index is None:
            index = NeighborIndex(ms, radius)
        keys, rows = patch_rows(ms, [center_index], radius, index)
        found = rows[keys[0]]
    else:
        cell = grid.cell(center_index)
        t = cell[-1]
        patches = _AxisPatches(grid, radius)
        found = patches.rows(patches.key(cell[:-1], t))
    return tuple(element_coords(ms.scheme.kind, ms.scheme.d, ms.e, found))


def patch_catalog(ms: ModelSet, radius: Fraction) -> PatchCatalog:
    """Group all complete patches at interior centers by exact equality."""
    radius = Fraction(radius)
    grid = ms.grid
    members: dict = {}
    if grid is None:
        from .lattice import NeighborIndex, patch_rows

        centers = right_interior(ms, radius)
        keys, rows = patch_rows(ms, centers, radius,
                                NeighborIndex(ms, radius))
        for center, key in zip(centers, keys):
            members.setdefault(key, []).append(center)
        rows_of = rows.__getitem__
    else:
        patches = _AxisPatches(grid, radius)
        for head, cells, base in _interior_runs(grid, radius, True):
            for t, key in zip(cells, patches.run_keys(head, cells)):
                members.setdefault(key, []).append(base + t)
        rows_of = patches.rows
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


# ---------------------------------------------------------------------------
# repetitivity
# ---------------------------------------------------------------------------

# The most (query, class) pairs the return radii take on the axes of a
# product sample of more than one axis; beyond it the pair route of
# `lattice`, whose index rounds share work between classes, is faster (the
# R = 12 yardstick has 19.6M pairs, the h1-analyze sample 4,779).
AXIS_QUERIES = 1 << 16

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

    Each radius equals the full scan's bit for bit: on a product sample
    through `_MaxMin`, each class's centres being its queries and targets,
    taken first in a spread order so that the running maximum is near its
    final value early, or on a line by `_line_return_radii`; on any other
    through the pair route of `lattice` (`lattice.return_radii`)."""
    radius = Fraction(radius)
    if catalog is None:
        catalog = patch_catalog(ms, radius)
    elif catalog.radius != radius:
        raise ValueError(f"catalog is at radius {catalog.radius}, "
                         f"not {radius}")
    members = [cls.centers for cls in catalog.classes]
    grid = ms.grid
    if grid is not None and len(grid.sizes) == 1:
        worst = _line_return_radii(grid, members)
    elif grid is None or catalog.center_count * len(members) > AXIS_QUERIES:
        from .lattice import return_radii

        worst = return_radii(ms, members)
    else:
        kernel = _MaxMin(grid)
        queries = sorted(c for centers in members for c in centers)
        worst = [_axis_return_radius(kernel, queries, centers)
                 for centers in members]
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
    """`_axis_return_radius` of each class on a sample of one axis, where
    index order is float order: the nearest other centre of a class is a
    neighbour in that order, so only the queries next to the centres and
    around the float midpoints between them can give the maximum."""
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


def _axis_return_radius(kernel: _MaxMin, queries: Sequence[int],
                        centers: Sequence[int]) -> float:
    """The largest over the queries of the float gauge to the nearest of
    centers other than the query itself (-inf when none has one), on a
    product sample. The queries are taken in a spread order first, so
    that the running maximum nears its final value early."""
    grid = kernel.grid
    last = grid.floats[-1]
    rows: dict = {}
    for c in centers:
        cell = grid.cell(c)
        row = rows.setdefault(tuple(cell[:-1]), ([], []))
        row[0].append(last[cell[-1]])
        row[1].append(c)
    step = max(1, len(queries) // 64)
    worst = -math.inf
    for at in itertools.chain(range(0, len(queries), step),
                              (a for a in range(len(queries)) if a % step)):
        cell = grid.cell(queries[at])
        head = tuple(cell[:-1])
        floats = [grid.floats[k][i] for k, i in enumerate(head)]
        found = kernel.nearest(kernel.rows(head, floats), last[cell[-1]],
                               queries[at], worst, rows)
        if found < math.inf:
            worst = max(worst, found)
    return worst


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
    grid = ms.grid
    if grid is None:
        from .lattice import period_rows

        tested, survivors = period_rows(ms, core, gauge_bound)
    else:
        tested, survivors = _axis_periods(grid, core, gauge_bound)
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
    """(candidates, survivor rows) of `period_search` on a product sample.

    With p0 = (x0, y0, t0), q * p0^-1 = (a, b, t' - t0 - <a, y0>) for q =
    (x0 + a, y0 + b, t'), so the candidates are the x' and y' within the
    bound of x0 and y0 on their axes and, for each a, the t' within bound^2
    of t0 + <a, y0>; on Z^m, the values within the bound of p0 on each
    axis. g*p = (x + a, y + b, t + g_t + <a, y>) lies in the sample when
    each coordinate lies on its axis."""
    d, e = grid.d, grid.e
    c = len(grid.sizes)
    cell0 = grid.cell(core[0])
    head = c - 1 if grid.heisenberg else c
    spans = []
    for k in range(head):
        u, w = grid.values[k][cell0[k]]
        p, q = bound.numerator, bound.denominator
        spans.append(grid.span(k, (q * u - p * e, q * w, q * e),
                               (q * u + p * e, q * w, q * e)))
    steps = list(itertools.product(*[grid.diffs(k, cell0[k], spans[k])
                                     for k in range(head)]))
    members = [set(axis) for axis in grid.values]
    candidates = []
    if grid.heisenberg:
        n = grid.n
        e2 = e * e
        t0 = grid.values[-1][cell0[-1]]
        y0 = [grid.values[n + k][cell0[n + k]] for k in range(n)]
        b2 = bound * bound
        for g in steps:
            # t' - t0 - <a, y0> in [-bound^2, bound^2], over e^2
            ay = _dot(g[:n], y0, d)
            s = (e * t0[0] + ay[0], e * t0[1] + ay[1])
            for j in range(grid.first(c - 1, grid.t_bound(s, -b2)),
                           grid.first(c - 1, grid.t_bound(s, b2),
                                      strict=True)):
                u, w = grid.values[-1][j]
                candidates.append(g + ((e * u - s[0], e * w - s[1]),))
    else:
        candidates = steps
    zero = tuple((0, 0) for _ in range(c))
    candidates = [g for g in candidates if g != zero]
    tested = len(candidates)
    # blocks of core points grow while candidates survive
    start, size = 0, 16
    while candidates and start < len(core):
        points = [[grid.values[k][i] for k, i in enumerate(grid.cell(p))]
                  for p in core[start:start + size]]
        candidates = [g for g in candidates
                      if all(_translate_in(grid, members, g, p)
                             for p in points)]
        start += size
        size *= 2
    return tested, [tuple(u for u, _ in g) + tuple(w for _, w in g)
                    for g in candidates]


def _translate_in(grid: Grid, members: list, g: tuple, p: list) -> bool:
    """Whether g*p is a sample point, g with the t part over e^2."""
    if not grid.heisenberg:
        return all((a[0] + x[0], a[1] + x[1]) in axis
                   for a, x, axis in zip(g, p, members))
    n, d, e = grid.n, grid.d, grid.e
    for k in range(2 * n):
        if (g[k][0] + p[k][0], g[k][1] + p[k][1]) not in members[k]:
            return False
    ay = _dot(g[:n], p[n:2 * n], d)
    u = g[-1][0] + e * p[-1][0] + ay[0]
    w = g[-1][1] + e * p[-1][1] + ay[1]
    return u % e == 0 and w % e == 0 and (u // e, w // e) in members[-1]
