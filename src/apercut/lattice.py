"""Exact integer-row kernel, and the pair route of the analyses, for point
sets that are no product of axes.

Every coordinate of a model-set sample is (u + w*sqrt(d))/e with integers u,
w and one denominator e common to the whole sample (1 for Z[sqrt(d)], 2 for
the full ring of integers). `Lattice` holds the sample once as an integer
array of numerators, shape (N, 2*coord_count): the u parts of all
coordinates, then the w parts. Group elements built from it (left
differences p_i^-1 p_j, left translates g*p) keep their head coordinates
over e and the Heisenberg t coordinate over e^2, so products, inverses,
gauge tests against rational radii, squared gauges and set membership are
integer arithmetic on whole arrays.

Each step runs in int64 when a bound on its operands proves that every
intermediate, including the u^2 and w^2*d of a sign test, stays below 2^62
in magnitude; otherwise the same step runs on dtype=object Python ints. The
answers are the same either way.

`analysis` runs every phase of a sample that is a product of axes on those
axes in pure Python. The functions at the end of this module are its route
for the other samples (`ModelSet.from_points` sets): the neighbour index
(`NeighborIndex`) emits candidate pairs as index arrays, in bounded chunks
(the period search takes its candidates from one core point instead), and
the kernel tests whole chunks with exact integer arithmetic.

The two float estimates, the covering radius (grid point to nearest sample
point) and the return radii (centre to nearest other centre of a class),
are max-min problems and share one kernel (`_MaxMin`), one per class for
the return radii. It retires a query as soon as some candidate lies within
the running maximum W, which is exact: a query whose candidate minimum is
<= W cannot raise the maximum.
A query with no candidate within W or within the round's radius r has its
nearest target beyond r, since every target within r is a candidate, so
it goes on to the next round, until the radius reaches that target.

The index follows the left-invariant metric: for H_n it keys t on the
sheared coordinate t - <X, y>, X the centre of the point's x-cell, in cells
of side (1 + 3n/2) r^2 at radius r. A query c looks up each neighbouring
x-column j at its own key t_c - <X_j, y_c>, and every p with
gauge(c^-1 p) <= r is found, because |tau(c^-1 p)| <= r^2 and
|c_x - X_j| <= 3r/2 bound the sheared difference by r^2 + (3/2) n r^2 on
any region. Its candidates therefore do not grow with the region's x-span.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import LIMIT
from .heisenberg import Family, GroupKind
from .quadratic import numerator_rows, row_key

if TYPE_CHECKING:
    from .cutproject import ModelSet


def _absmax(*arrays) -> int:
    return max((int(np.abs(a).max()) for a in arrays if a.size), default=0)


def _as_object(a: np.ndarray) -> np.ndarray:
    return a if a.dtype == object else a.astype(object)


def int_array(values: Sequence) -> tuple[np.ndarray, int]:
    """Python ints, flat or in rows of one length, as an array, and the
    bound max |v|: int64 while the bound stays below LIMIT, Python ints
    (dtype=object) once it reaches it."""
    try:
        a = np.array(values, dtype=np.int64)
        bound = max(int(a.max()), -int(a.min())) if a.size else 0
    except OverflowError:
        bound = LIMIT
    if bound >= LIMIT:
        a = np.array(values, dtype=object)
        bound = max(map(abs, a.ravel().tolist()))
    return a, bound


class Quad:
    """An array of exact numerators u + w*sqrt(d) with |u|, |w| <= bound.

    Every operation derives the bound of its result from the bounds of its
    operands first, and moves to Python ints when that bound reaches LIMIT.
    """

    __slots__ = ("u", "w", "d", "bound")

    def __init__(self, u: np.ndarray, w: np.ndarray, d: int,
                 bound: int | None = None) -> None:
        self.u = u
        self.w = w
        self.d = d
        self.bound = _absmax(u, w) if bound is None else bound

    def _wide(self, bound: int) -> "Quad":
        if bound < LIMIT or self.u.dtype == object:
            return self
        return Quad(_as_object(self.u), _as_object(self.w), self.d, self.bound)

    def __getitem__(self, idx) -> "Quad":
        return Quad(self.u[idx], self.w[idx], self.d, self.bound)

    def __neg__(self) -> "Quad":
        return Quad(-self.u, -self.w, self.d, self.bound)

    def __add__(self, other: "Quad") -> "Quad":
        bound = self.bound + other.bound
        a, b = self._wide(bound), other._wide(bound)
        return Quad(a.u + b.u, a.w + b.w, self.d, bound)

    def __sub__(self, other: "Quad") -> "Quad":
        return self + (-other)

    def __mul__(self, other: "Quad") -> "Quad":
        bound = self.bound * other.bound * (1 + self.d)
        a, b = self._wide(bound), other._wide(bound)
        return Quad(a.u * b.u + a.w * b.w * self.d,
                    a.u * b.w + a.w * b.u, self.d, bound)

    def scale(self, k) -> "Quad":
        """self * k for an integer k, or an integer array that broadcasts
        against self."""
        if isinstance(k, np.ndarray):
            bound = max(self.bound, 1) * _absmax(k)
            if bound >= LIMIT:
                k = _as_object(k)
        else:
            bound = max(self.bound, 1) * abs(k)
        a = self._wide(bound)
        return Quad(a.u * k, a.w * k, self.d, bound)

    def add_int(self, k: int) -> "Quad":
        """self + k for an integer k."""
        bound = self.bound + abs(k)
        a = self._wide(bound)
        return Quad(a.u + k, a.w, self.d, bound)

    def sum(self, axis: int) -> "Quad":
        bound = self.bound * self.u.shape[axis]
        a = self._wide(bound)
        return Quad(a.u.sum(axis=axis), a.w.sum(axis=axis), self.d, bound)

    def sign(self) -> np.ndarray:
        """Exact sign of each u + w*sqrt(d), as int8."""
        u, w = self.u, self.w
        if self.bound * self.bound * self.d >= LIMIT and u.dtype != object:
            if _absmax(u, w) ** 2 * self.d >= LIMIT:
                u, w = _as_object(u), _as_object(w)
        su, sw = np.sign(u), np.sign(w)
        out = np.sign(su + sw)
        mixed = su * sw < 0
        if mixed.any():
            um, wm = u[mixed], w[mixed]
            # u^2 = w^2*d has no nonzero solution for square-free d >= 2
            out[mixed] = np.where(um * um > wm * wm * self.d,
                                  su[mixed], sw[mixed])
        return out.astype(np.int8)

    def abs(self) -> "Quad":
        s = self.sign()
        return Quad(self.u * s, self.w * s, self.d, self.bound)

    def cmp_rational(self, den: int, r: Fraction) -> np.ndarray:
        """Exact sign of self/den - r, for an integer den > 0."""
        return self.scale(r.denominator).add_int(-r.numerator * den).sign()

    def abs_leq(self, den: int, r: Fraction) -> np.ndarray:
        """|self/den| <= r, exactly, for an integer den > 0."""
        return ((self.cmp_rational(den, r) <= 0)
                & ((-self).cmp_rational(den, r) <= 0))

    def to_float(self) -> np.ndarray:
        return (self.u.astype(float)
                + self.w.astype(float) * math.sqrt(self.d))

    @staticmethod
    def concat(parts: Sequence["Quad"]) -> "Quad":
        return Quad(np.concatenate([q.u for q in parts]),
                    np.concatenate([q.w for q in parts]), parts[0].d,
                    max(q.bound for q in parts))

    @staticmethod
    def where(mask: np.ndarray, a: "Quad", b: "Quad") -> "Quad":
        return Quad(np.where(mask, a.u, b.u), np.where(mask, a.w, b.w),
                    a.d, max(a.bound, b.bound))


class Elems:
    """Group elements as exact numerators: head coordinates over e (Quad of
    shape (P, head)) and, for H_n, the t coordinate over e^2 (shape (P,))."""

    __slots__ = ("head", "t")

    def __init__(self, head: Quad, t: Quad | None) -> None:
        self.head = head
        self.t = t

    def __len__(self) -> int:
        return len(self.head.u)

    def __getitem__(self, idx) -> "Elems":
        return Elems(self.head[idx],
                     None if self.t is None else self.t[idx])

    def rows(self) -> np.ndarray:
        """Numerator rows: head u parts, t u part, head w parts, t w part."""
        if self.t is None:
            return np.hstack([self.head.u, self.head.w])
        return np.hstack([self.head.u, self.t.u[:, None],
                          self.head.w, self.t.w[:, None]])


def _floor_sqrt_d(w: np.ndarray, bound: int, d: int) -> np.ndarray:
    """floor(w * sqrt(d)) for an integer array w with |w| <= bound."""
    if bound * bound * d >= LIMIT and _absmax(w) ** 2 * d >= LIMIT:
        w = _as_object(w)
    sq = w * w * d
    if sq.dtype == object:
        root = np.array([math.isqrt(v) for v in sq.ravel().tolist()],
                        dtype=object).reshape(sq.shape)
    else:
        root = np.floor(np.sqrt(sq.astype(float))).astype(np.int64)
        root -= root * root > sq
        root += (root + 1) * (root + 1) <= sq
    # w*sqrt(d) is irrational unless w == 0
    return np.where(w >= 0, root, -root - 1)


class Lattice:
    """A finite point set of `kind` with coordinates in Q(sqrt(d)), held as
    integer numerator rows over one common denominator e."""

    def __init__(self, kind: GroupKind, d: int,
                 rows: Sequence[Sequence[int]], e: int) -> None:
        """From numerator rows over e, laid out as `ModelSet.rows`."""
        self.kind = kind
        self.d = d
        self.e = e
        a, self.bound = int_array(rows)
        self.rows = a.reshape(len(rows), 2 * kind.coord_count)
        self._members: set | None = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def head_len(self) -> int:
        """Number of head coordinates: all of them for Z^m, x and y for H_n."""
        kind = self.kind
        return kind.rank if kind.family is Family.EUCLIDEAN else 2 * kind.rank

    def coord(self, k: int, idx=slice(None)) -> Quad:
        """Numerators (over e) of coordinate k of the points idx."""
        c = self.kind.coord_count
        return Quad(self.rows[idx, k], self.rows[idx, c + k], self.d,
                    self.bound)

    def _heads(self, idx) -> Quad:
        c, h = self.kind.coord_count, self.head_len
        return Quad(self.rows[idx, :h], self.rows[idx, c:c + h], self.d,
                    self.bound)

    def points(self, idx=slice(None)) -> Elems:
        """The points idx as group elements (t rescaled to e^2)."""
        head = self._heads(idx)
        if self.kind.family is Family.EUCLIDEAN:
            return Elems(head, None)
        return Elems(head, self.coord(self.head_len, idx).scale(self.e))

    # -- group operations ----------------------------------------------------

    def left_diff(self, i: np.ndarray, j: np.ndarray) -> Elems:
        """p_i^-1 * p_j for index arrays i, j."""
        h = self.head_len
        head_i = self._heads(i)
        dhead = self._heads(j) - head_i
        if self.kind.family is Family.EUCLIDEAN:
            return Elems(dhead, None)
        n = self.kind.rank
        dt = (self.coord(h, j) - self.coord(h, i)).scale(self.e)
        cross = (head_i[:, :n] * dhead[:, n:h]).sum(axis=1)
        return Elems(dhead, dt - cross)

    def right_diff(self, i: np.ndarray, j: np.ndarray) -> Elems:
        """p_j * p_i^-1 for index arrays i, j: the g with g * p_i = p_j."""
        p = self.points(i)
        inverse = Elems(-p.head, None if p.t is None else self._inverse_t(p))
        return self.mul(self.points(j), inverse)

    def mul(self, a: Elems, b: Elems) -> Elems:
        """Elementwise products a * b."""
        head = a.head + b.head
        if a.t is None:
            return Elems(head, None)
        n = self.kind.rank
        cross = (a.head[:, :n] * b.head[:, n:2 * n]).sum(axis=1)
        return Elems(head, a.t + b.t + cross)

    def _inverse_t(self, g: Elems) -> Quad:
        """t numerators of g^-1: <x, y> - t."""
        n = self.kind.rank
        return (g.head[:, :n] * g.head[:, n:2 * n]).sum(axis=1) - g.t

    # -- gauges --------------------------------------------------------------

    def gauge_leq(self, g: Elems, r, symmetric: bool = False) -> np.ndarray:
        """Box gauge of each g at most the rational r; with symmetric, the
        gauges of g and g^-1 both (they differ only in t)."""
        r, e = Fraction(r), self.e
        ok = g.head.abs_leq(e, r).all(axis=1)
        if g.t is None:
            return ok
        live = np.flatnonzero(ok)
        gl = g[live]
        t_ok = gl.t.abs_leq(e * e, r * r)
        if symmetric:
            t_ok &= self._inverse_t(gl).abs_leq(e * e, r * r)
        ok[live] = t_ok
        return ok

    def sq_gauge(self, g: Elems) -> Quad:
        """Squared symmetric gauges, numerators over e^2, shape (P,)."""
        head = g.head * g.head
        terms = [head[:, k] for k in range(head.u.shape[1])]
        if g.t is not None:
            terms += [g.t.abs(), self._inverse_t(g).abs()]
        best = terms[0]
        for term in terms[1:]:
            best = Quad.where((term - best).sign() > 0, term, best)
        return best

    # -- membership ----------------------------------------------------------

    def contains(self, g: Elems) -> np.ndarray:
        """Which elements of g are points of this set, by hashed rows."""
        if self._members is None:
            self._members = set(map(tuple, self.points().rows().tolist()))
        members = self._members
        return np.fromiter((tuple(r) in members for r in g.rows().tolist()),
                           dtype=bool, count=len(g))

    # -- conversions ---------------------------------------------------------

    def elems(self, rows: np.ndarray) -> Elems:
        """Elements from numerator rows laid out as by `Elems.rows`."""
        c, h = self.kind.coord_count, self.head_len
        head = Quad(rows[:, :h], rows[:, c:c + h], self.d)
        if self.kind.family is Family.EUCLIDEAN:
            return Elems(head, None)
        return Elems(head, Quad(rows[:, h], rows[:, c + h], self.d))

    def to_coords(self, rows: Sequence[Sequence[int]]) -> list:
        """Exact coordinates of elements given as numerator rows (laid out
        as by `Elems.rows`)."""
        from .analysis import element_coords

        return element_coords(self.kind, self.d, self.e, rows)

    def numerators(self, idx=slice(None)) -> Quad:
        """Numerators (over e) of every coordinate of the points idx, shape
        (P, coord_count)."""
        c = self.kind.coord_count
        return Quad(self.rows[idx, :c], self.rows[idx, c:], self.d,
                    self.bound)

    def float_coords(self) -> np.ndarray:
        """Float coordinates, shape (N, coord_count), each equal to float()
        of its exact value: float(QuadNum) computes (p + q*sqrt(d))/den,
        and when e is the least common denominator of ring elements, e/den
        is 1 or 2, so scaling p, q and den by it changes no rounding."""
        return self.numerators().to_float() / self.e


def cell_floor(num: Quad, den: int, size: Fraction) -> np.ndarray:
    """floor(num / (den * size)), exactly, for numerators num over an
    integer den > 0 and a rational size > 0."""
    num = num.scale(size.denominator)
    divisor = den * size.numerator
    # floor((u + w*sqrt(d)) / m) = floor((u + floor(w*sqrt(d))) / m)
    floor_w = _floor_sqrt_d(num.w, num.bound, num.d)
    total = num.u + floor_w
    if divisor >= LIMIT:
        total = _as_object(total)
    return total // divisor


def sheared_cell_floor(y: Quad, t: Quad, den: int, cols: np.ndarray,
                       width: Fraction, size: Fraction) -> np.ndarray:
    """floor((t - sum_i (cols_i + 1/2) * width * y_i) / size), exactly: the
    sheared t cell keys, in cells of side size, of H_n points with y
    numerators y (shape (P, n)) and t numerators t (shape (P,)) over den,
    placed in the x-columns with integer keys cols (shape (P, n)) of side
    width, whose centres are (cols_i + 1/2) * width."""
    a, b = width.numerator, width.denominator
    if (2 * _absmax(cols) + 1) * a >= LIMIT:
        cols = _as_object(cols)
    # numerators over 2*b*den; the reduced size keeps them short
    s = t.scale(2 * b) - y.scale((2 * cols + 1) * a).sum(axis=1)
    return cell_floor(s, 1, 2 * b * den * size)


class CellCodes:
    """Exact cell keys (one floor per axis) packed into one integer code.

    Shifted by one below the smallest key of the points, the keys of the
    points and of their neighbor cells lie in [0, span + 2] on each axis, so
    radix span + 3 packs them without collisions. The codes are int64 when
    the largest one stays below LIMIT, Python ints otherwise.
    """

    def __init__(self, keys: Sequence[np.ndarray]) -> None:
        self.keys = keys
        self._lo = [int(k.min()) - 1 if k.size else 0 for k in keys]
        self._radices = [int(k.max()) - lo + 2 if k.size else 1
                         for k, lo in zip(keys, self._lo)]
        strides, stride = [], 1
        for radix in reversed(self._radices):
            strides.append(stride)
            stride *= radix
        self._strides = strides[::-1]
        self.size = stride  # every code lies in [0, size)
        dtype = np.int64 if stride < LIMIT else object
        codes = np.zeros(len(keys[0]), dtype=dtype)
        for k, lo, st in zip(keys, self._lo, self._strides):
            codes += (k - lo).astype(dtype) * st
        self.codes = codes

    def neighbors(self, keys: Sequence[np.ndarray]) -> tuple:
        """The 3^dim cells around each of Q queries, as code runs: arrays
        first and last of shape (Q, 3^(dim-1)), one run per combination of
        offsets (-1, 0, 1) on the axes but the last, in `itertools.product`
        order. The last axis has stride 1, so the three cells around a key
        on it have consecutive codes; the run first..last holds those of
        them inside the key range of the points, and first > last when none
        is (cells outside the range are empty, and are skipped rather than
        packed).

        keys[k] holds the queries' keys on axis k: shape (Q,), or (Q, 3^j)
        for some j < dim when the key on axis k depends on the offsets on
        axes 0..j-1 (one column per combination of them, in the same
        order)."""
        n, dtype = len(keys[0]), self.codes.dtype
        codes = np.zeros((n, 1), dtype=dtype)
        inside = np.ones((n, 1), dtype=bool)
        steps = np.array([-1, 0, 1], dtype=dtype)
        for axis, (k, lo, radix, st) in enumerate(zip(
                keys, self._lo, self._radices, self._strides)):
            # keys beyond the range by more than one have no cell inside
            near = np.minimum(np.maximum(np.asarray(k) - lo, -1), radix)
            near = near.astype(dtype).reshape(n, -1, 1)
            # (query, leading offsets, other earlier offsets)
            split = (n, near.shape[1], -1)
            codes, inside = codes.reshape(split), inside.reshape(split)
            if axis == len(keys) - 1:
                break
            shifted = near[..., None] + steps
            ok = (shifted >= 1) & (shifted <= radix - 2)
            codes = (codes[..., None] + shifted * ok * st).reshape(n, -1)
            inside = (inside[..., None] & ok).reshape(n, -1)
        first = codes + np.maximum(near - 1, 1)
        last = codes + np.minimum(near + 1, radix - 2)
        inside &= first <= last
        return (np.where(inside, first, 0).reshape(n, -1),
                np.where(inside, last, -1).reshape(n, -1))


# ---------------------------------------------------------------------------
# the pair route of `analysis`, for point sets that are no product of axes
# ---------------------------------------------------------------------------

def interior(ms: ModelSet, depth: Fraction, use_x_margin: bool) -> list[int]:
    """`analysis.right_interior` (use_x_margin) or `left_interior` of any
    sample, decided on whole coordinate arrays."""
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
        # lo + margin <= t <= hi - margin, with the margin K^2 + K*span of
        # span = sum|anchor|, as numerators over a^2 * e for depth = a/b
        n = kind.rank
        anchor = range(n) if use_x_margin else range(n, 2 * n)
        span = lat.coord(anchor[0]).abs()
        for k in anchor[1:]:
            span = span + lat.coord(k).abs()
        a, b = depth.numerator, depth.denominator
        margin = span.scale(a * b).add_int(a * a * e)
        scale = b * b
        t = lat.coord(2 * n).scale(scale)
        lo, hi = ivs[2 * n]
        ok &= (((t - margin).cmp_rational(scale * e, lo) >= 0)
               & ((t + margin).cmp_rational(scale * e, hi) <= 0))
    return np.flatnonzero(ok).tolist()


def separation_pairs(ms: ModelSet, radius: Fraction) -> tuple:
    """(u, w, (i, j), r) for `analysis.separation`: the least squared
    symmetric gauge (u + w*sqrt(d))/e^2 over the pairs of points, the
    lexicographically smallest pair (i, j), i < j, at it, and the first
    radius radius * 2^k that holds a pair. Every index candidate pair is
    tested exactly at that radius; the doubling ends, since two distinct
    points have a finite gauge g and the index yields their pair once the
    radius reaches g."""
    lat = ms.lattice
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
    return (int(sq.u[first]), int(sq.w[first]),
            (int(i[first]), int(j[first])), radius)


def covering_pairs(ms: ModelSet, axes: Sequence[Sequence[Fraction]]) -> float:
    """`analysis.covering_radius_estimate` over the grid with the rational
    axis values axes, by the max-min kernel (`_MaxMin`) with the sample
    points as targets. The grid is walked in blocks, never built whole.
    The kernel compares a grid point only with the points of its index
    neighbourhood, at doubling radii r, each indexed at
    r + delta (delta from `_float_gauge_error` bounds |float gauge - exact
    gauge| over the region); see `_MaxMin` for why the estimate equals the
    full grid-by-sample scan bit for bit. The candidates come from the
    query keys of the grid point itself: exact floors of its coordinates,
    held as integer numerators over one common denominator, and the sheared
    cells of `NeighborIndex` keep every point within r + delta among them
    wherever the region lies."""
    shape = [len(axis) for axis in axes]
    total = math.prod(shape)
    grid_axes = [np.array([float(v) for v in axis]) for axis in axes]
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
    return kernel.worst


def patch_rows(ms: ModelSet, centers: Sequence[int], radius: Fraction,
               index: "NeighborIndex") -> tuple[list, dict]:
    """Patches at the centers, each as a key (the sorted numerator rows of
    the relative coordinates p_c^-1 * q of the points q within symmetric
    distance radius); and, per distinct key, those rows in `row_order`."""
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
    return keys, {key: tuple(sorted(key, key=order)) for key in set(keys)}


def return_radii(ms: ModelSet, classes: Sequence[Sequence[int]]) -> list:
    """Per class (its ascending centres), the largest over every centre of
    every class of the float gauge to the nearest other centre of the
    class, -inf when no centre has one: one max-min kernel (`_MaxMin`) per
    class, its centres the targets and every centre a query."""
    centers = np.array(sorted(c for cls in classes for c in cls),
                       dtype=np.intp)
    lat = ms.lattice
    block = max(1, PAIR_CHUNK // 3 ** lat.kind.coord_count)
    radii = []
    for cls in classes:
        kernel = _MaxMin(ms, np.asarray(cls, dtype=np.intp))
        for start in range(0, len(centers), block):
            idx = centers[start:start + block]
            kernel.add([c[idx] for c in kernel.cols], lat.numerators(idx),
                       lat.e, own=idx)
        radii.append(kernel.worst)
    return radii


def period_rows(ms: ModelSet, core: Sequence[int],
                gauge_bound: Fraction) -> tuple[int, list]:
    """(candidates, survivors) of `analysis.period_search`: the number of
    elements q * p0^-1 within the gauge bound, over the sample points q !=
    p0 = core[0], and the numerator rows (laid out as `Elems.rows`) of
    those that map every core point into the sample. A candidate dies at
    its first core point p with g*p outside the sample; blocks of core
    points grow while candidates survive."""
    lat = ms.lattice
    others = np.delete(np.arange(len(lat)), core[0])  # q = p0 is the identity
    g = lat.right_diff(np.full(len(others), core[0]), others)
    rows = g[lat.gauge_leq(g, gauge_bound)].rows()
    candidates = lat.elems(rows)
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
    return len(rows), rows[alive].tolist()


# Candidate pairs per chunk: bounds the memory of the vectorized predicates.
# At 2^16 the temporaries stay near cache size; 2^18 was no faster on the
# R=8 and R=12 H1 samples. The max-min kernel derives its sizes from it:
# pair tiles of PAIR_CHUNK / 4 for the float gauge, a spread sample of
# PAIR_CHUNK / 1024 queries, and query blocks of PAIR_CHUNK / 3^dim points.
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

    def __init__(self, ms: ModelSet, radius: Fraction, points=None) -> None:
        """Index the sample points `points` (default: all of them)."""
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
        points with numerators coords over den: arrays of shape (Q,
        3^(dim-1)) as from `CellCodes.neighbors`."""
        return self._cells.neighbors(self._keys(coords, den, own=False))

    def lookup(self, first, last) -> tuple:
        """(lo, count): the indexed points whose cells lie in the runs
        first..last of `cell_runs`, as runs lo..lo+count-1 of the sorted
        order."""
        lo = np.searchsorted(self._sorted, first, side="left")
        hi = np.searchsorted(self._sorted, last, side="right")
        return lo, hi - lo

    def _expand(self, q, lo, counts) -> tuple:
        per_query = counts.sum(axis=1)
        pos = _expand_runs(lo.ravel(), counts.ravel())
        return np.repeat(q, per_query), self._order[pos]


class _MaxMin:
    """The max-min kernel: the largest over query points q of the float
    symmetric gauge from q to its nearest target, q itself excluded (a
    directed Hausdorff distance). Targets are sample points, one at least,
    and `worst` holds the running maximum W (-inf while no query has a
    finite distance). Queries arrive in blocks (`add`).

    The queries go through rounds at radii r = 2^k, from the rung of the
    targets (`_start_rung`). Round k looks the queries up in one
    `NeighborIndex` of the targets at r + delta, shared by every block. The
    queries of one neighbourhood share its candidate list, ordered by
    gauge from one of them, so that its first ranks are near for each. A
    query takes its candidates in rank tiles of doubling width and leaves
    as soon as one of two things holds:

    * retired: some candidate lies within W. Its nearest target is no
      farther, so it cannot raise the maximum, whatever its exact value.
    * settled: all its candidates are in and their minimum m is <= r. The
      nearest target p* of the full scan has float gauge D <= m <= r, so
      its exact gauge is <= r + delta and p* is a candidate: m = D, which
      W then takes.

    A query with neither has no candidate within W or within r, so its
    nearest target lies beyond r (every target within r is a candidate),
    and it goes on to the next radius. So every query with a finite
    distance leaves by the round whose radius reaches that distance, and
    W ends as the maximum of the full scan bit for bit: the float gauge
    takes the full scan's operations (`_Gauge`). Taha and Hanbury, "An
    efficient algorithm for calculating the exact Hausdorff distance"
    (IEEE TPAMI 37(11), 2015), give the early break and the order: while W
    is unset, a spread sample of the block's queries is first compared
    with every target, which sets W near its final value, so the rest
    mostly retire on their first candidate. A block whose queries times
    targets fit in one pair chunk is compared whole the same way.
    """

    def __init__(self, ms: ModelSet, targets=None) -> None:
        self.ms = ms
        floats = ms.lattice.float_coords()
        self.cols = [np.ascontiguousarray(floats[:, k])
                     for k in range(floats.shape[1])]
        self.delta = _float_gauge_error(ms.scheme.kind, _float_magnitude(ms))
        self.worst = -math.inf
        self.points = np.arange(len(ms)) if targets is None else targets
        self.start = _start_rung(ms, len(self.points))
        # the one target of a single-target kernel is no target for itself
        self.only = int(self.points[0]) if len(self.points) == 1 else -1
        self.indexes: dict[int, NeighborIndex] = {}
        self.gauge = _Gauge(ms.scheme.kind)
        self.tile = max(1, PAIR_CHUNK >> 2)
        self.sample = max(1, PAIR_CHUNK >> 10)

    def add(self, qcols: list, qnum: Quad, den: int, own=None) -> None:
        """Fold in the query points with float coordinate columns qcols
        and exact numerators qnum (shape (B, dim)) over den; own holds
        their sample indices when they are targets too."""
        size = len(qcols[0])
        if size * len(self.points) <= PAIR_CHUNK:
            self._all_pairs(qcols, own, np.arange(size))
            return
        first = np.zeros(size, dtype=bool)
        if self.worst == -math.inf:
            # a spread sample against every target sets W
            first[::max(1, size // self.sample)] = True
            self._all_pairs(qcols, own, np.flatnonzero(first))
        queries = np.flatnonzero(~first)
        if own is not None and self.only >= 0:
            queries = queries[own[queries] != self.only]
        near = np.full(len(queries), math.inf)
        rung = self.start
        while queries.size:
            done = self._round(rung, queries, near, qcols, qnum, den, own)
            queries, near = queries[~done], near[~done]
            rung += 1

    def _all_pairs(self, qcols: list, own, rows: np.ndarray) -> None:
        """The query points rows against every target: a round at a radius
        beyond every distance, so each of them settles."""
        targets = self.points
        step = max(1, PAIR_CHUNK // len(targets))
        for s in range(0, len(rows), step):
            q = rows[s:s + step]
            i = np.repeat(q, len(targets))
            j = np.tile(targets, len(q))
            dist = self._gauges(qcols, i, j)
            if own is not None:
                dist[j == own[i]] = math.inf
            nearest = dist.reshape(len(q), -1).min(axis=1)
            finite = nearest[np.isfinite(nearest)]
            if finite.size:
                self.worst = max(self.worst, float(finite.max()))

    def _index(self, rung: int) -> NeighborIndex:
        index = self.indexes.get(rung)
        if index is None:
            index = self.indexes[rung] = NeighborIndex(
                self.ms, Fraction(2) ** rung + self.delta, self.points)
        return index

    def _round(self, rung: int, queries: np.ndarray, near: np.ndarray,
               qcols: list, qnum: Quad, den: int, own) -> np.ndarray:
        """One round at radius 2^rung for the queries, whose running
        minima near it updates; returns which are done."""
        r = 2.0 ** rung  # a power of two: the float is exact
        done = near <= self.worst
        live = np.flatnonzero(~done)
        if not live.size:
            return done
        index = self._index(rung)
        # per query, its neighbourhood: a row of distinct code runs
        hood, first, last = _distinct_rows(*index.cell_runs(qnum[queries],
                                                            den))
        need = np.zeros(len(first), dtype=bool)
        need[hood[live]] = True
        lo, cnt = index.lookup(first[need], last[need])
        total = cnt.sum(axis=1)
        row = (np.cumsum(need) - 1)[hood]  # per query, a row of lo and cnt
        live = live[total[row[live]] > 0]
        if not live.size:
            return done
        # each row's candidates, nearest to one of its queries first: the
        # queries of a row share their cells, so its early ranks are near
        # for each of them
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
            retired = near[live] <= self.worst
            spent = total[rows] <= b
            settled = spent & ~retired & (near[live] <= r)
            if settled.any():
                self.worst = max(self.worst,
                                 float(near[live[settled]].max()))
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


def _start_rung(ms: ModelSet, count: int) -> int:
    """For count >= 1 targets, the exponent k whose radius 2^k lies
    nearest (in log scale) the typical nearest distance to them: the
    radius whose gauge ball would hold one target if they spread evenly
    over the region (axes narrower than 1 taken as 1). The radius is only
    a starting guess; the rounds are exact from any."""
    kind = ms.scheme.kind
    if kind.family is Family.EUCLIDEAN:
        ball, dim = kind.rank, kind.rank  # log2 of the unit ball's volume
    else:
        ball, dim = 2 * kind.rank + 1, 2 * kind.rank + 2
    volume = sum(math.log2(max(hi - lo, 1)) for lo, hi in ms.region.intervals)
    return round((volume - ball - math.log2(count)) / dim)


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
    # sorted needles make the lookups' binary searches cheap
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
