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
for the exact phases of the other samples (`ModelSet.from_points` sets):
interior cores, separation, patches and periods. The neighbour index
(`NeighborIndex`) emits candidate pairs as index arrays, in bounded chunks
(the period search takes its candidates from one core point instead), and
the kernel tests whole chunks with exact integer arithmetic. The two float
estimates, the covering radius and the return radii, run in `analysis` on
every sample.

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
# R=8 and R=12 H1 samples. The period search grows its blocks of core
# points up to PAIR_CHUNK candidate tests.
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
        self._cells = CellCodes(self._keys(lat.numerators(), lat.e, own=True))
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
        lat = self.ms.lattice
        if centers is None:
            queries = np.arange(len(lat))
        else:
            queries = np.asarray(centers, dtype=np.intp)
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

    def lookup(self, first, last) -> tuple:
        """(lo, count): the points whose cells lie in the code runs
        first..last of `CellCodes.neighbors`, as runs lo..lo+count-1 of the
        sorted order."""
        lo = np.searchsorted(self._sorted, first, side="left")
        hi = np.searchsorted(self._sorted, last, side="right")
        return lo, hi - lo

    def _expand(self, q, lo, counts) -> tuple:
        per_query = counts.sum(axis=1)
        pos = _expand_runs(lo.ravel(), counts.ravel())
        return np.repeat(q, per_query), self._order[pos]


def _expand_runs(begin: np.ndarray, count: np.ndarray) -> np.ndarray:
    """begin[k], begin[k] + 1, ..., begin[k] + count[k] - 1 for every k,
    concatenated."""
    total = int(count.sum())
    return np.repeat(begin - (np.cumsum(count) - count), count) + np.arange(
        total)
