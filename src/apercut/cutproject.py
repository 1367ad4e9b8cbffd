"""Cut-and-project schemes and model sets.

The ambient pair is (G, H) with G = H = the chosen group over R, and the
lattice is the group over a real quadratic ring embedded coordinate-wise by
gamma -> (gamma, conjugate(gamma)). A model set collects the lattice points
whose internal (conjugate) coordinates fall in a box window W while the
physical coordinates stay in a box region R. Both constraints factor per
coordinate, so generation is exhaustive within the region and is the
product of exact one-dimensional ring axes (`quadratic.ring_axis`): integer
pairs (p, v) for the elements (p + v*sqrt(d))/s, which become the sample's
numerator rows with no `QuadNum` in between. A boundary witness fills the
other axes with their least in-window values from the same axis walks.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence, Tuple

from .errors import Record, WindowError, check_budget
from .heisenberg import Family, GroupKind, GroupPoint
from .quadratic import (
    QuadNum,
    RingSpec,
    _p_ranges,
    count_ring_in_rectangle,
    enumerate_ring_in_rectangle,
    floor_div,
    numerator_rows,
    ring_axis,
    row_key,
    row_order,
    sign_pq,
)

if TYPE_CHECKING:
    from .analysis import Grid

FractionPair = Tuple[Fraction, Fraction]


class Box(Record):
    """An axis box with closed rational intervals, one per coordinate.

    Used both for windows (internal space) and regions (physical space);
    for Heisenberg coordinates the last interval is the t-axis.
    """

    intervals: Tuple[FractionPair, ...]

    def __post_init__(self) -> None:
        fixed = []
        for iv in self.intervals:
            lo, hi = Fraction(iv[0]), Fraction(iv[1])
            if lo > hi:
                raise WindowError(f"interval [{lo}, {hi}] is empty")
            fixed.append((lo, hi))
        object.__setattr__(self, "intervals", tuple(fixed))

    @classmethod
    def gauge_box(cls, kind: GroupKind, radius) -> "Box":
        """The closed gauge ball as a box: |x|,|y| <= r and |t| <= r^2."""
        r = Fraction(radius)
        if r < 0:
            raise ValueError("radius must be >= 0")
        if kind.family is Family.EUCLIDEAN:
            return cls(((-r, r),) * kind.rank)
        return cls(((-r, r),) * (2 * kind.rank) + ((-r * r, r * r),))

    @classmethod
    def cube(cls, kind: GroupKind, radius) -> "Box":
        """[-r, r] on every coordinate, including t."""
        r = Fraction(radius)
        return cls(((-r, r),) * kind.coord_count)

    @property
    def has_interior(self) -> bool:
        return all(lo < hi for lo, hi in self.intervals)

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def contains(self, coords: Sequence) -> bool:
        return all(
            lo <= c <= hi for c, (lo, hi) in zip(coords, self.intervals)
        )


class Scheme(Record):
    """Group kind plus the quadratic ring defining the lattice."""

    kind: GroupKind
    ring: RingSpec

    @property
    def d(self) -> int:
        return self.ring.d


def _check_box(scheme: Scheme, box: Box, name: str) -> None:
    if box.dim != scheme.kind.coord_count:
        raise WindowError(
            f"{name} has {box.dim} intervals, "
            f"{scheme.kind.label} needs {scheme.kind.coord_count}"
        )


Row = Tuple[int, ...]


def _in_interval(u: int, w: int, e: int, d: int, iv: FractionPair) -> bool:
    """(u + w*sqrt(d))/e in the closed interval iv, for e > 0, exactly: the
    sign of the value minus a/b is the sign of (u*b - a*e) + w*b*sqrt(d)."""
    lo, hi = iv
    return (sign_pq(u * lo.denominator - lo.numerator * e,
                    w * lo.denominator, d) >= 0
            and sign_pq(u * hi.denominator - hi.numerator * e,
                        w * hi.denominator, d) <= 0)


class ModelSet(Record):
    """An exact finite sample of a cut-and-project set.

    Each point is one integer numerator row over the common denominator e:
    coordinate k of the point is (row[k] + row[c + k]*sqrt(d))/e, with c
    coordinates (x_1..x_n, y_1..y_n, t). Its internal point, the conjugate,
    is the same row with the w parts negated. The points are ring elements,
    pairwise distinct and sorted lexicographically by coordinates; every
    physical point is in the region, and every internal point is in the
    window. `points`, `internal_points` (as `GroupPoint`s), `axes` and
    `grid` are views built on first use.
    """

    scheme: Scheme
    window: Box
    region: Box
    rows: Tuple[Row, ...]
    e: int

    @classmethod
    def from_points(cls, scheme: Scheme, window: Box, region: Box,
                    points: Sequence[GroupPoint],
                    internal_points: Sequence[GroupPoint]) -> "ModelSet":
        """The model set of exact `GroupPoint`s; internal_points must be
        their conjugates. Not validated."""
        if len(internal_points) != len(points):
            raise ValueError("points and internal_points differ in length")
        rows, e = numerator_rows([p.coords for p in points]
                                 + [q.coords for q in internal_points])
        n = len(points)
        for p, row, internal in zip(points, rows, rows[n:]):
            c = len(p.coords)
            if internal != row[:c] + tuple(-w for w in row[c:]):
                raise ValueError(f"internal point mismatch at {p.coords}")
        return cls(scheme, window, region, tuple(rows[:n]), e)

    def __len__(self) -> int:
        return len(self.rows)

    def _coords(self, row: Row, sign: int = 1) -> Tuple[QuadNum, ...]:
        """Exact coordinates of a row; sign=-1 gives its conjugate."""
        c, d, e = self.scheme.kind.coord_count, self.scheme.d, self.e
        return tuple(QuadNum._mk(row[k], sign * row[c + k], e, d)
                     for k in range(c))

    @cached_property
    def points(self) -> Tuple[GroupPoint, ...]:
        kind = self.scheme.kind
        return tuple(GroupPoint(kind, self._coords(r)) for r in self.rows)

    @cached_property
    def internal_points(self) -> Tuple[GroupPoint, ...]:
        kind = self.scheme.kind
        return tuple(GroupPoint(kind, self._coords(r, -1)) for r in self.rows)

    def float_points(self) -> list:
        """Float coordinates, each equal to float() of its exact value,
        computed as `analysis.Grid.floats` computes its axes."""
        c, e = self.scheme.kind.coord_count, self.e
        root = math.sqrt(self.scheme.d)
        return [tuple((row[k] + row[c + k] * root) / e for k in range(c))
                for row in self.rows]

    @cached_property
    def axes(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """Per coordinate k, the distinct numerator pairs (row[k],
        row[c + k]) of the points, ascending in value. The points are
        distinct and lie in the product of their axes, so they are that
        product exactly when the product of the axis lengths is len(self)
        (`is_product`); then, as they are sorted, the point with axis
        indices (i_0, ..., i_(c-1)) is the one at the mixed-radix index of
        those indices."""
        c, d = self.scheme.kind.coord_count, self.scheme.d
        cols = list(zip(*self.rows)) or [()] * (2 * c)
        key = row_key(1, d)
        return tuple(tuple(sorted(set(zip(cols[k], cols[c + k])), key=key))
                     for k in range(c))

    @property
    def is_product(self) -> bool:
        return math.prod(map(len, self.axes)) == len(self)

    @cached_property
    def grid(self) -> Grid:
        """The axes prepared for the kernels of `analysis`, built on first
        use; with members when the set is no product of its axes
        (`analysis.Grid`)."""
        from .analysis import Grid

        return Grid(self)

    def validate(self) -> None:
        """Re-verify every structural invariant on the rows; raises
        ValueError naming the first violation, checking the region, the
        window, ring membership and then the order. The coordinate tests
        are per axis, so each distinct value on an axis is decided once.
        `generate_model_set` and the reader build their samples as axis
        products, which hold these by construction; this is the check for
        sets made with `from_points`."""
        kind, ring = self.scheme.kind, self.scheme.ring
        c, d, e, rows = kind.coord_count, ring.d, self.e, self.rows
        if any(len(r) != 2 * c for r in rows):
            raise ValueError(f"{kind.label} points need {2 * c} numerators")
        cols = list(zip(*rows)) or [()] * (2 * c)
        values = [set(zip(cols[k], cols[c + k])) for k in range(c)]
        tests = (
            ("physical point outside region", 1, lambda k, u, w:
                _in_interval(u, w, e, d, self.region.intervals[k])),
            ("internal point outside window", -1, lambda k, u, w:
                _in_interval(u, -w, e, d, self.window.intervals[k])),
            ("point outside the ring", 1, lambda k, u, w:
                ring.contains(QuadNum._mk(u, w, e, d))),
        )
        for message, sign, test in tests:
            bad = [{v for v in vals if not test(k, *v)}
                   for k, vals in enumerate(values)]
            if any(bad):
                row = next(r for r in rows if any(
                    (r[k], r[c + k]) in bad[k] for k in range(c)))
                raise ValueError(f"{message}: {self._coords(row, sign)}")
        for prev, row in zip(rows, rows[1:]):
            order = row_order(prev, row, c, d)
            if order == 0:
                raise ValueError(f"duplicate point {self._coords(row)}")
            if order < 0:
                raise ValueError("points not in canonical sorted order")


def model_set_size(scheme: Scheme, window: Box, region: Box,
                   cap: int | None = None) -> int:
    """The number of points of `generate_model_set(scheme, window, region)`,
    counted per axis without building them; each axis is counted until it
    passes cap."""
    return math.prod(
        count_ring_in_rectangle(scheme.ring, phys, internal, cap)
        for phys, internal in zip(region.intervals, window.intervals))


def generate_model_set(
    scheme: Scheme,
    window: Box,
    region: Box,
    allow_degenerate_window: bool = False,
) -> ModelSet:
    """Exhaustively enumerate the model set inside the region.

    The window must have nonempty interior unless allow_degenerate_window
    is set (degenerate windows make the boundary checks meaningless but the
    enumeration itself stays well defined). The sample is the product of
    the per-axis `ring_axis` lists, so it holds every `ModelSet` invariant by
    construction and is not re-checked; raises BudgetExceededError before
    building any axis when it has more points than `errors.element_budget()`.
    """
    _check_box(scheme, window, "window")
    _check_box(scheme, region, "region")
    if not window.has_interior and not allow_degenerate_window:
        raise WindowError("window has empty interior")
    total = model_set_size(scheme, window, region)
    check_budget(total, f"model set of {total} points")
    return _product_model_set(scheme, window, region, total)


def _product_model_set(scheme: Scheme, window: Box, region: Box,
                       total: int) -> ModelSet:
    """The model set of the window and region as the product of the
    per-axis `ring_axis` pairs, given its size `total` (`model_set_size`);
    when that is 0, no axis is enumerated."""
    if not total:
        return ModelSet(scheme, window, region, (), 1)
    ring = scheme.ring
    axes = [ring_axis(ring, phys, internal)
            for phys, internal in zip(region.intervals, window.intervals)]
    e = ring.scale
    # on the full ring p = v (mod 2), so a sample with only even p lies in
    # Z[sqrt(d)] and its least common denominator is 1
    if e == 2 and all(p % 2 == 0 for axis in axes for p, _ in axis):
        axes = [[(p // 2, v // 2) for p, v in axis] for axis in axes]
        e = 1
    # the product of ascending axes is already in lexicographic order, and
    # the products of the p and of the v lists run in step
    us = itertools.product(*[[p for p, _ in axis] for axis in axes])
    ws = itertools.product(*[[v for _, v in axis] for axis in axes])
    ms = ModelSet(scheme, window, region,
                  tuple(u + w for u, w in zip(us, ws)), e)
    # the ascending axes of a product are `ModelSet.axes`; keep them
    ms.__dict__["axes"] = tuple(map(tuple, axes))
    return ms


def periodic_control_model_set(scheme: Scheme, region: Box) -> ModelSet:
    """Degenerate positive control: the integer lattice inside the region,
    with window equal to the region.

    Integers are their own conjugates, so the window condition is the region
    condition and every ModelSet invariant holds. The result is a genuinely
    periodic set (the integer lattice is a subgroup), which the aperiodicity
    machinery must flag.
    """
    _check_box(scheme, region, "region")
    axes = [range(math.ceil(lo), math.floor(hi) + 1)
            for lo, hi in region.intervals]
    zeros = (0,) * len(axes)
    rows = tuple(u + zeros for u in itertools.product(*axes))
    return ModelSet(scheme, region, region, rows, 1)


# ---------------------------------------------------------------------------
# window regularity
# ---------------------------------------------------------------------------

# Witness fill values come first from lattice elements within this physical
# bound (widened to the axis window's endpoints); it bounds only which
# witnesses are printed, never whether the boundary is hit.
WITNESS_FILL_BOUND = 10


class RegularityReport(Record):
    """Window checks: nonempty interior and lattice points on the boundary,
    with example boundary points where small ones exist."""

    interior_nonempty: bool
    boundary_clear: bool
    boundary_witnesses: Tuple[Tuple[QuadNum, ...], ...]

    @property
    def window_regular(self) -> bool:
        return self.interior_nonempty and self.boundary_clear


def _integer_endpoints(iv: FractionPair) -> list[Fraction]:
    return sorted({e for e in iv if e.denominator == 1})


def _axis_fill(ring: RingSpec, w: FractionPair) -> QuadNum | None:
    """A ring element with conjugate in the closed axis window, or None if
    there is none. The least within the witness fill bound, widened to the
    window endpoints, if any: the least first element of each v of the axis
    walk. Otherwise, for a window with interior, m * e, where e = p +
    q*sqrt(d) runs over the convergents p/q of sqrt(d) until |e'| = |p -
    q*sqrt(d)| <= the window width (it is below 1/q, so this takes
    O(log(1/width)) steps), then has its sign set so that e' > 0, and m =
    ceil(lo / e'): m * e' lies in [lo, lo + e')."""
    bound = max(Fraction(WITNESS_FILL_BOUND), abs(w[0]), abs(w[1]))
    d = ring.d
    least = min(((ps[0], v) for v, ps in _p_ranges(ring, (-bound, bound), w)
                 if ps), key=row_key(1, d), default=None)
    if least is not None:
        return QuadNum._mk(*least, ring.scale, d)
    if w[0] == w[1]:
        return None
    root = math.isqrt(d)
    # sqrt(d) = [a_0; a_1, ...] with a_k = (root + m_k) // den_k
    m, den, a = 0, 1, root
    (p0, p), (q0, q) = (1, root), (0, 1)
    while abs((e := QuadNum(p, q, d)).conjugate()) > w[1] - w[0]:
        m = den * a - m
        den = (d - m * m) // den
        a = (root + m) // den
        p0, p = p, a * p + p0
        q0, q = q, a * q + q0
    if e.conjugate() < 0:
        e = -e
    return math.ceil(w[0] / e.conjugate()) * e


def check_window_regular(scheme: Scheme, window: Box) -> RegularityReport:
    """Decide exactly whether the projected lattice hits the window boundary.

    A ring element with a rational conjugate has b = 0 (in both ring
    variants), so only integers land on rational endpoints, and conjugates
    are dense, so an axis with interior always holds some conjugate. The
    boundary is therefore hit iff some axis has an integer endpoint and every
    other axis has interior or is a single integer point. No nontrivial
    lattice translation fixes a box: in Z^m it moves some interval, and in
    H_n it must fix the x/y box, so it is central, and a central one moves
    the t-interval.
    """
    _check_box(scheme, window, "window")
    ivs = window.intervals
    dims = range(len(ivs))
    touching = [_integer_endpoints(iv) for iv in ivs]
    reachable = [lo < hi or lo.denominator == 1 for lo, hi in ivs]
    hit = any(
        touching[i] and all(reachable[j] for j in dims if j != i)
        for i in dims
    )

    # one witness per touching endpoint, the other coordinates filled with
    # an in-window lattice value (`_axis_fill`), each built once when a
    # witness first needs it
    witnesses: list[Tuple[QuadNum, ...]] = []
    if hit:
        fills = cache(lambda j: _axis_fill(scheme.ring, ivs[j]))
        for i in dims:
            for e in touching[i]:
                fill = [fills(j) for j in dims if j != i]
                if None not in fill:
                    x = QuadNum(int(e), 0, scheme.d)
                    witnesses.append(tuple(fill[:i] + [x] + fill[i:]))

    return RegularityReport(
        interior_nonempty=window.has_interior,
        boundary_clear=not hit,
        # two touching axes can yield one point twice; keep the first
        boundary_witnesses=tuple(dict.fromkeys(witnesses)),
    )


# ---------------------------------------------------------------------------
# irreducibility evidence
# ---------------------------------------------------------------------------

class IrreducibilityReport(Record):
    sample_size: int
    density_fractions: Tuple[Tuple[int, float], ...]
    sample_bound: Fraction


def check_irreducibility(
    scheme: Scheme,
    sample_bound=5,
    density_box: Box | None = None,
    max_subdivision: int = 4,
) -> IrreducibilityReport:
    """Report how densely the internal projections of a finite lattice
    sample, the lattice points in the gauge box of sample_bound, fill a
    fixed box when split into 2^k cells per axis (heuristic evidence for
    dense image). Both projections are injective by construction: the
    sample is a product of distinct axis values, and conjugation is
    injective.

    The sample is never built: a point lies in the box, and in a cell,
    exactly when each of its coordinates lies in that axis's interval and
    cell, so the cells hit are the product of the cells that each axis's
    conjugates hit.
    """
    bound = Fraction(sample_bound)
    kind = scheme.kind
    axes = [enumerate_ring_in_rectangle(scheme.ring, iv, iv)
            for iv in Box.gauge_box(kind, bound).intervals]
    if density_box is None:
        density_box = Box.cube(kind, 1)
    _check_box(scheme, density_box, "density box")
    inside = [[c for c in (x.conjugate() for x in axis) if lo <= c <= hi]
              for axis, (lo, hi) in zip(axes, density_box.intervals)]
    fractions_by_k = []
    for k in range(1, max_subdivision + 1):
        cells = 2 ** k
        # the cells each axis hits, the right endpoint in the last one; no
        # point lies in the box when some axis has no conjugate in it
        hit = math.prod(
            len({min(floor_div(c - lo, (hi - lo) / cells), cells - 1)
                 for c in conj})
            for conj, (lo, hi) in zip(inside, density_box.intervals)
        ) if all(inside) else 0
        fractions_by_k.append((k, hit / cells ** kind.coord_count))

    return IrreducibilityReport(
        sample_size=math.prod(map(len, axes)),
        density_fractions=tuple(fractions_by_k),
        sample_bound=bound,
    )
