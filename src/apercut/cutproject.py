"""Cut-and-project schemes and model sets.

The ambient pair is (G, H) with G = H = the chosen group over R, and the
lattice is the group over a real quadratic ring embedded coordinate-wise by
gamma -> (gamma, conjugate(gamma)). A model set collects the lattice points
whose internal (conjugate) coordinates fall in a box window W while the
physical coordinates stay in a box region R. Both constraints factor per
coordinate, so generation is a product of exact one-dimensional rectangle
enumerations and is exhaustive within the region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence, Tuple

from .errors import WindowError
from .heisenberg import Family, GroupKind, GroupPoint
from .quadratic import (
    QuadNum,
    RingSpec,
    enumerate_ring_in_rectangle,
    floor_div,
)

if TYPE_CHECKING:
    from .lattice import Lattice

FractionPair = Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class Box:
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

    def widths(self) -> Tuple[Fraction, ...]:
        return tuple(hi - lo for lo, hi in self.intervals)


@dataclass(frozen=True)
class Scheme:
    """Group kind plus the quadratic ring defining the lattice."""

    kind: GroupKind
    ring: RingSpec

    @property
    def d(self) -> int:
        return self.ring.d

    def conjugate_coords(self, coords: Sequence[QuadNum]) -> Tuple[QuadNum, ...]:
        return tuple(c.conjugate() for c in coords)


def _check_box(scheme: Scheme, box: Box, name: str) -> None:
    if box.dim != scheme.kind.coord_count:
        raise WindowError(
            f"{name} has {box.dim} intervals, "
            f"{scheme.kind.label} needs {scheme.kind.coord_count}"
        )


@dataclass(frozen=True)
class ModelSet:
    """An exact finite sample of a cut-and-project set.

    points and internal_points correspond index-wise under conjugation,
    points are pairwise distinct and sorted lexicographically by coordinates
    (x_1..x_n, y_1..y_n, t), every physical point is in the region, and every
    internal point is in the window.
    """

    scheme: Scheme
    window: Box
    region: Box
    points: Tuple[GroupPoint, ...]
    internal_points: Tuple[GroupPoint, ...]

    def __len__(self) -> int:
        return len(self.points)

    def float_points(self) -> list:
        return [p.to_float() for p in self.points]

    @cached_property
    def lattice(self) -> Lattice:
        """The points as integer numerator rows, built on first use."""
        from .lattice import Lattice  # numpy loads with the first analysis

        return Lattice(self.scheme.kind, self.scheme.d,
                       [p.coords for p in self.points])

    def validate(self) -> None:
        """Re-verify every structural invariant; raises on violation."""
        if len(self.points) != len(self.internal_points):
            raise ValueError("points and internal_points differ in length")
        seen = set()
        prev = None
        for p, q in zip(self.points, self.internal_points):
            if self.scheme.conjugate_coords(p.coords) != q.coords:
                raise ValueError(f"internal point mismatch at {p.coords}")
            if not self.region.contains(p.coords):
                raise ValueError(f"physical point outside region: {p.coords}")
            if not self.window.contains(q.coords):
                raise ValueError(f"internal point outside window: {q.coords}")
            if p.coords in seen:
                raise ValueError(f"duplicate point {p.coords}")
            seen.add(p.coords)
            if prev is not None and not prev < p.coords:
                raise ValueError("points not in canonical sorted order")
            prev = p.coords


def generate_model_set(
    scheme: Scheme,
    window: Box,
    region: Box,
    allow_degenerate_window: bool = False,
) -> ModelSet:
    """Exhaustively enumerate the model set inside the region.

    The window must have nonempty interior unless allow_degenerate_window
    is set (degenerate windows make the boundary checks meaningless but the
    enumeration itself stays well defined).
    """
    _check_box(scheme, window, "window")
    _check_box(scheme, region, "region")
    if not window.has_interior and not allow_degenerate_window:
        raise WindowError("window has empty interior")
    axes = [
        enumerate_ring_in_rectangle(scheme.ring, region.intervals[i],
                                    window.intervals[i])
        for i in range(scheme.kind.coord_count)
    ]
    # the product of ascending axes is already in lexicographic order
    coords_list = list(itertools.product(*axes))
    kind = scheme.kind
    points = tuple(GroupPoint(kind, c) for c in coords_list)
    internal = tuple(
        GroupPoint(kind, scheme.conjugate_coords(c)) for c in coords_list
    )
    ms = ModelSet(scheme, window, region, points, internal)
    ms.validate()
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
    d = scheme.d
    kind = scheme.kind
    axes = [
        [QuadNum(k, 0, d) for k in range(math.ceil(lo), math.floor(hi) + 1)]
        for lo, hi in region.intervals
    ]
    coords_list = list(itertools.product(*axes))
    points = tuple(GroupPoint(kind, c) for c in coords_list)
    ms = ModelSet(scheme, region, region, points, points)
    ms.validate()
    return ms


# ---------------------------------------------------------------------------
# window regularity
# ---------------------------------------------------------------------------

# Witness fill values come from lattice elements within this physical bound
# (widened to the axis window's endpoints); it bounds only which witnesses are
# printed, never whether the boundary is hit.
WITNESS_FILL_BOUND = 10


@dataclass(frozen=True)
class RegularityReport:
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


def _axis_window_elements(ring: RingSpec, w: FractionPair) -> list[QuadNum]:
    """Ring elements with conjugate in the closed axis window and physical
    value within the witness fill bound, widened to the window endpoints."""
    bound = max(Fraction(WITNESS_FILL_BOUND), abs(w[0]), abs(w[1]))
    return enumerate_ring_in_rectangle(ring, (-bound, bound), w)


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
    # the first in-window lattice value below the fill bound, if any
    witnesses: list[Tuple[QuadNum, ...]] = []
    if hit:
        axis_elems = [_axis_window_elements(scheme.ring, iv) for iv in ivs]
        for i in dims:
            others = [axis_elems[j] for j in dims if j != i]
            if not all(others):
                continue
            fill = [elems[0] for elems in others]
            for e in touching[i]:
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

@dataclass(frozen=True)
class IrreducibilityReport:
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
    sample fill a fixed box when split into 2^k cells per axis (heuristic
    evidence for dense image). Both projections are injective by
    construction: the sample is a product of distinct axis values, and
    conjugation is injective."""
    bound = Fraction(sample_bound)
    kind = scheme.kind
    sample_box = Box.gauge_box(kind, bound)
    axes = [
        enumerate_ring_in_rectangle(scheme.ring, iv, iv)
        for iv in sample_box.intervals
    ]
    sample = list(itertools.product(*axes))
    internal = [scheme.conjugate_coords(coords) for coords in sample]

    if density_box is None:
        density_box = Box.cube(kind, 1)
    _check_box(scheme, density_box, "density box")
    fractions_by_k = []
    for k in range(1, max_subdivision + 1):
        cells_per_axis = 2 ** k
        hit = set()
        for coords in internal:
            if not density_box.contains(coords):
                continue
            idx = []
            for c, (lo, hi) in zip(coords, density_box.intervals):
                width = (hi - lo) / cells_per_axis
                j = floor_div(c - lo, width)
                if j == cells_per_axis:  # right endpoint joins the last cell
                    j -= 1
                idx.append(j)
            hit.add(tuple(idx))
        total = cells_per_axis ** kind.coord_count
        fractions_by_k.append((k, len(hit) / total))

    return IrreducibilityReport(
        sample_size=len(sample),
        density_fractions=tuple(fractions_by_k),
        sample_bound=bound,
    )
