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

Separation is computed exactly (squared symmetric gauges stay inside the
field), with a rational bisection bracket reported alongside the float value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

import numpy as np

from .cutproject import ModelSet
from .errors import ErosionError
from .heisenberg import (
    Family,
    GroupKind,
    GroupPoint,
    inv_coords,
    mul_coords,
    qnorm_leq,
    sym_dist_leq,
    sym_dist_sq,
)
from .quadratic import QuadNum, floor_div


# ---------------------------------------------------------------------------
# interior cores
# ---------------------------------------------------------------------------

def _axis_interior(value, lo, hi, margin) -> bool:
    return lo + margin <= value <= hi - margin


def _t_margin(k: Fraction, span) -> Fraction:
    """Heisenberg t-axis reach of translates by gauge(g) <= k from a point
    (or region) with sum|x_i| (or sum|y_i|) at most span."""
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
    ivs = ms.region.intervals
    out = []
    for idx, p in enumerate(ms.points):
        c = p.coords
        if kind.family is Family.EUCLIDEAN:
            if all(_axis_interior(c[i], *ivs[i], depth)
                   for i in range(kind.rank)):
                out.append(idx)
            continue
        n = kind.rank
        head_ok = all(_axis_interior(c[i], *ivs[i], depth)
                      for i in range(2 * n))
        if not head_ok:
            continue
        anchor = c[:n] if use_x_margin else c[n:2 * n]
        span = sum(abs(a) for a in anchor)
        if _axis_interior(c[2 * n], *ivs[2 * n], _t_margin(depth, span)):
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# neighbor index
# ---------------------------------------------------------------------------

class NeighborIndex:
    """Cell index over exact coordinates for radius-bounded candidate lookup.

    x/y cells have side `radius`; the t cells use radius^2 + radius * X where
    X bounds sum|x_i| over the region, which covers the Heisenberg t-drift of
    both directed translates at that radius.
    """

    def __init__(self, ms: ModelSet, radius: Fraction) -> None:
        radius = Fraction(radius)
        if radius <= 0:
            raise ValueError("index radius must be positive")
        self.ms = ms
        self.radius = radius
        kind = ms.scheme.kind
        if kind.family is Family.EUCLIDEAN:
            self.cell_sizes = (radius,) * kind.rank
        else:
            self.cell_sizes = (radius,) * (2 * kind.rank) + (
                _t_margin(radius, _region_xspan(ms)),)
        self.cells: dict[tuple, list[int]] = {}
        for idx, p in enumerate(ms.points):
            key = self._key(p.coords)
            self.cells.setdefault(key, []).append(idx)
        self._float_array: np.ndarray | None = None

    @property
    def float_array(self) -> np.ndarray:
        """All sample points as a float matrix, built on first use."""
        if self._float_array is None:
            self._float_array = np.array(self.ms.float_points(), dtype=float)
        return self._float_array

    def _key(self, coords) -> tuple:
        return tuple(
            floor_div(c, size) for c, size in zip(coords, self.cell_sizes)
        )

    def candidates(self, coords) -> Iterable[int]:
        """Indices in the 3^dim cell neighborhood; superset of all points
        within symmetric distance `radius`."""
        center = self._key(coords)
        for offsets in itertools.product((-1, 0, 1), repeat=len(center)):
            key = tuple(c + o for c, o in zip(center, offsets))
            bucket = self.cells.get(key)
            if bucket:
                yield from bucket


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


def separation(ms: ModelSet, bisection_steps: int = 40) -> SeparationResult:
    """Minimum symmetric gauge distance over all point pairs.

    The argmin pair is found by exact comparison of squared distances over
    index candidates at a doubling search radius; a rational bisection with
    the boolean distance test then brackets the minimum.
    """
    pts = ms.points
    if len(pts) < 2:
        return SeparationResult(math.inf, None, None, None)
    radius = _initial_radius(ms)
    while True:
        best_sq = None
        best_pair = None
        index = NeighborIndex(ms, radius)
        for i, p in enumerate(pts):
            for j in index.candidates(p.coords):
                if j <= i:
                    continue
                if not sym_dist_leq(p, pts[j], radius):
                    continue
                d2 = sym_dist_sq(p, pts[j])
                if best_sq is None or _less(d2, best_sq):
                    best_sq, best_pair = d2, (i, j)
        if best_pair is not None:
            break
        radius *= 2
        if radius > _region_span(ms):
            raise AssertionError("distinct points but no pair found")

    lo, hi = Fraction(0), radius
    p, q = pts[best_pair[0]], pts[best_pair[1]]
    for _ in range(bisection_steps):
        mid = (lo + hi) / 2
        if sym_dist_leq(p, q, mid):
            hi = mid
        else:
            lo = mid
    return SeparationResult(
        separation=math.sqrt(float(best_sq)),
        separation_sq=best_sq,
        certificate=best_pair,
        bracket=(lo, hi),
    )


def _less(a, b) -> bool:
    diff = a - b
    if isinstance(diff, QuadNum):
        return diff.sign() < 0
    return diff < 0


def _region_span(ms: ModelSet) -> Fraction:
    return max(hi - lo for lo, hi in ms.region.intervals) + 1


def _initial_radius(ms: ModelSet) -> Fraction:
    # heuristic seed; doubling makes correctness independent of the guess
    span = min(hi - lo for lo, hi in ms.region.intervals)
    guess = span / max(len(ms.points), 1)
    return max(guess, Fraction(1, 16))


# ---------------------------------------------------------------------------
# covering radius estimate
# ---------------------------------------------------------------------------

def covering_radius_estimate(
    ms: ModelSet, grid_step: Fraction, erosion: Fraction
) -> float:
    """Float estimate: max over grid points of the eroded region of the
    distance to the nearest sample point. Resolution grid_step; not exact."""
    grid_step = Fraction(grid_step)
    erosion = Fraction(erosion)
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if erosion < 0:
        raise ValueError("erosion must be >= 0")
    if not ms.points:
        raise ErosionError("empty point set has no covering radius")
    kind = ms.scheme.kind
    axes = []
    for i, (lo, hi) in enumerate(ms.region.intervals):
        if kind.family is Family.HEISENBERG and i == kind.coord_count - 1:
            margin = _t_margin(erosion, _region_xspan(ms))
        else:
            margin = erosion
        a, b = lo + margin, hi - margin
        if a > b:
            raise ErosionError(f"eroded region empty on axis {i}")
        steps = int((b - a) / grid_step)
        axes.append([float(a + k * grid_step) for k in range(steps + 1)])
    pts = np.array(ms.float_points(), dtype=float)
    worst = 0.0
    chunk = []
    for coords in itertools.product(*axes):
        chunk.append(coords)
        if len(chunk) >= 2048:
            worst = max(worst, _chunk_min_dist_max(kind, chunk, pts))
            chunk = []
    if chunk:
        worst = max(worst, _chunk_min_dist_max(kind, chunk, pts))
    return worst


def _float_sym_gauge(kind: GroupKind, centers: np.ndarray,
                     pts: np.ndarray) -> np.ndarray:
    """Pairwise float symmetric gauge, centers (C, dim) x points (N, dim)."""
    c = centers[:, None, :]
    p = pts[None, :, :]
    if kind.family is Family.EUCLIDEAN:
        return np.abs(p - c).max(axis=2)
    n = kind.rank
    dx = p[..., :n] - c[..., :n]
    dy = p[..., n:2 * n] - c[..., n:2 * n]
    dt = p[..., 2 * n] - c[..., 2 * n]
    tau1 = dt - (c[..., :n] * dy).sum(axis=2)     # t part of c^-1 p
    tau2 = (p[..., :n] * dy).sum(axis=2) - dt     # t part of p^-1 c
    head = np.maximum(np.abs(dx).max(axis=2), np.abs(dy).max(axis=2))
    tmax = np.maximum(np.abs(tau1), np.abs(tau2))
    return np.maximum(head, np.sqrt(tmax))


def _chunk_min_dist_max(kind, chunk, pts) -> float:
    dists = _float_sym_gauge(kind, np.array(chunk, dtype=float), pts)
    return float(dists.min(axis=1).max())


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
    within distance K of a center, the center mapped to the identity."""

    radius: Fraction
    relative_coords: Tuple[tuple, ...]
    multiplicity: int

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
    return _patch(ms, center_index, radius, index)


# Absolute band around the patch radius inside which membership is decided
# exactly; outside it the float gauge is trusted.  The accumulated rounding
# error of the float gauge stays below ~1e-9 for coordinate magnitudes up to
# ~2^30, several orders under this margin.
_PRESCREEN_BAND = 2.0 ** -20


def _patch(ms: ModelSet, center_index: int, radius: Fraction,
           index: NeighborIndex) -> Tuple[tuple, ...]:
    kind = ms.scheme.kind
    center = ms.points[center_index]
    inv_center = inv_coords(kind, center.coords)
    cand = np.fromiter(index.candidates(center.coords), dtype=np.intp)
    arr = index.float_array
    dists = _float_sym_gauge(kind, arr[center_index:center_index + 1],
                             arr[cand])[0]
    r = float(radius)
    rel = []
    for j, dist in zip(cand.tolist(), dists.tolist()):
        if dist > r + _PRESCREEN_BAND:
            continue
        if dist > r - _PRESCREEN_BAND and not sym_dist_leq(
                center, ms.points[j], radius):
            continue
        rel.append(mul_coords(kind, inv_center, ms.points[j].coords))
    rel.sort()
    return tuple(rel)


def patch_catalog(ms: ModelSet, radius: Fraction) -> PatchCatalog:
    """Group all complete patches at interior centers by exact equality."""
    radius = Fraction(radius)
    centers = right_interior(ms, radius)
    if not centers:
        raise ErosionError(f"no interior centers at radius {radius}")
    index = NeighborIndex(ms, radius)
    groups: dict[tuple, int] = {}
    for idx in centers:
        key = _patch(ms, idx, radius, index)
        groups[key] = groups.get(key, 0) + 1
    classes = tuple(
        PatchClass(radius, key, count)
        for key, count in sorted(groups.items())
    )
    return PatchCatalog(radius, classes, len(centers))


@dataclass(frozen=True)
class ComplexityRow:
    radius: Fraction
    class_count: int
    center_count: int


def complexity_table(ms: ModelSet, radii: Sequence[Fraction]) -> list[ComplexityRow]:
    rows = []
    for r in radii:
        cat = patch_catalog(ms, Fraction(r))
        rows.append(ComplexityRow(Fraction(r), cat.class_count,
                                  cat.center_count))
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


def repetitivity_radii(ms: ModelSet, radius: Fraction) -> RepetitivityReport:
    """Finite-sample return radii: for each patch class, the largest over
    interior centers of the distance to the nearest other center carrying
    that class. Classes seen only once are flagged as lower bounds (their
    recurrence lies beyond the sampled region)."""
    radius = Fraction(radius)
    centers = right_interior(ms, radius)
    if not centers:
        raise ErosionError(f"no interior centers at radius {radius}")
    index = NeighborIndex(ms, radius)
    keys = [_patch(ms, idx, radius, index) for idx in centers]
    by_key: dict[tuple, list[int]] = {}
    for pos, key in enumerate(keys):
        by_key.setdefault(key, []).append(pos)

    kind = ms.scheme.kind
    feats = np.array([ms.points[i].to_float() for i in centers], dtype=float)
    per_class = []
    overall = 0.0
    any_lb = False
    for ci, (key, members) in enumerate(sorted(by_key.items())):
        member_feats = feats[members]
        dists = _float_sym_gauge(kind, feats, member_feats)
        for col, pos in enumerate(members):
            dists[pos, col] = math.inf  # self-returns do not count
        nearest = dists.min(axis=1)
        finite = nearest[np.isfinite(nearest)]
        lb = len(members) == 1
        if lb:
            any_lb = True
        radius_c = float(finite.max()) if finite.size else math.inf
        per_class.append(ClassReturn(ci, len(members), radius_c, lb))
        if math.isfinite(radius_c):
            overall = max(overall, radius_c)
    return RepetitivityReport(radius, tuple(per_class), overall, any_lb)


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodReport:
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
    """Test every small difference vector as a global left translation.

    Candidates are the products p^-1 q over point pairs with directed gauge
    at most gauge_bound. A candidate survives iff g*p lands in the sample
    for every core point p; the core is left-eroded at depth erosion >=
    gauge_bound, so survivors cannot be truncation artifacts.
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
    kind = ms.scheme.kind
    pts = ms.points
    index = NeighborIndex(ms, gauge_bound)
    ident = tuple(QuadNum(0, 0, ms.scheme.d) for _ in range(kind.coord_count))

    candidates = set()
    for i, p in enumerate(pts):
        inv_p = inv_coords(kind, p.coords)
        for j in index.candidates(p.coords):
            if j == i:
                continue
            g = mul_coords(kind, inv_p, pts[j].coords)
            if g in candidates:
                continue
            if qnorm_leq(GroupPoint(kind, g), gauge_bound):
                candidates.add(g)
    candidates.discard(ident)

    membership = ms.coords_set()
    core_coords = [pts[i].coords for i in core]
    survivors = []
    for g in sorted(candidates):
        if all(
            mul_coords(kind, g, p) in membership for p in core_coords
        ):
            survivors.append(g)
    return PeriodReport(
        gauge_bound=gauge_bound,
        erosion=erosion,
        core_size=len(core),
        candidates_tested=len(candidates),
        nontrivial_periods=tuple(survivors),
    )
