"""Heisenberg groups H_n in polarized coordinates, plus abelian R^m.

Points are (x_1..x_n, y_1..y_n, t) with the product

    (x, y, t) * (x', y', t') = (x + x', y + y', t + t' + <x, y'>),

anisotropic dilations delta_lambda(x, y, t) = (lambda x, lambda y, lambda^2 t),
and the box quasi-norm max(|x|_inf, |y|_inf, |t|^(1/2)). The Euclidean kind
runs through the same code paths with the cross term absent.

Coordinates are exact (int, Fraction, QuadNum); `qnorm` and `sym_dist` give
float values of exact points.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Tuple, Union

from .errors import KindMismatchError, Record

if TYPE_CHECKING:
    from .quadratic import QuadNum

    Scalar = Union[int, Fraction, QuadNum]
    Coords = Tuple[Scalar, ...]


class Family(Enum):
    EUCLIDEAN = "euclidean"
    HEISENBERG = "heisenberg"


class GroupKind(Record):
    """Which group: R^m (rank m) or H_n (rank n, dimension 2n+1)."""

    family: Family
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    @classmethod
    def euclidean(cls, m: int) -> "GroupKind":
        return cls(Family.EUCLIDEAN, m)

    @classmethod
    def heisenberg(cls, n: int) -> "GroupKind":
        return cls(Family.HEISENBERG, n)

    @property
    def coord_count(self) -> int:
        return self.rank if self.family is Family.EUCLIDEAN else 2 * self.rank + 1

    @property
    def growth_degree(self) -> int:
        """Homogeneous dimension: m for R^m, 2n+2 for H_n."""
        return self.rank if self.family is Family.EUCLIDEAN else 2 * self.rank + 2

    @property
    def label(self) -> str:
        return ("e" if self.family is Family.EUCLIDEAN else "h") + str(self.rank)


def mul_coords(kind: GroupKind, p: Coords, q: Coords) -> Coords:
    if kind.family is Family.EUCLIDEAN:
        return tuple(a + b for a, b in zip(p, q))
    n = kind.rank
    cross = sum(p[i] * q[n + i] for i in range(n))
    head = tuple(p[i] + q[i] for i in range(2 * n))
    return head + (p[2 * n] + q[2 * n] + cross,)


def inv_coords(kind: GroupKind, p: Coords) -> Coords:
    if kind.family is Family.EUCLIDEAN:
        return tuple(-a for a in p)
    n = kind.rank
    cross = sum(p[i] * p[n + i] for i in range(n))
    head = tuple(-p[i] for i in range(2 * n))
    return head + (cross - p[2 * n],)


def dilate_coords(kind: GroupKind, lam: Scalar, p: Coords) -> Coords:
    if kind.family is Family.EUCLIDEAN:
        return tuple(lam * a for a in p)
    n = kind.rank
    head = tuple(lam * p[i] for i in range(2 * n))
    return head + (lam * lam * p[2 * n],)


def identity_coords(kind: GroupKind) -> Coords:
    return (0,) * kind.coord_count


class GroupPoint(Record):
    """A group element with exact coordinates."""

    kind: GroupKind
    coords: Coords

    def __post_init__(self) -> None:
        if len(self.coords) != self.kind.coord_count:
            raise ValueError(
                f"{self.kind.label} needs {self.kind.coord_count} coordinates, "
                f"got {len(self.coords)}"
            )
        if any(isinstance(c, float) for c in self.coords):
            raise KindMismatchError("float coordinate in an exact point")

    @classmethod
    def identity(cls, kind: GroupKind) -> "GroupPoint":
        return cls(kind, identity_coords(kind))

    @property
    def x_part(self) -> Coords:
        if self.kind.family is not Family.HEISENBERG:
            raise KindMismatchError("x_part is a Heisenberg accessor")
        return self.coords[: self.kind.rank]

    @property
    def y_part(self) -> Coords:
        if self.kind.family is not Family.HEISENBERG:
            raise KindMismatchError("y_part is a Heisenberg accessor")
        return self.coords[self.kind.rank : 2 * self.kind.rank]

    @property
    def t_part(self) -> Scalar:
        if self.kind.family is not Family.HEISENBERG:
            raise KindMismatchError("t_part is a Heisenberg accessor")
        return self.coords[-1]

    def _check_partner(self, other: "GroupPoint") -> None:
        if self.kind != other.kind:
            raise KindMismatchError(f"{self.kind.label} vs {other.kind.label}")

    def __mul__(self, other: "GroupPoint") -> "GroupPoint":
        if not isinstance(other, GroupPoint):
            return NotImplemented
        self._check_partner(other)
        return GroupPoint(self.kind, mul_coords(self.kind, self.coords, other.coords))

    def inverse(self) -> "GroupPoint":
        return GroupPoint(self.kind, inv_coords(self.kind, self.coords))

    def dilate(self, lam: Scalar) -> "GroupPoint":
        if isinstance(lam, float):
            raise KindMismatchError("dilation factor must be exact")
        return GroupPoint(self.kind, dilate_coords(self.kind, lam, self.coords))

    def to_float(self) -> Tuple[float, ...]:
        return tuple(float(c) for c in self.coords)


def _abs_leq(value: Scalar, bound: Fraction) -> bool:
    return -bound <= value <= bound


def qnorm_leq(p: GroupPoint, r: Union[int, Fraction]) -> bool:
    """Exact test: box quasi-norm of p at most r."""
    r = Fraction(r)
    if r < 0:
        return False
    if p.kind.family is Family.EUCLIDEAN:
        return all(_abs_leq(c, r) for c in p.coords)
    return all(_abs_leq(c, r) for c in p.coords[:-1]) and _abs_leq(
        p.coords[-1], r * r
    )


def qnorm(p: GroupPoint) -> float:
    """Float box quasi-norm."""
    c = p.to_float()
    if p.kind.family is Family.EUCLIDEAN:
        return max(abs(v) for v in c)
    head = max(abs(v) for v in c[:-1])
    return max(head, math.sqrt(abs(c[-1])))


def qdist_leq(p: GroupPoint, q: GroupPoint, r: Union[int, Fraction]) -> bool:
    """Directed left-invariant distance test: quasi-norm of p^-1 q at most r."""
    return qnorm_leq(p.inverse() * q, r)


def sym_dist_leq(p: GroupPoint, q: GroupPoint, r: Union[int, Fraction]) -> bool:
    """Symmetric distance max(|p^-1 q|, |q^-1 p|) at most r, exactly."""
    return qdist_leq(p, q, r) and qdist_leq(q, p, r)


def sym_dist(p: GroupPoint, q: GroupPoint) -> float:
    return max(qnorm(p.inverse() * q), qnorm(q.inverse() * p))


def sym_dist_sq(p: GroupPoint, q: GroupPoint) -> Scalar:
    """Exact square of the symmetric distance.

    The square of max(|a|_inf-terms, sqrt|t|-terms) is the max of the squared
    coordinate differences and the two |t|-parts, all of which stay in the
    field, so exact comparison of distances is possible.
    """
    p._check_partner(q)
    if p.kind.family is Family.EUCLIDEAN:
        return max((a - b) * (a - b) for a, b in zip(p.coords, q.coords))
    g1 = mul_coords(p.kind, inv_coords(p.kind, p.coords), q.coords)
    g2 = mul_coords(p.kind, inv_coords(p.kind, q.coords), p.coords)
    # exact comparisons; max keeps the first of equal terms
    return max([c * c for c in g1[:-1]] + [abs(g1[-1]), abs(g2[-1])])


def box_volume(kind: GroupKind, s: Fraction) -> Fraction:
    """Haar volume of the closed gauge box of radius s (Lebesgue measure
    in polarized coordinates)."""
    s = Fraction(s)
    if s < 0:
        raise ValueError("radius must be >= 0")
    if kind.family is Family.EUCLIDEAN:
        return (2 * s) ** kind.rank
    return (2 * s) ** (2 * kind.rank) * 2 * s * s
