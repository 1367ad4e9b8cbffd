"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Numbers are a + b*sqrt(d) with rational a, b and a fixed square-free d >= 2.
Everything is exact: comparisons reduce to integer comparisons, never floats.
The two subrings used for lattices are Z[sqrt(d)] and, for d = 1 (mod 4), the
full ring of integers { (p + q*sqrt(d))/2 : p = q (mod 2) }; d <= `D_BOUND`.

Internally a number is the canonical integer triple (p, q, den) representing
(p + q*sqrt(d))/den with den > 0 and gcd(p, q, den) = 1, so every operation
is plain integer arithmetic; Fractions only appear at the API boundary.
Rows of numerators (the u parts, then the w parts) are ordered by
`row_order` alone: ring axes, window fills, samples, patches and periods.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import Iterator, Sequence, Tuple, Union

from .errors import EmptyIntervalError, FieldMismatchError, Record

RationalLike = Union[int, Fraction]
Interval = Tuple[RationalLike, RationalLike]


@functools.lru_cache(maxsize=1024)
def is_square_free(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


# the largest d: its square-free check, cached per d, takes about 0.2 s
D_BOUND = 1 << 40


def _check_d(d: int) -> int:
    if isinstance(d, int) and d > D_BOUND:
        raise ValueError(f"d must be at most 2^40 = {D_BOUND}, got {d}")
    if not isinstance(d, int) or d < 2 or not is_square_free(d):
        raise ValueError(f"d must be a square-free integer >= 2, got {d!r}")
    return d


def floor_sqrt(q: Fraction) -> int:
    """floor(sqrt(q)) for a nonnegative rational q, exactly."""
    if q < 0:
        raise ValueError("floor_sqrt of a negative number")
    # sqrt(p/q) = sqrt(p*q)/q and floor(x/q) = floor(floor(x)/q) for integer q
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def _floor_root(n: int, k: int, q: int, d: int) -> int:
    """floor((n + k*sqrt(d)) / q) for integers n, k and q > 0, exactly: for
    square-free d >= 2, k*sqrt(d) is irrational whenever k != 0, and
    floor(x / q) = floor(floor(x) / q)."""
    r = math.isqrt(k * k * d)
    return (n + (r if k >= 0 else -r - 1)) // q


def sign_pq(p: int, q: int, d: int) -> int:
    """Exact sign of p + q*sqrt(d) by integer comparison; p^2 = q^2*d has
    no solution with q != 0 for the square-free d >= 2 of `_check_d`."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0:
        if q > 0:
            return 1
        return 1 if p * p > q * q * d else -1
    if q < 0:
        return -1
    return 1 if q * q * d > p * p else -1


def row_order(r: Sequence[int], s: Sequence[int], c: int, d: int) -> int:
    """Sign of s - r in the lexicographic order of exact values (0 if equal)
    for integer numerator rows of c coordinates, u parts then w parts:
    coordinate k is (row[k] + row[c + k]*sqrt(d))/e_k, e_k > 0 in both."""
    for k in range(c):
        du, dw = s[k] - r[k], s[c + k] - r[c + k]
        if du or dw:
            return sign_pq(du, dw, d)
    return 0


def row_key(c: int, d: int):
    """The sort key of ascending `row_order`."""
    return functools.cmp_to_key(lambda r, s: row_order(s, r, c, d))


class QuadNum:
    """An immutable exact number a + b*sqrt(d).

    Values with b == 0 compare equal to, and hash like, the rational a, so
    they mix safely with int/Fraction keys in sets and dicts.
    """

    __slots__ = ("_p", "_q", "_den", "_d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, d: int = 2) -> None:
        if isinstance(a, int) and isinstance(b, int):
            p, q, den = a, b, 1
        else:
            fa, fb = Fraction(a), Fraction(b)
            den = fa.denominator * fb.denominator // math.gcd(
                fa.denominator, fb.denominator
            )
            p = fa.numerator * (den // fa.denominator)
            q = fb.numerator * (den // fb.denominator)
            g = math.gcd(math.gcd(p, q), den)
            if g > 1:
                p, q, den = p // g, q // g, den // g
        self._p = p
        self._q = q
        self._den = den
        self._d = _check_d(d)

    @classmethod
    def _mk(cls, p: int, q: int, den: int, d: int) -> "QuadNum":
        """Internal constructor from a raw integer triple; d is trusted."""
        if den < 0:
            p, q, den = -p, -q, -den
        elif den == 0:
            raise ZeroDivisionError("zero denominator")
        g = math.gcd(math.gcd(p, q), den)
        if g > 1:
            p, q, den = p // g, q // g, den // g
        self = object.__new__(cls)
        self._p = p
        self._q = q
        self._den = den
        self._d = d
        return self

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._den)

    @property
    def d(self) -> int:
        return self._d

    @property
    def is_rational(self) -> bool:
        return self._q == 0

    def conjugate(self) -> "QuadNum":
        """Galois conjugate a - b*sqrt(d)."""
        return QuadNum._mk(self._p, -self._q, self._den, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (the product with the conjugate)."""
        return Fraction(
            self._p * self._p - self._q * self._q * self._d,
            self._den * self._den,
        )

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided by integer comparisons only."""
        return sign_pq(self._p, self._q, self._d)

    def _coerce(self, other: object) -> "QuadNum":
        if isinstance(other, QuadNum):
            if other._d == self._d or self._q == 0 or other._q == 0:
                return other
            raise FieldMismatchError(
                f"cannot combine sqrt({self._d}) with sqrt({other._d})"
            )
        if isinstance(other, int):
            return QuadNum._mk(other, 0, 1, self._d)
        if isinstance(other, Fraction):
            return QuadNum._mk(other.numerator, 0, other.denominator, self._d)
        return NotImplemented  # type: ignore[return-value]

    def _merge_d(self, other: "QuadNum") -> int:
        return other._d if self._q == 0 and other._q != 0 else self._d

    def __add__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._merge_d(o)
        e1, e2 = self._den, o._den
        if e1 == e2:
            return QuadNum._mk(self._p + o._p, self._q + o._q, e1, d)
        return QuadNum._mk(
            self._p * e2 + o._p * e1, self._q * e2 + o._q * e1, e1 * e2, d
        )

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._merge_d(o)
        e1, e2 = self._den, o._den
        if e1 == e2:
            return QuadNum._mk(self._p - o._p, self._q - o._q, e1, d)
        return QuadNum._mk(
            self._p * e2 - o._p * e1, self._q * e2 - o._q * e1, e1 * e2, d
        )

    def __rsub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._merge_d(o)
        return QuadNum._mk(
            self._p * o._p + self._q * o._q * d,
            self._p * o._q + self._q * o._p,
            self._den * o._den,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self._p * self._p - self._q * self._q * self._d
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        # 1/x = den*(p - q*sqrt(d)) / (p^2 - q^2 d)
        return QuadNum._mk(
            self._den * self._p, -self._den * self._q, n, self._d
        )

    def __truediv__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "QuadNum":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadNum._mk(1, 0, 1, self._d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __neg__(self) -> "QuadNum":
        return QuadNum._mk(-self._p, -self._q, self._den, self._d)

    def __pos__(self) -> "QuadNum":
        return self

    def __abs__(self) -> "QuadNum":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        # the triple is canonical, so equality is componentwise
        if isinstance(other, QuadNum):
            if self._q == 0 and other._q == 0:
                return self._p == other._p and self._den == other._den
            return (
                self._d == other._d
                and self._p == other._p
                and self._q == other._q
                and self._den == other._den
            )
        if isinstance(other, int):
            return self._q == 0 and self._den == 1 and self._p == other
        if isinstance(other, Fraction):
            return (
                self._q == 0
                and self._p == other.numerator
                and self._den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self._q == 0:
            return hash(Fraction(self._p, self._den))
        return hash((self._p, self._q, self._den, self._d))

    def _cmp(self, other: object) -> int:
        if isinstance(other, (int, Fraction)):
            # self - n/m = (p*m - n*den + q*m*sqrt(d)) / (den*m), den, m > 0
            n, m = other.numerator, other.denominator
            return sign_pq(self._p * m - n * self._den, self._q * m, self._d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        e1, e2 = self._den, o._den
        if e1 == e2:
            return sign_pq(self._p - o._p, self._q - o._q, self._d)
        return sign_pq(
            self._p * e2 - o._p * e1, self._q * e2 - o._q * e1, self._d
        )

    def __lt__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c < 0

    def __le__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c <= 0

    def __gt__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c > 0

    def __ge__(self, other: object) -> bool:
        c = self._cmp(other)
        return NotImplemented if c is NotImplemented else c >= 0

    def __float__(self) -> float:
        return (self._p + self._q * math.sqrt(self._d)) / self._den

    def __floor__(self) -> int:
        """Exact floor via isqrt."""
        return _floor_root(self._p, self._q, self._den, self._d)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r}, d={self._d})"

    def __str__(self) -> str:
        if self._q == 0:
            return str(self.a)
        sign = "+" if self._q >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self._d})"


class RingVariant(Enum):
    Z_SQRT_D = "zsqrt"
    FULL_INTEGERS = "full"


class RingSpec(Record):
    """A real quadratic order: Z[sqrt(d)], or the full ring of integers
    when d = 1 (mod 4)."""

    d: int
    variant: RingVariant = RingVariant.Z_SQRT_D

    def __post_init__(self) -> None:
        _check_d(self.d)
        if self.variant is RingVariant.FULL_INTEGERS and self.d % 4 != 1:
            raise ValueError(
                f"full ring of integers requires d = 1 (mod 4), got d={self.d}"
            )

    @property
    def scale(self) -> int:
        """The s of the ring elements (p + v*sqrt(d))/s: 1 on Z[sqrt(d)],
        and 2 on the full ring, where p = v (mod 2)."""
        return 1 if self.variant is RingVariant.Z_SQRT_D else 2

    def contains(self, x: QuadNum) -> bool:
        if x.d != self.d and not x.is_rational:
            raise FieldMismatchError(f"element of Q(sqrt({x.d})) vs ring with d={self.d}")
        if self.variant is RingVariant.Z_SQRT_D:
            return x.a.denominator == 1 and x.b.denominator == 1
        p, q = 2 * x.a, 2 * x.b
        return (
            p.denominator == 1
            and q.denominator == 1
            and (p.numerator - q.numerator) % 2 == 0
        )

    def fundamental_elements(self) -> Tuple[QuadNum, QuadNum]:
        """A Z-basis (1, omega) of the ring."""
        one = QuadNum(1, 0, self.d)
        if self.variant is RingVariant.Z_SQRT_D:
            return one, QuadNum(0, 1, self.d)
        return one, QuadNum(Fraction(1, 2), Fraction(1, 2), self.d)


def _as_fraction_interval(iv: Interval, what: str) -> Tuple[Fraction, Fraction]:
    lo, hi = Fraction(iv[0]), Fraction(iv[1])
    if lo > hi:
        raise EmptyIntervalError(f"{what} interval [{lo}, {hi}] is empty")
    return lo, hi


def _p_ranges(
    ring: RingSpec, phys: Interval, internal: Interval
) -> Iterator[Tuple[int, range]]:
    """(v, ps) for each v of the ring elements (p + v*sqrt(d))/s with x in
    phys and conjugate(x) in internal, ps the range of their p.

    s = 1 on Z[sqrt(d)], and s = 2 with p = v (mod 2) on the full ring.
    Then v*sqrt(d) = s*(x - conj x)/2 lies in s*[p1 - i2, p2 - i1]/2, which
    bounds v, and for each v the two intervals bound p on both sides. Every
    bound is an exact integer floor (`math.isqrt`), so the ranges hold
    exactly the elements.
    """
    p1, p2 = _as_fraction_interval(phys, "physical")
    i1, i2 = _as_fraction_interval(internal, "internal")
    d, s = ring.d, ring.scale
    lo, hi = s * (p1 - i2) / 2, s * (p2 - i1) / 2
    # ceil(lo/sqrt(d)) <= v <= floor(hi/sqrt(d)), lo/sqrt(d) = lo*sqrt(d)/d
    v_min = -_floor_root(0, -lo.numerator, lo.denominator * d, d)
    v_max = _floor_root(0, hi.numerator, hi.denominator * d, d)
    (a, qa), (b, qb), (c, qc), (e, qe) = (
        (s * x.numerator, x.denominator) for x in (p1, p2, i1, i2))
    for v in range(v_min, v_max + 1):
        # s*p1 - v*sqrt(d) <= p <= s*p2 - v*sqrt(d), and
        # s*i1 + v*sqrt(d) <= p <= s*i2 + v*sqrt(d)
        p_min = -min(_floor_root(-a, v * qa, qa, d),
                     _floor_root(-c, -v * qc, qc, d))
        p_max = min(_floor_root(b, -v * qb, qb, d),
                    _floor_root(e, v * qe, qe, d))
        p_min += (p_min - v) % s
        yield v, range(p_min, p_max + 1, s)


def ring_axis(
    ring: RingSpec, phys: Interval, internal: Interval
) -> list[Tuple[int, int]]:
    """The ring elements x with x in phys and conjugate(x) in internal, as
    the integer pairs (p, v) of x = (p + v*sqrt(d))/s, with s =
    `RingSpec.scale`, sorted ascending in x (by `row_order`); see
    `_p_ranges`."""
    pairs = [(p, v) for v, ps in _p_ranges(ring, phys, internal) for p in ps]
    pairs.sort(key=row_key(1, ring.d))
    return pairs


def enumerate_ring_in_rectangle(
    ring: RingSpec, phys: Interval, internal: Interval
) -> list[QuadNum]:
    """`ring_axis` as `QuadNum`s: all ring elements x with x in phys and
    conjugate(x) in internal, sorted ascending."""
    d, s = ring.d, ring.scale
    return [QuadNum._mk(p, v, s, d)
            for p, v in ring_axis(ring, phys, internal)]


def count_ring_in_rectangle(
    ring: RingSpec, phys: Interval, internal: Interval,
    cap: int | None = None,
) -> int:
    """len(enumerate_ring_in_rectangle(ring, phys, internal)), without
    building the elements; a count above cap once it passes cap."""
    total = 0
    for _, ps in _p_ranges(ring, phys, internal):
        total += len(ps)
        if cap is not None and total > cap:
            break
    return total


def serialize_quadnum(x: QuadNum) -> list[str]:
    """Four decimal strings [a_num, a_den, b_num, b_den]; d travels separately."""
    return [
        str(x.a.numerator),
        str(x.a.denominator),
        str(x.b.numerator),
        str(x.b.denominator),
    ]


def numerator_rows(
    rows: Sequence[Sequence[QuadNum | RationalLike]],
) -> Tuple[list[Tuple[int, ...]], int]:
    """Rows of exact scalars as integer numerator rows over e, the least
    common denominator of their values (1 for no values): the u parts of a
    row's values (u + w*sqrt(d))/e, then the w parts. Returns the rows and
    e."""
    rows = [[x if isinstance(x, QuadNum) else QuadNum(x) for x in row]
            for row in rows]
    e = math.lcm(1, *(x._den for row in rows for x in row))
    return [tuple(x._p * (e // x._den) for x in row)
            + tuple(x._q * (e // x._den) for x in row) for row in rows], e


def floor_div(value: QuadNum | Fraction | int, cell: Fraction) -> int:
    """floor(value / cell) for exact scalars, used for spatial bucketing."""
    if cell <= 0:
        raise ValueError("cell size must be positive")
    if isinstance(value, QuadNum):
        return math.floor(value * Fraction(cell.denominator, cell.numerator))
    return math.floor(Fraction(value) / cell)
