"""Word growth and packing covers in Z^m and H_n(Z).

Balls B_k are exact. A breadth-first search over the Cayley graph builds
them one layer (the elements of word length exactly k) at a time, on plain
Python integers. An element is keyed by its column, the y coordinates (none
for Z^m), and the rest packs into one integer code (`_Layout`) whose top
digit is the last coordinate, t for H_n, so no bound on it is needed. A left
product s*q adds the same shift, code(s) + <x_s, y> * radix, to the code of
every q in column y, so a set of elements is a sparse bitset per column,
y -> {word index: WORD_BITS-bit int}, after Roaring bitmaps (Chambi, Lemire,
Kaser and Godin, Software: Practice and Experience 46(5), 2016). A
translate is two shifts per word, a union `|`, a difference `& ~` and a
count `int.bit_count`. The search multiplies on the left, and word length
does not depend on the side. Generating sets are symmetric, so every
neighbour of an element of length k has length k-1, k or k+1: layer k+1 is
the set of products in neither layer k-1 nor layer k.

On top of that sit a log-log exponent fit, and the maximal-separated-set
experiment: a greedy 2n-separated subset S of B_(a*n) whose translates
s*B_(2n) cover B_(a*n) while the translates s*B_n pack disjointly, forcing
|S| * |B_n| <= |B_((a+1)n)|. One search to radius (a+1)n gives every ball
the experiment uses.
"""

from __future__ import annotations

import math
import statistics
from operator import add, mul
from typing import Dict, Iterable, Sequence, Tuple

from .errors import Record, check_budget
from .heisenberg import Family, GroupKind, inv_coords
# perfbench/worker.py looks this up on this module to count its calls
from .heisenberg import mul_coords  # noqa: F401

IntCoords = Tuple[int, ...]
# a set of elements: column (y coordinates) -> word index -> bits
Columns = Dict[IntCoords, Dict[int, int]]

# Bits per word of a column: code c is bit c % WORD_BITS of word c // WORD_BITS
WORD_BITS = 1 << 12


class GenSet(Record):
    """A finite symmetric generating set, identity excluded, stored sorted."""

    kind: GroupKind
    generators: Tuple[IntCoords, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("generating set is empty")
        ident = (0,) * self.kind.coord_count
        seen = set(self.generators)
        if ident in seen:
            raise ValueError("identity in generating set")
        for g in self.generators:
            if len(g) != self.kind.coord_count:
                raise ValueError(f"generator {g} has wrong length")
            if any(not isinstance(c, int) for c in g):
                raise ValueError(f"generator {g} must have integer coordinates")
            if inv_coords(self.kind, g) not in seen:
                raise ValueError(f"generating set not symmetric at {g}")

    @classmethod
    def make(cls, kind: GroupKind, gens: Iterable[Sequence[int]]) -> "GenSet":
        """Close under inversion, deduplicate, drop the identity, sort."""
        ident = (0,) * kind.coord_count
        closed = set()
        for g in gens:
            g = tuple(int(c) for c in g)
            if g == ident:
                continue
            closed.add(g)
            closed.add(inv_coords(kind, g))
        return cls(kind, tuple(sorted(closed)))

    @classmethod
    def standard(cls, kind: GroupKind) -> "GenSet":
        """+-e_i for Z^m; the 2n horizontal generators and inverses for H_n."""
        count = kind.coord_count
        basis = []
        upto = count if kind.family is Family.EUCLIDEAN else count - 1
        for i in range(upto):
            e = [0] * count
            e[i] = 1
            basis.append(tuple(e))
        return cls.make(kind, basis)


class BallTable(Record):
    """Cumulative ball sizes |B_0|, ..., |B_kmax| for one generating set."""

    kind: GroupKind
    generators: Tuple[IntCoords, ...]
    counts: Tuple[int, ...]

    @property
    def kmax(self) -> int:
        return len(self.counts) - 1

    def rows(self) -> list[tuple[int, int]]:
        return list(enumerate(self.counts))


def _ball_bounds(gens: GenSet, k: int) -> list[int]:
    """Per-coordinate bound on |g| over B_k for the coordinates before the
    last: each of the k letters adds at most max|g_i| to coordinate i."""
    return [k * max(abs(g[i]) for g in gens.generators)
            for i in range(gens.kind.coord_count - 1)]


class _Layout:
    """Where an element lives: its column, the y coordinates (none for Z^m),
    and its code. The coordinates before the column (x for H_n, all but the
    last for Z^m) are balanced digits c_i, |c_i| <= bounds[i], of radices
    2*bounds[i] + 1, first most significant; the last coordinate (t for H_n)
    is the unbounded top digit, times `radix`, the product of those radices.
    So distinct elements of a column get distinct codes, and the codes
    order the elements by t, then x. Every element a caller places must
    have its lower digits within the bounds."""

    def __init__(self, kind: GroupKind, bounds: Sequence[int]) -> None:
        n = self.n = kind.rank if kind.family is Family.HEISENBERG else 0
        self.bounds = list(bounds[:kind.coord_count - 1 - n])
        self.strides, self.radix = [], 1
        for b in reversed(self.bounds):
            self.strides.insert(0, self.radix)
            self.radix *= 2 * b + 1

    def element(self, y: IntCoords, code: int) -> IntCoords:
        digits: list[int] = []
        for b in reversed(self.bounds):
            code, d = divmod(code + b, 2 * b + 1)
            digits.insert(0, d - b)
        return (*digits, *y, code)


def _translate_into(out: Columns, layout: _Layout, s: IntCoords,
                    cols: Columns) -> None:
    """out |= s * cols. Column y moves to y + y_s and its codes by
    code(s) + <x_s, y> * radix: word w goes to words w + q and w + q + 1."""
    width, radix = WORD_BITS, layout.radix
    mask = (1 << width) - 1
    n = layout.n
    xs, ys = s[:n], s[n:2 * n]
    base = sum(map(mul, s, layout.strides)) + s[-1] * radix  # code(s)
    for y, words in cols.items():
        q, r = divmod(base + sum(map(mul, xs, y)) * radix, width)
        col = out.setdefault(tuple(map(add, y, ys)), {})
        get = col.get
        for w, v in words.items():
            v <<= r
            w += q
            col[w] = get(w, 0) | v & mask
            v >>= width
            if v:
                col[w + 1] = get(w + 1, 0) | v


def _union(layers: Iterable[Columns]) -> Columns:
    out: Columns = {}
    for cols in layers:
        for y, words in cols.items():
            col = out.setdefault(y, {})
            for w, v in words.items():
                col[w] = col.get(w, 0) | v
    return out


def _minus(cols: Columns, *others: Columns) -> Columns:
    """The elements of cols in none of others, empty words dropped."""
    out: Columns = {}
    for y, words in cols.items():
        drop = [o[y] for o in others if y in o]
        col = {}
        for w, v in words.items():
            for o in drop:
                v &= ~o.get(w, 0)
            if v:
                col[w] = v
        if col:
            out[y] = col
    return out


def _count(cols: Columns) -> int:
    return sum(v.bit_count() for words in cols.values()
               for v in words.values())


def _ordered(layout: _Layout, cols: Columns) -> list[tuple[IntCoords, int]]:
    """(y, code) of the elements of cols in canonical (lexicographic)
    order: by the lower digits, then y, then the code (the top digit)."""
    radix = layout.radix
    half = radix // 2
    out = []
    for y, words in cols.items():
        for w, v in words.items():
            bits, base = bin(v)[:1:-1], w * WORD_BITS
            i = bits.find("1")
            while i >= 0:
                out.append(((base + i + half) % radix, y, base + i))
                i = bits.find("1", i + 1)
    out.sort()
    return [(y, code) for _, y, code in out]


def _bfs(gens: GenSet, kmax: int, layout: _Layout,
         budget: int | None = None) -> tuple[list[Columns], list[int]]:
    """The layers 0..kmax, and the sizes |B_0|, ..., |B_kmax|."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    prev, layer = {}, {(0,) * layout.n: {0: 1}}  # the identity, code 0
    layers, counts = [layer], [1]
    for _ in range(kmax):
        found: Columns = {}
        for g in gens.generators:
            _translate_into(found, layout, g, layer)
        prev, layer = layer, _minus(found, layer, prev)
        counts.append(counts[-1] + _count(layer))
        check_budget(counts[-1], "ball", budget)
        layers.append(layer)
    return layers, counts


def bfs_balls(gens: GenSet, kmax: int, budget: int | None = None) -> BallTable:
    layout = _Layout(gens.kind, _ball_bounds(gens, kmax))
    _, counts = _bfs(gens, kmax, layout, budget)
    return BallTable(gens.kind, gens.generators, tuple(counts))


def ball_elements(
    gens: GenSet, k: int, budget: int | None = None
) -> tuple[list[IntCoords], set[IntCoords]]:
    """B_k in canonical order, plus the same elements as a set."""
    layout = _Layout(gens.kind, _ball_bounds(gens, k))
    layers, _ = _bfs(gens, k, layout, budget)
    ordered = [layout.element(y, code) for layer in layers
               for y, code in _ordered(layout, layer)]
    return ordered, set(ordered)


class FitReport(Record):
    """Least-squares growth exponent with supporting diagnostics."""

    exponent: float
    residual: float
    k_min: int
    doubling_ratios: Tuple[Tuple[int, float], ...]
    c_estimates: Tuple[Tuple[int, float], ...] = ()


# the fewest rows a growth fit takes
FIT_ROWS = 3


def fit_kmax(k_min: int) -> int:
    """The least kmax at which `fit_growth_exponent(table, k_min)` has
    FIT_ROWS usable rows. The fit uses the radii from k_min, but from 1 at
    least, since log 0 is undefined; a negative k_min raises ValueError."""
    if k_min < 0:
        raise ValueError(f"kmin must be non-negative, got {k_min}")
    return max(k_min, 1) + FIT_ROWS - 1


def fit_growth_exponent(
    table: BallTable, k_min: int = 1, degree_reference: int | None = None
) -> FitReport:
    counts = table.counts
    for k in range(1, len(counts)):
        if counts[k] <= counts[k - 1]:
            raise ValueError(f"ball counts not strictly increasing at k={k}")
    if table.kmax < fit_kmax(k_min):
        raise ValueError(f"need at least {FIT_ROWS} usable rows to fit an "
                         "exponent")
    ks = list(range(max(k_min, 1), len(counts)))
    logs_k = [math.log(k) for k in ks]
    logs_c = [math.log(counts[k]) for k in ks]
    slope, intercept = statistics.linear_regression(logs_k, logs_c)
    residual = math.sqrt(statistics.fmean(
        (c - (slope * x + intercept)) ** 2 for x, c in zip(logs_k, logs_c)))
    doubling = tuple(
        (k, counts[2 * k] / counts[k])
        for k in range(1, len(counts))
        if 2 * k < len(counts)
    )
    c_est: tuple = ()
    if degree_reference is not None:
        c_est = tuple(
            (k, counts[k] / float(k) ** degree_reference) for k in ks
        )
    return FitReport(slope, residual, max(k_min, 1), doubling, c_est)


class CoverReport(Record):
    """Result of the packing-cover experiment at parameters (a, n)."""

    a: int
    n: int
    packing_size: int
    bound: int
    bound_holds: bool
    covered: bool
    packing_disjoint: bool
    volume_check: bool
    d_used: int
    ball_n: int
    ball_2n: int
    ball_an: int
    ball_a1n: int
    separated_set: Tuple[IntCoords, ...]


def _greedy(layout: _Layout, layers: Sequence[Columns],
            near: Columns) -> tuple[list[IntCoords], Columns]:
    """The greedy maximal subset S of the union of layers, taken in
    canonical order, with no element in s * near for an earlier kept s;
    and the union of the s * near."""
    kept: list[IntCoords] = []
    blocked: Columns = {}
    for layer in layers:
        # blocked changes as the walk goes, so each element is tested
        for y, code in _ordered(layout, _minus(layer, blocked)):
            w, bit = divmod(code, WORD_BITS)
            if not blocked.get(y, {}).get(w, 0) >> bit & 1:
                kept.append(layout.element(y, code))
                _translate_into(blocked, layout, kept[-1], near)
    return kept, blocked


def greedy_maximal_separated(
    gens: GenSet, a: int, n: int, budget: int | None = None
) -> list[IntCoords]:
    """Greedy 2n-separated subset of B_(a*n) in canonical order.

    Kept elements s satisfy s'^-1 s outside B_2n, that is s outside s'*B_2n,
    for every earlier kept s', and maximality holds by construction: every
    rejected element is within B_2n of something kept.
    """
    if a < 1 or n < 1:
        raise ValueError("need a >= 1 and n >= 1")
    # the layout holds S * B_2n, within B_((a+2)n)
    layout = _Layout(gens.kind, _ball_bounds(gens, (a + 2) * n))
    layers, _ = _bfs(gens, max(a, 2) * n, layout, budget)
    return _greedy(layout, layers[:a * n + 1], _union(layers[:2 * n + 1]))[0]


def verify_cover(
    gens: GenSet,
    a: int,
    n: int,
    d_used: int,
    budget: int | None = None,
    separated: Sequence[IntCoords] | None = None,
) -> CoverReport:
    """Check the three facts about a maximal 2n-separated set S in B_(a*n):
    the translates s*B_2n cover B_(a*n) (asserted), the translates s*B_n are
    pairwise disjoint (asserted), hence |S|*|B_n| <= |B_((a+1)n)| (asserted).
    The multiplicity-style bound |S| <= (a+1)^d_used is reported, not asserted.

    One BFS to (a+1)n gives every ball. The layout holds B_((a+1)n) and
    S*B_2n, with S within B_(a*n) or wherever a caller places it.
    """
    if a < 1 or n < 1:
        raise ValueError("need a >= 1 and n >= 1")
    kind = gens.kind
    S = None if separated is None else [tuple(s) for s in separated]
    top = (_ball_bounds(gens, a * n) if S is None else
           [max((abs(s[i]) for s in S), default=0)
            for i in range(kind.coord_count - 1)])
    layout = _Layout(kind, [*map(max, _ball_bounds(gens, (a + 1) * n),
                                 map(add, top, _ball_bounds(gens, 2 * n)))])
    layers, counts = _bfs(gens, (a + 1) * n, layout, budget)
    ball_2n = _union(layers[:2 * n + 1])
    if S is None:
        S, reached = _greedy(layout, layers[:a * n + 1], ball_2n)
    else:
        reached = {}
        for s in S:
            _translate_into(reached, layout, s, ball_2n)
    covered = not any(_minus(layer, reached) for layer in layers[:a * n + 1])
    if not covered:
        raise AssertionError(
            f"maximal separated set fails to cover B_{a * n} (a={a}, n={n})")

    packing: Columns = {}
    ball_n = _union(layers[:n + 1])
    for s in S:
        _translate_into(packing, layout, s, ball_n)
    total = len(S) * counts[n]
    disjoint = _count(packing) == total
    if not disjoint:
        raise AssertionError(f"packing translates overlap (a={a}, n={n})")
    volume_ok = not _minus(packing, *layers) and total <= counts[-1]
    if not volume_ok:
        raise AssertionError(
            f"packing volume inequality violated (a={a}, n={n})")

    bound = (a + 1) ** d_used
    return CoverReport(
        a=a, n=n, packing_size=len(S), bound=bound,
        bound_holds=len(S) <= bound, covered=covered,
        packing_disjoint=disjoint, volume_check=volume_ok, d_used=d_used,
        ball_n=counts[n], ball_2n=counts[2 * n], ball_an=counts[a * n],
        ball_a1n=counts[-1], separated_set=tuple(S))
