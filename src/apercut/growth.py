"""Word growth and packing covers in Z^m and H_n(Z).

Balls B_k are exact. A breadth-first search over the Cayley graph builds
them one layer (the elements of word length exactly k) at a time, on integer
rows of group coordinates. The layer step multiplies every row of layer k by
every generator at once: the coordinates add, and for H_n the t coordinate
also gains <x, g_y>. Each row packs into one integer code (`_Codes`), mixed
radix over per-coordinate bounds derived from the generators before the
search, so sorting codes sorts rows lexicographically; codes are int64 while
they stay below `errors.LIMIT` and Python ints beyond it. Generating sets
are symmetric, so the Cayley graph is undirected and every neighbour of an
element of length k has length k-1, k or k+1: layer k+1 is the set of
products in neither layer k-1 nor layer k, found by one stable sort of
their codes, and no set of every element seen is kept.

On top of that sit a log-log exponent fit, and the maximal-separated-set
experiment: a greedy 2n-separated subset S of B_(a*n) whose translates
s*B_(2n) cover B_(a*n) while the translates s*B_n pack disjointly, forcing
|S| * |B_n| <= |B_((a+1)n)|. One search to radius (a+1)n gives every ball
the experiment uses, and translates are looked up in a ball by
`searchsorted` over its sorted codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

from .errors import LIMIT, BudgetExceededError, element_budget
from .heisenberg import Family, GroupKind, inv_coords
# perfbench/worker.py looks this up on this module to count its calls
from .heisenberg import mul_coords  # noqa: F401

IntCoords = Tuple[int, ...]

@dataclass(frozen=True)
class GenSet:
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


@dataclass(frozen=True)
class BallTable:
    """Cumulative ball sizes |B_0|, ..., |B_kmax| for one generating set."""

    kind: GroupKind
    generators: Tuple[IntCoords, ...]
    counts: Tuple[int, ...]

    @property
    def kmax(self) -> int:
        return len(self.counts) - 1

    def rows(self) -> list[tuple[int, int]]:
        return list(enumerate(self.counts))


# Products per block in the cover checks; bounds their temporaries.
PRODUCT_CHUNK = 1 << 16


def _ball_bounds(gens: GenSet, k: int) -> list[int]:
    """Per-coordinate bound on |g| over B_k. Each of the k letters adds at
    most max|g_i| to coordinate i; for H_n the j-th letter also adds
    <x, g_y> to t, with |x_i| <= (j-1) max|g_x_i|."""
    kind = gens.kind
    top = [max(abs(g[i]) for g in gens.generators)
           for i in range(kind.coord_count)]
    bounds = [k * b for b in top]
    if kind.family is Family.HEISENBERG:
        n = kind.rank
        bounds[-1] += k * (k - 1) // 2 * sum(top[i] * top[n + i]
                                             for i in range(n))
    return bounds


def _reach(kind: GroupKind, left: Sequence[int],
           right: Sequence[int]) -> list[int]:
    """Per-coordinate bound on |p * q| for |p_i| <= left[i] and
    |q_i| <= right[i]."""
    out = [a + b for a, b in zip(left, right)]
    if kind.family is Family.HEISENBERG:
        n = kind.rank
        out[-1] += sum(left[i] * right[n + i] for i in range(n))
    return out


def _absmax(rows: np.ndarray) -> list[int]:
    return [int(v) for v in np.abs(rows).max(axis=0, initial=0)]


class _Codes:
    """Rows with |row[i]| <= bounds[i] packed into one integer each, the
    sum of row[i] * stride_i over mixed radices 2*bounds[i] + 1, first
    coordinate most significant. Up to a constant this is the number whose
    digits are row[i] + bounds[i], so distinct rows get distinct codes and
    the order of the codes is the lexicographic order of the rows. Rows and
    codes are int64 when every code stays below LIMIT, Python ints
    otherwise."""

    def __init__(self, bounds: Sequence[int]) -> None:
        strides, stride = [], 1
        for b in reversed(bounds):
            strides.append(stride)
            stride *= 2 * b + 1
        self.dtype = np.int64 if stride < LIMIT else object
        self._strides = np.array(strides[::-1], dtype=object).astype(
            self.dtype)

    def rows(self, rows) -> np.ndarray:
        return np.asarray(rows).astype(self.dtype, copy=False)

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """The codes of rows already of this dtype."""
        return rows @ self._strides


def _products(kind: GroupKind, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The rows p_i * q_j for every i and j, i major."""
    out = p[:, None, :] + q[None, :, :]
    if kind.family is Family.HEISENBERG:
        n = kind.rank
        out[:, :, -1] += p[:, :n] @ q[:, n:2 * n].T
    return out.reshape(-1, p.shape[1])


def _bfs(gens: GenSet, kmax: int,
         budget: int | None = None) -> tuple[np.ndarray, list[int]]:
    """B_kmax as rows in canonical order (by word length, then
    lexicographically), and the sizes |B_0|, ..., |B_kmax|."""
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    limit = element_budget(budget)
    kind = gens.kind
    codes = _Codes(_ball_bounds(gens, max(kmax, 1)))  # B_1 holds the steps
    steps = codes.rows(np.array(gens.generators, dtype=object))
    layer = codes.rows(np.zeros((1, kind.coord_count), dtype=object))
    layer_codes = codes.pack(layer)
    prev_codes = layer_codes[:0]
    layers, counts = [layer], [1]
    for _ in range(kmax):
        candidates = _products(kind, layer, steps)
        # one stable sort puts the first copy of each code first, and codes
        # of layers k-1 and k ahead of the candidates
        found = np.concatenate([prev_codes, layer_codes,
                                codes.pack(candidates)])
        order = found.argsort(kind="stable")
        found = found[order]
        known = len(prev_codes) + len(layer_codes)
        new = order >= known
        new[1:] &= found[1:] != found[:-1]
        if counts[-1] + np.count_nonzero(new) > limit:
            raise BudgetExceededError(
                f"ball would exceed element budget {limit}"
            )
        layer = candidates[order[new] - known]
        prev_codes, layer_codes = layer_codes, found[new]
        layers.append(layer)
        counts.append(counts[-1] + len(layer))
    return np.concatenate(layers), counts


def _tuples(rows: np.ndarray) -> list[IntCoords]:
    return list(map(tuple, rows.tolist()))


def bfs_balls(gens: GenSet, kmax: int, budget: int | None = None) -> BallTable:
    _, counts = _bfs(gens, kmax, budget)
    return BallTable(gens.kind, gens.generators, tuple(counts))


def ball_elements(
    gens: GenSet, k: int, budget: int | None = None
) -> tuple[list[IntCoords], set[IntCoords]]:
    """B_k in canonical order, plus the same elements as a set."""
    rows, _ = _bfs(gens, k, budget)
    ordered = _tuples(rows)
    return ordered, set(ordered)


@dataclass(frozen=True)
class FitReport:
    """Least-squares growth exponent with supporting diagnostics."""

    exponent: float
    residual: float
    k_min: int
    doubling_ratios: Tuple[Tuple[int, float], ...]
    c_estimates: Tuple[Tuple[int, float], ...] = field(default_factory=tuple)


def fit_growth_exponent(
    table: BallTable, k_min: int = 1, degree_reference: int | None = None
) -> FitReport:
    counts = table.counts
    for k in range(1, len(counts)):
        if counts[k] <= counts[k - 1]:
            raise ValueError(f"ball counts not strictly increasing at k={k}")
    ks = [k for k in range(max(k_min, 1), len(counts))]
    if len(ks) < 3:
        raise ValueError("need at least 3 usable rows to fit an exponent")
    logs_k = np.log([float(k) for k in ks])
    logs_c = np.log([float(counts[k]) for k in ks])
    slope, intercept = np.polyfit(logs_k, logs_c, 1)
    fitted = slope * logs_k + intercept
    residual = float(np.sqrt(np.mean((logs_c - fitted) ** 2)))
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
    return FitReport(float(slope), residual, max(k_min, 1), doubling, c_est)


@dataclass(frozen=True)
class CoverReport:
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


class _Index:
    """Rows of a ball, found by their codes."""

    def __init__(self, codes: _Codes, rows: np.ndarray) -> None:
        packed = codes.pack(codes.rows(rows))
        self._order = packed.argsort()
        self._sorted = packed[self._order]

    def find(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which codes are rows of the ball, and the row positions of
        those."""
        pos = np.searchsorted(self._sorted, codes)
        hit = self._sorted.take(pos, mode="clip") == codes
        return hit, self._order[pos[hit]]


def _translates(kind: GroupKind, codes: _Codes, left: np.ndarray,
                ball: np.ndarray) -> Iterator[np.ndarray]:
    """Codes of the translates s * ball for s in left, in blocks of about
    `PRODUCT_CHUNK` products."""
    left, ball = codes.rows(left), codes.rows(ball)
    step = max(1, PRODUCT_CHUNK // len(ball))
    for a in range(0, len(left), step):
        yield codes.pack(_products(kind, left[a:a + step], ball))


def _greedy(kind: GroupKind, ball: np.ndarray, near: np.ndarray) -> list[int]:
    """Positions of the greedy maximal subset of ball (rows in canonical
    order) with no element in s * near for an earlier kept s."""
    codes = _Codes(_reach(kind, _absmax(ball), _absmax(near)))
    ball, near = codes.rows(ball), codes.rows(near)
    index = _Index(codes, ball)
    blocked = np.zeros(len(ball), dtype=bool)
    kept = []
    pos = 0
    while True:
        kept.append(pos)
        _, near_pos = index.find(codes.pack(_products(kind, ball[pos:pos + 1],
                                                      near)))
        blocked[near_pos] = True
        free = np.flatnonzero(~blocked[pos:])
        if not free.size:
            return kept
        pos += int(free[0])


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
    rows, counts = _bfs(gens, max(a, 2) * n, budget)
    ball = rows[:counts[a * n]]
    return _tuples(ball[_greedy(gens.kind, ball, rows[:counts[2 * n]])])


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

    One BFS to (a+1)n gives every ball. The codes are sized for B_((a+1)n)
    and for S*B_2n with the actual S, which a caller may place anywhere.
    """
    if a < 1 or n < 1:
        raise ValueError("need a >= 1 and n >= 1")
    kind = gens.kind
    rows, counts = _bfs(gens, (a + 1) * n, budget)
    ball_an, ball_2n = rows[:counts[a * n]], rows[:counts[2 * n]]
    if separated is None:
        S = _tuples(ball_an[_greedy(kind, ball_an, ball_2n)])
    else:
        S = list(separated)
    S_rows = np.array(S, dtype=object).reshape(len(S), kind.coord_count)
    codes = _Codes([max(u, v) for u, v in zip(
        _absmax(rows), _reach(kind, _absmax(S_rows), _absmax(ball_2n)))])

    index_an = _Index(codes, ball_an)
    reached = np.zeros(len(ball_an), dtype=bool)
    for block in _translates(kind, codes, S_rows, ball_2n):
        reached[index_an.find(block)[1]] = True
    covered = bool(reached.all())
    if not covered:
        raise AssertionError(
            f"maximal separated set fails to cover B_{a * n} (a={a}, n={n})"
        )

    # S is not empty here: an empty S covers nothing
    translates = np.sort(np.concatenate(list(
        _translates(kind, codes, S_rows, rows[:counts[n]]))))
    total = len(translates)
    disjoint = not (translates[1:] == translates[:-1]).any()
    if not disjoint:
        raise AssertionError(
            f"packing translates overlap (a={a}, n={n})"
        )
    inside = bool(_Index(codes, rows).find(translates)[0].all())
    volume_ok = inside and total <= counts[-1]
    if not volume_ok:
        raise AssertionError(
            f"packing volume inequality violated (a={a}, n={n})"
        )

    bound = (a + 1) ** d_used
    return CoverReport(
        a=a,
        n=n,
        packing_size=len(S),
        bound=bound,
        bound_holds=len(S) <= bound,
        covered=covered,
        packing_disjoint=disjoint,
        volume_check=volume_ok,
        d_used=d_used,
        ball_n=counts[n],
        ball_2n=counts[2 * n],
        ball_an=counts[a * n],
        ball_a1n=counts[-1],
        separated_set=tuple(S),
    )
