import itertools
import operator
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apercut import growth
from apercut.errors import BudgetExceededError, element_budget
from apercut.growth import (
    BallTable,
    CoverReport,
    GenSet,
    ball_elements,
    bfs_balls,
    fit_growth_exponent,
    greedy_maximal_separated,
    verify_cover,
)
from apercut.heisenberg import GroupKind, inv_coords, mul_coords

Z1 = GroupKind.euclidean(1)
Z2 = GroupKind.euclidean(2)
Z3 = GroupKind.euclidean(3)
H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)
BIG = 1 << 40


# ---------------------------------------------------------------------------
# independent oracle: brute-force word enumeration (products over all words
# up to length k), feasible for tiny k only
# ---------------------------------------------------------------------------

def oracle_ball(kind, gens, k):
    elements = {(0,) * kind.coord_count}
    for length in range(1, k + 1):
        for word in itertools.product(gens, repeat=length):
            p = (0,) * kind.coord_count
            for g in word:
                p = mul_coords(kind, p, g)
            elements.add(p)
    return elements


def test_z1_counts_match_closed_form():
    table = bfs_balls(GenSet.standard(Z1), 5)
    assert table.counts == (1, 3, 5, 7, 9, 11)


def test_z2_counts_match_closed_form():
    table = bfs_balls(GenSet.standard(Z2), 8)
    assert table.counts[:4] == (1, 5, 13, 25)
    for k, c in enumerate(table.counts):
        assert c == 2 * k * k + 2 * k + 1


def test_h1_counts_small_by_hand():
    # |B_0|=1; |B_1|=5; |B_2|=17: 4 straight double steps plus 8 mixed
    # products carrying two possible t-values per sign pair
    table = bfs_balls(GenSet.standard(H1), 2)
    assert table.counts == (1, 5, 17)


def test_h1_counts_match_word_oracle():
    gens = GenSet.standard(H1)
    table = bfs_balls(gens, 4)
    for k in range(5):
        assert table.counts[k] == len(oracle_ball(H1, gens.generators, k))


def test_z2_ball_matches_word_oracle():
    gens = GenSet.standard(Z2)
    _, ball = ball_elements(gens, 3)
    assert ball == oracle_ball(Z2, gens.generators, 3)


def test_gen_set_validation():
    with pytest.raises(ValueError):
        GenSet(Z1, ((1,),))                    # not symmetric
    with pytest.raises(ValueError):
        GenSet(Z1, ((0,), (1,), (-1,)))        # identity present
    with pytest.raises(ValueError):
        GenSet(Z2, ((1,),))                    # wrong arity
    with pytest.raises(ValueError):
        GenSet.make(Z1, [])
    s = GenSet.make(H1, [(1, 0, 0), (0, 1, 0)])
    assert len(s.generators) == 4
    assert all(inv_coords(H1, g) in s.generators for g in s.generators)


def test_standard_generators():
    assert GenSet.standard(Z1).generators == ((-1,), (1,))
    assert set(GenSet.standard(H1).generators) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)}


def test_budget_guard(monkeypatch):
    with pytest.raises(BudgetExceededError):
        bfs_balls(GenSet.standard(Z2), 100, budget=50)
    monkeypatch.setenv("APERCUT_BUDGET", "75")
    assert element_budget() == 75
    with pytest.raises(BudgetExceededError):
        bfs_balls(GenSet.standard(Z2), 100)
    monkeypatch.delenv("APERCUT_BUDGET")
    assert element_budget() == 50_000_000


def test_single_row_table():
    table = bfs_balls(GenSet.standard(H1), 0)
    assert table.counts == (1,)


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

def test_fit_z1_exponent_near_one():
    table = bfs_balls(GenSet.standard(Z1), 40)
    fit = fit_growth_exponent(table, k_min=8, degree_reference=1)
    assert abs(fit.exponent - 1.0) < 0.05
    assert fit.residual < 0.05
    # doubling ratios (4k+1)/(2k+1) increase toward 2
    ratios = [r for _, r in fit.doubling_ratios]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    assert all(r < 2 for r in ratios)


def test_fit_z2_exponent_near_two():
    table = bfs_balls(GenSet.standard(Z2), 30)
    fit = fit_growth_exponent(table, k_min=8)
    assert abs(fit.exponent - 2.0) < 0.1


def test_fit_rejects_bad_tables():
    with pytest.raises(ValueError):
        fit_growth_exponent(BallTable(Z1, ((1,), (-1,)), (1, 3, 3, 5)))
    with pytest.raises(ValueError):
        fit_growth_exponent(bfs_balls(GenSet.standard(Z1), 3), k_min=2)


def polyfit_reference(table, k_min):
    """Exponent and residual of the numpy.polyfit fit that
    fit_growth_exponent replaced."""
    import numpy as np
    ks = np.arange(max(k_min, 1), len(table.counts), dtype=float)
    logs_k = np.log(ks)
    logs_c = np.log([float(table.counts[int(k)]) for k in ks])
    slope, intercept = np.polyfit(logs_k, logs_c, 1)
    fitted = slope * logs_k + intercept
    return float(slope), float(np.sqrt(np.mean((logs_c - fitted) ** 2)))


@pytest.mark.parametrize("kind,kmax,k_min", [
    (Z1, 40, 8), (Z1, 12, 1), (Z2, 30, 8), (Z2, 30, 1), (H1, 20, 1),
    (H1, 20, 5),
])
def test_fit_matches_polyfit(kind, kmax, k_min):
    # float64 sums in another order: agreement to 1e-12, not bit for bit
    table = bfs_balls(GenSet.standard(kind), kmax)
    fit = fit_growth_exponent(table, k_min=k_min)
    slope, residual = polyfit_reference(table, k_min)
    assert fit.exponent == pytest.approx(slope, rel=1e-12, abs=0)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=0)


def test_c_estimates_reference_degree():
    table = bfs_balls(GenSet.standard(Z1), 10)
    fit = fit_growth_exponent(table, k_min=2, degree_reference=1)
    # |B_k|/k -> 2 for Z
    ks, vals = zip(*fit.c_estimates)
    assert vals[-1] == table.counts[10] / 10.0
    assert 2.0 < vals[-1] <= 3.0


# ---------------------------------------------------------------------------
# packing covers
# ---------------------------------------------------------------------------

def test_z1_separated_set_structure():
    gens = GenSet.standard(Z1)
    for n in (1, 2, 5):
        S = greedy_maximal_separated(gens, 10, n)
        vals = sorted(s[0] for s in S)
        # arithmetic progression with step 2n+1 by greedy construction
        assert all(b - a == 2 * n + 1 for a, b in zip(vals, vals[1:]))
        assert len(S) <= 11


def test_degenerate_cover_single_element():
    # a=1: B_n is 2n-dense in itself, so greedy keeps only the identity
    gens = GenSet.standard(Z1)
    S = greedy_maximal_separated(gens, 1, 3)
    assert S == [(0,)]
    report = verify_cover(gens, 1, 3, d_used=1, separated=S)
    assert report.covered and report.packing_size == 1


def test_cover_z1_instance():
    report = verify_cover(GenSet.standard(Z1), 10, 3, d_used=1)
    assert report.covered
    assert report.packing_disjoint
    assert report.volume_check
    assert report.packing_size <= report.bound == 11
    assert report.ball_n == 7 and report.ball_2n == 13
    assert report.ball_an == 61 and report.ball_a1n == 67


def test_cover_z2_instance():
    report = verify_cover(GenSet.standard(Z2), 3, 2, d_used=2)
    assert report.covered and report.packing_disjoint and report.volume_check
    assert report.packing_size <= report.bound == 16


def test_cover_h1_instance():
    report = verify_cover(GenSet.standard(H1), 2, 2, d_used=4)
    assert report.covered and report.packing_disjoint and report.volume_check
    assert report.packing_size <= report.bound == 3 ** 4


def test_cover_invalid_parameters():
    with pytest.raises(ValueError):
        greedy_maximal_separated(GenSet.standard(Z1), 0, 1)
    with pytest.raises(ValueError):
        greedy_maximal_separated(GenSet.standard(Z1), 2, 0)


def test_separation_property_of_greedy():
    gens = GenSet.standard(H1)
    n, a = 2, 2
    S = greedy_maximal_separated(gens, a, n)
    _, near = ball_elements(gens, 2 * n)
    for s, t in itertools.combinations(S, 2):
        assert mul_coords(H1, inv_coords(H1, s), t) not in near


# ---------------------------------------------------------------------------
# reference: a per-tuple breadth-first search, greedy walk and cover checks,
# the oracle for the column-bitset kernel
# ---------------------------------------------------------------------------

def ref_layers(gens, kmax):
    kind = gens.kind
    ident = (0,) * kind.coord_count
    seen = {ident}
    layers = [[ident]]
    frontier = [ident]
    for _ in range(kmax):
        nxt = set()
        for p in frontier:
            for g in gens.generators:
                q = mul_coords(kind, p, g)
                if q not in seen:
                    nxt.add(q)
        frontier = sorted(nxt)
        seen.update(nxt)
        layers.append(frontier)
    return layers


def ref_ball(gens, k):
    ordered = [p for layer in ref_layers(gens, k) for p in layer]
    return ordered, set(ordered)


def ref_greedy(gens, a, n):
    ordered, _ = ref_ball(gens, a * n)
    _, near = ref_ball(gens, 2 * n)
    kind = gens.kind
    kept = []
    for g in ordered:
        if all(mul_coords(kind, inv_coords(kind, s), g) not in near
               for s in kept):
            kept.append(g)
    return kept


def ref_cover(gens, a, n, d_used, separated=None):
    kind = gens.kind
    S = list(separated) if separated is not None else ref_greedy(gens, a, n)
    ordered_an, set_an = ref_ball(gens, a * n)
    _, set_2n = ref_ball(gens, 2 * n)
    ordered_n, _ = ref_ball(gens, n)
    _, set_a1n = ref_ball(gens, (a + 1) * n)
    inv_S = [inv_coords(kind, s) for s in S]
    covered = all(any(mul_coords(kind, si, g) in set_2n for si in inv_S)
                  for g in ordered_an)
    if not covered:
        raise AssertionError("fails to cover")
    translates = set()
    total = 0
    inside = True
    for s in S:
        for g in ordered_n:
            q = mul_coords(kind, s, g)
            translates.add(q)
            total += 1
            inside = inside and q in set_a1n
    disjoint = len(translates) == total
    if not disjoint:
        raise AssertionError("packing translates overlap")
    volume_ok = inside and total <= len(set_a1n)
    if not volume_ok:
        raise AssertionError("packing volume inequality violated")
    bound = (a + 1) ** d_used
    return CoverReport(a, n, len(S), bound, len(S) <= bound, covered,
                       disjoint, volume_ok, d_used, len(ordered_n),
                       len(set_2n), len(set_an), len(set_a1n), tuple(S))


def assert_balls_match(gens, kmax):
    layers = ref_layers(gens, kmax)
    ordered, as_set = ball_elements(gens, kmax)
    assert ordered == [p for layer in layers for p in layer]
    assert as_set == set(ordered)
    assert all(type(c) is int for p in ordered for c in p)
    counts = list(itertools.accumulate(len(layer) for layer in layers))
    assert bfs_balls(gens, kmax).counts == tuple(counts)


STANDARD = [(Z1, 12), (Z2, 8), (Z3, 5), (H1, 7), (H2, 3)]


@pytest.mark.parametrize("kind,kmax", STANDARD,
                         ids=["z1", "z2", "z3", "h1", "h2"])
def test_balls_match_reference_standard(kind, kmax):
    assert_balls_match(GenSet.standard(kind), kmax)


# generators with coordinates near 2^40: codes of Z^2 balls reach about
# 2^84, of Z^3 and H_n balls (t grows like k^2 * 2^80) far more, so the
# words of a column lie far apart
WIDE = [
    (Z1, [(BIG + 1,), (3,)], 6),
    (Z2, [(BIG, 3), (-2, BIG + 1)], 4),
    (Z3, [(BIG, 1, -BIG - 3), (0, BIG + 5, 2)], 3),
    (H1, [(BIG, 1, 0), (0, BIG + 1, -3)], 4),
    (H2, [(BIG, 0, 1, 0, 7), (0, -BIG, 0, 2, BIG)], 3),
]


@pytest.mark.parametrize("kind,gens,kmax", WIDE,
                         ids=["z1", "z2", "z3", "h1", "h2"])
def test_balls_and_cover_match_reference_wide(kind, gens, kmax):
    gens = GenSet.make(kind, gens)
    assert_balls_match(gens, kmax)
    assert verify_cover(gens, 2, 1, 4) == ref_cover(gens, 2, 1, 4)


@pytest.mark.parametrize("kind,a,n", [
    (Z1, 10, 3), (Z1, 4, 2), (Z2, 3, 2), (Z3, 2, 1), (H1, 3, 1),
    (H1, 2, 2), (H2, 2, 1),
])
def test_cover_matches_reference_standard(kind, a, n):
    gens = GenSet.standard(kind)
    assert greedy_maximal_separated(gens, a, n) == ref_greedy(gens, a, n)
    assert verify_cover(gens, a, n, kind.growth_degree) == ref_cover(
        gens, a, n, kind.growth_degree)


COORD = st.one_of(st.integers(-3, 3), st.integers(BIG - 2, BIG + 2),
                  st.integers(-BIG - 2, -BIG + 2))


@st.composite
def gen_sets(draw):
    kind = draw(st.sampled_from([Z1, Z2, Z3, H1, H2]))
    raw = draw(st.lists(st.tuples(*[COORD] * kind.coord_count),
                        min_size=1, max_size=3))
    if all(not any(g) for g in raw):
        raw.append((1,) + (0,) * (kind.coord_count - 1))
    return GenSet.make(kind, raw)


@settings(max_examples=100, deadline=None)
@given(gens=gen_sets(), kmax=st.integers(0, 3), a=st.integers(1, 2))
@example(gens=GenSet.make(H1, [(BIG, BIG, BIG)]), kmax=3, a=2)
def test_balls_and_cover_match_reference_drawn(gens, kmax, a):
    assert_balls_match(gens, kmax)
    assert greedy_maximal_separated(gens, a, 1) == ref_greedy(gens, a, 1)
    assert verify_cover(gens, a, 1, 1) == ref_cover(gens, a, 1, 1)


@st.composite
def layout_elements(draw):
    """A kind, per-coordinate bounds, and elements whose lower digits lie
    within them; the last coordinate, the top digit, is unbounded."""
    kind = draw(st.sampled_from([H1, H2, Z3]))
    count = kind.coord_count
    bounds = draw(st.lists(st.integers(0, 5), min_size=count - 1,
                           max_size=count - 1))
    coords = [st.integers(-b, b) for b in bounds]
    if kind is not Z3:
        # only x is a digit; y is the column
        n = kind.rank
        coords[n:] = [st.integers(-4, 4)] * n
    top = st.integers(-(1 << 70), 1 << 70)
    elements = draw(st.lists(st.tuples(*coords, top), max_size=30))
    return kind, bounds, elements


@settings(max_examples=200, deadline=None)
@given(case=layout_elements())
def test_layout_round_trip_and_order(case):
    kind, bounds, elements = case
    layout = growth._Layout(kind, bounds)
    n = layout.n
    cols = {}
    for s in elements:
        code = sum(map(operator.mul, s, layout.strides)) + s[-1] * layout.radix
        assert layout.element(s[n:2 * n], code) == s
        # s times the identity places s at its code
        growth._translate_into(cols, layout, s, {(0,) * n: {0: 1}})
    ordered = [layout.element(y, code)
               for y, code in growth._ordered(layout, cols)]
    assert ordered == sorted(set(elements))


# Words of 1 and 5 bits: every translate straddles words, with shifts of
# both signs, exact multiples of the width among them.
COVERS = [(Z1, 10, 3), (Z2, 3, 2), (Z3, 2, 1), (H1, 3, 1), (H1, 2, 2),
          (H2, 2, 1)]


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("kind,kmax", STANDARD,
                         ids=["z1", "z2", "z3", "h1", "h2"])
def test_balls_match_reference_narrow_words(kind, kmax, width, monkeypatch):
    monkeypatch.setattr(growth, "WORD_BITS", width)
    assert_balls_match(GenSet.standard(kind), kmax)


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("kind,gens,kmax", WIDE,
                         ids=["z1", "z2", "z3", "h1", "h2"])
def test_wide_match_reference_narrow_words(kind, gens, kmax, width,
                                           monkeypatch):
    monkeypatch.setattr(growth, "WORD_BITS", width)
    gens = GenSet.make(kind, gens)
    assert_balls_match(gens, kmax)
    assert greedy_maximal_separated(gens, 2, 1) == ref_greedy(gens, 2, 1)
    assert verify_cover(gens, 2, 1, 4) == ref_cover(gens, 2, 1, 4)


@pytest.mark.parametrize("width", [1, 5])
@pytest.mark.parametrize("kind,a,n", COVERS,
                         ids=["z1", "z2", "z3", "h1-3-1", "h1-2-2", "h2"])
def test_cover_matches_reference_narrow_words(kind, a, n, width,
                                              monkeypatch):
    monkeypatch.setattr(growth, "WORD_BITS", width)
    gens = GenSet.standard(kind)
    assert greedy_maximal_separated(gens, a, n) == ref_greedy(gens, a, n)
    assert verify_cover(gens, a, n, kind.growth_degree) == ref_cover(
        gens, a, n, kind.growth_degree)


def test_cover_rejects_non_covering_set():
    with pytest.raises(AssertionError, match="fails to cover B_3"):
        verify_cover(GenSet.standard(H1), 3, 1, 4, separated=[(0, 0, 0)])


def test_cover_rejects_overlapping_translates():
    gens = GenSet.standard(H1)
    S = greedy_maximal_separated(gens, 3, 1)
    extra = mul_coords(H1, S[-1], (1, 0, 0))
    with pytest.raises(AssertionError, match="packing translates overlap"):
        verify_cover(gens, 3, 1, 4, separated=S + [extra])


def test_cover_rejects_translate_outside_ball():
    gens = GenSet.standard(H1)
    S = greedy_maximal_separated(gens, 3, 1)
    with pytest.raises(AssertionError,
                       match="packing volume inequality violated"):
        verify_cover(gens, 3, 1, 4, separated=S + [(100, 0, 0)])
