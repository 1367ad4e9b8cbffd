"""End-to-end acceptance runs.

One test per headline capability, each asserting its results exactly and
finishing inside a fixed wall-clock ceiling. Run with -v for the per-line
verdicts, or -s to also see the timing summaries.
"""

import math
import random
import time
from collections import Counter
from fractions import Fraction

from apercut.analysis import (
    patch_catalog,
    period_search,
    repetitivity_radii,
    right_interior,
    separation,
)
from apercut.bounds import (
    Evidence,
    build_checklist,
    nuclear_dim_bound,
    nuclear_dim_from_tube,
    tube_dim_bound,
)
from apercut.analysis import complexity_table, delone_report
from apercut.cli import main
from apercut.cutproject import (
    Box,
    Scheme,
    check_window_regular,
    generate_model_set,
    periodic_control_model_set,
)
from apercut.growth import GenSet, bfs_balls, fit_growth_exponent, verify_cover
from apercut.heisenberg import GroupPoint, GroupKind
from apercut.quadratic import (
    QuadNum,
    RingSpec,
    RingVariant,
    enumerate_ring_in_rectangle,
)
from oracles import pair_route

E1 = GroupKind.euclidean(1)
E2 = GroupKind.euclidean(2)
H1 = GroupKind.heisenberg(1)
H2 = GroupKind.heisenberg(2)


def _finish(label: str, t0: float, limit: float | None) -> None:
    dt = time.perf_counter() - t0
    ceiling = f" / limit {limit:g}s" if limit is not None else ""
    print(f"{label}: PASS ({dt:.2f}s{ceiling})")
    if limit is not None:
        assert dt < limit, f"{label} took {dt:.2f}s, over the {limit:g}s ceiling"


# ---------------------------------------------------------------------------
# 1. dimension bound formulas, exact integers
# ---------------------------------------------------------------------------

def test_dimension_bound_formulas_and_composition_identity():
    t0 = time.perf_counter()
    assert tube_dim_bound(1, 1) == 21
    assert tube_dim_bound(2, 0) == 120
    assert nuclear_dim_from_tube(1, 21) == 43
    assert nuclear_dim_from_tube(2, 2) == 8
    assert nuclear_dim_bound(1, 1) == 43
    assert nuclear_dim_bound(4, 3) == 234255
    for d_g in range(7):
        for dim_x in range(7):
            direct = nuclear_dim_bound(d_g, dim_x)
            assert direct == 11 ** d_g * (dim_x + 1) ** 2 - 1
            assert direct == nuclear_dim_from_tube(
                dim_x, tube_dim_bound(d_g, dim_x))
    _finish("dimension bound formulas", t0, 1)


# ---------------------------------------------------------------------------
# 2. randomized exact-identity suite, 10^4 checks
# ---------------------------------------------------------------------------

def _rand_qn(rng, d):
    return QuadNum(Fraction(rng.randint(-40, 40), rng.randint(1, 6)),
                   Fraction(rng.randint(-40, 40), rng.randint(1, 6)), d)


def _rand_h2(rng, d):
    return GroupPoint(H2, tuple(_rand_qn(rng, d) for _ in range(5)))


def test_exact_algebra_randomized_identities():
    t0 = time.perf_counter()
    rng = random.Random(20240808)
    checks = 0
    for i in range(2500):
        d = (2, 3, 5)[i % 3]
        x, y = _rand_qn(rng, d), _rand_qn(rng, d)

        # conjugation is a ring homomorphism
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        checks += 2

        # the norm is multiplicative
        assert (x * y).norm() == x.norm() * y.norm()
        checks += 1

        # group axioms in the 5-dimensional Heisenberg group
        p, q, r = _rand_h2(rng, d), _rand_h2(rng, d), _rand_h2(rng, d)
        assert ((p * q) * r).coords == (p * (q * r)).coords
        assert (p * p.inverse()).coords == GroupPoint.identity(H2).coords
        checks += 2

        # dilation by a rational scalar is a group automorphism
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert (p * q).dilate(lam).coords == (
            p.dilate(lam) * q.dilate(lam)).coords
        checks += 1
    assert checks >= 10 ** 4
    _finish(f"exact algebra suite ({checks} checks)", t0, 10)


# ---------------------------------------------------------------------------
# 3. ring enumeration against a brute-force grid scan
# ---------------------------------------------------------------------------

def _bracket_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Sign of a + b*sqrt(d) by squeezing sqrt(d) between rationals."""
    if b == 0:
        return (a > 0) - (a < 0)
    n = 10 ** 8
    for _ in range(8):
        lo_root = Fraction(math.isqrt(d * n * n), n)
        hi_root = lo_root + Fraction(1, n)
        lo = a + b * (lo_root if b > 0 else hi_root)
        hi = a + b * (hi_root if b > 0 else lo_root)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        n *= 10 ** 4
    raise AssertionError("sign bracket did not converge")


def _grid_scan(ring, phys, internal, grid):
    p1, p2 = phys
    i1, i2 = internal
    if ring.variant is RingVariant.Z_SQRT_D:
        cands = [(Fraction(a), Fraction(b))
                 for a in range(-grid, grid + 1)
                 for b in range(-grid, grid + 1)]
    else:
        cands = [(Fraction(p, 2), Fraction(q, 2))
                 for p in range(-2 * grid, 2 * grid + 1)
                 for q in range(-2 * grid, 2 * grid + 1)
                 if (p - q) % 2 == 0]
    d = ring.d
    hits = set()
    for a, b in cands:
        if (_bracket_sign(a - p1, b, d) >= 0
                and _bracket_sign(a - p2, b, d) <= 0
                and _bracket_sign(a - i1, -b, d) >= 0
                and _bracket_sign(a - i2, -b, d) <= 0):
            hits.add((a, b))
    return hits


def test_ring_enumeration_matches_grid_scan():
    t0 = time.perf_counter()
    rng = random.Random(11)
    rings = [RingSpec(2), RingSpec(3), RingSpec(5),
             RingSpec(5, RingVariant.FULL_INTEGERS)]
    for ring in rings:
        for _ in range(20):
            pa, pb = sorted(Fraction(rng.randint(-40, 40), 4)
                            for _ in range(2))
            ia, ib = sorted(Fraction(rng.randint(-20, 20), 4)
                            for _ in range(2))
            got = enumerate_ring_in_rectangle(ring, (pa, pb), (ia, ib))
            want = _grid_scan(ring, (pa, pb), (ia, ib), grid=14)
            assert {(x.a, x.b) for x in got} == want
            assert got == sorted(got)
    _finish("ring enumeration vs grid scan (80 rectangles)", t0, 10)


# ---------------------------------------------------------------------------
# 4. the 1d line sample: Delone, FLC, aperiodic
# ---------------------------------------------------------------------------

STURMIAN_WINDOW = Box(((Fraction(-9, 10), Fraction(11, 10)),))
SCHEME_1D = Scheme(E1, RingSpec(2))


def test_line_model_set_delone_flc_aperiodic():
    t0 = time.perf_counter()
    reg = check_window_regular(SCHEME_1D, STURMIAN_WINDOW)
    assert reg.boundary_clear and reg.window_regular

    ms100 = generate_model_set(SCHEME_1D, STURMIAN_WINDOW, Box(((-100, 100),)))
    ms200 = generate_model_set(SCHEME_1D, STURMIAN_WINDOW, Box(((-200, 200),)))

    sep = separation(ms100)
    assert sep.separation_sq > 0

    vals = [p.coords[0] for p in ms100.points]
    assert vals == sorted(vals)
    distinct_gaps = {vals[i + 1] - vals[i] for i in range(len(vals) - 1)}
    assert len(distinct_gaps) <= 3

    for k in range(1, 6):
        small, big = patch_catalog(ms100, k), patch_catalog(ms200, k)
        assert small.keys() == big.keys()

    per = period_search(ms100, 5, 5)
    assert per.nontrivial_periods == ()
    _finish("1d model set (Delone, 3 gaps, stable patches, no periods)",
            t0, 60)


# ---------------------------------------------------------------------------
# 5. the Heisenberg sample: Delone, FLC, aperiodic, projections injective
# ---------------------------------------------------------------------------

SCHEME_H1 = Scheme(H1, RingSpec(2))
H1_WINDOW = Box.cube(H1, Fraction(9, 10))


def test_heisenberg_model_set_delone_flc_aperiodic():
    t0 = time.perf_counter()
    one = Fraction(1)
    ms8 = generate_model_set(SCHEME_H1, H1_WINDOW, Box.gauge_box(H1, 8))
    ms12 = generate_model_set(SCHEME_H1, H1_WINDOW, Box.gauge_box(H1, 12))

    sep = separation(ms8)
    assert sep.separation_sq > 0
    assert sep.separation_sq == 1

    # patch-by-center catalog of the radius-8 sample, on the masked route
    cat8 = patch_catalog(pair_route(ms8), one)
    per_center8 = {i: cls.relative_coords
                   for cls in cat8.classes for i in cls.centers}
    assert sorted(per_center8) == right_interior(ms8, one)
    counts8 = Counter(per_center8.values())
    assert len(counts8) == 43

    # growing the region must not lose, change, or shrink any known class.
    # (Strict equality of the two catalogs is false as a matter of fact:
    # fresh classes do appear at centers beyond gauge norm 8, because a
    # larger physical region samples the window at finer resolution.)
    cat12 = patch_catalog(ms12, one)
    per_center12 = {j: cls.relative_coords
                    for cls in cat12.classes for j in cls.centers}
    pos12 = {p.coords: j for j, p in enumerate(ms12.points)}
    for i, key in per_center8.items():
        assert per_center12[pos12[ms8.points[i].coords]] == key

    counts12 = {c.relative_coords: c.multiplicity for c in cat12.classes}
    assert len(counts12) == 51
    assert set(counts8) <= set(counts12)
    assert all(counts12[k] >= n for k, n in counts8.items())

    per = period_search(ms8, 2, 2)
    assert per.nontrivial_periods == ()

    # both projections of the lattice restrict injectively to the sample
    assert len({p.coords for p in ms8.points}) == len(ms8.points)
    assert len({p.coords for p in ms8.internal_points}) == len(ms8.points)
    _finish(
        f"Heisenberg model set (sep^2=1, classes {len(counts8)}->"
        f"{len(counts12)} persistent, no periods)", t0, 35)


# ---------------------------------------------------------------------------
# 6. growth tables and fitted exponents
# ---------------------------------------------------------------------------

def test_growth_tables_and_fitted_exponents():
    t0 = time.perf_counter()
    tab = bfs_balls(GenSet.standard(H1), 24)
    assert tab.counts[:3] == (1, 5, 17)
    assert tab.counts[24] == 141225
    fit = fit_growth_exponent(tab, k_min=8)
    assert abs(fit.exponent - 4) <= 0.6

    ratios = [tab.counts[2 * k] / tab.counts[k] for k in range(1, 13)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r <= 2 ** 4 for r in ratios)

    tab2 = bfs_balls(GenSet.standard(E2), 24)
    fit2 = fit_growth_exponent(tab2, k_min=8)
    assert abs(fit2.exponent - 2) <= 0.2
    ratios2 = [tab2.counts[2 * k] / tab2.counts[k] for k in range(1, 13)]
    assert all(a < b for a, b in zip(ratios2, ratios2[1:]))
    assert all(r <= 2 ** 2 for r in ratios2)
    _finish(f"growth (H1 exp {fit.exponent:.3f}, Z2 exp {fit2.exponent:.3f})",
            t0, 0.25)


# ---------------------------------------------------------------------------
# 7. ball covers: hard invariants on every executed run
# ---------------------------------------------------------------------------

def test_cover_experiment_hard_invariants():
    t0 = time.perf_counter()
    runs = (
        (E1, 10, range(1, 51), 1),
        (E2, 3, range(1, 7), 2),
        (H1, 2, range(1, 4), 4),
    )
    for kind, a, ns, d_used in runs:
        gens = GenSet.standard(kind)
        first_bound_n = None
        for n in ns:
            rep = verify_cover(gens, a, n, d_used)
            assert rep.covered
            assert rep.packing_disjoint
            assert rep.packing_size * rep.ball_n <= rep.ball_a1n
            if kind is E1:
                assert rep.packing_size <= 11
            if first_bound_n is None and rep.bound_holds:
                first_bound_n = n
        assert first_bound_n is not None
        print(f"  {kind.family.value} rank {kind.rank}: |S| <= (a+1)^"
              f"{d_used} first holds at n={first_bound_n}")
    _finish("cover experiment hard invariants", t0, 1)


# ---------------------------------------------------------------------------
# 8. a periodic sample must be caught
# ---------------------------------------------------------------------------

def test_periodic_control_is_flagged():
    t0 = time.perf_counter()
    ctrl = periodic_control_model_set(SCHEME_1D, Box(((-30, 30),)))
    for k in (1, 2, 3):
        assert patch_catalog(ctrl, k).class_count == 1

    per = period_search(ctrl, 3, 3)
    assert per.periodic and len(per.nontrivial_periods) > 0

    checklist = build_checklist(
        ctrl.scheme.kind, 1, delone_report(ctrl),
        complexity_table(ctrl, [1, 2]), repetitivity_radii(ctrl, 1), per,
        check_window_regular(ctrl.scheme, ctrl.window), len(ctrl.points))
    assert checklist.aperiodicity_evidence is Evidence.FAILED
    assert "aperiodicity" in checklist.failed_hypotheses
    assert not checklist.supported
    _finish("periodic control flagged", t0, 30)


# ---------------------------------------------------------------------------
# 9. byte-identical outputs at any thread count
# ---------------------------------------------------------------------------

def _run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out


def test_cli_byte_identical_across_thread_counts(tmp_path, capsys):
    t0 = time.perf_counter()

    def command_set(tag, threads):
        base = tmp_path / tag
        base.mkdir()
        ms = base / "ms.json"
        report = base / "rep.json"
        csv = base / "cx.csv"
        growth_csv = base / "growth.csv"
        cover = base / "cover.json"
        bounds = base / "bounds.json"
        th = ["--threads", str(threads)]
        argvs = [
            ["generate", "--kind", "euclidean", "--m", "1", "--d", "2",
             "--window=-9/10,11/10", "--region=-80,80",
             "--out", str(ms)] + th,
            ["analyze", "--in", str(ms), "--K", "1,2,3", "--period-bound",
             "3", "--out", str(report), "--csv", str(csv)] + th,
            ["growth", "--group", "h1z", "--kmax", "12",
             "--out", str(growth_csv)] + th,
            ["cover", "--group", "z1", "--a", "10", "--n", "3",
             "--out", str(cover)] + th,
            ["bounds", "--dg", "4", "--dimx", "3", "--out",
             str(bounds)] + th,
            ["check-window", "--kind", "euclidean", "--m", "1", "--d", "2",
             "--window=-9/10,11/10"] + th,
        ]
        stdouts = []
        for argv in argvs:
            code, out = _run_cli(capsys, argv)
            assert code == 0, (argv, out)
            stdouts.append(out.replace(str(base), "<dir>"))
        files = [ms, report, csv, growth_csv, cover, bounds]
        return stdouts, [f.read_bytes() for f in files]

    out1, files1 = command_set("t1", 1)
    out8, files8 = command_set("t8", 8)
    assert out1 == out8
    assert files1 == files8
    _finish("cli byte-identical at --threads 1 vs 8", t0, None)
