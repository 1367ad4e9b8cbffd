import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apercut import analysis, cli, cutproject
from apercut.cli import main
from apercut.cutproject import Box, Scheme, generate_model_set
from apercut.errors import (
    ApercutError,
    BudgetExceededError,
    EmptyIntervalError,
    ErosionError,
    FieldMismatchError,
    KindMismatchError,
    ProvenanceError,
    WindowError,
)
from apercut.growth import GenSet, bfs_balls, fit_kmax
from apercut.heisenberg import GroupKind
from apercut.quadratic import QuadNum, RingSpec
from apercut.serialize import (
    FORMAT_VERSION,
    read_json,
    read_model_set,
    write_json,
)

GEN_1D = [
    "generate", "--kind", "euclidean", "--m", "1", "--d", "2",
    "--window=-9/10,11/10", "--region=-60,60",
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, capsys, name="ms.json", extra=()):
    path = tmp_path / name
    code, out, err = run(capsys, GEN_1D + ["--out", str(path)] + list(extra))
    assert code == 0, err
    return path


def test_generate_1d(tmp_path, capsys):
    path = gen_file(tmp_path, capsys)
    code, out, _ = run(capsys, GEN_1D + ["--out", str(path)])
    assert code == 0
    assert "points: " in out
    assert "window regular: true" in out
    assert f"written: {path}" in out
    ms, payload = read_model_set(path)
    assert len(ms) > 0
    assert payload["config"]["command"] == "generate"
    assert "threads" not in json.dumps(payload)


def test_generate_matches_library(tmp_path, capsys):
    path = tmp_path / "h1.json"
    code, out, err = run(capsys, [
        "generate", "--kind", "heisenberg", "--n", "1", "--d", "2",
        "--window=-9/10,9/10;-9/10,9/10;-9/10,9/10",
        "--region=-4,4;-4,4;-16,16",
        "--out", str(path),
    ])
    assert code == 0, err
    ms, _ = read_model_set(path)
    expected = generate_model_set(
        Scheme(GroupKind.heisenberg(1), RingSpec(2)),
        Box.cube(GroupKind.heisenberg(1), Fraction(9, 10)),
        Box.gauge_box(GroupKind.heisenberg(1), 4),
    )
    assert ms == expected


def test_generate_degenerate_window_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, [
        "generate", "--kind", "euclidean", "--m", "1", "--d", "2",
        "--window", "0,0", "--region=-5,5",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "error:" in err


def test_generate_irregular_window(tmp_path, capsys):
    argv = [
        "generate", "--kind", "euclidean", "--m", "1", "--d", "2",
        "--window=-1,1", "--region=-5,5",
        "--out", str(tmp_path / "x.json"),
    ]
    code, out, err = run(capsys, argv)
    assert code == 3
    assert "boundary witness" in out
    code, out, _ = run(capsys, argv + ["--allow-irregular"])
    assert code == 0
    assert (tmp_path / "x.json").exists()


def test_generate_bad_interval_syntax(tmp_path, capsys):
    code, _, err = run(capsys, [
        "generate", "--kind", "euclidean", "--m", "1", "--d", "2",
        "--window", "1;2", "--region=-5,5",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2


@pytest.mark.parametrize("argv", [
    GEN_1D[:-2] + ["--window=-9/10,1/0", "--region=-60,60"],
    GEN_1D[:-2] + ["--window=-9/10,11/10", "--region=-60,1/0"],
    ["check-window", "--kind", "euclidean", "--m", "1", "--d", "2",
     "--window=1/0,11/10"],
], ids=["generate-window", "generate-region", "check-window-window"])
def test_zero_denominator_in_a_box_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "x.json"
    if argv[0] == "generate":
        argv = argv + ["--out", str(out)]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("error: zero denominator in '1/0'")
    assert not out.exists()


@pytest.mark.parametrize("option", [
    "--K", "--period-bound", "--erosion", "--grid-step"])
def test_zero_denominator_in_an_analyze_option_exits_2(tmp_path, capsys,
                                                     option):
    ms_path = gen_file(tmp_path, capsys)
    rep_path = tmp_path / "report.json"
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(rep_path),
        option, "1/0",
    ])
    assert code == 2
    assert err.startswith("error: zero denominator in '1/0'")
    assert not rep_path.exists()


def test_generate_missing_rank_flag(tmp_path, capsys):
    code, _, err = run(capsys, [
        "generate", "--kind", "euclidean", "--d", "2",
        "--window=-1/2,1/2", "--region=-5,5",
        "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "--m" in err


def test_generate_rerun_byte_identical(tmp_path, capsys):
    p1 = gen_file(tmp_path, capsys, "a.json")
    p2 = gen_file(tmp_path, capsys, "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_pipeline(tmp_path, capsys):
    ms_path = gen_file(tmp_path, capsys)
    rep_path = tmp_path / "report.json"
    csv_path = tmp_path / "complexity.csv"
    code, out, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--K", "1,2",
        "--period-bound", "4", "--grid-step", "1/10",
        "--out", str(rep_path), "--csv", str(csv_path),
    ])
    assert code == 0, err
    assert "separation: " in out
    assert "covering radius" in out
    assert "nontrivial periods found: 0" in out
    report = read_json(rep_path, expect_type="analysis-report")
    assert len(report["complexity"]) == 2
    assert report["input_hash"] == read_json(ms_path)["content_hash"]
    assert csv_path.read_text().startswith("# input_hash: sha256:")


def test_analyze_never_builds_point_views(tmp_path, capsys, monkeypatch):
    # every analysis of a product sample reads its axes through ms.grid
    read = cli.read_model_set
    samples = []

    def keep(path):
        ms, payload = read(path)
        samples.append(ms)
        return ms, payload
    monkeypatch.setattr(cli, "read_model_set", keep)
    ms_path = gen_file(tmp_path, capsys)
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--K", "1,2", "--period-bound", "2",
        "--grid-step", "1/2", "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0, err
    built = vars(samples[0])
    assert built["grid"] is not None
    assert "lattice" not in built
    assert "points" not in built and "internal_points" not in built


def test_analyze_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, [
        "analyze", "--in", str(tmp_path / "nope.json"),
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_analyze_corrupted_hash_exits_5(tmp_path, capsys):
    ms_path = gen_file(tmp_path, capsys)
    raw = ms_path.read_bytes()
    old = f'"format":{FORMAT_VERSION}'.encode()
    new = f'"format":{FORMAT_VERSION + 1}'.encode()
    assert old in raw
    ms_path.write_bytes(raw.replace(old, new, 1))
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 5
    assert "hash" in err


def _drop_region(payload):
    del payload["region"]


def _int_point(payload):
    payload["points"][0] = 5


def _zero_denominator(payload):
    payload["points"][0][0][1] = "0"


@pytest.mark.parametrize("spoil", [_drop_region, _int_point,
                                   _zero_denominator],
                         ids=["no-region", "int-point", "zero-denominator"])
def test_analyze_malformed_sample_exits_2(spoil, tmp_path, capsys):
    # a correctly hashed file whose fields are wrong is malformed input
    ms_path = gen_file(tmp_path, capsys)
    payload = read_json(ms_path)
    del payload["content_hash"]
    spoil(payload)
    write_json(ms_path, payload)
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "r.json").exists()


def test_analyze_reads_reindented_sample(tmp_path, capsys):
    ms_path = gen_file(tmp_path, capsys)
    code, out, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(tmp_path / "r.json"),
    ])
    assert code == 0, err
    # same payload, not canonical: the hash is checked on a re-encoding
    ms_path.write_text(json.dumps(json.loads(ms_path.read_bytes()), indent=2))
    code, again, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(tmp_path / "r2.json"),
    ])
    assert code == 0, err
    assert again.replace("r2.json", "r.json") == out
    assert (tmp_path / "r2.json").read_bytes() == (
        tmp_path / "r.json").read_bytes()
    # one byte of the body changed
    raw = ms_path.read_bytes()
    assert b'"generate"' in raw
    ms_path.write_bytes(raw.replace(b'"generate"', b'"generatf"', 1))
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--out", str(tmp_path / "r3.json"),
    ])
    assert code == 5
    assert "hash" in err
    assert not (tmp_path / "r3.json").exists()


def test_analyze_erosion_error_exits_4(tmp_path, capsys):
    ms_path = gen_file(tmp_path, capsys)
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--period-bound", "100",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 4


def test_analyze_rerun_byte_identical_any_threads(tmp_path, capsys):
    ms_path = gen_file(tmp_path, capsys)
    outs = []
    for threads, name in (("1", "r1.json"), ("8", "r8.json")):
        rep = tmp_path / name
        code, _, err = run(capsys, [
            "analyze", "--threads", threads, "--in", str(ms_path),
            "--K", "1,2", "--period-bound", "3", "--out", str(rep),
        ])
        assert code == 0, err
        outs.append(rep.read_bytes())
    assert outs[0] == outs[1]


def test_analyze_builds_each_catalog_once(tmp_path, capsys, monkeypatch):
    # repetitivity reuses the catalog at the largest K
    radii = []
    patches = analysis._AxisPatches

    def counted(grid, radius):
        radii.append(radius)
        return patches(grid, radius)
    monkeypatch.setattr(analysis, "_AxisPatches", counted)
    ms_path = gen_file(tmp_path, capsys)
    code, _, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--K", "2,1", "--period-bound", "1",
        "--out", str(tmp_path / "report.json"),
    ])
    assert code == 0, err
    assert radii == [2, 1]


def test_growth_kmax_zero(capsys):
    code, out, _ = run(capsys, ["growth", "--group", "h1z", "--kmax", "0"])
    assert code == 0
    assert "k,count" in out
    assert "0,1" in out
    assert "fit skipped" in out


@pytest.mark.parametrize("kmax,kmin,need", [
    ("2", "0", 3), ("2", "1", 3), ("4", "3", 5), ("9", "8", 10),
])
def test_growth_skips_a_fit_short_of_rows(tmp_path, capsys, kmax, kmin,
                                          need):
    # the fit starts at radius 1 at least, so --kmin 0 needs kmax >= 3
    out_path = tmp_path / "balls.csv"
    code, out, err = run(capsys, [
        "growth", "--group", "h1z", "--kmax", kmax, "--kmin", kmin,
        "--out", str(out_path),
    ])
    assert (code, err) == (0, "")
    assert out == f"written: {out_path}\nfit skipped: need kmax >= {need}\n"
    assert out_path.read_text().splitlines()[-1].startswith(f"{kmax},")


@pytest.mark.parametrize("kmax,kmin,need", [("3", "0", 3), ("10", "8", 10)])
def test_growth_fits_at_the_least_kmax(capsys, kmax, kmin, need):
    code, out, _ = run(capsys, ["growth", "--group", "z1", "--kmax", kmax,
                                "--kmin", kmin])
    assert code == 0
    assert "fitted exponent: " in out
    assert fit_kmax(int(kmin)) == need


@pytest.mark.parametrize("kmax", ["1", "10"])
def test_growth_negative_kmin_exits_2_unwritten(tmp_path, capsys, kmax):
    out_path = tmp_path / "balls.csv"
    code, out, err = run(capsys, [
        "growth", "--group", "h1z", "--kmax", kmax, "--kmin", "-1",
        "--out", str(out_path),
    ])
    assert (code, out) == (2, "")
    assert err == "error: kmin must be non-negative, got -1\n"
    assert not out_path.exists()


def test_growth_z1_fit(tmp_path, capsys):
    out_path = tmp_path / "balls.csv"
    code, out, _ = run(capsys, [
        "growth", "--group", "z1", "--kmax", "12", "--kmin", "8",
        "--out", str(out_path),
    ])
    assert code == 0
    assert "fitted exponent: " in out
    assert "--dg 1" in out
    lines = out_path.read_text().splitlines()
    assert "# group: e1" in lines
    assert lines[-1] == "12,25"


def test_growth_budget_exceeded_exits_6(capsys):
    code, _, err = run(capsys, [
        "growth", "--group", "z2", "--kmax", "50", "--budget", "100",
    ])
    assert code == 6


def test_negative_budget_option_exits_2(capsys):
    code, _, err = run(capsys, [
        "growth", "--group", "z2", "--kmax", "5", "--budget", "-5",
    ])
    assert code == 2
    assert err == "error: --budget must be a non-negative integer, got -5\n"


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_bad_budget_variable_exits_2(capsys, monkeypatch, raw):
    monkeypatch.setenv("APERCUT_BUDGET", raw)
    code, _, err = run(capsys, ["cover", "--group", "z2", "--a", "1",
                                "--n", "1"])
    assert code == 2
    assert err.startswith("error: APERCUT_BUDGET must be a non-negative "
                          "integer, got ")


def test_zero_budget_admits_no_element(capsys):
    code, _, err = run(capsys, [
        "growth", "--group", "z2", "--kmax", "1", "--budget", "0",
    ])
    assert code == 6
    assert "element budget 0" in err


@pytest.mark.parametrize("argv,kind,k", [
    (["growth", "--group", "h1z", "--kmax", "6"], GroupKind.heisenberg(1), 6),
    (["cover", "--group", "h1z", "--a", "2", "--n", "2"],
     GroupKind.heisenberg(1), 6),
    (["cover", "--group", "z2", "--a", "3", "--n", "2"],
     GroupKind.euclidean(2), 8),
], ids=["growth-h1", "cover-h1", "cover-z2"])
def test_budget_boundary_is_the_largest_ball(capsys, argv, kind, k):
    # growth needs B_kmax and cover B_((a+1)n), and nothing larger
    size = bfs_balls(GenSet.standard(kind), k).counts[-1]
    code, _, err = run(capsys, argv + ["--budget", str(size)])
    assert code == 0, err
    code, _, err = run(capsys, argv + ["--budget", str(size - 1)])
    assert code == 6
    assert f"ball would exceed element budget {size - 1}" in err


def test_analyze_covering_grid_over_budget_exits_6(tmp_path, capsys,
                                                  monkeypatch):
    ms_path = gen_file(tmp_path, capsys)
    rep_path = tmp_path / "report.json"
    monkeypatch.setenv("APERCUT_BUDGET", "100")
    code, out, err = run(capsys, [
        "analyze", "--in", str(ms_path), "--K", "1",
        "--grid-step", "1/2", "--out", str(rep_path),
    ])
    assert code == 6
    assert "covering grid of 233 points" in err
    assert not rep_path.exists()


GEN_H1 = [
    "generate", "--kind", "heisenberg", "--n", "1", "--d", "2",
    "--window=-9/10,9/10;-9/10,9/10;-9/10,9/10",
    "--region=-4,4;-4,4;-16,16",
]


@pytest.mark.parametrize("argv", [GEN_1D, GEN_H1], ids=["1d", "h1"])
def test_generate_budget_boundary_is_the_sample(tmp_path, capsys,
                                                monkeypatch, argv):
    # generate counts the points of the sample, the product of its axes
    out = tmp_path / "budget.json"
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 0, err
    size = len(read_model_set(out)[0])
    monkeypatch.setenv("APERCUT_BUDGET", str(size))
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 0, err
    assert f"points: {size}" in stdout
    out.unlink()
    monkeypatch.setenv("APERCUT_BUDGET", str(size - 1))
    code, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert code == 6
    assert (f"model set of {size} points would exceed element budget "
            f"{size - 1}") in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("hi,size,traced", [
    # 707,108 points: no axis is built
    (1000000, 707108, False),
    # 70,712 points, under tracemalloc (which slows the count some 20x):
    # building them would take about 13 MB
    (100000, 70712, True),
], ids=["untraced", "traced"])
def test_generate_counts_the_sample_before_building_it(
        tmp_path, capsys, monkeypatch, hi, size, traced):
    def ring_axis(*args):
        raise AssertionError("an axis was built")
    monkeypatch.setattr(cutproject, "ring_axis", ring_axis)
    monkeypatch.setenv("APERCUT_BUDGET", "1000")
    out = tmp_path / "over.json"
    if traced:
        tracemalloc.start()
    try:
        code, stdout, err = run(capsys, [
            "generate", "--kind", "euclidean", "--m", "1", "--d", "2",
            "--window=-9/10,11/10", f"--region=0,{hi}", "--out", str(out),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 6
    assert err == (f"error: model set of {size} points would exceed element "
                   "budget 1000\n")
    assert stdout == ""
    assert not out.exists()
    assert peak < 5 * 2 ** 20


def test_generate_empty_sample_builds_no_axis(tmp_path, capsys,
                                              monkeypatch):
    # the second axis holds no point, so the sample is empty however many
    # the first holds; neither generate nor the reader builds an axis
    def ring_axis(*args):
        raise AssertionError("an axis was built")
    monkeypatch.setattr(cutproject, "ring_axis", ring_axis)
    monkeypatch.setenv("APERCUT_BUDGET", "10")
    out = tmp_path / "empty.json"
    code, stdout, err = run(capsys, [
        "generate", "--kind", "euclidean", "--m", "2", "--d", "2",
        "--window=-9/10,11/10;1/10,2/10", "--region=0,4000;0,0",
        "--out", str(out),
    ])
    assert code == 0, err
    assert "points: 0" in stdout
    assert len(read_model_set(out)[0]) == 0


def _last_coordinate(value: int):
    """Set the last coordinate of the last point to the integer value."""
    def edit(points):
        points[-1][-1] = [str(value), "1", "0", "1"]
    return edit


def _swap(points):
    points[3], points[4] = points[4], points[3]


def _duplicate(points):
    points.insert(4, points[4])


def _drop(points):
    del points[len(points) // 2]


def _unreduced(points):
    """The first coordinate of point 3, its value kept, not in lowest
    terms."""
    a_num, a_den, b_num, b_den = points[3][0]
    points[3][0] = [str(2 * int(a_num)), str(2 * int(a_den)), b_num, b_den]


# (argv, upper end of the region on the last coordinate)
SAMPLES = [(GEN_1D, 60), (GEN_H1, 16)]

MISMATCH = ("model set mismatch at point {i}: the file has {theirs}, "
            "the model set has {ours}")


def _reseal(path, edit):
    """Apply the edit to the sample's payload and seal it anew."""
    payload = read_json(path)
    del payload["content_hash"]
    edit(payload)
    write_json(path, payload)  # a valid hash over the corrupt payload


@pytest.mark.parametrize("argv,hi", SAMPLES, ids=["1d", "h1"])
@pytest.mark.parametrize("edit,index,message", [
    # the first point that differs, as the file has it and as the model set
    (_swap, 3, MISMATCH),
    (_duplicate, None,
     "model set mismatch: {n_plus_1} points, but its window and region "
     "hold {n}"),
    # one past the region; the last point is below its end
    ("region", -1, MISMATCH),
    # the region's end: an integer, its own conjugate, outside the window
    ("window", -1, MISMATCH),
    # sorted members of the model set, but not all of them
    (_drop, None, "model set incomplete: {n_minus_1} points"),
    # the same value, but not the string the model set formats
    (_unreduced, 3, MISMATCH),
], ids=["swap", "duplicate", "region", "window", "drop", "unreduced"])
def test_analyze_rejects_corrupt_sample(tmp_path, capsys, argv, hi, edit,
                                        index, message):
    path = tmp_path / "ms.json"
    code, _, err = run(capsys, argv + ["--out", str(path)])
    assert code == 0, err
    if edit == "region":
        edit = _last_coordinate(hi + 1)
    elif edit == "window":
        edit = _last_coordinate(hi)
    before = read_json(path)["points"]
    _reseal(path, lambda payload: edit(payload["points"]))
    n = len(before)
    fields = {"n": n, "n_plus_1": n + 1, "n_minus_1": n - 1}
    if index is not None:
        i = index % n
        after = read_json(path)["points"]
        fields.update(i=i, theirs=json.dumps(after[i], separators=(",", ":")),
                      ours=json.dumps(before[i], separators=(",", ":")))
    report = tmp_path / "report.json"
    code, out, err = run(capsys, [
        "analyze", "--in", str(path), "--K", "1", "--period-bound", "1",
        "--out", str(report),
    ])
    assert code == 2
    assert f"error: {message.format(**fields)}" in err
    assert out == ""
    assert not report.exists()


@pytest.mark.parametrize("field", ["window", "region"])
@pytest.mark.parametrize("intervals", [2, 4], ids=["short", "long"])
def test_analyze_rejects_wrong_interval_count(tmp_path, capsys, field,
                                              intervals):
    path = tmp_path / "ms.json"
    code, _, err = run(capsys, GEN_H1 + ["--out", str(path)])
    assert code == 0, err

    def edit(payload):
        box = payload[field]
        payload[field] = (box + [["0", "1"]])[:intervals]
    _reseal(path, edit)
    report = tmp_path / "report.json"
    assert run(capsys, [
        "analyze", "--in", str(path), "--K", "1", "--period-bound", "1",
        "--out", str(report),
    ]) == (2, "", f"error: {field} has {intervals} intervals, h1 needs 3\n")
    assert not report.exists()


@pytest.mark.parametrize("error,code", [
    (BudgetExceededError("over"), 6),
    (ProvenanceError("hash"), 5),
    (ErosionError("core"), 4),
    (WindowError("window"), 2),
    (EmptyIntervalError("interval"), 2),
    (FieldMismatchError("field"), 2),
    (KindMismatchError("kind"), 2),
    (ApercutError("other"), 2),
    (ValueError("value"), 2),
    (FileNotFoundError("file"), 2),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_exit_code_of_each_error(capsys, monkeypatch, error, code):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "cmd_bounds", fail)
    assert run(capsys, ["bounds", "--dg", "1", "--dimx", "1"]) == (
        code, "", f"error: {error}\n")


def test_other_exceptions_propagate(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug")
    monkeypatch.setattr(cli, "cmd_bounds", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["bounds", "--dg", "1", "--dimx", "1"])


def test_growth_unknown_group(capsys):
    code, _, err = run(capsys, ["growth", "--group", "q3", "--kmax", "2"])
    assert code == 2
    assert "q3" in err


def test_cover_z1(tmp_path, capsys):
    out_path = tmp_path / "cover.json"
    code, out, _ = run(capsys, [
        "cover", "--group", "z1", "--a", "10", "--n", "3",
        "--out", str(out_path),
    ])
    assert code == 0
    assert "covered: true" in out
    size = int(out.split("packing size |S|: ")[1].split("\n")[0])
    assert size <= 11
    report = read_json(out_path, expect_type="cover-report")
    assert report["covered"] is True
    assert report["group"] == "e1"


def test_bounds_prints_instances(capsys):
    code, out, _ = run(capsys, ["bounds", "--dg", "1", "--dimx", "1"])
    assert code == 0
    assert "= 21" in out
    assert "= 43" in out


def test_bounds_json(tmp_path, capsys):
    out_path = tmp_path / "bounds.json"
    code, out, _ = run(capsys, [
        "bounds", "--dg", "4", "--dimx", "3", "--out", str(out_path),
    ])
    assert code == 0
    assert "= 234255" in out
    report = read_json(out_path, expect_type="bounds-report")
    assert report["nuclear_dim_bound"] == 234255


def test_bounds_negative_exits_2(capsys):
    code, _, err = run(capsys, ["bounds", "--dg", "-1", "--dimx", "0"])
    assert code == 2


def test_check_window(capsys):
    base = ["check-window", "--kind", "euclidean", "--m", "1", "--d", "2"]
    code, out, _ = run(capsys, base + ["--window=-9/10,11/10"])
    assert code == 0
    assert out == "window boundary clear: true\nwindow regular: true\n"
    code, out, _ = run(capsys, base + ["--window=-1,1"])
    assert code == 3
    assert "boundary witness" in out


def test_check_window_witnesses_listed_once(capsys):
    # the y endpoint 0 and the t endpoint -30 both give (-5 - 2*sqrt(3), 0,
    # -30); it is printed once, in the order of first occurrence
    code, out, _ = run(capsys, [
        "check-window", "--kind", "heisenberg", "--n", "1", "--d", "3",
        "--window=-2,1/2;0,0;-30,13",
    ])
    assert code == 3
    assert out == (
        "window boundary clear: false\n"
        "  boundary witness: (-2, 0, -30)\n"
        "  boundary witness: (-5 - 2*sqrt(3), 0, -30)\n"
        "  boundary witness: (-5 - 2*sqrt(3), 0, 13)\n"
        "window regular: false\n"
    )


def test_check_window_witness_without_small_fill(capsys):
    # no element below the fill bound has its conjugate in [1/1000, 2/1000];
    # the continued fraction of sqrt(2) gives 2 * (577 + 408*sqrt(2))
    code, out, _ = run(capsys, [
        "check-window", "--kind", "euclidean", "--m", "2", "--d", "2",
        "--window=1,3/2;1/1000,2/1000",
    ])
    assert code == 3
    assert out == (
        "window boundary clear: false\n"
        "  boundary witness: (1, 1154 + 816*sqrt(2))\n"
        "window regular: false\n"
    )
    conj = QuadNum(1154, 816, 2).conjugate()
    assert Fraction(1, 1000) <= conj <= Fraction(2, 1000)


WIDE_WINDOWS = [
    (["--m", "1", "--d", "2", "--window=-100000,100000"],
     ["(-100000)", "(100000)"]),
    (["--m", "2", "--d", "2", "--window=-100000,100000;0,1/2"],
     ["(-100000, -4 - 3*sqrt(2))", "(100000, -4 - 3*sqrt(2))",
      "(-100000, 0)"]),
    (["--m", "2", "--d", "5", "--ring", "full",
      "--window=-1000,1000;1/3,1/2"],
     ["(-1000, -4 - 2*sqrt(5))", "(1000, -4 - 2*sqrt(5))"]),
]


@pytest.mark.parametrize("args,witnesses", WIDE_WINDOWS,
                         ids=["m1", "m2", "m2-full"])
def test_check_window_wide_windows(capsys, args, witnesses):
    # each fill is the least in-window value of its axis walk
    code, out, _ = run(capsys, ["check-window", "--kind", "euclidean", *args])
    assert code == 3
    assert out == "".join(
        ["window boundary clear: false\n"]
        + [f"  boundary witness: {w}\n" for w in witnesses]
        + ["window regular: false\n"])


def test_check_window_refuses_d_above_the_bound(capsys):
    code, out, err = run(capsys, [
        "check-window", "--kind", "euclidean", "--m", "1",
        "--d", "10000000000000061", "--window=-9/10,11/10",
    ])
    assert (code, out) == (2, "")
    assert err == ("error: d must be at most 2^40 = 1099511627776, "
                   "got 10000000000000061\n")


def mostly(common, rare, one_in=10):
    """common, and rare one time in one_in (many parts of one argument
    vector can each be wrong, and most draws should still run)."""
    return st.integers(1, one_in).flatmap(
        lambda k: rare if k == 1 else common)


def cli_rationals():
    """Rational arguments as typed: zero, negative and fractional values;
    numerators and denominators of 20 and 40 digits; and rarely a zero
    denominator or text that is no number. Values stay within a few units,
    so no run walks a wide axis."""
    small = st.fractions(-4, 4, max_denominator=12).map(str)
    huge = st.builds(lambda k, j, big: f"{k * big + j}/{big}",
                     st.integers(-3, 3), st.integers(-5, 5),
                     st.sampled_from([10 ** 20, 10 ** 40]))
    odd = st.sampled_from(["-0", "1/0", "abc", "", " 2 ", "1/1" + "0" * 40])
    return mostly(small | huge, odd, 40)


def _value(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@st.composite
def cli_boxes(draw, coords):
    """A box option of mostly ordered intervals, with empty (reversed) and
    degenerate ones, and rarely one interval too few or too many or an
    option that does not parse."""
    count = draw(mostly(st.just(coords),
                        st.sampled_from([coords - 1, coords + 1, 0])))
    parts = []
    for _ in range(count):
        lo, hi = draw(cli_rationals()), draw(cli_rationals())
        how = draw(mostly(st.just("ordered"),
                          st.sampled_from(["degenerate", "drawn"]), 5))
        if how == "degenerate":
            hi = lo
        elif how == "ordered" and None not in (_value(lo), _value(hi)) \
                and _value(lo) > _value(hi):
            lo, hi = hi, lo
        parts.append(f"{lo},{hi}")
    return ";".join(parts) if parts else draw(
        st.sampled_from(["", "1,2,3", ";"]))


@st.composite
def cli_argv(draw):
    """generate or check-window with drawn d, rank, ring, window and
    region; the output goes to the file name "out.json"."""
    command = draw(st.sampled_from(["generate", "check-window"]))
    kind = draw(st.sampled_from(["euclidean", "heisenberg"]))
    rank = draw(mostly(st.sampled_from([1, 2]), st.sampled_from(
        [0, 3 if kind == "euclidean" else 2])))
    coords = max(rank, 1) if kind == "euclidean" else 2 * rank + 1
    d = draw(mostly(st.sampled_from([2, 3, 5, 10 ** 6 + 3]), st.sampled_from(
        [0, 1, 4, 2 ** 40 + 1, 10 ** 16 + 61])))
    argv = [command, "--kind", kind, "--m" if kind == "euclidean" else "--n",
            str(rank), "--d", str(d),
            "--ring", draw(mostly(st.just("zsqrt"), st.just("full"), 4)),
            "--window=" + draw(cli_boxes(coords))]
    if command == "generate":
        argv += ["--region=" + draw(cli_boxes(coords)), "--out", "out.json"]
        if draw(st.booleans()):
            argv.append("--allow-irregular")
    return argv


def run_in(directory, argv):
    """(exit code, stdout, files written) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return code, out.getvalue(), files


@settings(max_examples=200, deadline=None)
@given(argv=cli_argv())
def test_every_argv_exits_with_a_documented_code(argv):
    with tempfile.TemporaryDirectory() as first, \
            tempfile.TemporaryDirectory() as second, \
            mock.patch.dict(os.environ, {"APERCUT_BUDGET": "2000"}):
        code, out, files = run_in(Path(first), argv)
        assert code in (0, 2, 3, 4, 5, 6)
        if code:
            assert files == {}
        else:
            assert run_in(Path(second), argv) == (code, out, files)


def test_cli_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.fixture(scope="module")
def analyze_samples(tmp_path_factory):
    """Two small product samples, E1 and H1, outside every run's directory."""
    where = tmp_path_factory.mktemp("argv-samples")
    for name, scheme, window, region in [
            ("e1.json", ["--kind", "euclidean", "--m", "1"],
             "-9/10,11/10", "-6,6"),
            ("h1.json", ["--kind", "heisenberg", "--n", "1"],
             "-9/10,9/10;-9/10,9/10;-9/10,9/10", "-3,3;-3,3;-8,8")]:
        code, _, _ = run_in(where, ["generate", *scheme, "--d", "2",
                                    f"--window={window}",
                                    f"--region={region}", "--out", name])
        assert code == 0
    return [str(where / "e1.json"), str(where / "h1.json")]


@st.composite
def analyze_argv(draw, samples):
    """analyze on one of samples with drawn --K, --period-bound and, now
    and then, --erosion and --grid-step."""
    radii = draw(st.lists(cli_rationals(), min_size=1, max_size=3))
    argv = ["analyze", "--in", draw(st.sampled_from(samples)),
            "--K=" + ",".join(radii),
            "--period-bound=" + draw(cli_rationals()), "--out", "out.json"]
    for option in ("--erosion", "--grid-step"):
        if draw(st.booleans()):
            argv.append(f"{option}={draw(cli_rationals())}")
    return argv


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_analyze_argv_exits_with_a_documented_code(data,
                                                         analyze_samples):
    argv = data.draw(analyze_argv(analyze_samples), label="argv")
    with tempfile.TemporaryDirectory() as first, \
            tempfile.TemporaryDirectory() as second, \
            mock.patch.dict(os.environ, {"APERCUT_BUDGET": "2000"}):
        code, out, files = run_in(Path(first), argv)
        assert code in (0, 2, 3, 4, 5, 6)
        if code:
            assert files == {}
        else:
            assert run_in(Path(second), argv) == (code, out, files)
