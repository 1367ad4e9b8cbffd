"""Start-up cost: which modules each command loads and which threads
`growth` starts, checked in fresh interpreters.

Neither `import apercut`, `import apercut.cli` nor any command but
`analyze` imports numpy, and `analyze` runs on the axes of a product
sample, loading neither numpy nor `apercut.lattice` on the samples here.
Only the pair route loads them: the analysis of a set that is no product
of its axes (a `ModelSet.from_points` set), or return radii of large
catalogs. Neither `import
apercut.cli` nor `growth`, `cover` and `bounds` load a model-set module or
`quadratic`. No command loads `dataclasses`, and neither `import
apercut.cli` nor `growth` loads `hashlib`: only a command that writes a
content hash does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCHEME = ["--kind", "euclidean", "--m", "1", "--d", "2"]
WINDOW = "--window=-9/10,11/10"


def run_python(args, cwd, env_extra=None):
    """Run a fresh interpreter; a None value in env_extra unsets that name."""
    env = dict(os.environ)
    for key, value in (env_extra or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def imported_modules(importtime_stderr: str) -> set:
    """Module names listed by `python -X importtime`."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def loads_numpy(modules: set) -> bool:
    return any(m == "numpy" or m.startswith("numpy.") for m in modules)


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("startup")
    run_python(["-m", "apercut.cli", "generate", *SCHEME, WINDOW,
                "--region=-30,30", "--out", "sample.json"], cwd)
    run_python(["-m", "apercut.cli", "generate", "--kind", "heisenberg",
                "--n", "1", "--d", "2", "--window=-9/10,9/10;-9/10,9/10;"
                "-9/10,9/10", "--region=-4,4;-4,4;-12,12", "--out",
                "h1.json"], cwd)
    return cwd


@pytest.mark.parametrize("statement", ["import apercut", "import apercut.cli"])
def test_import_does_not_load_numpy(statement, tmp_path):
    proc = run_python(
        ["-c", f"{statement}; import sys; print('numpy' in sys.modules)"],
        tmp_path)
    assert proc.stdout == "False\n"


# quadratic costs several ms of start-up and only model sets use it
MODEL_SET_MODULES = {"apercut.cutproject", "apercut.bounds",
                     "apercut.quadratic"}


def test_import_cli_loads_no_model_set_module(tmp_path):
    proc = run_python(["-X", "importtime", "-c", "import apercut.cli"],
                      tmp_path)
    modules = imported_modules(proc.stderr)
    assert "apercut.cli" in modules
    assert not modules & MODEL_SET_MODULES


def test_bounds_loads_no_model_set_module(tmp_path):
    # a regularity report is only an annotation in bounds
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", "bounds",
                       "--dg", "4", "--dimx", "2"], tmp_path)
    modules = imported_modules(proc.stderr)
    assert "apercut.bounds" in modules
    assert not modules & {"apercut.cutproject", "apercut.quadratic"}


@pytest.mark.parametrize("argv", [
    ["growth", "--group", "h1z", "--kmax", "10"],
    ["cover", "--group", "h1z", "--a", "2", "--n", "1"],
], ids=["growth", "cover"])
def test_word_commands_load_no_model_set_module(argv, tmp_path):
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      tmp_path)
    modules = imported_modules(proc.stderr)
    assert "apercut.growth" in modules
    assert not modules & (MODEL_SET_MODULES | {"apercut.lattice"})


# The threads before and after an in-process growth command, whether numpy
# is loaded after it, and the setting after `main` returns.
THREADS_AFTER_GROWTH = """
import os, sys
{preload}
import apercut.cli as cli
before = len(os.listdir("/proc/self/task"))
assert cli.main(["growth", "--group", "h1z", "--kmax", "10"]) == 0
print(before, len(os.listdir("/proc/self/task")), "numpy" in sys.modules,
      os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="counts threads through Linux /proc")
@pytest.mark.parametrize("preset,preload", [
    (None, ""),
    ("2", ""),
    (None, "import numpy"),
], ids=["unset", "preset-2", "numpy-loaded"])
def test_growth_starts_no_blas_threads(preset, preload, tmp_path):
    # growth loads no numpy, so it starts no thread and leaves
    # OPENBLAS_NUM_THREADS as it found it
    proc = run_python(
        ["-c", THREADS_AFTER_GROWTH.format(preload=preload)], tmp_path,
        {"OPENBLAS_NUM_THREADS": preset})
    before, after, numpy_loaded, left = proc.stdout.split()[-4:]
    assert after == before
    assert numpy_loaded == str(bool(preload))
    assert left == str(preset)
    if not preload:
        assert after == "1"


@pytest.mark.parametrize("argv,module,expected", [
    (["generate", *SCHEME, WINDOW, "--region=-30,30", "--out", "s.json"],
     "apercut.cutproject", "written: s.json"),
    (["check-window", *SCHEME, WINDOW], "apercut.cutproject",
     "window regular: true"),
    (["bounds", "--dg", "4", "--dimx", "2", "--out", "b.json"],
     "apercut.bounds", "written: b.json"),
    (["growth", "--group", "h1z", "--kmax", "10"], "apercut.growth",
     "fitted exponent:"),
    (["cover", "--group", "z2", "--a", "3", "--n", "2"], "apercut.growth",
     "covered: true"),
], ids=["generate", "check-window", "bounds", "growth", "cover"])
def test_command_does_not_load_numpy(argv, module, expected, tmp_path):
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      tmp_path)
    assert expected in proc.stdout
    modules = imported_modules(proc.stderr)
    assert module in modules
    assert not loads_numpy(modules)


@pytest.mark.parametrize("argv,expected", [
    (["analyze", "--in", "sample.json", "--K", "1,2", "--period-bound", "2",
      "--out", "report.json"], "nontrivial periods found: 0"),
    (["analyze", "--in", "h1.json", "--K", "1,2", "--period-bound", "1",
      "--grid-step", "1/2", "--out", "h1-report.json"],
     "covering radius (grid estimate):"),
], ids=["analyze", "analyze-h1"])
def test_analyze_loads_no_numpy(argv, expected, sample):
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      sample)
    assert expected in proc.stdout
    modules = imported_modules(proc.stderr)
    assert "apercut.analysis" in modules
    assert not loads_numpy(modules)
    assert "apercut.lattice" not in modules


# Every analysis of a set that is no product of its axes runs, on the pair
# route of `lattice`, which loads numpy.
FROM_POINTS = """
import sys
from fractions import Fraction
from apercut import analysis
from apercut.cutproject import Box, ModelSet, Scheme
from apercut.heisenberg import GroupKind, GroupPoint
from apercut.quadratic import QuadNum, RingSpec
kind = GroupKind.euclidean(2)
cells = [(i, j) for i in range(6) for j in range(6) if (i, j) != (5, 5)]
points = [GroupPoint(kind, tuple(QuadNum(v, 0, 2) for v in c))
          for c in cells]
region = Box(((0, 5), (0, 5)))
ms = ModelSet.from_points(Scheme(kind, RingSpec(2)), region, region,
                          points, points)
assert not ms.is_product and ms.grid is None
assert "numpy" not in sys.modules
one = Fraction(1)
catalog = analysis.patch_catalog(ms, one)
print(analysis.separation(ms).separation_sq, catalog.class_count,
      analysis.repetitivity_radii(ms, one, catalog).max_return_radius,
      len(analysis.period_search(ms, one, one).nontrivial_periods),
      analysis.covering_radius_estimate(ms, Fraction(1, 2), Fraction(0)),
      "numpy" in sys.modules)
"""


def test_from_points_set_analyses_on_numpy(tmp_path):
    proc = run_python(["-c", FROM_POINTS], tmp_path)
    # 35 points: the corner (5, 5) is missing, so the centre (4, 4) has a
    # patch of its own and the translates by (1, 1) are no period
    assert proc.stdout.split() == ["1", "2", "3.0", "7", "1.0", "True"]


@pytest.mark.parametrize("argv", [
    ["generate", *SCHEME, WINDOW, "--region=-30,30", "--out", "g.json"],
    ["analyze", "--in", "sample.json", "--K", "1", "--period-bound", "2",
     "--grid-step", "1/2", "--out", "a.json"],
    ["growth", "--group", "h1z", "--kmax", "10", "--out", "g.csv"],
    ["cover", "--group", "h1z", "--a", "2", "--n", "1", "--out", "c.json"],
    ["bounds", "--dg", "4", "--dimx", "2", "--out", "b.json"],
    ["check-window", *SCHEME, WINDOW],
], ids=lambda argv: argv[0])
def test_command_loads_no_dataclasses(argv, sample):
    # the value types are `errors.Record`s, which generate no code
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      sample)
    modules = imported_modules(proc.stderr)
    assert "apercut.errors" in modules
    assert "dataclasses" not in modules


@pytest.mark.parametrize("args,hashes", [
    (["-c", "import apercut.cli"], False),
    (["-m", "apercut.cli", "growth", "--group", "h1z", "--kmax", "10",
      "--out", "g.csv"], False),
    (["-m", "apercut.cli", "bounds", "--dg", "4", "--dimx", "2",
      "--out", "b.json"], True),
], ids=["import-cli", "growth", "bounds-out"])
def test_hashlib_loads_at_the_first_digest(args, hashes, tmp_path):
    proc = run_python(["-X", "importtime", *args], tmp_path)
    modules = imported_modules(proc.stderr)
    assert "apercut.serialize" in modules
    assert ("hashlib" in modules) is hashes


def test_analyze_grid_step_does_not_load_growth(sample):
    # the covering grid's element budget lives in errors, not growth
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", "analyze",
                       "--in", "sample.json", "--K", "1", "--period-bound",
                       "2", "--grid-step", "1/2", "--out", "grid.json"],
                      sample)
    assert "covering radius (grid estimate):" in proc.stdout
    modules = imported_modules(proc.stderr)
    assert "apercut.analysis" in modules
    assert "apercut.growth" not in modules


def test_star_import_binds_all(tmp_path):
    script = ("import apercut\n"
              "names = {}\n"
              "exec('from apercut import *', names)\n"
              "missing = set(apercut.__all__) - set(names)\n"
              "assert not missing, missing\n"
              "assert names['period_search'] is apercut.period_search\n"
              "assert set(apercut.__all__) <= set(dir(apercut))\n"
              "from apercut import separation, GenSet\n"
              "print(separation.__module__, GenSet.__module__)\n")
    proc = run_python(["-c", script], tmp_path)
    assert proc.stdout == "apercut.analysis apercut.growth\n"


# A wrapper bound to a name on `apercut.cli` must be what the command calls,
# whether it is set before the module defining the name is loaded or, as a
# tracer does, read and wrapped after the lookup has loaded it.
PATCH_BEFORE_LOAD = """
def wrapper(*args, **kwargs):
    from apercut.{module} import {name} as real
    calls.append({name!r})
    return real(*args, **kwargs)
cli.{name} = wrapper
"""
WRAP_AFTER_LOOKUP = """
inner = cli.{name}
def wrapper(*args, **kwargs):
    calls.append({name!r})
    return inner(*args, **kwargs)
cli.{name} = wrapper
"""
PATCHES = [PATCH_BEFORE_LOAD, WRAP_AFTER_LOOKUP]
PATCH_IDS = ["before-load", "after-lookup"]


def run_wrapped(name, module, patch, argv, cwd):
    script = ("import sys\n"
              "import apercut.cli as cli\n"
              "assert 'numpy' not in sys.modules\n"
              "calls = []\n"
              + patch.format(name=name, module=module) +
              f"code = cli.main({argv!r})\n"
              f"assert code == 0 and calls == [{name!r}], (code, calls)\n"
              f"assert cli.{name} is wrapper\n")
    run_python(["-c", script], cwd)


@pytest.mark.parametrize("patch", PATCHES, ids=PATCH_IDS)
def test_cmd_analyze_calls_patched_period_search(patch, sample):
    run_wrapped("period_search", "analysis", patch,
                ["analyze", "--in", "sample.json", "--K", "1",
                 "--period-bound", "2", "--out", "patched.json"], sample)


@pytest.mark.parametrize("patch", PATCHES, ids=PATCH_IDS)
@pytest.mark.parametrize("name,module,argv", [
    ("generate_model_set", "cutproject",
     ["generate", *SCHEME, WINDOW, "--region=-30,30", "--out", "w.json"]),
    ("write_json", "serialize",
     ["cover", "--group", "z2", "--a", "2", "--n", "2", "--out", "c.json"]),
    ("ball_table_csv_text", "serialize",
     ["growth", "--group", "h1z", "--kmax", "8"]),
], ids=["generate_model_set", "write_json", "ball_table_csv_text"])
def test_command_calls_wrapper_set_before_main(name, module, argv, patch,
                                               tmp_path):
    run_wrapped(name, module, patch, argv, tmp_path)
