"""Start-up cost: which commands load numpy, checked in fresh interpreters.

`generate`, `check-window` and `bounds` never call numpy, so neither
`import apercut`, `import apercut.cli` nor those commands may import it;
`analyze`, `growth` and `cover` load it when they start.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCHEME = ["--kind", "euclidean", "--m", "1", "--d", "2"]
WINDOW = "--window=-9/10,11/10"


def run_python(args, cwd):
    env = dict(os.environ)
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
    return cwd


@pytest.mark.parametrize("statement", ["import apercut", "import apercut.cli"])
def test_import_does_not_load_numpy(statement, tmp_path):
    proc = run_python(
        ["-c", f"{statement}; import sys; print('numpy' in sys.modules)"],
        tmp_path)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("argv", [
    ["generate", *SCHEME, WINDOW, "--region=-30,30", "--out", "s.json"],
    ["check-window", *SCHEME, WINDOW],
    ["bounds", "--dg", "4", "--dimx", "2", "--out", "b.json"],
], ids=["generate", "check-window", "bounds"])
def test_command_does_not_load_numpy(argv, tmp_path):
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      tmp_path)
    modules = imported_modules(proc.stderr)
    assert "apercut.cutproject" in modules
    assert not loads_numpy(modules)


@pytest.mark.parametrize("argv,expected", [
    (["analyze", "--in", "sample.json", "--K", "1,2", "--period-bound", "2",
      "--out", "report.json"], "nontrivial periods found: 0"),
    (["growth", "--group", "h1z", "--kmax", "10"], "fitted exponent:"),
    (["cover", "--group", "z2", "--a", "3", "--n", "2"], "covered: true"),
], ids=["analyze", "growth", "cover"])
def test_numpy_commands_run(argv, expected, sample):
    proc = run_python(["-X", "importtime", "-m", "apercut.cli", *argv],
                      sample)
    assert expected in proc.stdout
    assert loads_numpy(imported_modules(proc.stderr))


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


# A wrapper bound to `apercut.cli.period_search` must be what `cmd_analyze`
# calls, whether it is set before the analysis module is loaded or, as a
# tracer does, read and wrapped after the lookup has loaded it.
PATCH_BEFORE_LOAD = """
def wrapper(*args, **kwargs):
    from apercut.analysis import period_search
    calls.append(len(args[0]))
    return period_search(*args, **kwargs)
cli.period_search = wrapper
"""
WRAP_AFTER_LOOKUP = """
inner = cli.period_search
def wrapper(*args, **kwargs):
    calls.append(len(args[0]))
    return inner(*args, **kwargs)
cli.period_search = wrapper
"""


@pytest.mark.parametrize("patch", [PATCH_BEFORE_LOAD, WRAP_AFTER_LOOKUP],
                         ids=["before-load", "after-lookup"])
def test_cmd_analyze_calls_patched_period_search(patch, sample):
    script = ("import sys\n"
              "import apercut.cli as cli\n"
              "assert 'numpy' not in sys.modules\n"
              "calls = []\n"
              + patch +
              "code = cli.main(['analyze', '--in', 'sample.json', '--K', '1',"
              " '--period-bound', '2', '--out', 'patched.json'])\n"
              "assert code == 0 and len(calls) == 1, (code, calls)\n"
              "assert cli.period_search is wrapper\n")
    run_python(["-c", script], sample)
