"""The benchmark worker still finds every name it wraps or times.

`perfbench/worker.py trace` installs its wrappers on module attributes of
`apercut` before it runs a command, and `micro` calls kernels by name, so a
renamed or deleted function breaks the benchmark before any figure is
taken. Both modes run here in fresh interpreters on small inputs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.mark.parametrize("args,keys", [
    (["trace", "out.json", "p0", "--", "bounds", "--dg", "4", "--dimx", "2"],
     {"spans", "counts", "values"}),
    # the integer window endpoint -1 is on the boundary, so generate's
    # regularity check looks for witnesses; with one axis it builds no fill,
    # and no command calls the hooked `enumerate_ring_in_rectangle` now,
    # but the worker must still find the name
    (["trace", "out.json", "p0", "--", "generate", "--kind", "euclidean",
      "--m", "1", "--d", "2", "--window=-1,11/10", "--allow-irregular",
      "--region=-30,30", "--out", "sample.json"],
     {"spans", "counts", "values"}),
    (["micro", "out.json", "0"], {"metrics", "operands"}),
], ids=["trace", "trace-generate", "micro"])
def test_worker_runs(args, keys, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    assert set(out) == keys
