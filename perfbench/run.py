"""apercut benchmark: CLI time-to-report on two workloads, traced per module.

    python3 perfbench/run.py --workload h1-analyze --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload h1-analyze --seed 0 --trace 1

Closed loop, one client: the driver runs one `apercut` CLI subprocess at a
time, with `--threads min(2, nproc)`, and starts the workload's next command
only when the previous one has exited. Run from the root of a checkout; the
program is imported from `src/` there.

--trace 0 runs the workload's command sequence repeatedly for about
--seconds seconds and reports the end-to-end metrics, each the median over
the run's samples. --trace 1 runs the sequence untraced, the micro-kernel
suite, the sequence traced in-process through `apercut.cli.main`, the
sequence untraced again, and the sequence once more with a counter on every
QuadNum method, and reports the per-layer metrics. Every run is checked for
correctness; the last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_outputs, make_workload, read_outputs

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_REPEATS = 3
MIN_PASSES = 3
MB = 1024.0  # ru_maxrss is in KiB on Linux


class Runner:
    """Runs CLI commands as child processes inside one work directory."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list) -> dict:
        """Run one child to completion; wall time from spawn to reap, and the
        child's own peak RSS from the rusage wait4 returns."""
        out_path = self.workdir / ".stdout"
        with open(out_path, "wb") as out, \
                open(self.workdir / ".stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / MB,
                "stdout": out_path.read_bytes(),
                "stderr": (self.workdir / ".stderr").read_bytes()}

    def clear(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()


def cli_argv(argv) -> list:
    return [sys.executable, "-m", "apercut.cli", *argv]


def run_command(runner: Runner, cmd, argv: list) -> dict:
    """Run one command; its digest covers its stdout and the files it wrote."""
    res = runner.run(argv)
    digest = hashlib.sha256(res["stdout"])
    for rel in cmd.outputs:
        path = runner.workdir / rel
        digest.update(rel.encode() + b"\0"
                      + (path.read_bytes() if path.exists() else b"missing"))
    res["digest"] = digest.hexdigest()
    return res


def exit_error(cmd, res: dict) -> str:
    return (f"{cmd.name} exited {res['code']}: "
            f"{res['stderr'].decode(errors='replace')[-500:]}")


def run_sequence(runner: Runner, wl, seed: int, prefix) -> dict:
    """One pass over the workload's commands; prefix(i, argv) builds the
    child argv. Returns per-command results, output digest and errors."""
    runner.clear()
    results, errors = [], []
    for i, cmd in enumerate(wl.commands):
        results.append(run_command(runner, cmd, prefix(i, cmd.argv)))
        if results[-1]["code"] != 0:
            errors.append(exit_error(cmd, results[-1]))
            break
    if not errors:
        errors = check_outputs(wl, seed, read_outputs(runner.workdir, wl))
    digest = hashlib.sha256("".join(r["digest"] for r in results).encode())
    return {"results": results, "digest": digest.hexdigest(),
            "errors": errors}


def gate(seq: dict, reference: dict | None) -> bool:
    """A pass fails on a nonzero exit, a failed output check, or output bytes
    that differ from the first pass of the set."""
    if reference is not None and seq["digest"] != reference["digest"]:
        seq["errors"].append("output bytes differ from the first pass")
    for err in seq["errors"]:
        print(f"FAILED: {err}", file=sys.stderr)
    return not seq["errors"]


def tail_text(values: list, unit: str) -> str:
    """Median, and the highest percentile with at least ten samples above."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f} {unit}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.1f} {ordered[n - 11]:.4f} {unit}"
    else:
        text += ", tail n/a (needs >= 11 samples)"
    return text + f", n={n}"


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_sample(runner: Runner) -> float:
    """Fresh interpreter plus `import apercut.cli`, which every CLI call pays."""
    res = runner.run([sys.executable, "-c", "import apercut.cli"])
    if res["code"] != 0:
        raise RuntimeError("cannot import apercut.cli from src/: "
                           + res["stderr"].decode(errors="replace"))
    return res["wall_s"]


def run_end_to_end(runner: Runner, wl, seed: int, seconds: float) -> dict:
    """Timed passes over the whole command sequence until --seconds is used
    up (at least MIN_PASSES); a pass is not started when the median pass
    would overrun. Each pass takes one setup sample first, so setup and
    command timings are spread alike over the run. Every pass is gated, and
    when it fails each command run in it counts as failed."""
    setup_sample(runner)  # untimed: compiles the bytecode cache
    setup = [setup_sample(runner) for _ in range(SETUP_REPEATS)]
    passes, attempted, failed, reference = [], 0, 0, None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + statistics.median(
                sum(r["wall_s"] for r in p["results"]) for p in passes)
            <= seconds):
        setup.append(setup_sample(runner))
        seq = run_sequence(runner, wl, seed, lambda i, argv: cli_argv(argv))
        reference = reference or seq
        attempted += len(seq["results"])
        if not gate(seq, reference):
            failed += len(seq["results"])
        if len(seq["results"]) < len(wl.commands):
            break  # a command exited nonzero; the rest never ran
        passes.append(seq)
    if not passes:
        raise RuntimeError(f"{wl.name}: no pass completed")

    walls = [[p["results"][i]["wall_s"] for p in passes]
             for i in range(len(wl.commands))]
    totals = [sum(r["wall_s"] for r in p["results"]) for p in passes]
    peak = max(statistics.median(p["results"][i]["rss_mb"] for p in passes)
               for i in range(len(wl.commands)))
    names = [cmd.name for cmd in wl.commands]
    print(f"workload {wl.name}, seed {seed}: closed loop, 1 client, "
          f"{len(passes)} timed passes of {' then '.join(names)}")
    print(f"  {'total_s':26s} {tail_text(totals, 's')}")
    for i, name in enumerate(names):
        print(f"  {f'cmd{i + 1}_s ({name}_s)':26s} {tail_text(walls[i], 's')}")
    for other in ("generate_s", "analyze_s", "growth_s", "cover_s"):
        if other[:-2] not in names:
            print(f"  {other:26s} n/a (not a command of this workload)")
    print(f"  {'setup_s':26s} {tail_text(setup, 's')}")
    print(f"  {'peak_rss_mb':26s} {peak:.1f} MB (largest per-command median)")
    print(f"  {'failed_frac':26s} {failed}/{attempted} = "
          f"{failed / attempted:.4f}")
    metrics = {
        "total_s": (statistics.median(totals), "s"),
        "cmd1_s": (statistics.median(walls[0]), "s"),
        "cmd2_s": (statistics.median(walls[1]), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def span_seconds(spans: list, name: str) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["name"] == name) / 1e9


def self_times(spans: list) -> dict:
    """Per span name: (total s, self s), self = duration minus the time its
    direct children cover (children of one call run one after another)."""
    child_ns: dict = {}
    for s in spans:
        child_ns[s["parent"]] = (child_ns.get(s["parent"], 0)
                                 + s["end_ns"] - s["start_ns"])
    out: dict = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        total, own = out.get(s["name"], (0.0, 0.0))
        out[s["name"]] = (total + dur / 1e9,
                          own + (dur - child_ns.get(s["id"], 0)) / 1e9)
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, values, quadnum_calls, micro,
                  overhead) -> dict:
    def sec(name):
        return (span_seconds(spans, name), "s")

    def cnt(name):
        return (counts.get(name, 0), "count")

    bfs_s = span_seconds(spans, "growth.bfs")
    m = {
        "cutproject.generate_s": sec("cutproject.generate"),
        "cutproject.window_check_s": sec("cutproject.window_check"),
        "cutproject.points": cnt("cutproject.points"),
        "quadratic.enum_s": sec("quadratic.enum"),
        "quadratic.enum_calls": cnt("quadratic.enum_calls"),
        "quadratic.enum_elements": cnt("quadratic.enum_elements"),
        "quadratic.enum_candidates": cnt("quadratic.enum_candidates"),
        "quadratic.enum_yield": (ratio(counts.get("quadratic.enum_elements", 0),
                                       counts.get("quadratic.enum_candidates",
                                                  0)), "ratio"),
        "quadratic.quadnum_calls": (quadnum_calls, "count"),
        "heisenberg.mul_coords_calls": cnt("heisenberg.mul_coords_calls"),
        "heisenberg.qnorm_leq_calls": cnt("heisenberg.qnorm_leq_calls"),
        "heisenberg.sym_dist_leq_calls": cnt("heisenberg.sym_dist_leq_calls"),
        "heisenberg.sym_dist_sq_calls": cnt("heisenberg.sym_dist_sq_calls"),
        "analysis.separation_s": sec("analysis.separation"),
        "analysis.patch_catalog_s": sec("analysis.patch_catalog"),
        "analysis.repetitivity_s": sec("analysis.repetitivity"),
        "analysis.period_search_s": sec("analysis.period_search"),
        "analysis.covering_s": sec("analysis.covering"),
        "analysis.index_build_s": sec("analysis.index_build"),
        "analysis.index_candidates": cnt("analysis.index_candidates"),
        "analysis.patch_yield": (ratio(counts.get("patch_points", 0),
                                       counts.get("catalog_candidates", 0)),
                                 "ratio"),
        "analysis.period_candidates": cnt("analysis.period_candidates"),
        "analysis.period_core": cnt("analysis.period_core"),
        "analysis.period_pairs": cnt("analysis.period_pairs"),
        "analysis.prescreen_exact": cnt("analysis.prescreen_exact"),
        "analysis.prescreen_exact_frac": (
            ratio(counts.get("analysis.prescreen_exact", 0),
                  counts.get("patch_candidates", 0)), "ratio"),
        "analysis.covering_rss_mb":
            (values.get("analysis.covering_rss_mb", 0.0), "MB"),
        "serialize.write_s": sec("serialize.write"),
        "serialize.read_s": sec("serialize.read"),
        "serialize.bytes": (counts.get("serialize.bytes", 0), "B"),
        "growth.bfs_s": (bfs_s, "s"),
        "growth.bfs_elements": cnt("growth.bfs_elements"),
        "growth.elements_per_s":
            (ratio(counts.get("growth.bfs_elements", 0), bfs_s), "1/s"),
        "growth.cover_s": sec("growth.cover"),
        "growth.greedy_s": sec("growth.greedy"),
        "growth.ball_calls": cnt("growth.ball_calls"),
        "growth.ball_s": sec("growth.ball"),
        "trace_overhead_frac": (overhead, "ratio"),
    }
    # micro-kernel names end in their unit
    m.update((name, (value, name.rsplit("_", 1)[1]))
             for name, value in micro.items())
    return m


def run_traced(runner: Runner, wl, seed: int) -> dict:
    python = sys.executable
    trace_id = f"{wl.name}/seed{seed}"
    traces = runner.workdir / "traces"

    plain = run_sequence(runner, wl, seed, lambda i, argv: cli_argv(argv))
    passes = [gate(plain, None)]

    # micro-kernels draw their operands from the sample just generated
    sample = runner.workdir / "sample.json"
    micro_out = runner.workdir / "micro.json"
    res = runner.run([python, str(WORKER), "micro", str(micro_out), str(seed)]
                     + ([str(sample)] if sample.exists() else []))
    if res["code"] != 0:
        raise RuntimeError("micro-kernel suite failed: "
                           + res["stderr"].decode(errors="replace"))
    micro = json.loads(micro_out.read_text())["metrics"]

    seq_start = time.perf_counter_ns()
    traced = run_sequence(runner, wl, seed, lambda i, argv: [
        python, str(WORKER), "trace", str(traces.with_suffix(f".{i}.json")),
        f"cmd{i}", "--", *argv])
    seq_end = time.perf_counter_ns()
    passes.append(gate(traced, plain))
    spans, counts, values = [], {}, {}
    clock = seq_start
    for i, (cmd, res) in enumerate(zip(wl.commands, traced["results"])):
        # the command's process span, rebuilt from its measured wall time
        spans.append({"id": f"cmd{i}", "parent": "sequence",
                      "name": f"process.{cmd.name}", "start_ns": clock,
                      "end_ns": clock + int(res["wall_s"] * 1e9)})
        clock = spans[-1]["end_ns"]
        path = traces.with_suffix(f".{i}.json")
        if path.exists():
            data = json.loads(path.read_text())
            spans += data["spans"]
            values.update(data["values"])
            for key, value in data["counts"].items():
                counts[key] = counts.get(key, 0) + value
    spans.insert(0, {"id": "sequence", "parent": None,
                     "name": f"workload.{wl.name}", "start_ns": seq_start,
                     "end_ns": seq_end})
    for span in spans:
        span["trace"] = trace_id

    # a second untraced pass after the traced one, so a drift in machine
    # speed during the run moves both sides of the overhead alike
    plain_after = run_sequence(runner, wl, seed,
                               lambda i, argv: cli_argv(argv))
    passes.append(gate(plain_after, plain))

    counted = run_sequence(runner, wl, seed, lambda i, argv: [
        python, str(WORKER), "count",
        str(traces.with_suffix(f".p{i}.json")), "--", *argv])
    passes.append(gate(counted, plain))
    quadnum_calls = 0
    for i in range(len(counted["results"])):
        path = traces.with_suffix(f".p{i}.json")
        if path.exists():
            quadnum_calls += json.loads(path.read_text())["quadnum_calls"]

    untraced_s = statistics.median(
        sum(r["wall_s"] for r in seq["results"])
        for seq in (plain, plain_after))
    traced_s = sum(r["wall_s"] for r in traced["results"])
    metrics = layer_metrics(spans, counts, values, quadnum_calls, micro,
                            traced_s / untraced_s - 1.0)

    trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
    trace_path.write_text(json.dumps(
        {"trace_id": trace_id, "clock": "CLOCK_MONOTONIC ns",
         "spans": spans, "counts": counts,
         "metrics": {k: v for k, (v, _) in metrics.items()}},
        indent=1))

    print(f"workload {wl.name}, seed {seed}: traced pass "
          f"{traced_s:.3f} s vs untraced {untraced_s:.3f} s; "
          f"spans in {trace_path.relative_to(ROOT)}")
    print(f"  {'span':28s} {'total_s':>10s} {'self_s':>10s}")
    for name, (total, own) in sorted(self_times(spans).items()):
        print(f"  {name:28s} {total:10.4f} {own:10.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    return {"attempted": len(passes), "failed": passes.count(False),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "apercut" / "cli.py").is_file():
        print(f"error: no apercut sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        threads = len(os.sched_getaffinity(0))
    except AttributeError:
        threads = os.cpu_count() or 1
    wl = make_workload(args.workload, args.seed, min(2, threads))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        runner = Runner(workdir)
        if args.trace:
            result = run_traced(runner, wl, args.seed)
        else:
            result = run_end_to_end(runner, wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
