"""In-process passes over one `apercut` CLI call, run in a fresh interpreter.

    python3 perfbench/worker.py trace OUT.json PARENT_ID -- <cli argv>
    python3 perfbench/worker.py count OUT.json -- <cli argv>
    python3 perfbench/worker.py micro OUT.json SEED [SAMPLE.json]

`trace` wraps the public functions at the module attributes their callers
look up (for example `apercut.cli.period_search`, `apercut.analysis.mul_coords`,
`apercut.growth.ball_elements`, `NeighborIndex.candidates`) with span and
counter wrappers, runs `apercut.cli.main(argv)` and writes the spans and
counters. The program source is not modified. `count` runs the same call
with a counter on every `QuadNum` method; it exists only for that count and
its time is never reported. `micro` times seeded micro-kernels on operands
drawn from a sample. CLI output goes to this process's stdout, so callers can
compare it with an untraced run byte for byte.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import types
from collections import Counter
from fractions import Fraction

import apercut.analysis as an
import apercut.cli as cli
import apercut.cutproject as cp
import apercut.growth as gr
import apercut.heisenberg as he
import apercut.quadratic as qd
from apercut.serialize import read_model_set

PATCH_SPANS = ("analysis.patch_catalog", "analysis.repetitivity")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def enum_candidates(ring, phys, internal) -> int:
    """Candidates `enumerate_ring_in_rectangle` builds, from the ranges its
    docstring states: integer (or half-integer) a in [a_lo, a_hi] times
    b*sqrt(d) in [c_lo, c_hi]."""
    p1, p2 = Fraction(phys[0]), Fraction(phys[1])
    i1, i2 = Fraction(internal[0]), Fraction(internal[1])
    a_lo, a_hi = (p1 + i1) / 2, (p2 + i2) / 2
    c_lo, c_hi = (p1 - i2) / 2, (p2 - i1) / 2
    bd_sq = max(c_lo * c_lo, c_hi * c_hi)
    if ring.variant is qd.RingVariant.Z_SQRT_D:
        a_count = max(0, math.floor(a_hi) - math.ceil(a_lo) + 1)
        return a_count * (2 * qd.floor_sqrt(bd_sq / ring.d) + 1)
    q_abs = qd.floor_sqrt(4 * bd_sq / ring.d)
    return sum(
        1
        for p in range(math.ceil(2 * a_lo), math.floor(2 * a_hi) + 1)
        for q in range(-q_abs, q_abs + 1)
        if (p - q) % 2 == 0
    )


def _counting(counts: Counter, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


class Tracer:
    """Spans (id, parent, name, start and end in CLOCK_MONOTONIC ns) and
    counters of one CLI call, kept in memory until the call ends."""

    def __init__(self, parent: str) -> None:
        self.spans: list[dict] = []
        self.stack = [parent]
        self.open: Counter = Counter()
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {}
        self._next = 0

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(result, *args) records counters."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next += 1
            sid = f"{os.getpid()}.{self._next}"
            record = {"id": sid, "parent": self.stack[-1], "name": name,
                      "start_ns": time.perf_counter_ns()}
            self.stack.append(sid)
            self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end_ns"] = time.perf_counter_ns()
                self.open[name] -= 1
                self.stack.pop()
                self.spans.append(record)
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def in_patch(self) -> bool:
        return any(self.open[name] for name in PATCH_SPANS)


def install(tr: Tracer) -> None:
    """Put span and counter wrappers on the module attributes the callers
    look up."""
    c = tr.counts

    def file_bytes(_result, path, *_):
        c["serialize.bytes"] += os.path.getsize(path)

    def text_bytes(text, *_):
        c["serialize.bytes"] += len(text.encode("utf-8"))

    # cutproject and quadratic
    cli.check_window_regular = tr.span(
        "cutproject.window_check", cli.check_window_regular)

    def points(ms, *_):
        c["cutproject.points"] += len(ms)
    cli.generate_model_set = tr.span(
        "cutproject.generate", cli.generate_model_set, points)

    def enumerated(out, ring, phys, internal):
        c["quadratic.enum_calls"] += 1
        c["quadratic.enum_elements"] += len(out)
        c["quadratic.enum_candidates"] += enum_candidates(ring, phys, internal)
    cp.enumerate_ring_in_rectangle = tr.span(
        "quadratic.enum", cp.enumerate_ring_in_rectangle, enumerated)

    # serialize
    cli.write_model_set = tr.span(
        "serialize.write", cli.write_model_set, file_bytes)
    cli.write_json = tr.span("serialize.write", cli.write_json, file_bytes)
    cli.ball_table_csv_text = tr.span(
        "serialize.write", cli.ball_table_csv_text, text_bytes)
    cli.read_model_set = tr.span(
        "serialize.read", cli.read_model_set, file_bytes)

    # analysis
    cli.delone_report = tr.span("analysis.delone", cli.delone_report)
    cli.complexity_table = tr.span("analysis.complexity", cli.complexity_table)
    an.separation = tr.span("analysis.separation", an.separation)

    covering = an.covering_radius_estimate

    def covering_with_rss(*args, **kwargs):
        before = _peak_rss_mb()
        try:
            return covering(*args, **kwargs)
        finally:
            tr.values["analysis.covering_rss_mb"] = _peak_rss_mb() - before
    an.covering_radius_estimate = tr.span("analysis.covering",
                                          covering_with_rss)

    def patch_sizes(cat, *_):
        c["patch_points"] += sum(k.size * k.multiplicity for k in cat.classes)
    an.patch_catalog = tr.span("analysis.patch_catalog", an.patch_catalog,
                               patch_sizes)
    cli.repetitivity_radii = tr.span("analysis.repetitivity",
                                     cli.repetitivity_radii)

    period_search = cli.period_search

    def period_with_pairs(ms, *args, **kwargs):
        before = c["period_index_candidates"]
        report = period_search(ms, *args, **kwargs)
        # every point is among its own candidates and is skipped
        c["analysis.period_pairs"] += (
            c["period_index_candidates"] - before - len(ms))
        c["analysis.period_candidates"] += report.candidates_tested
        c["analysis.period_core"] += report.core_size
        return report
    cli.period_search = tr.span("analysis.period_search", period_with_pairs)

    index_cls = an.NeighborIndex
    index_cls.__init__ = tr.span("analysis.index_build", index_cls.__init__)
    candidates = index_cls.candidates

    def counted_candidates(self, coords):
        # every caller consumes the whole generator, so a list is equivalent
        items = list(candidates(self, coords))
        c["analysis.index_candidates"] += len(items)
        if tr.in_patch():
            c["patch_candidates"] += len(items)
        if tr.open["analysis.patch_catalog"]:
            c["catalog_candidates"] += len(items)
        if tr.open["analysis.period_search"]:
            c["period_index_candidates"] += len(items)
        return items
    index_cls.candidates = counted_candidates

    # heisenberg kernels, at every module that calls them
    for mod in (he, an, gr):
        mod.mul_coords = _counting(c, "heisenberg.mul_coords_calls",
                                   mod.mul_coords)
    for mod in (he, an):
        mod.qnorm_leq = _counting(c, "heisenberg.qnorm_leq_calls",
                                  mod.qnorm_leq)
        mod.sym_dist_sq = _counting(c, "heisenberg.sym_dist_sq_calls",
                                    mod.sym_dist_sq)
    he.sym_dist_leq = _counting(c, "heisenberg.sym_dist_leq_calls",
                                he.sym_dist_leq)
    sym_dist_leq = an.sym_dist_leq

    def sym_dist_leq_prescreen(*args, **kwargs):
        c["heisenberg.sym_dist_leq_calls"] += 1
        if tr.in_patch():
            c["analysis.prescreen_exact"] += 1
        return sym_dist_leq(*args, **kwargs)
    an.sym_dist_leq = sym_dist_leq_prescreen

    # growth
    def bfs_elements(table, *_):
        c["growth.bfs_elements"] += table.counts[-1]
    gr.bfs_balls = tr.span("growth.bfs", gr.bfs_balls, bfs_elements)
    gr.verify_cover = tr.span("growth.cover", gr.verify_cover)
    gr.greedy_maximal_separated = tr.span("growth.greedy",
                                          gr.greedy_maximal_separated)
    gr.ball_elements = tr.span("growth.ball", _counting(
        c, "growth.ball_calls", gr.ball_elements))


def run_trace(out_path: str, parent: str, argv: list[str]) -> int:
    tr = Tracer(parent)
    install(tr)
    code = tr.span(f"cli.{argv[0]}", cli.main)(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tr.spans, "counts": dict(tr.counts),
                   "values": tr.values}, fh)
    return code


def count_quadnum_calls(counts: Counter) -> None:
    """Wrap every QuadNum method so each call increments counts[name]."""
    cls = qd.QuadNum
    for name, obj in list(vars(cls).items()):
        if isinstance(obj, types.FunctionType):
            setattr(cls, name, _counting(counts, name, obj))
        elif isinstance(obj, classmethod):
            setattr(cls, name,
                    classmethod(_counting(counts, name, obj.__func__)))
        elif isinstance(obj, property):
            setattr(cls, name, property(_counting(counts, name, obj.fget)))


def run_count(out_path: str, argv: list[str]) -> int:
    counts: Counter = Counter()
    count_quadnum_calls(counts)
    code = cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"quadnum_calls": sum(counts.values()),
                   "by_method": dict(counts)}, fh)
    return code


# ---------------------------------------------------------------------------
# micro-kernels
# ---------------------------------------------------------------------------

REPEATS = 5


def per_call_ns(fn, operands) -> float:
    """Median over REPEATS passes of the mean time of fn(*operand)."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        for args in operands:
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / len(operands))
    return statistics.median(samples)


def reference_sample():
    """A small Heisenberg sample for workloads that carry no model set."""
    kind = he.GroupKind.heisenberg(1)
    scheme = cp.Scheme(kind, qd.RingSpec(2))
    window = cp.Box.cube(kind, Fraction(9, 10))
    return cp.generate_model_set(scheme, window, cp.Box.gauge_box(kind, 3))


def run_micro(out_path: str, seed: int, sample_path: str | None) -> int:
    rng = random.Random(seed)
    ms = read_model_set(sample_path)[0] if sample_path else reference_sample()
    kind = ms.scheme.kind
    pts = ms.points
    pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(2000)]
    scalars = [(rng.choice(p.coords), rng.choice(q.coords)) for p, q in pairs]
    diffs = [(a - b,) for a, b in scalars]
    products = [
        (he.GroupPoint(kind, he.mul_coords(kind, he.inv_coords(kind, p.coords),
                                           q.coords)), 2)
        for p, q in pairs
    ]
    gens = gr.GenSet.standard(he.GroupKind.heisenberg(1))
    ball = gr.ball_elements(gens, 8)[0]
    int_pairs = [(gens.kind, rng.choice(ball), rng.choice(ball))
                 for _ in range(2000)]

    radius = Fraction(1)
    centers = an.right_interior(ms, radius)
    index = an.NeighborIndex(ms, radius)
    patch_args = [(ms, rng.choice(centers), radius, index) for _ in range(4)]

    ring = ms.scheme.ring
    internal = ms.window.intervals[0]
    phys = (Fraction(-50), Fraction(50))
    enum_ns = per_call_ns(qd.enumerate_ring_in_rectangle,
                          [(ring, phys, internal)])
    metrics = {
        "quadratic.mul_ns": per_call_ns(lambda a, b: a * b, scalars),
        "quadratic.sign_ns": per_call_ns(lambda x: x.sign(), diffs),
        "quadratic.enum_candidate_ns":
            enum_ns / enum_candidates(ring, phys, internal),
        "heisenberg.mul_coords_us": per_call_ns(
            he.mul_coords, [(kind, p.coords, q.coords) for p, q in pairs])
        / 1e3,
        "heisenberg.mul_coords_int_us":
            per_call_ns(he.mul_coords, int_pairs) / 1e3,
        "heisenberg.qnorm_leq_us": per_call_ns(he.qnorm_leq, products) / 1e3,
        "heisenberg.sym_dist_sq_us": per_call_ns(he.sym_dist_sq, pairs) / 1e3,
        "analysis.patch_at_us": per_call_ns(an.patch_at, patch_args) / 1e3,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics,
                   "operands": sample_path or "reference H1 sample, R=3"}, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, out_path = argv[0], argv[1]
    if mode == "trace":
        return run_trace(out_path, argv[2], argv[argv.index("--") + 1:])
    if mode == "count":
        return run_count(out_path, argv[argv.index("--") + 1:])
    if mode == "micro":
        return run_micro(out_path, int(argv[2]),
                         argv[3] if len(argv) > 3 else None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
