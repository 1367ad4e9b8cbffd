"""Workload definitions, input generation from the seed, and output checks.

Each workload is a fixed sequence of `apercut` CLI commands. The seed picks a
small rational jitter of the window endpoints (seed 0 uses the paper's
windows unchanged); the commands themselves never see the seed.

The checks are independent of the program under test: content hashes are
recomputed with hashlib, the sample must equal an integer-only enumeration
of the cut-and-project axes, and wherever that enumeration gives the seed-0
points the reported values must equal the values the seed commit produced.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

D = 2  # every workload uses Z[sqrt(2)]
H1_REGION = ((-5, 5), (-5, 5), (-14, 14))
H1_WINDOW = ((Fraction(-9, 10), Fraction(9, 10)),) * 3
# Endpoints move by at most 10 steps of 1/100000. No conjugate of a coordinate
# in the region above (nor in the larger box -5..5, -5..5, -25..25) lies
# within 5.05e-4 of -9/10 or 9/10, so the jitter changes the window (and
# every output hash) but keeps the point set: the work, and the seed
# commit's values, are the same at every seed.
JITTER_STEP = Fraction(1, 100000)


@dataclass(frozen=True)
class Command:
    """One CLI call: its role in the workload, argv, and the files it writes."""

    name: str            # the CLI subcommand
    argv: tuple
    outputs: tuple       # relative paths written by the command


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple      # (Command, Command): the cmd1_s and cmd2_s steps
    window: tuple        # internal-space box (empty for growth-cover)
    region: tuple


def _jittered(window, rng: random.Random) -> tuple:
    """Move each endpoint by a multiple of JITTER_STEP. Endpoints stay
    non-integer, so the Z[sqrt(2)] lattice never projects onto the window
    boundary and generation cannot be rejected as irregular."""
    return tuple(
        (lo + rng.randint(-10, 10) * JITTER_STEP,
         hi + rng.randint(-10, 10) * JITTER_STEP)
        for lo, hi in window
    )


def _box_arg(box) -> str:
    return ";".join(f"{lo},{hi}" for lo, hi in box)


def make_workload(name: str, seed: int, threads: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    common = ("--threads", str(threads))
    if name == "h1-analyze":
        window = H1_WINDOW if seed == 0 else _jittered(H1_WINDOW, rng)
        gen = ("generate", "--kind", "heisenberg", "--n", "1", "--d", str(D),
               f"--window={_box_arg(window)}",
               f"--region={_box_arg(H1_REGION)}", "--out", "sample.json")
        ana = ("analyze", "--in", "sample.json", "--K", "1,2",
               "--period-bound", "1", "--grid-step", "1/2",
               "--out", "report.json")
        return Workload(name, (
            Command("generate", gen + common, ("sample.json",)),
            Command("analyze", ana + common, ("report.json",)),
        ), window, H1_REGION)
    if name == "growth-cover":
        growth = ("growth", "--group", "h1z", "--kmax", "20",
                  "--out", "balls.csv")
        cover = ("cover", "--group", "h1z", "--a", "3", "--n", "3",
                 "--out", "cover.json")
        return Workload(name, (
            Command("growth", growth + common, ("balls.csv",)),
            Command("cover", cover + common, ("cover.json",)),
        ), (), ())
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("h1-analyze", "growth-cover")

# Values the seed commit reports at seed 0 (the paper's windows).
EXPECTED_SEED0 = {
    "h1-analyze": {"points": 833, "separation_sq": "1",
                   "classes": {"1": 39, "2": 59}, "periods": 0},
}
# growth-cover's commands do not depend on the seed.
EXPECTED_GROWTH = {"kmax": 20, "ball": 68079, "packing_size": 35}


# ---------------------------------------------------------------------------
# integer-only oracle for the sample's points
# ---------------------------------------------------------------------------

def _floor_plus_sqrt(r: Fraction, sign: int, m: int) -> int:
    """floor(r + sign*sqrt(m)) for rational r and integer m >= 0."""
    n, q = r.numerator, r.denominator
    root = math.isqrt(q * q * m)
    if sign >= 0:
        return (n + root) // q
    exact = root * root == q * q * m
    return (n - root - (0 if exact else 1)) // q


def axis_elements(phys, internal) -> list[tuple[int, int]]:
    """All (a, b) with x = a + b*sqrt(2) in phys and its conjugate
    a - b*sqrt(2) in internal."""
    p1, p2 = map(Fraction, phys)
    i1, i2 = map(Fraction, internal)
    b_max = int(max(abs(p1 - i2), abs(p2 - i1)) / 2) + 2
    out = []
    for b in range(-b_max, b_max + 1):
        s = 1 if b >= 0 else -1
        m = b * b * D
        # a >= p1 - b*sqrt(d) and a >= i1 + b*sqrt(d)
        lo = max(-_floor_plus_sqrt(-p1, s, m), -_floor_plus_sqrt(-i1, -s, m))
        # a <= p2 - b*sqrt(d) and a <= i2 + b*sqrt(d)
        hi = min(_floor_plus_sqrt(p2, -s, m), _floor_plus_sqrt(i2, s, m))
        out.extend((a, b) for a in range(lo, hi + 1))
    return out


def oracle_points(wl: Workload) -> frozenset:
    """The model set as tuples of (a, b) per coordinate."""
    return _oracle(wl.region, wl.window)


@functools.lru_cache(maxsize=None)
def _oracle(region, window) -> frozenset:
    # every timed pass is checked, so the enumeration is done once per window
    return frozenset(itertools.product(*(
        axis_elements(r, w) for r, w in zip(region, window))))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _verify_hash(raw: bytes) -> dict:
    payload = json.loads(raw)
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
    digest = "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()
    if payload.get("content_hash") != digest:
        raise ValueError("content_hash does not match the payload")
    return payload


def _exact_str(obj) -> str:
    """Render a serialized exact scalar ({"d", "parts"} or a rational)."""
    if isinstance(obj, dict):
        a_num, a_den, b_num, b_den = obj["parts"]
        a, b = Fraction(int(a_num), int(a_den)), Fraction(int(b_num), int(b_den))
        return str(a) if b == 0 else f"{a}+{b}*sqrt({obj['d']})"
    return str(Fraction(obj))


def _check_model_set_pair(wl: Workload, seed: int, files: dict) -> list[str]:
    errors = []
    sample = _verify_hash(files["sample.json"])
    report = _verify_hash(files["report.json"])
    points = {
        tuple((Fraction(int(an), int(ad)), Fraction(int(bn), int(bd)))
              for an, ad, bn, bd in row)
        for row in sample["points"]
    }
    n_points = len(sample["points"])
    expected = oracle_points(wl)
    if n_points != len(points) or points != expected:
        errors.append(f"{n_points} points differ from the oracle's "
                      f"{len(expected)}")
    if report["input_hash"] != sample["content_hash"]:
        errors.append("report input_hash is not the sample's content_hash")
    rows = report["complexity"]
    counts = [row["class_count"] for row in rows]
    centers = [row["center_count"] for row in rows]
    if counts != sorted(counts) or centers != sorted(centers, reverse=True):
        errors.append(f"complexity not monotone in K: {rows}")
    # the windows are irrational cuts, so no sample has a period
    if report["periods"]["survivors"]:
        errors.append(f"periods found: {report['periods']['survivors']}")
    # the seed-0 values hold whenever the jittered window selects the same
    # points, which the jitter bound guarantees
    if expected == oracle_points(make_workload(wl.name, 0, 1)):
        want = EXPECTED_SEED0[wl.name]
        got = {
            "points": n_points,
            "separation_sq": _exact_str(report["delone"]["separation_sq"]),
            "classes": {row["radius"]: row["class_count"] for row in rows},
            "periods": len(report["periods"]["survivors"]),
        }
        if got != want:
            errors.append(f"seed-0 values {got} differ from {want}")
    return errors


def _check_growth_cover(files: dict) -> list[str]:
    errors = []
    text = files["balls.csv"].decode("utf-8")
    body = [line for line in text.splitlines() if not line.startswith("#")]
    rows = [(int(k), int(c)) for k, c in list(csv.reader(io.StringIO(
        "\n".join(body))))[1:]]
    counts = [c for _, c in rows]
    if rows[0] != (0, 1) or any(b <= a for a, b in zip(counts, counts[1:])):
        errors.append("ball counts do not start at 1 and strictly grow")
    if rows[-1] != (EXPECTED_GROWTH["kmax"], EXPECTED_GROWTH["ball"]):
        errors.append(f"last ball row is {rows[-1]}, want "
                      f"{(EXPECTED_GROWTH['kmax'], EXPECTED_GROWTH['ball'])}")
    cover = _verify_hash(files["cover.json"])
    for flag in ("covered", "packing_disjoint", "volume_check", "bound_holds"):
        if cover[flag] is not True:
            errors.append(f"cover check {flag} is {cover[flag]}")
    if cover["packing_size"] != EXPECTED_GROWTH["packing_size"]:
        errors.append(f"|S| = {cover['packing_size']}")
    if cover["ball_sizes"]["(a+1)n"] != counts[(cover["a"] + 1) * cover["n"]]:
        errors.append("cover ball size disagrees with the growth table")
    return errors


def check_outputs(wl: Workload, seed: int, files: dict) -> list[str]:
    """Errors in one sequence's output files (empty when correct)."""
    try:
        if wl.name == "growth-cover":
            return _check_growth_cover(files)
        return _check_model_set_pair(wl, seed, files)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def read_outputs(workdir: Path, wl: Workload) -> dict:
    return {
        rel: (workdir / rel).read_bytes()
        for cmd in wl.commands for rel in cmd.outputs
        if (workdir / rel).exists()
    }
