"""File formats: canonical JSON with content hashes, plus CSV export.

All JSON output is canonicalized (sorted keys, compact separators, trailing
newline) so that identical inputs yield byte-identical files. Every payload
embeds a sha256 over its own canonical form minus the hash field; readers
check it and refuse files that do not match, which catches both corruption
and hand editing. Exact scalars travel as decimal strings, never floats.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import ProvenanceError
from .heisenberg import Family, GroupKind

if TYPE_CHECKING:
    from .analysis import (
        DeloneReport,
        PatchCatalog,
        PeriodReport,
        RepetitivityReport,
    )
    from .cutproject import Box, ModelSet, Scheme
    from .growth import BallTable, CoverReport

# Readers accept format 1 too: its model-set files differ only by a derivable
# float_points array that nothing reads.
FORMAT_VERSION = 2
HASH_FIELD = "content_hash"


# ---------------------------------------------------------------------------
# canonical JSON and hashing
# ---------------------------------------------------------------------------

def _dumps(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def canonical_json_bytes(obj) -> bytes:
    return (_dumps(obj) + "\n").encode("utf-8")


def _digest(body: bytes) -> str:
    # hashlib loads OpenSSL, about 4 ms and 5 MB; `growth` never hashes
    import hashlib

    return "sha256:" + hashlib.sha256(body).hexdigest()


def content_hash(payload: dict) -> str:
    """sha256 over the canonical form, excluding the hash field itself."""
    body = {k: v for k, v in payload.items() if k != HASH_FIELD}
    return _digest(canonical_json_bytes(body))


def seal(payload: dict) -> dict:
    """Return a copy of the payload with its content hash filled in."""
    if HASH_FIELD in payload:
        raise ValueError("payload already sealed")
    out = dict(payload)
    out[HASH_FIELD] = content_hash(payload)
    return out


def _member(key: str, value) -> str:
    if not isinstance(key, str):
        raise TypeError(f"payload keys must be strings, got {key!r}")
    return _dumps(key) + ":" + _dumps(value)


def _object_bytes(members: dict) -> bytes:
    """The canonical JSON object of these `"key":value` texts: what
    `canonical_json_bytes` gives for the payload they encode."""
    return ("{" + ",".join(members[k] for k in sorted(members)) + "}\n"
            ).encode("utf-8")


def write_json(path, payload: dict) -> str:
    """Write the payload sealed with its content hash, in canonical form.
    Each member is encoded once; the hashed body and the file are joined
    from the same texts."""
    if HASH_FIELD in payload:
        raise ValueError("payload already sealed")
    members = {key: _member(key, value) for key, value in payload.items()}
    digest = _digest(_object_bytes(members))
    members[HASH_FIELD] = _member(HASH_FIELD, digest)
    with open(path, "wb") as fh:
        fh.write(_object_bytes(members))
    return digest


def _without_hash_member(raw: bytes, digest) -> bytes:
    """The file's bytes minus its hash member and one comma next to it: for
    a file as `write_json` writes it, exactly the body it hashed."""
    member = _member(HASH_FIELD, digest).encode("utf-8")
    start = raw.find(member)
    if start < 0:
        return raw
    end = start + len(member)
    if raw[end:end + 1] == b",":
        end += 1
    elif raw[start - 1:start] == b",":
        start -= 1
    return raw[:start] + raw[end:]


def read_json(path, expect_type: str | None = None) -> dict:
    """Read a sealed payload and check its content hash. The hash is first
    checked against the file's own bytes; only a file not in canonical form
    (say, re-indented by hand) is re-encoded canonically to check it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    payload = json.loads(raw)
    if not isinstance(payload, dict) or HASH_FIELD not in payload:
        raise ProvenanceError(f"{path}: no content hash")
    digest = payload[HASH_FIELD]
    # a hash member that is not a string (even NaN) is compared, never encoded
    on_raw = (isinstance(digest, str)
              and _digest(_without_hash_member(raw, digest)) == digest)
    if not on_raw and content_hash(payload) != digest:
        raise ProvenanceError(f"{path}: content hash mismatch")
    if expect_type is not None and payload.get("payload_type") != expect_type:
        raise ValueError(
            f"{path}: expected a {expect_type} file, "
            f"got {payload.get('payload_type')!r}"
        )
    return payload


# ---------------------------------------------------------------------------
# scalar and box helpers
# ---------------------------------------------------------------------------

def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_frac(s: str) -> Fraction:
    return Fraction(s)


def _box_payload(box: Box) -> list:
    return [[_frac_str(lo), _frac_str(hi)] for lo, hi in box.intervals]


def _box_from(rows: Sequence) -> Box:
    from .cutproject import Box

    return Box(tuple((_parse_frac(lo), _parse_frac(hi)) for lo, hi in rows))


def _exact_payload(x):
    """Exact scalar to JSON: QuadNum as 4-tuple plus d, rationals as one
    string. Floats are rejected; they go in separate, clearly float fields."""
    from .quadratic import QuadNum, serialize_quadnum

    if isinstance(x, QuadNum):
        return {"parts": serialize_quadnum(x), "d": x.d}
    if isinstance(x, (int, Fraction)):
        return {"value": _frac_str(x)}
    raise TypeError(f"not an exact scalar: {x!r}")


def _float_or_none(x) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def _coords_payload(coords) -> list:
    from .quadratic import serialize_quadnum

    return [serialize_quadnum(c) for c in coords]


# ---------------------------------------------------------------------------
# model-set files
# ---------------------------------------------------------------------------

def _scheme_payload(scheme: Scheme) -> dict:
    kind = scheme.kind
    rank_key = "m" if kind.family is Family.EUCLIDEAN else "n"
    return {
        "kind": kind.family.value,
        rank_key: kind.rank,
        "d": scheme.d,
        "ring": scheme.ring.variant.value,
    }


def _scheme_from(obj: dict) -> Scheme:
    from .cutproject import Scheme
    from .quadratic import RingSpec, RingVariant

    family = obj["kind"]
    if family == "euclidean":
        kind = GroupKind.euclidean(int(obj["m"]))
    elif family == "heisenberg":
        kind = GroupKind.heisenberg(int(obj["n"]))
    else:
        raise ValueError(f"unknown group kind {family!r}")
    ring = RingSpec(int(obj["d"]), RingVariant(obj["ring"]))
    return Scheme(kind, ring)


def _ratio_strings(n: int, e: int) -> list[str]:
    """n/e in lowest terms as numerator and denominator strings."""
    g = math.gcd(n, e)
    return [str(n // g), str(e // g)]


def _points_payload(ms: ModelSet) -> list:
    """Every coordinate as four decimal strings [a_num, a_den, b_num, b_den]
    (as `serialize_quadnum`), formatted from the rows, each distinct value
    once."""
    c, e = ms.scheme.kind.coord_count, ms.e
    cols = list(zip(*ms.rows)) or [()] * (2 * c)
    axes = [list(zip(cols[k], cols[c + k])) for k in range(c)]
    strings = {(u, w): _ratio_strings(u, e) + _ratio_strings(w, e)
               for axis in axes for u, w in set(axis)}
    columns = [map(strings.__getitem__, axis) for axis in axes]
    return [list(coords) for coords in zip(*columns)]


def model_set_payload(ms: ModelSet, config: dict | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "payload_type": "model-set",
        "scheme": _scheme_payload(ms.scheme),
        "window": _box_payload(ms.window),
        "region": _box_payload(ms.region),
        "points": _points_payload(ms),
        "config": config or {},
    }


def model_set_from_payload(payload: dict) -> ModelSet:
    """The model set of a payload; ValueError if a field is missing or
    malformed, or if the points are not the whole model set of the window
    and region. A complete sample is a function of the scheme, window and
    region, so the reader counts it (each axis to one past the file's
    points only), rebuilds it as `generate_model_set` does, and requires
    the file's points to be the rebuilt sample's, string for string."""
    from .cutproject import _check_box, _product_model_set, model_set_size

    try:
        scheme = _scheme_from(payload["scheme"])
        window = _box_from(payload["window"])
        region = _box_from(payload["region"])
        points = payload["points"]
    except KeyError as exc:
        raise ValueError(f"model-set file has no {exc} field") from exc
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(
            f"malformed model-set file: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(points, list):
        raise ValueError("malformed model-set file: points is not a list")
    _check_box(scheme, window, "window")
    _check_box(scheme, region, "region")
    n = len(points)
    total = model_set_size(scheme, window, region, cap=n + 1)
    if total > n:
        raise ValueError(f"model set incomplete: {n} points, but its "
                         "window and region hold more")
    if total < n:
        raise ValueError(f"model set mismatch: {n} points, but its window "
                         f"and region hold {total}")
    ms = _product_model_set(scheme, window, region, total)
    expected = _points_payload(ms)
    if points != expected:
        i, theirs, ours = next((i, p, q) for i, (p, q)
                               in enumerate(zip(points, expected)) if p != q)
        raise ValueError(f"model set mismatch at point {i}: the file has "
                         f"{_dumps(theirs)}, the model set has "
                         f"{_dumps(ours)}")
    return ms


def write_model_set(path, ms: ModelSet, config: dict | None = None) -> str:
    return write_json(path, model_set_payload(ms, config))


def read_model_set(path) -> tuple[ModelSet, dict]:
    payload = read_json(path, expect_type="model-set")
    return model_set_from_payload(payload), payload


def model_set_csv_text(ms: ModelSet) -> str:
    """Float coordinates for plotting; exact data stays in the JSON file."""
    kind = ms.scheme.kind
    if kind.family is Family.EUCLIDEAN:
        header = [f"x{i + 1}" for i in range(kind.rank)]
    else:
        n = kind.rank
        header = (
            [f"x{i + 1}" for i in range(n)]
            + [f"y{i + 1}" for i in range(n)]
            + ["t"]
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in ms.float_points():
        writer.writerow([repr(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# analysis reports
# ---------------------------------------------------------------------------

def _delone_payload(report: DeloneReport) -> dict:
    sep = report.separation
    return {
        "separation": _float_or_none(sep.separation),
        "separation_sq": (
            None if sep.separation_sq is None else _exact_payload(sep.separation_sq)
        ),
        "certificate": list(sep.certificate) if sep.certificate else None,
        "bracket": (
            [_frac_str(sep.bracket[0]), _frac_str(sep.bracket[1])]
            if sep.bracket
            else None
        ),
        "covering_radius": _float_or_none(report.covering_radius),
        "grid_step": None if report.grid_step is None else _frac_str(report.grid_step),
        "erosion": None if report.erosion is None else _frac_str(report.erosion),
    }


def _complexity_payload(rows: Sequence[PatchCatalog]) -> list:
    return [
        {
            "radius": _frac_str(r.radius),
            "class_count": r.class_count,
            "center_count": r.center_count,
        }
        for r in rows
    ]


def _repetitivity_payload(report: RepetitivityReport) -> dict:
    return {
        "radius": _frac_str(report.radius),
        "max_return_radius": _float_or_none(report.max_return_radius),
        "any_lower_bound": report.any_lower_bound,
        "per_class": [
            {
                "class_index": c.class_index,
                "multiplicity": c.multiplicity,
                "return_radius": _float_or_none(c.return_radius),
                "lower_bound_only": c.lower_bound_only,
            }
            for c in report.per_class
        ],
    }


def _period_payload(report: PeriodReport) -> dict:
    return {
        "gauge_bound": _frac_str(report.gauge_bound),
        "erosion": _frac_str(report.erosion),
        "core_size": report.core_size,
        "candidates_tested": report.candidates_tested,
        "survivors": [_coords_payload(g) for g in report.nontrivial_periods],
    }


def analysis_report_payload(
    input_hash: str,
    delone: DeloneReport,
    complexity_rows: Sequence[PatchCatalog],
    repetitivity: RepetitivityReport,
    periods: PeriodReport,
    config: dict | None = None,
) -> dict:
    return {
        "format": FORMAT_VERSION,
        "payload_type": "analysis-report",
        "input_hash": input_hash,
        "delone": _delone_payload(delone),
        "complexity": _complexity_payload(complexity_rows),
        "repetitivity": _repetitivity_payload(repetitivity),
        "periods": _period_payload(periods),
        "config": config or {},
    }


def complexity_csv_text(rows: Sequence[PatchCatalog], input_hash: str) -> str:
    buf = io.StringIO()
    buf.write(f"# input_hash: {input_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["K", "classes", "centers"])
    for r in rows:
        writer.writerow([_frac_str(r.radius), r.class_count, r.center_count])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# growth and cover
# ---------------------------------------------------------------------------

def ball_table_csv_text(table: BallTable, config: dict | None = None) -> str:
    buf = io.StringIO()
    buf.write(f"# format: {FORMAT_VERSION}\n")
    buf.write(f"# group: {table.kind.label}\n")
    gens = json.dumps(
        [list(g) for g in table.generators], separators=(",", ":")
    )
    buf.write(f"# generators: {gens}\n")
    for key in sorted(config or {}):
        buf.write(f"# {key}: {config[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "count"])
    for k, count in table.rows():
        writer.writerow([k, count])
    return buf.getvalue()


def cover_report_payload(report: CoverReport, kind: GroupKind,
                         config: dict | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "payload_type": "cover-report",
        "group": kind.label,
        "a": report.a,
        "n": report.n,
        "packing_size": report.packing_size,
        "bound": report.bound,
        "bound_holds": report.bound_holds,
        "covered": report.covered,
        "packing_disjoint": report.packing_disjoint,
        "volume_check": report.volume_check,
        "d_used": report.d_used,
        "ball_sizes": {
            "n": report.ball_n,
            "2n": report.ball_2n,
            "an": report.ball_an,
            "(a+1)n": report.ball_a1n,
        },
        "separated_set": [list(g) for g in report.separated_set],
        "config": config or {},
    }


def bounds_report_payload(d_g: int, dim_x: int, tube: int, from_tube: int,
                          nuclear: int, config: dict | None = None) -> dict:
    return {
        "format": FORMAT_VERSION,
        "payload_type": "bounds-report",
        "d_g": d_g,
        "dim_x": dim_x,
        "formulas": {
            "tube": "11^d_g * (dim_x + 1) - 1",
            "nuclear_from_tube": "(dim_x + 1) * (dim_tube + 1) - 1",
            "nuclear": "11^d_g * (dim_x + 1)^2 - 1",
        },
        "tube_dim_bound": tube,
        "nuclear_dim_from_tube": from_tube,
        "nuclear_dim_bound": nuclear,
        "config": config or {},
    }
