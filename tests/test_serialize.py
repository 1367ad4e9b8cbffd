import itertools
import json
import math
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apercut import cutproject, serialize
from apercut.analysis import (
    complexity_table,
    delone_report,
    period_search,
    repetitivity_radii,
)
from apercut.cutproject import (
    Box,
    ModelSet,
    Scheme,
    generate_model_set,
    model_set_size,
)
from apercut.errors import ProvenanceError
from apercut.growth import GenSet, bfs_balls, verify_cover
from apercut.heisenberg import GroupKind, GroupPoint
from apercut.quadratic import (
    QuadNum,
    RingSpec,
    RingVariant,
    enumerate_ring_in_rectangle,
)
from apercut.serialize import (
    FORMAT_VERSION,
    analysis_report_payload,
    ball_table_csv_text,
    bounds_report_payload,
    canonical_json_bytes,
    complexity_csv_text,
    content_hash,
    cover_report_payload,
    model_set_csv_text,
    model_set_payload,
    read_json,
    read_model_set,
    seal,
    write_json,
    write_model_set,
)

E1 = GroupKind.euclidean(1)
H1 = GroupKind.heisenberg(1)


def small_1d():
    return generate_model_set(
        Scheme(E1, RingSpec(2)),
        Box(((Fraction(-9, 10), Fraction(11, 10)),)),
        Box(((Fraction(-30), Fraction(30)),)),
    )


def small_h1():
    return generate_model_set(
        Scheme(H1, RingSpec(2)),
        Box.cube(H1, Fraction(9, 10)),
        Box.gauge_box(H1, 3),
    )


def test_canonical_bytes_key_order_independent():
    a = canonical_json_bytes({"b": 1, "a": [1, 2], "c": {"y": 0, "x": 1}})
    b = canonical_json_bytes({"c": {"x": 1, "y": 0}, "a": [1, 2], "b": 1})
    assert a == b
    assert a.endswith(b"\n")
    assert b" " not in a


def test_canonical_bytes_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json_bytes({"x": math.inf})


def test_content_hash_ignores_hash_field():
    payload = {"x": 1, "y": "z"}
    sealed = seal(payload)
    assert sealed["content_hash"].startswith("sha256:")
    assert content_hash(sealed) == sealed["content_hash"]
    with pytest.raises(ValueError):
        seal(sealed)


def test_write_read_json_round_trip(tmp_path):
    path = tmp_path / "x.json"
    h = write_json(path, {"payload_type": "model-set", "v": [1, 2, 3]})
    payload = read_json(path, expect_type="model-set")
    assert payload["v"] == [1, 2, 3]
    assert payload["content_hash"] == h


def test_read_json_detects_tampering(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"payload_type": "model-set", "v": 1})
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"v":1', b'"v":2'))
    with pytest.raises(ProvenanceError):
        read_json(path)
    # json.loads accepts a NaN hash member; it is a mismatch, not bad input
    for digest in (b"NaN", b"-Infinity", b"7", b"null"):
        path.write_bytes(re.sub(rb'"sha256:[0-9a-f]+"', digest, raw))
        with pytest.raises(ProvenanceError):
            read_json(path)


@pytest.mark.parametrize("payload", [
    {},
    {"a": 1},
    {"z": 1},
    {"payload_type": "x", "\u00e9": ["\u00fc", 1.5, None],
     "z": {"b": 1, "a": [True, {"content_hash": "sha256:0"}]},
     "a": "\u2603\n\"q\""},
], ids=["empty", "hash-last", "hash-first", "nested"])
def test_write_json_is_canonical_sealed_form(payload, tmp_path, monkeypatch):
    path = tmp_path / "x.json"
    digest = write_json(path, payload)
    sealed = seal(payload)
    assert digest == sealed["content_hash"]
    assert path.read_bytes() == canonical_json_bytes(sealed)

    # a file as written is checked on its own bytes, never re-encoded
    def no_reencoding(payload):
        raise AssertionError("canonical file re-encoded")
    monkeypatch.setattr(serialize, "content_hash", no_reencoding)
    assert read_json(path) == sealed


def test_write_json_refuses_sealed_payload_and_non_string_keys(tmp_path):
    with pytest.raises(ValueError):
        write_json(tmp_path / "x.json", seal({"v": 1}))
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {1: "v"})


def test_read_json_accepts_reformatted_file(tmp_path):
    path = tmp_path / "x.json"
    h = write_json(path, {"payload_type": "model-set", "v": [1, 2, 3],
                          "w": {"b": "c"}})
    payload = json.loads(path.read_bytes())
    path.write_text(json.dumps(dict(reversed(payload.items())), indent=2))
    assert read_json(path)["content_hash"] == h
    path.write_text(path.read_text().replace('"c"', '"d"'))
    with pytest.raises(ProvenanceError):
        read_json(path)


def test_read_json_requires_hash(tmp_path):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"v": 1}))
    with pytest.raises(ProvenanceError):
        read_json(path)


def test_read_json_wrong_type(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"payload_type": "cover-report"})
    with pytest.raises(ValueError):
        read_json(path, expect_type="model-set")


def test_model_set_round_trip_1d(tmp_path):
    ms = small_1d()
    path = tmp_path / "ms.json"
    write_model_set(path, ms, config={"source": "test"})
    back, payload = read_model_set(path)
    assert back == ms
    assert payload["config"] == {"source": "test"}
    assert payload["format"] == FORMAT_VERSION == 2


def test_model_set_round_trip_h1(tmp_path):
    ms = small_h1()
    path = tmp_path / "ms.json"
    write_model_set(path, ms)
    back, payload = read_model_set(path)
    assert back == ms
    assert "float_points" not in payload
    assert payload["scheme"] == {"kind": "heisenberg", "n": 1, "d": 2,
                                 "ring": "zsqrt"}


def test_model_set_format_1_still_reads(tmp_path):
    # format 1 also carried float_points, which readers never used
    ms = small_h1()
    payload = model_set_payload(ms)
    payload["format"] = 1
    payload["float_points"] = [list(p.to_float()) for p in ms.points]
    path = tmp_path / "ms.json"
    write_json(path, payload)
    back, _ = read_model_set(path)
    assert back == ms


@st.composite
def small_samples(draw):
    """(scheme, window, region) of at most 60 points: E1, E2, H1 or H2
    over d = 2, 3 or 5 in either ring, with rational intervals near 0 and
    regions narrower as the coordinates grow in number. The window may be
    a single point on one axis (degenerate), and some samples are empty."""
    kind = draw(st.sampled_from([E1, GroupKind.euclidean(2), H1,
                                 GroupKind.heisenberg(2)]))
    d = draw(st.sampled_from([2, 3, 5]))
    variants = list(RingVariant) if d % 4 == 1 else [RingVariant.Z_SQRT_D]
    scheme = Scheme(kind, RingSpec(d, draw(st.sampled_from(variants))))
    c = kind.coord_count
    flat = draw(st.sampled_from([None, *range(c)]))

    def interval(reach, width):
        lo = draw(st.fractions(-reach, 0, max_denominator=2))
        return lo, lo + draw(st.fractions(width / 4, width,
                                          max_denominator=4))
    window = Box(tuple((lo, lo) if k == flat else (lo, hi) for k, (lo, hi)
                       in enumerate(interval(1, Fraction(2))
                                    for _ in range(c))))
    span = Fraction({1: 16, 2: 8, 3: 5, 5: 4}[c])
    region = Box(tuple(interval(span / 2, span) for _ in range(c)))
    assume(model_set_size(scheme, window, region, cap=60) <= 60)
    return scheme, window, region


@settings(max_examples=300, deadline=None)
@given(sample=small_samples())
def test_generated_sample_is_valid_and_round_trips(sample):
    # generate does not re-check what it builds: the oracle does it here
    ms = generate_model_set(*sample, allow_degenerate_window=True)
    ms.validate()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ms.json")
        write_model_set(path, ms)
        assert read_model_set(path)[0] == ms


@settings(max_examples=300, deadline=None)
@given(sample=small_samples())
def test_generated_sample_is_the_product_of_enumerated_axes(sample):
    # the reference builds every point as exact `QuadNum`s and takes their
    # least common denominator
    scheme, window, region = sample
    kind = scheme.kind
    axes = [enumerate_ring_in_rectangle(scheme.ring, phys, internal)
            for phys, internal in zip(region.intervals, window.intervals)]
    coords = list(itertools.product(*axes))
    ref = ModelSet.from_points(
        scheme, window, region, [GroupPoint(kind, c) for c in coords],
        [GroupPoint(kind, tuple(x.conjugate() for x in c)) for c in coords])
    ms = generate_model_set(*sample, allow_degenerate_window=True)
    assert (ms.rows, ms.e) == (ref.rows, ref.e)


def test_generate_and_read_build_no_quadnum(tmp_path, monkeypatch):
    scheme = Scheme(H1, RingSpec(5, RingVariant.FULL_INTEGERS))
    args = (scheme, Box.cube(H1, Fraction(9, 10)), Box.gauge_box(H1, 3))
    path = tmp_path / "ms.json"
    write_model_set(path, generate_model_set(*args))
    calls = []
    mk = QuadNum._mk

    def counting_mk(cls, *a):
        calls.append("QuadNum._mk")
        return mk(*a)

    def counting_enumerate(*a):
        calls.append("enumerate_ring_in_rectangle")
        return enumerate_ring_in_rectangle(*a)
    monkeypatch.setattr(QuadNum, "_mk", classmethod(counting_mk))
    monkeypatch.setattr(cutproject, "enumerate_ring_in_rectangle",
                        counting_enumerate)
    ms = generate_model_set(*args)
    assert read_model_set(path)[0] == ms
    assert len(ms) > 100 and ms.e == 2
    assert calls == []


def test_model_set_write_is_byte_identical(tmp_path):
    ms = small_h1()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_model_set(p1, ms)
    write_model_set(p2, ms)
    assert p1.read_bytes() == p2.read_bytes()


def test_model_set_resealed_corruption_caught(tmp_path):
    ms = small_1d()
    path = tmp_path / "ms.json"
    write_model_set(path, ms)
    payload = json.loads(path.read_bytes())
    del payload["content_hash"]
    # push the first point far outside the region, then reseal so only the
    # structural validation can catch it
    payload["points"][0][0] = ["100000", "1", "0", "1"]
    write_json(path, payload)
    with pytest.raises(ValueError):
        read_model_set(path)


@pytest.mark.parametrize("points", [{}, ""], ids=["object", "string"])
def test_model_set_points_must_be_a_list(points):
    # even where the model set is empty, so that no point is compared
    ms = generate_model_set(Scheme(E1, RingSpec(2)),
                            Box(((Fraction(1, 10), Fraction(2, 10)),)),
                            Box(((0, 0),)))
    assert len(ms) == 0
    payload = model_set_payload(ms)
    assert serialize.model_set_from_payload(payload) == ms
    payload["points"] = points
    with pytest.raises(ValueError, match="points is not a list"):
        serialize.model_set_from_payload(payload)


def test_model_set_csv():
    ms = small_h1()
    text = model_set_csv_text(ms)
    lines = text.splitlines()
    assert lines[0] == "x1,y1,t"
    assert len(lines) == len(ms) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == list(ms.float_points()[0])


def test_model_set_csv_euclidean_header():
    ms = small_1d()
    assert model_set_csv_text(ms).splitlines()[0] == "x1"


def test_analysis_report_payload_serializable():
    ms = small_1d()
    payload = analysis_report_payload(
        input_hash="sha256:abc",
        delone=delone_report(ms, grid_step=Fraction(1, 10), erosion=Fraction(2)),
        complexity_rows=complexity_table(ms, [1, 2]),
        repetitivity=repetitivity_radii(ms, Fraction(2)),
        periods=period_search(ms, Fraction(4), Fraction(4)),
        config={"K": [1, 2]},
    )
    blob = canonical_json_bytes(payload)  # also proves there is no inf/nan
    parsed = json.loads(blob)
    assert parsed["input_hash"] == "sha256:abc"
    assert parsed["delone"]["separation"] > 0
    assert parsed["delone"]["separation_sq"]["d"] == 2
    assert len(parsed["complexity"]) == 2
    assert parsed["periods"]["survivors"] == []


def test_complexity_csv():
    ms = small_1d()
    text = complexity_csv_text(complexity_table(ms, [1, 2]), "sha256:abc")
    lines = text.splitlines()
    assert lines[0] == "# input_hash: sha256:abc"
    assert lines[1] == "K,classes,centers"
    assert len(lines) == 4


def test_ball_table_csv():
    table = bfs_balls(GenSet.standard(E1), 4)
    text = ball_table_csv_text(table, config={"kmax": 4})
    lines = text.splitlines()
    assert "# group: e1" in lines
    assert "# generators: [[-1],[1]]" in lines
    assert "# kmax: 4" in lines
    assert lines[-1] == "4,9"


def test_cover_report_payload():
    report = verify_cover(GenSet.standard(E1), a=10, n=2, d_used=1)
    payload = cover_report_payload(report, E1, config={"a": 10, "n": 2})
    parsed = json.loads(canonical_json_bytes(payload))
    assert parsed["covered"] is True
    assert parsed["group"] == "e1"
    assert parsed["ball_sizes"]["n"] == 5
    assert all(isinstance(g, list) for g in parsed["separated_set"])


def test_bounds_report_payload():
    payload = bounds_report_payload(1, 1, 21, 43, 43, config={"dg": 1})
    parsed = json.loads(canonical_json_bytes(payload))
    assert parsed["nuclear_dim_bound"] == 43
    assert "11^d_g" in parsed["formulas"]["nuclear"]


def test_exact_payload_shapes():
    from apercut.serialize import _exact_payload

    q = QuadNum(Fraction(1, 2), Fraction(-3, 4), 5)
    assert _exact_payload(q) == {"parts": ["1", "2", "-3", "4"], "d": 5}
    assert _exact_payload(Fraction(3, 7)) == {"value": "3/7"}
    assert _exact_payload(4) == {"value": "4"}
    with pytest.raises(TypeError):
        _exact_payload(0.5)
