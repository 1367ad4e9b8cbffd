from fractions import Fraction

import pytest

from apercut.analysis import (
    complexity_table,
    delone_report,
    period_search,
    repetitivity_radii,
)
from apercut.bounds import (
    ClassifiabilityChecklist,
    Evidence,
    build_checklist,
    hull_dim_bound,
    nuclear_dim_bound,
    nuclear_dim_from_tube,
    tube_dim_bound,
)
from apercut.cutproject import (
    Box,
    Scheme,
    check_window_regular,
    generate_model_set,
    periodic_control_model_set,
)
from apercut.errors import ProvenanceError
from apercut.heisenberg import GroupKind
from apercut.quadratic import RingSpec

E1 = GroupKind.euclidean(1)
SCHEME_1D = Scheme(E1, RingSpec(2))


def test_tube_bound_instances():
    assert tube_dim_bound(0, 0) == 0
    assert tube_dim_bound(1, 1) == 21
    assert tube_dim_bound(2, 0) == 120


def test_nuclear_from_tube_instances():
    assert nuclear_dim_from_tube(0, 0) == 0
    assert nuclear_dim_from_tube(1, 21) == 43
    assert nuclear_dim_from_tube(2, 2) == 8


def test_nuclear_bound_instances():
    assert nuclear_dim_bound(0, 0) == 0
    assert nuclear_dim_bound(1, 1) == 43
    assert nuclear_dim_bound(4, 3) == 234255


def test_composition_identity_on_grid():
    for d_g in range(7):
        for dim_x in range(7):
            direct = nuclear_dim_bound(d_g, dim_x)
            composed = nuclear_dim_from_tube(dim_x, tube_dim_bound(d_g, dim_x))
            assert direct == composed


def test_monotonicity():
    for f in (tube_dim_bound, nuclear_dim_bound, nuclear_dim_from_tube):
        for a in range(6):
            for b in range(6):
                assert f(a, b) <= f(a + 1, b)
                assert f(a, b) <= f(a, b + 1)


def test_argument_validation():
    for f in (tube_dim_bound, nuclear_dim_from_tube, nuclear_dim_bound):
        with pytest.raises(ValueError):
            f(-1, 0)
        with pytest.raises(ValueError):
            f(0, -1)
        with pytest.raises(ValueError):
            f(0, True)


def test_hull_dim_bound():
    assert hull_dim_bound(GroupKind.heisenberg(1)) == 3
    assert hull_dim_bound(GroupKind.heisenberg(2)) == 5
    assert hull_dim_bound(GroupKind.euclidean(1)) == 1
    assert hull_dim_bound(GroupKind.euclidean(4)) == 4


# ---------------------------------------------------------------------------
# checklist
# ---------------------------------------------------------------------------

def sturmian_reports():
    ms = generate_model_set(
        SCHEME_1D,
        Box(((Fraction(-9, 10), Fraction(11, 10)),)),
        Box(((Fraction(-60), Fraction(60)),)),
    )
    return ms, dict(
        kind=E1,
        d_g=1,
        delone=delone_report(ms, grid_step=Fraction(1, 10), erosion=Fraction(2)),
        complexity_rows=complexity_table(ms, [1, 2]),
        repetitivity=repetitivity_radii(ms, Fraction(2)),
        periods=period_search(ms, Fraction(4), Fraction(4)),
        regularity=check_window_regular(ms.scheme, ms.window),
        sample_size=None,
    )


def test_checklist_aperiodic_sample_supported():
    ms, kw = sturmian_reports()
    kw["sample_size"] = len(ms)
    cl = build_checklist(**kw)
    assert cl.flc_evidence is Evidence.EVIDENCE_ONLY
    assert cl.delone_evidence is Evidence.EVIDENCE_ONLY
    assert cl.repetitivity_evidence is Evidence.EVIDENCE_ONLY
    assert cl.aperiodicity_evidence is Evidence.EVIDENCE_ONLY
    assert cl.window_regular
    assert cl.supported
    assert cl.verdict == (
        f"hypotheses empirically supported at scale {len(ms)} points"
    )
    assert cl.dim_bound_used == 1
    assert cl.tube_dim == 21
    assert cl.nuclear_dim == 43
    assert cl.failed_hypotheses == ()


def test_checklist_periodic_control_fails_aperiodicity():
    region = Box(((-30, 30),))
    ms = periodic_control_model_set(SCHEME_1D, region)
    cl = build_checklist(
        kind=E1,
        d_g=1,
        delone=delone_report(ms),
        complexity_rows=complexity_table(ms, [1, 2]),
        repetitivity=repetitivity_radii(ms, Fraction(2)),
        periods=period_search(ms, Fraction(3), Fraction(3)),
        regularity=check_window_regular(ms.scheme, ms.window),
        sample_size=len(ms),
    )
    assert cl.aperiodicity_evidence is Evidence.FAILED
    assert not cl.supported
    assert "aperiodicity" in cl.verdict
    assert cl.failed_hypotheses == ("aperiodicity",)


def test_checklist_provenance_mismatch():
    ms, kw = sturmian_reports()
    kw["sample_size"] = len(ms)
    with pytest.raises(ProvenanceError):
        build_checklist(
            **kw,
            model_set_hash="sha256:aaaa",
            report_hashes={"delone": "sha256:aaaa", "periods": "sha256:bbbb"},
        )
    with pytest.raises(ProvenanceError):
        build_checklist(**kw, report_hashes={"delone": "sha256:aaaa"})
    # matching hashes pass
    cl = build_checklist(
        **kw,
        model_set_hash="sha256:aaaa",
        report_hashes={"delone": "sha256:aaaa"},
    )
    assert cl.model_set_hash == "sha256:aaaa"


def test_checklist_rejects_missing_complexity():
    ms, kw = sturmian_reports()
    kw["sample_size"] = len(ms)
    kw["complexity_rows"] = []
    with pytest.raises(ValueError):
        build_checklist(**kw)


def test_checklist_is_plain_data():
    ms, kw = sturmian_reports()
    kw["sample_size"] = len(ms)
    cl = build_checklist(**kw)
    assert isinstance(cl, ClassifiabilityChecklist)
    with pytest.raises(AttributeError):
        cl.d_g = 2
