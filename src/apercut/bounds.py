"""Dimension-bound formulas and the classifiability-hypothesis checklist.

The bound calculators are closed-form integer formulas evaluated in arbitrary
precision. The checklist condenses the finite-sample analysis reports into
per-hypothesis evidence levels with deliberately conservative wording: a
finite sample can support or refute, but never prove, properties that
quantify over the infinite configuration.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Mapping, Sequence, Tuple

from .errors import ProvenanceError, Record
from .heisenberg import GroupKind

if TYPE_CHECKING:
    from .analysis import (
        DeloneReport,
        PatchCatalog,
        PeriodReport,
        RepetitivityReport,
    )
    from .cutproject import RegularityReport


def _check_nonneg(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def tube_dim_bound(d_g: int, dim_x: int) -> int:
    """11^d_g * (dim_x + 1) - 1, the covering-multiplicity bound.

    d_g is the integer polynomial growth degree of the acting group, dim_x
    the dimension of the space acted on.
    """
    _check_nonneg("d_g", d_g)
    _check_nonneg("dim_x", dim_x)
    return 11 ** d_g * (dim_x + 1) - 1


def nuclear_dim_from_tube(dim_x: int, dim_tube: int) -> int:
    """(dim_x + 1) * (dim_tube + 1) - 1."""
    _check_nonneg("dim_x", dim_x)
    _check_nonneg("dim_tube", dim_tube)
    return (dim_x + 1) * (dim_tube + 1) - 1


def nuclear_dim_bound(d_g: int, dim_x: int) -> int:
    """11^d_g * (dim_x + 1)^2 - 1.

    Identical to composing nuclear_dim_from_tube with tube_dim_bound; the
    assertion keeps the two routes from drifting apart.
    """
    _check_nonneg("d_g", d_g)
    _check_nonneg("dim_x", dim_x)
    value = 11 ** d_g * (dim_x + 1) ** 2 - 1
    assert value == nuclear_dim_from_tube(dim_x, tube_dim_bound(d_g, dim_x))
    return value


def hull_dim_bound(kind: GroupKind) -> int:
    """Upper bound for the dimension of the orbit-closure space: dim of the
    group itself (m in the Euclidean case, 2n+1 in the Heisenberg case)."""
    return kind.coord_count


class Evidence(enum.Enum):
    """Evidence level for one hypothesis on one finite sample: a finite
    sample either supports a hypothesis about the infinite configuration
    (EVIDENCE_ONLY) or refutes it outright (FAILED)."""

    EVIDENCE_ONLY = "evidence-only"
    FAILED = "failed"


class ClassifiabilityChecklist(Record):
    flc_evidence: Evidence
    delone_evidence: Evidence
    repetitivity_evidence: Evidence
    aperiodicity_evidence: Evidence
    window_regular: bool
    dim_bound_used: int
    d_g: int
    tube_dim: int
    nuclear_dim: int
    sample_size: int
    model_set_hash: str | None

    @property
    def failed_hypotheses(self) -> Tuple[str, ...]:
        pairs = (
            ("flc", self.flc_evidence),
            ("delone", self.delone_evidence),
            ("repetitivity", self.repetitivity_evidence),
            ("aperiodicity", self.aperiodicity_evidence),
        )
        return tuple(name for name, ev in pairs if ev is Evidence.FAILED)

    @property
    def supported(self) -> bool:
        return not self.failed_hypotheses and self.window_regular

    @property
    def verdict(self) -> str:
        failed = self.failed_hypotheses
        if failed:
            return "hypotheses refuted on this sample: " + ", ".join(failed)
        if not self.window_regular:
            return "hypotheses undecided: window regularity not established"
        return ("hypotheses empirically supported at scale "
                f"{self.sample_size} points")


def build_checklist(
    kind: GroupKind,
    d_g: int,
    delone: DeloneReport,
    complexity_rows: Sequence[PatchCatalog],
    repetitivity: RepetitivityReport,
    periods: PeriodReport,
    regularity: RegularityReport,
    sample_size: int,
    model_set_hash: str | None = None,
    report_hashes: Mapping[str, str] | None = None,
) -> ClassifiabilityChecklist:
    """Condense the analysis reports into one hypothesis checklist.

    d_g is supplied by the caller as an integer (a growth fit yields a float;
    the bounds need the exact degree). When report_hashes is given, every
    report must have been produced from the model set identified by
    model_set_hash, otherwise the mix is rejected.
    """
    _check_nonneg("d_g", d_g)
    _check_nonneg("sample_size", sample_size)
    if report_hashes:
        if model_set_hash is None:
            raise ProvenanceError(
                "report hashes supplied without a model-set hash to match"
            )
        bad = sorted(
            name for name, h in report_hashes.items() if h != model_set_hash
        )
        if bad:
            raise ProvenanceError(
                "reports from a different model set: " + ", ".join(bad)
            )
    if not complexity_rows:
        raise ValueError("at least one complexity row is required")

    # Finitely many classes at each sampled radius is all a finite sample
    # can show; it can neither prove nor refute finite local complexity.
    flc = Evidence.EVIDENCE_ONLY

    if delone.separation.certificate is not None and not delone.separation.positive:
        delone_ev = Evidence.FAILED
    else:
        delone_ev = Evidence.EVIDENCE_ONLY

    rep_rows = repetitivity.per_class
    if rep_rows and all(c.lower_bound_only for c in rep_rows):
        # not a single patch class recurred anywhere in the sampled region
        rep_ev = Evidence.FAILED
    else:
        rep_ev = Evidence.EVIDENCE_ONLY

    aper_ev = Evidence.FAILED if periods.periodic else Evidence.EVIDENCE_ONLY

    dim_x = hull_dim_bound(kind)
    tube = tube_dim_bound(d_g, dim_x)
    nuclear = nuclear_dim_bound(d_g, dim_x)

    return ClassifiabilityChecklist(
        flc_evidence=flc,
        delone_evidence=delone_ev,
        repetitivity_evidence=rep_ev,
        aperiodicity_evidence=aper_ev,
        window_regular=regularity.window_regular,
        dim_bound_used=dim_x,
        d_g=d_g,
        tube_dim=tube,
        nuclear_dim=nuclear,
        sample_size=sample_size,
        model_set_hash=model_set_hash,
    )
