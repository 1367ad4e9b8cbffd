"""apercut: exact cut-and-project sets in Heisenberg and Euclidean groups
over real quadratic rings, with Delone/complexity analysis, word-growth and
covering experiments, and dimension-bound calculators.

The analysis and growth names load numpy, so they are bound on first use
(PEP 562): `import apercut` and the commands that need neither stay free of
it."""

from .errors import (
    ApercutError,
    BudgetExceededError,
    EmptyIntervalError,
    ErosionError,
    FieldMismatchError,
    KindMismatchError,
    ProvenanceError,
    WindowError,
)
from .quadratic import (
    QuadNum,
    RingSpec,
    RingVariant,
    conjugate,
    enumerate_ring_in_rectangle,
    exact_sign,
    in_ring,
)
from .heisenberg import (
    Family,
    GroupKind,
    GroupPoint,
    box_volume,
    qdist_leq,
    qnorm,
    qnorm_leq,
    sym_dist,
    sym_dist_leq,
    sym_dist_sq,
)
from .cutproject import (
    Box,
    ModelSet,
    RegularityReport,
    Scheme,
    check_irreducibility,
    check_window_regular,
    generate_model_set,
    periodic_control_model_set,
)
from .bounds import (
    ClassifiabilityChecklist,
    Evidence,
    build_checklist,
    hull_dim_bound,
    nuclear_dim_bound,
    nuclear_dim_from_tube,
    tube_dim_bound,
)
from .serialize import (
    content_hash,
    read_model_set,
    write_model_set,
)

__version__ = "0.1.0"

_LAZY = {
    "analysis": (
        "DeloneReport",
        "PatchCatalog",
        "PeriodReport",
        "RepetitivityReport",
        "SeparationResult",
        "complexity_table",
        "covering_radius_estimate",
        "delone_report",
        "patch_at",
        "patch_catalog",
        "period_search",
        "repetitivity_radii",
        "separation",
    ),
    "growth": (
        "BallTable",
        "CoverReport",
        "FitReport",
        "GenSet",
        "bfs_balls",
        "fit_growth_exponent",
        "greedy_maximal_separated",
        "verify_cover",
    ),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    mod = _LAZY_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULE))


__all__ = [
    "ApercutError",
    "BudgetExceededError",
    "EmptyIntervalError",
    "ErosionError",
    "FieldMismatchError",
    "KindMismatchError",
    "ProvenanceError",
    "WindowError",
    "QuadNum",
    "RingSpec",
    "RingVariant",
    "conjugate",
    "enumerate_ring_in_rectangle",
    "exact_sign",
    "in_ring",
    "Family",
    "GroupKind",
    "GroupPoint",
    "box_volume",
    "qdist_leq",
    "qnorm",
    "qnorm_leq",
    "sym_dist",
    "sym_dist_leq",
    "sym_dist_sq",
    "Box",
    "ModelSet",
    "RegularityReport",
    "Scheme",
    "check_irreducibility",
    "check_window_regular",
    "generate_model_set",
    "periodic_control_model_set",
    "DeloneReport",
    "PatchCatalog",
    "PeriodReport",
    "RepetitivityReport",
    "SeparationResult",
    "complexity_table",
    "covering_radius_estimate",
    "delone_report",
    "patch_at",
    "patch_catalog",
    "period_search",
    "repetitivity_radii",
    "separation",
    "BallTable",
    "CoverReport",
    "FitReport",
    "GenSet",
    "bfs_balls",
    "fit_growth_exponent",
    "greedy_maximal_separated",
    "verify_cover",
    "ClassifiabilityChecklist",
    "Evidence",
    "build_checklist",
    "hull_dim_bound",
    "nuclear_dim_bound",
    "nuclear_dim_from_tube",
    "tube_dim_bound",
    "content_hash",
    "read_model_set",
    "write_model_set",
    "__version__",
]
