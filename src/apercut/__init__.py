"""apercut: exact cut-and-project sets in Heisenberg and Euclidean groups
over real quadratic rings, with Delone/complexity analysis, word-growth and
covering experiments, and dimension-bound calculators.

Every public name is bound on first use (PEP 562), so `import apercut`
loads no submodule, and a command or script pays only for the modules whose
names it touches. None of them loads numpy."""

__version__ = "0.1.0"

_LAZY = {
    "errors": (
        "ApercutError",
        "BudgetExceededError",
        "EmptyIntervalError",
        "ErosionError",
        "FieldMismatchError",
        "KindMismatchError",
        "ProvenanceError",
        "WindowError",
    ),
    "quadratic": (
        "QuadNum",
        "RingSpec",
        "RingVariant",
        "enumerate_ring_in_rectangle",
    ),
    "heisenberg": (
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
    ),
    "cutproject": (
        "Box",
        "ModelSet",
        "RegularityReport",
        "Scheme",
        "check_irreducibility",
        "check_window_regular",
        "generate_model_set",
        "periodic_control_model_set",
    ),
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
    "bounds": (
        "ClassifiabilityChecklist",
        "Evidence",
        "build_checklist",
        "hull_dim_bound",
        "nuclear_dim_bound",
        "nuclear_dim_from_tube",
        "tube_dim_bound",
    ),
    "serialize": (
        "content_hash",
        "read_model_set",
        "write_model_set",
    ),
}
_LAZY_MODULE = {name: mod for mod, names in _LAZY.items() for name in names}

__all__ = [*_LAZY_MODULE, "__version__"]


def __getattr__(name: str):
    mod = _LAZY_MODULE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .mod import name`; unlike importlib.import_module, this shows
    # in `python -X importtime`
    value = getattr(__import__(mod, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_MODULE))
