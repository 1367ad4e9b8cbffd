"""The package's value types, all `errors.Record` subclasses, behave as the
frozen dataclasses they replace: field order and defaults, construction,
`__post_init__` checks, equality and hash over the fields,
immutability and repr."""

from fractions import Fraction

import pytest

from apercut.analysis import (
    ClassReturn,
    DeloneReport,
    PatchCatalog,
    PatchClass,
    PeriodReport,
    RepetitivityReport,
    SeparationResult,
)
from apercut.bounds import ClassifiabilityChecklist, Evidence
from apercut.cutproject import (
    Box,
    IrreducibilityReport,
    ModelSet,
    RegularityReport,
    Scheme,
    generate_model_set,
)
from apercut.errors import KindMismatchError, Record, WindowError
from apercut.growth import BallTable, CoverReport, FitReport, GenSet
from apercut.heisenberg import Family, GroupKind, GroupPoint
from apercut.quadratic import QuadNum, RingSpec, RingVariant

H1 = GroupKind(Family.HEISENBERG, 1)
E1 = GroupKind(Family.EUCLIDEAN, 1)
ONE = Fraction(1)
UNIT = ((Fraction(-1), ONE),)
SEP = SeparationResult(1.0, ONE, (0, 1), (Fraction(0), Fraction(2)))
CATALOG = PatchCatalog(ONE, (PatchClass(ONE, ((0, 0),), (0,), E1, 2, 1),), 1)

# Each record type with one value per field, in the dataclass field order.
RECORDS = [
    (GroupKind, dict(family=Family.HEISENBERG, rank=1)),
    (GroupPoint, dict(kind=H1, coords=(QuadNum(1, 2, 2), 0, Fraction(1, 2)))),
    (RingSpec, dict(d=5, variant=RingVariant.FULL_INTEGERS)),
    (Box, dict(intervals=UNIT)),
    (Scheme, dict(kind=E1, ring=RingSpec(2))),
    (ModelSet, dict(scheme=Scheme(E1, RingSpec(2)), window=Box(UNIT),
                    region=Box(UNIT), rows=((0, 0), (1, 0)), e=1)),
    (RegularityReport, dict(interior_nonempty=True, boundary_clear=False,
                            boundary_witnesses=((QuadNum(1, 0, 2),),))),
    (IrreducibilityReport, dict(sample_size=3, density_fractions=((1, 0.5),),
                                sample_bound=Fraction(5))),
    (SeparationResult, dict(separation=1.0, separation_sq=ONE,
                            certificate=(0, 1),
                            bracket=(Fraction(0), Fraction(2)))),
    (DeloneReport, dict(separation=SEP, covering_radius=None,
                        grid_step=None, erosion=None)),
    (PatchClass, dict(radius=ONE, rows=((0, 0),), centers=(0, 2), kind=E1,
                      d=2, e=1)),
    (PatchCatalog, dict(radius=ONE, classes=CATALOG.classes,
                        center_count=1)),
    (ClassReturn, dict(class_index=0, multiplicity=2, return_radius=1.5,
                       lower_bound_only=False)),
    (RepetitivityReport, dict(radius=ONE, per_class=(), max_return_radius=0.0,
                              any_lower_bound=True)),
    (PeriodReport, dict(gauge_bound=ONE, erosion=ONE, core_size=3,
                        candidates_tested=0, nontrivial_periods=())),
    (GenSet, dict(kind=E1, generators=((-1,), (1,)))),
    (BallTable, dict(kind=E1, generators=((-1,), (1,)), counts=(1, 3))),
    (FitReport, dict(exponent=1.0, residual=0.0, k_min=1,
                     doubling_ratios=((1, 2.5),), c_estimates=((1, 3.0),))),
    (CoverReport, dict(a=2, n=1, packing_size=5, bound=9, bound_holds=True,
                       covered=True, packing_disjoint=True, volume_check=True,
                       d_used=2, ball_n=5, ball_2n=13, ball_an=13,
                       ball_a1n=25, separated_set=((0, 0), (2, 1)))),
    (ClassifiabilityChecklist, dict(
        flc_evidence=Evidence.EVIDENCE_ONLY,
        delone_evidence=Evidence.EVIDENCE_ONLY,
        repetitivity_evidence=Evidence.FAILED,
        aperiodicity_evidence=Evidence.EVIDENCE_ONLY, window_regular=True,
        dim_bound_used=2, d_g=4, tube_dim=43922, nuclear_dim=131768,
        sample_size=81, model_set_hash=None)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_fields_in_order_by_position_or_keyword(cls, fields):
    assert issubclass(cls, Record)
    assert cls._fields == tuple(fields)
    by_position = cls(*fields.values())
    by_keyword = cls(**dict(reversed(fields.items())))
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_compared_fields(cls, fields):
    record = cls(**fields)
    values = tuple(fields.values())
    # a frozen dataclass hashes the tuple of its fields
    assert hash(record) == hash(values)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != values
    assert record.__eq__(values) is NotImplemented
    assert record != object()


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_repr_names_the_compared_fields(cls, fields):
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields):
    record = cls(**fields)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(record, name)
    assert record == cls(**fields)
    assert not hasattr(record, "extra")


@pytest.mark.parametrize("cls,fields", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, fields):
    values = list(fields.values())
    first = next(iter(fields))
    with pytest.raises(TypeError, match="missing argument"):
        cls()
    with pytest.raises(TypeError, match="takes"):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="unexpected argument 'bogus'"):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError, match=f"multiple values for argument "
                                        f"'{first}'"):
        cls(*values, **{first: values[0]})


def test_exact_reprs():
    assert repr(H1) == (
        "GroupKind(family=<Family.HEISENBERG: 'heisenberg'>, rank=1)")
    assert repr(RingSpec(2)) == (
        "RingSpec(d=2, variant=<RingVariant.Z_SQRT_D: 'zsqrt'>)")
    assert repr(Box(((0, 1),))) == (
        "Box(intervals=((Fraction(0, 1), Fraction(1, 1)),))")
    assert repr(FitReport(2.0, 0.5, 1, ())) == (
        "FitReport(exponent=2.0, residual=0.5, k_min=1, doubling_ratios=(), "
        "c_estimates=())")


def test_defaults():
    assert RingSpec.variant is RingVariant.Z_SQRT_D
    assert RingSpec(2) == RingSpec(d=2) == RingSpec(2, RingVariant.Z_SQRT_D)
    assert RingSpec(2).variant is RingVariant.Z_SQRT_D
    fit = FitReport(2.0, 0.5, 1, ())
    assert fit.c_estimates == ()
    assert fit == FitReport(2.0, 0.5, 1, (), c_estimates=())
    assert FitReport(2.0, 0.5, 1, (), ((1, 1.0),)) != fit
    assert not hasattr(GroupKind, "rank")


def test_fields_differ():
    assert H1 != GroupKind(Family.EUCLIDEAN, 1)
    assert H1 != GroupKind(Family.HEISENBERG, 2)
    assert RingSpec(5) != RingSpec(5, RingVariant.FULL_INTEGERS)
    assert len({H1, GroupKind.heisenberg(1), GroupKind.euclidean(1)}) == 2


@pytest.mark.parametrize("make,error", [
    (lambda: GroupKind(Family.EUCLIDEAN, 0), ValueError),
    (lambda: GroupPoint(H1, (0, 0)), ValueError),
    (lambda: GroupPoint(H1, (0, 0, 0.5)), KindMismatchError),
    (lambda: RingSpec(4), ValueError),
    (lambda: RingSpec(3, RingVariant.FULL_INTEGERS), ValueError),
    (lambda: Box(((1, 0),)), WindowError),
    (lambda: GenSet(E1, ()), ValueError),
    (lambda: GenSet(E1, ((0,), (1,), (-1,))), ValueError),
    (lambda: GenSet(E1, ((1,),)), ValueError),
], ids=["rank-0", "coord-count", "float-coord", "d-square", "full-ring-d",
        "empty-interval", "no-generator", "identity", "asymmetric"])
def test_post_init_checks(make, error):
    with pytest.raises(error):
        make()


def test_box_post_init_normalises_its_intervals():
    box = Box(intervals=[("-1/2", 1)])
    assert box.intervals == ((Fraction(-1, 2), ONE),)
    assert type(box.intervals) is tuple
    assert box == Box(((Fraction(-1, 2), 1),))


def test_model_set_views_are_cached():
    scheme = Scheme(GroupKind.euclidean(1), RingSpec(2))
    ms = generate_model_set(scheme, Box(((Fraction(-9, 10), Fraction(11, 10)),)),
                            Box(((-5, 5),)))
    points = ms.points
    assert ms.points is points and len(points) == len(ms)
    assert ms.internal_points is ms.internal_points
    assert ms.lattice is ms.lattice
    assert ms.grid is ms.grid
    # generate keeps the axes it built the sample from
    assert set(vars(ms)) == {*ModelSet._fields, "points", "internal_points",
                             "lattice", "axes", "grid"}
    # the cached views take no part in equality or hash
    fresh = ModelSet(*(getattr(ms, f) for f in ModelSet._fields))
    assert fresh == ms and hash(fresh) == hash(ms)
