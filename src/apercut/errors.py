"""Exception types shared across the package, the element budget that
`check_budget` enforces, and `Record`, the base of the package's immutable
value types.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies.
"""

from __future__ import annotations

import os

DEFAULT_ELEMENT_BUDGET = 50_000_000
BUDGET_ENV_VAR = "APERCUT_BUDGET"


class Record:
    """An immutable value type, the package's stand-in for a frozen
    dataclass that generates no code when a subclass is created.

    A subclass names its fields as annotations, in order; a class attribute
    of the same name is that field's default. An instance takes the fields
    positionally or by keyword, then runs `__post_init__`. Two instances
    are equal, and hash alike, when their classes are the same and their
    fields equal. Assigning or deleting an attribute raises
    AttributeError; `functools.cached_property` still works, since it
    writes the instance dictionary directly.
    """

    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        name, fields = cls.__qualname__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"got {len(args)}")
        values = dict(zip(fields, args))
        for field in fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif hasattr(cls, field):
                values[field] = getattr(cls, field)
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            key = next(iter(kwargs))
            how = "multiple values for" if key in fields else "unexpected"
            raise TypeError(f"{name}() got {how} argument {key!r}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ApercutError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatchError(ApercutError, ValueError):
    """Arithmetic combining numbers from different quadratic fields."""


class KindMismatchError(ApercutError, ValueError):
    """Group operation combining points of different kinds or scalar modes."""


class EmptyIntervalError(ApercutError, ValueError):
    """An interval with lower endpoint above the upper endpoint."""


class WindowError(ApercutError, ValueError):
    """A window unusable for model-set generation (e.g. empty interior)."""


class ErosionError(ApercutError, ValueError):
    """An analysis domain problem: eroded core empty, or erosion smaller
    than the translation bound it must protect."""


class ProvenanceError(ApercutError, ValueError):
    """Content hash mismatch between reports that must describe one input."""


class BudgetExceededError(ApercutError, RuntimeError):
    """An enumeration grew past the configured element budget."""


def element_budget(override: int | None = None) -> int:
    """The element budget: the override (the CLI's --budget), else
    $APERCUT_BUDGET, else the default. A budget is a non-negative integer;
    0 admits no element. Anything else raises a ValueError that names
    where the value came from."""
    if override is not None:
        where, value = "--budget", override
    else:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if not raw:
            return DEFAULT_ELEMENT_BUDGET
        where = BUDGET_ENV_VAR
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"{where} must be a non-negative integer, "
                             f"got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{where} must be a non-negative integer, "
                         f"got {value}")
    return value


def check_budget(total: int, what: str, override: int | None = None) -> None:
    """Raise BudgetExceededError when `what`, of total elements, has more
    than `element_budget(override)`."""
    limit = element_budget(override)
    if total > limit:
        raise BudgetExceededError(f"{what} would exceed element budget {limit}")
