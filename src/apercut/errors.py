"""Exception types shared across the package, the element budget that
`check_budget` enforces, and the int64 bound `LIMIT` of the numpy integer
kernels.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies.
"""

from __future__ import annotations

import os

DEFAULT_ELEMENT_BUDGET = 50_000_000
BUDGET_ENV_VAR = "APERCUT_BUDGET"

# `lattice` keeps integer arrays int64 while every value is known to stay
# below LIMIT and moves them to Python ints beyond it (`lattice.int_array`);
# word balls use Python ints throughout.
LIMIT = 1 << 62


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
