"""Exception types shared across the package, and its rules for integer and real arguments."""

import math
import numbers
import operator


class ConfigError(ValueError):
    """Invalid model, grid, or run configuration."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition does not hold for the input."""


class WitnessImpossibleError(ValueError):
    """No positive witness can exist for this coefficient set (max D <= 0)."""


class BudgetExceededError(RuntimeError):
    """A computation would need more work (terms, cells, walk steps) than its budget.

    Raised instead of silently truncating; ``required`` reports how large the
    computation would have to be.
    """

    def __init__(self, required: int, limit: int, context: str):
        self.required = required
        self.limit = limit
        self.context = context
        super().__init__(f"budget exceeded ({context}): required {required} > budget {limit}")


def check_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int.  Python and numpy integers pass; a bool, float, str or
    Fraction does not.  A value below ``minimum`` raises as well."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {n}")
    return n


def check_real(value, what: str, low: float = -math.inf, high: float = math.inf,
               closed_low: bool = False) -> float:
    """``value`` as a float: a Python or numpy real or a Fraction (not a bool) with
    low < value < high, or low <= value for a finite low with ``closed_low``."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"{what} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if low < value < high or closed_low and value == low:
        return value
    rule = ("be finite" if low == -math.inf and high == math.inf
            else f"lie in {'[' if closed_low else '('}{low:g}, {high:g})")
    raise ConfigError(f"{what} must {rule}, got {value!r}")
