"""Truncated power-series evaluation with a rigorous enclosure of the full sum.

Every evaluation returns a value plus two one-sided error budgets: a geometric
tail radius max|d| * x^(N+1)/(1-x) covering the unsummed terms of *any*
coefficient sequence, and a rounding slack covering accumulated float error.
The true series value is certified to lie in [value - tail - slack,
value + tail + slack].
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional

import numpy as np

from .coefficients import FinitePrefix
from .errors import BudgetExceededError, ConfigError

__all__ = [
    "BoundedValue",
    "DEFAULT_TERM_BUDGET",
    "TERM_BUDGET_ENV",
    "WalkLowerBound",
    "check_finite_sums",
    "check_term_budget",
    "check_terms",
    "eval_abel_form",
    "eval_prefix",
    "eval_to_eps",
    "eval_truncated",
    "lower_bound_from_positive_walk",
    "partial_sums",
    "required_terms",
    "rounding_slack",
    "tail_bound",
    "term_budget",
]

DEFAULT_TERM_BUDGET = 50_000_000
TERM_BUDGET_ENV = "RANDSERIES_TERM_BUDGET"

_EPS = 2.0 ** -52
# Powers x^(h+i) are formed as x^h * x^i: the ladder x^1..x^_LADDER is one
# cumulative product per evaluation and each row head x^h one direct pow.
# Terms are formed and summed in cache-resident blocks of _BLOCK.
_LADDER = 1 << 12
_BLOCK = 1 << 16
# Outward inflation for tail bounds: generously covers libm pow slop even for
# exponents ~1e8, while perturbing only the 13th digit of the bound.
_INFLATE = 1.0 + 2.0 ** -40
_TINY = 1e-300


def term_budget() -> int:
    """The per-evaluation term budget: RANDSERIES_TERM_BUDGET, else the default."""
    env = os.environ.get(TERM_BUDGET_ENV)
    if env:
        try:
            return int(float(env))
        except (ValueError, OverflowError):
            raise ConfigError(f"{TERM_BUDGET_ENV} must be a number, got {env!r}") from None
    return DEFAULT_TERM_BUDGET


@dataclass(frozen=True)
class BoundedValue:
    """A truncated series value with certified two-sided error radii."""

    x: float
    n_terms: int
    value: float
    tail_radius: float
    rounding_slack: float

    @property
    def lower(self) -> float:
        return self.value - self.tail_radius - self.rounding_slack

    @property
    def upper(self) -> float:
        return self.value + self.tail_radius + self.rounding_slack

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 <= x < 1.0) or math.isnan(x):
        raise ConfigError(f"x must lie in [0, 1), got {x!r}")
    return x


def tail_bound(max_abs: float, x: float, n_terms: int) -> float:
    """Outward-rounded bound max|d| * x^(N+1) / (1-x) on the unsummed tail."""
    if x <= 0.0 or max_abs == 0.0:
        return 0.0
    return max_abs * x ** (n_terms + 1) / (1.0 - x) * _INFLATE + _TINY


def rounding_slack(n_terms: int, abs_sum: float) -> float:
    """Bound 4 * N * eps_machine * sum|a_n x^n| on the float error of an N-term sum.

    With u = eps_machine / 2 the unit roundoff, it dominates every float error
    source of the evaluations here, each relative to sum|a_n x^n|:

    - coefficient mirroring: each float a_n is within u of the exact value;
    - the power ladder: x^i for i <= B (B = 4096) is a cumulative product
      with at most B-1 roundings, and never more than n-1 for x^n;
    - the row heads: x^h (h a positive multiple of B) is one direct ``pow``,
      within one ulp (2u); the head x^0 = 1 is exact;
    - the product x^h * x^i and the product with a_n: one rounding each;
    - the block sums: pairwise sums of at most N terms (below (N-1)u), added
      with a correctly rounded ``math.fsum`` (one more u).

    A power carries at most N - 1 roundings when N <= B (its head is exact)
    and at most B + 2 otherwise.  To first order the total is then below
    (2N + 1)u for N <= B and (N + B + 4)u < (2N + 4)u for N > B, which
    8Nu = 4 * N * eps_machine covers with room to spare (Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 3.1).  The 1e-300 floor
    covers underflow in the powers.
    """
    return 4.0 * n_terms * _EPS * abs_sum + _TINY


def check_finite_sums(max_abs: float, n_terms: int) -> None:
    """Raise ConfigError unless max|d| * N, which bounds every partial sum, is finite.

    Called before any summation, so an overflowing sum fails loudly instead of
    yielding an inf/NaN enclosure (or a numpy overflow warning).
    """
    if not math.isfinite(max_abs * n_terms):
        raise ConfigError(f"{n_terms} terms of size up to {max_abs!r} overflow binary64 sums")


def _power_sum(coeffs: np.ndarray, x: float) -> tuple[float, float]:
    """Return (sum of a_n x^n, sum of |a_n| x^n) for n = 1..len(coeffs).

    Term n = h + i (1 <= i <= B, h a multiple of B = _LADDER) takes the power
    x^h * x^i: the ladder x^1..x^B is one cumulative product per call and each
    row head x^h one direct pow, so no power carries more than B + 2
    roundings however long the sum (see ``rounding_slack``).  Powers and then
    terms are formed in place in one reused buffer of _BLOCK entries, each
    block is summed pairwise, and the block sums are added with ``math.fsum``.
    """
    n = coeffs.shape[0]
    width = min(n, _LADDER)
    ladder = np.cumprod(np.full(width, x))
    buf = np.empty(min(n, _BLOCK))
    sums: list[float] = []
    abs_sums: list[float] = []
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        full, rest = divmod(m, width)
        heads = np.array([x ** h for h in range(start, start + m, width)])
        np.multiply(heads[:full, None], ladder, out=buf[:full * width].reshape(full, width))
        if rest:
            np.multiply(ladder[:rest], heads[full], out=buf[full * width:m])
        block = buf[:m]
        np.multiply(coeffs[start:start + m], block, out=block)
        sums.append(float(block.sum()))
        np.abs(block, out=block)
        abs_sums.append(float(block.sum()))
    return math.fsum(sums), math.fsum(abs_sums)


def eval_truncated(stream, x: float, n_terms: int) -> BoundedValue:
    """Evaluate the first N terms of the stream's series at x with certified radii."""
    x = _check_x(x)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    max_abs = stream.model.max_abs_float
    if x == 0.0:
        return BoundedValue(x, n_terms, 0.0, 0.0, 0.0)
    check_finite_sums(max_abs, n_terms)
    coeffs = stream.float_coefficients(n_terms)
    value, abs_sum = _power_sum(coeffs, x)
    return BoundedValue(x, n_terms, value, tail_bound(max_abs, x, n_terms),
                        rounding_slack(n_terms, abs_sum))


def eval_prefix(prefix: FinitePrefix, x: float) -> BoundedValue:
    """Evaluate a finite prefix polynomial (no tail: the series stops at N)."""
    return _eval_polynomial(prefix.floats, x, prefix.model.max_abs_float)


def _eval_polynomial(coeffs: np.ndarray, x: float, max_abs: float) -> BoundedValue:
    """Evaluate sum a_n x^n over float coefficients a_1..a_N, |a_n| <= max_abs, with no tail."""
    x = _check_x(x)
    n = coeffs.shape[0]
    if x == 0.0:
        return BoundedValue(x, n, 0.0, 0.0, 0.0)
    check_finite_sums(max_abs, n)
    value, abs_sum = _power_sum(coeffs, x)
    return BoundedValue(x, n, value, 0.0, rounding_slack(n, abs_sum))


def required_terms(max_abs: float, x: float, eps: float) -> int:
    """Minimal N with the certified tail bound at most eps."""
    x = _check_x(x)
    if not eps > 0.0:
        raise ConfigError(f"eps must be positive, got {eps!r}")
    if x == 0.0 or max_abs == 0.0:
        return 1
    target = eps * (1.0 - x) / max_abs
    if target >= 1.0:
        n = 1
    else:
        n = max(math.ceil(math.log(target) / math.log(x)) - 1, 1)
    # the log formula is float-approximate; settle against the outward bound
    while tail_bound(max_abs, x, n) > eps:
        n += 1
    while n > 1 and tail_bound(max_abs, x, n - 1) <= eps:
        n -= 1
    return n


def check_terms(n_terms: int, context: str) -> None:
    """Raise BudgetExceededError if one evaluation of N terms exceeds the term budget."""
    limit = term_budget()
    if n_terms > limit:
        raise BudgetExceededError(n_terms, limit, context=context)


def check_term_budget(max_abs: float, points: Iterable, what: str) -> None:
    """Check every (x, eps) point an operation will evaluate, before the first one.

    A point's term count depends only on (max|d|, x, eps), never on the
    coefficients, so one check decides for every stream of the model.
    """
    for i, (x, eps) in enumerate(points):
        n = required_terms(max_abs, x, eps)
        check_terms(n, f"{what} point {i}, x={x!r}")
        check_finite_sums(max_abs, n)


def eval_to_eps(stream, x: float, eps: float) -> BoundedValue:
    """Evaluate with the minimal truncation whose tail radius is at most eps.

    Raises:
        BudgetExceededError: if the required truncation exceeds the term
            budget; the error reports the required N instead of silently
            truncating.
    """
    n = required_terms(stream.model.max_abs_float, x, eps)
    check_terms(n, f"eval_to_eps at x={x!r}")
    return eval_truncated(stream, x, n)


def partial_sums(prefix: FinitePrefix) -> tuple[Fraction, ...]:
    """Exact partial sums S_1..S_N of the prefix coordinates."""
    return tuple(accumulate(prefix.values))


def eval_abel_form(prefix: FinitePrefix, x):
    """Partial-summation form sum S_n (x^n - x^(n+1)) + S_N x^(N+1).

    Algebraically identical to the direct truncated sum; with a Fraction
    argument the identity is exact, with a float argument both forms agree to
    rounding error.
    """
    n = len(prefix)
    if isinstance(x, Fraction):
        if not (0 <= x < 1):
            raise ValueError(f"x must lie in [0, 1), got {x}")
        s = partial_sums(prefix)
        total = sum((s[i] * (x ** (i + 1) - x ** (i + 2)) for i in range(n)), Fraction(0))
        return total + s[-1] * x ** (n + 1)
    x = _check_x(x)
    if x == 0.0:
        return 0.0
    check_finite_sums(prefix.model.max_abs_float * n, n)   # |S_n| <= max|d| * N
    sums = np.cumsum(prefix.floats)
    core = _power_sum(sums, x)[0] * (1.0 - x)
    return core + float(sums[-1]) * x ** (n + 1)


@dataclass(frozen=True)
class WalkLowerBound:
    """Outcome of the partial-sum positivity check behind the Abel lower bound."""

    threshold: Fraction
    bound: float
    holds: bool
    first_violation: Optional[int]


def lower_bound_from_positive_walk(
    prefix: FinitePrefix, x: float, m: int, min_value=None
) -> WalkLowerBound:
    """Certified lower bound m*minD*x for the Abel form, when every S_l > m*minD.

    The partial-sum comparison is exact (rationals); the returned bound is
    rounded downward.  If the precondition fails, ``first_violation`` is the
    first index l with S_l <= m*minD and the bound is not certified.
    """
    x = float(x)
    if not (0.0 < x < 1.0):
        raise ValueError(f"x must lie in (0, 1), got {x!r}")
    threshold = m * (Fraction(min_value) if min_value is not None else prefix.model.min_value)
    first_violation = None
    s = Fraction(0)
    for l, a in enumerate(prefix.values, start=1):
        s += a
        if s <= threshold:
            first_violation = l
            break
    bound = float(threshold) * x
    bound = math.nextafter(math.nextafter(bound, -math.inf), -math.inf)
    return WalkLowerBound(threshold, bound, first_violation is None, first_violation)
