"""Cyclic rotation of the coefficient alphabet and its orbit-sum identity.

Rotating every coordinate through the k-cycle d_1 -> d_2 -> ... -> d_k -> d_1
and summing the k rotated series telescopes each coordinate to sum(D), so for
zero-sum alphabets the orbit sum vanishes identically and every orbit contains
both a certified-nonnegative and a certified-nonpositive member at each x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coefficients import FinitePrefix
from .errors import ConfigError, PreconditionError
from .series_eval import BoundedValue, _eval_polynomial, check_finite_sums

__all__ = ["SignWitness", "apply_perm", "orbit_sum", "orbit_values", "sign_witness"]


def apply_perm(prefix: FinitePrefix, j: int) -> FinitePrefix:
    """Rotate every coordinate j steps along the alphabet cycle (0 <= j < k)."""
    k = prefix.model.k
    if not (0 <= j < k):
        raise ConfigError(f"rotation count must lie in [0, {k}), got {j}")
    if j == 0:
        return prefix
    return FinitePrefix(prefix.model, (prefix.index_array + j) % k)


def orbit_values(prefix: FinitePrefix, x) -> list:
    """Truncated series values of all k rotated prefixes at x.

    Exact rationals for Fraction x.  For float x the index array is read
    through the value table of each rotated alphabet (index i maps to the
    value of (i + j) mod k) and summed by the float kernel of ``eval_prefix``,
    after a check that k * max|d| * N, which bounds the orbit sum, is finite.
    """
    k = prefix.model.k
    if isinstance(x, Fraction):
        if not (0 <= x < 1):
            raise ConfigError(f"x must lie in [0, 1), got {x}")
        out = []
        for j in range(k):
            rotated = apply_perm(prefix, j)
            out.append(sum((a * x ** n for n, a in enumerate(rotated.values, 1)), Fraction(0)))
        return out
    table, max_abs = prefix.model.floats, prefix.model.max_abs_float
    check_finite_sums(k * max_abs, len(prefix))
    return [_eval_polynomial(table[(np.arange(k) + j) % k][prefix.index_array], x, max_abs)
            for j in range(k)]


def orbit_sum(prefix: FinitePrefix, x):
    """Sum of the k rotated truncated series at x.

    Equals sum(D) * (x - x^(N+1)) / (1 - x) identically; exact for Fraction x,
    within rounding slack for float x.
    """
    vals = orbit_values(prefix, x)
    if isinstance(x, Fraction):
        return sum(vals, Fraction(0))
    return sum(v.value for v in vals)


@dataclass(frozen=True)
class SignWitness:
    """Orbit indices certified >= 0 and <= 0 (within enclosure slack) at x."""

    nonneg_index: int
    nonpos_index: int
    values: tuple[BoundedValue, ...]


def sign_witness(prefix: FinitePrefix, x: float) -> SignWitness:
    """For a zero-sum alphabet, exhibit orbit members of both signs at x.

    A member counts as nonnegative when its certified upper bound is >= 0 and
    as nonpositive when its certified lower bound is <= 0; because the exact
    orbit values sum to zero, both always exist (possibly the same index).
    """
    if prefix.model.coefficient_sum != 0:
        raise PreconditionError(
            "sign_witness needs a zero-sum coefficient set "
            f"(sum is {prefix.model.coefficient_sum})"
        )
    vals = orbit_values(prefix, x)
    hi = max(range(len(vals)), key=lambda j: vals[j].value)
    lo = min(range(len(vals)), key=lambda j: vals[j].value)
    if vals[hi].upper < 0 or vals[lo].lower > 0:
        raise RuntimeError("enclosure slack failed to cover the orbit identity")
    return SignWitness(nonneg_index=hi, nonpos_index=lo, values=tuple(vals))
