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
from .errors import ConfigError, PreconditionError, check_int
from .series_eval import BoundedValue, eval_prefix

__all__ = ["SignWitness", "apply_perm", "orbit_sum", "orbit_values", "sign_witness"]


def apply_perm(prefix: FinitePrefix, j: int) -> FinitePrefix:
    """Rotate every coordinate j steps along the alphabet cycle (0 <= j < k)."""
    k = prefix.model.k
    j = check_int(j, "rotation count")
    if not (0 <= j < k):
        raise ConfigError(f"rotation count must lie in [0, {k}), got {j}")
    if j == 0:
        return prefix
    idx = prefix.index_array   # the k-entry table keeps its type: no wrap-around
    return FinitePrefix(prefix.model, ((np.arange(k) + j) % k).astype(idx.dtype)[idx])


def orbit_values(prefix: FinitePrefix, x) -> list:
    """``eval_prefix`` of all k rotated prefixes at x: exact for Fraction x."""
    return [eval_prefix(apply_perm(prefix, j), x) for j in range(prefix.model.k)]


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
