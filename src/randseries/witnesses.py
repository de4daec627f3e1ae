"""Explicit cylinder witnesses forcing boundary behaviour from a finite prefix.

``witness_positive`` extends a prefix with a run of max(D) long enough that
*every* continuation of the extended prefix keeps f(x) > m at an explicit
x < 1, no matter how adversarial the tail; the certificate inequality is
checked with outward float rounding.  ``witness_nonzero_coordinate`` pins one
nonzero coordinate beyond a given index, which separates the cylinder from all
eventually-zero sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .coefficients import CoefficientModel, FinitePrefix
from .errors import ConfigError, PreconditionError, WitnessImpossibleError, check_int, check_real
from .series_eval import check_terms, required_terms, rounding_slack, tail_bound

__all__ = [
    "Cylinder",
    "DEFAULT_GRID_SIZE",
    "PositiveWitness",
    "PrefixInfimum",
    "prefix_infimum",
    "witness_nonzero_coordinate",
    "witness_positive",
]

DEFAULT_GRID_SIZE = 1 << 16
_MAX_T_EXPONENT = 52          # 1 - 2^-t stays strictly below 1.0 in binary64
_BELOW_ONE = math.nextafter(1.0, 0.0)   # a tail bound at most this is below 1

_up = lambda v: math.nextafter(v, math.inf)
_dn = lambda v: math.nextafter(v, -math.inf)


def _pow_up(x: float, n: int) -> float:
    return _up(_up(x ** n))


def _pow_dn(x: float, n: int) -> float:
    return max(_dn(_dn(x ** n)), 0.0)


@dataclass(frozen=True)
class PrefixInfimum:
    """Grid estimate and certified lower bound of inf over (0,1) of the prefix polynomial."""

    prefix: FinitePrefix
    estimate: float           # minimum over the grid (an upper bound for the inf)
    lower_bound: float        # certified: inf over (0,1) is >= lower_bound
    minimizer: float
    grid_size: int


def prefix_infimum(prefix: FinitePrefix, grid_size: int = DEFAULT_GRID_SIZE) -> PrefixInfimum:
    """Bound inf_{x in (0,1)} sum b_n x^n via a uniform grid plus Lipschitz slack.

    With grid spacing 1/G and |p'| <= L = sum n|b_n| on [0,1], the closed-grid
    minimum minus L/(2G) lies below the infimum over the open interval.
    """
    if len(prefix) < 1:
        raise ConfigError("prefix must have at least one coordinate")
    g = check_int(grid_size, "grid_size", 1)
    check_terms(len(prefix) * (g + 1), "prefix infimum cells (prefix length x grid points)")
    coeffs = prefix.floats
    xs = np.arange(g + 1, dtype=np.float64) / g
    vals = np.zeros_like(xs)
    # Horner on the degree-N polynomial with zero constant term
    for c in coeffs[::-1]:
        vals = vals * xs + c
    vals *= xs
    i = int(np.argmin(vals))
    estimate = float(vals[i])
    lipschitz = float(sum((n + 1) * abs(c) for n, c in enumerate(coeffs.tolist())))
    eval_slack = rounding_slack(len(prefix), float(np.abs(coeffs).sum()))
    lower = _dn(estimate - _up(lipschitz / (2.0 * g)) - eval_slack)
    return PrefixInfimum(prefix, estimate, lower, float(xs[i]), g)


def _geom_sum_dn(x: float, lo: int, hi: int) -> float:
    """Lower bound for sum_{n=lo}^{hi} x^n, 0 < x < 1, with 1-x exact."""
    if lo > hi:
        return 0.0
    num = _dn(_pow_dn(x, lo) - _pow_up(x, hi + 1))
    if num <= 0.0:
        return 0.0
    return _dn(num / (1.0 - x))


@dataclass(frozen=True)
class PositiveWitness:
    """Certificate that every tail extension of the padded prefix exceeds m at x."""

    prefix: FinitePrefix
    target: float
    r_lower: float            # certified lower bound of the prefix-polynomial infimum
    run_end: int              # M: positions len(prefix)+1 .. N are set to max D
    t_exponent: int           # x = 1 - 2^-t
    x: float
    n_fixed: int              # N: last pinned coordinate
    margin: float             # certified: f(x) - m >= margin for every tail

    def padded_indices(self) -> tuple[int, ...]:
        """Value indices of the pinned coordinates 1..N (prefix then max-D run).

        Raises:
            BudgetExceededError: if N exceeds the work budget; checked before
                the tuple is built.
        """
        check_terms(self.n_fixed, "witness padded indices")
        model = self.prefix.model
        top = model.values.index(model.max_value)
        return self.prefix.indices + (top,) * (self.n_fixed - len(self.prefix))


def witness_positive(prefix: FinitePrefix, m: float, *,
                     grid_size: int = DEFAULT_GRID_SIZE) -> PositiveWitness:
    """Build a certified witness forcing f(x) > m on a whole cylinder.

    Following the hedge-then-pad construction: bound the prefix polynomial
    below by R, pick M with R + maxD*(M - j) comfortably above m+1, push x up
    the ladder {1 - 2^-t} until the partial geometric sum certifies
    R + maxD * sum_{j+1}^{M} x^n > m + 1, then pin coordinates up to the
    minimal N > M at which any all-min(D) tail costs less than 1.

    Raises:
        ConfigError: unless m is finite.
        WitnessImpossibleError: when max(D) <= 0, so no padding can force
            arbitrarily large values.
        PreconditionError: when no x on the ladder certifies the target, as
            for targets near the largest float.
    """
    m = check_real(m, "target")
    model = prefix.model
    max_d = model.max_value
    if max_d <= 0:
        raise WitnessImpossibleError(
            "witness_positive needs max(D) > 0; "
            "for nonpositive alphabets only the eventually-zero case applies"
        )
    j = len(prefix)
    r_lower = prefix_infimum(prefix, grid_size).lower_bound
    max_d_f = float(max_d)

    # M - j > (m + 1 - R)/maxD, with one extra unit so the limit inequality
    # holds with margin maxD and the x-search below terminates quickly.
    need = (Fraction(m) + 1 - Fraction(r_lower)) / max_d
    run = max(1, math.floor(need) + 2)
    big_m = j + run

    target = m + 1.0
    t = None
    for t_try in range(1, _MAX_T_EXPONENT + 1):
        x_try = 1.0 - 2.0 ** -t_try
        lhs = _dn(r_lower + _dn(max_d_f * _geom_sum_dn(x_try, j + 1, big_m)))
        if lhs > target:
            t = t_try
            break
    if t is None:
        raise PreconditionError(f"no x = 1 - 2^-t with t <= {_MAX_T_EXPONENT} "
                                f"certifies target {m} in binary64")
    x = 1.0 - 2.0 ** -t

    # minimal N > M at which an all-min(D) tail, neg * x^(N+1)/(1-x), is below 1
    neg = float(max(-model.min_value, 0))
    n_fixed = max(big_m + 1, required_terms(neg, x, _BELOW_ONE))
    lhs_full = _dn(r_lower + _dn(max_d_f * _geom_sum_dn(x, j + 1, n_fixed)))
    lhs_full = _dn(lhs_full - tail_bound(neg, x, n_fixed))
    margin = _dn(lhs_full - m)
    if margin <= 0.0:
        raise RuntimeError("outward-rounded certificate failed; construction is inconsistent")
    return PositiveWitness(
        prefix=prefix, target=m, r_lower=r_lower,
        run_end=big_m, t_exponent=t, x=x, n_fixed=n_fixed, margin=margin,
    )


@dataclass(frozen=True)
class Cylinder:
    """Sequences with finitely many pinned coordinates (1-based positions)."""

    model: CoefficientModel
    fixed: tuple[tuple[int, int], ...]    # (position, value index), ascending

    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.fixed)

    def contains(self, indices) -> bool:
        """Membership test against the first len(indices) coordinates."""
        seq = tuple(indices)
        for pos, ix in self.fixed:
            if pos > len(seq) or seq[pos - 1] != ix:
                return False
        return True

    def pinned_value(self, position: int) -> Optional[Fraction]:
        for pos, ix in self.fixed:
            if pos == position:
                return self.model.values[ix]
        return None


def witness_nonzero_coordinate(prefix: FinitePrefix, m: int) -> Cylinder:
    """Cylinder refining the prefix that avoids all sequences vanishing from m on.

    Pins position max(j, m) + 1 to a nonzero value, so every member has a
    nonzero coordinate at an index > m and therefore beyond any claimed
    all-zero tail starting at m.
    """
    m = check_int(m, "m", 0)
    model = prefix.model
    # k >= 2 distinct values always include a nonzero one
    nonzero = next(i for i, v in enumerate(model.values) if v != 0)
    pos = max(len(prefix), m) + 1
    fixed = tuple((i + 1, ix) for i, ix in enumerate(prefix.indices)) + ((pos, nonzero),)
    return Cylinder(model, fixed)
