"""Certified solutions of f(x) = y in windows approaching x = 1.

Detection walks a geometric grid in (1-x), looks for certified sign
alternations of the enclosure of f - y, and refines each alternation by
bisection.  Grid cells whose enclosure straddles zero are reported separately
and never counted, so every returned bracket carries opposite certified signs
at its endpoints and counts stay sound (if possibly incomplete).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .series_eval import MomentTable, check_term_budget, eval_to_eps

__all__ = [
    "CrossingReport",
    "POINTS_PER_DECADE",
    "RootBracket",
    "crossing_counts_by_depth",
    "find_crossings",
]

POINTS_PER_DECADE = 64
REFINE_WIDTH_FACTOR = 1e-3     # target bracket width: 1e-3 * (1 - x) locally
REFINE_BUDGET = 20             # a bracket gets at most REFINE_BUDGET + 1 extra evaluations


@dataclass(frozen=True)
class RootBracket:
    """Interval [a, b] with opposite certified signs of f - y at the ends."""

    a: float
    b: float
    sign_at_a: int
    sign_at_b: int
    y: float

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def depth_decade(self) -> int:
        """Decade of 1-x at the shallow end, e.g. 3 for 1-a ~ 1e-3."""
        return int(math.floor(-math.log10(1.0 - self.a)))


@dataclass(frozen=True)
class CrossingReport:
    y: float
    x_lo: float
    x_hi: float
    brackets: tuple[RootBracket, ...]
    indeterminate_points: tuple[float, ...]
    truncated: bool
    grid_size: int


def _detection_grid(x_lo: float, x_hi: float) -> list[float]:
    """Geometric grid in (1-x), POINTS_PER_DECADE per decade, both edges included."""
    d_hi = 1.0 - x_lo
    d_lo = 1.0 - x_hi
    n_pts = max(int(math.ceil(POINTS_PER_DECADE * math.log10(d_hi / d_lo))) + 1, 2)
    step = (d_lo / d_hi) ** (1.0 / (n_pts - 1))
    return [1.0 - d_hi * step ** i for i in range(n_pts)]


def _certified_sign(bv, y: float) -> int:
    if bv.lower > y:
        return 1
    if bv.upper < y:
        return -1
    return 0


def _refine(stream, y: float, a: float, sa: int, b: float, sb: int,
            eps: float) -> RootBracket:
    """Bisect to width <= REFINE_WIDTH_FACTOR * (1-b), keeping both certificates.

    Indeterminate midpoints are retried with a 4x tighter tail tolerance.  The
    loop evaluates while at most REFINE_BUDGET evaluations have been made, so
    a bracket gets up to REFINE_BUDGET + 1 extra evaluations; if they run
    out, the current (wider but still certified) bracket is returned.
    """
    extra = 0
    eps_local = eps
    while (b - a) > REFINE_WIDTH_FACTOR * (1.0 - b) and extra <= REFINE_BUDGET:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        s = _certified_sign(eval_to_eps(stream, mid, eps_local), y)
        extra += 1
        if s == 0:
            eps_local *= 0.25
            continue
        if s == sa:
            a = mid
        else:
            b = mid
    return RootBracket(a, b, sa, sb, y)


def find_crossings(stream, y: float, window: tuple[float, float], eps: float = 1e-3,
                   max_brackets: int = 10_000) -> CrossingReport:
    """Certified, pairwise-disjoint sign-change brackets of f - y on the window.

    Args:
        window: (x_lo, x_hi) with 0 < x_lo < x_hi < 1.
        eps: tail tolerance for the enclosures used in sign certification.
        max_brackets: stop (and flag truncation) after this many brackets, >= 1.

    The term budget is checked, and eps validated, at the deepest grid point
    (it bounds the others) before any evaluation.  Every point, refinement
    midpoints included, is then evaluated from one ``MomentTable``.
    """
    x_lo, x_hi = window
    if not (0.0 < x_lo < x_hi < 1.0):
        raise ConfigError(f"need 0 < x_lo < x_hi < 1, got {window!r}")
    if not math.isfinite(y):
        raise ConfigError(f"y must be finite, got {y!r}")
    if max_brackets < 1:
        raise ConfigError(f"max_brackets must be >= 1, got {max_brackets!r}")

    grid = _detection_grid(x_lo, x_hi)
    n_max = check_term_budget(stream.model.max_abs_float, grid, eps, "crossings grid")
    table = MomentTable(stream, n_max)
    brackets: list[RootBracket] = []
    indeterminate: list[float] = []
    truncated = False
    prev_x: Optional[float] = None
    prev_sign = 0
    for x in grid:
        s = _certified_sign(eval_to_eps(table, x, eps), y)
        if s == 0:
            indeterminate.append(x)
            continue
        if prev_sign != 0 and s != prev_sign:
            brackets.append(_refine(table, y, prev_x, prev_sign, x, s, eps))
            if len(brackets) >= max_brackets:
                truncated = True
                break
        prev_x, prev_sign = x, s
    return CrossingReport(
        y=y, x_lo=x_lo, x_hi=x_hi,
        brackets=tuple(brackets),
        indeterminate_points=tuple(indeterminate),
        truncated=truncated,
        grid_size=len(grid),
    )


def crossing_counts_by_depth(stream, y: float, depths: list[float],
                             eps: float = 1e-3) -> tuple[list[int], CrossingReport]:
    """Cumulative certified crossing counts as the window extends toward 1.

    ``depths`` are strictly decreasing values of 1-x; the k-th count is the
    number of certified brackets inside [1 - depths[0], 1 - depths[k]].  One
    scan of the full window is filtered per depth, so counts are nondecreasing
    by construction.
    """
    if not depths:
        raise ConfigError("need at least one depth")
    if any(b >= a for a, b in zip(depths, depths[1:])):
        raise ConfigError("depths must be strictly decreasing")
    report = find_crossings(stream, y, (1.0 - depths[0], 1.0 - depths[-1]), eps)
    counts = []
    for d in depths:
        edge = 1.0 - d
        counts.append(sum(1 for br in report.brackets if br.b <= edge * (1 + 1e-12)))
    return counts, report
