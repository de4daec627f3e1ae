"""Certified scans of a series along a geometric grid x -> 1- and verdicts.

Verdicts are finite-scale, explicitly heuristic proxies for the asymptotic
divergence/oscillation properties (hence the "-Like" names); they rest only on
certified bounds, never on raw float values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import BudgetExceededError, ConfigError, check_real
from .series_eval import check_term_budget, eval_to_eps

__all__ = [
    "DEFAULT_EPS",
    "MAX_GRID_POINTS",
    "ScanGrid",
    "ScanReport",
    "ScanRow",
    "Verdict",
    "check_threshold",
    "scan",
    "verdict",
    "verdicts_by_depth",
]

DEFAULT_EPS = 0.01

# Tolerance for "delta >= delta_min" style comparisons on grid geometry, so a
# float ratio chain like 0.1 * 0.5**13 counts as >= 1.22e-5 when intended.
_REL_FUZZ = 1e-9

# Largest grid a scan may build; ``ScanGrid.deltas`` checks it in closed form.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class ScanGrid:
    """Geometric grid 1 - delta_start * ratio^m, descending to 1 - delta_min."""

    delta_start: float = 0.1
    ratio: float = 0.5
    delta_min: float = 1e-5

    def __post_init__(self):
        for key in ("delta_start", "ratio", "delta_min"):
            object.__setattr__(self, key, check_real(getattr(self, key), key, 0.0, 1.0))
        if not self.delta_min <= self.delta_start:
            raise ConfigError(f"delta_min must not exceed delta_start, "
                              f"got {self.delta_min!r} > {self.delta_start!r}")

    def size(self) -> int:
        """Number of grid points, in closed form: the first m with
        delta_start * ratio^m <= delta_min * (1 + _REL_FUZZ), plus one.

        It equals ``len(deltas())`` unless a product of the float chain lies
        within a few ulps of the fuzzed end, where it may differ by one.
        """
        end = self.delta_min * (1.0 + _REL_FUZZ)
        return max(math.ceil(math.log(end / self.delta_start) / math.log(self.ratio)), 0) + 1

    def deltas(self) -> list[float]:
        """Distances 1-x, strictly decreasing; the last one is exactly delta_min.

        Raises:
            BudgetExceededError: if the grid has more than MAX_GRID_POINTS
                points; checked before the list is built.
        """
        size = self.size()
        if size > MAX_GRID_POINTS:
            raise BudgetExceededError(size, MAX_GRID_POINTS, context="scan grid point count")
        out = []
        d = self.delta_start
        while d > self.delta_min * (1.0 + _REL_FUZZ):
            out.append(d)
            d *= self.ratio
        out.append(self.delta_min)
        return out

    def points(self) -> list[float]:
        return [1.0 - d for d in self.deltas()]

    def deepened(self, delta_min: float) -> "ScanGrid":
        return replace(self, delta_min=delta_min)


class Verdict(enum.Enum):
    PLUS_INFINITY_LIKE = "PlusInfinityLike"
    MINUS_INFINITY_LIKE = "MinusInfinityLike"
    OSCILLATION_LIKE = "OscillationLike"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ScanRow:
    m: int
    x: float
    delta: float
    n_terms: int
    value: float
    lower: float
    upper: float
    running_sup_lower: float
    running_inf_upper: float
    rounding_slack: float


@dataclass(frozen=True)
class ScanReport:
    rows: tuple[ScanRow, ...]

    @property
    def running_sup_lower(self) -> float:
        return self.rows[-1].running_sup_lower

    @property
    def running_inf_upper(self) -> float:
        return self.rows[-1].running_inf_upper


def scan(stream, grid: ScanGrid = ScanGrid(), eps: float = DEFAULT_EPS) -> ScanReport:
    """One certified enclosure per grid point, with running certified extrema.

    The term budget is checked at the deepest grid point, which bounds the
    others, before any evaluation; the float cache is filled once to it.
    """
    deltas = grid.deltas()
    n_max = check_term_budget(stream.model.max_abs_float, (1 - d for d in deltas), eps, "scan grid")
    stream.float_coefficients(n_max)
    rows = []
    sup_lower = -math.inf
    inf_upper = math.inf
    for m, delta in enumerate(deltas):
        x = 1.0 - delta
        bv = eval_to_eps(stream, x, eps)
        sup_lower = max(sup_lower, bv.lower)
        inf_upper = min(inf_upper, bv.upper)
        rows.append(ScanRow(m, x, delta, bv.n_terms, bv.value,
                            bv.lower, bv.upper, sup_lower, inf_upper, bv.rounding_slack))
    return ScanReport(tuple(rows))


def check_threshold(threshold: float) -> float:
    """Return a verdict threshold as a float; raise ConfigError unless finite and positive."""
    return check_real(threshold, "threshold", 0.0)


def _classify(rows: tuple[ScanRow, ...], threshold: float) -> Verdict:
    threshold = check_threshold(threshold)
    sup_lower = rows[-1].running_sup_lower
    inf_upper = rows[-1].running_inf_upper
    if sup_lower > threshold and inf_upper < -threshold:
        return Verdict.OSCILLATION_LIKE
    # "last decade": grid points within a factor 10 in depth of the deepest one
    edge = rows[-1].delta * 10.0 * (1.0 + _REL_FUZZ)
    last = [r for r in rows if r.delta <= edge]
    if sup_lower > threshold and all(r.lower > threshold for r in last):
        return Verdict.PLUS_INFINITY_LIKE
    if inf_upper < -threshold and all(r.upper < -threshold for r in last):
        return Verdict.MINUS_INFINITY_LIKE
    return Verdict.INCONCLUSIVE


def verdict(report: ScanReport, threshold: float) -> Verdict:
    """Classify a finished scan against a positive threshold T.

    OscillationLike iff both +/-T were certified-crossed; PlusInfinityLike iff
    the certified sup exceeds T and every last-decade enclosure stays above T;
    MinusInfinityLike symmetrically; otherwise Inconclusive.
    """
    return _classify(report.rows, threshold)


def verdicts_by_depth(report: ScanReport, threshold: float) -> list[tuple[float, Verdict]]:
    """Verdict of every depth-truncated prefix of the scan, one per grid row."""
    out = []
    for m in range(len(report.rows)):
        rows = report.rows[: m + 1]
        out.append((rows[-1].delta, _classify(rows, threshold)))
    return out
