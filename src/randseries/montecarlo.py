"""Monte Carlo estimates of the finite-scale boundary properties.

Each sample gets its own stream keyed by (master_seed, sample_index), so
reports are a pure function of the configuration and identical for any worker
count; workers affect scheduling only.  Fractions of samples come with Wilson
95% intervals, which stay informative near 0 and 1 where the zero-one
behaviour pushes them.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .boundary_scan import ScanGrid, Verdict, scan, verdicts_by_depth
from .coefficients import CoefficientModel, MeanSign, SequenceStream
from .errors import ConfigError
from .series_eval import check_term_budget

__all__ = [
    "DiagnosticRow",
    "EstimateReport",
    "ExperimentConfig",
    "WalkPositivityEstimate",
    "estimate_properties",
    "walk_positivity",
    "wilson_interval",
    "zero_one_diagnostic",
]

# z for central 95% coverage of the standard normal
_WILSON_Z = 1.959963984540054

HIST_BIN_WIDTH = 0.5
HIST_RANGE = 100.0

_CALIBRATION_NOTE = (
    "finite-scale verdict thresholds and depth grids are calibration choices, "
    "not asymptotic constants; see README for the recorded pilot calibration"
)


def wilson_interval(successes: int, total: int, z: float = _WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return (0.0, 1.0)
    p = successes / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    spread = z * math.sqrt((p * (1.0 - p) + z * z / (4 * total)) / total) / denom
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully deterministic description of a Monte Carlo run."""

    model: CoefficientModel
    num_samples: int
    master_seed: int
    grid: ScanGrid = ScanGrid()
    threshold: float = 5.0
    eps: float = 0.01
    workers: int = 1

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError("num_samples must be >= 1")
        if self.threshold <= 0:
            raise ConfigError("threshold must be positive")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _map_samples(fn, args: Sequence, workers: int) -> list:
    """Order-preserving map; a fork pool only changes scheduling, not results."""
    if workers <= 1 or len(args) <= 1:
        return [fn(a) for a in args]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(args) // (workers * 4))
    with ctx.Pool(workers) as pool:
        return pool.map(fn, args, chunksize=chunk)


def _histogram_add(counts: dict, value: float) -> None:
    if value < -HIST_RANGE:
        counts["under"] = counts.get("under", 0) + 1
    elif value >= HIST_RANGE:
        counts["over"] = counts.get("over", 0) + 1
    else:
        idx = int(math.floor((value + HIST_RANGE) / HIST_BIN_WIDTH))
        counts[idx] = counts.get(idx, 0) + 1


def _histogram_data(counts: dict) -> dict:
    bins = sorted((k, v) for k, v in counts.items() if isinstance(k, int))
    return {
        "bin_width": HIST_BIN_WIDTH,
        "range": [-HIST_RANGE, HIST_RANGE],
        "bins": [[k, v] for k, v in bins],
        "underflow": counts.get("under", 0),
        "overflow": counts.get("over", 0),
    }


def _scan_samples(config: ExperimentConfig, grid: ScanGrid, thresholds: tuple) -> list:
    """Scan every sample's stream; the budget is checked once, before any sample."""
    check_term_budget(config.model.max_abs_float,
                      ((x, config.eps) for x in grid.points()), "scan grid")
    args = [(config.model, config.master_seed, i, grid, config.eps, thresholds)
            for i in range(config.num_samples)]
    return _map_samples(_sample_kernel, args, config.workers)


def _sample_kernel(args) -> tuple:
    """Per-threshold verdict names at every depth, plus the certified running extrema."""
    model, seed, index, grid, eps, thresholds = args
    report = scan(SequenceStream(model, seed, index), grid, eps)
    per_threshold = tuple(tuple(v.value for _, v in verdicts_by_depth(report, t))
                          for t in thresholds)
    return per_threshold, report.running_sup_lower, report.running_inf_upper


@dataclass(frozen=True)
class EstimateReport:
    config: ExperimentConfig
    depths: tuple[float, ...]
    counts: dict
    counts_by_depth: tuple[dict, ...]
    hist_sup: dict
    hist_inf: dict
    calibration_note: str = _CALIBRATION_NOTE

    # A budget overrun fails the whole run before any sample, so every sample
    # completes; the field stays so the data section's field set is stable.
    budget_errors: ClassVar[int] = 0

    @property
    def completed(self) -> int:
        return self.config.num_samples

    def fraction(self, kind: Verdict) -> float:
        return self.counts[kind.value] / self.completed

    def wilson(self, kind: Verdict) -> tuple[float, float]:
        return wilson_interval(self.counts[kind.value], self.completed)

    def data_dict(self) -> dict:
        cfg = self.config
        fractions = {k: v / self.completed for k, v in self.counts.items()}
        intervals = {k: list(wilson_interval(v, self.completed))
                     for k, v in self.counts.items()}
        return {
            "model": {"set": cfg.model.spec_string(), "weights": cfg.model.weights_string()},
            "num_samples": cfg.num_samples,
            "master_seed": cfg.master_seed,
            "grid": {"delta_start": cfg.grid.delta_start, "ratio": cfg.grid.ratio,
                     "delta_min": cfg.grid.delta_min},
            "threshold": cfg.threshold,
            "eps": cfg.eps,
            "budget_errors": self.budget_errors,
            "counts": dict(sorted(self.counts.items())),
            "fractions": dict(sorted(fractions.items())),
            "wilson_95": dict(sorted(intervals.items())),
            "per_depth": [
                {"depth": d, "counts": dict(sorted(c.items()))}
                for d, c in zip(self.depths, self.counts_by_depth)
            ],
            "hist_sup_lower": self.hist_sup,
            "hist_inf_upper": self.hist_inf,
            "calibration_note": self.calibration_note,
        }


def estimate_properties(config: ExperimentConfig) -> EstimateReport:
    """Scan + classify one stream per sample; aggregate verdict frequencies."""
    depths = tuple(config.grid.deltas())
    outcomes = _scan_samples(config, config.grid, (config.threshold,))

    names = [v.value for v in Verdict]
    counts = {name: 0 for name in names}
    by_depth = [{name: 0 for name in names} for _ in depths]
    hist_sup: dict = {}
    hist_inf: dict = {}
    for (per_depth,), sup_f, inf_f in outcomes:
        counts[per_depth[-1]] += 1
        for slot, name in zip(by_depth, per_depth):
            slot[name] += 1
        _histogram_add(hist_sup, sup_f)
        _histogram_add(hist_inf, inf_f)

    return EstimateReport(
        config=config,
        depths=depths,
        counts=counts,
        counts_by_depth=tuple(by_depth),
        hist_sup=_histogram_data(hist_sup),
        hist_inf=_histogram_data(hist_inf),
    )


def _walk_one(args) -> bool:
    model, seed, index, m, horizon = args
    stream = SequenceStream(model, seed, index)
    scaled, _den = model.integer_scaled()
    table = np.array(scaled, dtype=np.int64)
    sums = np.cumsum(table[stream.index_array(horizon)])
    return bool(np.all(sums[m:] > 0))


@dataclass(frozen=True)
class WalkPositivityEstimate:
    m: int
    horizon: int
    successes: int
    samples: int
    fraction: float
    wilson_95: tuple[float, float]


def walk_positivity(config: ExperimentConfig, m: int, horizon: int = 1_000_000
                    ) -> WalkPositivityEstimate:
    """Frequency of { S_l > 0 for every m < l <= horizon } across samples.

    Partial sums are computed on integer-scaled exact values, so the strict
    positivity test involves no float rounding.  Nonincreasing in the horizon
    and nondecreasing in m by containment.
    """
    if m < 0:
        raise ConfigError("m must be nonnegative")
    if horizon <= m:
        raise ConfigError("horizon must exceed m")
    scaled, _den = config.model.integer_scaled()
    if max(abs(s) for s in scaled) * horizon >= 2 ** 62:
        raise ConfigError("scaled values too large for exact int64 partial sums")
    if config.model.mean_sign() is not MeanSign.POSITIVE:
        warnings.warn(
            "walk_positivity: the coefficient mean is not positive, "
            "so the event probability tends to 0",
            stacklevel=2,
        )
    args = [(config.model, config.master_seed, i, m, horizon)
            for i in range(config.num_samples)]
    hits = _map_samples(_walk_one, args, config.workers)
    successes = sum(hits)
    return WalkPositivityEstimate(
        m=m, horizon=horizon, successes=successes, samples=config.num_samples,
        fraction=successes / config.num_samples,
        wilson_95=wilson_interval(successes, config.num_samples),
    )


_PREDICTED = {
    MeanSign.POSITIVE: Verdict.PLUS_INFINITY_LIKE,
    MeanSign.NEGATIVE: Verdict.MINUS_INFINITY_LIKE,
    MeanSign.ZERO: Verdict.OSCILLATION_LIKE,
}


@dataclass(frozen=True)
class DiagnosticRow:
    depth: float
    threshold: float
    predicted: str
    hits: int
    samples: int
    fraction: float
    wilson_95: tuple[float, float]


def zero_one_diagnostic(config: ExperimentConfig, depths: Sequence[float],
                        thresholds: Sequence[float]) -> list[DiagnosticRow]:
    """Fraction showing the mean-sign-predicted verdict, per (depth, threshold).

    The zero-one prediction is that these fractions drift toward 1 as the
    depth grows; the table makes the finite-scale trend inspectable.
    """
    depths = sorted(set(float(d) for d in depths), reverse=True)
    if not depths:
        raise ConfigError("need at least one depth")
    thresholds = tuple(thresholds)
    grid = config.grid.deepened(min(depths))
    grid_deltas = grid.deltas()
    predicted = _PREDICTED[config.model.mean_sign()]

    # map each requested depth to the deepest grid row not exceeding it
    row_for_depth = {}
    for d in depths:
        rows = [i for i, g in enumerate(grid_deltas) if g >= d * (1.0 - 1e-9)]
        if not rows:
            raise ConfigError(f"depth {d} is shallower than the grid start")
        row_for_depth[d] = rows[-1]

    outcomes = _scan_samples(config, grid, thresholds)
    total = config.num_samples
    out = []
    for d in depths:
        row = row_for_depth[d]
        for j, t in enumerate(thresholds):
            hits = sum(per_threshold[j][row] == predicted.value
                       for per_threshold, _sup, _inf in outcomes)
            out.append(DiagnosticRow(
                depth=d, threshold=float(t), predicted=predicted.value,
                hits=hits, samples=total, fraction=hits / total,
                wilson_95=wilson_interval(hits, total),
            ))
    return out
