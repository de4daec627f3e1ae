"""Monte Carlo estimates of the finite-scale boundary properties.

Each sample gets its own stream keyed by (master_seed, sample_index), so
reports are a pure function of the configuration and identical for any worker
count; workers affect scheduling only.  Outcomes are folded into one verdict
counter as they arrive, so memory does not grow with the sample count.
Fractions of samples come with Wilson 95% intervals, which stay informative
near 0 and 1 where the zero-one behaviour pushes them.
"""

from __future__ import annotations

import math
import multiprocessing
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, Sequence

import numpy as np

from .boundary_scan import (DEFAULT_EPS, _REL_FUZZ, ScanGrid, Verdict, check_threshold, scan,
                            verdicts_by_depth)
from .coefficients import CoefficientModel, MeanSign, SequenceStream
from .errors import ConfigError
from .series_eval import check_eps, check_term_budget, check_terms

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

# Cap on samples per pool task: only a few outcomes are ever in flight.
_MAX_CHUNK = 256


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95 % score interval for a binomial proportion."""
    if not 0 <= successes <= total:
        raise ConfigError(f"successes must lie in [0, total], got {successes} of {total}")
    if total <= 0:
        return (0.0, 1.0)
    z = _WILSON_Z
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
    eps: float = DEFAULT_EPS
    workers: int = 1

    def __post_init__(self):
        if self.num_samples < 1:
            raise ConfigError("num_samples must be >= 1")
        check_threshold(self.threshold)
        check_eps(self.eps)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def _map_samples(kernel, count: int, workers: int):
    """Yield kernel(i) for i in range(count) in order; a fork pool of at most one
    process per sample only changes scheduling."""
    workers = min(workers, count)
    if workers <= 1:
        yield from map(kernel, range(count))
        return
    ctx = multiprocessing.get_context("fork")
    chunk = min(_MAX_CHUNK, max(1, count // (workers * 4)))
    with ctx.Pool(workers) as pool:
        yield from pool.imap(kernel, range(count), chunksize=chunk)


def _histogram_add(counts: Counter, value: float) -> None:
    if -HIST_RANGE <= value < HIST_RANGE:
        counts[int(math.floor((value + HIST_RANGE) / HIST_BIN_WIDTH))] += 1
    else:
        counts["under" if value < 0 else "over"] += 1


def _histogram_data(counts: Counter) -> dict:
    bins = sorted((k, v) for k, v in counts.items() if isinstance(k, int))
    return {
        "bin_width": HIST_BIN_WIDTH,
        "range": [-HIST_RANGE, HIST_RANGE],
        "bins": [[k, v] for k, v in bins],
        "underflow": counts["under"],
        "overflow": counts["over"],
    }


def _sample_kernel(model, seed, grid, eps, thresholds, index) -> tuple:
    """Per-threshold verdict names at every depth, plus the certified running extrema."""
    report = scan(SequenceStream(model, seed, index), grid, eps)
    per_threshold = tuple(tuple(v.value for _, v in verdicts_by_depth(report, t))
                          for t in thresholds)
    return per_threshold, report.running_sup_lower, report.running_inf_upper


def _fold_samples(config: ExperimentConfig, grid: ScanGrid, thresholds: tuple):
    """Scan every sample and fold each outcome in as it arrives.

    Verdicts go into one Counter keyed by (threshold slot, grid row, verdict
    name), the running sup/inf into two histogram Counters.  The term budget
    is checked once, before any sample or pool starts.
    """
    check_term_budget(config.model.max_abs_float, grid.points(), config.eps, "scan grid")
    kernel = partial(_sample_kernel, config.model, config.master_seed, grid,
                     config.eps, thresholds)
    tally, hist_sup, hist_inf = Counter(), Counter(), Counter()
    for per_threshold, sup_f, inf_f in _map_samples(kernel, config.num_samples,
                                                    config.workers):
        for slot, per_depth in enumerate(per_threshold):
            tally.update((slot, row, name) for row, name in enumerate(per_depth))
        _histogram_add(hist_sup, sup_f)
        _histogram_add(hist_inf, inf_f)
    return tally, hist_sup, hist_inf


@dataclass(frozen=True)
class EstimateReport:
    config: ExperimentConfig
    counts_by_depth: tuple[dict, ...]
    hist_sup: dict
    hist_inf: dict
    calibration_note: ClassVar[str] = (
        "finite-scale verdict thresholds and depth grids are calibration choices, "
        "not asymptotic constants; see README for the recorded pilot calibration")

    # A budget overrun fails the whole run before any sample, so every sample
    # completes; the field stays so the data section's field set is stable.
    budget_errors: ClassVar[int] = 0

    @property
    def depths(self) -> tuple[float, ...]:
        return tuple(self.config.grid.deltas())

    @property
    def counts(self) -> dict:
        """Final verdict counts: the verdict at the deepest grid row."""
        return self.counts_by_depth[-1]

    @property
    def completed(self) -> int:
        return self.config.num_samples

    def fraction(self, kind: Verdict) -> float:
        return self.counts[kind.value] / self.completed

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
    """Scan + classify one stream per sample; fold verdict frequencies as they arrive."""
    tally, hist_sup, hist_inf = _fold_samples(config, config.grid, (config.threshold,))
    by_depth = tuple({v.value: tally[0, row, v.value] for v in Verdict}
                     for row in range(len(config.grid.deltas())))
    return EstimateReport(config, by_depth, _histogram_data(hist_sup), _histogram_data(hist_inf))


def _walk_one(model, seed, m, horizon, index) -> bool:
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
    check_terms(horizon, "walk positivity horizon")
    scaled, _den = config.model.integer_scaled()
    if max(abs(s) for s in scaled) * horizon >= 2 ** 62:
        raise ConfigError("scaled values too large for exact int64 partial sums")
    if config.model.mean_sign() is not MeanSign.POSITIVE:
        warnings.warn(
            "walk_positivity: the coefficient mean is not positive, "
            "so the event probability tends to 0",
            stacklevel=2,
        )
    kernel = partial(_walk_one, config.model, config.master_seed, m, horizon)
    successes = sum(_map_samples(kernel, config.num_samples, config.workers))
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
    for d in depths:
        if not d > 0.0:
            raise ConfigError(f"depth {d!r} must be > 0")
    thresholds = tuple(check_threshold(t) for t in thresholds)
    if not (depths and thresholds):
        raise ConfigError("need at least one depth and one threshold")
    if depths[0] > config.grid.delta_start:
        raise ConfigError(f"depth {depths[0]} is shallower than the grid start")
    grid = config.grid.deepened(min(depths))
    grid_deltas = grid.deltas()
    predicted = _PREDICTED[config.model.mean_sign()]

    # map each requested depth to the deepest grid row not exceeding it: the
    # first row is delta_start, or delta_min within _REL_FUZZ of it
    row_for_depth = {}
    for d in depths:
        row_for_depth[d] = [i for i, g in enumerate(grid_deltas) if g >= d * (1.0 - _REL_FUZZ)][-1]

    tally, _sup, _inf = _fold_samples(config, grid, thresholds)
    total = config.num_samples
    out = []
    for d in depths:
        row = row_for_depth[d]
        for slot, t in enumerate(thresholds):
            hits = tally[slot, row, predicted.value]
            out.append(DiagnosticRow(
                depth=d, threshold=t, predicted=predicted.value,
                hits=hits, samples=total, fraction=hits / total,
                wilson_95=wilson_interval(hits, total),
            ))
    return out
