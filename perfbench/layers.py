"""Per-layer probes, per-layer metrics and the closed forms their counts must match.

Layers are the package's modules.  Each probe wraps one public function of a
layer; counts are recorded on its span at the same boundary.  A layer's busy
time is the self time of its spans.
"""

from __future__ import annotations

import math
import weakref
from collections import defaultdict

from randseries import crossings as crossings_mod
from randseries.boundary_scan import ScanGrid
from randseries.coefficients import parse_model
from randseries.series_eval import required_terms

from spans import Probe, Span, self_times

# 8-byte array elements read or written per term by the chunked power sum:
# fill 1, cumulative product 2, product with the coefficients 3, sum 1,
# absolute value 2, sum 1.  bytes_computed is derived from this, not measured.
ARRAY_PASSES_PER_TERM = 10

# name -> (unit, better); the order is the order of BENCHMARK.json "per_layer".
PER_LAYER = {
    "coefficients.draws": ("count", "lower"),
    "coefficients.ns_per_draw.k2": ("ns", "lower"),
    "coefficients.ns_per_draw.k3": ("ns", "lower"),
    "coefficients.busy_s": ("s", "lower"),
    "series_eval.evals": ("count", "lower"),
    "series_eval.terms": ("count", "lower"),
    "series_eval.ns_per_term": ("ns", "lower"),
    "series_eval.busy_s": ("s", "lower"),
    "series_eval.bytes_computed": ("B", "lower"),
    "boundary_scan.scans": ("count", "lower"),
    "boundary_scan.self_s": ("s", "lower"),
    "boundary_scan.classify_s": ("s", "lower"),
    "montecarlo.samples": ("count", "higher"),
    "montecarlo.sample_ms": ("ms", "lower"),
    "montecarlo.pool_overhead_s": ("s", "lower"),
    "montecarlo.scaling_eff": ("ratio", "higher"),
    "montecarlo.failed_samples": ("count", "lower"),
    "crossings.grid_evals": ("count", "lower"),
    "crossings.refine_evals": ("count", "lower"),
    "crossings.indeterminate_cells": ("count", "lower"),
    "crossings.certified_ratio": ("ratio", "higher"),
    "crossings.busy_s": ("s", "lower"),
    "combinatorics.words": ("count", "higher"),
    "combinatorics.words_per_s": ("1/s", "higher"),
    "combinatorics.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}

# Counts that must repeat exactly between two traced passes over the same cases.
COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B")]


def probes() -> list[Probe]:
    """One probe per public function the workloads call, by layer."""
    high_water = weakref.WeakKeyDictionary()

    def draws(args, kwargs, result):
        stream = args[0]
        before = high_water.get(stream, 0)
        high_water[stream] = max(before, len(result))
        return {"draws": max(0, len(result) - before), "k": stream.model.k}

    return [
        Probe("coefficients", "randseries.coefficients", "parse_model"),
        Probe("coefficients", "randseries.coefficients", "SequenceStream.float_coefficients",
              draws),
        Probe("series_eval", "randseries.series_eval", "eval_to_eps",
              lambda a, k, r: {"x": r.x, "lower": r.lower, "upper": r.upper}),
        Probe("series_eval", "randseries.series_eval", "eval_truncated",
              lambda a, k, r: {"terms": r.n_terms}),
        Probe("boundary_scan", "randseries.boundary_scan", "scan"),
        Probe("boundary_scan", "randseries.boundary_scan", "verdicts_by_depth"),
        Probe("boundary_scan", "randseries.boundary_scan", "verdict"),
        Probe("montecarlo", "randseries.montecarlo", "estimate_properties",
              lambda a, k, r: {"samples": r.config.num_samples,
                               "budget_errors": r.budget_errors}),
        Probe("crossings", "randseries.crossings", "find_crossings",
              lambda a, k, r: {"y": r.y, "window": [r.x_lo, r.x_hi], "grid_size": r.grid_size,
                               "indeterminate": len(r.indeterminate_points)}),
        Probe("combinatorics", "randseries.combinatorics", "verify_matching",
              lambda a, k, r: {"words": r.total_words}),
    ]


def crossing_grid(x_lo: float, x_hi: float) -> list[float]:
    """Detection grid of ``find_crossings``: POINTS_PER_DECADE points per decade of 1-x."""
    d_hi, d_lo = 1.0 - x_lo, 1.0 - x_hi
    n_pts = max(int(math.ceil(crossings_mod.POINTS_PER_DECADE * math.log10(d_hi / d_lo))) + 1, 2)
    step = (d_lo / d_hi) ** (1.0 / (n_pts - 1))
    return [1.0 - d_hi * step ** i for i in range(n_pts)]


def scan_terms(max_abs: float, grid: ScanGrid, eps: float) -> list[int]:
    """Terms summed at each grid point of one cold scan."""
    return [required_terms(max_abs, 1.0 - d, eps) for d in grid.deltas()]


def layer_metrics(spans: list[Span], extras: dict) -> dict[str, float]:
    """Every per-layer metric; ``extras`` holds those measured outside the trace."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    busy = defaultdict(float)
    for s in spans:
        busy[s.layer] += own[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name, attr):
        return sum(s.attrs.get(attr, 0) for s in named(name))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = dict.fromkeys(PER_LAYER, 0.0)

    draws = defaultdict(int)        # by alphabet size k
    draw_s = defaultdict(float)
    for s in named("coefficients.float_coefficients"):
        if s.attrs:                 # empty when the call raised
            draws[s.attrs["k"]] += s.attrs["draws"]
            draw_s[s.attrs["k"]] += own[s.id]
    m["coefficients.draws"] = sum(draws.values())
    m["coefficients.ns_per_draw.k2"] = ratio(draw_s[2], draws[2], 1e9)
    m["coefficients.ns_per_draw.k3"] = ratio(draw_s[3], draws[3], 1e9)
    m["coefficients.busy_s"] = busy["coefficients"]

    terms = total("series_eval.eval_truncated", "terms")
    m["series_eval.evals"] = len(named("series_eval.eval_truncated"))
    m["series_eval.terms"] = terms
    m["series_eval.ns_per_term"] = ratio(busy["series_eval"], terms, 1e9)
    m["series_eval.busy_s"] = busy["series_eval"]
    m["series_eval.bytes_computed"] = 8 * ARRAY_PASSES_PER_TERM * terms

    m["boundary_scan.scans"] = len(named("boundary_scan.scan"))
    m["boundary_scan.self_s"] = sum(own[s.id] for s in named("boundary_scan.scan"))
    m["boundary_scan.classify_s"] = sum(
        s.duration for s in spans if s.name in ("boundary_scan.verdicts_by_depth",
                                                 "boundary_scan.verdict"))

    samples = total("montecarlo.estimate_properties", "samples")
    m["montecarlo.samples"] = samples
    m["montecarlo.sample_ms"] = ratio(
        sum(s.duration for s in named("montecarlo.estimate_properties")), samples, 1e3)
    m["montecarlo.failed_samples"] = total("montecarlo.estimate_properties", "budget_errors")

    grid_evals = refine_evals = certified = 0
    grids = {}
    for s in named("series_eval.eval_to_eps"):
        parent = by_id.get(s.parent)
        if (parent is None or parent.name != "crossings.find_crossings"
                or not (s.attrs and parent.attrs)):     # outside crossings, or the call raised
            continue
        window = tuple(parent.attrs["window"])
        if window not in grids:
            grids[window] = set(crossing_grid(*window))
        if s.attrs["x"] in grids[window]:
            grid_evals += 1
        else:
            refine_evals += 1
        y = parent.attrs["y"]
        certified += s.attrs["lower"] > y or s.attrs["upper"] < y
    m["crossings.grid_evals"] = grid_evals
    m["crossings.refine_evals"] = refine_evals
    m["crossings.indeterminate_cells"] = total("crossings.find_crossings", "indeterminate")
    m["crossings.certified_ratio"] = ratio(certified, grid_evals + refine_evals)
    m["crossings.busy_s"] = busy["crossings"]

    words = total("combinatorics.verify_matching", "words")
    m["combinatorics.words"] = words
    m["combinatorics.words_per_s"] = ratio(words, busy["combinatorics"])
    m["combinatorics.busy_s"] = busy["combinatorics"]

    m["cli.self_s"] = busy["cli"]
    m["cli.bytes_written"] = total("cli.run", "bytes_written")

    m.update(extras)
    return m


def expected_counts(cases) -> dict[str, int]:
    """Closed forms, from public functions, for the counts of one traced pass over ``cases``."""
    out = {}
    est = [c for c in cases if c.command == "estimate"]
    if est:
        terms = draws = evals = samples = 0
        for c in est:
            flags = dict(zip(c.argv[1::2], c.argv[2::2]))
            model = parse_model(flags["--set"], flags.get("--weights"))
            grid = ScanGrid(ratio=float(flags["--ratio"]), delta_min=float(flags["--depth"]))
            per_point = scan_terms(model.max_abs_float, grid, float(flags["--eps"]))
            terms += c.items * sum(per_point)
            draws += c.items * max(per_point)
            evals += c.items * len(per_point)
            samples += c.items
        out.update({"series_eval.terms": terms, "coefficients.draws": draws,
                    "series_eval.evals": evals, "boundary_scan.scans": samples,
                    "montecarlo.samples": samples})
    cross = [c for c in cases if c.command == "crossings"]
    if cross:
        grid_evals = 0
        for c in cross:
            flags = dict(zip(c.argv[1::2], c.argv[2::2]))
            hi, lo = (float(p) for p in flags["--window"].split(":"))
            grid_evals += len(crossing_grid(1.0 - hi, 1.0 - lo))
        out["crossings.grid_evals"] = grid_evals
    words = sum(c.items for c in cases if c.command == "bijection")
    if words:
        out["combinatorics.words"] = words
    return out
