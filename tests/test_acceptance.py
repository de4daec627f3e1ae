"""Acceptance suite: every criterion at its stated tolerance, one line each.

Statistical thresholds marked "calibrated" below were frozen from independent
pilot simulations recorded in the README (seeded, direct simulation, no
library code); they are regression gates for the library's own estimates.
"""

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pytest

from randseries import (
    ExperimentConfig,
    FinitePrefix,
    PatchedStream,
    ScanGrid,
    SequenceStream,
    Verdict,
    crossing_counts_by_depth,
    domain_fraction,
    estimate_properties,
    eval_abel_form,
    eval_prefix,
    eval_to_eps,
    eval_truncated,
    orbit_sum,
    parse_model,
    shift_effect_on_scan,
    verify_matching,
    wilson_interval,
    witness_nonzero_coordinate,
    witness_positive,
)

from .oracles import binomial, max_one_flip_domain
from .streams import PatternStream

M11 = parse_model("-1,1")
M01 = parse_model("0,1")
M3 = parse_model("-1,0,1")

BINARY_RANGE = (4, 6, 8, 10, 12, 14, 16)

# Calibrated constant for criterion 8 (recorded in README): an independent
# 3000-sample pilot of the depth-1e-5 grid puts the OscillationLike fraction
# at 0.581 +/- 0.009 (the sign-change rate of the limiting process saturates,
# so denser grids do not raise it); the frozen acceptance floor is the pilot
# value minus roughly five combined standard errors.
OSCILLATION_FLOOR_AT_1E5 = 0.52


@contextmanager
def criterion(num: int, label: str):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL  {label}")
        raise
    print(f"criterion {num:2d} PASS  {label}  ({time.monotonic() - t0:.1f}s)")


@pytest.fixture(scope="module")
def binary_matching_reports():
    return {n: verify_matching(M11, n) for n in BINARY_RANGE}


def _estimate_report(model, samples, seed, depth, threshold, workers):
    config = ExperimentConfig(
        model=model, num_samples=samples, master_seed=seed,
        grid=ScanGrid(0.1, 0.5, depth), threshold=threshold, eps=0.01,
        workers=workers,
    )
    return estimate_properties(config)


@pytest.fixture(scope="module")
def report7_w1():
    return _estimate_report(M01, 1000, 20250, 1e-4, 50.0, workers=1)


@pytest.fixture(scope="module")
def report7_w8():
    return _estimate_report(M01, 1000, 20250, 1e-4, 50.0, workers=8)


@pytest.fixture(scope="module")
def report8_w1():
    return _estimate_report(M11, 2000, 20251, 1e-5, 5.0, workers=1)


@pytest.fixture(scope="module")
def report8_w8():
    return _estimate_report(M11, 2000, 20251, 1e-5, 5.0, workers=8)


def test_criterion_01_matching_optimality(binary_matching_reports):
    with criterion(1, "shift matching is injective, exact, and oracle-optimal"):
        t0 = time.monotonic()
        for n in BINARY_RANGE:
            rep = binary_matching_reports[n]
            assert rep.injective
            assert rep.sum_shift_exact
            expected = 2 ** n - binomial(n, n // 2)
            assert rep.matched_count == expected
            assert rep.matched_count == max_one_flip_domain(n)
        assert time.monotonic() - t0 < 60.0


def test_criterion_02_domain_fraction_trend(binary_matching_reports):
    with criterion(2, "domain fraction strictly increases with word length"):
        t0 = time.monotonic()
        binary = [binary_matching_reports[n].fraction for n in BINARY_RANGE]
        assert all(a < b for a, b in zip(binary, binary[1:]))
        ternary = [domain_fraction(M3, n) for n in range(3, 10)]
        assert all(a < b for a, b in zip(ternary, ternary[1:]))
        assert time.monotonic() - t0 < 120.0


def test_criterion_03_inverse_pairing(binary_matching_reports):
    with criterion(3, "shift_down inverts shift_up on its whole domain"):
        for n in BINARY_RANGE:
            assert binary_matching_reports[n].inverse_roundtrip


def test_criterion_04_abel_identity():
    with criterion(4, "partial-summation form agrees with the direct sum"):
        for seed in range(1000):
            prefix = SequenceStream(M11, seed, 0).prefix(100)
            for x in (0.5, 0.9, 0.99):
                direct = eval_prefix(prefix, x).value
                abel = eval_abel_form(prefix, x)
                assert abs(abel - direct) <= 1e-10 * (1.0 + abs(direct))


def test_criterion_05_enclosure_soundness():
    with criterion(5, "doubling the truncation moves values at most eps+slack"):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            seed = int(rng.integers(0, 2 ** 32))
            x = float(rng.uniform(0.0, 0.99))
            eps = float(10.0 ** rng.uniform(-6.0, -1.0))
            stream = SequenceStream(M11, seed, 0)
            a = eval_to_eps(stream, x, eps)
            b = eval_truncated(stream, x, 2 * a.n_terms)
            assert abs(a.value - b.value) <= eps + a.rounding_slack + b.rounding_slack


def test_criterion_06_orbit_identity():
    with criterion(6, "alphabet-rotation orbit sums collapse to the closed form"):
        n = 100_000
        x = 0.999
        for seed in range(100):
            prefix = SequenceStream(M3, seed, 0).prefix(n)
            assert abs(orbit_sum(prefix, x)) <= 1e-6
        closed = x * (1.0 - x ** n) / (1.0 - x)
        for seed in range(100):
            prefix = SequenceStream(M01, seed, 0).prefix(n)
            assert abs(orbit_sum(prefix, x) - closed) <= 1e-10 * closed


def test_criterion_07_positive_mean_diverges(report7_w1):
    with criterion(7, "positive-mean series classified PlusInfinityLike"):
        assert report7_w1.budget_errors == 0
        assert report7_w1.fraction(Verdict.PLUS_INFINITY_LIKE) >= 0.99


def _oscillation_by_depth(report, depths):
    grid_deltas = list(report.depths)
    out = []
    for depth in depths:
        rows = [i for i, d in enumerate(grid_deltas) if d >= depth * (1 - 1e-9)]
        counts = report.counts_by_depth[rows[-1]]
        hits = counts[Verdict.OSCILLATION_LIKE.value]
        out.append((hits, report.completed))
    return out


@pytest.mark.slow
def test_criterion_08_zero_mean_oscillates(report8_w1):
    with criterion(8, "zero-mean oscillation fraction grows with depth "
                      "(calibrated floor 0.52 at depth 1e-5)"):
        assert report8_w1.budget_errors == 0
        stats_by_depth = _oscillation_by_depth(report8_w1, [1e-2, 1e-3, 1e-4, 1e-5])
        fractions = [h / t for h, t in stats_by_depth]
        intervals = [wilson_interval(h, t) for h, t in stats_by_depth]
        for (fa, fb), (ia, ib) in zip(zip(fractions, fractions[1:]),
                                      zip(intervals, intervals[1:])):
            overlap = min(ia[1], ib[1]) - max(ia[0], ib[0])
            assert fb >= fa or overlap > 0
        assert fractions[-1] >= OSCILLATION_FLOOR_AT_1E5


def test_criterion_09_shift_effect_band():
    with criterion(9, "one-flip rewrites move scans by d2-d1 within the band"):
        grid = ScanGrid(1e-3, 0.5, 1e-4)
        matched = 0
        seed = 0
        while matched < 100:
            stream = SequenceStream(M11, 31_000 + seed, 0)
            seed += 1
            report = shift_effect_on_scan(stream, 20, grid, eps=0.01)
            if not report.matched:
                continue
            matched += 1
            for row in report.rows:
                # the band is tight (equality) at the shallowest point for a
                # deepest-position flip, so the certified rounding slack of
                # the two evaluations must ride along
                assert abs(row.difference - 2.0) <= row.band + row.slack
                assert row.within
        assert matched == 100


def test_criterion_10_weighted_monotonicity():
    with criterion(10, "weighted flips multiply word probability by exactly 3"):
        model = parse_model("-1,1", "1/4,3/4")
        for n in range(1, 13):
            rep = verify_matching(model, n)
            assert rep.measure_ratio == 3
            assert rep.measure_monotone
            assert rep.sum_shift_exact and rep.injective
            assert not rep.violations


def test_criterion_11_crossing_counts():
    with criterion(11, "certified zero crossings: median >= 1, counts cumulative"):
        depths = [1e-2, 1e-3, 1e-4, 1e-5]
        finals = []
        for i in range(100):
            stream = SequenceStream(M11, 777, i)
            counts, _report = crossing_counts_by_depth(stream, 0.0, depths, eps=1e-3)
            assert counts == sorted(counts)
            finals.append(counts[-1])
        assert statistics.median(finals) >= 1


def test_criterion_12_witness_soundness():
    with criterion(12, "positivity witnesses survive adversarial tails; "
                       "nonzero-coordinate cylinders escape vanishing tails"):
        rng = np.random.default_rng(99)
        min_idx = M11.values.index(M11.min_value)
        for case in range(100):
            j = int(rng.integers(1, 11))
            prefix = FinitePrefix(M11, tuple(int(b) for b in rng.integers(0, 2, size=j)))
            for m in (1, 10, 100):
                w = witness_positive(prefix, m)
                assert w.margin > 0
                adversarial = PatchedStream(PatternStream(M11, [min_idx]),
                                            w.padded_indices())
                n_eval = w.n_fixed
                bv = eval_truncated(adversarial, w.x, n_eval)
                while bv.lower <= m:
                    n_eval *= 2
                    assert n_eval < 10 ** 8
                    bv = eval_truncated(adversarial, w.x, n_eval)
                assert bv.lower > m

        members_checked = 0
        for case in range(100):
            j = int(rng.integers(1, 11))
            prefix = FinitePrefix(M01, tuple(int(b) for b in rng.integers(0, 2, size=j)))
            for m in (1, 10, 100):
                cyl = witness_nonzero_coordinate(prefix, m)
                pos = max(cyl.positions())
                assert pos == max(j, m) + 1
                for _ in range(4):
                    member = list(rng.integers(0, 2, size=pos + 5))
                    for q, ix in cyl.fixed:
                        member[q - 1] = ix
                    assert cyl.contains(member)
                    tail_start = m if m >= 1 else 1
                    assert any(M01.values[member[i]] != 0
                               for i in range(tail_start - 1, len(member)))
                    members_checked += 1
        assert members_checked >= 1000


@pytest.mark.slow
def test_criterion_13_workers_do_not_change_bytes(report7_w1, report7_w8,
                                                  report8_w1, report8_w8):
    with criterion(13, "reports are byte-identical for 1 and 8 workers"):
        for a, b in ((report7_w1, report7_w8), (report8_w1, report8_w8)):
            ja = json.dumps(a.data_dict(), sort_keys=True)
            jb = json.dumps(b.data_dict(), sort_keys=True)
            assert ja == jb
