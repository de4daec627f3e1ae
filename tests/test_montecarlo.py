import json
import warnings
from dataclasses import replace

import pytest
from scipy import stats

from randseries import montecarlo
from randseries import (
    BudgetExceededError,
    ConfigError,
    ExperimentConfig,
    ScanGrid,
    Verdict,
    estimate_properties,
    parse_model,
    required_terms,
    walk_positivity,
    wilson_interval,
    zero_one_diagnostic,
)

from .oracles import positive_walk_probability

M01 = parse_model("0,1")
M11 = parse_model("-1,1")

SMALL_GRID = ScanGrid(0.1, 0.5, 1e-3)


def small_config(model, samples=50, seed=11, threshold=5.0, workers=1):
    return ExperimentConfig(model=model, num_samples=samples, master_seed=seed,
                            grid=SMALL_GRID, threshold=threshold, eps=0.01,
                            workers=workers)


class TestWilson:
    @pytest.mark.parametrize("k,n", [(0, 10), (5, 10), (10, 10), (1999, 2000)])
    def test_matches_scipy(self, k, n):
        lo, hi = wilson_interval(k, n)
        ci = stats.binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
        assert lo == pytest.approx(ci.low, abs=1e-12)
        assert hi == pytest.approx(ci.high, abs=1e-12)

    def test_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestConfigValidation:
    def test_rejects_k_one(self):
        with pytest.raises(ConfigError):
            parse_model("1")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(M11, 0, 1)
        with pytest.raises(ConfigError):
            ExperimentConfig(M11, 10, 1, threshold=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(M11, 10, 1, workers=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                ExperimentConfig(M11, 10, 1, threshold=bad)

    @pytest.mark.parametrize("eps", [1e-301, 0.0, -1.0, float("nan")])
    def test_eps_follows_the_tail_floor_at_construction(self, eps):
        # the same rule and message as every truncation: eps must exceed 1e-300
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(M11, 2, 0, eps=eps)
        with pytest.raises(ConfigError) as evaluated:
            required_terms(1.0, 0.5, eps)
        assert str(built.value) == str(evaluated.value) == f"eps must exceed 1e-300, got {eps!r}"


class TestEstimateProperties:
    def test_counts_partition_samples(self):
        report = estimate_properties(small_config(M11))
        assert sum(report.counts.values()) + report.budget_errors == 50
        fr = sum(report.fraction(v) for v in Verdict)
        assert fr == pytest.approx(1.0, abs=1e-12)

    def test_positive_mean_diverges(self):
        report = estimate_properties(small_config(M01, threshold=10.0))
        assert report.fraction(Verdict.PLUS_INFINITY_LIKE) == 1.0

    def test_per_depth_matches_grid(self):
        report = estimate_properties(small_config(M11))
        assert len(report.depths) == len(SMALL_GRID.deltas())
        assert len(report.counts_by_depth) == len(report.depths)
        for slot in report.counts_by_depth:
            assert sum(slot.values()) == report.completed

    def test_worker_count_invisible_in_data(self):
        r1 = estimate_properties(small_config(M11, samples=40, workers=1))
        r2 = estimate_properties(small_config(M11, samples=40, workers=2))
        d1 = json.dumps(r1.data_dict(), sort_keys=True)
        d2 = json.dumps(r2.data_dict(), sort_keys=True)
        assert d1 == d2

    def test_mirrored_alphabet_swaps_plus_minus(self):
        plus = estimate_properties(small_config(parse_model("-1,1"), samples=60))
        minus = estimate_properties(small_config(parse_model("1,-1"), samples=60))
        assert plus.counts["PlusInfinityLike"] == minus.counts["MinusInfinityLike"]
        assert plus.counts["MinusInfinityLike"] == minus.counts["PlusInfinityLike"]
        assert plus.counts["OscillationLike"] == minus.counts["OscillationLike"]
        assert plus.counts["Inconclusive"] == minus.counts["Inconclusive"]

    def test_budget_overrun_raises_before_sampling(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a sample was scanned")

        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "100")
        monkeypatch.setattr(montecarlo, "scan", no_scan)
        with pytest.raises(BudgetExceededError):
            estimate_properties(small_config(M11, samples=5))
        with pytest.raises(BudgetExceededError):
            zero_one_diagnostic(small_config(M11, samples=5), [1e-3], [1.0])

    def test_samples_folded_in_order_as_they_finish(self, monkeypatch):
        # with one worker, sample i's outcome is folded before sample i+1 is scanned
        events = []
        real_scan, real_add = montecarlo.scan, montecarlo._histogram_add

        def logged_scan(stream, *args, **kwargs):
            events.append(("scan", stream.sample_index))
            return real_scan(stream, *args, **kwargs)

        def logged_add(counts, value):
            events.append(("fold",))
            real_add(counts, value)

        monkeypatch.setattr(montecarlo, "scan", logged_scan)
        monkeypatch.setattr(montecarlo, "_histogram_add", logged_add)
        estimate_properties(small_config(M11, samples=4))
        assert events == [e for i in range(4) for e in (("scan", i), ("fold",), ("fold",))]

    def test_pooled_map_keeps_order_past_the_chunk_cap(self):
        count = 5 * montecarlo._MAX_CHUNK + 3
        assert list(montecarlo._map_samples(abs, count, 2)) == list(range(count))

    def test_pool_has_at_most_one_process_per_sample(self, monkeypatch):
        # a fake context whose pool records its size and maps in-process
        sizes = []

        class FakePool:
            def __init__(self, n):
                sizes.append(n)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize=1):
                return map(fn, items)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(montecarlo.multiprocessing, "get_context",
                            lambda method: FakeContext())
        assert list(montecarlo._map_samples(abs, 3, 1000)) == [0, 1, 2]
        assert sizes == [3]

    def test_histograms_cover_samples(self):
        report = estimate_properties(small_config(M11))
        for hist in (report.hist_sup, report.hist_inf):
            total = sum(c for _b, c in hist["bins"]) + hist["underflow"] + hist["overflow"]
            assert total == report.completed


class TestWalkPositivity:
    def test_worker_count_invisible(self):
        config = ExperimentConfig(M01, 40, 6, grid=SMALL_GRID)
        pooled = ExperimentConfig(M01, 40, 6, grid=SMALL_GRID, workers=2)
        assert walk_positivity(config, 2, horizon=200) == walk_positivity(pooled, 2, horizon=200)

    def test_bernoulli_event_is_first_coordinate(self):
        # for D = {0,1}: S_l > 0 for all l > 0 iff a_1 = 1, so p = 1/2 exactly
        config = ExperimentConfig(M01, 2000, 5, grid=SMALL_GRID)
        est = walk_positivity(config, 0, horizon=50)
        lo, hi = est.wilson_95
        assert lo <= 0.5 <= hi

    def test_monotone_in_m_per_sample(self):
        config = ExperimentConfig(M01, 500, 6, grid=SMALL_GRID)
        frac0 = walk_positivity(config, 0, horizon=100).fraction
        frac5 = walk_positivity(config, 5, horizon=100).fraction
        assert frac5 >= frac0          # identical samples, contained events

    def test_monotone_in_horizon_per_sample(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = ExperimentConfig(M11, 400, 6, grid=SMALL_GRID)
            short = walk_positivity(config, 0, horizon=50).fraction
            long = walk_positivity(config, 0, horizon=200).fraction
        assert long <= short           # identical samples, shrinking events

    def test_simple_walk_matches_exact_dp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = ExperimentConfig(M11, 2000, 8, grid=SMALL_GRID)
            est = walk_positivity(config, 0, horizon=20)
        p_exact = float(positive_walk_probability(20, 0))
        lo, hi = est.wilson_95
        assert lo <= p_exact <= hi

    def test_zero_mean_warns(self):
        config = ExperimentConfig(M11, 10, 1, grid=SMALL_GRID)
        with pytest.warns(UserWarning):
            walk_positivity(config, 0, horizon=10)

    def test_invalid_horizon(self):
        config = ExperimentConfig(M01, 10, 1, grid=SMALL_GRID)
        with pytest.raises(ConfigError):
            walk_positivity(config, 5, horizon=5)

    def test_horizon_over_budget_raises_before_any_sample(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("a sample was walked")

        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "100")
        monkeypatch.setattr(montecarlo, "_walk_one", no_walk)
        config = ExperimentConfig(M01, 10, 1, grid=SMALL_GRID)
        with pytest.raises(BudgetExceededError) as exc:
            walk_positivity(config, 0, horizon=101)
        assert (exc.value.required, exc.value.limit) == (101, 100)


class TestZeroOneDiagnostic:
    def test_positive_mean_trend(self):
        config = ExperimentConfig(M01, 60, 3, grid=SMALL_GRID, threshold=5.0)
        rows = zero_one_diagnostic(config, depths=[1e-1, 1e-2, 1e-3], thresholds=[5.0])
        assert [r.depth for r in rows] == [1e-1, 1e-2, 1e-3]
        assert all(r.predicted == "PlusInfinityLike" for r in rows)
        fracs = [r.fraction for r in rows]
        assert fracs[-1] >= fracs[0]
        assert fracs[-1] == 1.0

    def test_zero_mean_predicts_oscillation(self):
        config = ExperimentConfig(M11, 40, 3, grid=SMALL_GRID, threshold=2.0)
        rows = zero_one_diagnostic(config, depths=[1e-2, 1e-3], thresholds=[2.0])
        assert all(r.predicted == "OscillationLike" for r in rows)
        assert rows[-1].fraction >= rows[0].fraction

    def test_single_depth_single_row(self):
        config = ExperimentConfig(M01, 10, 3, grid=SMALL_GRID)
        rows = zero_one_diagnostic(config, depths=[1e-2], thresholds=[5.0])
        assert len(rows) == 1

    def test_worker_count_invisible(self):
        rows = [zero_one_diagnostic(small_config(M11, samples=30, workers=w),
                                    depths=[1e-1, 1e-2, 1e-3], thresholds=[1.0, 2.0, 5.0])
                for w in (1, 2)]
        assert rows[0] == rows[1]
        assert len(rows[0]) == 9

    def test_hits_match_estimate_per_threshold(self):
        config = small_config(M11, samples=30)
        rows = zero_one_diagnostic(config, depths=[1e-1, 1e-2, 1e-3], thresholds=[1.0, 2.0, 5.0])
        reports = {t: estimate_properties(replace(config, threshold=t)) for t in (1.0, 2.0, 5.0)}
        for r in rows:
            report = reports[r.threshold]
            row = max(i for i, d in enumerate(report.depths) if d >= r.depth * (1 - 1e-9))
            assert r.hits == report.counts_by_depth[row][r.predicted]
        assert len({r.hits for r in rows if r.depth == 1e-3}) > 1   # thresholds tell apart

    @pytest.mark.parametrize("thresholds", [[], [0.0], [-1.0], [float("nan")],
                                            [float("inf")], [2.0, float("nan")]])
    def test_bad_thresholds_rejected_before_sampling(self, thresholds, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a sample was scanned")

        monkeypatch.setattr(montecarlo, "scan", no_scan)
        with pytest.raises(ConfigError):
            zero_one_diagnostic(small_config(M11, samples=20, workers=2), [1e-2], thresholds)

    def test_deepened_grid_over_point_budget_raises_before_sampling(self, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("a sample was scanned")

        monkeypatch.setattr(montecarlo, "scan", no_scan)
        config = ExperimentConfig(M11, 10, 3, grid=ScanGrid(0.1, 0.9999, 1e-2))
        with pytest.raises(BudgetExceededError, match="scan grid point count"):
            zero_one_diagnostic(config, depths=[1e-2, 1e-9], thresholds=[5.0])

    def test_depth_shallower_than_grid_rejected(self):
        config = ExperimentConfig(M01, 10, 3, grid=SMALL_GRID)
        with pytest.raises(ConfigError, match="shallower than the grid start"):
            zero_one_diagnostic(config, depths=[0.5], thresholds=[5.0])

    @pytest.mark.parametrize("depth,shown", [(0.0, "0.0"), (-1e-3, "-0.001"), (float("nan"), "nan")])
    def test_depth_not_above_zero_named(self, depth, shown):
        config = ExperimentConfig(M11, 1, 0)
        with pytest.raises(ConfigError, match=f"depth {shown} must be > 0"):
            zero_one_diagnostic(config, [depth], [1.0])
