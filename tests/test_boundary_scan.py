import math
import tracemalloc

import pytest

from randseries import (
    BudgetExceededError,
    ConfigError,
    ScanGrid,
    SequenceStream,
    Verdict,
    parse_model,
    scan,
    verdict,
    verdicts_by_depth,
)
from randseries.boundary_scan import DEFAULT_EPS, MAX_GRID_POINTS, ScanReport, ScanRow, _classify
from randseries.series_eval import required_terms

from .streams import PatternStream

M01 = parse_model("0,1")
M11 = parse_model("-1,1")


class TestScanGrid:
    def test_default_grid_shape(self):
        deltas = ScanGrid().deltas()
        assert len(deltas) == 15
        assert deltas[0] == 0.1
        assert deltas[-1] == 1e-5
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert all(0 < d < 1 for d in deltas)

    def test_single_point_grid(self):
        g = ScanGrid(delta_start=0.5, ratio=0.5, delta_min=0.5)
        assert g.deltas() == [0.5]
        assert g.points() == [0.5]

    def test_chain_aligned_endpoint_not_duplicated(self):
        g = ScanGrid(delta_start=0.4, ratio=0.5, delta_min=0.1)
        assert g.deltas() == [0.4, 0.2, 0.1]

    @pytest.mark.parametrize("kwargs", [
        dict(delta_start=0.0), dict(ratio=1.0), dict(ratio=0.0),
        dict(delta_min=0.0), dict(delta_min=0.2, delta_start=0.1),
    ])
    def test_invalid_grids(self, kwargs):
        with pytest.raises(ConfigError):
            ScanGrid(**{"delta_start": 0.1, "ratio": 0.5, "delta_min": 1e-5, **kwargs})

    @pytest.mark.parametrize("start", [0.5, 0.3, 0.1, 0.05])
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.7, 0.9, 0.99, 0.999])
    def test_closed_form_size_matches_the_loop(self, start, ratio):
        for depth in (start, 1e-2, 1e-3, 1e-5, 1e-9, start * ratio ** 3, start * ratio ** 13):
            if depth <= start:
                grid = ScanGrid(start, ratio, depth)
                assert grid.size() == len(grid.deltas()), depth

    def test_grid_point_budget_edge(self):
        # 1 - 1e-5 ratio: each step shrinks delta by 1e-5 relative
        ratio = 1.0 - 1e-5
        at = ScanGrid(0.5, ratio, 0.5 * ratio ** (MAX_GRID_POINTS - 1))
        assert at.size() == len(at.deltas()) == MAX_GRID_POINTS
        over = ScanGrid(0.5, ratio, 0.5 * ratio ** MAX_GRID_POINTS)
        with pytest.raises(BudgetExceededError) as info:
            over.deltas()
        assert info.value.required == MAX_GRID_POINTS + 1


class TestScan:
    def test_all_ones_divergence(self):
        report = scan(PatternStream(M01, [1]), ScanGrid(delta_min=1e-3), eps=0.01)
        # x/(1-x) = 999 at the deepest point, minus tolerance
        assert report.running_sup_lower >= 990
        assert verdict(report, 50.0) is Verdict.PLUS_INFINITY_LIKE

    def test_alternating_bounded(self):
        report = scan(PatternStream(M11, [1, 0]), ScanGrid(delta_min=1e-3), eps=0.01)
        for r in report.rows:
            truth = r.x / (1.0 + r.x)
            assert r.lower <= truth <= r.upper
            assert r.lower >= 0.0
            assert r.upper <= 0.5 + 2 * 0.01
        assert verdict(report, 1.0) is Verdict.INCONCLUSIVE

    def test_single_point_running_extrema(self):
        report = scan(SequenceStream(M11, 3, 0), ScanGrid(0.5, 0.5, 0.5), eps=0.01)
        (row,) = report.rows
        assert row.running_sup_lower == row.lower
        assert row.running_inf_upper == row.upper

    def test_running_extrema_monotone(self):
        report = scan(SequenceStream(M11, 8, 0), ScanGrid(delta_min=1e-4), eps=0.01)
        sups = [r.running_sup_lower for r in report.rows]
        infs = [r.running_inf_upper for r in report.rows]
        assert sups == sorted(sups)
        assert infs == sorted(infs, reverse=True)

    def test_monotone_refinement_along_chain(self):
        # chain-aligned delta_min: the shallow report is a prefix of the deep one
        s1 = SequenceStream(M11, 21, 0)
        s2 = SequenceStream(M11, 21, 0)
        shallow = scan(s1, ScanGrid(0.1, 0.5, 0.1 * 0.5 ** 6), eps=0.01)
        deep = scan(s2, ScanGrid(0.1, 0.5, 0.1 * 0.5 ** 10), eps=0.01)
        assert [r.x for r in deep.rows[:7]] == [r.x for r in shallow.rows]
        assert deep.running_sup_lower >= shallow.running_sup_lower
        assert deep.running_inf_upper <= shallow.running_inf_upper

    def test_budget_error_carries_grid_context(self, monkeypatch):
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "1000000")
        with pytest.raises(BudgetExceededError) as exc:
            scan(SequenceStream(M11, 1, 0), ScanGrid(delta_min=1e-9), eps=0.01)
        assert "grid point" in str(exc.value)


class TestScanMemory:
    def test_one_float_buffer_sized_for_the_deepest_point(self):
        # the float cache is filled once, to exactly the deepest point, and its
        # indices are drawn and looked up 2^16 at a time: the scan peaks at
        # 1.13 x 8 N_max, against 1.18 with a reserved buffer filled per point,
        # 2.43 with a doubling buffer and 1.48 with one lookup (an intp copy of
        # the indices) per increment
        model = parse_model("-1,0,1", "1/4,1/4,1/2")
        grid = ScanGrid(delta_min=1e-5)
        n_max = max(required_terms(model.max_abs_float, x, DEFAULT_EPS) for x in grid.points())
        stream = SequenceStream(model, 3, 0)
        tracemalloc.start()
        try:
            scan(stream, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.16 * 8 * n_max
        assert stream._floats.shape[0] == n_max


def _fake_report(certified_values, deltas, slack=0.0):
    rows = []
    sup, inf = -math.inf, math.inf
    for m, (v, d) in enumerate(zip(certified_values, deltas)):
        lo, hi = v - slack, v + slack
        sup, inf = max(sup, lo), min(inf, hi)
        rows.append(ScanRow(m, 1 - d, d, 10, v, lo, hi, sup, inf, 0.0))
    return ScanReport(tuple(rows))


class TestVerdictRule:
    def test_oscillation_from_crossings(self):
        report = _fake_report([10.0, -10.0], [1e-2, 1e-3])
        assert verdict(report, 5.0) is Verdict.OSCILLATION_LIKE

    def test_threshold_above_everything(self):
        report = _fake_report([10.0, -10.0], [1e-2, 1e-3])
        assert verdict(report, 1000.0) is Verdict.INCONCLUSIVE

    def test_plus_requires_last_decade_above(self):
        # last decade = deltas within 10x of the deepest: the -1 value sits there
        report = _fake_report([100.0, -1.0], [1e-1, 1e-3])
        assert verdict(report, 5.0) is Verdict.INCONCLUSIVE
        # a shallow dip outside the last decade does not block the verdict
        report = _fake_report([-1.0, 100.0, 120.0], [1e-1, 1e-3, 5e-4])
        assert verdict(report, 5.0) is Verdict.PLUS_INFINITY_LIKE

    def test_minus_symmetric(self):
        report = _fake_report([-30.0, -40.0], [1e-2, 1e-3])
        assert verdict(report, 5.0) is Verdict.MINUS_INFINITY_LIKE

    def test_oscillation_wins_over_plus(self):
        # both certified crossings and a last decade above T: oscillation first
        report = _fake_report([-10.0, 20.0, 30.0], [1e-1, 1e-3, 5e-4])
        assert verdict(report, 5.0) is Verdict.OSCILLATION_LIKE

    def test_threshold_must_be_positive(self):
        report = _fake_report([1.0], [1e-2])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                verdict(report, bad)

    def test_oscillation_stable_under_refinement(self):
        base = [12.0, -12.0, 0.0]
        deltas = [1e-2, 1e-3, 1e-4]
        assert _classify(_fake_report(base, deltas).rows, 5.0) is Verdict.OSCILLATION_LIKE
        refined = [12.0, 3.0, -12.0, -2.0, 0.0, 1.0]
        rdeltas = [1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 9e-5]
        assert _classify(_fake_report(refined, rdeltas).rows, 5.0) is Verdict.OSCILLATION_LIKE

    def test_verdicts_by_depth_prefixes(self):
        report = _fake_report([1.0, 10.0, -10.0], [1e-1, 5e-3, 1e-3])
        by_depth = verdicts_by_depth(report, 5.0)
        assert [v for _, v in by_depth] == [
            Verdict.INCONCLUSIVE,
            Verdict.PLUS_INFINITY_LIKE,      # last decade (<= 5e-2) excludes the 1e-1 row
            Verdict.OSCILLATION_LIKE,
        ]
        assert [d for d, _ in by_depth] == [1e-1, 5e-3, 1e-3]
