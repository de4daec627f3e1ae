import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from randseries import (
    SequenceStream,
    crossing_counts_by_depth,
    crossings,
    find_crossings,
    parse_model,
)
from randseries.cli import run
from randseries.crossings import REFINE_BUDGET, RootBracket
from randseries.errors import ConfigError
from randseries.series_eval import BoundedValue

from .streams import PatternStream

M01 = parse_model("0,1")
M11 = parse_model("-1,1")
M101W = parse_model("-1,0,1", "1/4,1/4,1/2")
CROSSINGS_REFERENCES = (Path(__file__).resolve().parents[1] / "perfbench" / "references"
                        / "crossings.json")


class TestFindCrossings:
    def test_known_root_of_geometric_series(self):
        # f(x) = x/(1-x) = 3 exactly at x = 3/4
        report = find_crossings(PatternStream(M01, [1]), 3.0, (0.5, 0.9), eps=1e-4)
        assert len(report.brackets) == 1
        (br,) = report.brackets
        assert br.a <= 0.75 <= br.b
        assert br.sign_at_a == -1 and br.sign_at_b == 1
        assert br.width <= 1e-3 * (1.0 - br.b)

    def test_alternating_root(self):
        # f(x) = x/(1+x) = 1/4 at x = 1/3
        report = find_crossings(PatternStream(M11, [1, 0]), 0.25, (0.2, 0.6), eps=1e-5)
        assert len(report.brackets) == 1
        (br,) = report.brackets
        assert br.a <= 1.0 / 3.0 <= br.b

    def test_level_out_of_range_gives_empty(self):
        report = find_crossings(PatternStream(M01, [1]), -1.0, (0.5, 0.9), eps=1e-3)
        assert report.brackets == ()
        assert not report.indeterminate_points

    def test_bracket_invariants_on_random_stream(self):
        stream = SequenceStream(M11, 12, 0)
        report = find_crossings(stream, 0.0, (0.99, 0.9999), eps=1e-3)
        prev_b = 0.0
        for br in report.brackets:
            assert br.sign_at_a == -br.sign_at_b != 0
            assert br.a >= prev_b          # pairwise disjoint, ascending
            prev_b = br.b

    def test_window_validation(self):
        with pytest.raises(ValueError):
            find_crossings(SequenceStream(M11, 1, 0), 0.0, (0.9, 0.5))

    @pytest.mark.parametrize("y", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_level_rejected(self, y):
        with pytest.raises(ConfigError):
            find_crossings(SequenceStream(M11, 1, 0), y, (0.9, 0.99))

    def test_refinement_preserves_certificates(self):
        # a sound enclosure can certify at most one sign, so tightening eps at
        # a stored endpoint must reproduce the stored certificate, never flip it
        from randseries import eval_to_eps

        stream = SequenceStream(M11, 12, 0)
        report = find_crossings(stream, 0.0, (0.99, 0.9999), eps=1e-3)
        assert report.brackets
        for br in report.brackets:
            for x, sign in ((br.a, br.sign_at_a), (br.b, br.sign_at_b)):
                eps = 1e-3
                while eps > 1e-12:
                    bv = eval_to_eps(stream, x, eps)
                    if bv.lower > 0.0:
                        assert sign == 1
                        break
                    if bv.upper < 0.0:
                        assert sign == -1
                        break
                    eps *= 0.1
                else:
                    pytest.fail(f"endpoint {x} would not re-certify any sign")

    def test_max_brackets_truncates(self):
        stream = SequenceStream(M11, 12, 0)
        full = find_crossings(stream, 0.0, (0.9, 0.9999), eps=1e-3)
        assert len(full.brackets) >= 2 and not full.truncated
        cut = find_crossings(stream, 0.0, (0.9, 0.9999), eps=1e-3, max_brackets=1)
        assert cut.truncated and len(cut.brackets) == 1
        assert cut.brackets[0] == full.brackets[0]

    def test_depth_decade_labels(self):
        report = find_crossings(PatternStream(M01, [1]), 3.0, (0.5, 0.9), eps=1e-4)
        assert report.brackets[0].depth_decade == 0      # 1 - a ~ 0.25


    def test_detection_grid_is_bounded_for_every_window(self):
        # 1 - x spans at most 16 decades, from 1 down to one ulp below 1
        grid = crossings._detection_grid(5e-324, 1.0 - 2.0 ** -53)
        assert len(grid) <= 16 * crossings.POINTS_PER_DECADE + 1

    def test_refinement_makes_at_most_budget_plus_one_evaluations(self, monkeypatch):
        # every grid point certifies (-, +, +, ...); no midpoint ever certifies
        grid = crossings._detection_grid(0.5, 0.9)
        midpoints = []

        def stub(table, x, eps):
            if x in grid:
                return BoundedValue(x, 1, -2.0 if x == grid[0] else 2.0, 1.0, 0.0)
            midpoints.append((x, eps))
            return BoundedValue(x, 1, 0.0, 1.0, 0.0)

        monkeypatch.setattr(crossings, "eval_to_eps", stub)
        report = find_crossings(PatternStream(M01, [1]), 0.0, (0.5, 0.9), eps=1e-3)
        assert report.brackets == (RootBracket(grid[0], grid[1], -1, 1, 0.0),)
        mid = 0.5 * (grid[0] + grid[1])
        assert midpoints == [(mid, 1e-3 * 0.25 ** i) for i in range(REFINE_BUDGET + 1)]


class TestMomentTablePath:
    """``find_crossings`` evaluates through a block-moment table, with the direct answers."""

    @staticmethod
    def direct(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(crossings, "MomentTable", lambda stream, n_terms, points: stream)
            return find_crossings(*args, **kwargs)

    @pytest.mark.parametrize("model,seeds,y", [(M11, range(16), 0.0), (M101W, range(8), 100.0)])
    def test_same_brackets_as_direct_evaluation(self, model, seeds, y, monkeypatch):
        found = 0
        for seed in seeds:
            stream = SequenceStream(model, 5, seed)
            window = (0.99, 0.9999)
            table = find_crossings(stream, y, window, eps=1e-3)
            direct = self.direct(monkeypatch, SequenceStream(model, 5, seed), y, window, eps=1e-3)
            assert table == direct, seed
            found += len(table.brackets)
        assert found

    def test_cli_rows_match_recorded_references(self, monkeypatch):
        with open(CROSSINGS_REFERENCES, encoding="utf-8") as fh:
            references = json.load(fh)["cases"]
        evaluations = []
        evaluate = crossings.eval_to_eps
        monkeypatch.setattr(crossings, "eval_to_eps",
                            lambda *args: evaluations.append(args[1]) or evaluate(*args))
        grid = set(crossings._detection_grid(1.0 - 1e-2, 1.0 - 1e-5))
        # index 47 is the pooled stream whose refinement uses all REFINE_BUDGET + 1 midpoints
        for index in (0, 1, 2, 47):
            key = (f"crossings --set -1,1 --seed 1 --index {index} --y 0 --window 1e-2:1e-5 "
                   "--eps 1e-3")
            out = io.StringIO()
            evaluations.clear()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                assert run(key.split()) == 0
            lines = out.getvalue().splitlines()
            config = json.loads(lines[1][len("# config "):])
            assert {"rows": lines[3:], "indeterminate_cells": config["indeterminate_cells"],
                    "truncated": config["truncated"]} == references[key], index
        assert sum(x not in grid for x in evaluations) >= REFINE_BUDGET + 1


class TestCountsByDepth:
    def test_counts_cumulative_and_monotone(self):
        stream = SequenceStream(M11, 40, 0)
        counts, report = crossing_counts_by_depth(stream, 0.0, [1e-1, 1e-2, 1e-3])
        assert counts == sorted(counts)
        assert counts[-1] == len(report.brackets)

    def test_threshold_step_for_divergent_series(self):
        # x/(1-x) = 30 at 1-x = 1/31: invisible at depth 1e-2, found at 1e-3
        counts, _ = crossing_counts_by_depth(PatternStream(M01, [1]), 30.0,
                                             [1e-1, 1e-2, 1e-3], eps=1e-3)
        assert counts[0] == 0
        assert counts[-1] == 1

    def test_nothing_to_find(self):
        counts, _ = crossing_counts_by_depth(PatternStream(M01, [1]), -5.0,
                                             [1e-1, 1e-2])
        assert counts == [0, 0]

    def test_depths_must_decrease(self):
        with pytest.raises(ValueError):
            crossing_counts_by_depth(SequenceStream(M11, 1, 0), 0.0, [1e-3, 1e-2])
