import pytest

from randseries import (
    SequenceStream,
    crossing_counts_by_depth,
    find_crossings,
    parse_model,
)

from .streams import PatternStream

M01 = parse_model("0,1")
M11 = parse_model("-1,1")


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
        if len(full.brackets) >= 2:
            cut = find_crossings(stream, 0.0, (0.9, 0.9999), eps=1e-3, max_brackets=1)
            assert cut.truncated and len(cut.brackets) == 1

    def test_depth_decade_labels(self):
        report = find_crossings(PatternStream(M01, [1]), 3.0, (0.5, 0.9), eps=1e-4)
        assert report.brackets[0].depth_decade == 0      # 1 - a ~ 0.25


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
