import ast
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import randseries
from randseries import (
    BudgetExceededError,
    ConfigError,
    ExperimentConfig,
    FinitePrefix,
    PatchedStream,
    ScanGrid,
    SequenceStream,
    apply_perm,
    crossing_counts_by_depth,
    crossings,
    domain_fraction,
    estimate_properties,
    eval_abel_form,
    eval_prefix,
    eval_to_eps,
    eval_truncated,
    find_crossings,
    lower_bound_from_positive_walk,
    orbit_sum,
    orbit_values,
    parse_model,
    partial_sums,
    prefix_infimum,
    required_terms,
    scan,
    series_eval,
    shift_effect_on_scan,
    shift_up,
    tail_bound,
    verify_matching,
    walk_positivity,
    wilson_interval,
    witness_nonzero_coordinate,
    witness_positive,
    zero_one_diagnostic,
)
from randseries.boundary_scan import check_threshold
from randseries.series_eval import (
    _BASE,
    _ORDER,
    MomentTable,
    _base_moments,
    _byte_moments,
    _pair_moments,
    _power_sum,
)

from .streams import PatternStream

M01 = parse_model("0,1")
M11 = parse_model("-1,1")

ALL_ONES = PatternStream(M01, [1])
ALTERNATING = PatternStream(M11, [1, 0])      # +1, -1, +1, ...


class TestEvalTruncated:
    def test_geometric_closed_form(self):
        bv = eval_truncated(ALL_ONES, 0.5, 20)
        assert bv.value == 1.0 - 2.0 ** -20
        assert bv.tail_radius == pytest.approx(2.0 ** -20, rel=1e-9)
        assert bv.lower <= 1.0 <= bv.upper     # the infinite sum is 1

    def test_x_zero(self):
        bv = eval_truncated(ALL_ONES, 0.0, 5)
        assert bv.value == 0.0 and bv.tail_radius == 0.0 and bv.rounding_slack == 0.0

    @pytest.mark.parametrize("n", [5, 20, 100])
    def test_alternating_encloses_limit(self, n):
        bv = eval_truncated(ALTERNATING, 0.5, n)
        assert bv.lower <= 1.0 / 3.0 <= bv.upper

    def test_domain_error(self):
        with pytest.raises(ValueError):
            eval_truncated(ALL_ONES, 1.0, 5)
        with pytest.raises(ValueError):
            eval_truncated(ALL_ONES, -0.1, 5)

    def test_long_sum_matches_closed_form(self):
        # 1e6 terms of the all-ones series, against x(1-x^N)/(1-x)
        x = 0.999
        n = 10_000
        bv = eval_truncated(ALL_ONES, x, n)
        exact = x * (1 - x ** n) / (1 - x)
        assert bv.value == pytest.approx(exact, rel=1e-12)
        assert abs(bv.value - exact) <= bv.rounding_slack

    def test_value_within_slack_of_exact_rational(self):
        m = parse_model("-1,1")
        s = SequenceStream(m, 31, 0)
        x = Fraction(9, 10)
        prefix = s.prefix(300)
        exact = sum((a * x ** n for n, a in enumerate(prefix.values, 1)), Fraction(0))
        bv = eval_truncated(s, 0.9, 300)
        assert abs(bv.value - float(exact)) <= bv.rounding_slack + 1e-13


class TestCacheHistory:
    def test_same_bits_after_a_full_scan_grew_the_cache(self):
        model = parse_model("-1,0,1", "1/4,1/4,1/2")
        grown = SequenceStream(model, 20170912, 3)
        report = scan(grown, ScanGrid(0.1, 0.5, 1e-5), 0.01)
        n_max = max(r.n_terms for r in report.rows)
        for x, n in [(0.9, 1), (0.999, 4097), (1.0 - 1e-5, n_max), (0.99999, n_max + 70_001)]:
            fresh = SequenceStream(model, 20170912, 3)
            assert eval_truncated(grown, x, n) == eval_truncated(fresh, x, n)


class TestEvalToEps:
    def test_minimal_n_near_ninety(self):
        bv = eval_to_eps(SequenceStream(M11, 1, 0), 0.9, 1e-3)
        assert bv.tail_radius <= 1e-3
        assert 80 <= bv.n_terms <= 95
        assert tail_bound(1.0, 0.9, bv.n_terms - 1) > 1e-3     # minimality

    def test_huge_eps_single_term(self):
        assert required_terms(1.0, 0.5, 10.0) == 1

    def test_deep_point_term_count(self):
        n = required_terms(1.0, 1.0 - 1e-4, 1e-3)
        assert 1.3e5 < n < 2.0e5

    def test_eps_near_the_tail_floor_fails_or_settles_at_once(self):
        # every tail bound carries a 1e-300 floor, so no N reaches an eps at or
        # below it; just above it the settle must not walk ~ln(3)/(1-x) steps.
        # In a child process, so that a loop that never ends fails the test at
        # the timeout instead of hanging the run.
        code = ("from randseries.errors import ConfigError\n"
                "from randseries.series_eval import required_terms, tail_bound\n"
                "for eps in (1e-300, 1e-301, 0.0):\n"
                "    try:\n"
                "        required_terms(1.0, 0.5, eps)\n"
                "    except ConfigError:\n"
                "        pass\n"
                "    else:\n"
                "        raise AssertionError(eps)\n"
                "for x, eps in [(1 - 2**-30, 1.5e-300), (1 - 2**-53, 1e-300 * (1 + 2**-50))]:\n"
                "    n = required_terms(1.0, x, eps)\n"
                "    assert tail_bound(1.0, x, n) <= eps < tail_bound(1.0, x, n - 1), (x, n)\n")
        env = dict(os.environ)
        src = str(Path(randseries.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_budget_exceeded_reports_required(self, monkeypatch):
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "100000")
        with pytest.raises(BudgetExceededError) as exc:
            eval_to_eps(SequenceStream(M11, 1, 0), 1.0 - 1e-4, 1e-3)
        assert exc.value.required > 100_000

    def test_recompute_at_double_n(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seed = int(rng.integers(0, 2**32))
            x = float(rng.uniform(0.0, 0.99))
            eps = float(10.0 ** rng.uniform(-6, -1))
            s = SequenceStream(M11, seed, 0)
            a = eval_to_eps(s, x, eps)
            b = eval_truncated(s, x, 2 * a.n_terms)
            assert abs(a.value - b.value) <= eps + a.rounding_slack + b.rounding_slack

    @given(seed=st.integers(0, 2**32 - 1), x=st.floats(0.0, 0.95),
           n1=st.integers(1, 200), n2=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_enclosures_nest_and_intersect(self, seed, x, n1, n2):
        n1, n2 = sorted((n1, n2))
        s = SequenceStream(M11, seed, 0)
        a = eval_truncated(s, x, n1)
        b = eval_truncated(s, x, n2)
        pad = a.rounding_slack + b.rounding_slack
        assert b.lower >= a.lower - pad and b.upper <= a.upper + pad
        assert max(a.lower, b.lower) <= min(a.upper, b.upper) + pad


class TestAbelForm:
    def test_exact_identity_small(self):
        p = PatternStream(M01, [1]).prefix(3)
        x = Fraction(1, 2)
        direct = sum(a * x ** n for n, a in enumerate(p.values, 1))
        assert direct == Fraction(7, 8)
        assert eval_abel_form(p, x) == Fraction(7, 8)

    def test_single_term(self):
        p = PatternStream(M11, [0]).prefix(1)       # single d1 = -1
        assert eval_abel_form(p, Fraction(1, 2)) == Fraction(-1, 2)
        assert eval_abel_form(p, 0.5) == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("x", [0.5, Fraction(1, 2)])
    def test_empty_prefix_is_the_empty_sum(self, x):
        p = FinitePrefix(M01, [])
        direct = eval_prefix(p, x)
        assert eval_abel_form(p, x) == (direct if isinstance(x, Fraction) else direct.value) == 0
        assert type(eval_abel_form(p, x)) is type(x)

    def test_all_minus_one_float_agreement(self):
        p = PatternStream(M11, [0]).prefix(10)
        x = 0.9
        direct = eval_prefix(p, x).value
        abel = eval_abel_form(p, x)
        assert abs(abel - direct) <= 1e-12 * (1 + abs(direct))

    def test_random_prefixes_agreement(self):
        for seed in range(50):
            p = SequenceStream(M11, seed, 0).prefix(100)
            for x in (0.5, 0.9, 0.99):
                direct = eval_prefix(p, x).value
                abel = eval_abel_form(p, x)
                assert abs(abel - direct) <= 1e-10 * (1 + abs(direct))

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 3), Fraction(9, 10),
                                   1 - Fraction(1, 10 ** 30)])
    def test_eval_prefix_exact_at_fraction_x(self, x):
        for model in (M01, M11, parse_model("-1,1/2,3")):
            p = SequenceStream(model, 7, 0).prefix(40)
            exact = eval_prefix(p, x)
            assert isinstance(exact, Fraction)
            assert exact == sum(a * x ** n for n, a in enumerate(p.values, 1))
            assert exact == eval_abel_form(p, x)

    def test_partial_sums_telescope(self):
        p = SequenceStream(M11, 42, 0).prefix(30)
        s = partial_sums(p)
        assert s[0] == p.values[0]
        for i in range(1, len(s)):
            assert s[i] - s[i - 1] == p.values[i]


class TestPositiveWalkBound:
    def test_all_ones_nonnegative_bound(self):
        p = PatternStream(M01, [1]).prefix(10)
        res = lower_bound_from_positive_walk(p, 0.5, 0)
        assert res.holds and res.first_violation is None
        assert res.bound <= 0.0 and res.bound > -1e-300
        assert eval_abel_form(p, 0.5) > res.bound

    def test_mixed_walk_with_explicit_min(self):
        m = parse_model("-1,2")
        p = PatternStream(m, [1, 0]).prefix(8)     # 2, -1, 2, -1, ...
        res = lower_bound_from_positive_walk(p, 0.7, 1)
        assert res.holds
        assert res.bound == pytest.approx(-0.7, rel=1e-12)
        assert eval_abel_form(p, 0.7) > res.bound

    def test_boundary_violation_reported(self):
        # S = 1, 0, -1 hits m * minD = -1 exactly at l = 3
        p = PatternStream(M11, [1, 0, 0]).prefix(3)
        res = lower_bound_from_positive_walk(p, 0.5, 1)
        assert not res.holds and res.first_violation == 3

    def test_invalid_x(self):
        p = PatternStream(M01, [1]).prefix(3)
        with pytest.raises(ValueError):
            lower_bound_from_positive_walk(p, 0.0, 0)


_PREFIX = PatternStream(M01, [1]).prefix(3)
# cumulative weights 2^-70 and 2^-69 fall in one cell of the 64-bit sampling grid
_FINE = parse_model("0,1,2", f"1/{2 ** 70},1/{2 ** 70},{2 ** 69 - 1}/{2 ** 69}")
_K3_STREAM = SequenceStream(parse_model("-1,0,1"), 0)
_GRID = ScanGrid(delta_min=1e-2)
_WINDOW = (0.9, 0.99)


@pytest.mark.parametrize("call", [
    lambda: eval_truncated(ALL_ONES, 0.5, 0),
    lambda: eval_abel_form(_PREFIX, Fraction(1)),
    lambda: lower_bound_from_positive_walk(_PREFIX, 1.0, 0),
    lambda: crossing_counts_by_depth(ALL_ONES, 0.0, []),
    lambda: crossing_counts_by_depth(ALL_ONES, 0.0, [1e-3, 1e-2]),
    lambda: witness_nonzero_coordinate(_PREFIX, -1),
    lambda: apply_perm(_PREFIX, 2),
    lambda: orbit_sum(_PREFIX, Fraction(3, 2)),
    lambda: witness_positive(_PREFIX, math.inf),
    lambda: witness_positive(_PREFIX, -math.inf),
    lambda: witness_positive(_PREFIX, math.nan),
    lambda: parse_model(","),
    lambda: SequenceStream(_FINE, 0).prefix(1),
    lambda: parse_model("1,1.00000000000000000001").index_of(1),
    lambda: FinitePrefix(M01, [2]),
    lambda: SequenceStream(M01, 0).prefix(0),
    lambda: PatchedStream(SequenceStream(M01, 0), [2]),
    lambda: shift_up(M11, _PREFIX),
    lambda: walk_positivity(ExperimentConfig(M01, 1, 0), -1),
    lambda: walk_positivity(ExperimentConfig(parse_model(f"1,{2 ** 62}"), 1, 0), 0, 2),
    lambda: zero_one_diagnostic(ExperimentConfig(M11, 1, 0), [0.5, 1e-3], [1.0]),
    lambda: MomentTable(SequenceStream(M01, 0), 0),
    lambda: eval_prefix(_PREFIX, Fraction(1)),
    lambda: wilson_interval(-1, 3),
    lambda: wilson_interval(5, 3),
    lambda: required_terms(-1.0, 0.9, 1e-3),
    lambda: required_terms(math.inf, 0.9, 1e-3),
    lambda: required_terms(math.nan, 0.9, 1e-3),
    lambda: shift_effect_on_scan(SequenceStream(M01, 0), -1),
    lambda: shift_effect_on_scan(SequenceStream(M01, 0), 2.5),
    lambda: FinitePrefix(M01, [0.7, 1.2]),
    lambda: FinitePrefix(M01, ["1", "0"]),
    lambda: FinitePrefix(M01, [True, False]),
    lambda: apply_perm(_PREFIX, 1.5),
    lambda: lower_bound_from_positive_walk(_PREFIX, 0.5, 1.5),
    lambda: SequenceStream(M01, 1.5),
    lambda: SequenceStream(M01, "7"),
    lambda: SequenceStream(M01, 0, 1.5),
    lambda: PatchedStream(_K3_STREAM, [0.7, 2.9]),
    lambda: PatchedStream(_K3_STREAM, ["1"]),
    lambda: witness_nonzero_coordinate(_PREFIX, 5.5),
    lambda: walk_positivity(ExperimentConfig(M01, 1, 0), 1.5, 10),
    lambda: walk_positivity(ExperimentConfig(M01, 1, 0), 1, 10.5),
    lambda: prefix_infimum(_PREFIX, 2.7),
    lambda: ExperimentConfig(M01, 2.5, 0),
    lambda: ExperimentConfig(M01, 2, 0, workers=1.5),
    lambda: ExperimentConfig(M01, 4, 1.5),
    lambda: domain_fraction(M01, 2.5),
    lambda: verify_matching(M01, 2.5),
    lambda: eval_truncated(ALL_ONES, 0.5, 2.5),
    lambda: ALL_ONES.prefix(2.5),
    lambda: apply_perm(_PREFIX, True),
    lambda: eval_to_eps(ALL_ONES, "0.5", 0.01),
    lambda: eval_to_eps(ALL_ONES, False, 0.01),
    lambda: scan(ALL_ONES, _GRID, "0.01"),
    lambda: eval_prefix(_PREFIX, "0.5"),
    lambda: eval_abel_form(_PREFIX, "0.5"),
    lambda: lower_bound_from_positive_walk(_PREFIX, "0.5", 0),
    lambda: find_crossings(ALL_ONES, True, _WINDOW),
    lambda: witness_positive(_PREFIX, True),
    lambda: zero_one_diagnostic(ExperimentConfig(M11, 1, 0), ["1e-2"], [1.0]),
    lambda: ExperimentConfig(M11, 2, 0, eps=math.inf),
    lambda: ExperimentConfig(M11, 2, 0, threshold=True),
    lambda: eval_to_eps(ALL_ONES, 0.9, math.inf),
    lambda: eval_to_eps(ALL_ONES, 0.5, "0.01"),
    lambda: ScanGrid(delta_min="1e-2"),
    lambda: check_threshold("5"),
    lambda: find_crossings(ALL_ONES, "0", _WINDOW),
    lambda: find_crossings(ALL_ONES, 0.0, ("0.99", "0.999")),
    lambda: witness_positive(_PREFIX, "1"),
    lambda: required_terms("1", 0.5, 0.01),
    lambda: wilson_interval(1.5, 3),
    lambda: witness_positive(_PREFIX, 10 ** 400),
    lambda: required_terms(10 ** 400, 0.5, 0.01),
    lambda: _K3_STREAM.index_range(1.5, 4),
    lambda: _K3_STREAM.index_range(True, 4),
    lambda: _K3_STREAM.index_range(1, 4.0),
    lambda: _K3_STREAM.index_at(2.5),
    lambda: _K3_STREAM.draw_at(0),
    lambda: _K3_STREAM.index_array(2.5),
    lambda: _K3_STREAM.index_array(-2),
    lambda: (_K3_STREAM.float_coefficients(10), _K3_STREAM.float_coefficients(-1)),
    lambda: PatchedStream(_K3_STREAM, [1]).index_range(1.5, 4),
], ids=["n_terms", "abel_x", "walk_x", "no_depths", "depth_order", "witness_m", "rotation",
        "orbit_exact_x", "witness_inf", "witness_minus_inf", "witness_nan", "empty_set_spec",
        "weights_finer_than_draws", "colliding_float_mirrors",
        "prefix_index", "prefix_length", "head_index", "shift_other_model", "walk_m",
        "walk_int64", "depth_above_grid_start", "table_terms", "prefix_exact_x_one",
        "wilson_negative", "wilson_above_total", "max_abs_negative", "max_abs_inf", "max_abs_nan",
        "shift_head_negative", "shift_head_fraction", "prefix_float_indices",
        "prefix_string_indices", "prefix_bool_indices", "rotation_fraction", "walk_m_fraction",
        "seed_float", "seed_string", "sample_index_float", "head_float", "head_string",
        "witness_m_float", "walk_m_float", "walk_horizon_float", "grid_size_float",
        "samples_float", "workers_float", "experiment_seed_float", "domain_n_float",
        "matching_n_float", "n_terms_float", "prefix_length_float", "rotation_bool",
        "x_string", "x_bool", "scan_eps_string", "prefix_x_string", "abel_x_string",
        "walk_x_string", "crossings_y_bool", "witness_target_bool", "diagnostic_depth_string",
        "experiment_eps_inf", "experiment_threshold_bool", "eps_inf", "eps_string",
        "grid_string", "threshold_string", "crossings_y_string", "window_strings",
        "witness_target_string", "max_abs_string", "wilson_successes_float",
        "witness_target_beyond_floats", "max_abs_beyond_floats", "position_float",
        "position_bool", "range_end_float", "index_at_float", "draw_position_zero",
        "index_array_float", "index_array_negative", "floats_negative", "patched_position_float"])
def test_bad_library_arguments_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("depths,message", [
    (["1e-2", "1e-3"], "depth must be a real number, got '1e-2'"),
    ([1e-2, 0.0], "depth must lie in (0, 1), got 0.0"),
], ids=["strings", "zero"])
def test_crossing_depths_are_checked_before_their_order(depths, message):
    with pytest.raises(ConfigError) as exc:
        crossing_counts_by_depth(ALL_ONES, 0.0, depths)
    assert str(exc.value) == message


def test_numpy_integer_arguments_pass():
    p = PatternStream(M11, [1]).prefix(3)
    assert (lower_bound_from_positive_walk(p, 0.5, np.int64(2))
            == lower_bound_from_positive_walk(p, 0.5, 2))
    stream, grid = SequenceStream(M11, 3, 0), ScanGrid(delta_min=1e-2)
    assert shift_effect_on_scan(stream, np.int64(3), grid) == shift_effect_on_scan(stream, 3, grid)
    assert type(stream.draw_at(np.int64(5))) is int
    assert stream.draw_at(np.int64(5)) == stream.draw_at(5)
    assert stream.index_at(np.int64(2)) == stream.index_at(2)
    patched = PatchedStream(stream, [0])
    assert (patched.index_range(np.int64(1), np.int64(70_000)).tolist()
            == patched.index_range(1, 70_000).tolist())
    assert stream.index_array(np.int64(9)).tolist() == stream.index_array(9).tolist()


def test_numpy_and_fraction_reals_pass():
    # each is read as the equal Python float, and results hold Python floats
    stream = SequenceStream(M11, 3, 0)
    assert (eval_to_eps(stream, np.float64(0.9), np.float32(0.25))
            == eval_to_eps(stream, Fraction(9, 10), Fraction(1, 4))
            == eval_to_eps(stream, 0.9, 0.25))
    assert (required_terms(np.float32(2), np.float64(0.5), Fraction(1, 1000))
            == required_terms(2.0, 0.5, 1e-3))
    grid = ScanGrid(np.float32(0.125), np.float64(0.5), Fraction(1, 1024))
    assert grid == ScanGrid(0.125, 0.5, 1 / 1024)
    assert all(type(row.x) is float for row in scan(stream, grid).rows)
    assert scan(stream, grid) == scan(stream, ScanGrid(0.125, 0.5, 1 / 1024))
    assert (find_crossings(stream, np.float64(0.0), (np.float32(0.75), Fraction(15, 16)))
            == find_crossings(stream, 0.0, (0.75, 0.9375)))
    p = PatternStream(M11, [1]).prefix(3)
    assert witness_positive(p, np.float32(2)) == witness_positive(p, 2.0)
    assert eval_prefix(p, np.float32(0.5)) == eval_prefix(p, 0.5)
    assert (lower_bound_from_positive_walk(p, Fraction(1, 2), 1)
            == lower_bound_from_positive_walk(p, 0.5, 1))
    assert type(check_threshold(np.float32(5))) is float


@pytest.mark.parametrize("spec", [f"{2 ** 900},{-2 ** 900}", f"{2 ** 900},{2 ** 899},{-2 ** 900}"],
                         ids=["two_values", "three_values"])
def test_every_path_stays_finite_at_the_size_bound(spec):
    # |d| <= 2^900 is the one size rule: no sum needs an overflow check of its
    # own, for a run of the largest value as for a random sequence
    model = parse_model(spec)
    top = model.values.index(model.max_value)
    x, n = 1.0 - 2.0 ** -40, 2_000_000
    for stream in (PatternStream(model, [top]), SequenceStream(model, 0)):
        with np.errstate(over="raise", invalid="raise"):
            prefix = stream.prefix(200_000)
            bounds = [eval_truncated(stream, x, n), eval_truncated(MomentTable(stream, n), x, n),
                      eval_to_eps(stream, 0.999, 1e-2), eval_prefix(prefix, 0.999),
                      *orbit_values(prefix, 0.999)]
            floats = [f for bv in bounds for f in (bv.lower, bv.upper)]
            floats += [f for row in scan(stream, ScanGrid(delta_min=1e-3), 1e-2).rows
                       for f in (row.lower, row.upper)]
            floats += [eval_abel_form(prefix, 0.999), orbit_sum(prefix, 0.999),
                       prefix_infimum(stream.prefix(2000), 1024).lower_bound,
                       witness_positive(stream.prefix(20), 2.0 ** 900, grid_size=1024).margin]
            report = find_crossings(stream, 0.0, (0.9, 0.999), 1e-2)
        assert all(map(math.isfinite, floats))
        assert len(report.indeterminate_points) < report.grid_size


def _rule_sites(accepts, sources: dict[str, str] | None = None) -> list[tuple[str, str, int]]:
    """(module, enclosing def or class path, line) of every node that
    ``accepts(node, params)`` accepts, ``params`` being the parameter names of the
    enclosing def.  ``sources`` maps module names to source text; by default they
    are the package's modules."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8")
                   for path in sorted(Path(randseries.__file__).parent.glob("*.py"))}
    sites = []

    def visit(node, module, scope, params):
        for child in ast.iter_child_nodes(node):
            if accepts(child, params):
                sites.append((module, ".".join(scope), child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {a.arg for a in ast.walk(child.args) if isinstance(a, ast.arg)}
                visit(child, module, scope + (child.name,), names)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, scope + (child.name,), set())
            else:
                visit(child, module, scope, params)

    for module, source in sources.items():
        visit(ast.parse(source), module, (), set())
    return sites


def _budget_error(node, params) -> bool:
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "BudgetExceededError")


class TestOneBudgetHome:
    def test_budget_errors_are_built_in_two_places_only(self):
        # every work budget goes through check_terms; the grid-point cap is the other one
        assert {(module, scope) for module, scope, _ in _rule_sites(_budget_error)} == {
            ("series_eval", "check_terms"), ("boundary_scan", "ScanGrid.deltas")}


def _integer_rule(node, params) -> bool:
    """``operator.index``, ``isinstance(<arg>, int)`` (alone or in a tuple of types)
    and ``int(<a parameter of the enclosing def>)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "index" and getattr(node.value, "id", None) == "operator"
    if isinstance(node, ast.ImportFrom):
        return node.module == "operator" and any(a.name == "index" for a in node.names)
    if not isinstance(node, ast.Call):
        return False
    called, args = getattr(node.func, "id", None), node.args
    if called == "isinstance" and len(args) == 2:
        types = args[1].elts if isinstance(args[1], ast.Tuple) else [args[1]]
        return any(getattr(t, "id", None) == "int" for t in types)
    return called == "int" and len(args) == 1 and getattr(args[0], "id", None) in params


class TestOneIntegerRule:
    def test_integer_arguments_are_checked_in_check_int_only(self):
        # every count, index, position, seed, rotation and head goes through errors.check_int
        sites = {(module, scope) for module, scope, _ in _rule_sites(_integer_rule)}
        assert sites == {("errors", "check_int")}

    def test_the_guard_sees_each_form(self):
        source = ("def f(n):\n    return operator.index(n)\n"
                  "class C:\n    def g(self, n):\n        return isinstance(n, (float, int))\n"
                  "from operator import index\nok = isinstance(n, bool) or isinstance(n, int)\n"
                  "def h(lo, hi=2):\n    m = len(lo)\n    return int(hi), int(m), int(lo[0])\n")
        assert [scope for _, scope, _ in _rule_sites(_integer_rule, {"m": source})] == [
            "f", "C.g", "", "", "h"]


_REAL_RULE_NAMES = {"math": {"isfinite", "isnan", "isinf"}, "numbers": {"Real"}}


def _real_rule(node, params) -> bool:
    """``math.isfinite``, ``math.isnan``, ``math.isinf`` and ``numbers.Real``, as an
    attribute or imported by name."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.attr in _REAL_RULE_NAMES.get(node.value.id, ())
    if isinstance(node, ast.ImportFrom):
        return any(a.name in _REAL_RULE_NAMES.get(node.module, ()) for a in node.names)
    return False


class TestOneRealRule:
    def test_real_arguments_are_checked_in_check_real_only(self):
        # every x, eps, threshold, depth, target and bound goes through errors.check_real
        sites = {(module, scope) for module, scope, _ in _rule_sites(_real_rule)}
        assert sites == {("errors", "check_real")}

    def test_the_guard_sees_each_form(self):
        source = ("def f(x):\n    return math.isfinite(x)\n"
                  "class C:\n    def g(self, x):\n        return math.isnan(x) or math.isinf(x)\n"
                  "from math import isfinite, log\nfrom numbers import Real\n"
                  "ok = isinstance(x, numbers.Real) and math.log(x) < 0\n")
        assert [scope for _, scope, _ in _rule_sites(_real_rule, {"m": source})] == [
            "f", "C.g", "C.g", "", "", ""]


def _counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records the arguments of every call."""
    calls, real = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestDeepestPointBudget:
    """A grid's deepest point needs the most terms, so it alone decides the budget."""

    @given(max_abs=st.floats(0.0, 1e300), eps=st.floats(1e-300, 1e300, exclude_min=True),
           x1=st.floats(0.0, 1.0, exclude_max=True), x2=st.floats(0.0, 1.0, exclude_max=True),
           ulps=st.integers(1, 8), near=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_required_terms_never_falls_as_x_rises(self, max_abs, eps, x1, x2, ulps, near):
        if near:                            # x2 a few ulps above x1
            x2 = x1
            for _ in range(ulps):
                x2 = math.nextafter(x2, 1.0)
            assume(x2 < 1.0)
        x1, x2 = sorted((x1, x2))
        assert required_terms(max_abs, x1, eps) <= required_terms(max_abs, x2, eps)

    def test_scan_reads_the_budget_once_then_once_a_point(self, monkeypatch):
        calls = _counting(monkeypatch, series_eval, "required_terms")
        grid = ScanGrid(delta_min=1e-4)
        scan(SequenceStream(M11, 1, 0), grid)
        assert len(calls) == 1 + grid.size()

    def test_crossings_reads_the_budget_once_then_once_an_evaluation(self, monkeypatch):
        calls = _counting(monkeypatch, series_eval, "required_terms")
        handed = _counting(monkeypatch, crossings, "required_terms")
        evals = _counting(monkeypatch, crossings, "eval_to_eps")
        window = (1.0 - 1e-2, 1.0 - 1e-4)
        report = find_crossings(SequenceStream(M11, 1, 0), 0.0, window, 1e-3)
        assert len(evals) >= report.grid_size
        assert len(calls) == 1 + len(evals)
        # besides, each grid point's truncation is derived once for the table's batch
        assert [args[1] for args in handed] == crossings._detection_grid(*window)

    @pytest.mark.parametrize("run", ["scan", "crossings", "estimate"])
    def test_over_budget_error_names_the_deepest_point(self, run, monkeypatch):
        # points far shallower than the deepest one are already over the budget
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "100000")
        grid, eps = ScanGrid(delta_min=1e-7), 0.01
        xs = grid.points()
        if run == "scan":
            call = lambda: scan(SequenceStream(M11, 1, 0), grid, eps)
        elif run == "crossings":
            window = (1.0 - 1e-2, 1.0 - 1e-7)
            xs = crossings._detection_grid(*window)
            call = lambda: find_crossings(SequenceStream(M11, 1, 0), 0.0, window, eps)
        else:
            call = lambda: estimate_properties(ExperimentConfig(M11, 2, 0, grid, eps=eps))
        deepest = max(xs)
        with pytest.raises(BudgetExceededError) as exc:
            call()
        assert exc.value.required == required_terms(M11.max_abs_float, deepest, eps)
        assert f"x={deepest!r}" in str(exc.value)


_BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "linalg", "@"}


def _blas_use(node, params) -> bool:
    """A BLAS-backed name, import or ``@`` product."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.alias):
        name = node.name.rpartition(".")[2]
    elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        name = "@"
    return name in _BLAS_NAMES


class TestNoBlas:
    def test_no_blas_backed_products_in_the_package(self):
        # results must not depend on the BLAS build or its thread count, so every
        # sum is formed by elementwise passes and pairwise or fsum reductions
        assert _rule_sites(_blas_use) == []

    def test_the_guard_sees_each_form(self):
        # one form a line (linalg on lines 1 and 6); the last line has none
        source = ("import numpy.linalg\nfrom numpy import dot\nc = a @ b\nc @= a\n"
                  "np.einsum('i,i', a, b)\nnp.linalg.norm(a)\ninner(a, b)\nnp.sum(a * b)\n")
        assert [line for _, _, line in _rule_sites(_blas_use, {"m": source})] == [
            1, 2, 3, 4, 5, 6, 7]


def _one_shot_pair_moments(child):
    """The pair step over all columns at once, as it was before the chunked passes."""
    pairs = child.shape[1] // 2
    left, right = child[:, 0:2 * pairs:2], child[:, 1:2 * pairs:2]
    both, diff = left + right, right - left
    out = np.empty_like(both)
    for j in range(child.shape[0]):
        acc = out[j]
        acc[:] = both[j]
        for l in range(j - 1, -1, -1):
            acc += math.comb(j, l) * (both[l] if (j - l) % 2 == 0 else diff[l])
        acc *= 0.5 ** j
    return out


M101 = parse_model("-1,0,1", "1/4,1/4,1/2")


def _planes(stream, n):
    """Bit planes of terms 1..n: row v - 1 is the little-endian packbits of [index = v]."""
    indices = stream.index_array(n)
    return np.stack([np.packbits(indices == v, bitorder="little")
                     for v in range(1, stream.model.k)])


class TestMomentTableStore:
    def test_byte_tables_give_the_exact_moments_of_128_bit_codes(self):
        # every byte-table sum is exact: the numerators of its summands add up
        # to at most sum_p |2p - 127|^7, which binary64 holds exactly (at
        # order 8 they would not fit)
        assert sum(abs(2 * p - 127) ** 7 for p in range(128)) == 9_002_069_296_504_832 < 2 ** 53
        assert sum(abs(2 * p - 127) ** 8 for p in range(128)) > 2 ** 53
        assert (_BASE, _ORDER) == (128, 7)
        tables = _byte_moments(_ORDER)
        assert tables.shape == (16, 256, _ORDER + 1)
        specials = [[255] * 16, [0x55] * 16, [0xAA] * 16] + [
            [1 << (p % 8) if i == p // 8 else 0 for i in range(16)] for p in range(128)]
        randoms = np.random.default_rng(128).integers(0, 256, (10_000, 16), endpoint=False)
        codes = np.concatenate([np.array(specials), randoms]).astype(np.uint8)   # bytes c_0..c_15
        bits = np.unpackbits(codes, axis=1, bitorder="little")                 # bit p of the code
        m = 2 * np.arange(128, dtype=np.int64) - 127         # 128 u_p, odd, |m| <= 127
        numerators = bits.astype(np.int64) @ m[:, None] ** np.arange(_ORDER + 1)
        exact = numerators / 128.0 ** np.arange(_ORDER + 1)  # a power-of-two division: exact
        looked_up = sum(tables[i][codes[:, i]] for i in range(16))
        assert np.array_equal(looked_up, exact)

    @pytest.mark.parametrize("columns", [1, 2, 3, 8191, 8192, 8193, 16385])
    def test_chunked_pairs_equal_one_shot_pairs(self, columns):
        child = np.random.default_rng(columns).standard_normal((_ORDER + 1, columns))
        out = np.empty((_ORDER + 1, columns // 2))
        assert _pair_moments(child, out) is out
        assert np.array_equal(out, _one_shot_pair_moments(child))

    @pytest.mark.parametrize("stream", [
        SequenceStream(M11, 5, 0),
        SequenceStream(M101, 5, 1),
        PatchedStream(SequenceStream(M11, 5, 0), [1] * 40 + [0] * 9),
        SequenceStream(parse_model("-2,1,3/7"), 5, 2),
    ])
    def test_levels_are_built_on_first_read_as_a_one_shot_pyramid(self, stream):
        n = 12_291 * _BASE - 5                              # three _COLUMNS chunks and a bit
        table = MomentTable(stream, n)
        assert table.n_terms == 12_291 * _BASE
        top = (12_291).bit_length() - 1
        # a point no level serves, one with N < B and one on base blocks build nothing
        for x, terms in ((0.9, 5000), (1.0 - 2.0 ** -30, _BASE - 1), (1.0 - 2.0 ** -10, n)):
            eval_truncated(table, x, terms)
        assert len(table._levels) == 1
        eval_truncated(table, 1.0 - 2.0 ** -12, n)         # blocks of 4 * _BASE terms
        assert len(table._levels) == 3
        eval_truncated(table, 1.0 - 2.0 ** -40, n)         # capped at the top level
        assert len(table._levels) == top + 1
        planes = _planes(stream, table.n_terms)
        assert np.array_equal(table._planes, planes)
        level = _base_moments(stream.model, planes, _ORDER)
        assert level.shape == (_ORDER + 1, 12_291)
        assert np.array_equal(table._levels[0], level)
        for stored in table._levels[1:]:
            level = _one_shot_pair_moments(level)
            assert np.array_equal(stored, level)
        assert level.shape[1] == 1

    @pytest.mark.parametrize("stream", [SequenceStream(M11, 5, 0), SequenceStream(M101, 5, 1)])
    def test_integer_sets_give_the_exact_base_moments(self, stream):
        # the moments of integer coefficients have integer numerators over B^j,
        # below 2^53 in size: the base level holds them bit for bit
        n = 4096 * _BASE
        values = np.array([int(v) for v in stream.model.values], dtype=np.int64)
        a = values[stream.index_array(n)].reshape(-1, _BASE)
        m = 2 * np.arange(_BASE, dtype=np.int64) - (_BASE - 1)   # B u_p, odd, |m| < B
        numerators = a @ m[:, None] ** np.arange(_ORDER + 1)
        assert np.abs(numerators).max() < 2 ** 53
        exact = np.ascontiguousarray((numerators / float(_BASE) ** np.arange(_ORDER + 1)).T)
        assert np.array_equal(_base_moments(stream.model, _planes(stream, n), _ORDER), exact)
        assert np.array_equal(MomentTable(stream, n)._levels[0], exact)

    def test_table_store_stays_below_one_point_six_bytes_a_term(self):
        # 1/8 B a term for each of the two value planes and 1 B set aside for
        # the 128-term base level (0.5 B) and the levels above it; no byte a
        # term is held, since the stream is drawn and packed 16,384 terms at
        # a time.  The store once took 12.5-15 B a term at its peak, 6.4 B
        # with 16-term blocks, 3.96 B with 64-term blocks and 2.0 B (2.9 B
        # at its peak) with a byte of indices a term.  The peak adds the
        # 4,096-column passes of the base build and of the pairing.  These
        # bounds may only get tighter.
        n = 1 << 20
        stream = SequenceStream(M101, 3, 0)
        _byte_moments(_ORDER)                               # shared by every table
        tracemalloc.start()
        try:
            table = MomentTable(stream, n)
            eval_truncated(table, 1.0 - 2.0 ** -40, n)     # reads the top level
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.n_terms == n
        assert len(table._levels) == 14
        assert kept < 1.6 * n
        assert peak < 2.5 * n


def _bits(pairs) -> list[tuple[str, str]]:
    """(value, slack) pairs as exact hex strings, so -0.0 and 0.0 differ."""
    return [(value.hex(), slack.hex()) for value, slack in pairs]


# x that no level serves, on base blocks, on upper levels, and past every level of a small table
BATCH_XS = [0.3, 0.9, 0.995, 1.0 - 2.0 ** -10, 1.0 - 2.0 ** -14, 1.0 - 2.0 ** -40]
# the last set decodes its leftover and directly summed terms from four value planes
BATCH_MODELS = [M11, M101, parse_model("-2,1,3/7"),
                parse_model("-2,-1,0,1,2", "1/8,1/2,1/16,1/4,1/16")]
BATCH_POINTS = st.tuples(st.sampled_from(BATCH_XS) | st.floats(0.9, 1.0, exclude_max=True),
                         st.integers(1, 6000) | st.integers(1, _BASE - 1))


def _alone(stream, points) -> list[tuple[float, float]]:
    """Each point evaluated alone, in a table filled to its own N."""
    return [MomentTable(stream, n).power_sums([(x, n)])[0] for x, n in points]


class TestPowerSums:
    """A table point has the same bits in any table and any batch."""

    @given(model=st.sampled_from(BATCH_MODELS), seed=st.integers(0, 2 ** 32 - 1),
           filled=st.integers(1, 4000), points=st.lists(BATCH_POINTS, min_size=1, max_size=12),
           data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_point_of_a_batch_has_the_bits_it_has_alone(self, model, seed, filled, points,
                                                              data):
        points += data.draw(st.lists(st.sampled_from(points), max_size=4))     # duplicates
        stream = SequenceStream(model, seed, 0)
        table = MomentTable(stream, filled)
        batch = table.power_sums(points)
        assert _bits(batch) == _bits(_alone(stream, points))
        direct = [(x, n) for x, n in points if table._level(-math.log(x), n) < 0]
        assert _bits(table.power_sums(direct)) == _bits(
            _power_sum(stream.float_coefficients(n), x) for x, n in direct)

    # N = 128 fits one base block whatever the table's length: a 256-term table
    # gives the slack of a 128-term one, not that of its 2-block level
    @example(model=M11, seed=0, points=[(1.0 - 2.0 ** -14, _BASE)], lengths=[_BASE, 2 * _BASE])
    @given(model=st.sampled_from(BATCH_MODELS), seed=st.integers(0, 2 ** 32 - 1),
           points=st.lists(BATCH_POINTS, min_size=1, max_size=6),
           lengths=st.lists(st.integers(1, 9000), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_a_point_has_the_same_bits_in_every_table(self, model, seed, points, lengths):
        stream = SequenceStream(model, seed, 0)
        expected = _bits(_alone(stream, points))
        for length in lengths:                          # filled to other lengths, or grown
            assert _bits(MomentTable(stream, length).power_sums(points)) == expected
        handed = MomentTable(stream, min(lengths), points)
        assert _bits(handed.power_sum(x, n) for x, n in points) == expected
        longest = max(lengths) + max(n for _, n in points)
        handed.power_sum(0.5, longest)                  # rebuilds the table
        assert handed.n_terms >= longest
        assert _bits(handed._kept[point] for point in points) == expected
        assert _bits(handed.power_sums(points)) == expected

    def test_a_batch_of_every_kind_of_point(self):
        stream = SequenceStream(M101, 4, 0)
        table = MomentTable(stream, 3000)
        deep = 1.0 - 2.0 ** -40
        points = [(0.9, 2000),                  # no level serves it: summed directly
                  (deep, _BASE - 1),            # N < B: summed directly
                  (1.0 - 2.0 ** -10, 2500),     # base blocks
                  (deep, 3000),                 # capped at the largest block inside N
                  (1.0 - 2.0 ** -10, 2500),     # a duplicate
                  (1.0 - 2.0 ** -12, 9000)]     # past the table: it is rebuilt first
        batch = table.power_sums(points)
        assert table.n_terms == 71 * _BASE                  # 9,000 rounded up
        cap = (3000 // _BASE).bit_length() - 1               # blocks of 16 * _BASE terms
        assert [table._level(-math.log(x), n) for x, n in points] == [-1, -1, 0, cap, 0, 2]
        assert batch[0] == _power_sum(stream.float_coefficients(2000), 0.9)
        assert batch[1] == _power_sum(stream.float_coefficients(_BASE - 1), deep)
        assert batch[2] == batch[4]
        assert _bits(batch) == _bits(_alone(stream, points))

    def test_handed_points_are_kept_through_a_rebuild(self, monkeypatch):
        stream = SequenceStream(M11, 4, 0)
        points = [(1.0 - 2.0 ** -10, 2500), (0.9, 2000), (1.0 - 1e-3, 3000)]
        table = MomentTable(stream, 3000, points)
        expected = MomentTable(stream, 3000).power_sums(points)

        def fail(batch):
            raise AssertionError(f"evaluated again: {batch}")

        monkeypatch.setattr(table, "power_sums", fail)
        assert [table.power_sum(x, n) for x, n in points] == expected
        with pytest.raises(AssertionError, match="evaluated again"):
            table.power_sum(1.0 - 1e-3, 2999)
        monkeypatch.undo()
        table.power_sum(1.0 - 1e-3, 5000)                # rebuilds the table
        assert table.n_terms == 40 * _BASE
        assert MomentTable(stream, 5000).power_sums(points) == expected
        monkeypatch.setattr(table, "power_sums", fail)
        assert [table.power_sum(x, n) for x, n in points] == expected
