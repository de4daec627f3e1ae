import math
from fractions import Fraction

import numpy as np
import pytest

from randseries import (
    BudgetExceededError,
    FinitePrefix,
    PatchedStream,
    SequenceStream,
    WitnessImpossibleError,
    eval_truncated,
    parse_model,
    prefix_infimum,
    tail_bound,
    witness_nonzero_coordinate,
    witness_positive,
    witnesses,
)

from .streams import PatternStream

M11 = parse_model("-1,1")
M01 = parse_model("0,1")


def prefix_of(model, values):
    return FinitePrefix.from_values(model, [Fraction(v) for v in values])


class TestPrefixInfimum:
    def test_single_positive_coordinate(self):
        r = prefix_infimum(prefix_of(M01, [1]))
        assert r.estimate == 0.0 and r.minimizer == 0.0
        # slack is L/(2G) = 1/(2 * 65536) for p(x) = x
        assert -1e-4 <= r.lower_bound <= 0.0

    def test_single_negative_coordinate(self):
        r = prefix_infimum(prefix_of(M11, [-1]))
        assert r.estimate == -1.0
        assert r.minimizer == 1.0
        assert r.lower_bound <= -1.0

    def test_degree_two_calculus_oracle(self):
        # p(x) = x - 2x^2 on (0,1): p' = 1 - 4x, interior critical point is a
        # maximum, so the infimum -1 is approached at x -> 1
        m = parse_model("1,-2")
        r = prefix_infimum(prefix_of(m, [1, -2]))
        assert r.estimate == pytest.approx(-1.0, abs=1e-12)
        assert r.lower_bound <= -1.0 <= r.estimate + 1e-12

    def test_lower_bound_below_random_samples(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            p = SequenceStream(M11, int(rng.integers(0, 2**32)), 0).prefix(n)
            r = prefix_infimum(p, grid_size=4096)
            xs = rng.uniform(0.0, 1.0, size=2000)
            vals = np.zeros_like(xs)
            for c in p.floats[::-1]:
                vals = vals * xs + c
            vals *= xs
            assert r.lower_bound <= vals.min() + 1e-12

    def test_doubling_grid_never_loosens(self):
        for seed in range(10):
            p = SequenceStream(M11, seed, 1).prefix(8)
            lo = prefix_infimum(p, grid_size=1024).lower_bound
            hi = prefix_infimum(p, grid_size=2048).lower_bound
            assert hi >= lo

    def test_budget_counts_every_horner_pass(self, monkeypatch):
        # N Horner passes over G + 1 points: 100 x 1001 cells exceed the budget,
        # though the 1001 grid points alone do not
        def no_arange(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        prefix = SequenceStream(M11, 0, 0).prefix(100)
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "100000")
        monkeypatch.setattr(witnesses.np, "arange", no_arange)
        with pytest.raises(BudgetExceededError) as info:
            prefix_infimum(prefix, grid_size=1000)
        assert info.value.required == 100 * 1001


class TestWitnessPositive:
    def test_binary_prefix_target_one(self):
        w = witness_positive(prefix_of(M11, [1]), 1.0)
        assert w.margin > 0
        assert w.n_fixed > w.run_end > 1
        assert 0 < w.x < 1

    def test_adversarial_tail_exact_evaluation(self):
        # exact rational check: prefix + max-D run + all-min-D tail at x
        w = witness_positive(prefix_of(M11, [1]), 1.0)
        x = Fraction(1) - Fraction(1, 2 ** w.t_exponent)
        model = M11
        j = len(w.prefix)
        p_val = sum(v * x ** n for n, v in enumerate(w.prefix.values, 1))
        run = model.max_value * (x ** (j + 1) - x ** (w.n_fixed + 1)) / (1 - x)
        tail = model.min_value * x ** (w.n_fixed + 1) / (1 - x)
        assert p_val + run + tail > 1

    def test_adversarial_tail_enclosure_evaluation(self):
        for seed in (0, 1, 2):
            base = SequenceStream(M11, seed, 0)
            w = witness_positive(base.prefix(4), 10.0)
            min_idx = M11.values.index(M11.min_value)
            adversarial = PatchedStream(PatternStream(M11, [min_idx]), w.padded_indices())
            n_eval = w.n_fixed
            bv = eval_truncated(adversarial, w.x, n_eval)
            while bv.lower <= 10.0:
                n_eval *= 2
                bv = eval_truncated(adversarial, w.x, n_eval)
                assert n_eval < 10 ** 8
            assert bv.lower > 10.0

    def test_nonnegative_alphabet_skips_tail_padding(self):
        w = witness_positive(prefix_of(M01, [0, 1]), 3.0)
        assert w.n_fixed == w.run_end + 1      # min D = 0: no tail hedge needed

    def test_tiny_target_minimal_run(self):
        w = witness_positive(prefix_of(M11, [1]), -5.0)
        assert w.run_end == len(w.prefix) + 1

    def test_impossible_without_positive_value(self):
        m = parse_model("-1,0")
        with pytest.raises(WitnessImpossibleError):
            witness_positive(prefix_of(m, [0]), 1.0)

    def test_padded_indices_obey_the_work_budget(self):
        # at target 1e6 a {-1,1} witness pins about 7e12 coordinates: the
        # witness itself is cheap, but spelling them out must fail fast
        w = witness_positive(SequenceStream(M11, 0, 0).prefix(4), 1e6, grid_size=4096)
        assert w.n_fixed > 10 ** 12
        with pytest.raises(BudgetExceededError) as info:
            w.padded_indices()
        assert info.value.required == w.n_fixed

    def test_certificate_scales_with_target(self):
        w1 = witness_positive(prefix_of(M11, [1, -1, 1]), 1.0)
        w100 = witness_positive(prefix_of(M11, [1, -1, 1]), 100.0)
        assert w100.run_end > w1.run_end
        assert w100.margin > 0


class TestWitnessSoundness:
    """Exact rational check of the certificate against the all-min(D) tail."""

    # {-1/3, 1/7} stops at target 10: at 40 it pins N = 304,691 coordinates
    @pytest.mark.parametrize("spec,weights,top", [
        ("-1,1", None, 40.0), ("-1,0,1", None, 40.0), ("0,1", None, 40.0),
        ("-2,1", None, 40.0), ("-1/3,1/7", None, 10.0), ("-1,1", "1/4,3/4", 40.0),
    ])
    @pytest.mark.parametrize("seed,length", [(0, 1), (1, 6)])
    def test_certificate_holds_exactly_and_n_is_minimal(self, spec, weights, top, seed, length):
        model = parse_model(spec, weights)
        neg = float(max(-model.min_value, 0))
        for target in (0.5, 3.0, top):
            w = witness_positive(SequenceStream(model, seed, 0).prefix(length), target,
                                 grid_size=4096)
            j, n = length, w.n_fixed
            assert n <= 100_000
            x = 1 - Fraction(1, 2 ** w.t_exponent)
            run = (x ** (j + 1) - x ** (n + 1)) / (1 - x)
            tail = x ** (n + 1) / (1 - x)
            lhs = Fraction(w.r_lower) + model.max_value * run + model.min_value * tail
            assert lhs - Fraction(target) >= Fraction(w.margin) > 0
            if n - 1 > w.run_end:
                assert tail_bound(neg, w.x, n - 1) > math.nextafter(1.0, 0.0)


class TestNonzeroCoordinateCylinder:
    def test_position_beyond_prefix_and_m(self):
        cyl = witness_nonzero_coordinate(prefix_of(M01, [0, 1]), 5)
        assert cyl.positions() == (1, 2, 6)
        assert cyl.pinned_value(6) == 1

    def test_position_beyond_long_prefix(self):
        p = prefix_of(M01, [0, 1, 0, 1, 0, 1, 0])
        cyl = witness_nonzero_coordinate(p, 3)
        assert max(cyl.positions()) == 8

    def test_members_escape_vanishing_tails(self):
        rng = np.random.default_rng(9)
        p = prefix_of(M01, [0, 0])
        m = 5
        cyl = witness_nonzero_coordinate(p, m)
        pos = max(cyl.positions())
        for _ in range(100):
            member = list(rng.integers(0, 2, size=pos + 3))
            for q, ix in cyl.fixed:
                member[q - 1] = ix
            assert cyl.contains(member)
            # not eventually zero from m: some coordinate at index >= m is nonzero
            assert any(M01.values[member[i]] != 0 for i in range(m - 1, len(member)))

    def test_contains_rejects_mismatch(self):
        cyl = witness_nonzero_coordinate(prefix_of(M01, [1]), 2)
        assert not cyl.contains([0, 0, 0, 0])
