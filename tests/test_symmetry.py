from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from randseries import (
    PreconditionError,
    SequenceStream,
    apply_perm,
    orbit_sum,
    orbit_values,
    parse_model,
    sign_witness,
)
from randseries.series_eval import _power_sum

from .streams import PatternStream

M3 = parse_model("-1,0,1")
M11 = parse_model("-1,1")
M01 = parse_model("0,1")


class TestApplyPerm:
    def test_identity(self):
        p = SequenceStream(M3, 1, 0).prefix(10)
        assert apply_perm(p, 0) is p

    def test_cycle_step(self):
        p = PatternStream(M3, [0, 2]).prefix(2)      # values (-1, 1)
        q = apply_perm(p, 1)
        assert q.values == (Fraction(0), Fraction(-1))   # -1 -> 0, 1 -> -1

    def test_k_fold_rotation_is_identity(self):
        p = SequenceStream(M3, 5, 0).prefix(20)
        q = p
        for _ in range(M3.k):
            q = apply_perm(q, 1)
        assert q == p

    def test_rotation_out_of_range(self):
        p = SequenceStream(M3, 5, 0).prefix(3)
        with pytest.raises(ValueError):
            apply_perm(p, 3)
        with pytest.raises(ValueError):
            apply_perm(p, -1)

    def test_rotation_permutes_value_counts(self):
        p = SequenceStream(M3, 17, 0).prefix(5000)
        q = apply_perm(p, 1)
        counts_p = Counter(p.indices)
        counts_q = Counter(q.indices)
        for i in range(M3.k):
            assert counts_q[(i + 1) % M3.k] == counts_p[i]


class TestOrbitSum:
    def test_zero_sum_alphabet_exact(self):
        p = SequenceStream(M3, 2, 0).prefix(40)
        assert orbit_sum(p, Fraction(9, 10)) == 0

    def test_zero_sum_alphabet_float(self):
        p = SequenceStream(M3, 2, 0).prefix(10_000)
        x = 0.999
        slack = M3.k * len(p) * 1e-12 * M3.max_abs_float / (1 - x)
        assert abs(orbit_sum(p, x)) <= slack

    def test_nonzero_sum_closed_form(self):
        n = 50
        p = SequenceStream(M01, 3, 0).prefix(n)
        x = Fraction(1, 2)
        assert orbit_sum(p, x) == (x - x ** (n + 1)) / (1 - x)

    def test_binary_small_case(self):
        p = SequenceStream(M11, 4, 0).prefix(3)
        assert orbit_sum(p, Fraction(1, 2)) == 0

    def test_float_matches_closed_form_relative(self):
        n = 1000
        p = SequenceStream(M01, 3, 0).prefix(n)
        x = 0.99
        closed = x * (1 - x ** n) / (1 - x)
        assert abs(orbit_sum(p, x) - closed) <= 1e-10 * closed


class TestOrbitValues:
    @pytest.mark.parametrize("spec", ["-1,1", "0,1", "-1,0,1", "-2,1/3,1,5/7", "1e-3,-7,2"])
    def test_float_values_match_rotated_value_tables(self, spec):
        # the rotation j reads index i through the value of (i + j) mod k
        model = parse_model(spec)
        k = model.k
        for seed in range(3):
            p = SequenceStream(model, seed, 0).prefix(3000)
            for x in (0.0, 0.5, 0.9, 0.999):
                vals = orbit_values(p, x)
                assert len(vals) == k
                for j, v in enumerate(vals):
                    rotated = model.floats[(np.arange(k) + j) % k][p.index_array]
                    value, slack = _power_sum(rotated, x) if x else (0.0, 0.0)
                    assert (v.value, v.rounding_slack, v.tail_radius) == (value, slack, 0.0)

    def test_exact_values_are_rotated_prefix_sums(self):
        p = SequenceStream(M3, 9, 0).prefix(30)
        x = Fraction(7, 8)
        vals = orbit_values(p, x)
        for j, v in enumerate(vals):
            assert v == sum(a * x ** n for n, a in enumerate(apply_perm(p, j).values, 1))
        assert sum(vals) == 0


class TestSignWitness:
    def test_witness_pair_certified(self):
        p = SequenceStream(M3, 11, 0).prefix(200)
        w = sign_witness(p, 0.99)
        assert w.values[w.nonneg_index].upper >= 0
        assert w.values[w.nonpos_index].lower <= 0

    def test_every_orbit_straddles_zero(self):
        for seed in range(10):
            p = SequenceStream(M3, seed, 0).prefix(100)
            for x in (0.5, 0.9, 0.999):
                vals = orbit_values(p, x)
                assert min(v.lower for v in vals) <= 0 <= max(v.upper for v in vals)

    def test_nonzero_sum_model_rejected(self):
        p = SequenceStream(M01, 1, 0).prefix(10)
        with pytest.raises(PreconditionError):
            sign_witness(p, 0.5)

    def test_alternating_orbit(self):
        # values -x + x^2 - ... and its mirror: the witness indices differ
        p = PatternStream(M11, [0, 1]).prefix(10)
        w = sign_witness(p, 0.9)
        assert w.nonneg_index != w.nonpos_index
