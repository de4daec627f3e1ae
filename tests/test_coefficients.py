import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from scipy import stats

from randseries import (
    CoefficientModel,
    ConfigError,
    FinitePrefix,
    MeanSign,
    PatchedStream,
    SequenceStream,
    apply_perm,
    eval_abel_form,
    eval_prefix,
    orbit_values,
    parse_model,
    prefix_infimum,
    shift_up,
)
from randseries.coefficients import _BLOCK

from .streams import PatternStream


def model_of(*values, weights=None):
    return CoefficientModel.create(values, weights)


class TestModelValidation:
    def test_parse_model_basic(self):
        m = parse_model("-1,1")
        assert m.values == (Fraction(-1), Fraction(1))
        assert m.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_parse_model_weights(self):
        m = parse_model("-1,1", "1/4,3/4")
        assert m.weights == (Fraction(1, 4), Fraction(3, 4))

    def test_decimal_strings_are_exact(self):
        m = parse_model("0.1,-0.3")
        assert m.values == (Fraction(1, 10), Fraction(-3, 10))

    @pytest.mark.parametrize(
        "values,weights",
        [
            (["1"], None),                      # k >= 2
            (["1", "1"], None),                 # distinct
            (["0", "1"], ["1/2", "1/3"]),       # sum != 1
            (["0", "1"], ["0", "1"]),           # positive weights
            (["0", "1"], ["1/2"]),              # one weight per value
            (["1e400", "1"], None),             # |d| <= 2^900, about 8.5e270
            ([str(2 ** 900 + 1), "1"], None),
            (["1e300", "1"], None),
            (["-1e300", "1"], None),
            ([], None),                         # empty value list
        ],
    )
    def test_invalid_models_rejected(self, values, weights):
        with pytest.raises(ConfigError):
            CoefficientModel.create(values, weights)

    def test_size_bound_is_inclusive(self):
        m = model_of(str(2 ** 900), str(-2 ** 900))
        assert m.max_abs == 2 ** 900 and m.max_abs_float == 2.0 ** 900

    def test_float_values_rejected(self):
        with pytest.raises(ConfigError):
            CoefficientModel.create([0.1, 0.2])

    def test_index_of(self):
        m = parse_model("0.1,1")
        assert m.index_of(Fraction(1, 10)) == 0
        assert m.index_of(0.1) == 0          # float mirror
        assert m.index_of(1) == 1
        with pytest.raises(ConfigError):
            m.index_of(2)

    def test_integer_scaled(self):
        m = parse_model("1/2,-1/3")
        scaled, den = m.integer_scaled()
        assert den == 6 and scaled == (3, -2)


class TestCachedFloats:
    def test_max_abs_float_is_the_cached_float_of_max_abs(self):
        m = parse_model("-2,1,3/7")
        assert m.max_abs == 2 and m.max_abs_float == 2.0
        m = parse_model("-1/3,2/7")
        assert m.max_abs == Fraction(1, 3)
        assert m.max_abs_float == float(Fraction(1, 3))
        assert m.max_abs_float is m.max_abs_float        # converted once, then cached


class TestMean:
    def test_symmetric_zero(self):
        m = model_of("-1", "1")
        assert m.mean() == 0
        assert m.mean_sign() is MeanSign.ZERO

    def test_bernoulli_half(self):
        m = model_of("0", "1")
        assert m.mean() == Fraction(1, 2)
        assert m.mean_sign() is MeanSign.POSITIVE

    def test_weighted(self):
        m = model_of("-1", "1", weights=["1/4", "3/4"])
        assert m.mean() == Fraction(1, 2)
        assert m.mean_sign() is MeanSign.POSITIVE

    def test_negative(self):
        assert model_of("-2", "1").mean_sign() is MeanSign.NEGATIVE

    @pytest.mark.parametrize("spec,weights", [("-1,1", None), ("0,1", None),
                                              ("-1,0,1", None), ("-1,1", "1/4,3/4")])
    def test_mean_sign_matches_float(self, spec, weights):
        m = parse_model(spec, weights)
        float_mean = float(np.dot(m.floats, [float(w) for w in m.weights]))
        exact = m.mean()
        if exact > 0:
            assert float_mean > 0
        elif exact < 0:
            assert float_mean < 0
        else:
            assert abs(float_mean) < 1e-15


class TestStreamDeterminism:
    def test_repeatable(self):
        m = parse_model("-1,1")
        a = SequenceStream(m, 123, 4).index_prefix(50)
        b = SequenceStream(m, 123, 4).index_prefix(50)
        assert a == b

    def test_prefix_consistency(self):
        m = parse_model("-1,0,1")
        s = SequenceStream(m, 9, 2)
        assert s.index_prefix(10)[:5] == s.index_prefix(5)

    def test_scalar_vector_agree(self):
        m = parse_model("-1,1", "1/4,3/4")
        s = SequenceStream(m, 77, 3)
        assert list(s.index_prefix(200)) == [s.index_at(n) for n in range(1, 201)]

    def test_distinct_indices_differ(self):
        m = parse_model("-1,1")
        a = SequenceStream(m, 5, 0).index_prefix(64)
        b = SequenceStream(m, 5, 1).index_prefix(64)
        assert a != b

    def test_float_cache_view_matches_prefix(self):
        m = parse_model("-1,1")
        s = SequenceStream(m, 11, 0)
        short = np.array(s.float_coefficients(10))
        full = s.float_coefficients(100)
        assert np.array_equal(full[:10], short)

    def test_float_cache_growth_keeps_earlier_views(self):
        s = SequenceStream(parse_model("-1,0,1", "1/4,1/4,1/2"), 11, 0)
        views = [s.float_coefficients(n) for n in (10, 1000, 1001, 70_000, 300_000)]
        fresh = SequenceStream(s.model, 11, 0).float_coefficients(300_000)
        for v in views:
            assert not v.flags.writeable
            assert np.array_equal(v, fresh[:len(v)])

    def test_negative_sample_index_rejected(self):
        with pytest.raises(ConfigError):
            SequenceStream(parse_model("-1,1"), 0, -1)

    @given(seed=st.integers(0, 2**64 - 1), index=st.integers(0, 1000),
           n=st.integers(1, 60), m=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_prefix_consistency_property(self, seed, index, n, m):
        model = parse_model("-1,0,1")
        s = SequenceStream(model, seed, index)
        lo, hi = sorted((n, m))
        assert s.index_prefix(hi)[:lo] == s.index_prefix(lo)


class TestRangeAcrossGenerationBlocks:
    """``index_range`` generates draws in blocks of _BLOCK; every entry must
    equal the independent scalar path, on both sides of every block edge."""

    G = _BLOCK
    RANGES = [(1, 2 * G + 3), (G - 5, 3 * G + 7), (2**32 - G - 1, 2**32 + 2)]

    @pytest.mark.parametrize("lo,hi", RANGES)
    @pytest.mark.parametrize("spec,weights", [
        ("-1,1", None), ("-1,0,1", "1/4,1/4,1/2"),
        ("-1,0,1", None),                                       # full mixer
        ("-1,1", "1/4294967296,4294967295/4294967296"),         # threshold 2^32
        ("-1,1", "1/2147483648,2147483647/2147483648"),         # threshold 2^33
    ])
    def test_sequence_stream(self, spec, weights, lo, hi):
        s = SequenceStream(parse_model(spec, weights), 20170912, 7)
        assert s.index_range(lo, hi).tolist() == [s.index_at(n) for n in range(lo, hi)]

    def test_patched_stream(self):
        base = SequenceStream(parse_model("-1,0,1", "1/4,1/4,1/2"), 3, 1)
        # a head that differs from the base everywhere and ends past the first block
        head = [(base.index_at(n) + 1) % 3 for n in range(1, self.G + 4)]
        patched = PatchedStream(base, head)
        for lo, hi in [(1, 2 * self.G + 3), (self.G - 5, 2 * self.G)]:
            expected = [head[n - 1] if n <= len(head) else base.index_at(n)
                        for n in range(lo, hi)]
            assert patched.index_range(lo, hi).tolist() == expected


class TestIndexDtype:
    """Stream indices use the smallest unsigned type that holds k - 1; so do prefixes."""

    @pytest.mark.parametrize("spec,dtype", [("-1,1", np.uint8), ("-1,0,1", np.uint8)])
    def test_sequence_and_patched_streams(self, spec, dtype):
        s = SequenceStream(parse_model(spec), 5, 2)
        assert np.min_scalar_type(s.model.k - 1) == dtype
        assert s.index_range(1, 100).dtype == dtype
        assert s.index_array(0).dtype == dtype
        patched = PatchedStream(s, (1, 0, 1))
        out = patched.index_range(1, 100)
        assert out.dtype == dtype
        assert out.tolist() == [1, 0, 1] + s.index_range(4, 100).tolist()

    def test_k257_uses_uint16_and_matches_the_scalar_path(self):
        model = CoefficientModel.create([str(v) for v in range(257)])
        s = SequenceStream(model, 20170912, 7)
        lo, hi = _BLOCK - 200, _BLOCK + 200
        idx = s.index_range(lo, hi)
        assert idx.dtype == np.uint16
        assert idx.tolist() == [s.index_at(n) for n in range(lo, hi)]
        assert PatchedStream(s, (256,)).index_range(1, 3).dtype == np.uint16

    @pytest.mark.parametrize("k,dtype", [(3, np.uint8), (257, np.uint16)])
    def test_finite_prefix_keeps_the_stream_dtype(self, k, dtype):
        model = CoefficientModel.create([str(v) for v in range(k)])
        stream = SequenceStream(model, 5, 2)
        p = stream.prefix(50)
        built = [p, FinitePrefix.from_values(model, p.values), FinitePrefix(model, list(p.indices)),
                 FinitePrefix(model, []), apply_perm(p, 1), apply_perm(p, k - 1),
                 shift_up(model, p)]
        assert stream.index_range(1, 51).dtype == dtype
        assert [q.index_array.dtype for q in built] == [dtype] * len(built)
        assert not any(q.index_array.flags.writeable for q in built)

    def test_no_float_copy_is_kept(self):
        p = SequenceStream(parse_model("-1,0,1"), 5, 2).prefix(200)
        eval_prefix(p, 0.9)
        orbit_values(p, 0.9)
        eval_abel_form(p, 0.9)
        prefix_infimum(p, 64)
        assert np.array_equal(p.floats, p.model.floats[p.index_array])
        assert "floats" not in vars(p)


class TestOneBasedPositions:
    """Coefficients are a_1, a_2, ...: position 0 and below are configuration errors."""

    @pytest.mark.parametrize("lo", [0, -3])
    def test_sequence_stream(self, lo):
        s = SequenceStream(parse_model("-1,1"), 1, 0)
        with pytest.raises(ConfigError):
            s.index_range(lo, 4)
        with pytest.raises(ConfigError):
            s.index_at(lo)

    @pytest.mark.parametrize("base", ["sequence", "pattern"])
    def test_patched_stream(self, base):
        m = parse_model("-1,1")
        b = SequenceStream(m, 1, 0) if base == "sequence" else PatternStream(m, [0, 1])
        patched = PatchedStream(b, (1, 1))
        with pytest.raises(ConfigError):
            patched.index_range(0, 4)
        with pytest.raises(ConfigError):
            patched.index_at(0)
        assert patched.index_range(1, 4).tolist() == [1, 1, b.index_at(3)]


class TestSamplingDistribution:
    N_DRAWS = 1_000_000

    @pytest.mark.parametrize("spec,weights", [("-1,1", None), ("0,1", None),
                                              ("-1,0,1", None), ("-1,1", "1/4,3/4")])
    def test_frequencies_within_three_se(self, spec, weights):
        m = parse_model(spec, weights)
        s = SequenceStream(m, 7, 0)
        idx = s.index_array(self.N_DRAWS)
        counts = np.bincount(idx, minlength=m.k)
        for j, w in enumerate(m.weights):
            p = float(w)
            se = (p * (1 - p) / self.N_DRAWS) ** 0.5
            assert abs(counts[j] / self.N_DRAWS - p) < 3 * se

    @pytest.mark.parametrize("spec,weights", [("-1,1", None), ("-1,0,1", None),
                                              ("-1,1", "1/4,3/4")])
    def test_chi_square_not_rejected(self, spec, weights):
        m = parse_model(spec, weights)
        s = SequenceStream(m, 99, 1)
        idx = s.index_array(self.N_DRAWS)
        counts = np.bincount(idx, minlength=m.k)
        expected = np.array([float(w) * self.N_DRAWS for w in m.weights])
        _stat, p_value = stats.chisquare(counts, expected)
        assert p_value > 1e-6


class TestHelperStreams:
    def test_pattern_stream_cycles(self):
        m = parse_model("-1,1")
        s = PatternStream(m, [0, 1])
        assert s.index_prefix(5) == (0, 1, 0, 1, 0)
        assert s.index_at(4) == 1
        assert np.array_equal(s.float_coefficients(3), np.array([-1.0, 1.0, -1.0]))

    def test_patched_stream_overrides_head(self):
        m = parse_model("-1,1")
        base = PatternStream(m, [0])
        patched = PatchedStream(base, (1, 1))
        assert patched.index_prefix(4) == (1, 1, 0, 0)
        assert patched.index_at(2) == 1 and patched.index_at(3) == 0
        assert np.array_equal(patched.float_coefficients(3), np.array([1.0, 1.0, -1.0]))

    def test_prefix_values_and_floats(self):
        m = parse_model("-1,1")
        p = SequenceStream(m, 3, 0).prefix(6)
        assert len(p) == 6
        assert all(v in m.values for v in p.values)
        assert np.array_equal(p.floats, np.array([float(v) for v in p.values]))
