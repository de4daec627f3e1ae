import random
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randseries import (
    BudgetExceededError,
    ConfigError,
    PositionClass,
    ScanGrid,
    SequenceStream,
    domain_fraction,
    parse_model,
    position_class,
    shift_down,
    shift_effect_on_scan,
    shift_up,
    verify_matching,
)
from randseries import combinatorics
from randseries.combinatorics import shift_down_indices, shift_up_indices

from .oracles import binomial, max_one_flip_domain, unmatched_positions
from .streams import PatternStream

M11 = parse_model("-1,1")
M3 = parse_model("-1,0,1")


class TestShiftUp:
    def test_two_openings_flip_leftmost(self):
        d1, d2 = M11.values
        assert shift_up(M11, (d1, d1)) == (d2, d1)

    def test_sum_raised_by_gap(self):
        word = (Fraction(-1), Fraction(-1), Fraction(1), Fraction(-1))
        image = shift_up(M11, word)
        assert sum(image) - sum(word) == M11.values[1] - M11.values[0]

    def test_no_openings_unmatched(self):
        d2 = M11.values[1]
        assert shift_up(M11, (d2, d2)) is None

    def test_unknown_value_rejected(self):
        with pytest.raises(ConfigError):
            shift_up(M11, (Fraction(2),))

    def test_prefix_in_prefix_out(self):
        p = PatternStream(M11, [0]).prefix(3)
        q = shift_up(M11, p)
        assert q.indices == (1, 0, 0)

    def test_other_values_untouched(self):
        d1, _d2, = M3.values[0], M3.values[1]
        word = (Fraction(1), Fraction(-1), Fraction(1), Fraction(-1))
        image = shift_up(M3, word)
        # the 1's are outside {d1, d2} = {-1, 0} here, so they never move
        assert image[0] == 1 and image[2] == 1
        assert sum(image) - sum(word) == M3.values[1] - M3.values[0]


class TestPositionClass:
    def test_partition_of_positions(self):
        word = (Fraction(1), Fraction(-1), Fraction(0), Fraction(1))
        cls = position_class(M3, word)      # d_1 = -1, d_2 = 0 here
        assert cls.n == 4
        assert cls.movable == (2, 3)
        assert cls.fixed == ((1, 2), (4, 2))
        assert cls.size == 2

    def test_binary_words_are_one_class(self):
        cls = position_class(M11, PatternStream(M11, [0, 1]).prefix(6))
        assert cls.movable == (1, 2, 3, 4, 5, 6)
        assert cls.fixed == ()

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigError):
            PositionClass(3, (1, 2), ())             # position 3 unaccounted
        with pytest.raises(ConfigError):
            PositionClass(2, (1,), ((2, 0),))        # fixed slot carrying d_1

    def test_matching_never_touches_fixed_positions(self):
        for seed in range(20):
            word = SequenceStream(M3, seed, 0).prefix(12)
            image = shift_up(M3, word)
            if image is None:
                continue
            cls = position_class(M3, word)
            for pos, ix in cls.fixed:
                assert image.indices[pos - 1] == ix


def _reference_up(word):
    opens, _ = unmatched_positions(word)
    return word[:opens[0]] + (1,) + word[opens[0] + 1:] if opens else None


def _reference_down(word):
    _, closings = unmatched_positions(word)
    return word[:closings[-1]] + (0,) + word[closings[-1] + 1:] if closings else None


class TestBracketOracle:
    @pytest.mark.parametrize("k,n_max", [(2, 10), (3, 7), (4, 5)])
    def test_every_short_word(self, k, n_max):
        for n in range(1, n_max + 1):
            for word in product(range(k), repeat=n):
                assert shift_up_indices(word) == _reference_up(word)
                assert shift_down_indices(word) == _reference_down(word)

    def test_seeded_random_words(self):
        rng = random.Random(20170912)
        for _ in range(3000):
            k = rng.choice((2, 3, 4))
            word = tuple(rng.randrange(k) for _ in range(rng.randint(1, 80)))
            assert shift_up_indices(word) == _reference_up(word)
            assert shift_down_indices(word) == _reference_down(word)

    def test_empty_word_is_unmatched(self):
        assert shift_up_indices(()) is None and shift_down_indices(()) is None

    def test_columns_scan_like_single_words(self):
        # one (N, W) array, one column per word, gives each word's own flips
        rng = random.Random(20170913)
        for _ in range(300):
            k, n = rng.choice((2, 3, 4)), rng.randint(1, 80)
            words = [tuple(rng.randrange(k) for _ in range(n)) for _ in range(rng.randint(1, 3))]
            up, down = combinatorics._flips(np.array(words, dtype=np.uint8).T)
            for word, u, d in zip(words, up, down):
                opens, closings = unmatched_positions(word)
                assert (u, d) == (opens[0] if opens else -1, closings[-1] if closings else -1)


class TestInversePairing:
    @pytest.mark.parametrize("k,n", [(2, 6), (2, 8), (3, 5)])
    def test_roundtrip_on_domain(self, k, n):
        for word in product(range(k), repeat=n):
            image = shift_up_indices(word)
            if image is not None:
                assert shift_down_indices(image) == word

    def test_fully_matched_words_unmatched_both_ways(self):
        n = 8
        images = set()
        for word in product(range(2), repeat=n):
            img = shift_up_indices(word)
            if img is not None:
                images.add(img)
        for word in product(range(2), repeat=n):
            if shift_up_indices(word) is None and word not in images:
                assert shift_down_indices(word) is None


class TestDomainFraction:
    def test_small_counts(self):
        assert domain_fraction(M11, 1) == Fraction(1, 2)
        assert domain_fraction(M11, 4) == Fraction(10, 16)
        assert domain_fraction(M11, 10) == Fraction(772, 1024)

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_closed_form_binary(self, n):
        expected = Fraction(2 ** n - binomial(n, n // 2), 2 ** n)
        assert domain_fraction(M11, n) == expected

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            domain_fraction(M11, 40)

    def test_word_budget_counts_cells_before_allocating(self, monkeypatch):
        # 2^22 words fit a word count of 5e7, but 2^22 * 22 array cells do not
        def no_indices(*args, **kwargs):
            raise AssertionError("the words were allocated")

        monkeypatch.setattr(np, "indices", no_indices)
        with pytest.raises(BudgetExceededError) as exc:
            verify_matching(M11, 22)
        assert exc.value.required == 2 ** 22 * 22

    def test_word_cells_obey_the_term_budget_variable(self, monkeypatch):
        monkeypatch.setenv("RANDSERIES_TERM_BUDGET", "1000")
        with pytest.raises(BudgetExceededError) as exc:
            verify_matching(M11, 8)
        assert (exc.value.required, exc.value.limit) == (2 ** 8 * 8, 1000)
        assert verify_matching(M11, 6).total_words == 64     # 384 cells fit

    def test_empty_word_rejected(self):
        with pytest.raises(ConfigError):
            domain_fraction(M11, 0)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_independent_matching_oracle(self, n):
        matched = domain_fraction(M11, n) * 2 ** n
        assert matched == max_one_flip_domain(n)


class TestVerifyMatching:
    def test_uniform_preserves_measure(self):
        report = verify_matching(M11, 8)
        assert report.injective and report.sum_shift_exact and report.inverse_roundtrip
        assert report.measure_ratio == 1
        assert not report.violations

    def test_three_letter_alphabet(self):
        report = verify_matching(M3, 6)
        assert report.total_words == 3 ** 6
        assert report.injective and report.sum_shift_exact and report.inverse_roundtrip
        assert not report.violations

    def test_weighted_flip_triples_probability(self):
        m = parse_model("-1,1", "1/4,3/4")
        report = verify_matching(m, 6)
        assert report.measure_ratio == 3
        assert report.measure_monotone
        assert not report.violations

    def test_report_serializes(self):
        data = verify_matching(M11, 4).to_data()
        assert data["domain_fraction"] == "5/8"
        assert data["matched_count"] == 10


def _flip_first_letter(real):
    """A broken matching: every matched word flips position 0, whatever it holds."""
    def flips(words):
        up, down = real(words)
        return np.where(up >= 0, 0, -1), down
    return flips


class TestVerifyMatchingViolations:
    KINDS = ("injectivity", "sum_shift", "inverse", "measure")

    def test_each_kind_reported(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_flips", _flip_first_letter(combinatorics._flips))
        report = verify_matching(M11, 2)
        # domain {00, 10}: 00 -> 10 is sound; 10 -> 10 repeats that image,
        # moves no value and does not invert back to itself
        assert [tuple(v) for v in report.violations] == [(kind, (1, 0)) for kind in self.KINDS]
        assert not (report.injective or report.sum_shift_exact or report.inverse_roundtrip)

    def test_word_order_then_kind_and_cut(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_flips", _flip_first_letter(combinatorics._flips))
        monkeypatch.setattr(combinatorics, "_MAX_VIOLATIONS", 10 ** 6)
        full = verify_matching(M3, 4).violations
        assert len(full) > 5
        order = [(word, self.KINDS.index(kind)) for kind, word in full]
        assert order == sorted(order) and len(set(order)) == len(order)
        monkeypatch.setattr(combinatorics, "_MAX_VIOLATIONS", 5)
        assert verify_matching(M3, 4).violations == full[:5]


SWEEP = [("-1,1", None), ("-1,1", "1/4,3/4"), ("1,-1", "2/3,1/3"),
         ("-1,0,1", None), ("-1,0,1", "1/4,1/2,1/4"), ("0,1/3,-2", "1/2,1/3,1/6"),
         ("-1,0,1,2", None), ("1/2,-3,0,7", "1/10,2/10,3/10,4/10")]
SWEEP_N = {2: 14, 3: 9, 4: 7}


class TestChunkBoundaries:
    # every sweep length fits one default chunk of at most 2^16 words

    @pytest.mark.parametrize("spec,weights", SWEEP)
    def test_small_chunks_give_the_one_chunk_report(self, monkeypatch, spec, weights):
        model = parse_model(spec, weights)
        lengths = range(1, SWEEP_N[model.k] + 1)
        whole = [(verify_matching(model, n).to_data(), domain_fraction(model, n))
                 for n in lengths]
        monkeypatch.setattr(combinatorics, "_BLOCK", model.k ** 4)
        assert [(verify_matching(model, n).to_data(), domain_fraction(model, n))
                for n in lengths] == whole

    @pytest.mark.parametrize("chunk", [1, 9])
    def test_violations_across_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(combinatorics, "_flips", _flip_first_letter(combinatorics._flips))
        monkeypatch.setattr(combinatorics, "_MAX_VIOLATIONS", 10 ** 6)
        whole = verify_matching(M3, 4)
        monkeypatch.setattr(combinatorics, "_BLOCK", chunk)
        chunked = verify_matching(M3, 4)
        assert chunked == whole
        monkeypatch.setattr(combinatorics, "_MAX_VIOLATIONS", 5)
        assert verify_matching(M3, 4).violations == whole.violations[:5]
        # (0,0,0,0) and (1,0,0,0) both map to (1,0,0,0); the later word, 27 words
        # and so at least three 9-word chunks on, carries the repeat
        assert ("injectivity", (1, 0, 0, 0)) in chunked.violations
        assert ("injectivity", (0, 0, 0, 0)) not in chunked.violations


class TestMatchingMemory:
    def test_peak_stays_bounded_at_n_20(self):
        # 2^20 words: a k^N-byte seen array plus chunks of 2^16 words, not k^N * N cells
        tracemalloc.start()
        try:
            report = verify_matching(M11, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.injective and report.total_words == 2 ** 20
        assert peak <= 32 * 2 ** 20


class TestWordProperties:
    @given(st.integers(2, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_image_differs_in_exactly_one_position(self, k, data):
        n = data.draw(st.integers(1, 40))
        word = tuple(data.draw(st.integers(0, k - 1)) for _ in range(n))
        image = shift_up_indices(word)
        if image is None:
            # no unmatched opening symbol: check by direct balance count
            bal = 0
            for ix in word:
                if ix == 0:
                    bal += 1
                elif ix == 1 and bal:
                    bal -= 1
            assert bal == 0
        else:
            diffs = [(a, b) for a, b in zip(word, image) if a != b]
            assert diffs == [(0, 1)]
            assert shift_down_indices(image) == word


class TestShiftEffectOnScan:
    def test_single_coordinate_difference(self):
        stream = PatternStream(M11, [0])          # all d1
        grid = ScanGrid(0.5, 0.5, 0.25)
        report = shift_effect_on_scan(stream, 1, grid, eps=1e-6)
        assert report.matched and report.flip_position == 1
        assert report.shift == 2
        for row in report.rows:
            # difference is exactly (d2 - d1) * x for a position-1 flip
            assert row.difference == pytest.approx(2.0 * row.x, abs=1e-9)
            assert row.within

    def test_unmatched_head(self):
        stream = PatternStream(M11, [1])          # all d2: no opening symbols
        report = shift_effect_on_scan(stream, 4, ScanGrid(0.5, 0.5, 0.5))
        assert not report.matched and report.shift is None

    def test_certified_band_holds_for_random_streams(self):
        grid = ScanGrid(1e-2, 0.5, 1e-3)
        found = 0
        seed = 0
        while found < 5:
            stream = SequenceStream(M11, 1000 + seed, 0)
            seed += 1
            report = shift_effect_on_scan(stream, 12, grid, eps=0.01)
            if not report.matched:
                continue
            found += 1
            assert report.all_within
            for row in report.rows:
                assert abs(row.difference - 2.0) <= row.band + row.slack

    def test_roundtrip_head_zero_shift(self):
        # applying shift_up then shift_down restores the head: identical streams
        stream = SequenceStream(M11, 5, 0)
        head = stream.index_prefix(6)
        image = shift_up_indices(head)
        assert image is not None and shift_down_indices(image) == head
