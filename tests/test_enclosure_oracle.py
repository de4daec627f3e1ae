"""Enclosure soundness against an independent exact-arithmetic oracle.

At dyadic points x = 1 - 2^-t the truncated sum sum_{n<=N} a_n x^n is
computed by Horner's rule in integer fixed point with FRAC_BITS fractional
bits.  Multiplying by x is S - S/2^t, a shift, so every step rounds outward
by at most one unit in the last place and the oracle brackets the exact
truncated sum within N * 2^-FRAC_BITS.  No float enters the oracle, so it
shares no rounding with ``eval_truncated``, on a stream or on a ``MomentTable``.
"""

import math
from fractions import Fraction

import pytest

from randseries import (
    PatchedStream,
    SequenceStream,
    eval_to_eps,
    eval_truncated,
    parse_model,
    required_terms,
    series_eval,
)
from randseries.coefficients import _BLOCK
from randseries.series_eval import _LADDER, _ORDER, _TAU, MomentTable, rounding_slack

FRAC_BITS = 160
EPS = 0.01

MODELS = {
    "binary": parse_model("-1,1"),
    "ternary_weighted": parse_model("-1,0,1", "1/4,1/4,1/2"),
}


def fixed_point_sum(coefficients: list[int], t: int) -> tuple[Fraction, Fraction]:
    """Outward-rounded [lo, hi] around sum a_n (1 - 2^-t)^n over n = 1..N."""
    lo = hi = 0
    for a in reversed(coefficients):
        scaled = a << FRAC_BITS
        lo = scaled + lo + ((-lo) >> t)     # floor(x * lo): lo - ceil(lo / 2^t)
        hi = scaled + hi - (hi >> t)        # ceil(x * hi): hi - floor(hi / 2^t)
    lo += (-lo) >> t
    hi -= hi >> t
    return Fraction(lo, 1 << FRAC_BITS), Fraction(hi, 1 << FRAC_BITS)


def test_oracle_brackets_exact_rational_sum():
    coefficients = [1, -1, -1, 0, 1, 1, -1, 1, 0, -1] * 30
    for t in (1, 4, 9):
        x = 1 - Fraction(1, 2 ** t)
        exact = sum(a * x ** n for n, a in enumerate(coefficients, start=1))
        lo, hi = fixed_point_sum(coefficients, t)
        assert lo <= exact <= hi
        assert hi - lo <= Fraction(len(coefficients), 1 << FRAC_BITS)


@pytest.mark.parametrize("t", [4, 8, 12, 16])
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("seed", [0, 7, 20170912])
def test_enclosure_contains_exact_truncated_sum(name, seed, t):
    model = MODELS[name]
    stream = SequenceStream(model, seed, 0)
    x = 1.0 - 2.0 ** -t
    n = required_terms(model.max_abs_float, x, EPS)
    assert n <= 1_100_000

    values = [int(v) for v in model.values]
    assert [Fraction(v) for v in values] == list(model.values)
    lo, hi = fixed_point_sum([values[i] for i in stream.index_array(n).tolist()], t)
    assert hi - lo <= Fraction(n, 1 << FRAC_BITS)

    bv = eval_truncated(stream, x, n)
    assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo
    assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack)

    # the certified enclosure of the whole series is the same truncation widened by the tail
    full = eval_to_eps(stream, x, EPS)
    assert full.n_terms == n and full.value == bv.value
    assert Fraction(full.lower) <= lo and hi <= Fraction(full.upper)


# The kernel forms x^(h+i) as x^h * x^i over a ladder of B powers and sums in
# blocks of BLOCK terms; these lengths sit on and around both edges.
B, BLOCK = _LADDER, _BLOCK
EDGE_LENGTHS = [1, 2, B - 1, B, B + 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


@pytest.mark.parametrize("n", EDGE_LENGTHS)
@pytest.mark.parametrize("t", [12, 20])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_enclosure_at_ladder_and_block_edges(name, t, n):
    model = MODELS[name]
    stream = SequenceStream(model, 7, 0)
    x = 1.0 - 2.0 ** -t
    values = [int(v) for v in model.values]
    lo, hi = fixed_point_sum([values[i] for i in stream.index_array(n).tolist()], t)

    bv = eval_truncated(stream, x, n)
    assert bv.n_terms == n
    assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo
    assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack)


# The moment table: blocks of 16 terms at level 0 and 16 * 2^L at level L, and
# the table's own length; TABLE_GROWN lies past it, so evaluating there grows it.
TABLE_TERMS = 5000
TABLE_LENGTH = 5008
TABLE_GROWN = TABLE_LENGTH + 200
TABLE_EDGES = ([1, 15, 16, 17] + [(1 << k) + e for k in range(5, 13) for e in (-1, 0, 1)]
               + [TABLE_LENGTH, TABLE_GROWN])
TABLE_STREAMS = {
    "binary": lambda: SequenceStream(MODELS["binary"], 7, 0),
    "ternary_weighted": lambda: SequenceStream(MODELS["ternary_weighted"], 7, 0),
    "patched": lambda: PatchedStream(SequenceStream(MODELS["binary"], 7, 0), [1] * 40 + [0] * 9),
}


def table_and_oracle(name, t):
    """Yield (n, table evaluation, oracle bracket) at every TABLE_EDGES length, in order."""
    stream = TABLE_STREAMS[name]()
    table = MomentTable(stream, TABLE_TERMS)
    values = [int(v) for v in stream.model.values]
    coefficients = [values[i] for i in stream.index_array(TABLE_GROWN).tolist()]
    x = 1.0 - 2.0 ** -t
    for n in TABLE_EDGES:
        bv = eval_truncated(table, x, n)
        assert table.n_terms == (TABLE_LENGTH if n <= TABLE_LENGTH else TABLE_GROWN + 8)
        yield n, bv, fixed_point_sum(coefficients[:n], t)


@pytest.mark.parametrize("t", range(4, 21))
@pytest.mark.parametrize("name", sorted(TABLE_STREAMS))
def test_table_enclosure_contains_exact_truncated_sum(name, t):
    for n, bv, (lo, hi) in table_and_oracle(name, t):
        assert bv.n_terms == n
        assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo, n
        assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack), n


def test_grown_table_equals_a_fresh_one():
    stream = SequenceStream(MODELS["ternary_weighted"], 3, 1)
    grown = MomentTable(stream, 1000)
    fresh = MomentTable(stream, 70_000)
    eval_truncated(grown, 0.999, 1)
    assert grown.n_terms == 1008
    eval_truncated(grown, 0.999, 70_000)
    assert grown.n_terms == 70_000
    for x in (0.999, 1.0 - 2.0 ** -20):
        for n in (1, 17, 999, 1000, 4097, 65_537, 70_000):
            assert eval_truncated(grown, x, n) == eval_truncated(fresh, x, n)


@pytest.mark.parametrize("n", [1, 15, 16, 17, TABLE_TERMS, 70_000])
def test_table_is_filled_to_the_request_on_construction(n):
    table = MomentTable(SequenceStream(MODELS["ternary_weighted"], 3, 1), n)
    assert table.n_terms == -(-n // 16) * 16


def test_table_error_constants():
    remainder = _TAU ** (_ORDER + 1) * math.exp(2 * _TAU) / math.factorial(_ORDER + 1)
    assert remainder <= 2.0 ** -40


def test_each_point_uses_the_largest_level_with_s_b_over_2_within_tau():
    table = MomentTable(SequenceStream(MODELS["binary"], 7, 0), 1 << 16)
    top = 12                                    # 2^16 terms in blocks of 16 * 2^12
    for t in range(1, 30):
        for x in (1.0 - 2.0 ** -t, 1.0 - 1.5 * 2.0 ** -t):
            s = -math.log(x)
            level = table._level(s)
            half = 8 << max(level, 0)           # half the block length at that level
            assert (s * half <= _TAU) if level >= 0 else (s * 8 > _TAU), x
            assert level == top or s * 2 * half > _TAU, x


@pytest.mark.parametrize("name", ["binary", "patched"])
def test_low_order_table_is_sound_only_through_its_remainder(name, monkeypatch):
    # At order 1 the Taylor remainder dominates every rounding error, so the
    # enclosure holds only because the slack carries the remainder bound.
    monkeypatch.setattr(series_eval, "_ORDER", 1)
    beyond_rounding = 0
    for t in (8, 12, 16, 20):
        x = 1.0 - 2.0 ** -t
        for n, bv, (lo, hi) in table_and_oracle(name, t):
            assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo, (t, n)
            assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack), (t, n)
            direct_slack = rounding_slack(n, x * (1 - x ** n) / (1 - x) * 1.001)
            beyond_rounding += abs(Fraction(bv.value) - lo) > direct_slack
    assert beyond_rounding
