"""Enclosure soundness against an independent exact-arithmetic oracle.

At dyadic points x = 1 - 2^-t the truncated sum sum_{n<=N} a_n x^n is
computed by Horner's rule in integer fixed point with FRAC_BITS fractional
bits.  Multiplying by x is S - S/2^t, a shift, so every step rounds outward
by at most one unit in the last place and the oracle brackets the exact
truncated sum within N * 2^-FRAC_BITS.  No float enters the oracle, so it
shares no rounding with ``eval_truncated``.
"""

from fractions import Fraction

import pytest

from randseries import SequenceStream, eval_to_eps, eval_truncated, parse_model, required_terms
from randseries.series_eval import _BLOCK, _LADDER

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
