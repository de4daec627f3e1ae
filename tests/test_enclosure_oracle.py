"""Enclosure soundness against an independent exact-arithmetic oracle.

Every binary64 x in (0, 1) is exactly m / 2^e, so the truncated sum
sum_{n<=N} a_n x^n of integer coefficients is computed by Horner's rule in
integer fixed point with FRAC_BITS fractional bits, each step an integer
product and a shift, (S * m) >> e.  Rounding every step down gives a lower
bound and rounding it up an upper one, and the two bracket the exact
truncated sum within N * 2^-FRAC_BITS.  A rational set is scaled to integers
by its common denominator first.  No float enters the oracle, so it shares
no rounding with ``eval_truncated``, on a stream or on a ``MomentTable``.
"""

import math
import statistics
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from randseries import (
    PatchedStream,
    ScanGrid,
    SequenceStream,
    crossings,
    eval_to_eps,
    eval_truncated,
    find_crossings,
    parse_model,
    required_terms,
    series_eval,
)
from randseries.coefficients import _BLOCK
from randseries.series_eval import _BASE, _LADDER, _ORDER, _TAU, MomentTable, rounding_slack

FRAC_BITS = 160
EPS = 0.01

MODELS = {
    "binary": parse_model("-1,1"),
    "ternary_weighted": parse_model("-1,0,1", "1/4,1/4,1/2"),
}


def fixed_point_sum(coefficients: list[int], x: float) -> tuple[Fraction, Fraction]:
    """Outward-rounded [lo, hi] around sum a_n x^n over n = 1..N, for binary64 x."""
    m, d = float(x).as_integer_ratio()
    e = d.bit_length() - 1                  # x = m / 2^e
    lo = hi = 0
    for a in reversed(coefficients):
        scaled = a << FRAC_BITS
        lo = scaled + ((lo * m) >> e)       # floor(x * lo)
        hi = scaled - ((-hi * m) >> e)      # ceil(x * hi)
    return Fraction((lo * m) >> e, 1 << FRAC_BITS), Fraction(-((-hi * m) >> e), 1 << FRAC_BITS)


def integer_scaled(model) -> tuple[list[int], int]:
    """The set's values times their common denominator D, and D."""
    den = math.lcm(*(v.denominator for v in model.values))
    return [int(v * den) for v in model.values], den


def scaled_sum(stream, x: float, n: int) -> tuple[Fraction, Fraction]:
    """The oracle's [lo, hi] around the stream's truncated sum at x over n terms."""
    values, den = integer_scaled(stream.model)
    lo, hi = fixed_point_sum([values[i] for i in stream.index_array(n).tolist()], x)
    return lo / den, hi / den


@pytest.mark.parametrize("x", [0.5, 1 - 2.0 ** -4, 1 - 2.0 ** -9, 0.1, 0.9, 1 - 0.1 * 2.0 ** -3])
def test_oracle_brackets_exact_rational_sum(x):
    coefficients = [1, -1, -1, 0, 1, 1, -1, 1, 0, -1] * 30
    exact = sum(a * Fraction(x) ** n for n, a in enumerate(coefficients, start=1))
    lo, hi = fixed_point_sum(coefficients, x)
    assert lo <= exact <= hi
    assert hi - lo <= Fraction(len(coefficients), 1 << FRAC_BITS)


def test_integer_scaled_rational_set():
    assert integer_scaled(parse_model("-2,1,3/7")) == ([-14, 7, 3], 7)
    assert integer_scaled(MODELS["binary"]) == ([-1, 1], 1)


@pytest.mark.parametrize("t", [4, 8, 12, 16])
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("seed", [0, 7, 20170912])
def test_enclosure_contains_exact_truncated_sum(name, seed, t):
    model = MODELS[name]
    stream = SequenceStream(model, seed, 0)
    x = 1.0 - 2.0 ** -t
    n = required_terms(model.max_abs_float, x, EPS)
    assert n <= 1_100_000

    lo, hi = scaled_sum(stream, x, n)
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
    lo, hi = scaled_sum(stream, x, n)

    bv = eval_truncated(stream, x, n)
    assert bv.n_terms == n
    assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo
    assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack)


def table_length(n: int) -> int:
    """Terms a table filled to n holds: n rounded up to whole base blocks."""
    return -(-n // _BASE) * _BASE


# The moment table: blocks of _BASE terms at level 0 and _BASE * 2^L at level L,
# and the table's own length; TABLE_GROWN lies past it, so evaluating there grows it.
TABLE_TERMS = 5000
TABLE_LENGTH = table_length(TABLE_TERMS)
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
    values, den = integer_scaled(stream.model)
    coefficients = [values[i] for i in stream.index_array(TABLE_GROWN).tolist()]
    x = 1.0 - 2.0 ** -t
    for n in TABLE_EDGES:
        bv = eval_truncated(table, x, n)
        assert table.n_terms == table_length(max(n, TABLE_TERMS))
        lo, hi = fixed_point_sum(coefficients[:n], x)
        yield n, bv, (lo / den, hi / den)


@pytest.mark.parametrize("t", range(4, 21))
@pytest.mark.parametrize("name", sorted(TABLE_STREAMS))
def test_table_enclosure_contains_exact_truncated_sum(name, t):
    for n, bv, (lo, hi) in table_and_oracle(name, t):
        assert bv.n_terms == n
        assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo, n
        assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack), n


# The crossings detection grid for the window 1e-2:1e-4 (every other point) and
# the bisection midpoints of a real run: non-dyadic x on both evaluation paths.
CROSSINGS_WINDOW = (1.0 - 1e-2, 1.0 - 1e-4)
CROSSINGS_EPS = 1e-3
CROSSINGS_MODELS = {
    "binary": MODELS["binary"],
    "ternary_weighted": MODELS["ternary_weighted"],
    "rational": parse_model("-2,1,3/7"),
}


@lru_cache(maxsize=None)
def crossings_points(name):
    """(stream, [(x, n, oracle lo, oracle hi)]) over the grid and a run's midpoints."""
    stream = SequenceStream(CROSSINGS_MODELS[name], 7, 0)
    grid = crossings._detection_grid(*CROSSINGS_WINDOW)
    # y at the median grid value, so the run crosses it and bisects
    y = statistics.median(eval_to_eps(stream, x, CROSSINGS_EPS).value for x in grid)
    evaluated = []

    def recording(source, x, eps):
        evaluated.append((x, eps))
        return eval_to_eps(source, x, eps)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(crossings, "eval_to_eps", recording)
        report = find_crossings(stream, y, CROSSINGS_WINDOW, CROSSINGS_EPS)
    midpoints = [(x, eps) for x, eps in evaluated if x not in grid]
    assert report.brackets and midpoints
    max_abs = stream.model.max_abs_float
    points = []
    for x, eps in [(x, CROSSINGS_EPS) for x in grid[::2]] + midpoints:
        n = required_terms(max_abs, x, eps)
        points.append((x, n, *scaled_sum(stream, x, n)))
    return stream, points


@pytest.mark.parametrize("path", ["table", "direct"])
@pytest.mark.parametrize("name", sorted(CROSSINGS_MODELS))
def test_enclosure_at_crossings_points(name, path):
    stream, points = crossings_points(name)
    source = MomentTable(stream, max(n for _, n, _, _ in points)) if path == "table" else stream
    for x, n, lo, hi in points:
        assert x.as_integer_ratio()[0] % 2                # odd m: x is not dyadic
        bv = eval_truncated(source, x, n)
        assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo, x
        assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack), x
    if path == "table":                                 # most points read table blocks
        assert sum(source._level(-math.log(x)) >= 0 for x, *_ in points) > len(points) / 2


def assert_enclosed(source, x, n, lo, hi):
    """The direct or table evaluation of n terms at x brackets the oracle's [lo, hi]."""
    bv = eval_truncated(source, x, n)
    assert bv.n_terms == n
    assert Fraction(bv.value) - Fraction(bv.rounding_slack) <= lo, (x, n)
    assert hi <= Fraction(bv.value) + Fraction(bv.rounding_slack), (x, n)


def oracle_points(stream, xs, eps):
    """[(x, n, oracle lo, oracle hi)] at the truncation eval_to_eps takes for each x."""
    max_abs = stream.model.max_abs_float
    points = []
    for x in xs:
        n = required_terms(max_abs, x, eps)
        points.append((x, n, *scaled_sum(stream, x, n)))
    return points


# Every point of the depth-1e-4 scan grid, x = 1 - 0.1 * 2^-m down to 1 - 1e-4,
# at the scan's eps, on two sets whose values are not integers.
SCAN_GRID_MODELS = {
    "unbalanced": parse_model("-0.1,0.3"),
    "rational": parse_model("-2,1,3/7"),
}


@lru_cache(maxsize=None)
def scan_grid_points(name):
    stream = SequenceStream(SCAN_GRID_MODELS[name], 7, 0)
    return stream, oracle_points(stream, ScanGrid(delta_min=1e-4).points(), EPS)


@pytest.mark.parametrize("path", ["table", "direct"])
@pytest.mark.parametrize("name", sorted(SCAN_GRID_MODELS))
def test_enclosure_at_scan_grid_points(name, path):
    stream, points = scan_grid_points(name)
    source = MomentTable(stream, max(n for _, n, _, _ in points)) if path == "table" else stream
    for x, n, lo, hi in points:
        assert x.as_integer_ratio()[0] % 2                # odd m: x is not dyadic
        assert_enclosed(source, x, n, lo, hi)
    if path == "table":                                 # the deep points read table blocks
        assert any(source._level(-math.log(x)) >= 0 for x, *_ in points)


def test_enclosure_of_a_patched_stream_at_non_dyadic_x():
    base = SequenceStream(MODELS["ternary_weighted"], 7, 0)
    head = [(i + 1) % 3 for i in base.index_array(300).tolist()]    # differs everywhere
    stream = PatchedStream(base, head)
    assert stream.index_array(300).tolist() == head
    points = oracle_points(stream, [0.9, 0.99, 1.0 - 0.1 * 2.0 ** -5, 1.0 - 3e-4], EPS)
    for source in (stream, MomentTable(stream, max(n for _, n, _, _ in points))):
        for x, n, lo, hi in points:
            assert_enclosed(source, x, n, lo, hi)


# The oracle resolves N * 2^-FRAC_BITS, so x stays above 2^-20: there every
# slack, at least 4 eps_machine min|a| x, is wider by more than 20 orders.
DRAWN_MODELS = [MODELS["binary"], *SCAN_GRID_MODELS.values()]


@given(model=st.sampled_from(DRAWN_MODELS), seed=st.integers(0, 2**32 - 1),
       x=st.floats(2.0 ** -20, 1.0, exclude_max=True) | st.floats(0.995, 1.0, exclude_max=True),
       n=st.integers(1, 5000))
@settings(max_examples=40, deadline=None)
def test_enclosure_at_drawn_binary64_x(model, seed, x, n):
    stream = SequenceStream(model, seed, 0)
    lo, hi = scaled_sum(stream, x, n)
    for source in (stream, MomentTable(stream, n)):
        assert_enclosed(source, x, n, lo, hi)


def test_grown_table_equals_a_fresh_one():
    stream = SequenceStream(MODELS["ternary_weighted"], 3, 1)
    grown = MomentTable(stream, 1000)
    fresh = MomentTable(stream, 70_000)
    eval_truncated(grown, 0.999, 1)
    assert grown.n_terms == table_length(1000)
    eval_truncated(grown, 0.999, 70_000)
    assert grown.n_terms == table_length(70_000)
    for x in (0.999, 1.0 - 2.0 ** -20):
        for n in (1, 17, 999, 1000, 4097, 65_537, 70_000):
            assert eval_truncated(grown, x, n) == eval_truncated(fresh, x, n)


@pytest.mark.parametrize("n", [1, _BASE - 1, _BASE, _BASE + 1, TABLE_TERMS, 70_000])
def test_table_is_filled_to_the_request_on_construction(n):
    table = MomentTable(SequenceStream(MODELS["ternary_weighted"], 3, 1), n)
    assert table.n_terms == table_length(n)


def test_table_error_constants():
    remainder = _TAU ** (_ORDER + 1) * math.exp(2 * _TAU) / math.factorial(_ORDER + 1)
    assert remainder <= 2.0 ** -40


def test_each_point_uses_the_largest_level_with_s_b_over_2_within_tau():
    n = 1 << 16
    table = MomentTable(SequenceStream(MODELS["binary"], 7, 0), n)
    top = (n // _BASE).bit_length() - 1         # n terms in one block of _BASE * 2^top
    for t in range(1, 30):
        for x in (1.0 - 2.0 ** -t, 1.0 - 1.5 * 2.0 ** -t):
            s = -math.log(x)
            level = table._level(s)
            half = (_BASE // 2) << max(level, 0)  # half the block length at that level
            assert (s * half <= _TAU) if level >= 0 else (s * half > _TAU), x
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
