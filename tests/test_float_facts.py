"""The platform's float kernels against mpmath at 200 bits.

Every enclosure's rounding slack rests on a few facts about libm and numpy:
one ``np.power`` is within ``_POW_ULPS`` ulps (the table's x^c and its
leftover terms), Python's ``x ** h`` and ``math.log`` are within one ulp
(``_power_sum``'s row heads and the table's s = -ln x), and ``tail_bound``'s
2^-40 inflation covers the rounding of x^(N+1) / (1-x) at N up to 1e8.  The
exact oracle in ``test_enclosure_oracle.py`` cannot stand in for these: its
errors use a tiny share of the slack, so a far worse ``pow`` would still pass
it.  Each test draws seeded points over the ranges the code uses, with 1 - x
log-uniform in [10^-6.5, 10^-0.5].
"""

import math

import mpmath
import numpy as np

from randseries import tail_bound
from randseries.series_eval import _LADDER, _POW_ULPS

PREC = 200


def _xs(rng, count, low=-6.5, high=-0.5):
    """Binary64 x with 1 - x log-uniform in [10^low, 10^high]."""
    return 1.0 - 10.0 ** rng.uniform(low, high, count)


def _ulps(computed, exact) -> float:
    """|computed - exact| in ulps of the binary64 number nearest to ``exact``."""
    return float(abs(mpmath.mpf(computed) - exact)) / math.ulp(float(exact))


def test_np_power_is_within_pow_ulps():
    """One ``np.power(x, c)`` over an array is within ``_POW_ULPS`` ulps of x^c,
    for c an integer or a half-integer up to min(20/(1-x), 4e6)."""
    rng = np.random.default_rng(20)
    xs = _xs(rng, 20_000)
    top = np.minimum(20.0 / (1.0 - xs), 4e6)
    cs = np.floor(rng.uniform(1.0, 2.0 * top)) / 2.0
    got = np.power(xs, cs)
    with mpmath.workprec(PREC):
        worst = max(_ulps(g, mpmath.mpf(x) ** mpmath.mpf(c))
                    for x, c, g in zip(xs.tolist(), cs.tolist(), got.tolist()))
    assert worst <= _POW_ULPS


def test_row_head_pow_is_within_one_ulp():
    """Python's ``x ** h`` is within one ulp of x^h for h a multiple of ``_LADDER``
    up to 2e6, the row heads of ``_power_sum``."""
    rng = np.random.default_rng(21)
    xs = _xs(rng, 5000).tolist()
    hs = (rng.integers(1, 2_000_000 // _LADDER, len(xs), endpoint=True) * _LADDER).tolist()
    with mpmath.workprec(PREC):
        worst = max(_ulps(x ** h, mpmath.mpf(x) ** h) for x, h in zip(xs, hs))
    assert worst <= 1.0


def test_log_is_within_one_ulp():
    """``math.log(x)`` is within one ulp of ln x, the s = -ln x of the table."""
    rng = np.random.default_rng(22)
    xs = _xs(rng, 5000).tolist()
    with mpmath.workprec(PREC):
        worst = max(_ulps(math.log(x), mpmath.log(mpmath.mpf(x))) for x in xs)
    assert worst <= 1.0


def test_tail_bound_covers_the_exact_tail():
    """``tail_bound(max|d|, x, N)`` is at least the exact max|d| x^(N+1) / (1-x),
    for N up to 1e8 and x^(N+1) above the underflow threshold."""
    rng = np.random.default_rng(23)
    ns = np.floor(10.0 ** rng.uniform(0.0, 8.0, 5000)).astype(np.int64).tolist()
    # 1 - x up to 600/N keeps x^(N+1) a normal binary64 number
    high = np.minimum(-0.5, np.log10(600.0 / np.array(ns, dtype=float)))
    xs = (1.0 - 10.0 ** rng.uniform(high - 3.0, high)).tolist()
    max_abs = rng.choice([1.0, 2.0, 3.0 / 7.0, 7.5], len(xs)).tolist()
    with mpmath.workprec(PREC):
        for x, n, d in zip(xs, ns, max_abs):
            x_ = mpmath.mpf(x)
            exact = mpmath.mpf(d) * x_ ** (n + 1) / (1 - x_)
            assert mpmath.mpf(tail_bound(d, x, n)) >= exact, (x, n, d)
