"""Truncated power-series evaluation with a rigorous enclosure of the full sum.

Every evaluation returns a value plus two one-sided error budgets: a geometric
tail radius max|d| * x^(N+1)/(1-x) covering the unsummed terms of *any*
coefficient sequence, and a rounding slack covering accumulated float error.
The true series value is certified to lie in [value - tail - slack,
value + tail + slack].
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Optional

import numpy as np

from .coefficients import _BLOCK, FinitePrefix
from .errors import BudgetExceededError, ConfigError

__all__ = [
    "BoundedValue",
    "DEFAULT_TERM_BUDGET",
    "MomentTable",
    "TERM_BUDGET_ENV",
    "WalkLowerBound",
    "check_eps",
    "check_term_budget",
    "check_terms",
    "eval_abel_form",
    "eval_prefix",
    "eval_to_eps",
    "eval_truncated",
    "lower_bound_from_positive_walk",
    "partial_sums",
    "required_terms",
    "rounding_slack",
    "tail_bound",
]

DEFAULT_TERM_BUDGET = 50_000_000
TERM_BUDGET_ENV = "RANDSERIES_TERM_BUDGET"

_EPS = 2.0 ** -52
# Powers x^(h+i) are formed as x^h * x^i: the ladder x^1..x^_LADDER is one
# cumulative product per evaluation and each row head x^h one direct pow.
# Terms are formed and summed in cache-resident blocks of _BLOCK.
_LADDER = 1 << 12
# Outward inflation for tail bounds: generously covers libm pow slop even for
# exponents ~1e8, while perturbing only the 13th digit of the bound.
_INFLATE = 1.0 + 2.0 ** -40
_TINY = 1e-300
# Block-moment table (``MomentTable``): moments of order 0.._ORDER about each
# block's centre, used for a point only where s * B / 2 <= _TAU (s = -ln x,
# B the block length).  _TAU^(J+1) e^(2 _TAU) / (J+1)! = 3.0e-13 <= 2^-40.
_ORDER = 7
_TAU = 0.1
_BASE = 128                 # terms per base block: one 128-bit code per value indicator
_COLUMNS = 4096             # blocks per pass of the table build, so a pass stays in cache
_DRAW = 1 << 14             # terms per draw of the table build, whose buffers take 17 B a term
_POW_ULPS = 16              # allowance for one np.power (glibc and SIMD pow: a few ulps)


@dataclass(frozen=True)
class BoundedValue:
    """A truncated series value with certified two-sided error radii."""

    x: float
    n_terms: int
    value: float
    tail_radius: float
    rounding_slack: float

    @property
    def lower(self) -> float:
        return self.value - self.tail_radius - self.rounding_slack

    @property
    def upper(self) -> float:
        return self.value + self.tail_radius + self.rounding_slack


def _check_x(x: float) -> float:
    x = float(x)
    if not (0.0 <= x < 1.0) or math.isnan(x):
        raise ConfigError(f"x must lie in [0, 1), got {x!r}")
    return x


def tail_bound(max_abs: float, x: float, n_terms: int) -> float:
    """Outward-rounded bound max|d| * x^(N+1) / (1-x) on the unsummed tail."""
    if x <= 0.0 or max_abs == 0.0:
        return 0.0
    return max_abs * x ** (n_terms + 1) / (1.0 - x) * _INFLATE + _TINY


def rounding_slack(n_terms: int, abs_sum: float) -> float:
    """Bound 4 * N * eps_machine * sum|a_n x^n| on the float error of an N-term sum.

    ``_power_sum`` derives it for its own operations; the 1e-300 floor covers
    underflow in the powers.
    """
    return 4.0 * n_terms * _EPS * abs_sum + _TINY


def _power_sum(coeffs: np.ndarray, x: float) -> tuple[float, float]:
    """Return (sum of a_n x^n for n = 1..N, its ``rounding_slack``), N = len(coeffs).

    Term n = h + i (1 <= i <= B, h a multiple of B = _LADDER) takes the power
    x^h * x^i: the ladder x^1..x^B is one cumulative product per call and each
    row head x^h one direct pow.  Powers and then terms are formed in place in
    one reused buffer of _BLOCK entries, each block is summed pairwise, and
    the block sums are added with ``math.fsum``.

    The slack is ``rounding_slack(N, sum|a_n x^n|)``.  With u = eps_machine / 2
    the unit roundoff, it dominates every float error source here, each
    relative to sum|a_n x^n|:

    - coefficient mirroring: each float a_n is within u of the exact value;
    - the power ladder: x^i for i <= B (B = 4096) is a cumulative product
      with at most B-1 roundings, and never more than n-1 for x^n;
    - the row heads: x^h (h a positive multiple of B) is one direct ``pow``,
      within one ulp (2u); the head x^0 = 1 is exact;
    - the product x^h * x^i and the product with a_n: one rounding each;
    - the block sums: pairwise sums of at most N terms (below (N-1)u), added
      with a correctly rounded ``math.fsum`` (one more u).

    A power carries at most N - 1 roundings when N <= B (its head is exact)
    and at most B + 2 otherwise.  To first order the total is then below
    (2N + 1)u for N <= B and (N + B + 4)u < (2N + 4)u for N > B, which
    8Nu = 4 * N * eps_machine covers with room to spare (Higham, *Accuracy
    and Stability of Numerical Algorithms*, section 3.1).
    """
    n = coeffs.shape[0]
    width = min(n, _LADDER)
    ladder = np.cumprod(np.full(width, x))
    buf = np.empty(min(n, _BLOCK))
    sums: list[float] = []
    abs_sums: list[float] = []
    for start in range(0, n, _BLOCK):
        m = min(_BLOCK, n - start)
        full, rest = divmod(m, width)
        heads = np.array([x ** h for h in range(start, start + m, width)])
        np.multiply(heads[:full, None], ladder, out=buf[:full * width].reshape(full, width))
        if rest:
            np.multiply(ladder[:rest], heads[full], out=buf[full * width:m])
        block = buf[:m]
        np.multiply(coeffs[start:start + m], block, out=block)
        sums.append(float(block.sum()))
        np.abs(block, out=block)
        abs_sums.append(float(block.sum()))
    return math.fsum(sums), rounding_slack(n, math.fsum(abs_sums))


@lru_cache(maxsize=None)
def _byte_moments(order: int) -> np.ndarray:
    """Code moments by byte: sixteen tables of shape (256, order + 1), one per byte.

    Column j of row b of table i is the sum of u_p^j over the set bits
    p - 8i of the byte b; u_p = (2p - 127) / 128 is the offset of term p of a
    base block from the block centre in units of half the block length.
    The moments of a 128-bit code with bytes c_0..c_15 are the sum of the
    rows table[i, c_i], each of 64 bytes.  Every entry, and every sum of
    entries, is a sum of at most 128 numbers m^j / 128^j with odd
    |m| <= 127 whose numerators add up in absolute value to at most
    sum_p |2p - 127|^7 < 2^53, so it is exact in binary64 for order <= 7.
    """
    byte = np.arange(256)
    u = (2.0 * np.arange(_BASE) - (_BASE - 1)) / _BASE
    powers = np.cumprod(np.vstack([np.ones(_BASE)] + [u] * order), axis=0)
    tables = np.zeros((_BASE // 8, 256, order + 1))
    for p in range(_BASE):
        tables[p // 8] += powers[:, p] * ((byte[:, None] >> (p % 8)) & 1)
    tables.flags.writeable = False
    return tables


def _base_moments(model, planes: np.ndarray, order: int) -> np.ndarray:
    """Moments m_j = sum a_i u_i^j of the 128-term blocks coded by ``planes``, one column each.

    Row v - 1 of ``planes`` is the little-endian bit plane of value v >= 1,
    sixteen bytes a block.  With a_i = d_0 + sum_{v >= 1} (d_v - d_0)
    [index_i = v], a block's moments are the exact moments of its 128-bit
    code in each plane, looked up byte by byte, plus d_0 times the moments
    of the full code.
    """
    tables = _byte_moments(order)
    d = model.floats
    out = None
    for v, plane in enumerate(planes, start=1):
        code = plane.reshape(-1, _BASE // 8)
        part = np.take(tables[0], code[:, 0], axis=0)
        for i in range(1, _BASE // 8):
            part += np.take(tables[i], code[:, i], axis=0)
        part *= d[v] - d[0]
        if out is None:
            out = part
        else:
            out += part
    out += d[0] * tables[:, -1].sum(axis=0)
    return out.T


def _plane_indices(bits: np.ndarray) -> np.ndarray:
    """Value indices sum_v v [bit v] of terms whose bits in planes 1..k-1 are rows of ``bits``."""
    out = np.zeros(bits.shape[1], dtype=np.min_scalar_type(bits.shape[0]))
    for v, row in enumerate(bits, start=1):
        out += row * out.dtype.type(v)
    return out


def _pair_moments(child: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Moments of each pair of adjacent blocks about the pair's centre, into ``out``.

    In units of the parent's half length a term's offset is (u - 1)/2 in the
    left child and (u + 1)/2 in the right one, so
    m_j = 2^-j sum_{l <= j} C(j, l) (m^R_l + (-1)^(j-l) m^L_l).  Pairs are
    formed _COLUMNS at a time, so the rows of a chunk stay in cache.
    """
    pairs = child.shape[1] // 2
    for lo in range(0, pairs, _COLUMNS):
        hi = min(lo + _COLUMNS, pairs)
        left, right = child[:, 2 * lo:2 * hi:2], child[:, 2 * lo + 1:2 * hi:2]
        # row by row: numpy copies a 2-D pass over strided pyramid columns into a temporary
        both = [l + r for l, r in zip(left, right)]
        diff = [r - l for l, r in zip(left, right)]
        for j in range(child.shape[0]):
            acc = out[j, lo:hi]
            acc[:] = both[j]
            for l in range(j - 1, -1, -1):
                acc += math.comb(j, l) * (both[l] if (j - l) % 2 == 0 else diff[l])
            acc *= 0.5 ** j
        del both, diff                      # before the next chunk's are formed
    return out


@lru_cache(maxsize=None)
def _table_error(order: int, level: int, k: int) -> float:
    """Error of a table evaluation relative to max|d| * sum_{n<=N} x^n (see MomentTable)."""
    remainder = _TAU ** (order + 1) / math.factorial(order + 1)
    roundings = 3 * (k + 2) + level * (order + 2) + 3 * (order + 1) + 2 * _POW_ULPS + 3
    return math.exp(2.0 * _TAU) * (remainder + roundings * _EPS)


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(run, offset in the run) of each entry of consecutive runs of the given lengths."""
    run = np.repeat(np.arange(lengths.shape[0]), lengths)
    return run, np.arange(run.shape[0]) - (np.cumsum(lengths) - lengths)[run]


class MomentTable:
    """Block moments of one stream's prefix: many evaluations from one pass over it.

    With s = -ln x, f(x) = sum a_n e^(-s n) is a discrete Laplace transform,
    and the table evaluates it at many s (Rokhlin, J. Complexity 4, 1988).
    Level L splits the terms into blocks of B = 128 * 2^L with centres c; a
    block has the moments m_j = sum a_i u_i^j, u_i = (i - c) / (B/2), for
    j <= J = 7.  Base blocks (level 0) take sixteen lookups per value
    indicator, in 256-row tables of exact moments of each byte of the
    block's 128-bit code (``_byte_moments``), and each parent level comes
    from its two children (``_pair_moments``).  The table stores the
    stream as k - 1 bit planes, one bit a term each, and the base level.
    Plane v sets the bit of each term that takes value v; the build draws
    and packs _DRAW terms at a time, so no byte a term is ever held whole.
    A level above is paired from the one below the first time a point
    picks it (``_level``), into columns set aside for it in one array that
    holds the whole pyramid.

    A point (x, N) uses the largest level whose blocks fit in N and have
    s B/2 <= tau for the full blocks of its first N terms, then at most one
    block from each lower level, and adds the last N mod 128 terms a_n x^n
    one by one.  A block contributes x^c * sum_j m_j t^j / j! with
    t = -s B/2.  When no level qualifies (always when N < 128), every term
    is summed directly, bit for bit as ``eval_truncated`` does on the
    stream.  Directly summed and leftover terms take their values from
    the planes.  ``power_sums`` evaluates many points in one pass of array
    operations and adds each point's values in an order of its own, so a
    point's value and slack depend only on the stream, x and N: the same
    bits in any table and any batch.  The table is filled to the requested
    length on construction, and the points handed to it then are evaluated
    together and kept for ``power_sum``.  A point that needs more terms
    rebuilds the table from position 1 at that length, so a grown table is
    a fresh one, and the kept results stay valid in it.

    The slack of a table evaluation is ``rounding_slack(N, A)`` plus
    ``_table_error * A``, with A = max|d| * sum x^n (closed form, inflated
    outward) >= sum |a_n x^n|.  Every block term obeys |a_i| x^c <=
    e^tau |a_i| x^i and |m_j| <= max|d| B, so each source below, taken
    relative to max|d| B x^c e^tau, is at most e^(2 tau) A over all blocks:

    - the Taylor remainder: |e^-z - sum_{j<=J} (-z)^j/j!| <= tau^(J+1)
      e^tau / (J+1)! for |z| <= tau;
    - base moments: exact code moments (a sum of exact byte moments is
      exact) times d_0 and d_v - d_0, added in k steps: at most 3(k + 2) u;
    - each moment shift: the sum and difference, the binomial products and
      the j additions add at most (J + 2) u per level, and ``level`` counts
      the pair steps above the exact 128-term base;
    - the series: t^j / j! is the product of the rounded t/1 .. t/j (2j - 1
      roundings), times m_j (one more), summed over j in order (J more):
      3(J + 1) u;
    - x^c: one ``np.power`` (``_POW_ULPS`` ulps) and the product, plus the
      rounding of s = -ln x, which moves e^(-s u B/2) by at most 0.4 u.

    Here u = eps_machine / 2; the bound counts each rounding as 2u to cover
    second-order terms.  The leftover terms (one power and one product
    each, at most 2 _POW_ULPS + 1 = 33 u) and the sum, in a fixed order, of
    the at most N/128 + log2 N + 127 values of a point (that many u) stay
    below e^(2 tau) (N/128 + log2 N + 160) u of A, which
    ``rounding_slack(N, A)`` (8 N u A) covers for N >= 128.
    """

    def __init__(self, stream, n_terms: int, points: Iterable[tuple[float, int]] = ()):
        if n_terms < 1:
            raise ConfigError("n_terms must be >= 1")
        self.model = stream.model
        self._stream = stream
        self._build(n_terms)
        points = list(points)
        self._kept = dict(zip(points, self.power_sums(points)))

    @property
    def n_terms(self) -> int:
        """Terms the table holds: a multiple of 128."""
        return self._planes.shape[1] * 8

    def _build(self, n_terms: int) -> None:
        """Fill the table from position 1 to n_terms rounded up to a multiple of 128."""
        n = -(-n_terms // _BASE) * _BASE
        self._planes = np.empty((self.model.k - 1, n // 8), dtype=np.uint8)
        for lo in range(0, n, _DRAW):
            indices = self._stream.index_range(lo + 1, min(lo + _DRAW, n) + 1)
            for v, plane in enumerate(self._planes, start=1):
                plane[lo // 8:(lo + indices.shape[0]) // 8] = np.packbits(
                    indices == v, bitorder="little")
        widths = [n // _BASE >> level for level in range((n // _BASE).bit_length())]
        self._starts = [0, *accumulate(widths)]     # level L in columns starts[L]..starts[L+1]
        self._pyramid = np.empty((_ORDER + 1, self._starts[-1]))
        base = self._pyramid[:, :widths[0]]
        for lo in range(0, widths[0], _COLUMNS):
            base[:, lo:lo + _COLUMNS] = _base_moments(
                self.model, self._planes[:, lo * _BASE // 8:(lo + _COLUMNS) * _BASE // 8], _ORDER)
        self._levels = [base]       # the levels built so far: blocks of 128, 256, ... terms

    def _level(self, s: float, n: int) -> int:
        """The largest level whose blocks fit in n terms and have s * B/2 <= tau, or -1.

        A level is paired from the one below it the first time it is picked.
        """
        level = -1
        while _BASE << (level + 1) <= n and s * (_BASE << (level + 1)) / 2 <= _TAU:
            level += 1
        while len(self._levels) <= level:
            up = len(self._levels)
            self._levels.append(_pair_moments(
                self._levels[-1], self._pyramid[:, self._starts[up]:self._starts[up + 1]]))
        return level

    def power_sum(self, x: float, n_terms: int) -> tuple[float, float]:
        """(sum of a_n x^n for n = 1..N, its rounding slack), for 0 < x < 1."""
        kept = self._kept.get((x, n_terms))
        return kept if kept is not None else self.power_sums([(x, n_terms)])[0]

    def power_sums(self, points: Iterable[tuple[float, int]]) -> list[tuple[float, float]]:
        """``power_sum`` at each point (x, N), 0 < x < 1, in one pass over the table.

        Points that no level serves are summed directly, from the longest
        prefix they need, unpacked from the planes once.
        The others are evaluated in groups of about _COLUMNS blocks, so the
        arrays of a group stay in cache.
        """
        points = list(points)
        n_max = max((n for _, n in points), default=0)
        if n_max > self.n_terms:
            self._build(n_max)
        levels = [self._level(-math.log(x), n) for x, n in points]
        n_direct = max((n for (_, n), level in zip(points, levels) if level < 0), default=0)
        bits = np.unpackbits(self._planes[:, :(n_direct + 7) // 8], axis=1, count=n_direct,
                             bitorder="little")
        direct = self.model.floats[_plane_indices(bits)]
        out: list = [None] * len(points)
        group: list[tuple[int, float, int, int]] = []
        blocks = 0
        for i, ((x, n), level) in enumerate(zip(points, levels)):
            if level < 0:
                out[i] = _power_sum(direct[:n], x)
                continue
            group.append((i, x, n, level))
            blocks += n // (_BASE << level) + level
            if blocks >= _COLUMNS:
                self._table_sums(group, out)
                group, blocks = [], 0
        if group:
            self._table_sums(group, out)
        return out

    def _table_sums(self, group: list[tuple[int, float, int, int]], out: list) -> None:
        """Set out[i] for each point (i, x, N, level) of the group from table blocks.

        A point's entries are its q full blocks of its level, at most one
        block of each lower level, and its leftover terms, which ride along
        as blocks of one term centred at n.  One series pass reads the
        blocks' moments a row at a time, one ``np.power`` weights all
        entries, and ``np.bincount`` adds each point's entries one by one
        in that order, whatever the other points of the group are.
        """
        q, low, rest = [], [], []
        for p, (_, x, n, level) in enumerate(group):
            size = _BASE << level
            q.append(n // size)
            pos = q[-1] * size
            for lv in range(level - 1, -1, -1):
                size >>= 1
                if n - pos >= size:
                    low.append((p, self._starts[lv] + pos // size, pos, size))
                    pos += size
            rest.append((pos, n - pos))
        levels = np.array([point[3] for point in group])
        top_point, offset = _runs(np.array(q))
        top_size = _BASE << levels[top_point]
        low_point, low_col, low_first, low_size = np.array(low, dtype=np.int64).reshape(-1, 4).T
        point = np.concatenate([top_point, low_point])
        cols = np.concatenate([np.array(self._starts)[levels][top_point] + offset, low_col])
        first = np.concatenate([offset * top_size, low_first])
        half = np.concatenate([top_size, low_size]) / 2
        # the series m_0 + sum_j m_j t^j / j!, with t^j / j! the product of
        # t/1 .. t/j, added one moment row at a time
        logs = np.array([math.log(x) for _, x, _, _ in group])
        t = logs[point] * half
        values = self._pyramid[0, cols]
        power = np.ones_like(t)
        for j in range(1, _ORDER + 1):
            power *= t / j
            values += power * self._pyramid[j, cols]
        # a block of B terms starting after term e is centred at e + B/2 + 1/2
        pos, count = np.array(rest).T
        rest_point, rest_offset = _runs(count)
        terms = rest_offset + pos[rest_point]
        bits = (self._planes[:, terms >> 3] >> (terms & 7).astype(np.uint8)) & 1
        values = np.concatenate([values, self.model.floats[_plane_indices(bits)]])
        centres = np.concatenate([first + half + 0.5, terms + 1.0])
        point = np.concatenate([point, rest_point])
        values *= np.power(np.array([x for _, x, _, _ in group])[point], centres)
        sums = np.bincount(point, weights=values, minlength=len(group))
        max_abs, k = self.model.max_abs_float, self.model.k
        for (i, x, n, level), value in zip(group, sums.tolist()):
            abs_bound = max_abs * x * -math.expm1(n * math.log(x)) / (1.0 - x) * _INFLATE
            out[i] = value, (rounding_slack(n, abs_bound)
                             + _table_error(_ORDER, level, k) * abs_bound)


def eval_truncated(stream, x: float, n_terms: int) -> BoundedValue:
    """Evaluate the first N terms of the series at x with certified radii.

    ``stream`` is a coefficient stream (direct power sum) or a
    ``MomentTable`` of one (block moments; see its docstring for the slack).
    """
    x = _check_x(x)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise ConfigError("n_terms must be >= 1")
    max_abs = stream.model.max_abs_float
    if x == 0.0:
        return BoundedValue(x, n_terms, 0.0, 0.0, 0.0)
    if isinstance(stream, MomentTable):
        value, slack = stream.power_sum(x, n_terms)
    else:
        value, slack = _power_sum(stream.float_coefficients(n_terms), x)
    return BoundedValue(x, n_terms, value, tail_bound(max_abs, x, n_terms), slack)


def eval_prefix(prefix: FinitePrefix, x):
    """Evaluate a finite prefix polynomial sum a_n x^n (no tail: the series stops at N).

    Exact (a Fraction) for Fraction x; a ``BoundedValue`` with its rounding
    slack for float x.
    """
    if isinstance(x, Fraction):
        if not (0 <= x < 1):
            raise ConfigError(f"x must lie in [0, 1), got {x}")
        return sum((a * x ** n for n, a in enumerate(prefix.values, 1)), Fraction(0))
    x = _check_x(x)
    n = len(prefix)
    if x == 0.0:
        return BoundedValue(x, n, 0.0, 0.0, 0.0)
    # not the cached ``prefix.floats``: ``orbit_values`` passes the caller's own
    # prefix as rotation 0, and the cache would hold 8 B a term for its lifetime
    value, slack = _power_sum(prefix.model.floats[prefix.index_array], x)
    return BoundedValue(x, n, value, 0.0, slack)


def check_eps(eps: float) -> None:
    """Raise ConfigError unless eps > 1e-300, the floor every tail bound carries."""
    if not eps > _TINY:
        raise ConfigError(f"eps must exceed {_TINY!r}, got {eps!r}")


def required_terms(max_abs: float, x: float, eps: float) -> int:
    """Minimal N with the certified tail bound at most eps.

    Raises:
        ConfigError: unless eps > 1e-300 (``check_eps``) and max_abs is
            finite and >= 0.
    """
    x = _check_x(x)
    check_eps(eps)
    if not 0.0 <= max_abs < math.inf:
        raise ConfigError(f"max_abs must be finite and >= 0, got {max_abs!r}")
    if x == 0.0 or max_abs == 0.0:
        return 1
    # tail_bound <= eps  iff  max|d| x^(N+1) / (1-x) <= eps - _TINY, up to rounding;
    # in logs, since the target may lie below the smallest float
    log_target = math.log(eps - _TINY) + math.log(1.0 - x) - math.log(max_abs)
    n = 1 if log_target >= 0.0 else max(math.ceil(log_target / math.log(x)) - 1, 1)
    # the log formula is float-approximate: settle against the outward bound,
    # bracketing lo < N <= hi with doubling steps, then bisecting
    def fits(m: int) -> bool:
        return tail_bound(max_abs, x, m) <= eps

    lo, hi, step = n - 1, n, 1
    while not fits(hi):
        lo, hi, step = hi, hi + step, 2 * step
    while lo > 0 and fits(lo):
        lo, hi, step = max(lo - step, 0), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def check_terms(n_terms: int, context: str) -> None:
    """Raise BudgetExceededError if n_terms units of work (evaluation terms, word-array
    cells, prefix-infimum Horner cells or walk steps) exceed the one work budget:
    RANDSERIES_TERM_BUDGET (a finite number >= 1), else DEFAULT_TERM_BUDGET."""
    env = os.environ.get(TERM_BUDGET_ENV)
    try:
        limit = int(float(env)) if env else DEFAULT_TERM_BUDGET
    except (ValueError, OverflowError):
        limit = 0
    if limit < 1:
        raise ConfigError(f"{TERM_BUDGET_ENV} must be a finite number >= 1, got {env!r}")
    if n_terms > limit:
        raise BudgetExceededError(n_terms, limit, context=context)


def check_term_budget(max_abs: float, xs: Iterable[float], eps: float, what: str) -> int:
    """Check the points xs an operation will evaluate at eps, before the first one.

    At fixed eps the tail bound max|d| x^(N+1)/(1-x) grows with x, so the
    deepest point needs the most terms, and a term count never depends on
    the coefficients: one check at max(xs) decides for every point and
    every stream of the model.  Returns that point's term count.
    """
    x = max(xs)
    n = required_terms(max_abs, x, eps)
    check_terms(n, f"{what} point x={x!r}")
    return n


def eval_to_eps(stream, x: float, eps: float) -> BoundedValue:
    """Evaluate with the minimal truncation whose tail radius is at most eps.

    Raises:
        BudgetExceededError: if the required truncation exceeds the term
            budget; the error reports the required N instead of silently
            truncating.
    """
    n = check_term_budget(stream.model.max_abs_float, (x,), eps, "eval_to_eps")
    return eval_truncated(stream, x, n)


def partial_sums(prefix: FinitePrefix) -> tuple[Fraction, ...]:
    """Exact partial sums S_1..S_N of the prefix coordinates."""
    return tuple(accumulate(prefix.values))


def eval_abel_form(prefix: FinitePrefix, x):
    """Partial-summation form sum S_n (x^n - x^(n+1)) + S_N x^(N+1).

    Algebraically identical to the direct truncated sum; with a Fraction
    argument the identity is exact, with a float argument both forms agree to
    rounding error.
    """
    n = len(prefix)
    if isinstance(x, Fraction):
        if not (0 <= x < 1):
            raise ConfigError(f"x must lie in [0, 1), got {x}")
        s = partial_sums(prefix)
        total = sum((s[i] * (x ** (i + 1) - x ** (i + 2)) for i in range(n)), Fraction(0))
        return total + s[-1] * x ** (n + 1)
    x = _check_x(x)
    if x == 0.0:
        return 0.0
    sums = np.cumsum(prefix.floats)
    core = _power_sum(sums, x)[0] * (1.0 - x)
    return core + float(sums[-1]) * x ** (n + 1)


@dataclass(frozen=True)
class WalkLowerBound:
    """Outcome of the partial-sum positivity check behind the Abel lower bound."""

    threshold: Fraction
    bound: float
    holds: bool
    first_violation: Optional[int]


def lower_bound_from_positive_walk(prefix: FinitePrefix, x: float, m: int) -> WalkLowerBound:
    """Certified lower bound m*minD*x for the Abel form, when every S_l > m*minD.

    The partial-sum comparison is exact (rationals); the returned bound is
    rounded downward.  If the precondition fails, ``first_violation`` is the
    first index l with S_l <= m*minD and the bound is not certified.
    """
    x = float(x)
    if not (0.0 < x < 1.0):
        raise ConfigError(f"x must lie in (0, 1), got {x!r}")
    threshold = m * prefix.model.min_value
    first_violation = next((l for l, s in enumerate(partial_sums(prefix), start=1)
                            if s <= threshold), None)
    bound = float(threshold) * x
    bound = math.nextafter(math.nextafter(bound, -math.inf), -math.inf)
    return WalkLowerBound(threshold, bound, first_violation is None, first_violation)
