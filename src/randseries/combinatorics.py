"""Sum-shifting partial bijections on length-N coefficient words.

``shift_up`` rewrites one occurrence of d_1 (the first listed value) into d_2
(the second), raising the word's coordinate sum by exactly d_2 - d_1, and is
injective on its domain.  The position to rewrite is chosen by bracket
matching on the positions carrying d_1 or d_2: read d_1 as an opening symbol
and d_2 as a closing symbol, match innermost-first, then flip the leftmost
unmatched opening symbol.  Words with no unmatched opening symbol are
unmatched (returned as None).  This is the symmetric-chain move on the Boolean
lattice of each position class, which is optimal per class: exactly the chain
bottoms stay unmatched.

``shift_down`` is the exact inverse (flip the rightmost unmatched closing
symbol), so it lowers sums by d_2 - d_1 and round-trips with ``shift_up``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .boundary_scan import DEFAULT_EPS, ScanGrid, scan
from .coefficients import CoefficientModel, FinitePrefix, PatchedStream
from .errors import ConfigError, check_int
from .series_eval import check_terms

__all__ = [
    "MatchingReport",
    "PositionClass",
    "ShiftScanReport",
    "domain_fraction",
    "position_class",
    "shift_down",
    "shift_down_indices",
    "shift_effect_on_scan",
    "shift_up",
    "shift_up_indices",
    "verify_matching",
]

_MAX_VIOLATIONS = 10        # violations a MatchingReport lists at most
# words a chunk holds at most: a chunk's (N, W) arrays then fit a core's L2 cache,
# and ran faster than chunks of 2^16 words
_BLOCK = 1 << 14


@dataclass(frozen=True)
class PositionClass:
    """Decomposition of a word by where d_1/d_2 sit versus everything else.

    The matching only ever rewrites positions in ``movable``; ``fixed`` (the
    assignment of values other than d_1, d_2 to the remaining positions) is
    carried through untouched, so the matching acts independently inside each
    class.
    """

    n: int
    movable: tuple[int, ...]               # 1-based positions holding d_1 or d_2
    fixed: tuple[tuple[int, int], ...]     # (1-based position, value index >= 2)

    def __post_init__(self):
        all_positions = sorted(self.movable) + sorted(p for p, _ in self.fixed)
        if sorted(all_positions) != list(range(1, self.n + 1)):
            raise ConfigError("movable and fixed positions must partition 1..N")
        if any(ix < 2 for _, ix in self.fixed):
            raise ConfigError("fixed positions cannot carry d_1 or d_2")

    @property
    def size(self) -> int:
        return len(self.movable)


def position_class(model: CoefficientModel, word) -> PositionClass:
    """The PositionClass of a word (values or FinitePrefix)."""
    idx = _as_indices(model, word)
    movable = tuple(p for p, ix in enumerate(idx, 1) if ix < 2)
    fixed = tuple((p, ix) for p, ix in enumerate(idx, 1) if ix >= 2)
    return PositionClass(len(idx), movable, fixed)


def _flips(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column of an (N, W) array of value indices, one row per position: the
    0-based positions of the leftmost unmatched d_1 and of the rightmost unmatched
    d_2, or -1 when there is none.

    With B_q the balance after q letters (+1 for d_1, -1 for d_2, B_0 = 0) and
    m its minimum, every d_1 after the last q with B_q = m stays unmatched and
    every earlier one is closed; the unmatched d_2's are the letters that reach
    a new minimum, the rightmost of them ending at the first q with B_q = m.

    One pass over the positions keeps B_q and its running minimum; the first q
    with B_q = m is the last q where that minimum falls, and the last such q
    is the last q where B_q equals it.
    """
    n, width = words.shape
    # the narrowest signed type holding every balance in [-N, N]
    dtype = np.min_scalar_type(-n - 1)
    steps = (words == 0).view(np.int8) - (words == 1).view(np.int8)
    balance, low, first, last, mark = (np.zeros(width, dtype=dtype) for _ in range(5))
    hit = np.empty(width, dtype=bool)
    for q, step in zip(np.arange(1, n + 1, dtype=dtype), steps):
        balance += step
        # q is later than every mark so far, so a maximum keeps the latest one
        np.less(balance, low, out=hit)
        np.maximum(first, np.multiply(hit.view(np.int8), q, out=mark), out=first)
        np.minimum(low, balance, out=low)
        np.equal(balance, low, out=hit)
        np.maximum(last, np.multiply(hit.view(np.int8), q, out=mark), out=last)
    return np.where(last < n, last, -1), first - 1


def _flip_one(indices: tuple[int, ...], side: int, ix: int) -> Optional[tuple[int, ...]]:
    flip = int(_flips(np.array(indices, dtype=np.intp)[:, None])[side][0])
    return None if flip < 0 else indices[:flip] + (ix,) + indices[flip + 1:]


def shift_up_indices(indices: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Index-level shift_up; None when the word is unmatched."""
    return _flip_one(indices, 0, 1)


def shift_down_indices(indices: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Index-level shift_down (inverse of shift_up); None when unmatched."""
    return _flip_one(indices, 1, 0)


def _as_indices(model: CoefficientModel, word) -> tuple[int, ...]:
    if isinstance(word, FinitePrefix):
        if word.model is not model and word.model != model:
            raise ConfigError("prefix belongs to a different coefficient model")
        return word.indices
    return tuple(model.index_of(v) for v in word)


def _apply_shift(move, model: CoefficientModel, word):
    out = move(_as_indices(model, word))
    if out is None:
        return None
    if isinstance(word, FinitePrefix):
        return FinitePrefix(model, out)
    return tuple(model.values[i] for i in out)


def shift_up(model: CoefficientModel, word):
    """Matched word with coordinate sum raised by d_2 - d_1, or None.

    Accepts a FinitePrefix or any sequence of coefficient values (exact or
    float mirrors); returns the same kind of object.
    """
    return _apply_shift(shift_up_indices, model, word)


def shift_down(model: CoefficientModel, word):
    """Matched word with coordinate sum lowered by d_2 - d_1, or None."""
    return _apply_shift(shift_down_indices, model, word)


def _word_chunks(model: CoefficientModel, n: int):
    """All k^N index words in lexicographic order, as an iterator of (first word
    number, words) chunks.

    ``words`` is an (N, W) array, one row per position, of W = k^j
    consecutive words, with j <= N the largest such that k^j <= _BLOCK.  Its
    last j rows are the same in every chunk and its first N - j rows are the
    digits of the chunk number.  The array is reused: it holds a chunk only
    until the next one is drawn.  N and the budget are checked on the call,
    before anything is allocated.
    """
    n = check_int(n, "word length N", 1)
    k = model.k
    # k^N * N cells bound the work of every pass; a chunk holds at most _BLOCK words
    check_terms(k ** n * n, f"enumerating k^N words at N={n}, in array cells")
    j = 0
    while j < n and k ** (j + 1) <= _BLOCK:
        j += 1
    lead, width = n - j, k ** j
    words = np.empty((n, width), dtype=np.min_scalar_type(k - 1))
    letters = np.arange(k, dtype=words.dtype)[:, None]
    for r in range(j):
        # trailing digit r holds each letter for k^(j-1-r) words, k^r times over
        words[lead + r].reshape(k ** r, k, k ** (j - 1 - r))[:] = letters

    def chunk(number: int) -> tuple[int, np.ndarray]:
        words[:lead] = np.array(np.unravel_index(number, (k,) * lead))[:, None]
        return number * width, words

    return map(chunk, range(k ** lead))


def _repeats(codes: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Flags each code met before, earlier in ``codes`` or in ``seen``, so that of
    equal codes the first stays unflagged; then marks every code in ``seen``."""
    # sorted (code, position) keys put equal codes side by side in order.  The key
    # cannot overflow: seen has allocated k^N bytes, so a code is below 2^48, and
    # the at most 2^14 positions of a chunk take b <= 15 bits
    b = len(codes).bit_length()
    keys = np.sort(codes << b | np.arange(len(codes)))
    repeated = seen[codes]
    repeated[keys[1:][keys[1:] >> b == keys[:-1] >> b] & ((1 << b) - 1)] = True
    seen[codes] = True
    return repeated


def domain_fraction(model: CoefficientModel, n: int) -> Fraction:
    """Exact matched fraction #dom(shift_up) / k^N by exhaustive enumeration."""
    matched = sum(int(np.count_nonzero(_flips(words)[0] >= 0))
                  for _, words in _word_chunks(model, n))
    return Fraction(matched, model.k ** n)


@dataclass(frozen=True)
class MatchingReport:
    """Exhaustive verification of the shift_up matching at a given length."""

    n: int
    total_words: int
    matched_count: int
    fraction: Fraction
    injective: bool
    sum_shift_exact: bool
    inverse_roundtrip: bool
    measure_ratio: Fraction      # P(image)/P(word), constant p2/p1 across all flips
    measure_monotone: bool       # ratio >= 1, i.e. flips never decrease probability
    violations: tuple = field(default=())

    def to_data(self) -> dict:
        return {
            "n": self.n,
            "total_words": self.total_words,
            "matched_count": self.matched_count,
            "domain_fraction": f"{self.fraction.numerator}/{self.fraction.denominator}",
            "injective": self.injective,
            "sum_shift_exact": self.sum_shift_exact,
            "inverse_roundtrip": self.inverse_roundtrip,
            "measure_ratio": str(self.measure_ratio),
            "measure_monotone": self.measure_monotone,
            "violations": [list(v) for v in self.violations],
        }


def verify_matching(model: CoefficientModel, n: int) -> MatchingReport:
    """Exhaustively check injectivity, the exact sum shift, inversion, and the
    weight-monotonicity of flips (probability multiplies by p2/p1 >= 1 when
    p2 >= p1), over all k^N words, one chunk of consecutive words at a time.

    Violations are listed in word order, then in the order of the four kinds,
    and cut at ``_MAX_VIOLATIONS``.
    """
    chunks = _word_chunks(model, n)
    k = model.k
    # Sums wrap modulo 2^64, which can never turn an exact shift into a violation.
    ints = model.integer_scaled()[0]
    scaled = np.array([v % (1 << 64) for v in ints], dtype=np.uint64)
    shift = np.uint64((ints[1] - ints[0]) % (1 << 64))

    place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)   # code weight of each position
    seen = np.zeros(k ** n, dtype=bool)                     # image codes met so far
    matched = 0
    ok = dict.fromkeys(("injectivity", "sum_shift", "inverse", "measure"), True)
    violations: list = []
    for first_word, words in chunks:
        width = words.shape[1]
        up, _ = _flips(words)
        cols = np.flatnonzero(up >= 0)
        matched += len(cols)
        flip = up[cols]
        cells = flip.astype(np.intp) * width + cols     # flat cells of the flips
        old = words.ravel()[cells]           # the letter each flip overwrites
        image = words.copy()
        image.ravel()[cells] = 1

        codes = first_word + cols + (1 - old.astype(np.int64)) * place[flip]
        repeated = _repeats(codes, seen)

        # a flip adds one d_2 and removes the overwritten letter, so the sum moves
        # by scaled[1] - scaled[old]; P scales by exactly p2/p1 only when old is d_1
        sum_ok = scaled[1] - scaled[old] == shift
        measure_ok = old == 0

        _, down = _flips(image)
        down = down[cols]
        # a down of -1 writes the last row, in a column that fails on down >= 0 anyway
        image.ravel()[down.astype(np.intp) * width + cols] = 0
        inv_ok = (down >= 0) & (image == words).all(axis=0)[cols]

        flagged = []
        for kind, bad in zip(ok, (repeated, ~sum_ok, ~inv_ok, ~measure_ok)):
            rows = np.flatnonzero(bad)
            ok[kind] = ok[kind] and not len(rows)
            flagged.extend((int(r), kind) for r in rows[:_MAX_VIOLATIONS])
        flagged.sort(key=lambda v: v[0])
        # chunks come in word order, so the first _MAX_VIOLATIONS so far stay first
        violations.extend((kind, tuple(int(i) for i in words[:, cols[r]]))
                          for r, kind in flagged[:_MAX_VIOLATIONS - len(violations)])

    ratio = model.weights[1] / model.weights[0]
    return MatchingReport(
        n=n,
        total_words=k ** n,
        matched_count=matched,
        fraction=Fraction(matched, k ** n),
        injective=ok["injectivity"],
        sum_shift_exact=ok["sum_shift"],
        inverse_roundtrip=ok["inverse"],
        measure_ratio=ratio,
        measure_monotone=ratio >= 1,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class ShiftPointRow:
    x: float
    value_original: float
    value_shifted: float
    difference: float
    band: float
    slack: float
    within: bool


@dataclass(frozen=True)
class ShiftScanReport:
    """Certified comparison of a scan before and after one shift_up rewrite."""

    matched: bool
    n_head: int
    flip_position: Optional[int]          # 1-based coordinate, None if unmatched
    shift: Optional[Fraction]             # d_2 - d_1
    rows: tuple[ShiftPointRow, ...] = ()
    sup_lower_original: Optional[float] = None
    sup_lower_shifted: Optional[float] = None
    inf_upper_original: Optional[float] = None
    inf_upper_shifted: Optional[float] = None

    @property
    def all_within(self) -> bool:
        return self.matched and all(r.within for r in self.rows)


def shift_effect_on_scan(stream, n_head: int, grid: ScanGrid = ScanGrid(),
                         eps: float = DEFAULT_EPS) -> ShiftScanReport:
    """Scan the stream and its shift_up-rewritten twin over the same grid.

    Both series share every coefficient beyond the rewritten head, so at each
    grid point the value difference equals sum_{n<=N} (b_n - a_n) x^n up to
    rounding; the report certifies |difference - (d_2 - d_1)| against the band
    sum |b_n - a_n| (1 - x0^n) taken at the shallowest grid point x0.
    """
    n_head = check_int(n_head, "n_head", 0)
    model = stream.model
    head = stream.index_prefix(n_head)
    image = shift_up_indices(head)
    if image is None:
        return ShiftScanReport(matched=False, n_head=n_head, flip_position=None, shift=None)
    flip_pos = next(i for i, (a, b) in enumerate(zip(head, image)) if a != b) + 1
    shift_fr = model.values[1] - model.values[0]
    shift = float(shift_fr)

    x0 = 1.0 - grid.deltas()[0]
    band = float(abs(shift_fr)) * (1.0 - x0 ** flip_pos)

    original = scan(stream, grid, eps)
    shifted = scan(PatchedStream(stream, image), grid, eps)
    rows = []
    for ro, rs in zip(original.rows, shifted.rows):
        diff = rs.value - ro.value
        slack = ro.rounding_slack + rs.rounding_slack
        rows.append(ShiftPointRow(
            x=ro.x, value_original=ro.value, value_shifted=rs.value,
            difference=diff, band=band, slack=slack,
            within=abs(diff - shift) <= band + slack,
        ))
    return ShiftScanReport(
        matched=True, n_head=n_head, flip_position=flip_pos, shift=shift_fr,
        rows=tuple(rows),
        sup_lower_original=original.running_sup_lower,
        sup_lower_shifted=shifted.running_sup_lower,
        inf_upper_original=original.running_inf_upper,
        inf_upper_shifted=shifted.running_inf_upper,
    )
