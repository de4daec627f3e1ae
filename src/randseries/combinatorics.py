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
from typing import Optional, Sequence

from .boundary_scan import DEFAULT_EPS, ScanGrid, scan
from .coefficients import CoefficientModel, FinitePrefix, PatchedStream
from .errors import BudgetExceededError, ConfigError

__all__ = [
    "DEFAULT_WORD_BUDGET",
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

DEFAULT_WORD_BUDGET = 50_000_000


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


def _unmatched_positions(indices: Sequence[int]) -> tuple[list[int], list[int]]:
    """Positions of unmatched d_1's (openings) and d_2's (closings), ascending."""
    open_stack: list[int] = []
    unmatched_closings: list[int] = []
    for pos, ix in enumerate(indices):
        if ix == 0:
            open_stack.append(pos)
        elif ix == 1:
            if open_stack:
                open_stack.pop()
            else:
                unmatched_closings.append(pos)
    return open_stack, unmatched_closings


def shift_up_indices(indices: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Index-level shift_up; None when the word is unmatched."""
    opens, _ = _unmatched_positions(indices)
    if not opens:
        return None
    flip = opens[0]
    return indices[:flip] + (1,) + indices[flip + 1:]


def shift_down_indices(indices: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """Index-level shift_down (inverse of shift_up); None when unmatched."""
    _, closings = _unmatched_positions(indices)
    if not closings:
        return None
    flip = closings[-1]
    return indices[:flip] + (0,) + indices[flip + 1:]


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


def _check_enumeration(model: CoefficientModel, n: int, budget: Optional[int]) -> int:
    total = model.k ** n
    limit = DEFAULT_WORD_BUDGET if budget is None else budget
    if total > limit:
        raise BudgetExceededError(total, limit, context=f"enumerating k^N words at N={n}")
    return total


def _iter_words(k: int, n: int):
    """All index words of length n over alphabet 0..k-1, lexicographic."""
    word = [0] * n
    while True:
        yield tuple(word)
        pos = n - 1
        while pos >= 0 and word[pos] == k - 1:
            word[pos] = 0
            pos -= 1
        if pos < 0:
            return
        word[pos] += 1


def domain_fraction(model: CoefficientModel, n: int, *, budget: Optional[int] = None) -> Fraction:
    """Exact matched fraction #dom(shift_up) / k^N by exhaustive enumeration."""
    total = _check_enumeration(model, n, budget)
    matched = 0
    for word in _iter_words(model.k, n):
        # matched iff at least one unmatched opening symbol survives
        bal = 0
        for ix in word:
            if ix == 0:
                bal += 1
            elif ix == 1 and bal > 0:
                bal -= 1
        if bal > 0:
            matched += 1
    return Fraction(matched, total)


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


def verify_matching(model: CoefficientModel, n: int, *, budget: Optional[int] = None,
                    max_violations: int = 10) -> MatchingReport:
    """Exhaustively check injectivity, the exact sum shift, inversion, and the
    weight-monotonicity of flips (probability multiplies by p2/p1 >= 1 when
    p2 >= p1), over all k^N words."""
    total = _check_enumeration(model, n, budget)
    values = model.values
    weights = model.weights
    d_shift = values[1] - values[0]
    ratio = weights[1] / weights[0]

    matched = 0
    injective = True
    sum_ok = True
    inv_ok = True
    measure_ok = True
    seen: set = set()
    violations: list[tuple] = []

    def note(kind: str, word: tuple[int, ...]):
        if len(violations) < max_violations:
            violations.append((kind, word))

    for word in _iter_words(model.k, n):
        image = shift_up_indices(word)
        if image is None:
            continue
        matched += 1
        if image in seen:
            injective = False
            note("injectivity", word)
        else:
            seen.add(image)
        delta = sum(values[b] - values[a] for a, b in zip(word, image) if a != b)
        if delta != d_shift:
            sum_ok = False
            note("sum_shift", word)
        if shift_down_indices(image) != word:
            inv_ok = False
            note("inverse", word)
        # the flip replaces one d_1 by d_2, so P scales by exactly p2/p1
        p_word = _word_probability(weights, word)
        p_image = _word_probability(weights, image)
        if p_image != p_word * ratio or (ratio >= 1 and p_image < p_word):
            measure_ok = False
            note("measure", word)

    return MatchingReport(
        n=n,
        total_words=total,
        matched_count=matched,
        fraction=Fraction(matched, total),
        injective=injective,
        sum_shift_exact=sum_ok,
        inverse_roundtrip=inv_ok,
        measure_ratio=ratio,
        measure_monotone=ratio >= 1,
        violations=tuple(violations),
    )


def _word_probability(weights: tuple[Fraction, ...], word: tuple[int, ...]) -> Fraction:
    p = Fraction(1)
    for ix in word:
        p *= weights[ix]
    return p


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
                         eps: float = DEFAULT_EPS, *, budget: Optional[int] = None
                         ) -> ShiftScanReport:
    """Scan the stream and its shift_up-rewritten twin over the same grid.

    Both series share every coefficient beyond the rewritten head, so at each
    grid point the value difference equals sum_{n<=N} (b_n - a_n) x^n up to
    rounding; the report certifies |difference - (d_2 - d_1)| against the band
    sum |b_n - a_n| (1 - x0^n) taken at the shallowest grid point x0.
    """
    model = stream.model
    head = stream.index_prefix(n_head)
    image = shift_up_indices(tuple(head))
    if image is None:
        return ShiftScanReport(matched=False, n_head=n_head, flip_position=None, shift=None)
    flip_pos = next(i for i, (a, b) in enumerate(zip(head, image)) if a != b) + 1
    shift_fr = model.values[1] - model.values[0]
    shift = float(shift_fr)

    x0 = 1.0 - grid.deltas()[0]
    band = sum(
        float(abs(model.values[b] - model.values[a])) * (1.0 - x0 ** (i + 1))
        for i, (a, b) in enumerate(zip(head, image)) if a != b
    )

    original = scan(stream, grid, eps, budget=budget)
    shifted = scan(PatchedStream(stream, image), grid, eps, budget=budget)
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
