"""Finite coefficient sets with exact rational weights, and reproducible streams.

Values are parsed from exact decimal (or ``p/q``) strings into rationals; all
sign classifications use rational arithmetic while series evaluation uses the
float mirrors.  Streams are counter-based: the n-th coefficient is a pure
function of (master_seed, sample_index, n), so any coefficient is computable
in O(1) without replaying the stream, and parallel workers cannot perturb it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "CoefficientModel",
    "FinitePrefix",
    "MeanSign",
    "PatchedStream",
    "SequenceStream",
    "parse_model",
]

RationalLike = Union[int, str, Fraction]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1B54A32D192ED03
# Draws are generated, and terms summed (``series_eval``), in blocks of this
# many entries, in reused buffers.
_BLOCK = 1 << 16
# Offsets n * golden of the draws within one block, shared by every stream.
_STEPS = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(_GOLDEN)
_STEPS.flags.writeable = False
# The mixer's last step, z ^= z >> 31, changes only bits 0-32 of a draw, so a
# threshold that is a multiple of 2^33 compares the same before and after it.
_LAST_STEP_GRID = 1 << 33


def _mix64(z: int) -> int:
    """SplitMix64 finalizer; bijective on 64-bit integers."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray, last_step: bool) -> None:
    """SplitMix64 finalizer over a uint64 array, in place; ``tmp`` is scratch of the same size.

    With ``last_step=False`` the final xor-shift is left out (see _LAST_STEP_GRID).
    """
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(0x94D049BB133111EB)
    if last_step:
        np.right_shift(z, np.uint64(31), out=tmp)
        z ^= tmp


def _to_fraction(v: RationalLike, what: str) -> Fraction:
    if isinstance(v, float):
        raise ConfigError(
            f"{what}: pass exact decimal strings (or Fractions), not floats: {v!r}"
        )
    try:
        return Fraction(str(v).strip()) if isinstance(v, str) else Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: cannot parse {v!r} as an exact rational") from exc


class MeanSign(enum.Enum):
    POSITIVE = "Positive"
    ZERO = "Zero"
    NEGATIVE = "Negative"


@dataclass(frozen=True)
class CoefficientModel:
    """A finite coefficient set d_1..d_k with positive weights summing to 1.

    ``values`` keeps the user's listing order, which fixes both the cyclic
    permutation used by :mod:`randseries.symmetry` and the distinguished pair
    (d_1, d_2) used by the sum-shifting matchings.
    """

    values: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) < 2:
            raise ConfigError("need at least two coefficient values (k >= 2)")
        if len(set(self.values)) != len(self.values):
            raise ConfigError("coefficient values must be pairwise distinct")
        if len(self.weights) != len(self.values):
            raise ConfigError("need exactly one weight per value")
        if any(w <= 0 for w in self.weights):
            raise ConfigError("all weights must be positive")
        if sum(self.weights) != 1:
            raise ConfigError("weights must sum to 1 exactly")
        for v in self.values:
            try:
                float(v)
            except OverflowError:
                raise ConfigError("coefficient value too large for a binary64 float "
                                  "(above about 1.8e308)") from None

    @classmethod
    def create(
        cls,
        values: Iterable[RationalLike],
        weights: Iterable[RationalLike] | None = None,
    ) -> "CoefficientModel":
        vals = tuple(_to_fraction(v, "value") for v in values)
        if weights is None:
            k = len(vals)
            if k == 0:
                raise ConfigError("empty value list")
            wts = (Fraction(1, k),) * k
        else:
            wts = tuple(_to_fraction(w, "weight") for w in weights)
        return cls(vals, wts)

    # -- basic structure ---------------------------------------------------

    @property
    def k(self) -> int:
        return len(self.values)

    @cached_property
    def floats(self) -> np.ndarray:
        """Float mirrors of the exact values (read-only)."""
        arr = np.array([float(v) for v in self.values], dtype=np.float64)
        arr.flags.writeable = False
        return arr

    @cached_property
    def max_abs(self) -> Fraction:
        return max(abs(v) for v in self.values)

    @cached_property
    def max_abs_float(self) -> float:
        return float(self.max_abs)

    @cached_property
    def min_value(self) -> Fraction:
        return min(self.values)

    @cached_property
    def max_value(self) -> Fraction:
        return max(self.values)

    @cached_property
    def coefficient_sum(self) -> Fraction:
        return sum(self.values, Fraction(0))

    def mean(self) -> Fraction:
        """Expected value of one coefficient, exactly."""
        return sum((w * v for v, w in zip(self.values, self.weights)), Fraction(0))

    def mean_sign(self) -> MeanSign:
        m = self.mean()
        if m > 0:
            return MeanSign.POSITIVE
        if m < 0:
            return MeanSign.NEGATIVE
        return MeanSign.ZERO

    @cached_property
    def _index_map(self) -> dict:
        m: dict = {}
        for j, v in enumerate(self.values):
            m[v] = j
        for j, v in enumerate(self.values):
            fm = float(v)
            if fm in m and m[fm] != j:
                raise ConfigError(
                    f"float mirror of value {v} collides with another value"
                )
            m[fm] = j
        return m

    def index_of(self, value) -> int:
        """Index of a value given exactly or as its float mirror."""
        try:
            return self._index_map[value]
        except (KeyError, TypeError):
            raise ConfigError(f"{value!r} is not a member of the coefficient set")

    def integer_scaled(self) -> tuple[tuple[int, ...], int]:
        """Values scaled by a common denominator, for exact integer partial sums."""
        den = 1
        for v in self.values:
            den = den * v.denominator // math.gcd(den, v.denominator)
        return tuple(int(v * den) for v in self.values), den

    # -- sampling ----------------------------------------------------------

    @cached_property
    def _thresholds(self) -> tuple[int, ...]:
        """Cumulative-weight boundaries on the 64-bit dyadic grid.

        A uniform draw u picks index ``#{t : t <= u}``; strict comparison
        against ceil(cum * 2^64) realises ``u/2^64 < cum`` exactly, so the
        selection is a pure function of u with no float rounding involved.
        """
        ts = []
        cum = Fraction(0)
        for w in self.weights[:-1]:
            cum += w
            ts.append(-((-cum.numerator << 64) // cum.denominator))
        if any(b <= a for a, b in zip([0] + ts, ts + [1 << 64])):
            raise ConfigError("weights are finer than the 64-bit sampling grid")
        return tuple(ts)

    def _index_from_draw(self, u: int) -> int:
        j = 0
        for t in self._thresholds:
            if u >= t:
                j += 1
        return j

    def spec_string(self) -> str:
        return ",".join(str(v) for v in self.values)

    def weights_string(self) -> str:
        return ",".join(str(w) for w in self.weights)


def parse_model(set_spec: str, weights_spec: str | None = None) -> CoefficientModel:
    """Parse ``--set "-1,1"`` / ``--weights "1/4,3/4"`` style specifications."""
    values = [s for s in (p.strip() for p in set_spec.split(",")) if s]
    if not values:
        raise ConfigError("empty coefficient set specification")
    weights = None
    if weights_spec is not None:
        weights = [s for s in (p.strip() for p in weights_spec.split(",")) if s]
    return CoefficientModel.create(values, weights)


class FinitePrefix:
    """The first N coordinates of a coefficient sequence, stored as value indices.

    The indices are held in one read-only array (``index_array``); the tuple
    ``indices`` and the exact ``values`` are built only when asked for.
    """

    def __init__(self, model: CoefficientModel, indices):
        arr = np.array(indices, dtype=np.intp)
        if arr.size and not (arr.min() >= 0 and arr.max() < model.k):
            raise ConfigError("prefix index outside the coefficient set")
        arr.flags.writeable = False
        self.model = model
        self.index_array = arr

    def __len__(self) -> int:
        return self.index_array.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePrefix):
            return NotImplemented
        return self.model == other.model and np.array_equal(self.index_array, other.index_array)

    def __hash__(self) -> int:
        return hash((self.model, self.indices))

    def __repr__(self) -> str:
        return f"FinitePrefix(model={self.model!r}, indices={self.indices!r})"

    @cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.index_array.tolist())

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        vals = self.model.values
        return tuple(vals[i] for i in self.indices)

    @cached_property
    def floats(self) -> np.ndarray:
        arr = self.model.floats[self.index_array]
        arr.flags.writeable = False
        return arr

    @classmethod
    def from_values(cls, model: CoefficientModel, values: Sequence) -> "FinitePrefix":
        return cls(model, [model.index_of(v) for v in values])


def _check_position(n: int) -> None:
    if n < 1:
        raise ConfigError(f"coefficient positions start at 1, got {n}")


class _Stream:
    """Coefficient stream behaviour derived from the one primitive ``index_range``.

    Subclasses implement ``index_range``; prefixes, index arrays and the
    cached float mirrors all come from it.
    """

    def __init__(self, model: CoefficientModel):
        self.model = model
        self._floats = np.empty(0, dtype=np.float64)   # read-only: exactly the drawn prefix
        self._floats.flags.writeable = False

    def index_range(self, lo: int, hi: int) -> np.ndarray:
        """Value indices of coefficients lo..hi-1 (1-based, half-open), as a new array
        of the smallest unsigned type that holds k - 1.

        Raises:
            ConfigError: if lo < 1.
        """
        raise NotImplementedError

    def index_at(self, n: int) -> int:
        return int(self.index_range(n, n + 1)[0])

    def index_array(self, n_terms: int) -> np.ndarray:
        """Value indices of coefficients a_1..a_N as an array."""
        return self.index_range(1, n_terms + 1)

    def index_prefix(self, n_terms: int) -> tuple[int, ...]:
        return tuple(self.index_array(n_terms).tolist())

    def prefix(self, n_terms: int) -> FinitePrefix:
        if n_terms < 1:
            raise ConfigError("prefix length must be >= 1")
        return FinitePrefix(self.model, self.index_array(n_terms))

    def float_coefficients(self, n_terms: int) -> np.ndarray:
        """Float mirrors of coefficients a_1..a_N as a read-only array view.

        The cache holds exactly the longest prefix asked for so far.  A longer
        request rebuilds it: a fresh array of exactly N, drawn from position 1
        _BLOCK at a time.  Views handed out earlier keep their values, since
        any prefix drawn again is bit-identical.
        """
        if n_terms > self._floats.shape[0]:
            floats = np.empty(n_terms, dtype=np.float64)
            for lo in range(0, n_terms, _BLOCK):
                hi = min(lo + _BLOCK, n_terms)
                np.take(self.model.floats, self.index_range(lo + 1, hi + 1),
                        out=floats[lo:hi], mode="clip")
            floats.flags.writeable = False
            self._floats = floats
        return self._floats[:n_terms]


class SequenceStream(_Stream):
    """Deterministic infinite coefficient sequence keyed by (seed, sample index)."""

    def __init__(self, model: CoefficientModel, master_seed: int, sample_index: int = 0):
        if sample_index < 0:
            raise ConfigError("sample_index must be nonnegative")
        super().__init__(model)
        self.master_seed = int(master_seed)
        self.sample_index = int(sample_index)
        self._key = _mix64(_mix64(self.master_seed) ^ ((self.sample_index * _STREAM_SALT) & _MASK64))

    def __repr__(self):
        return (
            f"SequenceStream(set=[{self.model.spec_string()}], "
            f"seed={self.master_seed}, index={self.sample_index})"
        )

    def draw_at(self, n: int) -> int:
        """Raw 64-bit uniform draw behind the n-th coefficient (n >= 1)."""
        _check_position(n)
        return _mix64((self._key + n * _GOLDEN) & _MASK64)

    def index_at(self, n: int) -> int:
        # scalar path, independent of the vectorised one
        return self.model._index_from_draw(self.draw_at(n))

    def index_range(self, lo: int, hi: int) -> np.ndarray:
        # SplitMix64 of key + n * golden, block by block in reused buffers; the
        # value index is the number of thresholds at or below the draw.  When
        # every threshold is a multiple of 2^33 the mixer's last step is skipped.
        lo, hi = int(lo), int(hi)
        _check_position(lo)
        model = self.model
        count = max(hi - lo, 0)
        out = np.empty(count, dtype=np.min_scalar_type(model.k - 1))
        size = min(count, _BLOCK)
        z = np.empty(size, dtype=np.uint64)
        tmp = np.empty(size, dtype=np.uint64)
        hit = np.empty(size, dtype=bool)
        thresholds = [np.uint64(t) for t in model._thresholds]
        last_step = any(t % _LAST_STEP_GRID for t in model._thresholds)
        for start in range(0, count, _BLOCK):
            m = min(_BLOCK, count - start)
            zb, ob = z[:m], out[start:start + m]
            np.add(_STEPS[:m], np.uint64((self._key + (lo + start) * _GOLDEN) & _MASK64), out=zb)
            _mix64_inplace(zb, tmp[:m], last_step)
            np.greater_equal(zb, thresholds[0], out=ob)
            for t in thresholds[1:]:
                np.greater_equal(zb, t, out=hit[:m])
                ob += hit[:m]
        return out


class PatchedStream(_Stream):
    """A stream whose first coordinates are overridden by a fixed head."""

    def __init__(self, base, head_indices: Sequence[int]):
        super().__init__(base.model)
        self.base = base
        self.head_indices = tuple(int(i) for i in head_indices)
        if any(not (0 <= i < self.model.k) for i in self.head_indices):
            raise ConfigError("head index outside the coefficient set")

    def index_range(self, lo: int, hi: int) -> np.ndarray:
        _check_position(lo)
        out = self.base.index_range(lo, hi)
        stop = min(len(self.head_indices), hi - 1)
        if lo <= stop:
            out[:stop - lo + 1] = self.head_indices[lo - 1:stop]
        return out
