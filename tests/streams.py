"""Deterministic streams for tests."""

from typing import Sequence

import numpy as np

from randseries import ConfigError
from randseries.coefficients import CoefficientModel, _Stream
from randseries.errors import check_int


class PatternStream(_Stream):
    """Deterministic stream cycling a fixed pattern of value indices."""

    def __init__(self, model: CoefficientModel, pattern: Sequence[int]):
        if not pattern:
            raise ConfigError("empty pattern")
        if any(not (0 <= i < model.k) for i in pattern):
            raise ConfigError("pattern index outside the coefficient set")
        super().__init__(model)
        self.pattern = tuple(int(i) for i in pattern)

    def index_range(self, lo: int, hi: int) -> np.ndarray:
        lo = check_int(lo, "coefficient position", 1)
        cycle = np.array(self.pattern, dtype=np.min_scalar_type(self.model.k - 1))
        return cycle[(np.arange(lo, hi) - 1) % len(cycle)]
