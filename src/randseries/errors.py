"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid model, grid, or run configuration."""


class PreconditionError(ValueError):
    """An operation's mathematical precondition does not hold for the input."""


class WitnessImpossibleError(ValueError):
    """No positive witness can exist for this coefficient set (max D <= 0)."""


class BudgetExceededError(RuntimeError):
    """A computation would need more work (terms, cells, walk steps) than its budget.

    Raised instead of silently truncating; ``required`` reports how large the
    computation would have to be.
    """

    def __init__(self, required: int, limit: int, context: str):
        self.required = required
        self.limit = limit
        self.context = context
        super().__init__(f"budget exceeded ({context}): required {required} > budget {limit}")
