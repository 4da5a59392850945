"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when user-supplied data (presentations, words, files, CLI
    arguments) is malformed or inconsistent."""


class LogicError(RuntimeError):
    """Raised when an internal invariant breaks.  Seeing one is a bug in this
    package, not in the caller's input."""


class ResourceLimit(RuntimeError):
    """Raised when a construction exceeds its configured size budget.  The
    caller decides whether that means failure or a retry with other settings.
    ``cap`` names the budget and ``limit`` is its value."""

    def __init__(self, cap: str, limit: int):
        super().__init__(f"{cap} exceeded {limit}")
        self.cap = cap
        self.limit = limit
