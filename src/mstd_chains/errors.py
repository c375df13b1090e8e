"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """An argument violates a documented precondition.

    The message names the clause that failed so callers can tell which
    hypothesis of a construction was not met.
    """


class ArithmeticRangeError(OverflowError):
    """A set element, sum, or difference would leave signed 64-bit range."""


class ResourceLimitError(RuntimeError):
    """A search or enumeration exceeds its configured desk-scale budget."""


class ChainBreakError(RuntimeError):
    """A chain step of the wanted class does not exist.

    The fringe-shift method only guarantees the sum-dominated steps, and
    only under its strict conditions; the in-between step is found by
    search and may not exist. Without a message, the step is that search's.
    """

    def __init__(self, step_index: int, message: str = ""):
        self.step_index = step_index
        super().__init__(message or f"no MDTS interposer found before step {step_index}")
