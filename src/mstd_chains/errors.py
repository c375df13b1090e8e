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
    """No difference-dominated interposer exists at some chain step.

    The fringe-shift method only guarantees the sum-dominated steps; the
    in-between step is found by search and may not exist.
    """

    def __init__(self, step_index: int):
        self.step_index = step_index
        super().__init__(f"no MDTS interposer found before step {step_index}")
