"""Summary statistics and failure accounting for benchmark runs."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With n sorted samples that is the sample at 0-based index n - 11, which
    sits at percentile 100 * (n - 11) / (n - 1). With 11 or fewer samples no
    such percentile exists and the maximum (percentile 100) is reported, so
    a tail from few samples reads as the worst case, never as a middle one.
    """
    if not values:
        raise ValueError("tail: no samples")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND + 1:
        return float(ordered[-1]), 100.0
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * index / (n - 1)


def run_tail(passes: Sequence[Sequence[float]]) -> tuple[float, float]:
    """The tail of a run over every pass's samples: (value, percentile).

    Every pass counts, the slow ones too, since that is where tail latency
    lands. With 20 samples or fewer the rule's percentile would be at or
    below the median, which is no tail, so the slowest sample is reported
    (percentile 100).
    """
    samples = [t for p in passes for t in p]
    if len(samples) > 2 * TAIL_BEYOND:
        return tail(samples)
    return float(max(samples)), 100.0


def faster_half(values: Sequence[T], seconds: Callable[[T], float]) -> list[T]:
    """The faster half of ``values`` (rounded up), by ``seconds``.

    On a shared host other processes only ever add time, and they slow
    whole stretches of seconds at once, so the slower half of a run's
    passes is where that interference lands. The faster half measures the
    program; every pass is still checked and counted, and the tail is
    taken over every pass.
    """
    return sorted(values, key=seconds)[:(len(values) + 1) // 2]


class Ledger:
    """Counts attempted and failed operations of one run.

    A failure is a wrong output, an unexpected exception or a wrong exit
    code. Failures are counted and the run goes on, so one bad operation
    never hides the others.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def run(self, what: str, fn: Callable[[], T],
            check: Optional[Callable[[T], bool]] = None) -> tuple[Optional[T], float]:
        """Time one operation, then check its output outside the timed region.

        Returns (result, seconds); the result is None when ``fn`` raised.
        Every call records exactly one attempted operation.
        """
        start = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # the run goes on and reports the failure
            seconds = (time.perf_counter_ns() - start) / 1e9
            traceback.print_exc(file=sys.stderr)
            self.record(False, f"{what}: {exc!r}")
            return None, seconds
        seconds = (time.perf_counter_ns() - start) / 1e9
        ok = True
        if check is not None:
            try:
                ok = bool(check(result))
            except Exception as exc:  # a check that crashes is a miss too
                traceback.print_exc(file=sys.stderr)
                ok, what = False, f"{what}: check raised {exc!r}"
        self.record(ok, what)
        return result, seconds

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
