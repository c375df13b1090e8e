"""Brute-force exploration of the MSTD landscape.

This module is the independent referee for the rest of the package: the
double-loop oracle recomputes profiles with none of the bit-vector
machinery, the exhaustive scans establish desk-scale facts (no MSTD set
below diameter 14 or with fewer than 8 elements in the scanned region),
and the seeded sampler estimates how common MSTD subsets are.

The exhaustive and the cardinality scan are one scan (``_subset_scan``):
every subset of [0, d_max] holding 0, with at most card_max elements, its
largest element its diameter; the exhaustive scan leaves no size out.
One ``_split`` cuts them on their top positions into tasks of at most
``_TASK_SETS`` sets, and the kernels cut a task into batches the same way.
A task returns every MSTD set it finds, and only ``_witnesses`` orders
them: by diameter, or by size for the cardinality scan. Seed discovery
runs such tasks serially and keeps the MSTD sets that pass ``is_pn``.
One budget of ``_SET_BUDGET`` sets, counted in closed form before any
task is built, bounds both scans and the sampler; ``_WINDOW`` bounds
d_max.
The sampler draws chunks of ``_SAMPLE_CHUNK`` samples, each from a stream
seeded by (seed, chunk index), and a task takes several consecutive ones:
as many as one ``kernels._BLOCK_BYTES`` block of draws holds, the
request's chunks split evenly between the tasks.

Task boundaries and per-chunk RNG seeds depend only on the request, and
results merge associatively, so no report depends on the worker count.

The chunk workers and their word-level kernels live in ``kernels``, the
package's only numpy module. Each driver imports it before any work
starts, so importing this module (and running the oracle) needs neither
numpy nor ``multiprocessing``. Scans of more than one task share one pool
of min(workers, CPUs) processes, started on first use, replaced when that
count changes, a scan fails or a worker has died, and kept until the
interpreter exits. Each worker is served over its own pipe and takes one
task at a time, the next going to whichever worker answers first; a
worker that dies mid-task fails the scan with a ``RuntimeError`` naming
its exit code instead of hanging it.
"""

from __future__ import annotations

import atexit
import heapq
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, chain
from numbers import Integral
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InvalidParameterError, ResourceLimitError
from .intset import IntegerSet, SetProfile, _integers, is_pn

# most sets per scan task: several kernel batches, so that a task's work
# outweighs handing it to a worker
_TASK_SETS = 1 << 17
_WINDOW = _TASK_SETS  # widest d_max + 1: a card_max <= 2 scan of it is one task
_SAMPLE_CHUNK = 1 << 12
_WITNESS_CAP = 8
_ORACLE_CARD_CAP = 10_000
_SET_BUDGET = 100_000_000  # most sets one search classifies
_SAMPLE_WORK = 10**11  # most n**2 * samples, a few seconds of serial work


def oracle_profile(a: IntegerSet | Iterable[int]) -> SetProfile:
    """Profile by explicit double loops over Python integers.

    Deliberately naive and independent: no bit-vectors, no numpy, no code
    shared with the fast path. Capped at 10**4 elements. As for
    ``IntegerSet``, every element must be a ``numbers.Integral`` and no bool.
    """
    els = list(a)
    for x in els:
        if isinstance(x, bool) or not isinstance(x, Integral):
            raise InvalidParameterError(f"oracle_profile: element {x!r} is not an integer")
    els = [int(x) for x in els]
    if not els:
        raise InvalidParameterError("oracle_profile: set must be nonempty")
    if len(els) > _ORACLE_CARD_CAP:
        raise ResourceLimitError(f"oracle_profile: more than {_ORACLE_CARD_CAP} elements")
    sums = {x + y for x in els for y in els}
    diffs = {x - y for x in els for y in els}
    return SetProfile.from_counts(
        cardinality=len(set(els)),
        diameter=max(els) - min(els),
        sum_count=len(sums),
        diff_count=len(diffs),
    )


def _subsets_up_to(m: int, limit: int) -> int:
    """How many subsets of an m-element set have at most ``limit`` elements."""
    return sum(math.comb(m, i) for i in range(limit + 1))


def _split(tops: tuple[int, ...], positions: Sequence[int], max_size: int, cap: int
           ) -> Iterator[tuple[tuple[int, ...], Sequence[int], int, int]]:
    """(tops, positions, limit, count) requests of count <= ``cap`` sets, in counter order.

    The request is every set tops | T, T a subset of ``positions`` with
    |T| <= ``max_size``. A larger request peels off top positions until the
    sets without them fit; those come first, then for each peeled position,
    in increasing order, the sets whose top it is, split again with it in
    ``tops``. Only that recurses, at most ``max_size`` deep.
    """
    if max_size < 0:
        return
    m = len(positions)
    while (count := _subsets_up_to(m, min(max_size, m))) > cap:
        m -= 1
    yield tops, positions[:m], min(max_size, m), count
    for k in range(m, len(positions)):
        yield from _split((*tops, positions[k]), positions[:k], max_size - 1, cap)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search: what was examined and what was found."""

    domain: str
    total_examined: int
    mstd_count: int
    mdts_count: int
    balanced_count: int
    witnesses: tuple[IntegerSet, ...] = ()
    seed: Optional[int] = None
    mstd_fraction: Optional[Fraction] = None
    ci95: Optional[tuple[float, float]] = None

    def to_json(self) -> dict:
        out = {
            "domain": self.domain,
            "total_examined": self.total_examined,
            "mstd_count": self.mstd_count,
            "mdts_count": self.mdts_count,
            "balanced_count": self.balanced_count,
            "witnesses": [w.to_text() for w in self.witnesses],
            "seed": self.seed,
        }
        if self.mstd_fraction is not None:
            out["mstd_fraction"] = float(self.mstd_fraction)
        if self.ci95 is not None:
            out["ci95"] = [self.ci95[0], self.ci95[1]]
        return out


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    successes, trials = _integers("wilson_interval", successes=successes, trials=trials)
    if trials <= 0:
        raise InvalidParameterError("wilson_interval: trials must be positive")
    if not 0 <= successes <= trials:
        raise InvalidParameterError("wilson_interval: need 0 <= successes <= trials")
    z = 1.96
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # at successes == trials, center + half is 1 exactly but rounds below it
    return (max(0.0, center - half), 1.0 if successes == trials else min(1.0, center + half))


def _serve(conn) -> None:
    """A worker's loop: run each (index, worker, task) it receives and send
    back (index, ok, result or exception), until it receives None."""
    for index, worker, task in iter(conn.recv, None):
        try:
            reply = (index, True, worker(task))
        except Exception as exc:
            reply = (index, False, exc)
        conn.send(reply)


class _Workers:
    """``count`` daemon processes, each served over its own pipe."""

    def __init__(self, count: int):
        from multiprocessing import Pipe, Process

        self.procs = []
        self.conns = []
        try:
            for _ in range(count):
                conn, child = Pipe()
                proc = Process(target=_serve, args=(child,), daemon=True)
                proc.start()
                self.procs.append(proc)
                self.conns.append(conn)
                # the worker holds the only other end, so its exit reads as EOF here
                child.close()
        except BaseException:
            self.close()
            raise

    def map(self, worker, tasks: Sequence) -> list:
        """``[worker(t) for t in tasks]``: each worker takes one task, then
        the next one as soon as it answers."""
        from multiprocessing.connection import wait

        results = [None] * len(tasks)
        jobs = enumerate(tasks)
        busy = []
        for conn, (index, task) in zip(self.conns, jobs):
            conn.send((index, worker, task))
            busy.append(conn)
        while busy:
            for conn in wait(busy):
                try:
                    index, ok, result = conn.recv()
                except EOFError:
                    proc = self.procs[self.conns.index(conn)]
                    proc.join()
                    raise RuntimeError(
                        f"a search worker exited with code {proc.exitcode}") from None
                if not ok:
                    raise result
                results[index] = result
                job = next(jobs, None)
                if job is None:
                    busy.remove(conn)
                else:
                    conn.send((job[0], worker, job[1]))
        return results

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def close(self) -> None:
        """Terminate and join every worker."""
        for proc in self.procs:
            proc.terminate()
            proc.join()
        for conn in self.conns:
            conn.close()


# (owning process id, worker count, workers). The owner is recorded so that
# a forked child never submits work to workers it inherited.
_pool: Optional[tuple[int, int, _Workers]] = None


def _close_pool() -> None:
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].close()
    _pool = None


atexit.register(_close_pool)


def _shared_pool(workers: int) -> _Workers:
    """The process's ``workers`` worker processes, replaced if the count
    changes or one of them has died since the last scan."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers) or not _pool[2].alive():
        _close_pool()
        _pool = (os.getpid(), workers, _Workers(workers))
    return _pool[2]


def _run_tasks(worker, tasks: Sequence, workers: int) -> list:
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    # at most one process per CPU; the task count never sizes the pool
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    try:
        return _shared_pool(workers).map(worker, tasks)
    except BaseException:
        # a failed, interrupted or broken map can leave workers busy or dead
        _close_pool()
        raise


def _scan(worker, tasks: Sequence, workers: int, domain: str, rank=None) -> SearchReport:
    """Run the chunk tasks and fold their results into one report.

    Each chunk returns (examined, mstd, mdts, balanced, found). Counts add
    up. A sampling chunk finds witness keys ending in the set's elements, of
    which the report keeps the ``_WITNESS_CAP`` smallest; a subset chunk
    finds every MSTD set as bits, which ``_witnesses`` ranks by ``rank``.
    So the report does not depend on how the tasks were split.
    """
    parts = _run_tasks(worker, tasks, workers)
    total, mstd, mdts, bal = (sum(p[i] for p in parts) for i in range(4))
    found = list(chain.from_iterable(p[4] for p in parts))
    keys = sorted(found)[:_WITNESS_CAP] if rank is None else _witnesses(found, rank)
    return SearchReport(domain=domain, total_examined=total, mstd_count=mstd,
                        mdts_count=mdts, balanced_count=bal,
                        witnesses=tuple(IntegerSet(k[-1]) for k in keys))


# ---------------------------------------------------------------------------
# subset scans: exhaustive by diameter, and bounded cardinality
# ---------------------------------------------------------------------------

def _by_diameter(bits: int) -> tuple[int, int]:
    """Rank a subset-scan set (bit i = element i) by diameter, then size."""
    return bits.bit_length(), bits.bit_count()


def _by_size(bits: int) -> tuple[int, int]:
    """Rank a subset-scan set by size, then diameter."""
    return bits.bit_count(), bits.bit_length()


def _witnesses(found: list[int], rank) -> list[tuple]:
    """The ``_WITNESS_CAP`` smallest keys (*rank(bits), elements) of the MSTD
    sets ``found``, listing elements only for the sets that tie with or beat
    the ``_WITNESS_CAP``-th smallest rank, the only ones that can be kept."""
    from .kernels import _elements
    edge = heapq.nsmallest(_WITNESS_CAP, map(rank, found))
    return sorted((*rank(bits), _elements(bits)) for bits in found
                  if rank(bits) <= edge[-1])[:_WITNESS_CAP] if edge else []


def _subset_scan(caller: str, d_max: int, card_max: int, workers: int, domain: str,
                 rank=_by_diameter) -> SearchReport:
    """Classify every subset of [0, d_max] with 0 and at most card_max elements.

    Such a set is {0} | T, T at most card_max - 1 positions of [1, d_max],
    and its diameter d is its largest element. One ``_split`` cuts that
    family into ``kernels._subset_chunk`` tasks, which may mix diameters
    and return every MSTD set they find; ``_scan`` ranks them by ``rank``.
    """
    if d_max >= _WINDOW:
        raise ResourceLimitError(f"{caller}: d_max must be below {_WINDOW}")
    # C(d_max, i) sets for each i < card_max; the running total stops past the budget
    sizes = (math.comb(d_max, i) for i in range(min(card_max, d_max + 1)))
    if any(total > _SET_BUDGET for total in accumulate(sizes)):
        raise ResourceLimitError(f"{caller}: more than {_SET_BUDGET} sets")
    tasks = list(_split((0,), range(1, d_max + 1), card_max - 1, _TASK_SETS))
    # largest first, so that no big task is left for one worker at the end
    tasks.sort(key=itemgetter(3), reverse=True)
    from .kernels import _subset_chunk
    return _scan(_subset_chunk, tasks, workers, domain, rank)


def exhaustive_by_diameter(d_max: int, workers: int = 1) -> SearchReport:
    """Classify every subset of [0, d] containing 0 and d, for all d <= d_max.

    Witnesses are the MSTD sets smallest by (diameter, cardinality,
    elements); none exist below diameter 14. The 2**d_max sets must fit
    the set budget, so d_max <= 26.
    """
    d_max, workers = _integers("exhaustive_by_diameter", d_max=d_max, workers=workers)
    if d_max < 0:
        raise InvalidParameterError("exhaustive_by_diameter: d_max must be >= 0")
    return _subset_scan("exhaustive_by_diameter", d_max, d_max + 1, workers,
                        f"subsets of [0,d] containing 0 and d, 0 <= d <= {d_max}")


def min_cardinality_scan(d_max: int, card_max: int, workers: int = 1) -> SearchReport:
    """Classify subsets of [0, d] with 0, d and at most card_max elements.

    Establishes whether any MSTD set with fewer than 8 elements exists in
    the scanned region (none do). Witnesses are the MSTD sets smallest by
    (cardinality, diameter, elements). d_max must be below 2**17.
    """
    d_max, card_max, workers = _integers("min_cardinality_scan", d_max=d_max,
                                         card_max=card_max, workers=workers)
    if d_max < 0 or card_max < 1:
        raise InvalidParameterError("min_cardinality_scan: d_max >= 0 and card_max >= 1")
    return _subset_scan("min_cardinality_scan", d_max, card_max, workers,
                        f"subsets of [0,d] containing 0 and d, 0 <= d <= {d_max}, "
                        f"cardinality <= {card_max}",
                        rank=_by_size)


# ---------------------------------------------------------------------------
# seeded random sampling
# ---------------------------------------------------------------------------

def sample_mstd_proportion(n: int, samples: int, seed: int,
                           workers: int = 1) -> SearchReport:
    """Estimate the MSTD fraction among uniform random subsets of [1, n].

    Each element is included independently with probability 1/2. Sampling
    is chunked with per-chunk derived seeds, so the report is bit-identical
    for any worker count and any number of chunks per task. The 95%
    interval is a Wilson score interval. At most 10**8 samples, and
    n**2 * samples at most 10**11, are taken.
    """
    n, samples, seed, workers = _integers("sample_mstd_proportion", n=n, samples=samples,
                                          seed=seed, workers=workers)
    if n < 1 or n > 10_000:
        raise InvalidParameterError("sample_mstd_proportion: need 1 <= n <= 10**4")
    if samples < 1:
        raise InvalidParameterError("sample_mstd_proportion: samples must be >= 1")
    if seed < 0:
        raise InvalidParameterError("sample_mstd_proportion: seed must be >= 0")
    if samples > _SET_BUDGET:
        raise ResourceLimitError(f"sample_mstd_proportion: more than {_SET_BUDGET} samples")
    if n * n * samples > _SAMPLE_WORK:
        raise ResourceLimitError(f"sample_mstd_proportion: n**2 * samples above {_SAMPLE_WORK}")
    from .kernels import _BLOCK_BYTES, _sample_chunk
    # a task takes as many chunks as one block of draws holds, and the
    # request's chunks are split evenly, larger tasks first, so a task's
    # first chunk and size depend only on the request
    chunks = -(-samples // _SAMPLE_CHUNK)
    parts = -(-chunks // max(1, _BLOCK_BYTES // (_SAMPLE_CHUNK * n)))
    size, larger = divmod(chunks, parts)
    firsts = [t * size + min(t, larger) for t in range(parts + 1)]
    tasks = [(seed, first, min(end * _SAMPLE_CHUNK, samples) - first * _SAMPLE_CHUNK, n)
             for first, end in zip(firsts, firsts[1:])]
    report = _scan(_sample_chunk, tasks, workers,
                   f"uniform random subsets of [1,{n}], p=1/2 per element")
    return replace(report, seed=seed,
                   mstd_fraction=Fraction(report.mstd_count, report.total_examined),
                   ci95=wilson_interval(report.mstd_count, report.total_examined))


# ---------------------------------------------------------------------------
# seed discovery for the linear fill-in method
# ---------------------------------------------------------------------------

def find_fill2_seeds(n: int) -> list[tuple[IntegerSet, IntegerSet]]:
    """All (L, R) with L | R a valid linear fill-in seed for this n.

    Scans every A inside [1, 2n] with 1 and 2n present and n absent: one
    ``_split`` cuts them into ``kernels._subset_chunk`` tasks, run serially,
    and of the MSTD sets they return it keeps those with hulls complete
    except within n of each extreme (``is_pn``). Exhaustive over
    2**(2n-3) candidates; capped at n <= 12.
    """
    (n,) = _integers("find_fill2_seeds", n=n)
    if n < 1:
        raise InvalidParameterError("find_fill2_seeds: n must be >= 1")
    if n > 12:
        raise ResourceLimitError("find_fill2_seeds: n capped at 12")
    if n == 1:
        return []  # 1 and 2n = 2 forced in, n = 1 forced out: contradiction
    from .kernels import _elements, _subset_chunk
    free = [v for v in range(2, 2 * n) if v != n]
    tasks = list(_split((1, 2 * n), free, len(free), _TASK_SETS))
    found = [IntegerSet(_elements(bits))
             for part in _run_tasks(_subset_chunk, tasks, 1) for bits in part[4]]
    pairs = [(IntegerSet(e for e in a if e <= n), IntegerSet(e for e in a if e > n))
             for a in found if is_pn(a, n)]
    pairs.sort(key=lambda pair: (pair[0].to_list(), pair[1].to_list()))
    return pairs
