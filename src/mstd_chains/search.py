"""Brute-force exploration of the MSTD landscape.

This module is the independent referee for the rest of the package: the
double-loop oracle recomputes profiles with none of the bit-vector
machinery, the exhaustive scans establish desk-scale facts (no MSTD set
below diameter 14 or with fewer than 8 elements in the scanned region),
and the seeded sampler estimates how common MSTD subsets are.

Enumerations walk interior subsets as plain binary counters, so the work
splits into contiguous numeric ranges. Chunk boundaries and per-chunk RNG
seeds depend only on the request, never on the worker count, and results
merge associatively: reports are identical no matter how the work was
partitioned.

Every scan classifies its sets in batches with one word-level kernel,
``_word_counts``: a set inside [0, 32) is one ``uint64`` word, and so are
its sum and difference words. Only wider sets (sampling with n > 32, or
a cardinality scan past diameter 31) take the per-set big-integer loop
``_mask_counts``. Pooled scans share one process pool, started on first
use, replaced when the worker count changes or a scan fails, and kept
until the interpreter exits.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, islice
from multiprocessing import Pool
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .intset import IntegerSet, SetProfile

_ENUM_CHUNK = 1 << 14
_SAMPLE_CHUNK = 1 << 12
_WITNESS_CAP = 8
_ORACLE_CARD_CAP = 10_000
# sets per kernel call: keeps the kernel's four working words in cache
_BATCH = 1 << 12
# widest set the kernel takes: its sum and difference words then need 63 bits
_WORD_WIDTH = 32


def oracle_profile(a: IntegerSet | Iterable[int]) -> SetProfile:
    """Profile by explicit double loops over Python integers.

    Deliberately naive and independent: no bit-vectors, no numpy, no code
    shared with the fast path. Capped at 10**4 elements.
    """
    els = [int(x) for x in a]
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


def _mask_counts(bits: int, span: int) -> tuple[int, int]:
    """(|A+A|, |A-A|) for the set encoded by ``bits`` (bit i = element i).

    ``span`` is the highest set bit. Works by OR-ing shifted Python
    integers, one per element. Scans use it only for sets too wide for
    ``_word_counts``; tests use it as the referee for that kernel.
    """
    s = 0
    d = 0
    rest = bits
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        s |= bits << a
        d |= bits << (span - a)
        rest ^= low
    return s.bit_count(), d.bit_count()


def _word_counts(bits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum and difference words of a batch of sets inside [0, width).

    Bit i of ``bits[k]`` stands for element i of set k. In the results,
    bit i of the sum word stands for the sum i, and bit i of the
    difference word for the difference i - (width - 1). Their popcounts
    are |A+A| and |A-A|. With width <= 32 every word fits in 63 bits.
    """
    if not 1 <= width <= _WORD_WIDTH:
        raise InvalidParameterError(f"_word_counts: width must be in [1, {_WORD_WIDTH}]")
    sums = np.zeros_like(bits)
    diffs = np.zeros_like(bits)
    member = np.empty_like(bits)
    shifted = np.empty_like(bits)
    one = np.uint64(1)
    for a in range(width):
        # all ones where a is an element, else zero
        np.right_shift(bits, np.uint64(a), out=member)
        np.bitwise_and(member, one, out=member)
        np.negative(member, out=member)
        np.left_shift(bits, np.uint64(a), out=shifted)
        np.bitwise_and(shifted, member, out=shifted)
        np.bitwise_or(sums, shifted, out=sums)
        np.left_shift(bits, np.uint64(width - 1 - a), out=shifted)
        np.bitwise_and(shifted, member, out=shifted)
        np.bitwise_or(diffs, shifted, out=diffs)
    return sums, diffs


def _classify(bits: np.ndarray | Sequence[int], width: int) -> np.ndarray:
    """Sign of |A+A| - |A-A| for each set of a batch inside [0, width).

    Batches up to width 32 are ``uint64`` arrays and go through the word
    kernel; wider ones are Python integers and go through ``_mask_counts``.
    """
    if width <= _WORD_WIDTH:
        sums, diffs = _word_counts(bits, width)
        return np.sign(np.bitwise_count(sums).astype(np.int8)
                       - np.bitwise_count(diffs).astype(np.int8))
    return np.array([(s > f) - (s < f) for s, f in
                     (_mask_counts(b, width - 1) for b in bits)], dtype=np.int8)


def _elements(bits: int, offset: int = 0) -> tuple[int, ...]:
    """The set encoded by ``bits``, each element shifted by ``offset``."""
    return tuple(i + offset for i in range(bits.bit_length()) if (bits >> i) & 1)


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
    if trials <= 0:
        raise InvalidParameterError("wilson_interval: trials must be positive")
    z = 1.96
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


# (owning process id, worker count, pool). The owner is recorded so that a
# forked child never submits work to a pool it inherited.
_pool: Optional[tuple[int, int, Pool]] = None


def _worker_count(workers: int, tasks: int) -> int:
    """Processes worth running: at most one per CPU and one per task."""
    if workers < 1:
        raise InvalidParameterError("workers must be >= 1")
    return min(workers, os.cpu_count() or 1, tasks)


def _close_pool() -> None:
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].terminate()
    _pool = None


atexit.register(_close_pool)


def _shared_pool(workers: int) -> Pool:
    """The process's pool of ``workers`` processes, replaced if the count changes."""
    global _pool
    if _pool is None or _pool[:2] != (os.getpid(), workers):
        _close_pool()
        _pool = (os.getpid(), workers, Pool(processes=workers))
    return _pool[2]


def _run_tasks(worker, tasks: Sequence, workers: int) -> list:
    workers = _worker_count(workers, len(tasks))
    if workers <= 1:
        return [worker(t) for t in tasks]
    try:
        return _shared_pool(workers).map(worker, tasks, chunksize=1)
    except BaseException:
        # a failed or interrupted map can leave workers busy or dead
        _close_pool()
        raise


def _scan(worker, tasks: Sequence, workers: int, domain: str, **extra) -> SearchReport:
    """Run the chunk tasks and fold their results into one report.

    Each chunk returns (examined, mstd, mdts, balanced, witnesses), where a
    witness is a sort key ending in the set's elements. Counts add up and
    the report keeps the ``_WITNESS_CAP`` smallest keys of all chunks, so it
    does not depend on how the tasks were split between workers.
    """
    parts = _run_tasks(worker, tasks, workers)
    total, mstd, mdts, bal = (sum(p[i] for p in parts) for i in range(4))
    keys = sorted(chain.from_iterable(p[4] for p in parts))[:_WITNESS_CAP]
    return SearchReport(domain=domain, total_examined=total, mstd_count=mstd,
                        mdts_count=mdts, balanced_count=bal,
                        witnesses=tuple(IntegerSet(k[-1]) for k in keys), **extra)


# ---------------------------------------------------------------------------
# exhaustive enumeration by diameter
# ---------------------------------------------------------------------------

def _enum_chunk(task: tuple[int, int, int]) -> tuple[int, int, int, int, list[tuple]]:
    """Classify interior masks [lo, hi) at diameter d."""
    d, lo, hi = task
    counts = np.zeros(3, dtype=np.int64)  # MDTS, balanced, MSTD
    witnesses: list[tuple] = []
    endpoints = np.uint64(1 | (1 << d) if d >= 1 else 1)
    for start in range(lo, hi, _BATCH):
        bits = np.arange(start, min(start + _BATCH, hi), dtype=np.uint64)
        np.left_shift(bits, np.uint64(1), out=bits)
        np.bitwise_or(bits, endpoints, out=bits)
        signs = _classify(bits, d + 1)
        counts += np.bincount(signs + 1, minlength=3)
        hits = bits[signs > 0]
        if hits.size:
            # witnesses order by cardinality first: only the smallest can enter
            cards = np.bitwise_count(hits)
            k = min(_WITNESS_CAP, hits.size) - 1
            cut = np.partition(cards, k)[k]
            for b in hits[cards <= cut].tolist():
                elements = _elements(b)
                witnesses.append((d, len(elements), elements))
    mdts, bal, mstd = (int(c) for c in counts)
    return hi - lo, mstd, mdts, bal, sorted(witnesses)[:_WITNESS_CAP]


def exhaustive_by_diameter(d_max: int, workers: int = 1) -> SearchReport:
    """Classify every subset of [0, d] containing 0 and d, for all d <= d_max.

    Witnesses are the MSTD sets smallest by (diameter, cardinality,
    elements); none exist below diameter 14.
    """
    if d_max < 0:
        raise InvalidParameterError("exhaustive_by_diameter: d_max must be >= 0")
    if d_max > 26:
        raise ResourceLimitError("exhaustive_by_diameter: d_max capped at 26")
    tasks: list[tuple[int, int, int]] = []
    for d in range(d_max + 1):
        interior = 1 << max(d - 1, 0)
        for lo in range(0, interior, _ENUM_CHUNK):
            tasks.append((d, lo, min(lo + _ENUM_CHUNK, interior)))
    return _scan(_enum_chunk, tasks, workers,
                 f"subsets of [0,d] containing 0 and d, 0 <= d <= {d_max}")


# ---------------------------------------------------------------------------
# bounded-cardinality scan
# ---------------------------------------------------------------------------

def _card_chunk(task: tuple[int, int]) -> tuple[int, int, int, int, list[tuple]]:
    """Classify all sets {0, d} + (j interior elements)."""
    d, j = task
    counts = np.zeros(3, dtype=np.int64)  # MDTS, balanced, MSTD
    witnesses: list[tuple] = []
    endpoints = 1 | (1 << d) if d >= 1 else 1
    combos = combinations(range(1, d), j)
    while batch := list(islice(combos, _BATCH)):
        if d < _WORD_WIDTH:
            interior = np.fromiter(chain.from_iterable(batch), dtype=np.uint64,
                                   count=len(batch) * j).reshape(len(batch), j)
            np.left_shift(np.uint64(1), interior, out=interior)
            bits = np.bitwise_or.reduce(interior, axis=1, initial=np.uint64(endpoints))
        else:
            bits = [endpoints | sum(1 << c for c in combo) for combo in batch]
        signs = _classify(bits, d + 1)
        counts += np.bincount(signs + 1, minlength=3)
        # combinations come in lexicographic order and every set here has
        # the same size and diameter, so the first hits are the smallest
        for i in np.flatnonzero(signs > 0)[:_WITNESS_CAP - len(witnesses)].tolist():
            elements = (0, *batch[i], d) if d >= 1 else (0,)
            witnesses.append((len(elements), d, elements))
    mdts, bal, mstd = (int(c) for c in counts)
    return mdts + bal + mstd, mstd, mdts, bal, witnesses


def min_cardinality_scan(d_max: int, card_max: int, workers: int = 1) -> SearchReport:
    """Classify subsets of [0, d] with 0, d and at most card_max elements.

    Establishes whether any MSTD set with fewer than 8 elements exists in
    the scanned region (none do).
    """
    if d_max < 0 or card_max < 1:
        raise InvalidParameterError("min_cardinality_scan: d_max >= 0 and card_max >= 1")
    budget = sum(
        math.comb(max(d - 1, 0), j)
        for d in range(d_max + 1)
        for j in range(0, max(card_max - 2, 0) + 1)
        if j <= max(d - 1, 0) and (2 + j if d >= 1 else 1) <= card_max
    )
    if budget > 100_000_000:
        raise ResourceLimitError(f"min_cardinality_scan: {budget} sets exceeds budget")
    tasks = []
    for d in range(d_max + 1):
        if d == 0:
            if card_max >= 1:
                tasks.append((0, 0))
            continue
        if card_max < 2:
            continue
        for j in range(0, min(card_max - 2, d - 1) + 1):
            tasks.append((d, j))
    # largest first, so that no big task is left for one worker at the end
    tasks.sort(key=lambda t: math.comb(max(t[0] - 1, 0), t[1]), reverse=True)
    return _scan(_card_chunk, tasks, workers,
                 f"subsets of [0,d] containing 0 and d, 0 <= d <= {d_max}, "
                 f"cardinality <= {card_max}")


# ---------------------------------------------------------------------------
# seeded random sampling
# ---------------------------------------------------------------------------

def _sample_chunk(task: tuple[int, int, int, int]) -> tuple[int, int, int, int, list[tuple]]:
    """Classify one fixed-size block of random subsets of [1, n].

    The RNG is seeded from (seed, chunk index) alone, so the stream for a
    chunk never depends on which worker runs it. An empty draw has no
    sums and no differences, so it counts as balanced.
    """
    seed, chunk_index, count, n = task
    rng = np.random.default_rng([seed, chunk_index])
    rows = rng.integers(0, 2, size=(count, n), dtype=np.uint8)
    packed = np.packbits(rows, axis=1, bitorder="little")
    if n <= _WORD_WIDTH:
        words = np.zeros((count, 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        bits = words.view("<u8").ravel()
    else:
        bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
    signs = _classify(bits, n)  # count <= _SAMPLE_CHUNK == _BATCH
    mdts, bal, mstd = (int(c) for c in np.bincount(signs + 1, minlength=3))
    witnesses = [(chunk_index, row_index, _elements(int(bits[row_index]), 1))
                 for row_index in np.flatnonzero(signs > 0)[:_WITNESS_CAP].tolist()]
    return count, mstd, mdts, bal, witnesses


def sample_mstd_proportion(n: int, samples: int, seed: int,
                           workers: int = 1) -> SearchReport:
    """Estimate the MSTD fraction among uniform random subsets of [1, n].

    Each element is included independently with probability 1/2. Sampling
    is chunked with per-chunk derived seeds, so the report is bit-identical
    for any worker count. The 95% interval is a Wilson score interval.
    """
    if n < 1 or n > 10_000:
        raise InvalidParameterError("sample_mstd_proportion: need 1 <= n <= 10**4")
    if samples < 1:
        raise InvalidParameterError("sample_mstd_proportion: samples must be >= 1")
    if seed < 0:
        raise InvalidParameterError("sample_mstd_proportion: seed must be >= 0")
    tasks = []
    chunk_index = 0
    remaining = samples
    while remaining > 0:
        count = min(_SAMPLE_CHUNK, remaining)
        tasks.append((seed, chunk_index, count, n))
        chunk_index += 1
        remaining -= count
    report = _scan(_sample_chunk, tasks, workers,
                   f"uniform random subsets of [1,{n}], p=1/2 per element", seed=seed)
    return replace(report,
                   mstd_fraction=Fraction(report.mstd_count, report.total_examined),
                   ci95=wilson_interval(report.mstd_count, report.total_examined))


# ---------------------------------------------------------------------------
# seed discovery for the linear fill-in method
# ---------------------------------------------------------------------------

def find_fill2_seeds(n: int) -> list[tuple[IntegerSet, IntegerSet]]:
    """All (L, R) with L | R a valid linear fill-in seed for this n.

    Scans every A inside [1, 2n] with 1 and 2n present and n absent, and
    keeps those that are MSTD with hulls complete except within n of each
    extreme. Exhaustive over 2**(2n-3) candidates; capped at n <= 12.
    """
    if n < 1:
        raise InvalidParameterError("find_fill2_seeds: n must be >= 1")
    if n > 12:
        raise ResourceLimitError("find_fill2_seeds: n capped at 12")
    if n == 1:
        return []  # 1 and 2n = 2 forced in, n = 1 forced out: contradiction
    # bit i stands for the value i + 1
    free = [v for v in range(2, 2 * n) if v != n]
    forced = np.uint64(1 | (1 << (2 * n - 1)))
    span = 2 * n - 1
    sum_lo, sum_hi = (n + 2) - 2, 3 * n - 2          # values n+2 .. 3n
    diff_lo, diff_hi = span - (n - 1), span + (n - 1)  # values -(n-1) .. n-1
    sum_mask = np.uint64(((1 << (sum_hi - sum_lo + 1)) - 1) << sum_lo)
    diff_mask = np.uint64(((1 << (diff_hi - diff_lo + 1)) - 1) << diff_lo)
    found: list[tuple[IntegerSet, IntegerSet]] = []
    total = 1 << len(free)
    for start in range(0, total, _BATCH):
        masks = np.arange(start, min(start + _BATCH, total), dtype=np.uint64)
        bits = np.full_like(masks, forced)
        for k, v in enumerate(free):
            bits |= ((masks >> np.uint64(k)) & np.uint64(1)) << np.uint64(v - 1)
        s, d = _word_counts(bits, 2 * n)
        keep = ((np.bitwise_count(s) > np.bitwise_count(d))
                & ((s & sum_mask) == sum_mask) & ((d & diff_mask) == diff_mask))
        for b in bits[keep].tolist():
            elements = _elements(b, 1)
            found.append((
                IntegerSet(e for e in elements if e <= n),
                IntegerSet(e for e in elements if e > n),
            ))
    found.sort(key=lambda pair: (pair[0].to_list(), pair[1].to_list()))
    return found
