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

A set inside [0, 32) is one ``uint64`` word, and so are its sum and
difference words. The exhaustive, cardinality and seed scans build each
set from one with an element fewer, since (A | {x}) + (A | {x}) =
(A + A) | (A + x) | {2x}: ``_grow`` extends the words of a whole batch
by one position with a few in-place word operations. Random samples share
no such prefix, so sampling classifies each batch from scratch with
``_word_counts``. Only wider sets (sampling with n > 32, or a cardinality
scan past diameter 31) take the per-set big-integer loop ``_mask_counts``.
Pooled scans share one process pool, started on first use, replaced when
the worker count changes or a scan fails, and kept until the interpreter
exits.
"""

from __future__ import annotations

import atexit
import math
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, islice
from multiprocessing import Pool
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InvalidParameterError, ResourceLimitError
from .intset import IntegerSet, SetProfile

# interior masks per exhaustive task: several kernel batches, so that a
# task's work outweighs handing it to a worker
_ENUM_CHUNK = 1 << 17
_SAMPLE_CHUNK = 1 << 12
_WITNESS_CAP = 8
_ORACLE_CARD_CAP = 10_000
_CARD_BUDGET = 100_000_000  # most sets one cardinality scan classifies
# most sets one kernel call holds; its five working words take 640 KiB
_BATCH = 1 << 14
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
    the word kernels; tests use it as the referee for ``_word_counts``
    and ``_grow``.
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
    """Sum and difference words of a batch of unrelated sets inside [0, width).

    Bit i of ``bits[k]`` stands for element i of set k. In the results,
    bit i of the sum word stands for the sum i, and bit i of the
    difference word for the difference i - (width - 1). Their popcounts
    are |A+A| and |A-A|. With width <= 32 every word fits in 63 bits.
    Sampling uses it; the enumerating scans use ``_grow``.
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


def _subsets_up_to(m: int, limit: int) -> int:
    """How many subsets of an m-element set have at most ``limit`` elements."""
    return sum(math.comb(m, i) for i in range(limit + 1))


def _grow(base: int, positions: Sequence[int], max_size: Optional[int] = None
          ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Words of every set ``base | T``, T a subset of ``positions``, in batches.

    Yields (bits, sums, pdiffs) batches of at most ``_BATCH`` sets, and only
    sets with |T| <= ``max_size`` when it is given. Across the batches, set
    i is the binary counter i over ``positions`` (bit k of i stands for
    ``positions[k]``), in increasing i. Bit i of a sum word stands for the
    sum i and bit i of a ``pdiffs`` word for the difference i >= 0, so
    |A+A| is the popcount of ``sums`` and |A-A| is twice that of ``pdiffs``
    minus one. Elements lie in [0, 32) and no position is in ``base``.
    Every batch is a view of one buffer, overwritten by the next batch.
    """
    batches = list(_split(base, positions, max_size))
    most = max((_subsets_up_to(len(p), j) for _, p, j in batches), default=0)
    words = np.empty((4, most), dtype=np.uint64)
    for batch in batches:
        yield _grow_batch(*batch, words)


def _split(base: int, positions: Sequence[int], max_size: Optional[int]
           ) -> Iterator[tuple[int, Sequence[int], int]]:
    """(base, positions, limit) requests of at most ``_BATCH`` sets, in counter order.

    A larger request splits on its top position: the sets without it come
    first, then those with it.
    """
    m = len(positions)
    limit = m if max_size is None else min(max_size, m)
    if limit < 0:
        return
    if _subsets_up_to(m, limit) <= _BATCH:
        yield base, positions, limit
        return
    yield from _split(base, positions[:-1], max_size)
    yield from _split(base | 1 << positions[-1], positions[:-1],
                      None if max_size is None else max_size - 1)


def _grow_batch(base: int, positions: Sequence[int], limit: int, words: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One ``_grow`` batch: the sets base | T with |T| <= limit, level by level.

    Level k appends, for each set so far with room to grow, the set with
    x = ``positions[k]`` added. From (A | {x}) + (A | {x}) = (A + A) | (A + x)
    | {2x}, its words cost eight word operations in five ufunc calls: the
    rows of ``words`` hold each set's bits, its bits reversed (so that the
    differences x - a come from one shift), its sums and its nonnegative
    differences, and pairs of rows are updated together.
    """
    m = len(positions)
    total = _subsets_up_to(m, limit)
    w = words[:, :total]
    # |T| per set, kept only when some sets stop growing
    size = np.zeros(total, dtype=np.uint8) if limit < m else None
    elements = _elements(base)
    w[:, 0] = (base, sum(1 << (_WORD_WIDTH - 1 - a) for a in elements),
               reduce(or_, (base << a for a in elements), 0),
               reduce(or_, (base >> a for a in elements), 0))
    # per level, the column (x, 31 - x) and the matching bits
    shifts = np.array([positions, [_WORD_WIDTH - 1 - x for x in positions]], dtype=np.uint64)
    marks = np.left_shift(np.uint64(1), shifts)
    n = 1
    for level in range(m):
        src = slice(0, n) if level < limit else np.flatnonzero(size[:n] < limit)
        new = slice(n, n + (n if level < limit else src.size))
        shift = shifts[:, level:level + 1]
        np.bitwise_or(w[:2, src], marks[:, level:level + 1], out=w[:2, new])
        # scratch: sums row <- a - x for a >= x, differences row <- x - a for a <= x
        np.right_shift(w[:2, new], shift, out=w[2:, new])
        np.bitwise_or(w[3, new], w[2, new], out=w[3, new])
        np.left_shift(w[0, new], shift[0], out=w[2, new])  # a + x
        np.bitwise_or(w[2:, src], w[2:, new], out=w[2:, new])
        if size is not None:
            np.add(size[src], 1, out=size[new])
        n = new.stop
    return w[0], w[2], w[3]


def _grow_tally(sums: np.ndarray, pdiffs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The MSTD mask of a ``_grow`` batch, with its MSTD and MDTS counts."""
    sums_1 = np.bitwise_count(sums)
    sums_1 += 1  # |A+A| + 1
    diffs_1 = np.bitwise_count(pdiffs)
    diffs_1 <<= 1  # |A-A| + 1
    hits = sums_1 > diffs_1
    return hits, int(np.count_nonzero(hits)), int(np.count_nonzero(sums_1 < diffs_1))


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


def _grown_chunk(batches: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 key) -> tuple[int, int, int, int, list[tuple]]:
    """(examined, mstd, mdts, balanced, witnesses) of a chunk's ``_grow`` batches.

    A witness is ``key(elements)``. Keys of one chunk order by cardinality
    first, so only the MSTD sets of the smallest cardinalities are turned
    into element tuples.
    """
    total = mstd = mdts = 0
    witnesses: list[tuple] = []
    for bits, sums, pdiffs in batches:
        hits, more, fewer = _grow_tally(sums, pdiffs)
        total += bits.size
        mstd += more
        mdts += fewer
        if more:
            found = bits[hits]
            cards = np.bitwise_count(found)
            k = min(_WITNESS_CAP, more) - 1
            cut = np.partition(cards, k)[k]
            witnesses += (key(_elements(b)) for b in found[cards <= cut].tolist())
            witnesses = sorted(witnesses)[:_WITNESS_CAP]
    return total, mstd, mdts, total - mstd - mdts, witnesses


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
    """Classify interior masks [lo, hi) at diameter d.

    hi - lo is a power of two and lo a multiple of it, so the chunk is the
    high interior bits of lo with every subset of the low log2(hi - lo).
    """
    d, lo, hi = task
    low = range(1, (hi - lo).bit_length())
    return _grown_chunk(_grow((lo << 1) | 1 | (1 << d), low), lambda e: (d, len(e), e))


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
    # largest diameters first, so that no big task is left for one worker at the end
    for d in range(d_max, -1, -1):
        interior = 1 << max(d - 1, 0)
        for lo in range(0, interior, _ENUM_CHUNK):
            tasks.append((d, lo, min(lo + _ENUM_CHUNK, interior)))
    return _scan(_enum_chunk, tasks, workers,
                 f"subsets of [0,d] containing 0 and d, 0 <= d <= {d_max}")


# ---------------------------------------------------------------------------
# bounded-cardinality scan
# ---------------------------------------------------------------------------

def _card_chunk(task: tuple[int, int]) -> tuple[int, int, int, int, list[tuple]]:
    """Classify all sets {0, d} + (at most j_max interior elements)."""
    d, j_max = task
    endpoints = 1 | (1 << d)
    if d < _WORD_WIDTH:
        return _grown_chunk(_grow(endpoints, range(1, d), j_max), lambda e: (len(e), d, e))
    total = mstd = mdts = 0
    witnesses: list[tuple] = []
    for j in range(j_max + 1):
        combos = combinations(range(1, d), j)
        while batch := list(islice(combos, _BATCH)):
            signs = _classify([endpoints | sum(1 << c for c in combo) for combo in batch], d + 1)
            total += len(batch)
            mstd += int(np.count_nonzero(signs > 0))
            mdts += int(np.count_nonzero(signs < 0))
            # sizes come in increasing order and each size's combinations in
            # lexicographic order, so the first hits are the smallest
            for i in np.flatnonzero(signs > 0)[:_WITNESS_CAP - len(witnesses)].tolist():
                witnesses.append((j + 2, d, (0, *batch[i], d)))
    return total, mstd, mdts, total - mstd - mdts, witnesses


def _card_tasks(d_max: int, card_max: int) -> Iterator[tuple[int, int]]:
    """One (d, j_max) task per diameter: {0, d} and up to j_max interior elements."""
    yield 0, 0
    if card_max >= 2:
        for d in range(1, d_max + 1):
            yield d, min(card_max - 2, d - 1)


def _card_task_size(task: tuple[int, int]) -> int:
    """How many sets a ``_card_chunk`` task classifies."""
    d, j_max = task
    return _subsets_up_to(max(d - 1, 0), j_max)


def min_cardinality_scan(d_max: int, card_max: int, workers: int = 1) -> SearchReport:
    """Classify subsets of [0, d] with 0, d and at most card_max elements.

    Establishes whether any MSTD set with fewer than 8 elements exists in
    the scanned region (none do).
    """
    if d_max < 0 or card_max < 1:
        raise InvalidParameterError("min_cardinality_scan: d_max >= 0 and card_max >= 1")
    # each diameter adds at least the set {0, d}, so a d_max past the budget
    # is refused at once; otherwise the running total stops once past it
    sizes = map(_card_task_size, _card_tasks(d_max, card_max))
    if (card_max >= 2 and d_max >= _CARD_BUDGET) or any(
            total > _CARD_BUDGET for total in accumulate(sizes)):
        raise ResourceLimitError(f"min_cardinality_scan: more than {_CARD_BUDGET} sets")
    # largest first, so that no big task is left for one worker at the end
    tasks = sorted(_card_tasks(d_max, card_max), key=_card_task_size, reverse=True)
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
    signs = _classify(bits, n)  # count <= _SAMPLE_CHUNK <= _BATCH
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
    free = [v - 1 for v in range(2, 2 * n) if v != n]
    sum_mask = np.uint64(((1 << (2 * n - 1)) - 1) << n)  # values n+2 .. 3n
    diff_mask = np.uint64((1 << n) - 1)                  # values 0 .. n-1
    found: list[tuple[IntegerSet, IntegerSet]] = []
    for bits, sums, pdiffs in _grow(1 | (1 << (2 * n - 1)), free):
        hits = np.flatnonzero(_grow_tally(sums, pdiffs)[0])
        sums, pdiffs = sums[hits], pdiffs[hits]
        keep = hits[((sums & sum_mask) == sum_mask) & ((pdiffs & diff_mask) == diff_mask)]
        for b in bits[keep].tolist():
            elements = _elements(b, 1)
            found.append((
                IntegerSet(e for e in elements if e <= n),
                IntegerSet(e for e in elements if e > n),
            ))
    found.sort(key=lambda pair: (pair[0].to_list(), pair[1].to_list()))
    return found
