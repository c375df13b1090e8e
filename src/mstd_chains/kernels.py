"""The numpy kernels: word-level classification of batches of sets.

The package's only numpy module; only the search drivers import it, before
they start a worker pool, so every other command runs without numpy.

A set inside [0, 32) is one ``uint64`` word, and so are its reversed
bits and its sum and difference words. The subset scans build each set
from one with an element fewer, since (A | {x}) + (A | {x}) =
(A + A) | ((A | {x}) + x): ``_add`` ORs x's bits into a set's rows and
shifts the new bits each way, and it is the only numpy code that adds a
position to a set. ``_grow`` takes the sets inside a request's first
positions from a table built once per process and cached, adds the base
elements to a copy of it, and then walks the other positions: each batch
is the batch it came from with one position added. Every table grows by
size layers, each set from its parent in the layer before by the same
step, so the sets within a smaller limit are a prefix of it. A table of
every subset of its positions (the exhaustive scan and seed discovery)
holds half of ``_BATCH``. A bounded walk's batches shrink as it adds
positions, so its table takes as many positions as ``_BATCH`` holds and
leaves the walk few of them.

``_subset_chunk`` is the one worker of both subset scans and of seed
discovery: a task is the sets that add at most a given number of free
positions to fixed tops. The kernel is picked per set: ``_grow`` takes
every set inside the word width, and each set with an element past it,
which only cardinality scans reach, is counted alone by ``_set_words``.
A task returns every MSTD set it finds as bits, and only ``search``
orders them to pick witnesses or test their hulls.

Random samples share no prefix, so sampling classifies them from
scratch, bit-sliced: for each position a, bit k of a ``uint64`` word
says whether sample k holds a, so one word operation serves 64 samples
and no word width limits n (``_pair_counts``). A sampling task draws
several chunks, each from its own stream, into one array of slices and
counts them together, so the pair loop runs once per task, not per chunk.
``search._scan`` folds the workers' results into a report.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .search import _SAMPLE_CHUNK, _WITNESS_CAP, _subsets_up_to

# most sets one batch holds; a table of that many sets takes 1 MiB. A
# bounded walk's batches shrink with its depth, so its table takes the whole
# cap (min_cardinality_scan(31, 7) makes 504 batches, 2,842 at half of it);
# an unbounded walk's batches stay full, and its table holds half the cap:
# at the whole cap exhaustive_by_diameter(22) ran slower, 31 against 29 ms
# serial on a 2 vCPU host
_BATCH = 1 << 15
# widest set the kernel takes: its sum and difference words then need 63 bits
_WORD_WIDTH = 32
# bytes of one block that sampling transposes or unpacks at a time
_BLOCK_BYTES = 1 << 20


def _set_words(bits: int) -> tuple[int, int]:
    """The (sums, pdiffs) words of the set encoded by ``bits`` (bit i =
    element i), at any width: one shift of ``bits`` per element. The kernel
    of a set with an element past the word width."""
    sums = pdiffs = 0
    rest = bits
    while rest:
        low = rest & -rest
        a = low.bit_length() - 1
        sums |= bits << a
        pdiffs |= bits >> a
        rest ^= low
    return sums, pdiffs


def _grow(base: int, positions: Sequence[int], max_size: int
          ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Words of every set ``base | T``, T a subset of ``positions``, in batches.

    Yields (bits, sums, pdiffs) batches of at most ``_BATCH`` sets, only
    sets with |T| <= ``max_size``. Bit i of a sum word stands for the sum i
    and bit i of a ``pdiffs`` word for the difference i >= 0, so |A+A| is
    the popcount of ``sums`` and |A-A| is twice that of ``pdiffs`` minus
    one. Elements lie in [0, 32) and no position is in ``base``.

    The sets T inside the first k positions come from a cached ``_table``,
    and the base elements are added to a copy of it once per call. A walk
    over the other positions, in ``_split``'s order, then makes the batch
    of each set U of them from the batch of U without its lowest position
    (``_add``); a batch holds the table's four rows, and the yielded bits,
    sums and pdiffs are three of them. When the limit leaves no position
    out, k is at most log2 ``_BATCH`` - 1; otherwise it is the most
    positions whose subsets within the limit fit ``_BATCH``.
    U's batch holds the T with |T| <= max_size - |U|, by |T| and then in
    colex order, and a request of one batch is its table and an empty walk.
    Every batch is a view of buffers the call owns, overwritten by a later
    batch and read by the batches walked from it, so do not write into one.
    """
    if max_size < 0:
        return
    m = len(positions)
    if max_size >= m:
        k = min(m, _BATCH.bit_length() - 2)
    else:
        k = m
        while _subsets_up_to(k, min(max_size, k)) > _BATCH:
            k -= 1
    table = _table(tuple(positions[:k]), min(max_size, k))
    walked = positions[k:]
    depth = min(max_size, len(walked))
    # the batch at depth j holds the sets of the table with |T| <= max_size - j
    sizes = [_subsets_up_to(k, min(max_size - j, k)) for j in range(depth + 1)]
    # a level holds a batch while the walk grows others from it; the last
    # batch grown from it, which adds the position just below its lowest,
    # overwrites it, so level l only ever holds batches of depth l or more
    held = sizes[:1 + min(depth, len(walked) // 2)]
    buffer = np.empty(4 * sum(held) + sizes[0], dtype=np.uint64)
    levels = []
    for size in held:
        levels.append(buffer[:4 * size].reshape(4, size))
        buffer = buffer[4 * size:]
    np.copyto(levels[0], table)
    for b in _elements(base):
        _add(levels[0], levels[0], b, buffer)
    yield levels[0][0], levels[0][2], levels[0][3]
    at = [0] * (depth + 1)  # the level of the batch at each depth
    for u in _peel(0, range(len(walked)), 0, len(walked), depth):
        i = (u & -u).bit_length() - 1  # the position that u's parent lacks
        j = u.bit_count()
        # the parent's level if u's next position up is the parent's lowest
        at[j] = at[j - 1] + (not (u | 1 << len(walked)) >> (i + 1) & 1)
        out = levels[at[j]][:, :sizes[j]]
        _add(levels[at[j - 1]], out, walked[i], buffer)
        yield out[0], out[2], out[3]


@lru_cache(maxsize=4)
def _table(positions: tuple[int, ...], limit: int) -> np.ndarray:
    """The (bits, reversed bits, sums, pdiffs) rows of the sets T inside
    ``positions`` with |T| <= limit, read-only: the table a walk grows its
    batches from.

    They come by |T| and then in colex order, so those with |T| <= r are
    the first ``_subsets_up_to(len(positions), r)``. Layer j lists the
    j-subsets in colex order, so those inside the first k positions are
    its first C(k, j), and layer j + 1 is, for k from j on, each of those
    with position k added by the walk's own step, ``_add``, which gives
    each {x} its words from the empty set's zeros.
    """
    m = len(positions)
    words = np.empty((4, _subsets_up_to(m, limit)), dtype=np.uint64)
    words[:, 0] = 0  # the empty set
    scratch = np.empty(words.shape[1], dtype=np.uint64)
    start, stop = 0, 1  # the columns of layer j
    for j in range(limit):
        end = stop
        for k in range(j, m):
            parent = words[:, start:start + math.comb(k, j)]
            _add(parent, words[:, end:end + parent.shape[1]], positions[k], scratch)
            end += parent.shape[1]
        start, stop = stop, end
    words.flags.writeable = False
    return words


def _add(parent: np.ndarray, out: np.ndarray, x: int, scratch: np.ndarray) -> None:
    """The (bits, reversed bits, sums, pdiffs) rows of each set of ``parent``
    with x added, into ``out``, which may be ``parent``: the one step that
    adds a position, in table layers, base elements and walks alike.

    The reversed bits hold bit 31 - a for each element a, so that the
    differences x - a come from one shift. x's bits go in first, then from
    (S | {x}) + (S | {x}) = (S + S) | ((S | {x}) + x) the new bits shifted
    each way give x's pairs with every element, x among them.
    """
    n = out.shape[1]
    np.bitwise_or(parent[0, :n], 1 << x, out=out[0])
    np.bitwise_or(parent[1, :n], 1 << (_WORD_WIDTH - 1 - x), out=out[1])
    np.left_shift(out[0], x, out=scratch[:n])  # a + x
    np.bitwise_or(parent[2, :n], scratch[:n], out=out[2])
    np.right_shift(out[0], x, out=scratch[:n])  # a - x for a >= x
    np.bitwise_or(parent[3, :n], scratch[:n], out=out[3])
    np.right_shift(out[1], _WORD_WIDTH - 1 - x, out=scratch[:n])  # x - a for a <= x
    np.bitwise_or(out[3], scratch[:n], out=out[3])


def _grow_tally(sums: np.ndarray, pdiffs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The MSTD mask of a ``_grow`` batch, with its MSTD and MDTS counts.

    |A+A| - |A-A| - 1 is popcount(sums) - 2 popcount(pdiffs), kept modulo
    256 in ``uint8``: as popcount(sums) <= 63 and popcount(pdiffs) <= 32,
    it is below 64 exactly for MSTD sets and 255 exactly for balanced ones.
    """
    surplus = np.bitwise_count(sums)
    twice = np.bitwise_count(pdiffs)
    twice += twice
    surplus -= twice
    hits = surplus < 64
    mstd = int(np.count_nonzero(hits))
    return hits, mstd, surplus.size - mstd - int(np.count_nonzero(surplus == 255))


def _elements(bits: int) -> tuple[int, ...]:
    """The set encoded by ``bits`` (bit i = element i)."""
    return tuple(i for i in range(bits.bit_length()) if (bits >> i) & 1)


def _peel(bits: int, positions: Sequence[int], start: int, end: int, limit: int) -> Iterator[int]:
    """Each bits | {positions[k]} | T, start <= k < end and T a subset of
    positions[:k] with |T| < ``limit``, read by index: at most ``limit`` deep."""
    for k in range(start, end if limit else start):
        yield (top := bits | 1 << positions[k])
        if limit > 1:  # an empty generator per leaf would double the peel's cost
            yield from _peel(top, positions, 0, k, limit - 1)


def _subset_chunk(task: tuple[tuple[int, ...], Sequence[int], int, int]
                  ) -> tuple[int, int, int, int, list[int]]:
    """Classify every set tops | T, T a subset of ``positions`` with |T| <= limit.

    The task is one of ``search._split``'s requests. It returns its counts
    and every MSTD set it finds, as bits (bit i = element i). If the tops
    lie below the word width, one ``_grow`` call takes the positions below
    it; every other set has an element past it, reached by ``_peel``, and
    is counted alone.
    """
    tops, positions, limit, _ = task
    base = sum(1 << t for t in tops)
    wide = [base] if base >> _WORD_WIDTH else []  # a wide top: every set is counted alone
    narrow = 0 if wide else bisect_left(positions, _WORD_WIDTH)
    total = mstd = mdts = 0
    found: list[int] = []
    for bits, sums, pdiffs in [] if wide else _grow(base, positions[:narrow], limit):
        hits, more, fewer = _grow_tally(sums, pdiffs)
        total += bits.size
        mstd += more
        mdts += fewer
        if more:
            found += bits[hits].tolist()
    for bits in chain(wide, _peel(base, positions, narrow, len(positions), limit)):
        sums, pdiffs = _set_words(bits)
        s, f = sums.bit_count(), 2 * pdiffs.bit_count() - 1
        total += 1
        if s > f:
            mstd += 1
            found.append(bits)
        elif s < f:
            mdts += 1
    return total, mstd, mdts, total - mstd - mdts, found


def _bit_slices(rows: np.ndarray, out: np.ndarray) -> None:
    """Pack the (count, n) 0/1 ``uint8`` membership ``rows`` into the first
    ceil(count / 8) bytes of each row of ``out``, (n, ...) ``uint8``: bit k of
    byte j in row a is ``rows[8 j + k, a]``.

    Viewed as ``uint64``, row a holds a's membership in 64 samples a word.
    """
    count, n = rows.shape
    step = max(1, _BLOCK_BYTES // count)
    for a in range(0, n, step):
        # packing along the strided axis is several times slower than copying first
        out[a:a + step, :-(-count // 8)] = np.packbits(
            np.ascontiguousarray(rows[:, a:a + step].T), axis=1, bitorder="little")


def _column_counts(words: np.ndarray, count: int) -> np.ndarray:
    """For each sample k < ``count``, how many rows of ``words`` have bit k set."""
    rows = len(words)
    total = np.zeros(64 * words.shape[1], dtype=np.uint8 if rows <= 255 else np.uint16)
    octets = words.view(np.uint8)
    step = max(1, _BLOCK_BYTES // total.size)
    for r in range(0, rows, step):
        total += np.add.reduce(np.unpackbits(octets[r:r + step], axis=1, bitorder="little"),
                               axis=0, dtype=total.dtype)
    return total[:count]


def _pair_counts(x: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(|A+A|, |A-A|) of the first ``count`` sets bit-sliced in ``x``.

    Row a of the (n, words) ``uint64`` array holds bit k of word j if set
    64 j + k holds position a; bits past the sets stand for empty sets. The
    sums a + b and the differences b - a >= 0 of 64 sets at a time take
    three word operations per pair of positions a <= b, in 3n numpy calls.
    A set's differences are symmetric around 0, which every nonempty set
    has, so |A-A| is twice the nonnegative ones minus that one; an empty
    set has no sums and no differences.
    """
    n = len(x)
    sums = np.zeros((2 * n - 1, x.shape[1]), dtype=np.uint64)
    pdiffs = np.zeros_like(x)
    both = np.empty_like(x)
    for a in range(n):
        pairs = both[:n - a]
        np.bitwise_and(x[a:], x[a], out=pairs)  # the sets holding a and b, for each b >= a
        sums[2 * a:a + n] |= pairs
        pdiffs[:n - a] |= pairs
    nonempty = np.unpackbits(pdiffs[0].view(np.uint8), bitorder="little")[:count]
    diffs = _column_counts(pdiffs, count).astype(np.int16)  # n <= 10**4: no overflow
    diffs += diffs
    diffs -= nonempty
    return _column_counts(sums, count).astype(np.int16), diffs


def _sample_rows(seed: int, chunk_index: int, count: int, n: int) -> np.ndarray:
    """A chunk's draw: row k is sample k, and its byte a - 1 is 1 if a is in it.

    The RNG is seeded from (seed, chunk index) alone, so the stream for a
    chunk never depends on which worker or task runs it. The rows are those
    of ``integers(0, 2, size=(count, n), dtype=np.uint8)``, which keeps the
    top bit of each byte of the generator's stream, read from the raw
    stream without a bounded-integer draw per byte.
    """
    rng = np.random.default_rng([seed, chunk_index])
    raw = rng.bit_generator.random_raw(-(-count * n // 8)).astype("<u8", copy=False)
    rows = raw.view(np.uint8)[:count * n].reshape(count, n)
    rows >>= 7
    return rows


def _sample_chunk(task: tuple[int, int, int, int]) -> tuple[int, int, int, int, list[tuple]]:
    """Classify ``count`` random subsets of [1, n]: the chunks from
    ``first_chunk`` on, each of ``_SAMPLE_CHUNK`` samples but the last.

    Each chunk is drawn from its own stream (``_sample_rows``) and
    bit-sliced into its own columns of one task-wide array, whose pairs are
    then counted in one pass (``_pair_counts``), so the pair loop and the
    counts run once per task, not once per chunk. Sample k of the task is row
    k mod ``_SAMPLE_CHUNK`` of chunk ``first_chunk`` + k div ``_SAMPLE_CHUNK``,
    and a witness is (chunk index, row index, elements): the task's first
    ``_WITNESS_CAP`` MSTD samples, read back from the bit slices. A task
    holds one chunk's draw, its bits five times over (the slices, the pairs
    of one position, the sum and difference words: 5/8 count n bytes), an
    unpacking block of at most about ``_BLOCK_BYTES`` and a few bytes per
    sample.
    """
    seed, first_chunk, count, n = task
    x = np.zeros((n, 8 * -(-count // 64)), dtype=np.uint8)
    for start in range(0, count, _SAMPLE_CHUNK):
        rows = _sample_rows(seed, first_chunk + start // _SAMPLE_CHUNK,
                            min(_SAMPLE_CHUNK, count - start), n)
        _bit_slices(rows, x[:, start // 8:])
    words = x.view(np.uint64)
    sums, diffs = _pair_counts(words, count)
    hits = sums > diffs
    mstd, mdts = int(np.count_nonzero(hits)), int(np.count_nonzero(sums < diffs))
    witnesses = [(first_chunk + k // _SAMPLE_CHUNK, k % _SAMPLE_CHUNK,
                  tuple((np.flatnonzero(words[:, k // 64] >> k % 64 & 1) + 1).tolist()))
                 for k in np.flatnonzero(hits)[:_WITNESS_CAP].tolist()]
    return count, mstd, mdts, count - mstd - mdts, witnesses
