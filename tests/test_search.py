import gc
import json
import math
import os
import time
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

from mstd_chains import (Classification, IntegerSet, InvalidParameterError,
                         ResourceLimitError, exhaustive_by_diameter,
                         fill2_chain, find_fill2_seeds, min_cardinality_scan,
                         oracle_profile, profile, sample_mstd_proportion,
                         kernels, search, wilson_interval)
from mstd_chains.kernels import (_BATCH, _bit_slices, _grow, _pair_counts, _sample_chunk,
                                 _sample_rows, _set_words, _subset_chunk)
from mstd_chains.cli import cli_main

from .conftest import CONWAY, FILL2_L, FILL2_R, REPO, run_python


# ---------------------------------------------------------------------------
# the independent oracle
# ---------------------------------------------------------------------------

def test_oracle_reference_values(conway):
    p = oracle_profile(conway)
    assert (p.sum_count, p.diff_count) == (26, 25)
    assert p.classification == Classification.MSTD
    q = oracle_profile([1, 2, 3])
    assert (q.sum_count, q.diff_count) == (5, 5)
    assert q.classification == Classification.BALANCED


def test_oracle_rejects_empty_and_oversized():
    with pytest.raises(InvalidParameterError):
        oracle_profile([])
    with pytest.raises(ResourceLimitError):
        oracle_profile(range(10_001))
    # elements are integers: a float is never truncated, a bool never read as 0/1
    for elements in ([1.5, 2], [True, 3], [0, False], ["1", 2], [1, None]):
        with pytest.raises(InvalidParameterError, match="is not an integer"):
            oracle_profile(elements)
    assert oracle_profile(np.array([0, 2, 3])) == oracle_profile([0, 2, 3])


def test_oracle_agrees_with_fast_path():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        size = int(rng.integers(1, 64))
        a = IntegerSet(rng.integers(-500, 501, size=size).tolist())
        assert oracle_profile(a) == profile(a)


# ---------------------------------------------------------------------------
# exhaustive enumeration by diameter
# ---------------------------------------------------------------------------

def test_exhaustive_tiny_counts():
    report = exhaustive_by_diameter(3)
    assert report.total_examined == 8
    assert (report.mstd_count, report.mdts_count, report.balanced_count) == (0, 2, 6)
    assert report.witnesses == ()


def test_exhaustive_below_threshold_has_no_mstd():
    report = exhaustive_by_diameter(13)
    assert report.mstd_count == 0
    assert report.total_examined == 2 ** 13
    # frozen from this enumeration; any drift means a classifier change
    assert (report.mdts_count, report.balanced_count) == (7124, 1068)


def test_exhaustive_counts_match_oracle_recount():
    from itertools import combinations

    mstd = mdts = balanced = 0
    for d in range(11):
        interiors = ([()] if d <= 1 else
                     (c for j in range(d) for c in combinations(range(1, d), j)))
        for combo in interiors:
            p = oracle_profile({0, d, *combo})
            if p.classification == Classification.MSTD:
                mstd += 1
            elif p.classification == Classification.MDTS:
                mdts += 1
            else:
                balanced += 1
    report = exhaustive_by_diameter(10)
    assert (report.mstd_count, report.mdts_count, report.balanced_count) == \
        (mstd, mdts, balanced)


def test_exhaustive_finds_minimal_mstd_first():
    report = exhaustive_by_diameter(14)
    assert report.mstd_count > 0
    assert report.witnesses[0] == IntegerSet(CONWAY)
    # every witness really is MSTD, and counts partition the domain
    for w in report.witnesses:
        assert oracle_profile(w).classification == Classification.MSTD
    assert (report.mstd_count + report.mdts_count + report.balanced_count
            == report.total_examined)


def _pool_starts(monkeypatch):
    """Two CPUs, and the worker counts ``_shared_pool`` is asked for, in order."""
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    seen = []
    start_pool = search._shared_pool

    def recording(workers):
        seen.append(workers)
        return start_pool(workers)

    monkeypatch.setattr(search, "_shared_pool", recording)
    return seen


def test_exhaustive_worker_invariance(monkeypatch):
    # two tasks of 2**17 sets, so workers=2 runs them in the pool
    serial = exhaustive_by_diameter(18)
    seen = _pool_starts(monkeypatch)
    parallel = exhaustive_by_diameter(18, workers=2)
    assert seen == [2]
    assert json.dumps(serial.to_json(), sort_keys=True) == \
        json.dumps(parallel.to_json(), sort_keys=True)


def test_exhaustive_caps():
    with pytest.raises(ResourceLimitError):
        exhaustive_by_diameter(27)
    with pytest.raises(InvalidParameterError):
        exhaustive_by_diameter(-1)


def test_exhaustive_budget_admits_exactly_two_to_the_d_max(monkeypatch):
    # the exhaustive scan classifies 2**d_max sets, under the shared set budget
    monkeypatch.setattr(search, "_scan", lambda worker, tasks, *args: tasks)
    for budget in (1, 5, 37, 1000, 1 << 20):
        monkeypatch.setattr(search, "_SET_BUDGET", budget)
        for d_max in range(30):
            if 2**d_max > budget:
                with pytest.raises(ResourceLimitError, match="more than"):
                    exhaustive_by_diameter(d_max)
            else:
                assert sum(task[3] for task in exhaustive_by_diameter(d_max)) == 2**d_max
    # its tasks are the 2**17-set ranges of the counter over [1, 21], in
    # counter order, and no task leaves a size out
    monkeypatch.setattr(search, "_SET_BUDGET", 1 << 21)
    expected = [_chunk_task(lo, lo + search._TASK_SETS)
                for lo in range(0, 1 << 21, search._TASK_SETS)]
    assert exhaustive_by_diameter(21) == expected


def test_exhaustive_scan_is_the_unbounded_cardinality_scan():
    for d_max in range(17):
        full = exhaustive_by_diameter(d_max)
        card = min_cardinality_scan(d_max, d_max + 1)
        assert (full.total_examined, full.mstd_count, full.mdts_count, full.balanced_count) == \
            (card.total_examined, card.mstd_count, card.mdts_count, card.balanced_count)
        assert set(full.witnesses) == set(card.witnesses)


# ---------------------------------------------------------------------------
# bounded-cardinality scan
# ---------------------------------------------------------------------------

def test_card_scan_three_element_sets_never_mstd():
    report = min_cardinality_scan(5, 3)
    assert report.mstd_count == 0
    # {0}, {0,d} for 5 diameters, and C(d-1,1) interior choices
    assert report.total_examined == 1 + 5 + sum(d - 1 for d in range(1, 6))


def test_card_scan_finds_conway_at_eight():
    report = min_cardinality_scan(14, 8)
    assert report.mstd_count > 0
    assert report.witnesses[0] == IntegerSet(CONWAY)
    # witnesses come by size first: Conway's set dilated by 2 (d = 28) comes
    # before the 9-element sets of diameter 14, unlike in the exhaustive order
    report = min_cardinality_scan(28, 9)
    assert [len(w) for w in report.witnesses] == [8] * 4 + [9] * 4
    assert report.witnesses[2] == IntegerSet(2 * x for x in CONWAY)


def test_card_scan_region_without_witnesses():
    report = min_cardinality_scan(16, 7)
    assert report.mstd_count == 0


def test_card_scan_budget():
    with pytest.raises(ResourceLimitError):
        min_cardinality_scan(30, 30)


def test_card_scan_past_the_word_width_is_linear_in_diameter(monkeypatch):
    # with card_max = 2 every diameter holds one set, {0, d}; the scan used
    # to copy range(1, d) for its single empty combination, quadratic in d
    start = time.perf_counter()
    report = min_cardinality_scan(2 * 10**4, 2)
    assert time.perf_counter() - start < 2.5
    assert (report.total_examined, report.balanced_count) == (2 * 10**4 + 1, 2 * 10**4 + 1)
    # its sets are one task, which holds no d-bit integer (25 MB here)
    import tracemalloc

    monkeypatch.setattr(search, "_scan", lambda worker, tasks, *args: tasks)
    tracemalloc.start()
    try:
        tasks = min_cardinality_scan(2 * 10**4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [task[3] for task in tasks] == [2 * 10**4 + 1]
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("d_max, card_max", [(10**6, 3), (2 * 10**8, 2), (10**7, 10**9)])
def test_card_scan_far_over_budget_is_refused_at_once(d_max, card_max):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        min_cardinality_scan(d_max, card_max)
    assert time.perf_counter() - start < 0.2


def test_card_scan_budget_equals_the_summed_task_sizes(monkeypatch):
    # the closed-form count refuses exactly what the per-diameter sets add up to:
    # {0}, then {0, d} with at most card_max - 2 interior elements for each d
    monkeypatch.setattr(search, "_scan", lambda worker, tasks, *args: tasks)
    for budget in (1, 5, 37, 1000):
        monkeypatch.setattr(search, "_SET_BUDGET", budget)
        for d_max in range(40):
            for card_max in range(1, 9):
                sets = 1 + sum(search._subsets_up_to(d - 1, card_max - 2)
                               for d in range(1, d_max + 1))
                if sets > budget:
                    with pytest.raises(ResourceLimitError):
                        min_cardinality_scan(d_max, card_max)
                else:
                    tasks = min_cardinality_scan(d_max, card_max)
                    assert sum(task[3] for task in tasks) == sets
    monkeypatch.undo()
    # a card_max far above d_max counts every subset
    assert min_cardinality_scan(6, 10**9).total_examined == 2**6


def test_card_scan_worker_invariance(monkeypatch):
    # three tasks, the first holding every set inside the word width
    serial = min_cardinality_scan(24, 7)
    seen = _pool_starts(monkeypatch)
    parallel = min_cardinality_scan(24, 7, workers=2)
    assert seen == [2]
    assert serial.to_json() == parallel.to_json()


def test_split_scan_tasks_give_the_same_reports(monkeypatch):
    # 32-set tasks split every scan, past the word width too, where the split
    # fixes top positions of a per-set task; the exhaustive scan's tasks mix
    # diameters and must still give its by-diameter witnesses
    requests = [(min_cardinality_scan, 20, 5), (min_cardinality_scan, 33, 3),
                (exhaustive_by_diameter, 16)]
    expected = [scan(*args).to_json() for scan, *args in requests]
    monkeypatch.setattr(search, "_TASK_SETS", 1 << 5)
    for workers in (1, 2):
        assert [scan(*args, workers=workers).to_json()
                for scan, *args in requests] == expected


def test_scan_task_shapes(monkeypatch):
    monkeypatch.setattr(search, "_scan", lambda worker, tasks, *args: tasks)
    assert [task[3] for task in exhaustive_by_diameter(19)] == [1 << 17] * 4
    counts = [task[3] for task in min_cardinality_scan(24, 7)]
    assert len(counts) == 3 and sum(counts) == 190_051
    assert [task[3] for task in min_cardinality_scan(2 * 10**4, 2)] == [2 * 10**4 + 1]
    assert [task[3] for task in min_cardinality_scan(10**5, 2)] == [10**5 + 1]
    monkeypatch.undo()

    # a scan of one task runs serially: no pool starts
    def no_pool(workers):
        raise AssertionError("a one-task scan started a pool")

    monkeypatch.setattr(search, "_shared_pool", no_pool)
    report = min_cardinality_scan(2 * 10**4, 2, workers=2)
    assert (report.total_examined, report.balanced_count) == (2 * 10**4 + 1, 2 * 10**4 + 1)


def test_split_peels_top_positions_without_deep_recursion():
    # one single-set request per peeled position: recursing on each would go
    # 9,000 levels deep
    start = time.perf_counter()
    requests = list(search._split((0,), range(1, 10**4 + 1), 1, 1 << 10))
    assert time.perf_counter() - start < 1.0
    assert len(requests) == 8978
    assert requests[0] == ((0,), range(1, 1024), 1, 1024)
    assert requests[1:] == [((0, p), range(1, p), 0, 1) for p in range(1024, 10**4 + 1)]


@pytest.mark.parametrize("d_max", [99_999_999, 2 * 10**5, 1 << 17])
def test_card_scan_window_is_bounded(d_max):
    # past 2**17 positions a card_max = 2 scan would peel a task per position
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="d_max must be below 131072"):
        min_cardinality_scan(d_max, 2)
    assert time.perf_counter() - start < 0.2


def test_largest_card_three_scan_builds_a_small_task_list(monkeypatch):
    import tracemalloc

    monkeypatch.setattr(search, "_scan", lambda worker, tasks, *args: tasks)
    with pytest.raises(ResourceLimitError, match="more than"):
        min_cardinality_scan(14142, 3)
    tracemalloc.start()
    try:
        tasks = min_cardinality_scan(14141, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(task[3] for task in tasks) == 1 + 14141 + 14141 * 14140 // 2
    assert peak < 8 << 20, peak


@pytest.mark.parametrize("call, message", [
    (lambda: min_cardinality_scan(10, 0), r"min_cardinality_scan: d_max >= 0 and card_max >= 1"),
    (lambda: min_cardinality_scan(-1, 3), r"min_cardinality_scan: d_max >= 0 and card_max >= 1"),
    (lambda: find_fill2_seeds(0), "find_fill2_seeds: n must be >= 1"),
], ids=["card-max", "card-d-max", "seeds-n"])
def test_search_refusals_name_their_clause(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        call()


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def test_sampling_is_deterministic():
    a = sample_mstd_proportion(30, 5000, seed=42)
    b = sample_mstd_proportion(30, 5000, seed=42)
    c = sample_mstd_proportion(30, 5000, seed=42, workers=2)
    assert a.to_json() == b.to_json() == c.to_json()
    assert a.total_examined == 5000
    assert a.mstd_count + a.mdts_count + a.balanced_count == 5000


def test_sampling_small_window_has_no_mstd():
    report = sample_mstd_proportion(5, 1000, seed=1)
    assert report.mstd_count == 0
    assert report.mstd_fraction == 0


def test_sampling_seed_changes_stream():
    a = sample_mstd_proportion(30, 5000, seed=42)
    b = sample_mstd_proportion(30, 5000, seed=43)
    assert a.to_json() != b.to_json()


def test_sampling_validation(capsys):
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(0, 10, seed=1)
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(10, 0, seed=1)
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(10, 10, seed=-1)
    # every count is an integer, never a float, a string or a bool
    for args in [(10.0, 10, 1), (10, 10.0, 1), (10, 10, 1.0), (10, 10, "1"), (True, 10, 1),
                 (10, True, 1), (10, 10, False), (10, 10, None)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            sample_mstd_proportion(*args)
    for call in (lambda: exhaustive_by_diameter(3.0), lambda: exhaustive_by_diameter(True),
                 lambda: min_cardinality_scan(5.0, 3), lambda: min_cardinality_scan(5, 3.0),
                 lambda: min_cardinality_scan(5, True), lambda: find_fill2_seeds(True),
                 lambda: find_fill2_seeds(10.0), lambda: find_fill2_seeds("10")):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            call()
    # numpy integers are integers, and give the same report as Python ones
    assert (sample_mstd_proportion(np.int64(20), np.int32(300), np.uint8(4)).to_json()
            == sample_mstd_proportion(20, 300, 4).to_json())
    assert find_fill2_seeds(np.int64(10)) == find_fill2_seeds(10)
    # refused before a single task tuple is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="more than 100000000 samples"):
        sample_mstd_proportion(10, 10**12, seed=1)
    assert time.perf_counter() - start < 0.2
    assert cli_main(["search", "sample", "--n", "10", "--samples", str(10**12),
                     "--seed", "1"]) == 2
    assert "more than 100000000 samples" in capsys.readouterr().err


def test_sampling_budgets_its_work(monkeypatch):
    # about 24,400 chunks of 8.6 s each: refused before a task is built
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"n\*\*2 \* samples above 100000000000"):
        sample_mstd_proportion(10**4, 10**8, 0)
    assert time.perf_counter() - start < 0.2
    scanned = []

    def scan(worker, tasks, workers, domain, **extra):
        scanned.append(sum(task[2] for task in tasks))
        return search.SearchReport(domain, scanned[-1], 0, 0, scanned[-1], **extra)

    monkeypatch.setattr(search, "_scan", scan)
    for n, samples in [(1000, 10**5), (30, 10**8), (64, 10**7)]:
        sample_mstd_proportion(n, samples, 0)
    with pytest.raises(ResourceLimitError):
        sample_mstd_proportion(1000, 10**5 + 1, 0)
    assert scanned == [10**5, 10**8, 10**7]


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(InvalidParameterError):
        wilson_interval(1, 0)
    lo, hi = wilson_interval(100, 100)  # successes == trials is the edge still allowed
    assert 0.95 < lo < hi == 1.0
    assert all(wilson_interval(k, k)[1] == 1.0 for k in (1, 7, 10**6))
    for successes, trials in [(5, 3), (-1, 10), (1, -1), (0.5, 10), (1, 10.0), (True, 10),
                              (1, "10")]:
        with pytest.raises(InvalidParameterError):
            wilson_interval(successes, trials)


# ---------------------------------------------------------------------------
# seed discovery
# ---------------------------------------------------------------------------

def test_seed_discovery_recovers_reference_seed():
    seeds = find_fill2_seeds(10)
    assert (IntegerSet(FILL2_L), IntegerSet(FILL2_R)) in seeds


def test_seed_discovery_small_windows_empty():
    assert find_fill2_seeds(3) == []
    assert find_fill2_seeds(1) == []


def test_seed_discovery_roundtrip():
    for L, R in find_fill2_seeds(10)[:4]:
        record = fill2_chain(L, R, 10, 4)
        assert len(record.steps) == 4


def test_seed_discovery_hull_conditions_hold():
    from .conftest import naive_diffs, naive_sums

    # frozen from the word-mask seed scan that the subset-scan worker replaced
    for n, count in [(10, 14), (11, 68), (12, 317)]:
        seeds = find_fill2_seeds(n)
        assert len(seeds) == count
        for L, R in seeds:
            elements = L.to_list() + R.to_list()
            assert elements[0] == 1 and elements[-1] == 2 * n and n not in elements
            assert L.max <= n < R.min
            sums, diffs = naive_sums(elements), naive_diffs(elements)
            assert len(sums) > len(diffs)
            assert set(range(n + 2, 3 * n + 1)) <= sums
            assert set(range(-(n - 1), n)) <= diffs


def _seed_referee(n):
    """Every fill2 seed for n as (L, R) lists: each A inside [1, 2n] with 1
    and 2n and without n, as one Python integer (bit v = value v), its sums
    and nonnegative differences OR-ed from one shift per element."""
    low = n - 2  # free values 2 .. n-1, then n+1 .. 2n-1
    hull_sums = ((1 << (2 * n - 1)) - 1) << (n + 2)  # the sums n+2 .. 3n
    hull_diffs = (1 << n) - 1  # the differences 0 .. n-1, and so their negatives
    found = []
    for mask in range(1 << (2 * n - 3)):
        bits = 2 | 1 << (2 * n) | (mask & ((1 << low) - 1)) << 2 | (mask >> low) << (n + 1)
        sums = pdiffs = 0
        rest = bits
        while rest:
            a = (rest & -rest).bit_length() - 1
            sums |= bits << a
            pdiffs |= bits >> a
            rest &= rest - 1
        if (sums.bit_count() > 2 * pdiffs.bit_count() - 1
                and sums & hull_sums == hull_sums and pdiffs & hull_diffs == hull_diffs):
            elements = [v for v in range(1, 2 * n + 1) if bits >> v & 1]
            found.append(([v for v in elements if v <= n], [v for v in elements if v > n]))
    return sorted(found)


def test_seed_discovery_equals_a_big_integer_enumeration():
    # all 2**17 candidates at n = 10, with no numpy, kernel or is_pn
    expected = _seed_referee(10)
    assert len(expected) == 14
    assert [(L.to_list(), R.to_list()) for L, R in find_fill2_seeds(10)] == expected


def test_seed_discovery_cap():
    with pytest.raises(ResourceLimitError):
        find_fill2_seeds(13)


# ---------------------------------------------------------------------------
# the word-level kernel and its big-integer referee
# ---------------------------------------------------------------------------

def _mask_counts(bits: int, span: int) -> tuple[int, int]:
    """(|A+A|, |A-A|) for the set encoded by ``bits`` (bit i = element i).

    ``span`` is the highest set bit. Works by OR-ing shifted Python
    integers, one per element. The referee for ``_grow``, ``_set_words``
    and ``_sample_chunk``, sharing no code with them.
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


def _referee_sign(bits: int) -> int:
    s, f = _mask_counts(bits, max(bits.bit_length() - 1, 0))
    return (s > f) - (s < f)


def test_set_words_match_referee():
    rng = np.random.default_rng(5)
    for width in (1, 2, 31, 32, 33, 64, 65, 200):
        for row in rng.integers(0, 2, size=(40, width), dtype=np.uint8):
            row[[0, -1]] = 1
            bits = int("".join(map(str, row[::-1].tolist())), 2)
            sums, pdiffs = _set_words(bits)
            assert sums.bit_length() == 2 * width - 1 and pdiffs.bit_length() == width
            assert ((sums.bit_count(), 2 * pdiffs.bit_count() - 1)
                    == _mask_counts(bits, width - 1)), (width, bits)
    assert _set_words(0) == (0, 0)


def _membership(masks, n):
    """The 0/1 rows of the subsets of [1, n] that ``masks`` encode (bit a - 1 for a)."""
    return ((np.asarray(masks)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def _slice_counts(rows):
    """(|A+A|, |A-A|) of each row of a (count, n) 0/1 ``uint8`` membership
    matrix: the rows bit-sliced by ``_bit_slices``, then counted by
    ``_pair_counts``, as a sampling task does."""
    count, n = rows.shape
    x = np.zeros((n, 8 * -(-count // 64)), dtype=np.uint8)
    _bit_slices(rows, x)
    return _pair_counts(x.view(np.uint64), count)


def test_slice_counts_match_oracle_on_every_small_set():
    for n in range(1, 14):
        sums, diffs = _slice_counts(_membership(np.arange(1 << n), n))
        assert (sums[0], diffs[0]) == (0, 0)  # the empty set
        for mask, s, f in zip(range(1, 1 << n), sums[1:].tolist(), diffs[1:].tolist()):
            p = oracle_profile(a + 1 for a in range(n) if (mask >> a) & 1)
            assert (s, f) == (p.sum_count, p.diff_count), (n, mask)


def test_slice_counts_accumulator_does_not_overflow(monkeypatch):
    # 2n - 1 sums: 255 still fit a uint8 count, 257 need a uint16
    for n in (128, 129, 300):
        rng = np.random.default_rng(n)
        rows = rng.integers(0, 2, size=(200, n), dtype=np.uint8)
        rows[0] = 1  # the whole interval, every sum and difference present
        rows[1, [0, n - 1]] = 1  # its ends, with a random interior
        expected = [_mask_counts(int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                                                "little"), n - 1) for row in rows[:2]]
        assert expected[0] == (2 * n - 1, 2 * n - 1)
        sums, diffs = _slice_counts(rows)
        assert list(zip(sums[:2].tolist(), diffs[:2].tolist())) == expected
        # blocks of a few rows and positions at a time give the same counts
        with monkeypatch.context() as m:
            m.setattr(kernels, "_BLOCK_BYTES", 500)
            blocked = _slice_counts(rows)
        assert (blocked[0] == sums).all() and (blocked[1] == diffs).all()


@pytest.mark.parametrize("count, n", [(1, 1), (1, 7), (3, 5), (63, 31), (65, 33), (7, 129),
                                      (4096, 30), (4095, 65)])
def test_sample_rows_are_the_uniform_integer_draw(count, n):
    for seed, chunk_index in [(0, 0), (5, 3), (2**40, 17)]:
        expected = np.random.default_rng([seed, chunk_index]).integers(
            0, 2, size=(count, n), dtype=np.uint8)
        rows = _sample_rows(seed, chunk_index, count, n)
        assert rows.shape == (count, n) and rows.dtype == np.uint8
        assert (rows == expected).all()


def test_sampling_at_full_width_matches_referee_row_by_row():
    # n around the old 32-position word and 64; counts around the 64-sample words
    seed = 5
    for n in (1, 31, 32, 33, 63, 64, 65, 129):
        for chunk_index, count in enumerate((1, 63, 65, 4095, 4096)):
            rows = np.random.default_rng([seed, chunk_index]).integers(
                0, 2, size=(count, n), dtype=np.uint8)
            signs = [_referee_sign(int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                                                  "little")) for row in rows]
            mstd_rows = [i for i, sign in enumerate(signs) if sign > 0]
            expected = (count, len(mstd_rows), signs.count(-1), signs.count(0),
                        [(chunk_index, i, tuple(int(k) + 1 for k in np.flatnonzero(rows[i])))
                         for i in mstd_rows[:8]])
            assert _sample_chunk((seed, chunk_index, count, n)) == expected, (n, count)


def test_sample_chunk_memory_and_time_are_bounded():
    import tracemalloc

    # one chunk at n = 2000, and the eight chunks a task takes at n = 30
    for count, n, seconds in ((4096, 2000, 2.0), (8 * search._SAMPLE_CHUNK, 30, 0.5)):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            total = _sample_chunk((1, 0, count, n))[0]
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total == count
        assert peak < 3 * count * n, (n, peak)
        assert elapsed < seconds


@pytest.mark.parametrize("n", [1, 30, 64, 200])
def test_sampling_reports_do_not_depend_on_chunks_per_task(n, monkeypatch):
    # tasks of one chunk, of up to eight, and of the default count give one
    # report, serial and pooled, also with a partial last chunk
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    splits = []
    run_tasks = search._run_tasks

    def recording(worker, tasks, workers):
        splits.append([task[1:3] for task in tasks])
        return run_tasks(worker, tasks, workers)

    monkeypatch.setattr(search, "_run_tasks", recording)
    chunk = search._SAMPLE_CHUNK
    # nine chunks, the last of one sample, as (first chunk, samples) tasks
    nine = {1: [(k, chunk) for k in range(8)] + [(8, 1)],
            8: [(0, 5 * chunk), (5, 3 * chunk + 1)]}
    for samples in (9000, 8 * chunk + 1):
        reports = set()
        for per_task in (1, 8, None):
            with monkeypatch.context() as m:
                if per_task:
                    m.setattr(kernels, "_BLOCK_BYTES", per_task * chunk * n)
                for workers in (1, 2):
                    splits.clear()
                    report = sample_mstd_proportion(n, samples, 5, workers=workers)
                    reports.add(json.dumps(report.to_json()))
                    if samples > 8 * chunk and per_task:
                        assert splits == [nine[per_task]]
        assert len(reports) == 1
        assert report.total_examined == samples


def _chunk_task(lo, hi, *tops):
    """The scan task of masks [lo, hi) over the positions from 1, with 0 and
    ``tops``, hi - lo a power of two and lo a multiple of it: the high bits
    of lo fixed, largest first, with every subset of the low log2(hi - lo)."""
    positions = range(1, (hi - lo).bit_length())
    high = (p for p in range(lo.bit_length(), 0, -1) if (lo >> (p - 1)) & 1)
    return (0, *high, *tops), positions, len(positions), hi - lo


def _card_task(d, j_max):
    """The scan task of {0, d} with at most j_max interior elements."""
    return (0, d), range(1, d), j_max, search._subsets_up_to(d - 1, j_max)


def _referee_part(sets):
    """What ``_subset_chunk`` returns for the sets given as bits, by
    ``_mask_counts``, with its MSTD sets sorted."""
    signs = [_referee_sign(bits) for bits in sets]
    return (len(signs), signs.count(1), signs.count(-1), signs.count(0),
            sorted(bits for bits, sign in zip(sets, signs) if sign > 0))


def _task_sets(task):
    """Every set of a ``_subset_chunk`` task as bits, from combinations."""
    tops, positions, limit, _ = task
    base = sum(1 << t for t in tops)
    return [base | sum(1 << p for p in combo)
            for j in range(limit + 1) for combo in combinations(positions, j)]


def _sorted_part(part):
    """A ``_subset_chunk`` result with its MSTD sets sorted."""
    return (*part[:4], sorted(part[4]))


@pytest.mark.parametrize("task", [(16, 0, 1 << 14), (16, 1 << 14, 1 << 15)])
def test_enum_chunk_matches_per_mask_recount(task):
    d, lo, hi = task
    expected = _referee_part([(mask << 1) | 1 | (1 << d) for mask in range(lo, hi)])
    assert expected[1] > 0
    assert _sorted_part(_subset_chunk(_chunk_task(lo, hi, d))) == expected


@pytest.mark.parametrize("task", [(24, 5), (18, 8)])
def test_card_chunk_spans_batches_and_matches_recount(task):
    from itertools import combinations

    d, j_max = task
    expected = _referee_part([1 | (1 << d) | sum(1 << c for c in combo)
                              for j in range(j_max + 1)
                              for combo in combinations(range(1, d), j)])
    assert expected[0] > _BATCH
    assert _sorted_part(_subset_chunk(_card_task(*task))) == expected


def test_wide_card_chunk_matches_recount():
    # past the word width the worker counts each set alone
    d, j_max = 70, 2
    signs = []
    for j in range(j_max + 1):
        for combo in combinations(range(1, d), j):
            signs.append(_referee_sign(1 | (1 << d) | sum(1 << c for c in combo)))
    assert _subset_chunk(_card_task(d, j_max)) == (
        len(signs), signs.count(1), signs.count(-1), signs.count(0), [])


def test_per_set_branches_match_word_kernels(monkeypatch):
    # Conway-type 8-element sets are MSTD witnesses at d = 14
    card = _subset_chunk(_card_task(14, 6))
    assert card[1] > 0
    # split tasks, whose tops hold fixed top positions
    split = list(search._split((0, 14), range(1, 14), 6, 1 << 10))
    assert len(split) > 2
    parts = [_sorted_part(_subset_chunk(task)) for task in split]
    assert [sum(part[i] for part in parts) for i in range(4)] == list(card[:4])
    assert sorted(w for part in parts for w in part[4]) == sorted(card[4])
    # the split of a whole scan: its first task, with no top but 0, holds
    # sets of every diameter up to its positions' last
    mixed = list(search._split((0,), range(1, 18), 8, 1 << 15))
    assert len(mixed) > 2 and mixed[0][:2] == ((0,), range(1, 16))
    mixed_parts = [_sorted_part(_subset_chunk(task)) for task in mixed]
    assert mixed_parts[0][1] > 0
    # a narrower word sends the worker down its per-set big-integer branch,
    # which meets the sets in another order
    monkeypatch.setattr(kernels, "_WORD_WIDTH", 8)
    assert _sorted_part(_subset_chunk(_card_task(14, 6))) == _sorted_part(card)
    assert [_sorted_part(_subset_chunk(task)) for task in split] == parts
    assert [_sorted_part(_subset_chunk(task)) for task in mixed] == mixed_parts


@pytest.mark.parametrize("seed", range(4))
def test_witness_picker_equals_a_full_sort(seed):
    # the least diameter has the most elements, so the two orders differ,
    # and hundreds of sets tie with the cap-th rank
    rng = np.random.default_rng(seed)
    interiors = [(d, rng.choice(range(1, d), j, replace=False).tolist())
                 for d, j in [(14, 7), (15, 6), (16, 5)] for _ in range(200)]
    found = sorted({1 | 1 << d | sum(1 << c for c in interior) for d, interior in interiors})
    for sets in (found, rng.permutation(found).tolist(),
                 rng.choice(found, 12, replace=False).tolist(), found[:5], []):
        elements = {bits: tuple(i for i in range(bits.bit_length()) if bits >> i & 1)
                    for bits in sets}
        for rank, key in [(search._by_diameter, lambda e: (e[-1], len(e), e)),
                          (search._by_size, lambda e: (len(e), e[-1], e))]:
            expected = sorted(map(elements.get, sets), key=key)[:search._WITNESS_CAP]
            assert [k[-1] for k in search._witnesses(sets, rank)] == expected


def test_word_kernel_takes_every_set_inside_the_word_width(monkeypatch):
    grown = []

    def recording(base, positions, max_size):
        for batch in _grow(base, positions, max_size):
            grown.append(batch[0].size)
            yield batch

    monkeypatch.setattr(kernels, "_grow", recording)
    # the first task also holds every set of [0, 31]; only the others are wide
    assert min_cardinality_scan(34, 5).total_examined == 52_956
    assert sum(grown) == sum(math.comb(31, i) for i in range(5)) == 36_457
    for scan, args in ((min_cardinality_scan, (24, 7)), (exhaustive_by_diameter, (19,))):
        grown.clear()
        assert scan(*args).total_examined == sum(grown)


class _NoSlices(tuple):
    """Positions that count how often they are sliced."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            type(self).slices += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("tops", [(0,), (0, 40)])
def test_peel_copies_no_positions(tops, monkeypatch):
    # positions are read by index: a task slices them once, for _grow, or
    # not at all when a top lies past the word width
    positions = range(1, 40)
    task = (tops, positions, 3, search._subsets_up_to(len(positions), 3))
    expected = _subset_chunk(task)
    monkeypatch.setattr(_NoSlices, "slices", 0)
    assert _subset_chunk((tops, _NoSlices(positions), *task[2:])) == expected
    assert _NoSlices.slices == (tops[-1] < 32)


# ---------------------------------------------------------------------------
# the incremental kernel
# ---------------------------------------------------------------------------

def _grown(base, positions, max_size=None):
    """Every set ``_grow`` yields, as (bits, |A+A|, |A-A|) in yield order."""
    out = []
    limit = len(positions) if max_size is None else max_size
    for bits, sums, pdiffs in _grow(base, positions, limit):
        assert bits.size == sums.size == pdiffs.size <= _BATCH
        out += zip(bits.tolist(), np.bitwise_count(sums).tolist(),
                   (2 * np.bitwise_count(pdiffs).astype(int) - 1).tolist())
    return out


def _counter_order(base, positions, max_size=None):
    """base | T for the binary counter over positions, with its counts."""
    out = []
    for i in range(1 << len(positions)):
        if max_size is not None and i.bit_count() > max_size:
            continue
        bits = base | sum(1 << p for k, p in enumerate(positions) if (i >> k) & 1)
        out.append((bits, *_mask_counts(bits, bits.bit_length() - 1)))
    return out


def test_grow_matches_referee_on_every_small_set():
    # batches come by size, so compare as sorted lists, which still differ
    # on a missing, extra or repeated set
    for d in range(13):
        # the empty set has no differences, so start from the set {0}
        assert sorted(_grown(1, range(1, d + 1))) == sorted(_counter_order(1, range(1, d + 1)))
        # an element in the middle, free positions on both sides of it
        mid = d // 2
        free = [p for p in range(d + 1) if p != mid]
        assert sorted(_grown(1 << mid, free)) == sorted(_counter_order(1 << mid, free))
    # sets without 0: positions above and below a two-element base
    free = [0, 1, 2, 4, 6, 7, 9, 10, 11]
    assert sorted(_grown(1 << 3 | 1 << 8, free)) == sorted(_counter_order(1 << 3 | 1 << 8, free))


def _size_colex_order(base, positions, max_size):
    """base | T for |T| <= max_size, by |T| and then in colex order, with its counts."""
    out = []
    for j in range(max_size + 1):
        # colex: compare the largest position first
        for combo in sorted(combinations(range(len(positions)), j), key=lambda c: c[::-1]):
            bits = base | sum(1 << positions[k] for k in combo)
            out.append((bits, *_mask_counts(bits, bits.bit_length() - 1)))
    return out


def test_grow_max_size_yields_size_then_colex_order():
    d = 12
    base = 1 | 1 << 5 | 1 << d
    free = [p for p in range(d + 1) if not (base >> p) & 1]
    for max_size in range(d + 1):
        # past len(free) the limit leaves no position out, and the order is
        # the same: the walk's batches take prefixes of it by size
        assert _grown(base, free, max_size) == _size_colex_order(
            base, free, min(max_size, len(free)))
    assert _grown(base, free, -1) == []


def test_grow_at_full_width_does_not_overflow():
    # 31 as a base element and as a grown position, every word at its widest
    free = list(range(1, 31, 2)) + [31]
    assert _grown(1, free, 3) == _size_colex_order(1, free, 3)
    free = [0, 30, 29, 1]
    assert sorted(_grown(1 << 31, free)) == sorted(_counter_order(1 << 31, free))


def test_grow_split_matches_unsplit(monkeypatch):
    base, free = 1 | 1 << 17, list(range(1, 17))
    whole = sorted(_grown(base, free))
    limited = sorted(_grown(base, free, 6))
    assert limited == sorted(_counter_order(base, free, 6))
    tasks = [_chunk_task(0, 1 << 14, 17), _chunk_task(1 << 14, 1 << 15, 17),
             _card_task(20, 5), _card_task(31, 3), _card_task(18, 8)]
    chunks = [_referee_part(_task_sets(task)) for task in tasks]
    assert [_sorted_part(_subset_chunk(task)) for task in tasks] == chunks
    assert [chunk[1] for chunk in chunks] == [0, 1, 0, 0, 14]
    seeds = find_fill2_seeds(9)
    monkeypatch.setattr(kernels, "_BATCH", 1 << 5)
    # batches are ordered by size within each batch, so compare as sorted
    # lists, which still differ on a missing, extra or repeated set
    assert sorted(_grown(base, free)) == whole
    assert sorted(_grown(base, free, 6)) == limited
    assert [_sorted_part(_subset_chunk(task)) for task in tasks] == chunks
    assert find_fill2_seeds(9) == seeds


def _table_rows(positions, limit):
    """The (bits, reversed bits, sums, pdiffs) columns of ``kernels._table``,
    from Python integers: every T with |T| <= limit, by |T| and then by its
    mask over position indices; bit i of a sum row is the sum i and bit i of
    a pdiffs row the difference i >= 0."""
    columns = []
    for mask in sorted(range(1 << len(positions)), key=lambda mask: (mask.bit_count(), mask)):
        if mask.bit_count() > limit:
            continue
        t = [p for k, p in enumerate(positions) if (mask >> k) & 1]
        columns.append((sum(1 << a for a in t), sum(1 << (31 - a) for a in t),
                        sum(1 << v for v in {a + b for a in t for b in t}),
                        sum(1 << v for v in {b - a for a in t for b in t if b >= a})))
    return [list(row) for row in zip(*columns)]


def test_table_layout_matches_referee():
    for positions in [tuple(range(5, 14)),  # contiguous
                      (20, 3, 17, 8, 26, 11, 1),  # unsorted
                      (31, 4, 0, 15, 9, 22, 30, 2)]:  # holding 0 and 31
        m = len(positions)
        for limit in range(m + 1):
            table = kernels._table(positions, limit)
            assert table.dtype == np.uint64
            assert table.shape == (4, search._subsets_up_to(m, limit))
            assert table.tolist() == _table_rows(positions, limit), (positions, limit)
            # the sets within a smaller limit are a prefix, as the walk reads them
            for r in range(limit):
                assert np.array_equal(kernels._table(positions, r),
                                      table[:, :search._subsets_up_to(m, r)]), (positions, r)


@pytest.mark.parametrize("batch", [1 << 3, 1 << 5])
def test_walk_matches_referee(batch, monkeypatch):
    # a small _BATCH makes every request a table of a few positions and a
    # walk over the rest, each batch grown from the one before it
    monkeypatch.setattr(kernels, "_BATCH", batch)
    cases = [
        # base elements below, between and above the positions, 31 among them
        (1 | 1 << 9 | 1 << 31, [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12]),
        # walked positions below the table's, 31 and 0 among them
        (1 << 12, [20, 21, 22, 23, 24, 25, 3, 31, 0, 7, 11]),
        # one base element past every position
        (1 << 30, [0, 2, 5, 6, 8, 9, 13, 17, 18]),
    ]
    for base, free in cases:
        # batches come by size, so compare as sorted lists
        assert sorted(_grown(base, free)) == sorted(_counter_order(base, free))
        for max_size in (0, 1, 2, 4, 7, len(free) - 1):
            assert sorted(_grown(base, free, max_size)) == sorted(
                _counter_order(base, free, max_size)), (base, free, max_size)
    # the cached tables
    for array in (kernels._table(tuple(free[:3]), 3), kernels._table(tuple(free[:3]), 2)):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


def test_writing_into_a_batch_leaves_the_next_scan_alone(monkeypatch):
    scans = (lambda: exhaustive_by_diameter(16).to_json(),
             lambda: min_cardinality_scan(22, 6).to_json(),
             lambda: find_fill2_seeds(9))
    want = [scan() for scan in scans]

    def overwriting(*args):
        for batch in _grow(*args):
            yield batch
            for words in batch:
                words[:] = ~np.uint64(0)

    monkeypatch.setattr(kernels, "_grow", overwriting)
    for scan in scans:
        scan()
    monkeypatch.undo()
    assert [scan() for scan in scans] == want


def test_repeated_scans_hold_no_buffers():
    # a buffer held by a reference cycle would survive each scan with gc off
    scans = (lambda: exhaustive_by_diameter(19), lambda: min_cardinality_scan(24, 7),
             lambda: find_fill2_seeds(10))
    for scan in scans:
        scan()  # the cached tables
    gc.disable()
    tracemalloc.start()
    try:
        for _ in range(10):
            for scan in scans:
                scan()
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current < 4 << 20


def test_one_walk_holds_a_bounded_peak():
    # the first task of exhaustive_by_diameter(22) walks 3 positions over a
    # cached 14-position table: two levels of four rows and a scratch row
    # of 2**14 words (1.125 MiB), at a 1.21 MiB traced peak in all
    task = next(search._split((0,), range(1, 23), 22, search._TASK_SETS))
    _subset_chunk(task)  # the cached table
    tracemalloc.start()
    try:
        assert _subset_chunk(task)[:2] == (1 << 17, 36)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 19


def test_no_kernel_call_holds_more_than_the_cap(monkeypatch):
    # every batch of every scan comes from _grow, from a cached table and a
    # walk over it
    sizes = []

    def recording(*args):
        for batch in _grow(*args):
            sizes.append(batch[0].size)
            yield batch

    monkeypatch.setattr(kernels, "_grow", recording)
    # a table of every subset of its positions holds half the cap
    total = exhaustive_by_diameter(21).total_examined
    total += sum(min_cardinality_scan(d, d + 1).total_examined for d in (19, 20))
    find_fill2_seeds(12)
    total += 1 << 21
    assert max(sizes) == _BATCH // 2
    assert sum(sizes) == total
    # a bounded one as much of the cap as its size layers fill
    sizes.clear()
    assert min_cardinality_scan(31, 6).total_examined == sum(sizes)
    assert _BATCH // 2 < max(sizes) <= _BATCH


def test_bounded_walk_makes_few_batches(monkeypatch):
    # a bounded walk's batches shrink with its depth, so its table takes the
    # whole cap: a table of half of it made 2,842 batches here
    sizes = []

    def recording(*args):
        for batch in _grow(*args):
            sizes.append(batch[0].size)
            yield batch

    monkeypatch.setattr(kernels, "_grow", recording)
    report = min_cardinality_scan(31, 7)
    assert (report.total_examined, report.mstd_count, report.mdts_count,
            report.balanced_count) == (942_649, 0, 940_664, 1_985)
    assert sum(sizes) == report.total_examined
    assert len(sizes) < 600


def test_pinned_landscape_counts():
    report = exhaustive_by_diameter(19)
    assert (report.total_examined, report.mstd_count, report.mdts_count,
            report.balanced_count) == (524288, 170, 474344, 49774)
    assert report.witnesses[0] == IntegerSet(CONWAY)
    report = min_cardinality_scan(24, 7)
    assert (report.total_examined, report.mstd_count, report.mdts_count,
            report.balanced_count) == (190051, 0, 189046, 1005)


def test_search_reports_match_golden_file(monkeypatch):
    # cardinality scans past d = 31 take the big-integer path, which no
    # other test pins; the sampling reports pin each chunk's draw and the
    # bit-sliced counts at n = 30, 40 and 200; the d = 18 scan is two tasks,
    # and the n = 30 sample, three chunks, is two tasks when a task takes at
    # most two chunks, so both run in the pool
    seen = _pool_starts(monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(kernels, "_BLOCK_BYTES", 2 * search._SAMPLE_CHUNK * 30)
        pooled_sample = sample_mstd_proportion(30, 9000, 3, workers=2)
    reports = {
        "exhaustive_by_diameter(16)": exhaustive_by_diameter(16),
        "exhaustive_by_diameter(16, workers=2)": exhaustive_by_diameter(16, workers=2),
        "exhaustive_by_diameter(18, workers=2)": exhaustive_by_diameter(18, workers=2),
        "min_cardinality_scan(20, 8)": min_cardinality_scan(20, 8),
        "min_cardinality_scan(34, 5)": min_cardinality_scan(34, 5),
        "min_cardinality_scan(40, 4)": min_cardinality_scan(40, 4),
        "sample_mstd_proportion(40, 5000, 7)": sample_mstd_proportion(40, 5000, 7),
        "sample_mstd_proportion(30, 9000, 3, workers=2)": pooled_sample,
        "sample_mstd_proportion(200, 3000, 11)": sample_mstd_proportion(200, 3000, 11),
    }
    assert seen == [2, 2]
    text = json.dumps({k: r.to_json() for k, r in reports.items()}, indent=1, sort_keys=True)
    assert text + "\n" == (REPO / "tests" / "data" / "search_reports.json").read_text()


# ---------------------------------------------------------------------------
# worker count and the shared pool
# ---------------------------------------------------------------------------

def test_worker_count_clamps_and_rejects(monkeypatch):
    # the pool has at most one process per CPU, and the task count never
    # sizes it: a single task, or a single worker, runs serially
    sizes = []

    def serial_pool(workers):
        sizes.append(workers)
        return SimpleNamespace(map=lambda worker, tasks: list(map(worker, tasks)))

    monkeypatch.setattr(search, "_shared_pool", serial_pool)
    for cpus, workers, tasks, size in ((4, 10**9, 100, 4), (4, 3, 100, 3), (4, 8, 2, 4),
                                       (4, 8, 1, None), (4, 1, 100, None), (4, 8, 0, None),
                                       (None, 8, 100, None)):
        monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert search._run_tasks(abs, range(-tasks, 0), workers) == list(range(tasks, 0, -1))
        assert sizes == ([size] if size else [])
    for bad in (0, -3):
        for tasks in ([], [1], [1, 2]):
            with pytest.raises(InvalidParameterError):
                search._run_tasks(abs, tasks, bad)
    with pytest.raises(InvalidParameterError):
        exhaustive_by_diameter(3, workers=0)
    for bad in (2.0, True, "2", None):
        for call in (lambda: exhaustive_by_diameter(3, workers=bad),
                     lambda: min_cardinality_scan(5, 3, workers=bad),
                     lambda: sample_mstd_proportion(5, 10, 1, workers=bad)):
            with pytest.raises(InvalidParameterError, match="workers must be an integer"):
                call()
    assert (exhaustive_by_diameter(5, workers=np.int64(2)).to_json()
            == exhaustive_by_diameter(5).to_json())


def test_pool_is_reused_then_replaced_on_count_change(monkeypatch):
    # four tasks of 2**17 sets
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    first = exhaustive_by_diameter(19, workers=2)
    pool = search._pool[2]
    second = exhaustive_by_diameter(19, workers=2)
    assert first.to_json() == second.to_json()
    assert search._pool == (os.getpid(), 2, pool)
    third = exhaustive_by_diameter(19, workers=5)  # clamped to 3
    assert third.to_json() == first.to_json()
    assert search._pool[:2] == (os.getpid(), 3) and search._pool[2] is not pool


def test_scans_of_different_task_counts_share_one_pool(monkeypatch):
    import multiprocessing

    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    started = []
    start_process = multiprocessing.Process

    def recording(*args, **kwargs):
        started.append(kwargs["target"])
        return start_process(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Process", recording)
    search._close_pool()
    try:
        for _ in range(3):
            # four tasks, three tasks, then 25 sampling chunks in four tasks
            assert exhaustive_by_diameter(19, workers=4).total_examined == 1 << 19
            assert min_cardinality_scan(24, 7, workers=4).total_examined == 190_051
            assert sample_mstd_proportion(30, 10**5, 1, workers=4).total_examined == 10**5
        # one set of four workers, started once
        assert started == [search._serve] * 4
    finally:
        search._close_pool()


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("task 2 fails")
    return x


def test_failed_pooled_map_replaces_the_pool(monkeypatch):
    # two tasks of 2**17 sets
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    exhaustive_by_diameter(18, workers=2)
    pool = search._pool[2]
    with pytest.raises(ValueError, match="task 2 fails"):
        search._run_tasks(_fail_on_two, [1, 2, 3, 4], 2)
    assert search._pool is None
    after = exhaustive_by_diameter(18, workers=2)
    assert after.to_json() == exhaustive_by_diameter(18).to_json()
    assert search._pool[:2] == (os.getpid(), 2) and search._pool[2] is not pool


def _sleep_then_stamp(seconds: float) -> tuple[float, float]:
    time.sleep(seconds)
    return seconds, time.monotonic()


def test_pooled_results_come_back_in_task_order(monkeypatch):
    # later tasks sleep less, so they finish first
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    tasks = [0.24, 0.12, 0.06, 0.03, 0.0, 0.0]
    results = search._run_tasks(_sleep_then_stamp, tasks, 2)
    assert [seconds for seconds, _ in results] == tasks
    stamps = [stamp for _, stamp in results]
    assert stamps != sorted(stamps)


def test_dead_worker_raises_and_the_next_search_starts_fresh():
    # a worker that exits mid-task fails the map at once; faulthandler ends a
    # hung interpreter, so that a hang fails the test
    script = ("import faulthandler, os; faulthandler.dump_traceback_later(30, exit=True)\n"
              "os.cpu_count = lambda: 2\n"
              "from mstd_chains import exhaustive_by_diameter, search\n"
              "def task(x):\n"
              "    if x == 3:\n"
              "        os._exit(3)\n"
              "    return x\n"
              "try:\n"
              "    search._run_tasks(task, [1, 2, 3, 4], 2)\n"
              "except RuntimeError as exc:\n"
              "    print(exc)\n"
              "assert search._pool is None\n"
              "pooled = exhaustive_by_diameter(18, workers=2)\n"
              "assert search._pool is not None\n"
              "print(pooled.to_json() == exhaustive_by_diameter(18).to_json())\n")
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a search worker exited with code 3\nTrue\n"


def test_worker_killed_between_scans_is_replaced(monkeypatch):
    import signal

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    expected = exhaustive_by_diameter(18).to_json()
    assert exhaustive_by_diameter(18, workers=2).to_json() == expected
    workers = search._pool[2]
    os.kill(workers.procs[1].pid, signal.SIGKILL)
    workers.procs[1].join(10)
    assert exhaustive_by_diameter(18, workers=2).to_json() == expected
    assert search._pool[2] is not workers and search._pool[2].alive()


def test_pooled_search_exits_cleanly_in_fresh_interpreter():
    import subprocess
    import sys
    from pathlib import Path

    script = ("import os; os.cpu_count = lambda: 2\n"
              "from mstd_chains import exhaustive_by_diameter, sample_mstd_proportion\n"
              "a = exhaustive_by_diameter(18, workers=2)\n"
              "b = sample_mstd_proportion(20, 9000, seed=3, workers=2)\n"
              "import multiprocessing\n"
              "print(a.total_examined, b.total_examined,\n"
              "      *(p.pid for p in multiprocessing.active_children()))\n")
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    total, sampled, *pids = done.stdout.split()
    assert (total, sampled) == (str(2 ** 18), "9000")
    # both workers are gone once the interpreter has exited
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(int(pid), 0)


def test_numpy_is_loaded_before_the_pool_forks():
    # a worker forked before numpy is imported would import it once per worker
    script = ("import os, sys; os.cpu_count = lambda: 2\n"
              "from mstd_chains import exhaustive_by_diameter, search\n"
              "assert 'numpy' not in sys.modules\n"
              "start_pool = search._shared_pool\n"
              "seen = []\n"
              "def recording(workers):\n"
              "    seen.append('numpy' in sys.modules)\n"
              "    return start_pool(workers)\n"
              "search._shared_pool = recording\n"
              "exhaustive_by_diameter(18, workers=2)\n"
              "print(seen)\n")
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[True]\n"
