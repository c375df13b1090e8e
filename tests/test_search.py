import json
import os
import time

import numpy as np
import pytest

from mstd_chains import (Classification, IntegerSet, InvalidParameterError,
                         ResourceLimitError, exhaustive_by_diameter,
                         fill2_chain, find_fill2_seeds, min_cardinality_scan,
                         oracle_profile, profile, sample_mstd_proportion,
                         search, wilson_interval)
from mstd_chains.search import (_BATCH, _card_chunk, _enum_chunk, _grow, _mask_counts,
                                _sample_chunk, _word_counts, _worker_count)

from .conftest import CONWAY, FILL2_L, FILL2_R, REPO


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


def test_exhaustive_worker_invariance():
    serial = exhaustive_by_diameter(12)
    parallel = exhaustive_by_diameter(12, workers=2)
    assert json.dumps(serial.to_json(), sort_keys=True) == \
        json.dumps(parallel.to_json(), sort_keys=True)


def test_exhaustive_caps():
    with pytest.raises(ResourceLimitError):
        exhaustive_by_diameter(27)
    with pytest.raises(InvalidParameterError):
        exhaustive_by_diameter(-1)


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


def test_card_scan_region_without_witnesses():
    report = min_cardinality_scan(16, 7)
    assert report.mstd_count == 0


def test_card_scan_budget():
    with pytest.raises(ResourceLimitError):
        min_cardinality_scan(30, 30)


@pytest.mark.parametrize("d_max, card_max", [(10**6, 3), (2 * 10**8, 2)])
def test_card_scan_far_over_budget_is_refused_at_once(d_max, card_max):
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        min_cardinality_scan(d_max, card_max)
    assert time.perf_counter() - start < 0.2


def test_card_scan_worker_invariance():
    serial = min_cardinality_scan(12, 6)
    parallel = min_cardinality_scan(12, 6, workers=2)
    assert serial.to_json() == parallel.to_json()


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


def test_sampling_validation():
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(0, 10, seed=1)
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(10, 0, seed=1)
    with pytest.raises(InvalidParameterError):
        sample_mstd_proportion(10, 10, seed=-1)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    with pytest.raises(InvalidParameterError):
        wilson_interval(1, 0)


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

    n = 11
    seeds = find_fill2_seeds(n)
    # frozen from the per-set big-integer scan this kernel replaced
    assert len(seeds) == 68
    for L, R in seeds:
        elements = L.to_list() + R.to_list()
        assert elements[0] == 1 and elements[-1] == 2 * n and n not in elements
        sums, diffs = naive_sums(elements), naive_diffs(elements)
        assert len(sums) > len(diffs)
        assert set(range(n + 2, 3 * n + 1)) <= sums
        assert set(range(-(n - 1), n)) <= diffs


def test_seed_discovery_cap():
    with pytest.raises(ResourceLimitError):
        find_fill2_seeds(13)


# ---------------------------------------------------------------------------
# the word-level kernel and its big-integer referee
# ---------------------------------------------------------------------------

def _referee_sign(bits: int) -> int:
    s, f = _mask_counts(bits, max(bits.bit_length() - 1, 0))
    return (s > f) - (s < f)


def test_word_kernel_matches_oracle_on_every_small_set():
    for d in range(13):
        bits = np.arange(1, 1 << (d + 1), dtype=np.uint64)
        sums, diffs = _word_counts(bits, d + 1)
        for b, s, f in zip(bits.tolist(), np.bitwise_count(sums).tolist(),
                           np.bitwise_count(diffs).tolist()):
            p = oracle_profile(i for i in range(d + 1) if (b >> i) & 1)
            assert (s, f) == (p.sum_count, p.diff_count), (d, b)


def test_word_kernel_full_width_does_not_overflow():
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 1 << 31, size=2000, dtype=np.uint64) | np.uint64(1 << 31)
    sums, diffs = _word_counts(bits, 32)
    for b, s, f in zip(bits.tolist(), np.bitwise_count(sums).tolist(),
                       np.bitwise_count(diffs).tolist()):
        assert (s, f) == _mask_counts(b, 31)
    with pytest.raises(InvalidParameterError):
        _word_counts(bits, 33)


def test_sampling_at_full_width_matches_referee_row_by_row():
    for chunk_index in range(3):
        seed, count, n = 5, 4096, 32
        rows = np.random.default_rng([seed, chunk_index]).integers(
            0, 2, size=(count, n), dtype=np.uint8)
        signs = [_referee_sign(int.from_bytes(np.packbits(row, bitorder="little").tobytes(),
                                              "little")) for row in rows]
        mstd_rows = [i for i, sign in enumerate(signs) if sign > 0]
        expected = (count, len(mstd_rows), signs.count(-1), signs.count(0),
                    [(chunk_index, i, tuple(int(k) + 1 for k in np.flatnonzero(rows[i])))
                     for i in mstd_rows[:8]])
        assert _sample_chunk((seed, chunk_index, count, n)) == expected


@pytest.mark.parametrize("task", [(16, 0, 1 << 14), (16, 1 << 14, 1 << 15)])
def test_enum_chunk_matches_per_mask_recount(task):
    d, lo, hi = task
    signs, witnesses = [], []
    for mask in range(lo, hi):
        bits = (mask << 1) | 1 | (1 << d)
        signs.append(_referee_sign(bits))
        if signs[-1] > 0:
            elements = tuple(i for i in range(d + 1) if (bits >> i) & 1)
            witnesses.append((d, len(elements), elements))
    expected = (hi - lo, signs.count(1), signs.count(-1), signs.count(0),
                sorted(witnesses)[:8])
    assert _enum_chunk(task) == expected


@pytest.mark.parametrize("task", [(20, 5), (18, 8)])
def test_card_chunk_spans_batches_and_matches_recount(task):
    from itertools import combinations

    d, j_max = task
    signs, witnesses = [], []
    for j in range(j_max + 1):
        for combo in combinations(range(1, d), j):
            signs.append(_referee_sign(1 | (1 << d) | sum(1 << c for c in combo)))
            if signs[-1] > 0:
                witnesses.append((j + 2, d, (0, *combo, d)))
    assert len(signs) > _BATCH
    expected = (len(signs), signs.count(1), signs.count(-1), signs.count(0),
                sorted(witnesses)[:8])
    assert _card_chunk(task) == expected


# ---------------------------------------------------------------------------
# the incremental kernel
# ---------------------------------------------------------------------------

def _grown(base, positions, max_size=None):
    """Every set ``_grow`` yields, as (bits, |A+A|, |A-A|) in yield order."""
    out = []
    for bits, sums, pdiffs in _grow(base, positions, max_size):
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
    for d in range(13):
        # the empty set has no differences, so start from the set {0}
        assert _grown(1, range(1, d + 1)) == _counter_order(1, range(1, d + 1))
        # an element in the middle, free positions on both sides of it
        mid = d // 2
        free = [p for p in range(d + 1) if p != mid]
        assert _grown(1 << mid, free) == _counter_order(1 << mid, free)
    # sets without 0: positions above and below a two-element base
    free = [0, 1, 2, 4, 6, 7, 9, 10, 11]
    assert _grown(1 << 3 | 1 << 8, free) == _counter_order(1 << 3 | 1 << 8, free)


def test_grow_max_size_keeps_counter_order():
    d = 12
    base = 1 | 1 << 5 | 1 << d
    free = [p for p in range(d + 1) if not (base >> p) & 1]
    for max_size in range(d + 1):
        assert _grown(base, free, max_size) == _counter_order(base, free, max_size)
    assert _grown(base, free, -1) == []


def test_grow_at_full_width_does_not_overflow():
    # 31 as a base element and as a grown position, every word at its widest
    free = list(range(1, 31, 2)) + [31]
    assert _grown(1, free, 3) == _counter_order(1, free, 3)
    free = [0, 30, 29, 1]
    assert _grown(1 << 31, free) == _counter_order(1 << 31, free)


def test_grow_split_matches_unsplit(monkeypatch):
    base, free = 1 | 1 << 17, list(range(1, 17))
    whole = _grown(base, free)
    limited = _grown(base, free, 6)
    chunks = {task: _enum_chunk(task) for task in [(17, 0, 1 << 14), (17, 1 << 14, 1 << 15)]}
    cards = {task: _card_chunk(task) for task in [(20, 5), (31, 3), (18, 8)]}
    seeds = find_fill2_seeds(9)
    monkeypatch.setattr(search, "_BATCH", 1 << 5)
    assert _grown(base, free) == whole
    assert _grown(base, free, 6) == limited
    for task, expected in chunks.items():
        assert _enum_chunk(task) == expected
    for task, expected in cards.items():
        assert _card_chunk(task) == expected
    assert find_fill2_seeds(9) == seeds


def test_no_kernel_call_holds_more_than_the_cap(monkeypatch):
    sizes = []
    batch = search._grow_batch

    def recording(*args):
        out = batch(*args)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(search, "_grow_batch", recording)
    total = exhaustive_by_diameter(21).total_examined
    total += min_cardinality_scan(31, 6).total_examined
    total += sum(min_cardinality_scan(d, d + 1).total_examined for d in (19, 20))
    find_fill2_seeds(12)
    total += 1 << 21
    assert max(sizes) == _BATCH
    assert sum(sizes) == total


def test_pinned_landscape_counts():
    report = exhaustive_by_diameter(19)
    assert (report.total_examined, report.mstd_count, report.mdts_count,
            report.balanced_count) == (524288, 170, 474344, 49774)
    assert report.witnesses[0] == IntegerSet(CONWAY)
    report = min_cardinality_scan(24, 7)
    assert (report.total_examined, report.mstd_count, report.mdts_count,
            report.balanced_count) == (190051, 0, 189046, 1005)


def test_search_reports_match_golden_file():
    # sampling at n > 32 and cardinality scans past d = 31 take the
    # big-integer path, which no other test pins
    reports = {
        "exhaustive_by_diameter(16)": exhaustive_by_diameter(16),
        "exhaustive_by_diameter(16, workers=2)": exhaustive_by_diameter(16, workers=2),
        "min_cardinality_scan(20, 8)": min_cardinality_scan(20, 8),
        "min_cardinality_scan(34, 5)": min_cardinality_scan(34, 5),
        "min_cardinality_scan(40, 4)": min_cardinality_scan(40, 4),
        "sample_mstd_proportion(40, 5000, 7)": sample_mstd_proportion(40, 5000, 7),
        "sample_mstd_proportion(30, 9000, 3, workers=2)":
            sample_mstd_proportion(30, 9000, 3, workers=2),
        "sample_mstd_proportion(200, 3000, 11)": sample_mstd_proportion(200, 3000, 11),
    }
    text = json.dumps({k: r.to_json() for k, r in reports.items()}, indent=1, sort_keys=True)
    assert text + "\n" == (REPO / "tests" / "data" / "search_reports.json").read_text()


# ---------------------------------------------------------------------------
# worker count and the shared pool
# ---------------------------------------------------------------------------

def test_worker_count_clamps_and_rejects(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    assert _worker_count(10**9, 100) == 4
    assert _worker_count(3, 100) == 3
    assert _worker_count(8, 2) == 2
    assert _worker_count(1, 0) == 0
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    assert _worker_count(8, 100) == 1
    for bad in (0, -3):
        with pytest.raises(InvalidParameterError):
            _worker_count(bad, 100)
    with pytest.raises(InvalidParameterError):
        exhaustive_by_diameter(3, workers=0)


def test_pool_is_reused_then_replaced_on_count_change(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    first = exhaustive_by_diameter(12, workers=2)
    pool = search._pool[2]
    second = exhaustive_by_diameter(12, workers=2)
    assert first.to_json() == second.to_json()
    assert search._pool == (os.getpid(), 2, pool)
    third = exhaustive_by_diameter(12, workers=5)  # clamped to 3
    assert third.to_json() == first.to_json()
    assert search._pool[:2] == (os.getpid(), 3) and search._pool[2] is not pool


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("task 2 fails")
    return x


def test_failed_pooled_map_replaces_the_pool(monkeypatch):
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    exhaustive_by_diameter(12, workers=2)
    pool = search._pool[2]
    with pytest.raises(ValueError, match="task 2 fails"):
        search._run_tasks(_fail_on_two, [1, 2, 3, 4], 2)
    assert search._pool is None
    after = exhaustive_by_diameter(12, workers=2)
    assert after.to_json() == exhaustive_by_diameter(12).to_json()
    assert search._pool[:2] == (os.getpid(), 2) and search._pool[2] is not pool


def test_pooled_search_exits_cleanly_in_fresh_interpreter():
    import subprocess
    import sys
    from pathlib import Path

    script = ("import os; os.cpu_count = lambda: 2\n"
              "from mstd_chains import exhaustive_by_diameter, sample_mstd_proportion\n"
              "a = exhaustive_by_diameter(12, workers=2)\n"
              "b = sample_mstd_proportion(20, 9000, seed=3, workers=2)\n"
              "print(a.total_examined, b.total_examined)\n")
    src = str(Path(search.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.split() == [str(2 ** 12), "9000"]
