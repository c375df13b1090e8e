import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstd_chains import (ArithmeticRangeError, Classification, IntegerSet,
                         InvalidParameterError, affine, classify, diffset,
                         is_pn, oracle_profile, profile, sumset, symmetry_center)

from .conftest import CONWAY, naive_diffs, naive_sums

sets_strategy = st.builds(
    IntegerSet, st.sets(st.integers(-300, 300), min_size=1, max_size=40)
)


# ---------------------------------------------------------------------------
# sumset / diffset
# ---------------------------------------------------------------------------

def test_sumset_basic():
    assert sumset(IntegerSet([1, 2, 3])).to_list() == [2, 3, 4, 5, 6]
    assert sumset(IntegerSet([5])).to_list() == [10]
    assert sumset(IntegerSet()).is_empty


def test_sumset_conway(conway):
    assert len(sumset(conway)) == 26


def test_diffset_basic():
    assert diffset(IntegerSet([1, 2, 3])).to_list() == [-2, -1, 0, 1, 2]
    assert diffset(IntegerSet([5])).to_list() == [0]
    assert diffset(IntegerSet()).is_empty


def test_diffset_conway(conway):
    assert len(diffset(conway)) == 25


def test_sumset_overflow_rejected():
    big = IntegerSet([0, 2 ** 62 + 1])
    with pytest.raises(ArithmeticRangeError):
        sumset(big)
    with pytest.raises(ArithmeticRangeError):
        diffset(IntegerSet([-(2 ** 62), 2 ** 62]))
    with pytest.raises(ArithmeticRangeError):
        IntegerSet([2 ** 63])


def test_wide_sets_use_exact_fallback():
    # far beyond the dense bit-vector window (a singleton never is)
    for elements in [
        [0, 5, 2 ** 40, 2 ** 40 + 3],
        # a dilated Conway set: many sums coincide across rows of the pair table
        affine(IntegerSet(CONWAY), 2 ** 40 + 1, -2 ** 50).to_list(),
        [-2 ** 45, -17, -3, 2 ** 33],
        [2 ** 62 - 1],
        [-2 ** 40, 2 ** 40],
        [-2 ** 62, 0, 2 ** 62 - 1],
    ]:
        wide = IntegerSet(elements)
        assert sumset(wide).to_list() == sorted(naive_sums(wide)), elements
        assert diffset(wide).to_list() == sorted(naive_diffs(wide)), elements
        assert profile(wide) == oracle_profile(wide), elements


@given(sets_strategy)
def test_diffset_symmetric_odd(a):
    d = diffset(a)
    assert 0 in d
    assert len(d) % 2 == 1
    els = d.to_list()
    assert els == [-x for x in reversed(els)]


@given(st.sets(st.integers(-200, 200), min_size=1, max_size=30), st.data())
def test_monotonicity(superset, data):
    b = IntegerSet(superset)
    sub = data.draw(st.sets(st.sampled_from(sorted(superset)), min_size=1))
    a = IntegerSet(sub)
    assert sumset(a).issubset(sumset(b))
    assert diffset(a).issubset(diffset(b))


@settings(max_examples=200)
@given(sets_strategy)
def test_matches_naive_double_loop(a):
    assert set(sumset(a)) == naive_sums(a)
    assert set(diffset(a)) == naive_diffs(a)


def test_matches_naive_on_seeded_batch():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        size = int(rng.integers(1, 64))
        a = IntegerSet(rng.integers(-500, 501, size=size).tolist())
        assert set(sumset(a)) == naive_sums(a)
        assert set(diffset(a)) == naive_diffs(a)


# ---------------------------------------------------------------------------
# affine maps
# ---------------------------------------------------------------------------

def test_affine_basic():
    assert affine(IntegerSet([0, 1]), 2, 3).to_list() == [3, 5]
    with pytest.raises(InvalidParameterError):
        affine(IntegerSet([1]), 0, 5)


def test_affine_preserves_profile(conway):
    moved = affine(conway, 1, -7)
    assert len(sumset(moved)) == 26
    assert len(diffset(moved)) == 25


def test_affine_interval_to_odd_numbers():
    k = 9
    odds = affine(IntegerSet.interval(1, k), 2, -1)
    assert odds.to_list() == list(range(1, 2 * k, 2))
    p = profile(odds)
    assert p.classification == Classification.BALANCED
    assert p.sum_count == len(naive_sums(odds))
    assert p.diff_count == len(naive_diffs(odds))


@settings(max_examples=150)
@given(sets_strategy,
       st.integers(-40, 40).filter(lambda x: x != 0),
       st.integers(-1000, 1000))
def test_affine_invariance(a, x, y):
    b = affine(a, x, y)
    assert len(b) == len(a)
    assert len(sumset(b)) == len(sumset(a))
    assert len(diffset(b)) == len(diffset(a))


def test_affine_mirrors_a_bit_vector_set_run_by_run():
    # a sumset is held as a bit-vector, which x = -1 mirrors without elements
    rng = np.random.default_rng(138)
    for _ in range(200):
        a = sumset(IntegerSet(rng.integers(-300, 301, size=int(rng.integers(1, 30))).tolist()))
        y = int(rng.integers(-1000, 1001))
        assert affine(a, -1, y).to_list() == [y - e for e in reversed(a.to_list())]
    wide = sumset(IntegerSet([0, 10**7]))
    tracemalloc.start()
    try:
        mirrored = affine(wide, -1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mirrored.to_list() == [-2 * 10**7, -10**7, 0]
    assert peak < 16 << 20, peak


# ---------------------------------------------------------------------------
# classification, symmetry, fringe completeness
# ---------------------------------------------------------------------------

def test_classify(conway):
    assert classify(IntegerSet([1, 2, 3])) == Classification.BALANCED
    assert classify(conway) == Classification.MSTD
    mdts = IntegerSet.interval(0, 14).union(IntegerSet([17]))
    assert classify(mdts) == Classification.MDTS
    with pytest.raises(InvalidParameterError):
        classify(IntegerSet())


def test_symmetry_center(conway):
    assert symmetry_center(IntegerSet([1, 3, 5])) == 6
    assert symmetry_center(IntegerSet([0, 2, 3, 7, 11, 12, 14])) == 14
    assert symmetry_center(conway) is None


@given(st.sets(st.integers(-150, 150), min_size=1, max_size=25),
       st.integers(-100, 100))
def test_symmetric_sets_are_balanced(half, center):
    a = IntegerSet(half).union(affine(IntegerSet(half), -1, center))
    assert symmetry_center(a) == symmetry_center(_bits_only(a.elements)) == center
    assert classify(a) == Classification.BALANCED


def test_is_pn(conway, fill2_seed):
    L, R, n = fill2_seed
    assert is_pn(L.union(R), n)
    assert is_pn(IntegerSet.interval(1, 12), 0)
    # both hulls computed explicitly: the full ranges are not covered
    assert naive_sums(conway) != set(range(0, 29))
    assert naive_diffs(conway) != set(range(-14, 15))
    assert not is_pn(conway, 0)
    with pytest.raises(InvalidParameterError):
        is_pn(conway, -1)
    for bad in (0.0, True, "0"):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            is_pn(conway, bad)
    assert is_pn(L.union(R), np.int64(n))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_conway(conway):
    p = profile(conway)
    assert (p.cardinality, p.diameter, p.sum_count, p.diff_count) == (8, 14, 26, 25)
    assert p.classification == Classification.MSTD
    assert p.density == pytest.approx(8 / 14)


def test_profile_singleton():
    p = profile(IntegerSet([0]))
    assert (p.cardinality, p.diameter, p.sum_count, p.diff_count) == (1, 0, 1, 1)
    assert p.classification == Classification.BALANCED
    assert p.density is None


def test_profile_fill2_seed(fill2_seed):
    L, R, _ = fill2_seed
    p = profile(L.union(R))
    assert (p.cardinality, p.sum_count, p.diff_count) == (11, 38, 37)
    assert p.classification == Classification.MSTD
    assert p.diameter == 19  # the printed seed spans 1..20


def test_profile_rejects_empty():
    with pytest.raises(InvalidParameterError):
        profile(IntegerSet())


@given(sets_strategy)
def test_profile_count_bounds(a):
    p = profile(a)
    c, d = p.cardinality, p.diameter
    assert p.sum_count <= min(c * (c + 1) // 2, 2 * d + 1)
    assert p.diff_count <= min(c * c - c + 1, 2 * d + 1)
    assert p.diff_count % 2 == 1


@pytest.mark.parametrize("k", [1, 2, 7, 50, 100])
def test_interval_balance(k):
    p = profile(IntegerSet.interval(1, k))
    assert p.classification == Classification.BALANCED
    assert p.sum_count == p.diff_count == 2 * k - 1


# ---------------------------------------------------------------------------
# representation details
# ---------------------------------------------------------------------------

def test_text_roundtrip(conway):
    assert IntegerSet.from_text("0,2,3,4,7,11,12,14") == conway
    assert conway.to_text() == "0,2,3,4,7,11,12,14"


def test_text_errors_name_position():
    with pytest.raises(InvalidParameterError, match="token 2"):
        IntegerSet.from_text("1,x,3")
    with pytest.raises(InvalidParameterError, match="token 3"):
        IntegerSet.from_text("1,5,5")


def test_elements_must_be_integers():
    # int() would truncate the floats and read True as 1
    for bad in ([1.5, 2.9, True], [1, True], [2.0], ["3"], [np.float64(4)], [np.bool_(True)]):
        with pytest.raises(InvalidParameterError, match="not an integer"):
            IntegerSet(bad)
    assert IntegerSet([np.int64(3), np.uint8(1), 2]).to_list() == [1, 2, 3]


def test_text_tokens_are_ascii_decimal_integers():
    # int() reads "1_0" as 10 and fullwidth digits as ASCII ones
    for bad in ("1_0,20", "10,\uff12\uff10", "+5", "1e3", "0x10"):
        with pytest.raises(InvalidParameterError, match="is not an integer"):
            IntegerSet.from_text(bad)
    assert IntegerSet.from_text(" -3 , 4,10").to_list() == [-3, 4, 10]


def test_lazy_bits_backed_sets(conway):
    s = sumset(conway)  # starts out bits-backed
    assert len(s) == 26
    assert s.min == 0 and s.max == 28
    assert 1 not in s and 2 in s
    assert set(s.to_list()) == naive_sums(conway)
    # equal sets hash alike whichever representation built them
    assert hash(IntegerSet([0, 1, 2])) == hash(IntegerSet.interval(0, 2))
    assert repr(IntegerSet.interval(0, 2)) == "IntegerSet([0, 1, 2])"
    assert repr(IntegerSet(range(13))) == "IntegerSet([0, 1, 2, 3, 4, 5, ... 10, 11, 12])"
    # with holes, the ends span several runs: bits and elements agree
    holes = [-5, -4, 0, 1, 2, 3, 9, 10, 17, 20, 21, 22, 23, 40]
    assert (repr(_bits_only(holes)) == repr(IntegerSet(holes))
            == "IntegerSet([-5, -4, 0, 1, 2, 3, ... 22, 23, 40])")
    assert hash(_bits_only(holes)) == hash(IntegerSet(holes))
    assert hash(_bits_only(holes)) != hash(_bits_only(holes[:-1]))
    # repr, hash and symmetry read the runs, never listing 2**26 elements:
    # the peak stays within three copies of the 8 MiB bit-vector
    wide = IntegerSet.interval(0, 1 << 26)
    tracemalloc.start()
    try:
        text, digest, center = repr(wide), hash(wide), symmetry_center(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == "IntegerSet([0, 1, 2, 3, 4, 5, ... 67108862, 67108863, 67108864])"
    assert digest == hash(IntegerSet.interval(0, 1 << 26)) and center == 1 << 26
    assert peak < 3 << 23, f"peak {peak / 2**20:.1f} MiB"


def test_elements_of_a_sparse_wide_vector_stay_small():
    # three elements over 2 * 10**7 bits: a byte scan of the vector, not a
    # bin() string of one byte per bit
    wide = sumset(IntegerSet([0, 10**7]))
    tracemalloc.start()
    try:
        elements = wide.elements
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elements == (0, 10**7, 2 * 10**7)
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"


def test_set_operations(conway):
    evens = IntegerSet([0, 2, 4, 12, 14])
    assert evens.issubset(conway)
    assert not conway.issubset(evens)
    assert conway.difference(evens).to_list() == [3, 7, 11]
    assert conway.intersection(evens) == evens
    assert conway.union(IntegerSet([1])).contains_interval(0, 4)
    assert list(conway.missing_in_interval(0, 14)) == [1, 5, 6, 8, 9, 10, 13]


@example({0, 1, 2, 3, 10}, 2, 10)  # the window starts inside a run
@example({0, 1, 2, 3, 10, 11, 12}, -1, 12)  # and ends inside one
@given(st.sets(st.integers(-30, 30), max_size=40), st.integers(-40, 40), st.integers(-3, 40))
def test_missing_in_interval_agrees_on_both_representations(els, lo, width):
    from mstd_chains.constructions import _missing

    hi = lo + width
    want = [v for v in range(lo, hi + 1) if v not in els]
    for a in (IntegerSet(els), _bits_only(els)):
        assert list(a.missing_in_interval(lo, hi)) == want
        if lo <= hi:
            assert _missing(a, lo, hi) == (len(want), want[:10])


def test_dedup_and_ordering():
    a = IntegerSet([3, 1, 2, 3, 1])
    assert a.to_list() == [1, 2, 3]
    assert len(a) == 3


def test_wide_fallback_refuses_before_allocating(monkeypatch):
    import time

    from mstd_chains import ResourceLimitError, intset
    from mstd_chains.intset import DENSE_DIAMETER_LIMIT

    # 20,001 elements, and one far element sends the set to the fallback
    wide = IntegerSet(list(range(20_000)) + [10 ** 12])
    start = time.perf_counter()
    for op in (sumset, diffset, profile):
        with pytest.raises(ResourceLimitError):
            op(wide)
    with pytest.raises(ResourceLimitError):
        IntegerSet.interval(0, DENSE_DIAMETER_LIMIT + 1)
    # a sparse window sends set algebra to Python sets, which list every
    # element: the same budget refuses that before the first is listed
    far = IntegerSet([2 ** 40])
    for n in (10 ** 7, 4 * 10 ** 7):
        dense = IntegerSet.interval(0, n)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"^union: listing {n + 2} elements"):
                dense.union(far)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
    assert time.perf_counter() - start < 1.0
    assert len(IntegerSet.interval(0, 10 ** 6).union(far)) == 1_000_002
    # the budget counts the bytes of k(k + 1) / 2 pairs: a set right at it still runs
    monkeypatch.setattr(intset, "_WIDE_BYTE_LIMIT", intset._PAIR_BYTES * 55)
    edge = IntegerSet(list(range(9)) + [10 ** 12])
    assert set(sumset(edge)) == naive_sums(edge)
    assert set(diffset(edge)) == naive_diffs(edge)
    with pytest.raises(ResourceLimitError):
        sumset(IntegerSet(list(range(10)) + [10 ** 12]))


def test_wide_fallback_budget_bounds_its_bytes():
    import tracemalloc

    from mstd_chains import ResourceLimitError, intset

    # the per-pair estimate bounds what the fallback holds, even for the
    # largest ints it meets (sums and differences near 2**63)
    k = 300
    near_top = IntegerSet([(1 << 62) - 1 - (1 << 40) * i for i in range(k)])
    for op in (sumset, diffset):
        tracemalloc.start()
        try:
            op(near_top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= intset._PAIR_BYTES * k * (k + 1) // 2
    # 4096 elements are the fewest the 2**30-byte budget refuses, and the
    # refusal comes before the pairs are listed
    over = IntegerSet(list(range(4095)) + [10 ** 12])
    tracemalloc.start()
    try:
        for op in (sumset, diffset, profile):
            with pytest.raises(ResourceLimitError):
                op(over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def _bits_only(els) -> IntegerSet:
    """A set holding only its bit-vector, with no element tuple."""
    bits, offset = IntegerSet(els)._bitvector()
    return IntegerSet._from_bits(bits, offset)


def test_set_algebra_takes_bit_vectors_past_the_width_cap(monkeypatch):
    from mstd_chains import intset

    # the width cap bounds the run-smear kernels only: dense operands whose
    # joint window is wider still combine as bit-vectors
    monkeypatch.setattr(intset, "DENSE_DIAMETER_LIMIT", 1 << 12)
    a_els, b_els = set(range(0, 6000, 2)) | {9001}, set(range(3000, 9000, 3))
    a, b = _bits_only(a_els), _bits_only(b_els)
    assert max(a_els | b_els) - min(a_els | b_els) > intset.DENSE_DIAMETER_LIMIT
    results = [(a.union(b), a_els | b_els), (a.difference(b), a_els - b_els),
               (b.difference(a), b_els - a_els), (a.intersection(b), a_els & b_els)]
    assert a.issubset(a.union(b)) and not a.issubset(b)
    assert a._els is None and b._els is None
    for got, want in results:
        assert got._els is None
        assert got.to_list() == sorted(want)


def test_empty_bit_vector_set_equals_the_empty_set():
    empty = IntegerSet.interval(0, 5).difference(IntegerSet.interval(0, 5))
    assert empty._els is None
    assert empty == IntegerSet() and IntegerSet() == empty


def test_dense_sparse_boundary_agreement():
    from mstd_chains.intset import DENSE_DIAMETER_LIMIT

    base = [0, 3, 7, 50, 51]
    dense = IntegerSet(base + [DENSE_DIAMETER_LIMIT])      # last set on the bit path
    sparse = IntegerSet(base + [DENSE_DIAMETER_LIMIT + 1])  # first on the fallback
    for a in (dense, sparse):
        assert set(sumset(a)) == naive_sums(a)
        assert set(diffset(a)) == naive_diffs(a)


@given(sets_strategy)
def test_hull_cardinality_lower_bounds(a):
    # both hulls have at least 2|A| - 1 members, with equality exactly for
    # arithmetic progressions
    floor = 2 * len(a) - 1
    s, d = len(sumset(a)), len(diffset(a))
    assert s >= floor and d >= floor
    els = a.to_list()
    steps = {b - c for b, c in zip(els[1:], els)}
    if len(els) > 1 and len(steps) == 1:
        assert s == floor and d == floor


def test_profile_of_lazy_result_sets(conway):
    # profiles of bits-backed sets (sumset output) take the lazy path
    hull = sumset(conway)
    p = profile(hull)
    assert p.cardinality == 26
    assert p.sum_count == len(naive_sums(hull))


def _operand(els: set, kind: str) -> IntegerSet:
    """A set built from elements, or one already holding its bit-vector;
    the algebra takes the bit-vector path only for the latter."""
    out = IntegerSet(els)
    if kind == "bits":
        out._bitvector()
    return out


@example({0, 1, 2, 5, 9}, {0, 1, 3}, "bits", "bits", False)  # a - b loses a's lowest bits
@example({0, 1, 2, 5, 9}, {0, 1, 3}, "elements", "bits", True)
@given(st.sets(st.integers(-200, 200), max_size=30),
       st.sets(st.integers(-200, 200), max_size=30),
       st.sampled_from(["elements", "bits"]), st.sampled_from(["elements", "bits"]),
       st.booleans())
def test_set_operations_match_python_sets(a_els, b_els, a_kind, b_kind, wide):
    from mstd_chains.intset import DENSE_DIAMETER_LIMIT

    if wide:  # the joint window is then too wide for bit-vectors
        b_els = b_els | {DENSE_DIAMETER_LIMIT + 500}
    a, b = _operand(a_els, a_kind), _operand(b_els, b_kind)
    for got, want in ((a.union(b), a_els | b_els), (b.union(a), a_els | b_els),
                      (a.difference(b), a_els - b_els), (b.difference(a), b_els - a_els),
                      (a.intersection(b), a_els & b_els), (b.intersection(a), a_els & b_els)):
        # extremes first: once the element tuple exists, they read it instead
        assert got.is_empty == (not want)
        if want:
            assert (got.min, got.max) == (min(want), max(want))
        assert len(got) == len(want)
        assert got.to_list() == sorted(want)
    assert a.issubset(b) == (a_els <= b_els)
    assert b.issubset(a) == (b_els <= a_els)
    assert a.ispropersubset(b) == (a_els < b_els)


# ---------------------------------------------------------------------------
# refusals, edge cases, and integer arguments of the set queries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda: IntegerSet.interval((1 << 63) - 1, 1 << 63), ArithmeticRangeError,
     "interval endpoint outside signed 64-bit range"),
    (lambda: IntegerSet().min, InvalidParameterError, "empty set has no minimum"),
    (lambda: IntegerSet().max, InvalidParameterError, "empty set has no maximum"),
    (lambda: affine(IntegerSet([1 << 62]), 2, 0), ArithmeticRangeError,
     "affine image leaves signed 64-bit range"),
    (lambda: IntegerSet([1]).missing_in_interval(0, 2.5), InvalidParameterError,
     "missing_in_interval: hi must be an integer"),
], ids=["interval-range", "empty-min", "empty-max", "affine-range", "missing-at-the-call"])
def test_intset_refusals_name_their_clause(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_empty_and_out_of_window_answers():
    assert IntegerSet.interval(3, 2).is_empty
    assert affine(IntegerSet(), 2, 1).is_empty
    assert symmetry_center(IntegerSet()) is None
    a = IntegerSet([0, 1, 2])
    assert a.contains_interval(5, 4)  # vacuous
    assert not a.contains_interval(-1, 1) and not IntegerSet().contains_interval(0, 0)


# one set, built from its elements and computed on bit-vectors; it spans
# more than 64 values, so a numpy integer cannot stand in for an offset
_QUERY_SETS = (IntegerSet([*range(4), *range(5, 101)]),
               IntegerSet.interval(0, 100).difference(IntegerSet([4])))
# each query, and the parameter its argument v goes to
_QUERIES = {
    "in": (lambda a, v: v in a, "value"),
    "contains_interval": (lambda a, v: a.contains_interval(v, 5), "lo"),
    "missing_in_interval": (lambda a, v: list(a.missing_in_interval(2, v)), "hi"),
    "interval": (lambda a, v: IntegerSet.interval(v, 5), "lo"),
    "affine": (lambda a, v: affine(a, v, 0), "x"),
    "shift": (lambda a, v: a.shift(v), "y"),
}


@pytest.mark.parametrize("query", list(_QUERIES))
def test_set_queries_read_their_arguments_strictly(query):
    ask, name = _QUERIES[query]
    answers = [ask(a, 3) for a in _QUERY_SETS]
    assert answers[0] == answers[1]
    for a in _QUERY_SETS:
        assert ask(a, np.int64(3)) == answers[0]
        for bad in (True, 2.5, "3"):
            with pytest.raises(InvalidParameterError, match=f": {name} must be an integer"):
                ask(a, bad)
