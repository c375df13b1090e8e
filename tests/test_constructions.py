import random
import time
import tracemalloc

import numpy as np
import pytest

from mstd_chains import (Classification, ConditionReport, IntegerSet,
                         InvalidParameterError, affine,
                         check_thm31_conditions, classify, diffset,
                         fill1_chain, fill2_chain, from_config,
                         interval_minus_point, is_pn, mdts_interval_plus_point,
                         miller_mstd, nathanson_mstd, nonfill_explicit_mdts,
                         nonfill_explicit_mstd, profile, sumset,
                         symmetry_center, thm31_base, thm31_chain)
from mstd_chains import constructions

from .conftest import (FILL2_L, FILL2_N, FILL2_R, THM31_GENERAL, THM31_STRICT,
                       naive_diffs, naive_sums, run_python)


# ---------------------------------------------------------------------------
# interval minus a point
# ---------------------------------------------------------------------------

def test_interval_minus_point_example():
    b = interval_minus_point(19, 16)
    assert b.to_list() == [x for x in range(19) if x != 16]


def test_interval_minus_point_smallest_legal():
    b = interval_minus_point(5, 2)
    assert b.to_list() == [0, 1, 3, 4]
    assert naive_sums(b) == set(range(0, 9))
    assert naive_diffs(b) == set(range(-4, 5))


@pytest.mark.parametrize("m,r", [(5, 4), (5, 1), (3, 2), (4, 2)])
def test_interval_minus_point_rejects(m, r):
    # m=4 leaves no legal r at all: 2 <= r <= 1 is empty
    with pytest.raises(InvalidParameterError):
        interval_minus_point(m, r)
    # every parameter is an integer: never a float, a bool or a string
    for bad in [(m + 0.0, 2), (m, True), (str(m), 2)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            interval_minus_point(*bad)
    assert interval_minus_point(np.int64(19), np.int32(16)) == interval_minus_point(19, 16)


def test_interval_minus_point_hulls_small_sweep():
    for m in range(5, 25):
        for r in range(2, m - 2):
            b = interval_minus_point(m, r)
            assert naive_sums(b) == set(range(0, 2 * m - 1)), (m, r)
            assert naive_diffs(b) == set(range(-(m - 1), m)), (m, r)


# ---------------------------------------------------------------------------
# interval-with-hole MSTD construction
# ---------------------------------------------------------------------------

def test_nathanson_reference_parameters():
    a = nathanson_mstd(19, interval_minus_point(19, 16), IntegerSet([16]), 2)
    assert IntegerSet([22, 41]).issubset(a)      # the ladder
    assert a.max == 63                            # the mirror apex
    assert (len(a), a.diameter) == (39, 63)
    assert len(naive_sums(a)) == 126
    assert len(naive_diffs(a)) == 125


def test_nathanson_small_parameters():
    a = nathanson_mstd(5, IntegerSet([0, 1, 3, 4]), IntegerSet([2]), 2)
    assert a.to_list() == [0, 1, 3, 4, 5, 8, 13, 17, 18, 20, 21]
    assert len(naive_sums(a)) > len(naive_diffs(a))


def test_nathanson_rejects_small_k():
    with pytest.raises(InvalidParameterError, match="k"):
        nathanson_mstd(19, interval_minus_point(19, 16), IntegerSet([16]), 1)
    for m, k in [(19.0, 2), (19, 2.0), (19, True), ("19", 2)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            nathanson_mstd(m, interval_minus_point(19, 16), IntegerSet([16]), k)
    assert nathanson_mstd(np.int64(19), interval_minus_point(19, 16),
                          IntegerSet([16]), np.int8(2)).max == 63


def test_nathanson_names_failed_clause():
    with pytest.raises(InvalidParameterError, match="B\\+B"):
        nathanson_mstd(6, IntegerSet([0, 5]), IntegerSet([2]), 2)
    with pytest.raises(InvalidParameterError, match="lstar"):
        nathanson_mstd(5, IntegerSet([0, 1, 3, 4]), IntegerSet([3]), 2)


# ---------------------------------------------------------------------------
# interval-plus-point MDTS construction
# ---------------------------------------------------------------------------

def test_mdts_reference_row():
    a, surplus = mdts_interval_plus_point(14, 17)
    assert surplus == 2
    assert len(naive_sums(a)) == 33
    assert len(naive_diffs(a)) == 35


def test_mdts_disjoint_case():
    a, surplus = mdts_interval_plus_point(2, 10)
    assert surplus == 2
    assert len(naive_sums(a)) == 9    # 3m + 3
    assert len(naive_diffs(a)) == 11  # 4m + 3


def test_mdts_minimal_case():
    a, surplus = mdts_interval_plus_point(1, 3)
    assert a.to_list() == [0, 1, 3]
    assert surplus == 1


def test_mdts_rejects_close_point():
    with pytest.raises(InvalidParameterError):
        mdts_interval_plus_point(14, 15)
    with pytest.raises(InvalidParameterError):
        mdts_interval_plus_point(0, 5)
    # True was read as m = 1, with the surplus True
    for m, p in [(True, 10), (14.0, 17), (14, "17")]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            mdts_interval_plus_point(m, p)


def test_mdts_surplus_small_sweep():
    for m in range(1, 16):
        for p in range(m + 2, 3 * m + 4):
            a, surplus = mdts_interval_plus_point(m, p)
            assert len(naive_diffs(a)) - len(naive_sums(a)) == surplus, (m, p)


# ---------------------------------------------------------------------------
# fringe-preserving stretch construction
# ---------------------------------------------------------------------------

def test_miller_matches_shifted_chain_step():
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    out = miller_mstd(L, R, n=FILL2_N, k=10, m=1)
    expected = (
        set(FILL2_L) | set(range(11, 32)) - {21} | {x + 21 for x in FILL2_R}
    )
    assert set(out) == expected
    assert classify(out) == Classification.MSTD


def test_miller_longer_stretch_is_mstd():
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    out = miller_mstd(L, R, n=FILL2_N, k=20, m=1)
    assert len(naive_sums(out)) > len(naive_diffs(out))


def test_miller_rejects_short_k():
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    with pytest.raises(InvalidParameterError, match="k"):
        miller_mstd(L, R, n=FILL2_N, k=9, m=1)
    for n, k, m in [(10.0, 10, 1), (10, True, 1), (10, 10, "1"), (10, 10, True)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            miller_mstd(L, R, n=n, k=k, m=m)


def test_miller_middle_constraints():
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    with pytest.raises(InvalidParameterError, match="n\\+k\\+1"):
        miller_mstd(L, R, n=10, k=10, m=3, middle=IntegerSet([21]))
    with pytest.raises(InvalidParameterError, match="run"):
        # an 11-hole run inside the window exceeds k = 10
        miller_mstd(L, R, n=10, k=10, m=12, middle=IntegerSet([32]))
    out = miller_mstd(L, R, n=10, k=10, m=12, middle=IntegerSet([22, 32]))
    assert classify(out) == Classification.MSTD


def test_miller_middle_runs_are_walked_not_listed():
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    # an empty window of exactly k holes passes, one of k + 1 is refused
    assert classify(miller_mstd(L, R, n=10, k=10, m=10)) == Classification.MSTD
    with pytest.raises(InvalidParameterError, match="run"):
        miller_mstd(L, R, n=10, k=10, m=11)
    # a middle of 2 * 10**6 elements is checked by its runs; listing them
    # peaked at 107.9 MiB
    m = 2 * 10**6 + 1
    middle = IntegerSet.interval(22, 20 + m)
    tracemalloc.start()
    try:
        out = miller_mstd(L, R, n=10, k=10, m=m, middle=middle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(middle) + 31
    assert peak < 8 << 20


def test_miller_empty_window():
    # m = 0: no middle window at all, the two filled blocks are adjacent
    L, R = IntegerSet(FILL2_L), IntegerSet(FILL2_R)
    out = miller_mstd(L, R, n=10, k=10, m=0)
    assert out.contains_interval(11, 30)
    assert classify(out) == Classification.MSTD
    with pytest.raises(InvalidParameterError, match="middle"):
        miller_mstd(L, R, n=10, k=10, m=0, middle=IntegerSet([21]))


# ---------------------------------------------------------------------------
# explicit non-filling-in constructions
# ---------------------------------------------------------------------------

def test_nonfill_mstd_first_steps():
    a1 = nonfill_explicit_mstd(1)
    assert a1.to_list() == [0, 1, 2, 5, 8, 9, 10, 14, 15, 17, 18]
    assert (len(naive_sums(a1)), len(naive_diffs(a1))) == (36, 35)
    a2 = nonfill_explicit_mstd(2)
    assert (len(a2), a2.diameter) == (15, 26)
    a3 = nonfill_explicit_mstd(3)
    assert (len(a3), a3.diameter) == (19, 34)
    assert (len(naive_sums(a3)), len(naive_diffs(a3))) == (68, 67)


def test_nonfill_mdts_first_steps():
    b1 = nonfill_explicit_mdts(1)
    assert b1.difference(nonfill_explicit_mstd(1)).to_list() == [22]
    assert (len(naive_sums(b1)), len(naive_diffs(b1))) == (40, 41)
    b2 = nonfill_explicit_mdts(2)
    assert b2.max == 30 and (len(b2), b2.diameter) == (16, 30)
    b3 = nonfill_explicit_mdts(3)
    assert (len(naive_sums(b3)), len(naive_diffs(b3))) == (72, 73)


def test_nonfill_identities_sample():
    for l in (1, 4, 9):
        a = nonfill_explicit_mstd(l)
        assert naive_sums(a) == set(range(0, 16 * l + 21)) - {21}
        missing = set(range(-8 * l - 10, 8 * l + 11)) - naive_diffs(a)
        assert missing == {8 * l + 3, -(8 * l + 3)}
        b = nonfill_explicit_mdts(l)
        assert naive_sums(b) - naive_sums(a) == {16 * l + 21, 16 * l + 23,
                                                 16 * l + 24, 16 * l + 28}
        assert len(naive_diffs(b) - naive_diffs(a)) == 6


# the constructions whose identity checks have no switch, with valid arguments
_IDENTITY_CHECKED = (("interval_minus_point", (19, 16)),
                     ("nonfill_explicit_mstd", (3,)), ("nonfill_explicit_mdts", (3,)))


@pytest.mark.parametrize("engine", ["sumset", "diffset"])
def test_identity_checks_catch_a_wrong_engine(monkeypatch, engine):
    real = getattr(constructions, engine)
    # one element short: 0 is in A+A and in A-A for every set here
    monkeypatch.setattr(constructions, engine,
                        lambda a: real(a).difference(IntegerSet([0])))
    for name, args in _IDENTITY_CHECKED:
        with pytest.raises(AssertionError, match=f"^{name}: .*identity failed$"):
            getattr(constructions, name)(*args)


def test_identity_checks_hold_under_optimize():
    # asserts vanish under -O; the identity checks must not
    script = ("from mstd_chains import IntegerSet, constructions as c\n"
              f"cases = {_IDENTITY_CHECKED!r}\n"
              "for engine in ('sumset', 'diffset'):\n"
              "    real = getattr(c, engine)\n"
              "    setattr(c, engine, lambda a: real(a).difference(IntegerSet([0])))\n"
              "    for name, args in cases:\n"
              "        try:\n"
              "            getattr(c, name)(*args)\n"
              "        except AssertionError as exc:\n"
              "            print(exc)\n"
              "    setattr(c, engine, real)\n")
    done = run_python("-O", "-c", script)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == [
        "interval_minus_point: sum hull identity failed",
        "nonfill_explicit_mstd: sumset identity failed",
        "nonfill_explicit_mdts: sum count identity failed",
        "interval_minus_point: difference hull identity failed",
        "nonfill_explicit_mstd: difference-set identity failed",
        "nonfill_explicit_mdts: difference count identity failed",
    ]


def test_nonfill_rejects_zero():
    with pytest.raises(InvalidParameterError):
        nonfill_explicit_mstd(0)
    with pytest.raises(InvalidParameterError):
        nonfill_explicit_mdts(0)
    for build in (nonfill_explicit_mstd, nonfill_explicit_mdts):
        for l in (1.0, True, "1"):
            with pytest.raises(InvalidParameterError, match="must be an integer"):
                build(l)


# ---------------------------------------------------------------------------
# fringe-pair conditions and base set
# ---------------------------------------------------------------------------

def test_conditions_generalized_pass():
    report = check_thm31_conditions(IntegerSet(THM31_GENERAL["L"]),
                                    IntegerSet(THM31_GENERAL["R"]),
                                    THM31_GENERAL["n"], mode="generalized")
    assert report.passed and bool(report)


def test_conditions_strict_fail_names_witness():
    report = check_thm31_conditions(IntegerSet(THM31_GENERAL["L"]),
                                    IntegerSet(THM31_GENERAL["R"]),
                                    THM31_GENERAL["n"], mode="strict")
    assert not report.passed
    assert report.missing["L+L"] == [5]
    assert report.missing_count == {"L+L": 1, "R+R": 0, "L+R": 1}
    assert any("L+L" in f for f in report.failures)


def test_conditions_strict_pass():
    report = check_thm31_conditions(IntegerSet(THM31_STRICT["L"]),
                                    IntegerSet(THM31_STRICT["R"]),
                                    THM31_STRICT["n"], mode="strict")
    assert report.passed
    assert report.missing["L+R"] == [7]


def _naive_condition_reports(L, R, n):
    """The condition report of each mode, from full gap lists of naive sums."""
    sums = {"L+L": naive_sums(L), "R+R": naive_sums(R), "L+R": {a + b for a in L for b in R}}
    full = {label: [v for v in range(n) if v not in S] for label, S in sums.items()}
    count = {label: len(gaps) for label, gaps in full.items()}
    first = {label: gaps[:10] for label, gaps in full.items()}
    both = [] if n in L and n in R else ["n must be in both L and R"]
    strict = both + [f"[0, n-1] not covered by {label} "
                     f"(missing {constructions._describe(count[label], first[label])})"
                     for label in ("L+L", "R+R") if count[label]]
    if not count["L+R"]:
        strict.append("[0, n-1] must not be fully covered by L+R")
    general = both + ([] if count["L+L"] < 2 * count["L+R"] else
                      [f"need |missing from L+L| < 2 * |missing from L+R| "
                       f"({count['L+L']} vs {count['L+R']})"])
    return {mode: ConditionReport(not failures, tuple(failures), first, count)
            for mode, failures in (("strict", strict), ("generalized", general))}


def test_bounded_missing_agrees_with_the_full_list():
    rng = random.Random(5)
    for _ in range(2000):
        a = IntegerSet(rng.sample(range(-20, 60), rng.randint(0, 40)))
        lo = rng.randint(-30, 60)
        hi = lo + rng.randint(0, 50)
        full = list(a.missing_in_interval(lo, hi))
        assert constructions._missing(a, lo, hi) == (len(full), full[:10])
    # the three fringe sums, read from one sumset, against naive pair sums
    for _ in range(3000):
        n = rng.randint(1, 40)
        L, R = (rng.sample(range(n + 1), rng.randint(1, n + 1)) for _ in "LR")
        for mode, want in _naive_condition_reports(L, R, n).items():
            got = check_thm31_conditions(IntegerSet(L), IntegerSet(R), n, mode)
            assert got == want, (L, R, n, mode)
            assert list(got.missing) == list(got.missing_count) == ["L+L", "R+R", "L+R"]


def test_conditions_cost_does_not_grow_with_the_pairs():
    # 3001 * 3001 pairs of L+R; one sumset of a 9000-wide union covers all three sums
    full = IntegerSet.interval(0, 3000)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        report = check_thm31_conditions(full, full, 3000)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 16 << 20, (elapsed, peak)
    assert report.missing_count == {"L+L": 0, "R+R": 0, "L+R": 0}
    assert report.failures == ("[0, n-1] must not be fully covered by L+R",)


def test_conditions_on_full_intervals_walk_runs_not_elements():
    # the sumset of two intervals is about 6n values in a few runs; the
    # missing counts come from its runs, not from listing it
    n = 10**6
    full = IntegerSet.interval(0, n)
    tracemalloc.start()
    try:
        report = check_thm31_conditions(full, full, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert report == ConditionReport(
        passed=False, failures=("[0, n-1] must not be fully covered by L+R",),
        missing={"L+L": [], "R+R": [], "L+R": []},
        missing_count={"L+L": 0, "R+R": 0, "L+R": 0})


def test_conditions_bound_their_witnesses():
    # every value of [1, n-1] is missing from each sum combination
    n = 10**6
    tracemalloc.start()
    try:
        report = check_thm31_conditions(IntegerSet([0, n]), IntegerSet([0, n]), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the run scan reads the sumset's bytes, not a bin() string of its bits
    assert peak < 5 << 20, f"peak {peak / 2**20:.1f} MiB"
    assert report.missing == {label: list(range(1, 11)) for label in ("L+L", "R+R", "L+R")}
    assert report.missing_count == {"L+L": n - 1, "R+R": n - 1, "L+R": n - 1}
    assert report.failures[0] == ("[0, n-1] not covered by L+L (missing 999999 values, "
                                  "first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])")
    assert max(map(len, report.failures)) < 200


def test_conditions_reject_out_of_window():
    with pytest.raises(InvalidParameterError):
        check_thm31_conditions(IntegerSet([0, 9]), IntegerSet([0, 8]), 8)
    for n in (8.0, True, "8"):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            check_thm31_conditions(IntegerSet([0, 8]), IntegerSet([0, 8]), n)


def test_thm31_base_strict_equals_nonfill_start():
    a = thm31_base(IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"]),
                   THM31_STRICT["n"], THM31_STRICT["m"])
    assert a == nonfill_explicit_mstd(1)


def test_thm31_base_generalized():
    a = thm31_base(IntegerSet(THM31_GENERAL["L"]), IntegerSet(THM31_GENERAL["R"]),
                   THM31_GENERAL["n"], THM31_GENERAL["m"], mode="generalized")
    assert a.to_list() == [0, 1, 3, 7, 8, 11, 13, 14, 15]
    assert len(naive_sums(a)) > len(naive_diffs(a))


def test_thm31_base_rejects_small_m():
    with pytest.raises(InvalidParameterError, match="m"):
        thm31_base(IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"]),
                   THM31_STRICT["n"], 7)
    for n, m in [(8.0, 10), (8, 10.0), (8, True), ("8", 10)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            thm31_base(IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"]), n, m)


def test_thm31_base_rejects_failing_conditions():
    with pytest.raises(InvalidParameterError, match="conditions"):
        thm31_base(IntegerSet(THM31_GENERAL["L"]), IntegerSet(THM31_GENERAL["R"]),
                   THM31_GENERAL["n"], THM31_GENERAL["m"], mode="strict")


# ---------------------------------------------------------------------------
# JSON parameter bundles
# ---------------------------------------------------------------------------

def test_from_config_dispatch():
    a = from_config({"construction": "mdts_interval_plus_point", "m": 14, "p": 17})
    assert a == IntegerSet.interval(0, 14).union(IntegerSet([17]))
    b = from_config({"construction": "interval_minus_point", "m": 19, "r": 16})
    assert b == interval_minus_point(19, 16)
    c = from_config({"construction": "nathanson_mstd", "m": 19,
                     "B": b.to_list(), "lstar": [16], "k": 2})
    assert c.max == 63
    d = from_config({"construction": "thm31_base",
                     "L": list(THM31_STRICT["L"]), "R": list(THM31_STRICT["R"]),
                     "n": 8, "m": 10})
    assert d == nonfill_explicit_mstd(1)
    e = from_config({"construction": "miller_mstd", "L": list(FILL2_L),
                     "R": list(FILL2_R), "n": FILL2_N, "k": 10, "m": 1})
    assert e == miller_mstd(IntegerSet(FILL2_L), IntegerSet(FILL2_R), FILL2_N, 10, 1)
    f = from_config({"construction": "nonfill_explicit_mstd", "l": 2})
    assert f == nonfill_explicit_mstd(2)
    g = from_config({"construction": "nonfill_explicit_mdts", "l": 2})
    assert g == nonfill_explicit_mdts(2)


def test_from_config_unknown():
    with pytest.raises(InvalidParameterError):
        from_config({"construction": "unheard_of"})
    with pytest.raises(InvalidParameterError):
        from_config({"m": 14, "p": 17})


# ---------------------------------------------------------------------------
# set-valued parameters
# ---------------------------------------------------------------------------

_LIST = [0, 1, 3]
_B = IntegerSet([0, 1, 3, 4])


@pytest.mark.parametrize("call, message", [
    (lambda: profile(_LIST), "profile: a"),
    (lambda: sumset(_LIST), "sumset: a"),
    (lambda: diffset(_LIST), "diffset: a"),
    (lambda: classify(_LIST), "classify: a"),
    (lambda: symmetry_center(_LIST), "symmetry_center: a"),
    (lambda: affine(_LIST, 1, 0), "affine: a"),
    (lambda: is_pn(_LIST, 0), "is_pn: a"),
    (lambda: nathanson_mstd(5, _LIST, IntegerSet([2]), 2), "nathanson_mstd: B"),
    (lambda: nathanson_mstd(5, _B, _LIST, 2), "nathanson_mstd: lstar"),
    (lambda: miller_mstd(_LIST, IntegerSet(FILL2_R), FILL2_N, 10, 1), "miller_mstd: L"),
    (lambda: miller_mstd(IntegerSet(FILL2_L), IntegerSet(FILL2_R), FILL2_N, 10, 1, _LIST),
     "miller_mstd: middle"),
    (lambda: check_thm31_conditions(_LIST, IntegerSet([0, 8]), 8),
     "check_thm31_conditions: L"),
    (lambda: thm31_base(IntegerSet(THM31_STRICT["L"]), _LIST, 8, 10), "thm31_base: R"),
    (lambda: fill1_chain(_LIST, 3), "fill1_chain: seed"),
    (lambda: fill2_chain(IntegerSet(FILL2_L), _LIST, FILL2_N, 3), "fill2_chain: R"),
    (lambda: thm31_chain(_LIST, IntegerSet(THM31_STRICT["R"]), 8, 10, 3), "thm31_chain: L"),
])
def test_set_parameters_must_be_integer_sets(call, message):
    # a list has no is_empty, which used to surface as a bare AttributeError
    with pytest.raises(InvalidParameterError, match=f"^{message} must be an IntegerSet, not list"):
        call()


# ---------------------------------------------------------------------------
# every refused hypothesis names its clause
# ---------------------------------------------------------------------------

_B19 = IntegerSet(x for x in range(19) if x not in (9, 10))  # full hulls, two holes
# full sumset [0, 48] but difference set missing +-17
_B25 = IntegerSet([0, 1, 3, 4, *range(8, 17), 19, 22, 23, 24])
_FILL2 = IntegerSet(FILL2_L), IntegerSet(FILL2_R)


def _nathanson(m, B, lstar):
    return lambda: nathanson_mstd(m, B, lstar, 2)


@pytest.mark.parametrize("call, message", [
    (_nathanson(3, IntegerSet([0, 1, 2]), IntegerSet([1])), "nathanson_mstd: m must be >= 4"),
    (_nathanson(5, IntegerSet([0, 1, 3, 5]), IntegerSet([2])),
     r"nathanson_mstd: B must lie inside \[0, m-1\]"),
    (_nathanson(25, _B25, IntegerSet([5])), r"nathanson_mstd: B-B must equal"),
    (_nathanson(5, IntegerSet([0, 1, 3, 4]), IntegerSet()), "nathanson_mstd: lstar must be nonempty"),
    (_nathanson(19, _B19, IntegerSet([10])), r"nathanson_mstd: min\(lstar\) - 1 must be in B"),
    (_nathanson(19, _B19, IntegerSet([9, 10])), r"nathanson_mstd: m must not be in lstar \+ lstar"),
    (lambda: miller_mstd(*_FILL2, 0, 10, 1), "miller_mstd: n must be >= 1"),
    (lambda: miller_mstd(IntegerSet([0, 3]), _FILL2[1], FILL2_N, 10, 1),
     r"miller_mstd: L must be a nonempty subset of \[1, n\]"),
    (lambda: miller_mstd(_FILL2[0], IntegerSet([5, 12]), FILL2_N, 10, 1),
     r"miller_mstd: R must be a nonempty subset of \[n\+1, 2n\]"),
    (lambda: miller_mstd(IntegerSet([1]), IntegerSet([20]), 10, 10, 1),
     r"miller_mstd: L \| R must have complete hulls"),
    (lambda: miller_mstd(*_FILL2, FILL2_N, 10, -1), "miller_mstd: m must be >= 0"),
    (lambda: check_thm31_conditions(IntegerSet([0, 8]), IntegerSet([0, 8]), 8, mode="loose"),
     "check_thm31_conditions: mode must be 'strict' or 'generalized'"),
    (lambda: check_thm31_conditions(IntegerSet([0]), IntegerSet([0]), 0),
     "check_thm31_conditions: n must be >= 1"),
], ids=["nathanson-m", "nathanson-B-window", "nathanson-B-B", "nathanson-lstar-empty",
        "nathanson-lstar-predecessor", "nathanson-lstar-sums", "fringe-n", "fringe-L",
        "fringe-R", "fringe-hulls", "miller-m", "thm31-mode", "thm31-n"])
def test_construction_refusals_name_their_clause(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        call()
