import json
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mstd_chains import (ArithmeticRangeError, ChainBreakError, ChainRecord, ChainStep,
                         Classification, IntegerSet, InvalidParameterError,
                         chain_from_json, chain_to_json,
                         fill1_chain, fill2_chain, interval_minus_point,
                         mdts_interval_plus_point, miller_mstd, nathanson_mstd,
                         nonfill_chain, nonfill_explicit_mstd, oracle_profile,
                         profile, thm31_chain, verify_chain)
from mstd_chains import chains as chains_module
from mstd_chains import constructions

from .conftest import THM31_GENERAL, THM31_STRICT, run_python

TABLE1 = {
    "sums": (26, 33, 126, 130, 414, 418, 1278),
    "diffs": (25, 35, 125, 131, 413, 419, 1277),
    "cards": (8, 16, 39, 65, 135, 209, 423),
    "diams": (14, 17, 63, 65, 207, 209, 639),
}

TABLE2 = {
    "sums": (38, 52, 80, 92, 120, 132, 160),
    "diffs": (37, 61, 79, 101, 119, 141, 159),
    "cards": (11, 21, 31, 41, 51, 61, 71),
}

TABLE3 = {
    "cards": (11, 12, 15, 16, 19, 20, 23),
    "diams": (18, 22, 26, 30, 34, 38, 42),
}


def _columns(record):
    profs = [s.profile for s in record.steps]
    return {
        "sums": tuple(p.sum_count for p in profs),
        "diffs": tuple(p.diff_count for p in profs),
        "cards": tuple(p.cardinality for p in profs),
        "diams": tuple(p.diameter for p in profs),
    }


# ---------------------------------------------------------------------------
# fill-in method 1
# ---------------------------------------------------------------------------

def test_fill1_reproduces_reference_profiles(conway):
    record = fill1_chain(conway, 7)
    got = _columns(record)
    for key, want in TABLE1.items():
        assert got[key] == want, key


def test_fill1_single_step_is_seed(conway):
    record = fill1_chain(conway, 1)
    assert record.steps[0].set == conway
    p = record.steps[0].profile
    assert (p.sum_count, p.diff_count) == (26, 25)


def test_fill1_rejects_non_mstd_seed():
    with pytest.raises(InvalidParameterError, match="MSTD"):
        fill1_chain(IntegerSet([1, 2, 3]), 3)


def test_fill1_normalizes_translation(conway):
    shifted = IntegerSet([x - 7 for x in conway])
    record = fill1_chain(shifted, 3)
    assert record.steps[0].set.min == 0
    assert _columns(record)["sums"] == (26, 33, 126)


def test_fill1_oracle_reclassification(conway):
    record = fill1_chain(conway, 4)
    want = [Classification.MSTD, Classification.MDTS,
            Classification.MSTD, Classification.MDTS]
    for step, expected in zip(record.steps, want):
        assert oracle_profile(step.set).classification == expected
    for prev, cur in zip(record.steps, record.steps[1:]):
        assert prev.set.ispropersubset(cur.set)


def test_fill1_steps_equal_the_checked_constructions(conway):
    # the chain builds its steps unchecked; the public constructions check
    # every hypothesis and postcondition on the same parameters
    steps = [step.set for step in fill1_chain(conway, 12).steps]
    for i in range(1, len(steps)):
        top = steps[i - 1].max
        if i % 2:  # MDTS: [0, top] and the least odd point past top + 1
            want = mdts_interval_plus_point(top, top + 3 - top % 2)[0]
        else:  # MSTD: the interval [0, top + 1] with its hole at top - 1
            n = top + 2
            want = nathanson_mstd(n, interval_minus_point(n, n - 3), IntegerSet([n - 3]), 2)
        assert steps[i] == want, i + 1


# ---------------------------------------------------------------------------
# fill-in method 2
# ---------------------------------------------------------------------------

def test_fill2_reproduces_reference_profiles(fill2_seed):
    L, R, n = fill2_seed
    record = fill2_chain(L, R, n, 7)
    got = _columns(record)
    for key, want in TABLE2.items():
        assert got[key] == want, key
    assert got["diams"] == (19, 30, 40, 50, 60, 70, 80)


def test_fill2_third_step_exact(fill2_seed):
    L, R, n = fill2_seed
    record = fill2_chain(L, R, n, 3)
    expected = (
        {-10, -8, -7, -3, -2}
        | (set(range(0, 21)) - {10})
        | {22, 23, 25, 28, 29, 30}
    )
    assert set(record.steps[2].set) == expected


def test_fill2_diameter_increments(fill2_seed):
    L, R, n = fill2_seed
    record = fill2_chain(L, R, n, 20)
    diams = [s.profile.diameter for s in record.steps]
    assert all(b - a == n for a, b in zip(diams[1:], diams[2:]))


def test_fill2_odd_steps_match_stretch_construction(fill2_seed):
    # the re-fringed steps are shifted copies of the stretch generator output
    L, R, n = fill2_seed
    record = fill2_chain(L, R, n, 9)
    for l in (1, 2, 3, 4):
        step = record.steps[2 * l].set
        stretched = miller_mstd(L, R, n=n, k=l * n, m=1)
        assert step.shift(l * n + 1) == stretched, l


def test_fill2_precondition_diagnostics(fill2_seed):
    L, R, n = fill2_seed
    with pytest.raises(InvalidParameterError, match="1 must be"):
        fill2_chain(IntegerSet([3, 4, 8, 9]), R, n, 3)
    with pytest.raises(InvalidParameterError, match="2n"):
        fill2_chain(L, IntegerSet([12, 13, 15, 18, 19]), n, 3)
    with pytest.raises(InvalidParameterError, match="n must not"):
        fill2_chain(L.union(IntegerSet([10])), R, n, 3)
    with pytest.raises(InvalidParameterError, match="MSTD"):
        # hull-complete but balanced: the full window minus its midpoint
        fill2_chain(IntegerSet.interval(1, 9), IntegerSet.interval(11, 20), n, 3)
    # "10" used to fail inside a comparison with a bare TypeError
    for bad_n in ("10", 10.0, True):
        with pytest.raises(InvalidParameterError, match="fill2_chain: n must be an integer"):
            fill2_chain(L, R, bad_n, 3)


# ---------------------------------------------------------------------------
# explicit non-filling-in chain
# ---------------------------------------------------------------------------

def test_nonfill_reproduces_reference_profiles():
    record = nonfill_chain(7)
    got = _columns(record)
    for key, want in TABLE3.items():
        assert got[key] == want, key
    assert record.no_fill_in_required


def test_nonfill_two_steps():
    record = nonfill_chain(2)
    a1, a2 = (step.set for step in record.steps)
    assert a2.difference(a1).to_list() == [22]


def test_nonfill_verifies_clean():
    report = verify_chain(nonfill_chain(7))
    assert report.passed
    assert [c.name for c in report.checks] == ["profiles", "nesting",
                                               "alternation", "no_fill_in"]


def test_nonfill_builds_each_mstd_step_once(monkeypatch):
    calls = []
    build = constructions._nonfill_mstd

    def counting(l):
        calls.append(l)
        return build(l)

    monkeypatch.setattr(chains_module, "_nonfill_mstd", counting)
    monkeypatch.setattr(constructions, "_nonfill_mstd", counting)
    nonfill_chain(10)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# fringe-shift chain
# ---------------------------------------------------------------------------

def test_thm31_strict_odd_steps_equal_explicit_sequence():
    record = thm31_chain(IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"]),
                         THM31_STRICT["n"], THM31_STRICT["m"], 5)
    for i, step in enumerate(record.steps):
        if step.index % 2 == 1:
            assert step.set == nonfill_explicit_mstd((step.index + 1) // 2)
    assert record.no_fill_in_required
    assert verify_chain(record).passed


def test_thm31_generalized_runs():
    record = thm31_chain(IntegerSet(THM31_GENERAL["L"]), IntegerSet(THM31_GENERAL["R"]),
                         THM31_GENERAL["n"], THM31_GENERAL["m"], 3,
                         mode="generalized")
    classes = [s.profile.classification for s in record.steps]
    assert classes == [Classification.MSTD, Classification.MDTS,
                       Classification.MSTD]
    for step in record.steps:
        assert oracle_profile(step.set).classification == step.profile.classification


def test_thm31_generalized_odd_steps_are_classified():
    # the four generalized pairs at n = 7 whose base is MSTD, with the least
    # admissible m: two run 21 steps, and two break at a balanced step 3
    for L, R, m in [(THM31_GENERAL["L"], THM31_GENERAL["R"], THM31_GENERAL["m"]),
                    ((0, 2, 3, 7), (0, 2, 3, 4, 7), 7)]:
        record = thm31_chain(IntegerSet(L), IntegerSet(R), 7, m, 21, mode="generalized")
        assert verify_chain(record).passed
    for L, R, m in [((0, 1, 2, 4, 7), (0, 1, 3, 7), 8), ((0, 2, 3, 4, 7), (0, 2, 3, 7), 7)]:
        with pytest.raises(ChainBreakError, match="step 3 classifies BALANCED") as info:
            thm31_chain(IntegerSet(L), IntegerSet(R), 7, m, 3, mode="generalized")
        assert info.value.step_index == 3
        assert len(thm31_chain(IntegerSet(L), IntegerSet(R), 7, m, 2,
                               mode="generalized").steps) == 2


def test_thm31_rejects_failing_conditions():
    with pytest.raises(InvalidParameterError):
        thm31_chain(IntegerSet(THM31_GENERAL["L"]), IntegerSet(THM31_GENERAL["R"]),
                    THM31_GENERAL["n"], THM31_GENERAL["m"], 3, mode="strict")
    L, R = IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"])
    for n, m, steps in [(8.0, 10, 3), (8, "10", 3), (8, 10, True), (8, 10, 3.0)]:
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            thm31_chain(L, R, n, m, steps)


def test_thm31_interposer_needs_room():
    # a single fresh element leaves no room for a set strictly in between
    assert chains_module._mdts_interposer(IntegerSet([0, 1, 2]),
                                          IntegerSet([0, 1, 2, 50])) is None


def test_thm31_chain_break_is_reported(monkeypatch):
    monkeypatch.setattr(chains_module, "_mdts_interposer", lambda a, b: None)
    with pytest.raises(ChainBreakError) as info:
        thm31_chain(IntegerSet(THM31_STRICT["L"]), IntegerSet(THM31_STRICT["R"]),
                    THM31_STRICT["n"], THM31_STRICT["m"], 5)
    assert info.value.step_index == 2


def _strict_fringe_passers(n_max):
    """Every (n, L, R) with n <= n_max passing the strict conditions."""
    out = []
    for n in range(1, n_max + 1):
        window = set(range(n))
        pool = [frozenset(x for i, x in enumerate(range(n)) if (bits >> i) & 1) | {n}
                for bits in range(1 << n)]
        covering = [s for s in pool
                    if window <= {a + b for a in s for b in s}]
        for L in covering:
            for R in covering:
                if not window <= {a + b for a in L for b in R}:
                    out.append((n, tuple(sorted(L)), tuple(sorted(R))))
    return out


def test_thm31_exhaustive_strict_sweep():
    """Every strict passer up to n = 10 behaves as constructed.

    The odd-step recurrence must always give nested MSTD sets growing
    beyond the previous maximum; full alternating chains verify wherever a
    gap-safe MDTS interposer exists, and exactly three parameterizations
    are known to have none at the first even step.
    """
    from mstd_chains import affine, classify, thm31_base

    passers = _strict_fringe_passers(10)
    assert len(passers) == 32

    broken = []
    for n, L, R in passers:
        m = None
        for candidate in range(n, 3 * n + 6):
            try:
                current = thm31_base(IntegerSet(L), IntegerSet(R), n, candidate)
            except InvalidParameterError:
                continue
            m = candidate
            break
        assert m is not None, (n, L, R)

        previous = None
        for k in range(1, 5):
            assert classify(current) == Classification.MSTD, (n, L, R, k)
            if previous is not None:
                assert previous.ispropersubset(current)
                assert current.difference(previous).min > previous.max
            previous = current
            current = current.union(affine(IntegerSet(R), -1, m + (k + 1) * n))

        try:
            record = thm31_chain(IntegerSet(L), IntegerSet(R), n, m, 7)
        except ChainBreakError as exc:
            assert exc.step_index == 2
            broken.append((n, L, R))
            continue
        assert record.no_fill_in_required
        assert verify_chain(record).passed, (n, L, R)

    assert broken == [
        (10, (0, 1, 2, 4, 5, 10), (0, 1, 2, 3, 6, 10)),
        (10, (0, 1, 2, 5, 8, 10), (0, 1, 3, 4, 8, 10)),
        (10, (0, 1, 3, 4, 8, 9, 10), (0, 1, 2, 5, 8, 9, 10)),
    ]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_flags_fill_in(conway):
    record = fill1_chain(conway, 4)
    assert verify_chain(record).passed           # no-fill-in not required
    forced = verify_chain(replace(record, no_fill_in_required=True))
    assert not forced.passed
    failing = {c.name for c in forced.checks if not c.passed}
    assert failing == {"no_fill_in"}
    witness = next(c for c in forced.checks if c.name == "no_fill_in").witnesses[0]
    assert "step 1" in witness and "1" in witness


def test_verify_detects_repeated_set(conway):
    base = fill1_chain(conway, 2)
    repeated = ChainRecord(method="fill1",
                           steps=(base.steps[0], base.steps[0], base.steps[1]))
    report = verify_chain(repeated)
    assert not report.passed
    assert not next(c for c in report.checks if c.name == "nesting").passed
    assert not next(c for c in report.checks if c.name == "alternation").passed


def test_verify_needs_two_steps(conway):
    with pytest.raises(InvalidParameterError):
        verify_chain(fill1_chain(conway, 1))


def test_verify_detects_tampered_profiles():
    record = nonfill_chain(3)
    rows = json.loads(chain_to_json(record))
    rows[1]["sums"] += 1
    loaded = chain_from_json(json.dumps(rows))
    report = verify_chain(loaded)
    assert not report.passed
    bad = next(c for c in report.checks if c.name == "profiles")
    assert "step 2" in bad.witnesses[0]
    rows[0]["elements"] = []
    report = verify_chain(chain_from_json(json.dumps(rows), no_fill_in_required=True))
    bad = next(c for c in report.checks if c.name == "profiles")
    assert bad.witnesses[0] == "step 1: empty set"


def _profiles_check(rows, no_fill_in_required=False):
    report = verify_chain(chain_from_json(json.dumps(rows), no_fill_in_required))
    assert [c.name for c in report.checks if not c.passed] in ([], ["profiles"])
    return next(c for c in report.checks if c.name == "profiles")


def test_verify_names_exactly_the_tampered_step(fill2_seed):
    rows = json.loads(chain_to_json(fill2_chain(*fill2_seed, 48)))
    assert _profiles_check(rows).passed
    assert rows[39]["classification"] == "MDTS"
    counts = "sums=812, diffs=821, MDTS"
    # card and diam show on both sides only when one of them is wrong
    for field, value, stored, recount in [
            ("sums", 813, "sums=813, diffs=821, MDTS", counts),
            ("classification", "MSTD", "sums=812, diffs=821, MSTD", counts),
            ("card", 402, f"card=402, diam=410, {counts}", f"card=401, diam=410, {counts}"),
            ("diam", 409, f"card=401, diam=409, {counts}", f"card=401, diam=410, {counts}")]:
        tampered = json.loads(json.dumps(rows))
        tampered[39][field] = value
        assert _profiles_check(tampered).witnesses == (
            f"step 40: stored ({stored}) != recomputed ({recount})",)


def test_verify_checks_large_steps_with_the_engine(conway, monkeypatch):
    # fill1 steps 11 and 12 are above the oracle's limit of 2000 elements
    rows = json.loads(chain_to_json(fill1_chain(conway, 12)))[10:]
    assert min(row["card"] for row in rows) > chains_module._ORACLE_CARD_LIMIT
    import mstd_chains.search as search_module
    monkeypatch.setattr(search_module, "oracle_profile", None)
    assert _profiles_check(rows).passed
    rows[1]["diffs"] += 1
    assert _profiles_check(rows).witnesses == (
        "step 12: stored (sums=11650, diffs=11652, MDTS) != "
        "recomputed (sums=11650, diffs=11651, MDTS)",)


def test_verify_report_of_a_chain_that_does_not_nest(conway):
    rows = json.loads(chain_to_json(fill1_chain(conway, 4)))
    rows[1], rows[2] = rows[2], rows[1]
    # the swapped rows keep their numbers, out of order, so the file is refused
    with pytest.raises(InvalidParameterError, match="step 2: 'index' must be 2"):
        chain_from_json(json.dumps(rows))
    rows[1]["index"], rows[2]["index"] = 2, 3
    report = verify_chain(chain_from_json(json.dumps(rows), no_fill_in_required=True))
    assert str(report) == "\n".join([
        "profiles: PASS",
        "nesting: FAIL",
        "    step 3 does not properly contain step 2",
        "alternation: FAIL",
        "    step 2 classifies MSTD after MSTD",
        "    step 4 classifies MDTS after MDTS",
        "no_fill_in: FAIL",
        "    gaps of step 1 filled later: 1,5,6,8,9,10,13",
        "    gaps of step 2 filled later: 16,20,21,23,24,25,26,27,28,29,30,31,32,33,34,35,"
        "36,37,38,39,40,42,43,44,47",
        "    gaps of step 3 filled later: 15,16",
        "overall: FAIL",
    ])


def test_verify_uses_oracle_for_small_steps(conway, monkeypatch):
    # every small-step profile goes through the independent oracle
    calls = []
    import mstd_chains.search as search_module
    real = search_module.oracle_profile

    def spy(a):
        calls.append(len(a))
        return real(a)

    monkeypatch.setattr(search_module, "oracle_profile", spy)
    verify_chain(nonfill_chain(4))
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_chain_json_roundtrip(fill2_seed):
    L, R, n = fill2_seed
    record = fill2_chain(L, R, n, 5)
    loaded = chain_from_json(chain_to_json(record))
    assert [s.set for s in loaded.steps] == [s.set for s in record.steps]
    assert verify_chain(loaded).checks == verify_chain(record).checks


def test_chain_json_schema(conway):
    rows = json.loads(chain_to_json(fill1_chain(conway, 2)))
    assert rows[0]["index"] == 1
    assert rows[0]["elements"] == list(conway)
    assert rows[0]["card_ratio"] is None and rows[0]["diam_ratio"] is None
    assert rows[1]["card_ratio"] == 2.0
    assert rows[1]["classification"] == "MDTS"
    assert set(rows[0]) == {"index", "elements", "sums", "diffs",
                            "classification", "card", "diam", "density",
                            "card_ratio", "diam_ratio"}


def test_chain_json_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        chain_from_json("not json")
    with pytest.raises(InvalidParameterError):
        chain_from_json("[]")
    with pytest.raises(InvalidParameterError):
        chain_from_json('[{"elements": [1]}]')


@pytest.mark.parametrize("field, value", [
    ("card", "11"), ("diam", 14.0), ("sums", True), ("diffs", 33.0), ("index", "2"),
])
def test_chain_json_counts_must_be_integers(conway, field, value):
    rows = json.loads(chain_to_json(fill1_chain(conway, 2)))
    rows[1][field] = value
    with pytest.raises(InvalidParameterError, match=f"step 2: '{field}' must be a JSON integer"):
        chain_from_json(json.dumps(rows))


def test_chain_json_numbers_steps_from_the_first_index(conway):
    # an excerpt may start past step 1; a step without an index takes the next one
    rows = json.loads(chain_to_json(fill1_chain(conway, 4)))[1:]
    for row, index in zip(rows, (7, None, 9)):
        row.pop("index")
        if index is not None:
            row["index"] = index
    assert [step.index for step in chain_from_json(json.dumps(rows)).steps] == [7, 8, 9]
    rows[0].pop("index")
    with pytest.raises(InvalidParameterError,
                       match=r"^chain JSON: step 3: 'index' must be 3, the previous step's"):
        chain_from_json(json.dumps(rows))


def test_chain_json_element_out_of_range_names_its_step(conway):
    rows = json.loads(chain_to_json(fill1_chain(conway, 2)))
    rows[1]["elements"][-1] = 1 << 63
    with pytest.raises(ArithmeticRangeError,
                       match=r"^chain JSON: step 2: element outside signed 64-bit range$"):
        chain_from_json(json.dumps(rows))


def test_chain_json_elements_must_be_integers(conway):
    # int() would truncate 17.7 to 17, and the chain would then verify
    rows = json.loads(chain_to_json(fill1_chain(conway, 2)))
    assert rows[1]["elements"][-1] == 17
    rows[1]["elements"][-1] = 17.7
    with pytest.raises(InvalidParameterError, match="step 2: .*17.7 is not an integer"):
        chain_from_json(json.dumps(rows))


def test_chain_invariants_hold_under_optimize():
    # asserts vanish under -O; the invariants must not
    script = ("from mstd_chains import nonfill_explicit_mstd as mstd\n"
              "from mstd_chains.chains import _assemble\n"
              "for bad in ([mstd(1), mstd(1)], [mstd(1), mstd(2)]):\n"
              "    try:\n"
              "        _assemble('nonfill', bad, 2, True)\n"
              "    except AssertionError as exc:\n"
              "        print(exc)\n")
    done = run_python("-O", "-c", script)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.splitlines() == [
        "nonfill: step 2 does not properly contain step 1",
        "nonfill: step 2 classifies MSTD after MSTD",
    ]


def test_ratios_first_row_none(conway):
    record = fill1_chain(conway, 3)
    ratios = record.ratios()
    assert ratios[0] == (None, None)
    assert float(ratios[1][0]) == 2.0


@pytest.mark.parametrize("bad, first_witness", [
    ([nonfill_explicit_mstd(1), nonfill_explicit_mstd(1)],
     "step 2 does not properly contain step 1"),
    ([nonfill_explicit_mstd(1), nonfill_explicit_mstd(2)],
     "step 2 classifies MSTD after MSTD"),
    ([IntegerSet.interval(0, 4), mdts_interval_plus_point(4, 9)[0]],
     "step 1 is balanced"),
], ids=["repeated", "mstd-after-mstd", "balanced-first"])
def test_assemble_and_verify_share_chain_rules(bad, first_witness):
    # generation and verification judge nesting and alternation alike
    with pytest.raises(AssertionError) as caught:
        chains_module._assemble("nonfill", bad, len(bad), True)
    steps = tuple(ChainStep(index=i, set=s, profile=profile(s))
                  for i, s in enumerate(bad, start=1))
    report = verify_chain(ChainRecord(method="nonfill", steps=steps))
    witnesses = [w for c in report.checks if c.name in ("nesting", "alternation")
                 for w in c.witnesses]
    assert witnesses[0] == first_witness
    assert str(caught.value) == f"nonfill: {witnesses[0]}"


def test_chain_requires_positive_steps(conway):
    with pytest.raises(InvalidParameterError):
        fill1_chain(conway, 0)
    with pytest.raises(InvalidParameterError):
        nonfill_chain(-1)
    # nonfill_chain(True) used to return a one-step chain
    for steps in (True, 2.0, "2"):
        with pytest.raises(InvalidParameterError, match="num_steps must be an integer"):
            nonfill_chain(steps)
        with pytest.raises(InvalidParameterError, match="num_steps must be an integer"):
            fill1_chain(conway, steps)
    assert chain_to_json(nonfill_chain(np.int64(3))) == chain_to_json(nonfill_chain(3))


# ---------------------------------------------------------------------------
# growth and density behavior over long runs
# ---------------------------------------------------------------------------

def _mstd_profiles(record):
    return [s.profile for s in record.steps
            if s.profile.classification == Classification.MSTD]


def test_fill1_triples_and_density_converges(conway):
    record = fill1_chain(conway, 20)
    mstd = _mstd_profiles(record)
    assert len(mstd) == 10
    for a, b in zip(mstd, mstd[1:]):
        assert Fraction(b.cardinality, a.cardinality) > 3
        assert Fraction(b.diameter, a.diameter) > 3
    assert abs(mstd[-1].density - Fraction(2, 3)) < Fraction(1, 100)


def test_fill2_density_rises_toward_one(fill2_seed):
    L, R, n = fill2_seed
    densities = [p.density for p in _mstd_profiles(fill2_chain(L, R, n, 20))]
    assert all(a < b < 1 for a, b in zip(densities, densities[1:]))
    assert densities[-1] > Fraction(9, 10)


def test_nonfill_step_diameters_and_density_formula():
    record = nonfill_chain(20)
    diams = [s.profile.diameter for s in record.steps]
    assert all(b - a == 4 for a, b in zip(diams, diams[1:]))
    densities = [p.density for p in _mstd_profiles(record)]
    for l, d in enumerate(densities, start=1):
        assert d == Fraction(4 * l + 7, 8 * l + 10)
        assert d - Fraction(1, 2) == Fraction(2, 8 * l + 10)  # shrinks to 0
    assert all(a > b for a, b in zip(densities, densities[1:]))
