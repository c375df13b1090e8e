"""Tests of the benchmark's own helpers: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mstd_chains as mc  # noqa: E402
import reference  # noqa: E402
from stats import Ledger, faster_half, run_tail, tail  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402


# ---- tail rule ----

def test_tail_is_max_when_no_percentile_has_ten_samples_beyond():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail(list(range(11))) == (10.0, 100.0)


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1, 22)]          # 21 samples
    assert tail(values) == (11.0, 50.0)
    value, pct = tail([float(v) for v in range(1, 112)])  # 111 samples
    assert value == 101.0
    assert sum(v > value for v in range(1, 112)) == 10
    assert pct == pytest.approx(100 * 100 / 110)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        tail([])


def test_run_tail_takes_every_pass():
    passes = [[float(i), 100.0 + i] for i in range(22)]   # two operations a pass
    # 44 samples: the rule leaves 10 beyond index 33
    assert run_tail(passes)[0] == 111.0
    # a slow pass is never dropped from the tail
    assert run_tail(passes[:10] + [[0.0, 500.0]] * 11)[0] == 500.0
    # 20 samples or fewer in all: the slowest sample
    assert run_tail(passes[:10]) == (109.0, 100.0)
    assert run_tail([[3.0]] * 5 + [[9.0]]) == (9.0, 100.0)


def test_faster_half_rounds_up_and_keeps_the_fastest():
    assert faster_half([5.0, 1.0, 4.0, 2.0, 3.0], float) == [1.0, 2.0, 3.0]
    assert faster_half([2.0, 1.0], float) == [1.0]
    assert faster_half([7.0], float) == [7.0]


# ---- self time ----

def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0, 100, -1, None],
        ["b", 10, 40, 0, None],
        ["d", 15, 25, 1, None],
        ["c", 50, 70, 0, None],
    ]
    assert tracer.self_times() == [50, 20, 10, 20]


def test_wrapping_every_binding_counts_each_call_once():
    s = mc.IntegerSet([0, 2, 3, 4, 7, 11, 12, 14])
    original = mc.intset.profile
    tracer = Tracer()
    tracer.install()
    try:
        assert mc.chains.profile is mc.intset.profile is mc.profile
        mc.profile(s)
        mc.chains.profile(s)
        mc.verify_chain(mc.nonfill_chain(3))
    finally:
        tracer.uninstall()
    assert mc.intset.profile is original and mc.chains.profile is original
    names = [span[0] for span in tracer.spans]
    # two direct calls plus one per generated step; verify uses the oracle
    assert names.count("intset.profile") == 2 + 3
    assert names.count("search.oracle_profile") == 3
    oracle_parents = {tracer.spans[span[3]][0] for span in tracer.spans
                      if span[0] == "search.oracle_profile"}
    assert oracle_parents == {"chains.verify_chain"}
    # self times partition the root spans: nothing counted twice
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert sum(tracer.self_times()) == roots


def test_layer_metrics_count_kernel_paths():
    tracer = Tracer()
    tracer.install()
    try:
        mc.profile(mc.IntegerSet([0, 1, 2, 10]))
        mc.profile(mc.IntegerSet([0, 1 << 40]))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["intset.profile.calls"] == 2
    assert metrics["intset.dense.calls"] == 2 and metrics["intset.wide.calls"] == 2
    # dense: 2 runs x one 64-bit word of the 21-bit output; wide: 2 * 2 pairs
    assert metrics["intset.dense.word_ops"] == 2 * 2
    assert metrics["intset.wide.pairs"] == 2 * 4


# ---- failure counting ----

def test_ledger_counts_wrong_outputs_and_exceptions(capsys):
    ledger = Ledger()
    assert ledger.run("ok", lambda: 2, lambda r: r == 2)[0] == 2
    ledger.run("wrong", lambda: 3, lambda r: r == 2)
    result, seconds = ledger.run("raises", lambda: 1 // 0)
    ledger.run("check raises", lambda: None, lambda r: r.missing)
    assert result is None and seconds >= 0
    assert (ledger.attempted, ledger.failed) == (4, 3)
    assert ledger.ratio == 0.75
    assert "FAILED wrong" in capsys.readouterr().err


# ---- references ----

@pytest.mark.parametrize("elements", [
    [0, 2, 3, 4, 7, 11, 12, 14],
    [5],
    [-7, -3, 0, 1, 2, 90],
    list(range(50)) + [200, 201],
    list(range(0, 6000, 2)) + [7001],   # more than PAIRS_MAX: counts takes the FFT
])
def test_references_agree_with_each_other_and_the_package(elements):
    p = mc.profile(mc.IntegerSet(elements))
    want = (p.sum_count, p.diff_count)
    assert reference.pair_counts(elements) == want
    assert reference.fft_counts(elements) == want
    assert reference.counts(elements) == want
    assert reference.classify(elements) == p.classification.value
