"""Fuzzed parser and CLI inputs: a value, a named error or exit code 0/1/2."""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mstd_chains import (ArithmeticRangeError, ChainBreakError, IntegerSet,
                         InvalidParameterError, ResourceLimitError, chain_from_json,
                         chain_to_json, nonfill_chain)
from mstd_chains.cli import cli_main

NAMED_ERRORS = (InvalidParameterError, ArithmeticRangeError, ResourceLimitError,
                ChainBreakError)

# ints on both sides of the signed 64-bit range
integers = st.integers(-50, 50) | st.integers(-(1 << 64), 1 << 64)
tokens = integers.map(str) | st.text(alphabet="-+_ 0123456789٣x.e", max_size=6)
literals = (st.text()
            | st.lists(tokens, min_size=1, max_size=12).map(",".join)
            | st.lists(integers, min_size=1, max_size=12, unique=True)
            .map(lambda xs: ",".join(map(str, sorted(xs)))))

json_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=4),
    max_leaves=12)
rows = st.fixed_dictionaries(
    {},
    optional={"elements": st.lists(integers, max_size=8) | json_values,
              "classification": st.sampled_from(["MSTD", "MDTS", "BALANCED"]) | json_values,
              **{key: integers | json_values
                 for key in ("index", "card", "diam", "sums", "diffs")}})
chain_texts = (st.text()
               | json_values.map(json.dumps)
               | st.lists(rows | json_values, max_size=4).map(json.dumps))

VALID_CHAIN = chain_to_json(nonfill_chain(4))
# counts no set has: a negative card once printed a negative density, and
# a zero card before another step divided by zero in the table's ratios
NEGATIVE_CARD = json.dumps([{"elements": [0, 2], "card": -1, "diam": 2, "sums": 3,
                             "diffs": 3, "classification": "BALANCED"}])
ZERO_CARD = json.dumps([{"elements": [0], "card": 0, "diam": 0, "sums": 1, "diffs": 1,
                         "classification": "BALANCED"},
                        {"elements": [0, 1], "card": 2, "diam": 1, "sums": 3, "diffs": 3,
                         "classification": "BALANCED"}])


@settings(max_examples=300, deadline=None)
@given(literals)
@example("1" * 5000)   # more digits than int() converts
@example("0, 9223372036854775808")
@example("")
def test_from_text_returns_a_set_or_a_named_error(text):
    try:
        result = IntegerSet.from_text(text)
    except NAMED_ERRORS:
        return
    assert isinstance(result, IntegerSet)


@settings(max_examples=300, deadline=None)
@given(chain_texts)
@example("1" * 5000)
@example("[" * 100_000)  # nesting deeper than the JSON decoder recurses
@example(VALID_CHAIN)
def test_chain_from_json_returns_a_chain_or_a_named_error(text):
    try:
        chain_from_json(text)
    except NAMED_ERRORS:
        pass


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(list(argv))


@settings(max_examples=150, deadline=None)
@given(literals)
@example("1" * 5000)
@example("-1,2")
def test_analyze_exits_0_1_or_2(text):
    assert _exit_code("analyze", text) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(st.binary() | chain_texts.map(str.encode),
       st.sampled_from([("verify",), ("verify", "--no-fill-in"), ("table", "--format", "csv")]))
@example(b"[" * 100_000, ("verify",))
@example(b"\xff\xfe[", ("table", "--format", "csv"))  # not UTF-8
@example(VALID_CHAIN.encode(), ("verify", "--no-fill-in"))
@example(NEGATIVE_CARD.encode(), ("table", "--format", "csv"))
@example(ZERO_CARD.encode(), ("table", "--format", "csv"))
def test_chain_file_commands_exit_0_1_or_2(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chain.json")
        with open(path, "wb") as handle:
            handle.write(data)
        assert _exit_code(*command, path) in (0, 1, 2)


@st.composite
def thm31_commands(draw):
    """A thm31 chain command on fringes L, R inside [0, n] that hold n."""
    n = draw(st.integers(1, 7))
    fringes = st.sets(st.integers(0, n - 1)).map(lambda s: ",".join(map(str, sorted(s | {n}))))
    mode = draw(st.sampled_from(["strict", "generalized"]))
    return ["chain", "--method", "thm31", "--mode", mode, "--L", draw(fringes),
            "--R", draw(fringes), "--n", str(n), "--m", str(draw(st.integers(n, 4 * n + 3))),
            "--steps", str(draw(st.integers(1, 5)))]


def _generalized(fringes):
    return ["chain", "--method", "thm31", "--mode", "generalized", *fringes, "--steps", "3"]


@settings(max_examples=150, deadline=None)
@given(thm31_commands())
@example(_generalized(["--L", "0,7", "--R", "0,7", "--n", "7", "--m", "13"]))
@example(_generalized(["--L", "2", "--R", "0,2", "--n", "2", "--m", "3"]))
@example(_generalized(["--L", "0,1,2,4,7", "--R", "0,1,3,7", "--n", "7", "--m", "8"]))
@example(_generalized(["--L", "0,2,3,4,7", "--R", "0,2,3,7", "--n", "7", "--m", "7"]))
def test_thm31_chain_exits_0_1_or_2(argv):
    assert _exit_code(*argv) in (0, 1, 2)
