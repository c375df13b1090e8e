import csv
import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from mstd_chains import (GOLDEN_TABLES, ChainRecord, Classification, IntegerSet,
                         InvalidParameterError, MethodGrowth, chain_from_json,
                         chain_to_json, compare_to_golden, emit_growth_summary,
                         emit_table, fill1_chain, fill2_chain, growth_rows,
                         nonfill_chain)
from mstd_chains.rounding import format3, round3, round3_float

from .conftest import FILL2_L, FILL2_N, FILL2_R


@pytest.fixture
def table_chains(conway):
    return {
        "fill1": fill1_chain(conway, 7),
        "fill2": fill2_chain(IntegerSet(FILL2_L), IntegerSet(FILL2_R), FILL2_N, 7),
        "nonfill": nonfill_chain(7),
    }


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------

def test_half_up_rounding_on_exact_ties():
    assert format3(Fraction(71, 80)) == "0.888"   # 0.8875 rounds up
    assert format3(Fraction(39, 16)) == "2.438"   # 2.4375 rounds up
    assert format3(Fraction(19, 16)) == "1.188"
    assert format3(Fraction(5, 4)) == "1.250"
    assert format3(None) == "N/A"
    assert round3(Fraction(1, 3)) == Fraction(333, 1000)
    assert round3_float(Fraction(209, 207)) == 1.010
    assert round3_float(None) is None


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def test_ascii_table_layout(conway):
    text = emit_table(fill1_chain(conway, 7))
    lines = text.splitlines()
    assert lines[0].startswith("Set")
    assert "|A_i+A_i|" in lines[0] and "D(A_i)/D(A_{i-1})" in lines[0]
    assert lines[2].split()[:3] == ["A_1", "26", "25"]
    assert "N/A" in lines[2]
    assert "Limiting MSTD density: 0.667" in text
    assert "Last MSTD step density: 0.662" in text


def test_csv_table(tmp_path, conway):
    text = emit_table(fill1_chain(conway, 7), "csv")
    data_lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    assert rows[0] == ["Set", "|A_i+A_i|", "|A_i-A_i|", "Cardinality",
                       "Diameter", "|A_i|/|A_{i-1}|", "D(A_i)/D(A_{i-1})",
                       "Density"]
    assert rows[1] == ["A_1", "26", "25", "8", "14", "N/A", "N/A", "0.571"]
    assert rows[3][5] == "2.438"
    assert "# Limiting MSTD density: 0.667" in text


def test_renderings_carry_identical_values(table_chains):
    for record in table_chains.values():
        ascii_rows = [line.split() for line in
                      emit_table(record).splitlines()[2:2 + len(record.steps)]]
        csv_rows = [line.split(",") for line in
                    emit_table(record, "csv").splitlines()[1:1 + len(record.steps)]]
        json_rows = json.loads(emit_table(record, "json"))
        for arow, crow, jrow in zip(ascii_rows, csv_rows, json_rows):
            assert arow == crow
            assert int(arow[1]) == jrow["sums"]
            assert int(arow[4]) == jrow["diam"]
            for text, key in ((arow[5], "card_ratio"), (arow[6], "diam_ratio"),
                              (arow[7], "density")):
                if text == "N/A":
                    assert jrow[key] is None
                else:
                    assert float(text) == jrow[key]


def test_single_step_table_has_na_ratios():
    text = emit_table(nonfill_chain(1))
    row = text.splitlines()[2].split()
    assert row[5] == row[6] == "N/A"


def test_emit_table_validations(conway):
    with pytest.raises(InvalidParameterError):
        emit_table(fill1_chain(conway, 2), "yaml")


# ---------------------------------------------------------------------------
# growth summary
# ---------------------------------------------------------------------------

def test_growth_rows(table_chains):
    rows = {g.method: g for g in growth_rows(list(table_chains.values()))}
    fill1 = rows["fill1"]
    assert fill1.growth_type == "Exponential"
    assert fill1.min_card_factor > 3 and fill1.min_diam_factor > 3
    assert (fill1.first_cardinality, fill1.first_diameter) == (8, 14)
    fill2 = rows["fill2"]
    assert fill2.growth_type == "Linear"
    assert (fill2.card_rate, fill2.diam_rate) == (20, 20)
    assert (fill2.first_cardinality, fill2.first_diameter) == (11, 19)
    nonfill = rows["nonfill"]
    assert nonfill.growth_type == "Linear"
    assert (nonfill.card_rate, nonfill.diam_rate) == (4, 8)
    assert (nonfill.first_cardinality, nonfill.first_diameter) == (11, 18)


def test_growth_summary_text(table_chains):
    text = emit_growth_summary(list(table_chains.values()))
    assert "Exponential" in text and "Linear" in text
    assert any(line.split()[3:5] == ["4", "8"] for line in text.splitlines()
               if line.startswith("nonfill"))


def test_growth_summary_needs_five_steps(conway):
    with pytest.raises(InvalidParameterError):
        emit_growth_summary([fill1_chain(conway, 2)])


# ---------------------------------------------------------------------------
# reference-table comparison
# ---------------------------------------------------------------------------

def test_golden_comparison_passes(table_chains):
    for method, record in table_chains.items():
        comparison = compare_to_golden(record)
        assert comparison.passed, comparison.render()
        if method == "fill2":
            flagged = {(c.row, c.column) for c in comparison.flagged}
            assert flagged == {(1, "Diameter"), (1, "Density"),
                               (2, "D(A_i)/D(A_{i-1})")}
            assert "FLAG" in comparison.render()
        else:
            assert comparison.flagged == ()


def test_golden_comparison_detects_real_mismatch(table_chains):
    rows = json.loads(chain_to_json(table_chains["nonfill"]))
    rows[2]["sums"] = 999
    tampered = chain_from_json(json.dumps(rows))
    comparison = compare_to_golden(replace(tampered, method="nonfill"))
    assert not comparison.passed
    assert any(c.row == 3 and c.column == "|A_i+A_i|" for c in comparison.mismatches)
    assert "  MISMATCH row A_3 |A_i+A_i|: expected 52, computed 999" in comparison.render()


def test_golden_comparison_validations(table_chains):
    with pytest.raises(InvalidParameterError):
        compare_to_golden(replace(table_chains["fill1"], method="unknown"))
    short = fill1_chain(table_chains["fill1"].steps[0].set, 3)
    with pytest.raises(InvalidParameterError):
        compare_to_golden(short)


def test_golden_tables_shape():
    for rows in GOLDEN_TABLES.values():
        assert len(rows) == 7
        assert all(len(r) == 7 for r in rows)


# ---------------------------------------------------------------------------
# refusals and fallbacks
# ---------------------------------------------------------------------------

def _all_mdts(record):
    """``record`` untagged, with every step's stored class set to MDTS."""
    steps = tuple(replace(s, profile=replace(s.profile, classification=Classification.MDTS))
                  for s in record.steps)
    return ChainRecord(method=None, steps=steps)


@pytest.mark.parametrize("call, message", [
    (lambda: emit_table(ChainRecord(method=None, steps=())), "emit_table: chain is empty"),
    (lambda: growth_rows([_all_mdts(nonfill_chain(5))]),
     "growth summary: need >= 3 MSTD steps"),
], ids=["empty-chain", "few-mstd-steps"])
def test_report_refusals_name_their_clause(call, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        call()


def test_footer_and_rates_without_a_value():
    assert emit_table(_all_mdts(nonfill_chain(3))).endswith("Limiting MSTD density: N/A\n")
    assert MethodGrowth("x", 1, 1, "Irregular").rate_cells() == ("?", "?")
