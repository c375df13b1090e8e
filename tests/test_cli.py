import json

import pytest

from mstd_chains import IntegerSet, chains, emit_table, nonfill_chain
from mstd_chains.cli import cli_main

from .conftest import THM31_STRICT, run_python


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_conway(capsys):
    code, out, _ = run(capsys, "analyze", "0,2,3,4,7,11,12,14")
    assert code == 0
    assert out.startswith("MSTD sums=26 diffs=25")
    assert "density=0.571" in out


def test_analyze_singleton(capsys):
    code, out, _ = run(capsys, "analyze", "5")
    assert code == 0
    assert "density=N/A" in out


def test_analyze_bad_literal(capsys):
    code, _, err = run(capsys, "analyze", "1,,3")
    assert code == 2
    assert "token 2" in err


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def test_chain_fill1_ascii(capsys):
    code, out, _ = run(capsys, "chain", "--method", "fill1",
                       "--seed-set", "0,2,3,4,7,11,12,14", "--steps", "7")
    assert code == 0
    assert "Limiting MSTD density: 0.667" in out
    assert "1278" in out


def test_chain_zero_steps_is_usage_error(capsys):
    code, _, err = run(capsys, "chain", "--method", "fill2", "--n", "10",
                       "--steps", "0")
    assert code == 2
    assert "--steps" in err


@pytest.mark.parametrize("argv, named", [
    (["--method", "fill1", "--steps", "3"], ["fill1 needs --seed-set"]),
    (["--method", "fill2", "--n", "10", "--steps", "3"], ["fill2 needs --L, --R"]),
    (["--method", "nonfill"], ["required: --steps"]),
    (["--method", "thm31", "--L", "0,1,2,5,8", "--steps", "3"],
     ["thm31 needs --R, --n, --m"]),
    (["--method", "warp", "--steps", "3"], ["--method", "invalid choice: 'warp'"]),
    # a one-step chain has no transition to verify: refused before generating
    (["--method", "nonfill", "--steps", "1", "--verify"], ["--verify needs --steps >= 2"]),
], ids=["fill1", "fill2", "nonfill", "thm31", "warp", "verify-one-step"])
def test_chain_missing_params_is_precondition_error(capsys, argv, named):
    code, out, err = run(capsys, "chain", *argv)
    assert code == 2
    assert out == ""
    for text in named:
        assert text in err


@pytest.mark.parametrize("argv, unread", [
    (["--method", "fill2", "--L", "1,3,4,8,9", "--R", "12,13,15,18,19,20",
      "--n", "10", "--m", "12"], "fill2 does not read --m"),
    (["--method", "nonfill", "--seed-set", "0,2,3,4,7,11,12,14"],
     "nonfill does not read --seed-set"),
    (["--method", "fill1", "--seed-set", "0,2,3,4,7,11,12,14", "--n", "8",
      "--mode", "generalized"], "fill1 does not read --n, --mode"),
], ids=["fill2-m", "nonfill-seed-set", "fill1-n-mode"])
def test_chain_flag_the_method_does_not_read_is_usage_error(capsys, argv, unread):
    code, out, err = run(capsys, "chain", *argv, "--steps", "3")
    assert code == 2
    assert out == ""
    assert unread in err


def test_chain_default_mode_counts_as_unset(capsys):
    code, out, _ = run(capsys, "chain", "--method", "nonfill", "--mode", "strict",
                       "--steps", "3")
    assert code == 0
    assert out == emit_table(nonfill_chain(3))


def test_chain_verify_flag(capsys):
    code, out, _ = run(capsys, "chain", "--method", "nonfill", "--steps", "5",
                       "--verify")
    assert code == 0
    assert "overall: PASS" in out


def test_chain_thm31(capsys):
    code, out, _ = run(capsys, "chain", "--method", "thm31",
                       "--L", "0,1,2,5,8", "--R", "0,1,3,4,8",
                       "--n", "8", "--m", "10", "--steps", "5")
    assert code == 0
    assert out.splitlines()[2].split()[0] == "A_1"


def test_chain_thm31_break_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(chains, "_mdts_interposer", lambda prev, nxt: None)
    code, _, err = run(capsys, "chain", "--method", "thm31",
                       "--L", "0,1,2,5,8", "--R", "0,1,3,4,8",
                       "--n", "8", "--m", "10", "--steps", "3")
    assert code == 1
    assert err.startswith("chain break:")


def test_chain_thm31_bad_conditions(capsys):
    code, _, err = run(capsys, "chain", "--method", "thm31",
                       "--L", "0,1,3,7", "--R", "0,1,2,4,7",
                       "--n", "7", "--m", "8", "--steps", "3")
    assert code == 2
    assert "conditions" in err


def test_chain_thm31_failed_conditions_stay_short(capsys):
    # every value of [1, n-1] is missing; the message lists only the first ten
    code, _, err = run(capsys, "chain", "--method", "thm31",
                       "--L", "0,1000000", "--R", "0,1000000",
                       "--n", "1000000", "--m", "1000000", "--steps", "2")
    assert code == 2
    assert "missing 999999 values, first [1, 2," in err
    assert len(err.encode()) < 2048


# generalized-mode fringes whose base, or whose step 3, is not MSTD
THM31_GENERALIZED_REFUSALS = [
    (["--L", "0,7", "--R", "0,7", "--n", "7", "--m", "13"],
     2, "error: thm31_base: the base classifies BALANCED, not MSTD"),
    (["--L", "2", "--R", "0,2", "--n", "2", "--m", "3"],
     2, "error: thm31_base: the base classifies MDTS, not MSTD"),
    (["--L", "0,1,2,4,7", "--R", "0,1,3,7", "--n", "7", "--m", "8"],
     1, "chain break: step 3 classifies BALANCED, not MSTD"),
    (["--L", "0,2,3,4,7", "--R", "0,2,3,7", "--n", "7", "--m", "7"],
     1, "chain break: step 3 classifies BALANCED, not MSTD"),
]


@pytest.mark.parametrize("fringes, code, message", THM31_GENERALIZED_REFUSALS,
                         ids=["base-balanced", "base-mdts", "step-3-m8", "step-3-m7"])
def test_chain_thm31_generalized_refusals_are_named(capsys, fringes, code, message):
    got = run(capsys, "chain", "--method", "thm31", "--mode", "generalized", *fringes,
              "--steps", "3")
    assert got == (code, "", message + "\n")


def test_chain_thm31_too_wide_is_refused(capsys):
    # the filled interval [n, m] alone would be 10**8 elements
    code, _, err = run(capsys, "chain", "--method", "thm31",
                       "--L", "0,1,2,5,8", "--R", "0,1,3,4,8",
                       "--n", "8", "--m", "100000000", "--steps", "7")
    assert code == 2
    assert "interval of more than" in err


# ---------------------------------------------------------------------------
# verify / table round trips
# ---------------------------------------------------------------------------

@pytest.fixture
def chain_file(tmp_path, capsys):
    code, out, _ = run(capsys, "chain", "--method", "nonfill", "--steps", "6",
                       "--format", "json")
    assert code == 0
    path = tmp_path / "chain.json"
    path.write_text(out)
    return path


def test_verify_round_trip(capsys, chain_file):
    code, out, _ = run(capsys, "verify", str(chain_file), "--no-fill-in")
    assert code == 0
    assert "overall: PASS" in out


def test_verify_detects_tampering(capsys, chain_file):
    rows = json.loads(chain_file.read_text())
    rows[0]["diffs"] -= 2
    chain_file.write_text(json.dumps(rows))
    code, out, _ = run(capsys, "verify", str(chain_file))
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_non_integer_counts(capsys, chain_file):
    rows = json.loads(chain_file.read_text())
    rows[0]["card"] = str(rows[0]["card"])
    chain_file.write_text(json.dumps(rows))
    code, out, err = run(capsys, "verify", str(chain_file))
    assert code == 2
    assert out == ""
    assert "step 1: 'card' must be a JSON integer" in err


@pytest.mark.parametrize("command, field, value, least", [
    ("table", "card", 0, 1), ("verify", "card", -1, 1), ("table", "diam", -2, 0),
    ("verify", "sums", -1, 0), ("table", "diffs", -3, 0),
])
def test_chain_file_counts_no_set_has_are_refused(capsys, chain_file, command, field, value,
                                                  least):
    rows = json.loads(chain_file.read_text())
    rows[0][field] = value
    chain_file.write_text(json.dumps(rows))
    code, out, err = run(capsys, command, str(chain_file))
    assert code == 2
    assert out == ""
    assert f"chain JSON: step 1: '{field}' must be >= {least}, got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize("indices, message", [
    ((-4, -4), "step 1: 'index' must be >= 1, got -4"),
    ((1, 1), "step 2: 'index' must be 2, the previous step's plus one, got 1"),
    ((1, 3), "step 2: 'index' must be 2, the previous step's plus one, got 3"),
])
def test_chain_file_steps_must_be_numbered_in_order(capsys, chain_file, command, indices,
                                                    message):
    # a step that claims another's number once printed A_-4 twice and verified
    rows = json.loads(chain_file.read_text())
    for row, index in zip(rows, indices):
        row["index"] = index
    chain_file.write_text(json.dumps(rows))
    code, out, err = run(capsys, command, str(chain_file))
    assert (code, out) == (2, "")
    assert err == f"error: chain JSON: {message}\n"


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_table_json_round_trip_is_stable(capsys, chain_file):
    code, once, _ = run(capsys, "table", str(chain_file), "--format", "json")
    assert code == 0
    path = chain_file.parent / "again.json"
    path.write_text(once)
    code, twice, _ = run(capsys, "table", str(path), "--format", "json")
    assert code == 0
    assert json.loads(once) == json.loads(twice)


def test_chain_csv_format(capsys):
    code, out, _ = run(capsys, "chain", "--method", "nonfill", "--steps", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "A_1,36,35,11,18,N/A,N/A,0.611"


def test_table_matches_direct_emission(capsys, chain_file):
    code, out, _ = run(capsys, "table", str(chain_file), "--format", "csv")
    assert code == 0
    # the JSON array carries no method tag, so the analytic-limit footer
    # differs; every data row must match the direct rendering exactly
    direct = emit_table(nonfill_chain(6), "csv")
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(out) == strip(direct)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_diameter(capsys):
    code, out, _ = run(capsys, "search", "diameter", "--d-max", "8")
    assert code == 0
    data = json.loads(out)
    assert data["mstd_count"] == 0
    assert data["total_examined"] == 2 ** 8


def test_search_cardinality(capsys):
    code, out, _ = run(capsys, "search", "cardinality", "--d-max", "6",
                       "--card-max", "3")
    assert code == 0
    assert json.loads(out)["mstd_count"] == 0


def test_search_sample_deterministic(capsys):
    code, first, _ = run(capsys, "search", "sample", "--n", "25",
                         "--samples", "2000", "--seed", "7")
    assert code == 0
    code, second, _ = run(capsys, "search", "sample", "--n", "25",
                          "--samples", "2000", "--seed", "7", "--workers", "2")
    assert code == 0
    assert first == second


def test_search_rejects_worker_count_below_one(capsys):
    for command in (["diameter", "--d-max", "3"], ["cardinality", "--d-max", "3"],
                    ["sample", "--n", "5", "--samples", "10", "--seed", "1"]):
        code, out, err = run(capsys, "search", *command, "--workers", "0")
        assert (code, out) == (2, "")
        assert "workers" in err


def test_search_seeds(capsys):
    code, out, _ = run(capsys, "search", "seeds", "--n", "10")
    assert code == 0
    pairs = json.loads(out)
    assert {"L": "1,3,4,8,9", "R": "12,13,15,18,19,20"} in pairs


def test_search_requires_subcommand(capsys):
    code, _, _ = run(capsys, "search")
    assert code == 2


def test_unknown_command(capsys):
    assert run(capsys, "transmogrify")[0] == 2


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------

def test_non_search_commands_load_neither_numpy_nor_multiprocessing(tmp_path):
    # only the search kernels need numpy; a wide set is counted without it
    chain_file = tmp_path / "chain.json"
    script = (
        "import contextlib, io, sys\n"
        "from mstd_chains.cli import cli_main\n"
        "commands = [\n"
        "    ['analyze', '0,2,3,4,7,11,12,14'],\n"
        "    ['analyze', '0,5,1099511627776,1099511627779'],\n"
        "    ['chain', '--method', 'fill1', '--seed-set', '0,2,3,4,7,11,12,14',\n"
        "     '--steps', '7', '--verify'],\n"
        "    ['chain', '--method', 'fill2', '--L', '1,3,4,8,9', '--R',\n"
        "     '12,13,15,18,19,20', '--n', '10', '--steps', '7', '--verify'],\n"
        "    ['chain', '--method', 'thm31', '--L', '0,1,2,5,8', '--R', '0,1,3,4,8',\n"
        "     '--n', '8', '--m', '10', '--steps', '7', '--verify'],\n"
        "    ['verify', sys.argv[1], '--no-fill-in'],\n"
        "    ['table', sys.argv[1], '--format', 'csv'],\n"
        "]\n"
        "with open(sys.argv[1], 'w') as handle, contextlib.redirect_stdout(handle):\n"
        "    assert cli_main(['chain', '--method', 'nonfill', '--steps', '7',\n"
        "                     '--format', 'json']) == 0\n"
        "for argv in commands:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli_main(argv) == 0, argv\n"
        "print(sorted({'numpy', 'multiprocessing'} & set(sys.modules)))\n"
    )
    done = run_python("-c", script, str(chain_file))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
