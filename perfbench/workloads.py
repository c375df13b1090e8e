"""The four benchmark workloads.

Each workload is a closed loop with one client: the next call or CLI
invocation starts only when the previous one has returned. A workload
builds its inputs from the seed in ``__init__`` (that is its set-up),
runs whole passes over them, and checks every output against a
reference outside the timed region. The package only ever sees the
generated inputs.

``run_pass`` returns a ``Pass``: its timed seconds, the latency samples
that feed ``op_p50_ms`` / ``op_tail_ms`` and the units of work that feed
``throughput_per_s``; ``parts`` times the pieces of a pass that a layer
metric needs on their own. ``traced_pass`` is the pass the traced run wraps;
``trace_extras`` adds the layer metrics a workload measures by itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from stats import Ledger

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import mstd_chains as mc  # noqa: E402  (run.py puts SRC first on sys.path)

CONWAY = [0, 2, 3, 4, 7, 11, 12, 14]
README_ANALYZE = "MSTD sums=26 diffs=25 card=8 diam=14 density=0.571"
FILL2_L, FILL2_R, FILL2_N = [1, 3, 4, 8, 9], [12, 13, 15, 18, 19, 20], 10
THM31_L, THM31_R, THM31_N, THM31_M = [0, 1, 2, 5, 8], [0, 1, 3, 4, 8], 8, 10


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def text_of(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass
class Pass:
    seconds: float
    latencies: list[float] = field(default_factory=list)
    work: int = 0
    parts: dict[str, float] = field(default_factory=dict)


class Workload:
    """Common loop: subclasses set ``name`` and implement ``run_pass``."""

    name = ""
    warm_up = True  # one untimed pass first: references, lazy imports, caches

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.tracer = None  # set by the traced run around traced passes

    def run_pass(self, ledger: Ledger) -> Pass:
        raise NotImplementedError

    def traced_pass(self, ledger: Ledger) -> Pass:
        return self.run_pass(ledger)

    def trace_extras(self, ledger: Ledger, untraced: list[Pass]) -> dict[str, float]:
        return {}


# ---------------------------------------------------------------------------
# chain_verify
# ---------------------------------------------------------------------------

CHAIN_STEPS = {"fill1": 16, "fill2": 48, "nonfill": 80, "thm31": 40}
FLAGGED_FILL2 = {(1, "Diameter"), (1, "Density"), (2, "D(A_i)/D(A_{i-1})")}


class ChainVerify(Workload):
    """Build chains with all four methods, verify them, round-trip them
    through JSON and verify again, render them and compare to the
    published tables."""

    name = "chain_verify"

    def __init__(self, seed: int):
        super().__init__(seed)
        # fill1 translates its seed to start at 0, so any translate of
        # Conway's set gives the same chain; the seed also orders the methods
        shift = self.rng.randrange(-10**6, 10**6)
        self.fill1_seed = [x + shift for x in CONWAY]
        self.order = list(CHAIN_STEPS)
        self.rng.shuffle(self.order)
        self.expected: dict[str, dict] = {}  # first-pass outputs, per method

    def _generate(self, method: str):
        steps = CHAIN_STEPS[method]
        if method == "fill1":
            return mc.fill1_chain(mc.IntegerSet(self.fill1_seed), steps)
        if method == "fill2":
            return mc.fill2_chain(mc.IntegerSet(FILL2_L), mc.IntegerSet(FILL2_R),
                                  FILL2_N, steps)
        if method == "nonfill":
            return mc.nonfill_chain(steps)
        return mc.thm31_chain(mc.IntegerSet(THM31_L), mc.IntegerSet(THM31_R),
                              THM31_N, THM31_M, steps)

    @staticmethod
    def _reference_ok(record, steps: int) -> bool:
        """Every stored profile equals the reference count, classes
        alternate and steps nest properly; shares no code with the package."""
        if len(record.steps) != steps:
            return False
        previous = None
        for step in record.steps:
            els = step.set.to_list()
            sums, diffs = reference.counts(els)
            p = step.profile
            want = reference.class_of(sums, diffs)
            if (p.sum_count, p.diff_count, p.cardinality, p.diameter,
                    p.classification.value) != (sums, diffs, len(els),
                                                els[-1] - els[0], want):
                return False
            if want == "BALANCED":
                return False
            if previous is not None:
                prev_els, prev_class = previous
                if prev_class == want or len(prev_els) >= len(els) \
                        or not set(prev_els) <= set(els):
                    return False
            previous = (els, want)
        return True

    def _golden_ok(self, method: str, comparison) -> bool:
        flagged = {(c.row, c.column) for c in comparison.flagged}
        want = FLAGGED_FILL2 if method == "fill2" else set()
        return comparison.passed and not comparison.mismatches and flagged == want

    @staticmethod
    def _render_ok(record, fmt: str, out: str, as_json: str) -> bool:
        steps = len(record.steps)
        if fmt == "json":
            return out == as_json
        if fmt == "csv":
            lines = out.splitlines()
            body = [l for l in lines if not l.startswith("#")]
            rows = list(csv.reader(body))
            return (len(rows) == steps + 1 and rows[0][0] == "Set"
                    and all(r[0] == f"A_{i}" for i, r in enumerate(rows[1:], 1))
                    and lines[-1].startswith("# "))
        lines = out.splitlines()
        return (lines[0].startswith("Set") and set(lines[1]) <= {"-", " "}
                and lines[2 + steps - 1].startswith(f"A_{steps} ")
                and lines[2 + steps].startswith("Limiting MSTD density"))

    def run_pass(self, ledger: Ledger) -> Pass:
        latencies: list[float] = []
        work = 0
        for method in self.order:
            span = (self.tracer.span(f"bench.{method}") if self.tracer
                    else contextlib.nullcontext())
            with span:
                work += self._method(ledger, method, latencies)
        return Pass(sum(latencies), [sum(latencies)], work)

    def _method(self, ledger: Ledger, method: str, latencies: list[float]) -> int:
        """One method's calls; appends each call's seconds, returns steps built."""
        steps = CHAIN_STEPS[method]
        seen = self.expected.setdefault(method, {})

        def same(key, value, first_check):
            """Check a first output against the reference, later ones against it."""
            if key in seen:
                return value == seen[key]
            ok = first_check(value)
            if ok:
                seen[key] = value
            return ok

        def op(what, fn, check):
            result, seconds = ledger.run(f"{method}: {what}", fn, check)
            latencies.append(seconds)
            return result

        # the first pass checks every step against the reference; later
        # passes must reproduce the first pass's outputs exactly
        record = op("generate", lambda: self._generate(method),
                    lambda r: r.method == method and len(r.steps) == steps
                    and same("profiles", [step.profile for step in r.steps],
                             lambda _: self._reference_ok(r, steps)))
        if record is None:
            return 0
        op("verify_chain", lambda: mc.verify_chain(record), lambda r: r.passed)
        as_json = op("chain_to_json", lambda: mc.chain_to_json(record),
                     lambda text: same("json", text, lambda v: [
                         row["elements"] for row in json.loads(v)]
                         == [s.set.to_list() for s in record.steps]))
        loaded = op("chain_from_json",
                    lambda: mc.chain_from_json(
                        as_json, no_fill_in_required=record.no_fill_in_required),
                    lambda r: r.method is None and len(r.steps) == steps
                    and all(a.set == b.set and a.profile == b.profile
                            for a, b in zip(r.steps, record.steps)))
        op("verify_chain(json)", lambda: mc.verify_chain(loaded), lambda r: r.passed)
        for fmt in ("ascii", "csv", "json"):
            op(f"emit_table {fmt}", lambda: mc.emit_table(record, fmt),
               lambda out: same(fmt, out, lambda v: self._render_ok(record, fmt, v, as_json)))
        if method in mc.GOLDEN_TABLES:
            op("compare_to_golden", lambda: mc.compare_to_golden(record),
               lambda c: self._golden_ok(method, c))
        return steps


# ---------------------------------------------------------------------------
# landscape_search
# ---------------------------------------------------------------------------

# Pinned by an independent vectorized enumeration (bit masks and popcount),
# not by the package: exhaustive_by_diameter(19) and min_cardinality_scan(24, 7).
EXHAUSTIVE_D = 19
EXHAUSTIVE_COUNTS = (1 << 19, 170, 474_344, 49_774)
CARDINALITY_24_7 = (190_051, 0, 189_046, 1_005)
FILL2_SEEDS_10 = 14
SAMPLE_N, SAMPLE_COUNT = 30, 100_000


class LandscapeSearch(Workload):
    """The four search drivers; the pooled ones at workers = nproc."""

    name = "landscape_search"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.workers = nproc()
        self.sample_seed = seed
        self.first_sample: str | None = None
        self.last_reports: dict[str, object] = {}

    @staticmethod
    def _counts(report) -> tuple[int, int, int, int]:
        return (report.total_examined, report.mstd_count, report.mdts_count,
                report.balanced_count)

    def calls(self, workers: int) -> dict:
        return {
            "exhaustive": lambda: mc.exhaustive_by_diameter(EXHAUSTIVE_D, workers=workers),
            "cardinality": lambda: mc.min_cardinality_scan(24, 7, workers=workers),
            "sample": lambda: mc.sample_mstd_proportion(SAMPLE_N, SAMPLE_COUNT,
                                                        self.sample_seed, workers=workers),
        }

    def _sample_ok(self, report) -> bool:
        text = json.dumps(report.to_json(), sort_keys=True)
        if self.first_sample is None:
            self.first_sample = text
        witnesses_ok = all(reference.classify(w.to_list()) == "MSTD"
                           and 1 <= w.min and w.max <= SAMPLE_N for w in report.witnesses)
        return (report.total_examined == SAMPLE_COUNT
                and report.mstd_count + report.mdts_count + report.balanced_count
                == SAMPLE_COUNT
                and float(report.mstd_fraction) == report.mstd_count / SAMPLE_COUNT
                and witnesses_ok and text == self.first_sample)

    def _seeds_ok(self, seeds) -> bool:
        pairs = [(L.to_list(), R.to_list()) for L, R in seeds]
        return (len(pairs) == FILL2_SEEDS_10 and (FILL2_L, FILL2_R) in pairs
                and all(1 <= min(L) and max(L) <= 10 < min(R) and max(R) <= 20
                        and reference.classify(L + R) == "MSTD" for L, R in pairs))

    def checks(self) -> dict:
        return {
            "exhaustive": lambda r: self._counts(r) == EXHAUSTIVE_COUNTS
            and r.witnesses[0].to_list() == CONWAY
            and all(reference.classify(w.to_list()) == "MSTD" and w.diameter >= 14
                    for w in r.witnesses),
            "cardinality": lambda r: self._counts(r) == CARDINALITY_24_7 and not r.witnesses,
            "sample": self._sample_ok,
        }

    def run_pass(self, ledger: Ledger) -> Pass:
        total = 0.0
        work = 0
        parts = {}
        checks = self.checks()
        for driver, call in self.calls(self.workers).items():
            report, t = ledger.run(f"search {driver}", call, checks[driver])
            parts[driver] = t
            self.last_reports[driver] = report
            total += t
            work += report.total_examined if report is not None else 0
        _, t = ledger.run("search seeds", lambda: mc.find_fill2_seeds(FILL2_N), self._seeds_ok)
        total += t
        work += 1 << (2 * FILL2_N - 3)
        return Pass(total, [total], work, parts)

    def trace_extras(self, ledger: Ledger, untraced: list[Pass]) -> dict[str, float]:
        """Each pooled driver once at 1 worker: the single-process baseline
        for parallel efficiency, against the untraced pooled passes, and a
        byte-identical report check."""
        out = {}
        checks = self.checks()
        for driver, call in self.calls(1).items():
            report = self.last_reports.get(driver)
            pooled = report and json.dumps(report.to_json(), sort_keys=True)
            _, t1 = ledger.run(f"search {driver} (1 worker)", call,
                               lambda r: checks[driver](r)
                               and json.dumps(r.to_json(), sort_keys=True) == pooled)
            t_pool = statistics.median(p.parts[driver] for p in untraced)
            out[f"search.{driver}.parallel_efficiency"] = t1 / (self.workers * t_pool)
        return out


# ---------------------------------------------------------------------------
# profile_mix
# ---------------------------------------------------------------------------

# Size parameters per slot of one pass; contents come from the seed. There
# are 19 profile calls a pass. By cost, the 8 small sets come first, then
# the 3 smallest wide sets, all of one size, then the dense sets, the two
# smaller narrow sets and the 2 large wide sets, at twice their cost or
# more, and last the 1000-element narrow set at about 1.5 times the large
# wide ones. So the median call is a small wide one, whose speed holds
# best on a shared host, and the tail is in the largest narrow one: the
# large wide calls have a heavy tail of their own there, so a tail taken
# from them moved about twice as much from run to run. A median or tail
# that sat between two kinds would jump between them as the host's speed
# shifts.
SMALL_SIZES = (8, 12, 16, 20, 24, 32, 48, 64)
DENSE_SIZES = (110_000, 110_000, 110_000)   # interval length
DENSE_HOLES, DENSE_FRINGE = 32, 8
NARROW_SIZES = ((200, 1_000_000), (250, 1_000_000), (1000, 1_000_000))
WIDE_SIZES = (96, 96, 96, 288, 288)
WIDE_SPAN = 10**12


class ProfileMix(Workload):
    """Seeded random sets in four regimes, each built from a Python list and
    profiled, plus union, difference and issubset on the first two sets of
    each regime."""

    name = "profile_mix"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        sets: list[tuple[str, list[int]]] = []
        for k in SMALL_SIZES:
            sets.append(("small", rng.choice(3 * k, k, replace=False).tolist()))
        for length in DENSE_SIZES:
            holes = rng.choice(np.arange(1, length - 1), DENSE_HOLES, replace=False)
            fringe = length + rng.choice(length // 4, DENSE_FRINGE, replace=False)
            keep = np.ones(length, dtype=bool)
            keep[holes] = False
            body = np.nonzero(keep)[0]
            els = np.concatenate((body, fringe))
            rng.shuffle(els)
            sets.append(("dense", els.tolist()))
        for k, width in NARROW_SIZES:
            sets.append(("narrow", rng.choice(width, k, replace=False).tolist()))
        limit = mc.intset.DENSE_DIAMETER_LIMIT
        for k in WIDE_SIZES:
            els = rng.choice(WIDE_SPAN, k, replace=False)
            els[:2] = (0, limit + 1 + int(rng.integers(WIDE_SPAN - limit - 1)))
            sets.append(("wide", els.tolist()))
        self.sets = sets
        # the first two sets of each regime; more dense unions would only
        # lengthen the pass, and fewer passes fit in a run
        firsts = [i for i in range(len(sets) - 1)
                  if sets[i][0] == sets[i + 1][0] and (i == 0 or sets[i - 1][0] != sets[i][0])]
        self.pairs = [(i, i + 1) for i in firsts]
        self.expected: list | None = None

    def _references(self) -> None:
        """Reference counts and pair algebra, once per run, untimed."""
        counts = []
        for _, els in self.sets:
            sums, diffs = reference.counts(els)
            counts.append((len(els), max(els) - min(els), sums, diffs,
                           reference.class_of(sums, diffs)))
        algebra = []
        for i, j in self.pairs:
            a, b = set(self.sets[i][1]), set(self.sets[j][1])
            algebra.append((np.array(sorted(a | b), dtype=np.int64),
                            np.array(sorted(a - b), dtype=np.int64), b <= a))
        self.expected = [counts, algebra]

    def run_pass(self, ledger: Ledger) -> Pass:
        if self.expected is None:
            self._references()
        counts, algebra = self.expected
        total = 0.0
        latencies = []
        built = []
        for index, (regime, els) in enumerate(self.sets):
            s, t = ledger.run(f"{regime}[{index}]: build", lambda: mc.IntegerSet(els),
                              lambda s: len(s) == len(els))
            total += t
            built.append(s)
            if s is None:
                continue
            p, t = ledger.run(
                f"{regime}[{index}]: profile", lambda: mc.profile(s),
                lambda p: (p.cardinality, p.diameter, p.sum_count, p.diff_count,
                           p.classification.value) == counts[index])
            total += t
            latencies.append(t)
        for (i, j), (union, difference, b_in_a) in zip(self.pairs, algebra):
            a, b = built[i], built[j]
            if a is None or b is None:
                continue
            u, t = ledger.run(f"union[{i},{j}]", lambda: a.union(b),
                              lambda u: np.array_equal(u.elements, union))
            total += t
            _, t = ledger.run(f"difference[{i},{j}]", lambda: a.difference(b),
                              lambda d: np.array_equal(d.elements, difference))
            total += t
            _, t = ledger.run(f"issubset[{i},{j}]", lambda: b.issubset(a),
                              lambda r: r is b_in_a)
            total += t
            if u is not None:
                _, t = ledger.run(f"issubset[{i},union]", lambda: a.issubset(u),
                                  lambda r: r is True)
                total += t
        return Pass(total, latencies, len(latencies))


# ---------------------------------------------------------------------------
# cli_readme
# ---------------------------------------------------------------------------


# fill2 seeds for n = 9: none exist, and the scan costs about what the
# other search commands cost; for n = 10 it costs twice as much
CLI_SEEDS_N = 9


class CliReadme(Workload):
    """The README's CLI commands, each a fresh ``python -m mstd_chains``."""

    name = "cli_readme"
    warm_up = False  # every invocation is a fresh interpreter anyway

    def __init__(self, seed: int):
        super().__init__(seed)
        self.workers = nproc()
        # a translate of Conway's set has the same profile; kept nonnegative
        # because argparse reads a leading '-' as an option
        shift = self.rng.randrange(10**6)
        self.analyze_set = [x + shift for x in CONWAY]
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        self.chain_file = self.workdir / "chain.json"
        w = str(self.workers)
        fill2 = ["--L", text_of(FILL2_L), "--R", text_of(FILL2_R), "--n", str(FILL2_N)]
        thm31 = ["--L", text_of(THM31_L), "--R", text_of(THM31_R),
                 "--n", str(THM31_N), "--m", str(THM31_M)]
        self.commands: list[list[str]] = [
            ["analyze", text_of(self.analyze_set)],
            ["chain", "--method", "fill1", "--seed-set", text_of(CONWAY), "--steps", "7"],
            ["chain", "--method", "fill2", *fill2, "--steps", "7", "--verify"],
            ["chain", "--method", "nonfill", "--steps", "7", "--verify"],
            ["chain", "--method", "thm31", *thm31, "--steps", "7"],
            ["chain", "--method", "nonfill", "--steps", "7", "--format", "json"],
            ["verify", str(self.chain_file), "--no-fill-in"],
            ["table", str(self.chain_file), "--format", "csv"],
            # cardinality, sample and seeds are scaled down from the README's
            # so that more passes fit in a run and no command costs twice
            # another: the tail then stays among the search commands however
            # many passes a run holds; start-up still dominates
            ["search", "diameter", "--d-max", "14", "--workers", w],
            ["search", "cardinality", "--d-max", "18", "--card-max", "6", "--workers", w],
            ["search", "sample", "--n", "30", "--samples", "10000",
             "--seed", str(seed), "--workers", w],
            ["search", "seeds", "--n", str(CLI_SEEDS_N)],
            ["analyze", text_of(CONWAY[:3]) + ",x"],
        ]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        self.expected: list[tuple[int, object]] | None = None

    def close(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()

    def _references(self) -> None:
        """Expected (exit code, stdout) per command, from in-process calls."""
        fill1 = mc.fill1_chain(mc.IntegerSet(CONWAY), 7)
        fill2 = mc.fill2_chain(mc.IntegerSet(FILL2_L), mc.IntegerSet(FILL2_R), FILL2_N, 7)
        nonfill = mc.nonfill_chain(7)
        thm31 = mc.thm31_chain(mc.IntegerSet(THM31_L), mc.IntegerSet(THM31_R),
                               THM31_N, THM31_M, 7)
        as_json = mc.emit_table(nonfill, "json")
        loaded = mc.chain_from_json(as_json, no_fill_in_required=True)
        w = self.workers
        self.expected = [
            (0, README_ANALYZE + "\n"),
            (0, mc.emit_table(fill1)),
            (0, mc.emit_table(fill2) + f"{mc.verify_chain(fill2)}\n"),
            (0, mc.emit_table(nonfill) + f"{mc.verify_chain(nonfill)}\n"),
            (0, mc.emit_table(thm31)),
            (0, as_json),
            (0, f"{mc.verify_chain(loaded)}\n"),
            (0, mc.emit_table(mc.chain_from_json(as_json), "csv")),
            (0, mc.exhaustive_by_diameter(14, workers=w).to_json()),
            (0, mc.min_cardinality_scan(18, 6, workers=w).to_json()),
            (0, mc.sample_mstd_proportion(30, 10_000, self.seed, workers=w).to_json()),
            (0, [{"L": L.to_text(), "R": R.to_text()}
                 for L, R in mc.find_fill2_seeds(CLI_SEEDS_N)]),
            (2, ""),
        ]

    def _check(self, index: int, code: int, out: str) -> bool:
        want_code, want_out = self.expected[index]
        if code != want_code:
            return False
        if self.commands[index][0] == "search":
            try:
                return json.loads(out) == want_out
            except json.JSONDecodeError:
                return False
        return out == want_out

    def _spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mstd_chains", *argv], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=120)

    def run_pass(self, ledger: Ledger) -> Pass:
        if self.expected is None:
            # if the package raises here, every later check fails and counts
            ledger.run("in-process references", self._references)
        latencies = []
        for index, argv in enumerate(self.commands):
            done, t = ledger.run(f"cli {' '.join(argv[:2])}", lambda: self._spawn(argv),
                                 lambda r: self._check(index, r.returncode, r.stdout))
            latencies.append(t)
            if done is not None and argv[-1] == "json":
                self.chain_file.write_text(done.stdout, encoding="utf-8")
        return Pass(sum(latencies), latencies, len(latencies))

    def traced_pass(self, ledger: Ledger) -> Pass:
        """The same commands through in-process ``cli_main``, stdout captured."""
        from mstd_chains.cli import cli_main

        if self.expected is None:
            # if the package raises here, every later check fails and counts
            ledger.run("in-process references", self._references)
        latencies = []
        for index, argv in enumerate(self.commands):
            out, err = io.StringIO(), io.StringIO()

            def call():
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return cli_main(argv)

            code, t = ledger.run(f"cli_main {' '.join(argv[:2])}", call,
                                 lambda c: self._check(index, c, out.getvalue()))
            latencies.append(t)
            if argv[-1] == "json":
                self.chain_file.write_text(out.getvalue(), encoding="utf-8")
        return Pass(sum(latencies), latencies, len(latencies))

    def trace_extras(self, ledger: Ledger, untraced: list[Pass]) -> dict[str, float]:
        """Split an invocation into interpreter start, import and work."""
        def spawn(code: str) -> float:
            done, t = ledger.run(f"python -c {code!r}", lambda: subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=self.env,
                capture_output=True, timeout=120), lambda r: r.returncode == 0)
            return t

        bare = statistics.median(spawn("pass") for _ in range(5))
        imported = statistics.median(spawn("import mstd_chains") for _ in range(5))
        per_command = [t for p in untraced for t in p.latencies]
        return {"cli.interpreter_s": bare, "cli.import_s": imported - bare,
                "cli.main.s": statistics.median(per_command)}


WORKLOADS = {w.name: w for w in (ChainVerify, LandscapeSearch, ProfileMix, CliReadme)}
