"""Span tracing around calls into ``mstd_chains``, for the traced run only.

Nothing here edits the package's source. ``Tracer.install`` replaces each
public function listed in ``TARGETS`` by a wrapper in every loaded
``mstd_chains`` module that binds it (``mstd_chains.chains.profile`` is
the same object as ``mstd_chains.intset.profile``, so both names get the
same wrapper and one call makes one span). ``verify_chain`` imports
``search.oracle_profile`` at call time, which then finds the wrapper.
``uninstall`` puts every original back.

Each span is (name, start_ns, end_ns, parent index, note). Spans stay in
memory; ``layer_metrics`` reduces them once the traced passes are done.
Self time is a span's duration minus that of its direct children, so a
call wrapped under two names, or nested in another wrapped call, is
counted once. Spans recorded in forked pool workers stay in the worker
and are lost; the search drivers are therefore timed from the parent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

# Public functions wrapped per module, as "<module>.<name>" span names.
TARGETS = {
    "intset": ("profile", "sumset", "diffset", "affine", "classify", "is_pn",
               "symmetry_center"),
    "constructions": ("interval_minus_point", "nathanson_mstd",
                      "mdts_interval_plus_point", "miller_mstd",
                      "nonfill_explicit_mstd", "nonfill_explicit_mdts",
                      "thm31_base", "check_thm31_conditions", "from_config"),
    "chains": ("fill1_chain", "fill2_chain", "nonfill_chain", "thm31_chain",
               "verify_chain", "chain_to_json", "chain_from_json"),
    "search": ("oracle_profile", "exhaustive_by_diameter", "min_cardinality_scan",
               "sample_mstd_proportion", "find_fill2_seeds"),
    "report": ("emit_table", "compare_to_golden"),
    "cli": ("cli_main",),
}
# IntegerSet methods, by the layer metric they count towards.
CONSTRUCT_METHODS = ("__init__", "interval", "from_text")
ALGEBRA_METHODS = ("union", "difference", "intersection", "issubset",
                   "ispropersubset", "contains_interval", "missing_in_interval",
                   "shift")

METHODS = ("fill1", "fill2", "nonfill", "thm31")
DRIVERS = {"exhaustive_by_diameter": "exhaustive", "min_cardinality_scan": "cardinality",
           "sample_mstd_proportion": "sample", "find_fill2_seeds": "seeds"}

# Every per-layer metric the traced run reports, with its unit. Times are
# seconds per traced pass and counts are per traced pass.
LAYER_METRICS = {
    "intset.profile.calls": "count",
    "intset.profile.s": "s",
    "intset.sumset.s": "s",
    "intset.diffset.s": "s",
    "intset.dense.calls": "count",
    "intset.wide.calls": "count",
    "intset.dense.word_ops": "computed",
    "intset.wide.pairs": "computed",
    "intset.construct.s": "s",
    "intset.algebra.s": "s",
    "constructions.calls": "count",
    "constructions.s": "s",
    **{f"chains.{m}.{k}": "s" for m in METHODS for k in ("generate_s", "verify_s")},
    "chains.verify.self_s": "s",
    "chains.steps": "count",
    "chains.max_card": "count",
    "chains.interposer.attempts": "count",
    "chains.interposer.hit_ratio": "ratio",
    "chains.json.s": "s",
    "search.oracle.calls": "count",
    "search.oracle.s": "s",
    "search.oracle.pairs": "computed",
    **{f"search.{d}.s": "s" for d in DRIVERS.values()},
    "search.sets_classified": "count",
    **{f"search.{d}.parallel_efficiency": "ratio"
       for d in ("exhaustive", "cardinality", "sample")},
    "report.emit.s": "s",
    "report.compare.s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _kernel_note(args, kwargs, result) -> Optional[tuple[str, int]]:
    """Which path sumset/diffset took, and its computed work.

    Dense (run-smear): runs x 64-bit words of the output vector, whose
    width is 2 * diameter + 1 bits. Wide (outer-sum fallback): k * k pairs.
    """
    from mstd_chains import intset

    a = args[0]
    if a.is_empty:
        return None
    if a.diameter <= intset.DENSE_DIAMETER_LIMIT:
        els = a.elements
        runs = int(np.count_nonzero(np.diff(els) != 1)) + 1
        return "dense", runs * ((2 * a.diameter + 1 + 63) // 64)
    return "wide", len(a) * len(a)


def _chain_note(args, kwargs, result):
    return len(result.steps), max(len(step.set) for step in result.steps)


NOTES: dict[str, Callable] = {
    "intset.sumset": _kernel_note,
    "intset.diffset": _kernel_note,
    "intset.classify": lambda args, kwargs, result: result.value,
    "search.oracle_profile": lambda args, kwargs, result: len(args[0]) ** 2,
    "chains.verify_chain": lambda args, kwargs, result: args[0].method,
    **{f"chains.{m}_chain": _chain_note for m in METHODS},
    "search.exhaustive_by_diameter": lambda args, kwargs, result: result.total_examined,
    "search.min_cardinality_scan": lambda args, kwargs, result: result.total_examined,
    "search.sample_mstd_proportion": lambda args, kwargs, result: result.total_examined,
    # find_fill2_seeds scans 2**(2n-3) candidates
    "search.find_fill2_seeds": lambda args, kwargs, result: 1 << (2 * args[0] - 3),
}


class Tracer:
    """Collects spans from wrapped package functions and the benchmark's own."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.current = -1
        self._restore: list[tuple[object, str, object]] = []

    # ---- recording ----

    def _open(self, name: str) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self.current, None])
        parent, self.current = self.current, index
        return index, parent

    def _close(self, index: int, parent: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.current = parent

    @contextmanager
    def span(self, name: str):
        index, parent = self._open(name)
        try:
            yield
        finally:
            self._close(index, parent)

    def wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index, parent = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, parent)
            if note is not None:
                # computing the note is tracing work, kept out of the parent's self time
                with self.span("trace.note"):
                    self.spans[index][4] = note(args, kwargs, result)
            return result

        return wrapper

    # ---- installing the wrappers ----

    def install(self) -> None:
        import mstd_chains  # noqa: F401  (loads the package modules)
        from mstd_chains.intset import IntegerSet

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mstd_chains" or n.startswith("mstd_chains.")]
        for module_name, names in TARGETS.items():
            home = sys.modules.get(f"mstd_chains.{module_name}")
            if home is None:
                continue
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for name in CONSTRUCT_METHODS + ALGEBRA_METHODS:
            original = IntegerSet.__dict__[name]
            self._restore.append((IntegerSet, name, original))
            if isinstance(original, classmethod):
                replaced = classmethod(self.wrap(f"intset.IntegerSet.{name}",
                                                 original.__func__))
            else:
                replaced = self.wrap(f"intset.IntegerSet.{name}", original)
            setattr(IntegerSet, name, replaced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Every span as a JSON array [name, start_ns, end_ns, parent, note]."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")

    # ---- reduction ----

    def self_times(self) -> list[int]:
        """Per span: duration minus the durations of its direct children (ns)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def _method_of(spans: list[list], index: int) -> Optional[str]:
    """The chain method a verify span belongs to: its record's tag, or else
    the nearest enclosing ``bench.<method>`` span the benchmark opened."""
    if spans[index][4] in METHODS:
        return spans[index][4]
    parent = spans[index][3]
    while parent >= 0:
        name = spans[parent][0]
        if name.startswith("bench.") and name[6:] in METHODS:
            return name[6:]
        parent = spans[parent][3]
    return None


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Reduce the spans of ``passes`` traced passes to per-pass layer metrics.

    Metrics the workload cannot reach read 0. The parallel-efficiency,
    interpreter, import and overhead metrics are filled in by the workload.
    """
    spans = tracer.spans
    own = tracer.self_times()
    out = {name: 0.0 for name in LAYER_METRICS}
    ns = 1e-9
    max_card = 0
    hits = 0
    # time verify_chain spends in its direct oracle and profile calls
    checked = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0 and name in ("search.oracle_profile", "intset.profile"):
            checked[parent] += end - start
    for i, (name, start, end, parent, note) in enumerate(spans):
        duration = end - start
        module, _, func = name.partition(".")
        if name in ("intset.profile", "intset.sumset", "intset.diffset"):
            out[f"{name}.s"] += own[i] * ns
            if name == "intset.profile":
                out["intset.profile.calls"] += 1
            elif note is not None:
                path, work = note
                out[f"intset.{path}.calls"] += 1
                out["intset.dense.word_ops" if path == "dense" else "intset.wide.pairs"] += work
        elif name.startswith("intset.IntegerSet."):
            kind = "construct" if name.rsplit(".", 1)[1] in CONSTRUCT_METHODS else "algebra"
            out[f"intset.{kind}.s"] += own[i] * ns
        elif module == "intset":
            out["intset.algebra.s"] += own[i] * ns
            if func == "classify" and parent >= 0 and spans[parent][0] == "chains.thm31_chain":
                out["chains.interposer.attempts"] += 1
                hits += note == "MDTS"
        elif module == "constructions":
            out["constructions.calls"] += 1
            out["constructions.s"] += own[i] * ns
        elif func.endswith("_chain") and func[:-6] in METHODS:
            out[f"chains.{func[:-6]}.generate_s"] += duration * ns
            if note is not None:
                out["chains.steps"] += note[0]
                max_card = max(max_card, note[1])
        elif func == "verify_chain":
            method = _method_of(spans, i)
            if method is not None:
                out[f"chains.{method}.verify_s"] += duration * ns
            out["chains.verify.self_s"] += (duration - checked[i]) * ns
        elif func in ("chain_to_json", "chain_from_json"):
            out["chains.json.s"] += own[i] * ns
        elif func == "oracle_profile":
            out["search.oracle.calls"] += 1
            out["search.oracle.s"] += own[i] * ns
            out["search.oracle.pairs"] += note or 0
        elif func in DRIVERS:
            out[f"search.{DRIVERS[func]}.s"] += own[i] * ns
            out["search.sets_classified"] += note or 0
        elif name == "report.emit_table":
            out["report.emit.s"] += own[i] * ns
        elif name == "report.compare_to_golden":
            out["report.compare.s"] += own[i] * ns
    attempts = out["chains.interposer.attempts"]
    per_pass = {name: value / passes for name, value in out.items()}
    per_pass["chains.max_card"] = float(max_card)
    per_pass["chains.interposer.hit_ratio"] = hits / attempts if attempts else 0.0
    return per_pass
