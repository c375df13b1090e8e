"""Benchmark for mstd_chains: four closed-loop workloads, checked outputs.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload chain_verify --seed 1 --seconds 35 --trace 0

Every workload, with a table of every metric by name and unit:

    python3 perfbench/run.py --all --seed 1 --seconds 35 --trace 0 [--out runs.json]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is ``meta: {...}`` with the host, the versions and the seed. The program
is imported from ``src/`` of the checkout this file sits in; without it
the benchmark exits with code 2 and prints no result. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("chain_verify", "landscape_search", "profile_mix", "cli_readme")
# How often set-up is repeated, in fresh interpreters, for setup_s.
SETUP_PROBES = 9

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def metadata(args, workers: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mstd_chains").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(), "nproc": workers, "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_probe(args) -> float:
    """Seconds from a fresh interpreter to package imported and inputs built."""
    start = time.perf_counter_ns()
    # captured output: the wait then returns at exit instead of polling
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    seconds = (time.perf_counter_ns() - start) / 1e9
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"set-up probe exited with code {done.returncode}")
    return seconds


def end_to_end(workload, ledger, args) -> tuple[dict, dict]:
    from stats import faster_half, median, run_tail

    if workload.warm_up:
        workload.run_pass(ledger)
    # Whole passes until --seconds have gone by; at least one. The set-up
    # probes are spread over the same time, at most one between two
    # passes, so a slow stretch of the host hits some of them, not all;
    # those that are not due by the end run after the last pass.
    passes, probes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + args.seconds:
        due = SETUP_PROBES * (time.perf_counter() - start) / args.seconds
        if len(probes) < min(due, SETUP_PROBES):
            probes.append(setup_probe(args))
        passes.append(workload.run_pass(ledger))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(args))
    kept = faster_half(passes, lambda p: p.seconds)
    latencies = [t for p in kept for t in p.latencies]
    tail_s, tail_pct = run_tail([p.latencies for p in passes])
    values = {
        "setup_s": median(faster_half(probes, float)),
        "wall_s": median([p.seconds for p in kept]),
        "throughput_per_s": sum(p.work for p in kept) / sum(p.seconds for p in kept),
        "op_p50_ms": median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mib": peak_rss_mib(),
    }
    notes = {"passes": len(passes), "passes_kept": len(kept),
             "op_samples": sum(len(p.latencies) for p in passes),
             "op_samples_kept": len(latencies), "op_tail_percentile": round(tail_pct, 2)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def per_layer(workload, ledger, args) -> tuple[dict, dict]:
    from stats import median
    from tracing import LAYER_METRICS, Tracer, layer_metrics

    workload.traced_pass(ledger)  # warm-up, untraced
    tracer = Tracer()
    untraced, traced = [], []
    # alternate, so that a drift in machine speed does not bias the overhead
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        untraced.append(workload.traced_pass(ledger))
        tracer.install()
        workload.tracer = tracer
        try:
            traced.append(workload.traced_pass(ledger))
        finally:
            workload.tracer = None
            tracer.uninstall()
    values = layer_metrics(tracer, len(traced))
    values.update(workload.trace_extras(ledger, untraced))
    values["trace.overhead_ratio"] = (median([p.seconds for p in traced])
                                      / median([p.seconds for p in untraced]))
    if args.spans:
        tracer.write(args.spans)
    notes = {"untraced_passes": len(untraced), "traced_passes": len(traced),
             "spans": len(tracer.spans)}
    return {k: {"value": values[k], "unit": unit} for k, unit in LAYER_METRICS.items()}, notes


def run_one(args) -> int:
    import workloads
    from stats import Ledger

    if not Path(workloads.mc.__file__).resolve().is_relative_to(SRC.resolve()):
        print("perfbench: mstd_chains was not imported from src/", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        if args.setup_only:
            return 0
        ledger = Ledger()
        measure = per_layer if args.trace else end_to_end
        metrics, notes = measure(workload, ledger, args)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()
    meta = metadata(args, workloads.nproc())
    meta.update(notes, failed_op_ratio=ledger.ratio)
    print("meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name and unit."""
    records = []
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("meta: "):
            sys.stderr.write(done.stderr)
            print(f"{name}: exited with code {done.returncode} and no result")
            return 1
        meta, result = json.loads(lines[-2][6:]), json.loads(lines[-1])
        records.append({"meta": meta, "result": result})
        print(f"{name}  (seed {args.seed}, {meta.get('passes', meta.get('traced_passes'))} "
              f"passes, correct={result['correct']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
        print(f"  {'failed_op_ratio':40s} {meta['failed_op_ratio']:>14.6g} "
              f"({result['failed']}/{result['attempted']})")
        if "op_samples" in meta:
            print(f"  {'op_tail_ms percentile':40s} {meta['op_tail_percentile']:>14.6g} "
                  f"of {meta['op_samples']} samples")
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["result"]["correct"] for r in records) else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every run's meta and result here")
    parser.add_argument("--spans", help="with --trace 1: write every span here, "
                                         "one JSON array per line")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mstd_chains" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'mstd_chains'} not found; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
