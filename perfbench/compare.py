"""Compare two sets of benchmark runs written by ``run.py --all --out FILE``.

    python3 perfbench/compare.py before.json after.json

For every workload and metric it prints both medians and the change. An
end-to-end metric that got worse by more than its bound in
BENCHMARK.json is marked WORSE. A difference in the run metadata that
changes speed on its own is flagged first. A numpy version mismatch is
always flagged, because ``np.unique``, which the wide path uses, changed
speed between numpy versions.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("numpy", "python", "nproc", "cpu", "start_method")


def load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def medians(records: list[dict]) -> dict[tuple[str, str], tuple[float, str]]:
    values: dict[tuple[str, str], list[float]] = {}
    units: dict[tuple[str, str], str] = {}
    for record in records:
        workload = record["meta"]["workload"]
        for name, entry in record["result"]["metrics"].items():
            values.setdefault((workload, name), []).append(entry["value"])
            units[(workload, name)] = entry["unit"]
    return {key: (statistics.median(v), units[key]) for key, v in values.items()}


def host_mismatches(before: list[dict], after: list[dict]) -> list[str]:
    out = []
    for key in HOST_KEYS:
        old = {r["meta"].get(key) for r in before}
        new = {r["meta"].get(key) for r in after}
        if old != new:
            note = " (np.unique speed depends on the numpy version)" if key == "numpy" else ""
            out.append(f"WARNING {key} differs: {sorted(map(str, old))} vs "
                       f"{sorted(map(str, new))}{note}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for line in host_mismatches(before, after):
        print(line)
    old, new = medians(before), medians(after)
    worse = 0
    for key in sorted(old.keys() & new.keys()):
        (a, unit), (b, _) = old[key], new[key]
        change = (b - a) / a if a else float("nan") if b else 0.0
        flag = ""
        rule = bounds.get(key[1])
        if rule is not None:
            loss = change if rule["better"] == "lower" else -change
            if loss > rule["bound"]:
                flag, worse = "WORSE", worse + 1
        print(f"{key[0]:18s} {key[1]:40s} {a:>14.6g} {b:>14.6g} {unit:9s} "
              f"{change:+8.1%} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
