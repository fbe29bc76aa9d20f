"""Summarise one result set, or compare a parent set with a change set.

    python3 benchmarks/compare.py results.json
    python3 benchmarks/compare.py parent.json change.json

For each workload and end-to-end metric it prints each side's median,
quartiles and run count, and the spread (quartile distance over median)
against the metric's bound from BENCHMARK.json.  Given two sets, it pairs
runs by workload and seed and prints the share of pairs the change wins
(ties count for neither) and a verdict:

- gain: the change wins at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile distance;
- regression: the change's median is worse than the parent's by more than
  the bound;
- unresolved: the parent's spread exceeds the bound, unless every change
  run beats every parent run;
- same: none of these;
- failed: the change's commands fail more often (failed_frac, failed over
  attempted commands) than the parent's on this workload.  This replaces
  any other verdict: a command that fails early ends its timing early, so
  a change that breaks commands can read as faster.

Make both sets with one ``collect.py --parent-checkout`` run: it
alternates the two sides in time, and this machine's speed drifts by tens
of percent over minutes, so two sets made one after the other can differ
with identical code.

Per-layer metrics of the traced runs are listed side by side, without a
verdict, next to the seed code's exact counts recorded in expected.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: str) -> dict:
    """(workload, trace) -> {"metrics": {metric: [(seed, value) in run order]},
    "failed": commands failed, "attempted": commands attempted}."""
    runs: dict = {}
    for run in json.loads(Path(path).read_text(encoding="ascii"))["runs"]:
        table = runs.setdefault((run["workload"], run["trace"]),
                                {"metrics": {}, "failed": 0, "attempted": 0})
        table["failed"] += run["result"]["failed"]
        table["attempted"] += run["result"]["attempted"]
        for name, metric in run["result"]["metrics"].items():
            table["metrics"].setdefault(name, []).append((run["seed"], metric["value"]))
    return runs


def failed_frac(table: dict) -> float:
    return table["failed"] / table["attempted"]


def stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: list, change: list, metric: dict, more_failures: bool) -> str:
    direction, bound = metric["better"], metric["bound"]
    p_q1, p_med, p_q3 = stats([v for _, v in parent])
    _, c_med, _ = stats([v for _, v in change])
    pairs = [(p, c) for (ps, p), (cs, c) in zip(parent, change) if ps == cs]
    wins = sum(better(c, p, direction) for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    worse = (p_med - c_med) if direction == "higher" else (c_med - p_med)
    all_better = all(better(c, p, direction) for _, c in change for _, p in parent)
    if more_failures:
        label = "failed"
    elif share >= 0.9 and -worse > p_q3 - p_q1:
        label = "gain"
    elif worse > bound * p_med and not all_better:
        label = "regression"
    elif (p_q3 - p_q1) > bound * p_med and not all_better:
        label = "unresolved"
    else:
        label = "same"
    return f"wins {wins}/{len(pairs)} ({share:.2f})  {label}"


def describe(values: list) -> str:
    q1, median, q3 = stats([v for _, v in values])
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    anchors = json.loads((ROOT / "benchmarks" / "expected.json").read_text(encoding="ascii"))["anchors"]
    sets = [load_runs(path) for path in argv]
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = [s.get((workload, 0)) for s in sets]
        if any(t is None for t in untraced):
            continue
        print(workload)
        print(f"  {'failed_frac':<14} {'ratio':<9}"
              + "".join(f" {failed_frac(t):12.4f} ({t['failed']} of {t['attempted']} commands)"
                        for t in untraced))
        more_failures = len(sets) == 2 and failed_frac(untraced[1]) > failed_frac(untraced[0])
        for metric in spec["end_to_end"]:
            columns = [t["metrics"].get(metric["name"]) for t in untraced]
            if any(c is None for c in columns):
                continue
            values = [v for _, v in columns[-1]]
            q1, median, q3 = stats(values)
            line = f"  {metric['name']:<14} {metric['unit']:<9}"
            line += "".join(f" {describe(c)}" for c in columns)
            line += f"  spread {(q3 - q1) / median:.3f} (bound {metric['bound']})"
            if len(columns) == 2:
                line += "  " + verdict(columns[0], columns[1], metric, more_failures)
            print(line)
        traced = [s.get((workload, 1), {"metrics": {}})["metrics"] for s in sets]
        for metric in spec["per_layer"]:
            values = [t.get(metric["name"]) for t in traced]
            if all(v is not None for v in values):
                cells = "".join(f" {statistics.median(v for _, v in c):16.4f}" for c in values)
                anchor = anchors.get(workload, {}).get(metric["name"])
                note = "" if anchor is None else f"  (seed-code anchor {anchor})"
                print(f"    {metric['name']:<40} {metric['unit']:<9}{cells}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
