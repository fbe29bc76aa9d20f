"""Collect a result set: the benchmark over several seeds of every workload.

    python3 benchmarks/collect.py --out results.json
    python3 benchmarks/collect.py --out change.json \\
        --parent-checkout ../parent --parent-out parent.json

Every workload in BENCHMARK.json runs for its ``run_seconds`` on seeds
1..10, each (workload, seed) one fresh ``run.py --trace 0`` invocation;
after them, one ``--trace 1`` run per workload (seed 1) adds the per-layer
metrics.  Workloads, run length and seeds are fixed, so every set is
comparable with every other.  With ``--parent-checkout`` every invocation also runs in that
checkout, alternating which side goes first, so compare.py can pair the
runs.  Each set records the environment it was measured in.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_FORMAT = "ttfusion-bench-results-v1"
SEEDS = range(1, 11)  # ten pairs, as the comparison rule needs


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    environment = next(json.loads(line.split(": ", 1)[1]) for line in lines
                       if line.startswith("environment: "))
    print(f"{checkout.name}: {workload} seed {seed} trace {trace}: {lines[-1]}", flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "environment": environment,
            "result": json.loads(lines[-1])}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="result set of this checkout")
    parser.add_argument("--parent-checkout", type=Path, help="checkout to measure alongside")
    parser.add_argument("--parent-out", help="result set of the parent checkout")
    args = parser.parse_args()
    if (args.parent_checkout is None) != (args.parent_out is None):
        parser.error("--parent-checkout and --parent-out go together")

    sides = [(ROOT, args.out)]
    if args.parent_checkout is not None:
        sides.insert(0, (args.parent_checkout.resolve(), args.parent_out))
    runs: dict[Path, list] = {checkout: [] for checkout, _ in sides}
    jobs = [(w, seed, 0) for w in workloads for seed in SEEDS]
    jobs += [(w, 1, 1) for w in workloads]
    for pair, (workload, seed, trace) in enumerate(jobs):
        order = sides if pair % 2 == 0 else sides[::-1]
        for checkout, _ in order:
            runs[checkout].append(run_once(checkout, workload, seed, seconds, trace))

    for checkout, out in sides:
        result_set = {
            "format": RESULTS_FORMAT,
            "checkout": checkout.name,
            "seconds": seconds,
            "environment": dict(runs[checkout][0]["environment"], cpu=cpu_model(),
                                platform=platform.platform()),
            "runs": runs[checkout],
        }
        Path(out).write_text(json.dumps(result_set, indent=1) + "\n", encoding="ascii")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
