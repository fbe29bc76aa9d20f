"""ttfusion benchmark: one workload and one seed per invocation.

    python3 benchmarks/run.py --workload reuse-224 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; ttfusion is imported from its ``src/``.
BLAS is pinned to one thread before numpy is imported.  With
``--trace 0`` it prints the end-to-end metrics: ``setup_s`` is the median
wall time of several fresh processes (worker.py) that import numpy and
ttfusion and finish a one-frame ``step``; the others come from this
process, which runs the workload's commands in a closed loop (see
measure.py).  With ``--trace 1`` it prints the per-layer metrics of a
traced run instead.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["TTF_LOG"] = "off"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKER = BENCH_DIR / "worker.py"
SETUP_PROBES = 7


def setup_seconds(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        # No timeout: Popen.wait polls in steps of up to 50 ms when given one.
        subprocess.run([sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ttfusion" / "__init__.py").is_file():
        print(f"benchmark: no ttfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    try:
        setup = setup_seconds(args.workload, args.seed) if args.trace == 0 else []
    except subprocess.CalledProcessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    raw = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"environment: {json.dumps(raw['environment'], sort_keys=True)}")
    print(f"report digests: {json.dumps(raw['digests'], sort_keys=True)}")
    if args.trace == 0:
        rates, steps = raw["frames_per_s"], raw["step_ms"]
        percentiles = statistics.quantiles(steps, n=100)
        metrics = {
            "frames_per_s": (statistics.median(rates), "frames/s", spread(rates)),
            "step_ms_p50": (percentiles[49], "ms", f"p25 {percentiles[24]:.4f}, n={len(steps)}"),
            "step_ms_p95": (percentiles[94], "ms", f"p75 {percentiles[74]:.4f}, n={len(steps)}"),
            "setup_s": (statistics.median(setup), "s", spread(setup)),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB", "n=1"),
        }
    else:
        metrics = {name: (value, unit, "") for name, (value, unit) in raw["layers"].items()}
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<40} {value:14.6f} {unit:<9} {note}")
    print(f"  {'failed_frac':<40} {raw['failed'] / raw['attempted']:14.6f} ratio     "
          f"{raw['failed']} of {raw['attempted']} commands")
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
