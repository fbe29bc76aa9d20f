"""The set-up probe, run by run.py in a fresh process for ``setup_s``.

    python3 benchmarks/worker.py --workload reuse-224 --seed 1

It imports numpy and ttfusion and finishes a one-frame warm-up ``step``;
run.py times the whole process, so interpreter start-up, BLAS start-up and
the encoder's cached projection all count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    from ttfusion.fusion import FusionConfig, FusionState, step
    from ttfusion.synthetic import SynthSpec, generate_frames
    from ttfusion.toy_encoder import EncoderSpec, ToyEncoder

    spec = SynthSpec(frame_count=1, width=workload.size, height=workload.size, walker=True,
                     noise_amplitude=workload.noise, seed=args.seed)
    config = FusionConfig(width=workload.size, height=workload.size)
    step(FusionState(), generate_frames(spec)[0], ToyEncoder(EncoderSpec(seed=args.seed)), config)
    return 0


if __name__ == "__main__":
    sys.exit(main())
