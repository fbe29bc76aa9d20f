"""The timed loop of run.py and the checks on every command it runs.

``measure()`` runs the workload's ``ttf`` commands through
``ttfusion.cli.main`` in a closed loop (one command at a time), checks
every output and returns the raw measurements.  The first iteration is a
warm-up and is not timed.  With ``trace`` the timed iterations alternate
between untraced and traced, so the tracing overhead is measured on the
same inputs.  run.py pins BLAS to one thread before this module imports
numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracer import Tracer, layer_metrics
from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Each run keeps at least ten step samples beyond its p95.
MIN_STEP_SAMPLES = 200
MIN_ITERATIONS = 4


def write_inputs(workload: Workload, seed: int) -> None:
    """Frames and per-step text attention tensors for a from-files workload."""
    from ttfusion.experiment import TEXT_ATTENTION_NAME
    from ttfusion.frames import save_frame
    from ttfusion.synthetic import FRAME_NAME, SynthSpec, generate_frames
    from ttfusion.tensor_io import write_tensor
    from ttfusion.toy_encoder import EncoderSpec, synth_attention

    frames_dir = workload.work_dir / "frames"
    attention_dir = workload.work_dir / "attention"
    frames_dir.mkdir()
    attention_dir.mkdir()
    spec = SynthSpec(frame_count=workload.frames, width=workload.size, height=workload.size,
                     change_fraction=workload.change_fraction, walker=True,
                     noise_amplitude=workload.noise, seed=seed)
    encoder_spec = EncoderSpec(seed=seed)
    for frame in generate_frames(spec):
        save_frame(frames_dir / FRAME_NAME.format(frame.timestep), frame)
        attention = synth_attention(frame, encoder_spec)
        write_tensor(attention_dir / TEXT_ATTENTION_NAME.format(frame.timestep),
                     attention.text_rows)


def call_cli(argv: list[str]) -> tuple[int | None, str, float]:
    """Exit code of ``ttfusion.cli.main`` (None if it raised), its stderr,
    and the seconds the call took."""
    from ttfusion import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            import traceback

            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - started
    return code, err.getvalue(), elapsed


def step_problems(report: dict, frames: int) -> list[str]:
    """Check every step record against the fusion rules, for any seed.

    Keyframes (every K steps) recompute all N patches.  Other steps OR the
    pixel mask with a top-k attention mask (the previous step's attention
    always exists here), and reuse the rest.  Each reused row saves 3 d^2
    multiplications and reproduces its Q/K/V rows exactly.
    """
    config = report["config"]
    k, d = config["keyframe_interval"], config["token_dim"]
    n = (config["width"] // 14) * (config["height"] // 14)
    steps = report["steps"]
    if len(steps) != frames:
        return [f"{len(steps)} steps, want {frames}"]
    problems = []
    for t, s in enumerate(steps):
        p, a, f = s["pixel_updates"], s["attention_updates"], s["fusion_updates"]
        if s["is_keyframe"]:
            masks_ok = (p, a, f, s["fusion_rate"]) == (n, n, n, 0.0)
        else:
            masks_ok = (a == min(config["top_k"], n) and max(p, a) <= f <= min(n, p + a)
                        and s["fusion_rate"] == (n - f) / n)
        if not (masks_ok and s["t"] == t and s["is_keyframe"] == (t % k == 0)
                and s["reused_rows"] == n - f
                and s["saved_multiplications"] == 3 * d * d * (n - f)
                and s["query_error"] == s["key_error"] == s["value_error"] == 0.0):
            problems.append(f"step {t} breaks the fusion rules: {s}")
    return problems[:3]


class Checker:
    """Checks each command's outputs and counts the commands that fail.

    A command fails if it exits nonzero, or if a report it wrote does not
    pass load_report's aggregate self-check, breaks a rule step_problems
    checks (a nonzero Q/K/V reuse error among them), or has a sha256 other
    than the one recorded for this workload and seed.  For a seed with no
    recorded digest the first iteration's digest is the reference, so every
    repetition must be byte-identical to it.
    """

    def __init__(self, workload: Workload, expected: dict | None):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests: dict | None = None

    def _report_problems(self, out: Path) -> list[str]:
        from ttfusion.report import InvariantError, load_report

        problems = []
        digests = {}
        for name in self.workload.report_paths():
            path = out / name
            try:
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                problems += [f"{name}: {p}"
                             for p in step_problems(load_report(path), self.workload.frames)]
            except (OSError, ValueError, KeyError, TypeError, InvariantError) as exc:
                problems.append(f"{name}: {exc!r}")
        if self.digests is None and len(digests) == len(self.workload.report_paths()):
            self.digests = digests
        reference = self.expected or self.digests
        if digests != reference:
            problems.append(f"report sha256 {digests} differs from {reference}")
        return problems

    def run(self, config: Path, out: Path) -> float:
        """Run one iteration's commands, checking each; returns the seconds
        spent in the commands, not in the checks."""
        seconds = 0.0
        for argv in self.workload.commands(config, out):
            self.attempted += 1
            code, stderr, elapsed = call_cli(argv)
            seconds += elapsed
            problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()}"]
            if code == 0 and argv[0] != "verify-qreuse":
                problems = self._report_problems(out)
            if problems:
                self.failed += 1
                print(f"{self.workload.name}: ttf {argv[0]} failed: " + "; ".join(problems),
                      file=sys.stderr)
        return seconds


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    os.chdir(ROOT)
    work = workload.work_dir
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.cfg"
    config.write_text(workload.config_text(seed), encoding="ascii")
    if workload.from_files:
        write_inputs(workload, seed)
    recorded = json.loads((BENCH_DIR / "expected.json").read_text(encoding="ascii"))["digests"]
    checker = Checker(workload, recorded.get(workload.name, {}).get(str(seed)))
    out = work / "out"
    step_timer = Tracer(full=False)
    tracer = Tracer(full=True) if trace else None
    if tracer is not None and tracer.missing:
        print(f"tracer: bindings not found: {', '.join(tracer.missing)}", file=sys.stderr)
    frames_per_command = workload.frames * workload.points
    rates: dict[bool, list[float]] = {False: [], True: []}

    def iteration(recorder: Tracer, index: int) -> float:
        shutil.rmtree(out, ignore_errors=True)
        recorder.install(index)
        try:
            return frames_per_command / checker.run(config, out)
        finally:
            recorder.uninstall()

    iteration(step_timer, -1)
    step_timer.spans.clear()
    deadline = time.perf_counter() + seconds
    index = 0
    while (time.perf_counter() < deadline or index < MIN_ITERATIONS
           or len(step_timer.spans) < MIN_STEP_SAMPLES):
        traced = tracer is not None and index % 2 == 1
        rates[traced].append(iteration(tracer if traced else step_timer, index))
        index += 1

    result = {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "digests": checker.digests,
        "environment": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_version(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if tracer is None:
        steps_ms = np.array(step_timer.durations("fusion.step")) * 1000.0
        result.update(
            frames_per_s=rates[False],
            step_ms=steps_ms.tolist(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        )
    else:
        tracer.write(work / "spans.csv")
        untraced, traced = statistics.median(rates[False]), statistics.median(rates[True])
        layers = layer_metrics(tracer, workload.frames * len(rates[True]), len(rates[True]))
        layers["trace.untraced_frames_per_s"] = (untraced, "frames/s")
        layers["trace.traced_frames_per_s"] = (traced, "frames/s")
        layers["trace.overhead_share"] = (untraced / traced - 1.0, "ratio")
        result["layers"] = layers
    return result


def _blas_version() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')}"
