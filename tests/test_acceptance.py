"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import time

import numpy as np

import ttfusion.detection
from ttfusion.cli import main
from ttfusion.detection import patch_diffs, threshold_diffs, top_k_mask
from ttfusion.frames import FrameObservation, PatchGrid, to_grayscale
from ttfusion.fusion import FusionConfig, lockstep
from ttfusion.projection import ProjectionSet, ReuseChecker
from ttfusion.report import step_record
from ttfusion.synthetic import SynthSpec, generate_frames, walker_patch
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder


def report_line(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def brute_force_diffs(a, b, grid):
    """Per-pixel oracle: no patch-shaped array arithmetic."""
    acc = [0.0] * grid.patch_count
    rows_a = a.tolist()
    rows_b = b.tolist()
    for u in range(len(rows_a)):
        band = (u // 14) * grid.cols
        row_a = rows_a[u]
        row_b = rows_b[u]
        for v in range(len(row_a)):
            acc[band + v // 14] += abs(row_a[v] - row_b[v])
    return np.array([s / 196.0 for s in acc])


def toy(seed, token_dim=64):
    return ToyEncoder(EncoderSpec(token_dim=token_dim, seed=seed))


def run_steps(frames, encoder, config):
    """One config's steps over the frames, from ``lockstep``."""
    return [step for [step] in lockstep(frames, encoder, [config])]


def mean(values):
    return sum(values) / len(values)


def test_c1_pixel_diff_matches_brute_force_oracle():
    rng = np.random.default_rng(101)
    grid = PatchGrid.from_dims(224, 224)
    threshold = 0.03
    worst = 0.0
    mask_mismatches = 0
    implementation_seconds = 0.0
    for _ in range(50):
        a = to_grayscale(
            FrameObservation(rng.integers(0, 256, (224, 224, 3), dtype=np.uint8), 0)
        )
        b = to_grayscale(
            FrameObservation(rng.integers(0, 256, (224, 224, 3), dtype=np.uint8), 0)
        )
        started = time.perf_counter()
        diffs = patch_diffs(a, b, grid)
        mask = threshold_diffs(diffs, threshold)
        implementation_seconds += time.perf_counter() - started
        oracle = brute_force_diffs(a, b, grid)
        worst = max(worst, float(np.abs(diffs - oracle).max()))
        mask_mismatches += int((mask != (oracle > threshold)).sum())
    ok = worst <= 1e-12 and mask_mismatches == 0 and implementation_seconds < 1.0
    print(
        f"  [c1] max deviation {worst:.3e}, {mask_mismatches} mask mismatches, "
        f"detection time {implementation_seconds:.3f}s"
    )
    report_line("C1 dual-detection oracle equivalence", ok)


def test_c2_keyframe_schedule_across_intervals_and_seeds():
    violations = 0
    for seed in range(10):
        frames = generate_frames(
            SynthSpec(frame_count=60, width=168, height=168, noise_amplitude=0.05, seed=seed)
        )
        encoder = toy(seed)
        for interval in (2, 3, 5, 10):
            config = FusionConfig(width=168, height=168, keyframe_interval=interval)
            for t, result in enumerate(run_steps(frames, encoder, config)):
                if t % interval == 0 or t == 0:
                    if result.fusion_rate != 0.0 or not result.is_keyframe:
                        violations += 1
    report_line("C2 keyframe schedule (fusion rate exactly 0 at t mod K = 0)", violations == 0)


def test_c3_top_k_matches_sort_oracle():
    rng = np.random.default_rng(103)
    mismatches = 0
    for trial in range(1000):
        scores = rng.random(256)
        if trial % 2:
            scores = np.round(scores, 2)  # quantized half: exercises tie-breaks
        mask = top_k_mask(scores, 70)
        selected = set(np.nonzero(mask)[0])
        oracle = set(sorted(range(256), key=lambda i: (-scores[i], i))[:70])
        if selected != oracle:
            mismatches += 1
    report_line("C3 top-k exactness vs sort oracle (1000 vectors)", mismatches == 0)


def test_c4_static_sequence_fusion_rate_is_exactly_186_over_256():
    frames = generate_frames(SynthSpec(frame_count=10, seed=104))
    config = FusionConfig(keyframe_interval=100, pixel_threshold=0.03, top_k=70)
    steps = run_steps(frames, toy(104), config)
    non_keyframe = [s.fusion_rate for s in steps if not s.is_keyframe]
    ok = len(non_keyframe) == 9 and all(rate == 186 / 256 for rate in non_keyframe)
    print(f"  [c4] non-keyframe rates: {sorted(set(non_keyframe))}")
    report_line("C4 static-sequence fusion rate = 186/256 exactly", ok)


def test_c5_or_combination_is_conservative_on_every_sequence():
    sequences = [
        SynthSpec(frame_count=50, width=168, height=168, seed=1),
        SynthSpec(frame_count=50, width=168, height=168, noise_amplitude=0.05, seed=2),
        SynthSpec(
            frame_count=50, width=168, height=168, noise_amplitude=0.08, walker=True, seed=3
        ),
        SynthSpec(frame_count=50, width=168, height=168, change_fraction=0.05, seed=4),
        SynthSpec(frame_count=50, width=168, height=168, walker=True, seed=5),
    ]
    exceptions = 0
    for spec in sequences:
        frames = generate_frames(spec)
        encoder = toy(spec.seed)
        base = dict(width=168, height=168, keyframe_interval=5)
        configs = [
            FusionConfig(**base),
            FusionConfig(enable_attention=False, **base),
            FusionConfig(enable_pixel=False, **base),
        ]
        # Each frame's three steps: dual, pixel-only, attention-only.
        rates = [[s.fusion_rate for s in steps] for steps in lockstep(frames, encoder, configs)]
        dual, pixel_only, attention_only = zip(*rates)
        if not mean(dual) <= min(mean(pixel_only), mean(attention_only)):
            exceptions += 1
        for d, p, a in rates:
            if d > min(p, a):
                exceptions += 1
    report_line("C5 dual-dimension fusion rate <= min(pixel-only, attention-only)", exceptions == 0)


def test_c6_keyframe_interval_sweep_is_monotone():
    started = time.perf_counter()
    frames = generate_frames(
        SynthSpec(
            frame_count=120, change_fraction=0.02, walker=True, noise_amplitude=0.08, seed=1
        )
    )
    configs = [
        FusionConfig(keyframe_interval=interval)
        for interval in (2, 3, 5, 10, 15, 20, 30, 50, 100)
    ]
    # One pass runs all nine intervals; column i holds interval i's rates.
    columns = zip(*lockstep(frames, toy(1), configs))
    means = [mean([s.fusion_rate for s in steps]) for steps in columns]
    elapsed = time.perf_counter() - started
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    ok = monotone and means[-1] > means[0] and elapsed < 30.0
    print(f"  [c6] rates {['%.4f' % m for m in means]} in {elapsed:.1f}s")
    report_line("C6 fusion rate non-decreasing in keyframe interval", ok)


def test_c7_kqv_reuse_is_bit_exact_over_100_frame_runs():
    worst = 0.0
    ledger_ok = True
    for seed in (7, 77):
        frames = generate_frames(
            SynthSpec(frame_count=100, noise_amplitude=0.05, walker=True, seed=seed)
        )
        checker = ReuseChecker(ProjectionSet.generate(64, seed), rows=256)
        records, recount = [], 0
        for [step] in lockstep(frames, toy(seed), [FusionConfig()]):
            errors, _ = checker.check(step.fused_tokens, step.fusion_mask)
            records.append(step_record(step, errors))
            worst = max(worst, *errors.values())
            recount += int(np.count_nonzero(step.fusion_mask == 0)) * 64 * 64 * 3
        if sum(r["saved_multiplications"] for r in records) != recount:
            ledger_ok = False
    ok = worst == 0.0 and ledger_ok
    print(f"  [c7] max reuse error {worst}, ledger recount {'OK' if ledger_ok else 'MISMATCH'}")
    report_line("C7 implicit Q/K/V reuse bit-exact with exact savings ledger", ok)


def test_c8_walker_pixel_mask_matches_analytic_ground_truth():
    spec = SynthSpec(frame_count=101, walker=True, seed=108)
    frames = generate_frames(spec)
    grid = spec.grid
    config = FusionConfig(
        keyframe_interval=1000, pixel_threshold=0.01, enable_attention=False
    )
    steps = run_steps(frames, toy(108), config)
    mismatches = 0
    for t in range(1, 101):
        expected = np.zeros(grid.patch_count, dtype=np.uint8)
        expected[walker_patch(grid, t - 1)] = 1
        expected[walker_patch(grid, t)] = 1
        step = steps[t]
        if not np.array_equal(step.pixel_mask, expected):
            mismatches += 1
        if not np.array_equal(step.fusion_mask, expected):
            mismatches += 1
    report_line("C8 walker pixel mask equals entered/left patch set (100 steps)", mismatches == 0)


def test_c9_run_command_is_byte_deterministic(tmp_path):
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "synth_frames = 40\nsynth_noise = 0.05\nsynth_walker = true\n"
        "seed = 109\nemit_masks = true\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", "--config", str(config_path), "--out", str(out_a)])
    code_b = main(["run", "--config", str(config_path), "--out", str(out_b)])
    reports_equal = (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    masks_a = sorted(p.name for p in (out_a / "masks").iterdir())
    masks_equal = bool(masks_a) and all(
        (out_a / "masks" / name).read_bytes() == (out_b / "masks" / name).read_bytes()
        for name in masks_a
    )
    ok = code_a == 0 and code_b == 0 and reports_equal and masks_equal
    report_line("C9 identical config+seed give byte-identical outputs", ok)


def test_c10_throughput_and_d_independent_detection(monkeypatch):
    frames = generate_frames(SynthSpec(frame_count=500, walker=True, seed=110))
    started = time.perf_counter()
    for _ in lockstep(frames, toy(110), [FusionConfig()]):
        pass
    run_seconds = time.perf_counter() - started

    spot_frames = generate_frames(
        SynthSpec(frame_count=300, walker=True, noise_amplitude=0.05, seed=111)
    )

    # Pixel detection is the loop's patch_sum_estimate and
    # threshold_estimate calls; time each call where the loop looks them up.
    names = ("patch_sum_estimate", "threshold_estimate")
    samples = {}

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples[name].append(time.perf_counter() - started)

        return wrapper

    detection = ttfusion.detection
    for name in names:
        monkeypatch.setattr(detection, name, timed(name, getattr(detection, name)))

    per_call = {64: {name: [] for name in names}, 128: {name: [] for name in names}}

    def record_detection_calls(token_dim):
        samples.update(per_call[token_dim])
        for _ in lockstep(spot_frames, toy(111, token_dim=token_dim), [FusionConfig()]):
            pass

    # Five trials per width, the widths alternating so that a drift in
    # machine speed reaches both alike.  Medians of the per-call times
    # ignore the few calls that a page fault or a preemption stretches.
    for _ in range(5):
        record_detection_calls(64)
        record_detection_calls(128)
    base, doubled = (
        sum(float(np.median(per_call[token_dim][name])) for name in names)
        for token_dim in (64, 128)
    )
    ok = run_seconds < 10.0 and abs(doubled - base) <= 0.10 * base
    print(
        f"  [c10] 500-frame run {run_seconds:.2f}s; detection per step "
        f"{base*1e6:.1f}us (d=64) vs {doubled*1e6:.1f}us (d=128)"
    )
    report_line("C10 throughput < 10s and detection cost independent of token dim", ok)
