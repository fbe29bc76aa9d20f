"""The fusion loop against a straight-line statement of its algorithm.

``reference_run`` encodes every patch of every frame, diffs whole grayscale
planes in one reshape-sum, ranks scores with a stable argsort and fuses with
``np.where``.  It shares none of the loop's machinery: no
``SharedObservation``, no row-subset encoding, no banded diffs, no cached or
skipped scores.  Besides the frames it runs on, it calls only
``to_grayscale``, ``ToyEncoder``, ``read_tensor`` and ``project_full``,
whose bits their own tests pin.  Each comparison runs
after the whole run, so a step's output that a later step overwrites shows.
"""

import json
import math
import random

import numpy as np
import pytest

from ttfusion.detection import ACTION_TO_VISION, TEXT_TO_VISION
from ttfusion.experiment import build_encoder, open_frames, run_points
from ttfusion.frames import PATCH_PIXELS, PATCH_SIDE, to_grayscale
from ttfusion.fusion import lockstep
from ttfusion.projection import ProjectionSet, project_full
from ttfusion.runconfig import build_run_config
from ttfusion.synthetic import iter_frames
from ttfusion.tensor_io import read_tensor, write_tensor
from ttfusion.toy_encoder import ToyEncoder


def reference_scores(config, frame, encoder, features):
    """Frame t's per-patch relevance: the mean attention over heads (and
    text tokens), from the frame's attention file or the toy encoder."""
    mode = config.fusion.attention_mode
    if config.attention_dir is not None:
        kind = "text" if mode == TEXT_TO_VISION else "action"
        name = f"{config.attention_dir}/attn_{kind}_{frame.timestep:06d}.ttft"
        weights = read_tensor(name).astype(np.float64)
    else:
        attention = encoder.attention(frame, features, mode)
        weights = attention.text_rows if mode == TEXT_TO_VISION else attention.action_row
    return weights.mean(axis=(0, 1)) if mode == TEXT_TO_VISION else weights.mean(axis=0)


def reference_run(config):
    """The masks, fused tokens and report records of ``config``'s run."""
    fusion = config.fusion
    grid = fusion.grid
    n, d = grid.patch_count, config.token_dim
    encoder = ToyEncoder(config.encoder_spec)
    weights = ProjectionSet.generate(d, config.seed)
    steps, records = [], []
    prev_gray = prev_fused = prev_scores = prev_projected = None
    for t, frame in enumerate(iter_frames(config.synth)):
        gray = to_grayscale(frame)
        features = encoder.features(frame, gray)
        fresh = encoder.tokens(features, None)
        keyframe = t % fusion.keyframe_interval == 0
        pixel = attention = np.ones(n, dtype=bool)
        if not keyframe:
            pixel = np.zeros(n, dtype=bool)
            if fusion.enable_pixel:
                blocks = np.abs(gray - prev_gray).reshape(
                    grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE
                )
                pixel = blocks.sum(axis=(1, 3)).ravel() / PATCH_PIXELS > fusion.pixel_threshold
            attention = np.zeros(n, dtype=bool)
            if fusion.enable_attention:
                k = fusion.top_k
                if fusion.selection_mode == "rate_target":
                    k = max(math.ceil((1.0 - fusion.target_reuse_rate) * n - 1e-9), 0)
                attention[np.argsort(-prev_scores, kind="stable")[:k]] = True
        recompute = pixel | attention
        fused = fresh if keyframe else np.where(recompute[:, None], fresh, prev_fused)
        # Reuse copies a row's previous projection; the check compares that
        # with projecting every fused row.
        projected, errors = {}, {}
        for name in ("query", "key", "value"):
            full = project_full(fused, getattr(weights, name))
            projected[name] = (
                full if keyframe else np.where(recompute[:, None], full, prev_projected[name])
            )
            errors[name] = float(np.abs(projected[name] - full).max())
        reused = n - int(recompute.sum())
        steps.append((pixel, attention, recompute, fused))
        records.append({
            "t": t, "is_keyframe": keyframe,
            "pixel_updates": int(pixel.sum()), "attention_updates": int(attention.sum()),
            "fusion_updates": n - reused, "fusion_rate": reused / n, "reused_rows": reused,
            "saved_multiplications": 3 * reused * d * d, "query_error": errors["query"],
            "key_error": errors["key"], "value_error": errors["value"],
        })
        prev_gray, prev_fused, prev_projected = gray, fused, projected
        prev_scores = reference_scores(config, frame, encoder, features)
    return steps, records


def assert_loop_matches_reference(configs):
    """``lockstep`` and ``run_points`` on ``configs``, sharing frames, match
    each config's reference bit for bit, checked after the whole run."""
    frames, count = open_frames(configs[0])
    encoder = build_encoder(configs[0], count)
    loop = list(lockstep(frames, encoder, [config.fusion for config in configs]))
    results = run_points(configs[0], [config.fusion for config in configs])
    for i, (config, result) in enumerate(zip(configs, results)):
        steps, records = reference_run(config)
        assert len(loop) == len(steps)
        for t, (step, expected) in enumerate(zip((row[i] for row in loop), steps)):
            actual = (step.pixel_mask, step.attention_mask, step.fusion_mask, step.fused_tokens)
            for what, a, b in zip(("pixel", "attention", "fusion", "tokens"), actual, expected):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (config, t, what)
        assert json.dumps(result.report["steps"], sort_keys=True) == json.dumps(
            records, sort_keys=True
        ), config
        assert result.failures == []


def seeded_config(seed):
    """A config drawn from ``seed``: frame size, token width, keyframe
    interval, both detectors and their modes, and the frames' change."""
    rng = random.Random(seed)
    width, height = rng.choice([(56, 56), (112, 56), (224, 224), (448, 224)])
    n = (width // PATCH_SIDE) * (height // PATCH_SIDE)
    values = {
        "synth_frames": 12, "width": width, "height": height, "seed": seed,
        "token_dim": rng.choice([8, 16, 64]), "keyframe_interval": rng.randint(1, 7),
        "attention_mode": rng.choice([TEXT_TO_VISION, ACTION_TO_VISION]),
        "selection_mode": rng.choice(["top_k", "rate_target"]), "top_k": rng.randint(0, n),
        "target_reuse_rate": rng.choice([0.0, 0.3, 0.65, 1.0]),
        "pixel_threshold": rng.choice([0.0, 0.01, 0.03, 0.1]),
        "enable_pixel": rng.random() < 0.8, "enable_attention": rng.random() < 0.8,
        "synth_walker": rng.random() < 0.5, "synth_noise": rng.choice([0.0, 0.02, 0.1]),
        "synth_change_fraction": rng.choice([0.0, 0.1, 0.3]),
    }
    return build_run_config(values)


@pytest.mark.parametrize("seed", range(10))
def test_single_run_matches_the_reference(seed):
    assert_loop_matches_reference([seeded_config(seed)])


def test_shared_sweep_matches_the_reference():
    base = {"synth_frames": 16, "width": 112, "height": 112, "seed": 5, "token_dim": 16,
            "synth_walker": True, "synth_noise": 0.02, "synth_change_fraction": 0.1}
    knobs = [
        {"keyframe_interval": 1},
        {"keyframe_interval": 3, "top_k": 0},
        {"keyframe_interval": 6, "attention_mode": ACTION_TO_VISION, "top_k": 40},
        {"keyframe_interval": 5, "selection_mode": "rate_target", "target_reuse_rate": 0.65,
         "pixel_threshold": 0.0},
        {"keyframe_interval": 4, "top_k": 240, "enable_pixel": False},
    ]
    assert_loop_matches_reference([build_run_config({**base, **knob}) for knob in knobs])


def test_threshold_0_on_static_patches_matches_the_reference():
    # Without noise every patch off the walker's path diffs exactly 0, which
    # sits on a threshold of 0 and so reuses history.
    configs = [
        build_run_config({"synth_frames": 9, "width": 56, "height": 56, "token_dim": 8,
                          "synth_walker": True, "pixel_threshold": 0.0, "top_k": top_k,
                          "enable_attention": top_k > 0, "keyframe_interval": 4})
        for top_k in (0, 3)
    ]
    assert_loop_matches_reference(configs)


@pytest.mark.parametrize("mode", [TEXT_TO_VISION, ACTION_TO_VISION])
def test_tensor_file_attention_matches_the_reference(tmp_path, mode):
    # Most patches tie on equal weights, so the order among ties decides
    # which of them the budget takes.
    frames, n = 10, 64
    rng = np.random.default_rng(3)
    for t in range(frames):
        text = np.full((2, 3, n), 0.5 / n, dtype=np.float32)
        text[:, :, rng.integers(0, n, size=4)] = 0.1
        write_tensor(tmp_path / f"attn_text_{t:06d}.ttft", text)
        write_tensor(tmp_path / f"attn_action_{t:06d}.ttft", text[:, 0])
    configs = [
        build_run_config({"synth_frames": frames, "width": 112, "height": 112, "seed": 2,
                          "token_dim": 8, "synth_walker": True, "synth_noise": 0.02,
                          "attention_source": "tensor_files", "attention_dir": str(tmp_path),
                          "attention_mode": mode, "keyframe_interval": k, "top_k": top_k})
        for k, top_k in ((3, 20), (7, 9))
    ]
    assert_loop_matches_reference(configs)
