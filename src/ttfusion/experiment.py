"""Experiment orchestration: load or synthesize frames, run the fusion
loop, verify projection reuse, and write deterministic outputs.

This is the layer behind the command-line front end; everything here is
importable so scripts and tests can drive runs directly.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass

import numpy as np

from .detection import AttentionSlice
from .frames import FrameObservation, GrayscaleImage, PatchGrid, load_frame, read_pgm, write_pgm
from .fusion import SequenceResult, run_sequence, run_sequences
from .projection import EquivalenceCheck, ProjectionSet, verify_equivalence
from .report import build_report, load_report, write_report
from .runconfig import ATTENTION_SOURCE_TENSOR_FILES, RunConfig, config_echo
from .synthetic import FRAME_NAME, generate_frames
from .tensor_io import read_tensor, write_tensor
from .toy_encoder import EncoderSpec, ToyEncoder, encode

logger = logging.getLogger("ttfusion")

MASK_DIR = "masks"
MASK_NAME = "mask_{:06d}.pgm"
TOKEN_DIR = "tokens"
TOKEN_NAME = "fused_{:06d}.ttft"
TEXT_ATTENTION_NAME = "attn_text_{:06d}.ttft"
ACTION_ATTENTION_NAME = "attn_action_{:06d}.ttft"
REPORT_NAME = "report.json"
_FRAME_FILE = re.compile(r"frame_(\d{6,})\.ppm")
_ATTENTION_FILE = re.compile(r"attn_(text|action)_(\d{6,})\.ttft")


@dataclass
class ExperimentResult:
    config: RunConfig
    sequence: SequenceResult
    checks: list[EquivalenceCheck]
    report: dict


def load_frames_dir(path: str | os.PathLike) -> list[FrameObservation]:
    """Load frame_%06d.ppm files starting at index 0.

    The indices must be contiguous: a missing index below the highest one
    present raises ``FileNotFoundError`` naming the first missing index.
    """
    if not os.path.isdir(path):
        raise FileNotFoundError(f"frames directory not found: {path}")
    frames = []
    t = 0
    while True:
        frame_path = os.path.join(path, FRAME_NAME.format(t))
        if not os.path.exists(frame_path):
            break
        frames.append(load_frame(frame_path, t))
        t += 1
    if not frames:
        raise FileNotFoundError(f"no frame_000000.ppm in {path}: first frame missing")
    # t is the first missing index; any higher index on disk is a gap.
    indices = [int(m[1]) for m in map(_FRAME_FILE.fullmatch, os.listdir(path)) if m]
    if max(indices) > t:
        raise FileNotFoundError(
            f"frame gap in {path}: {FRAME_NAME.format(t)} (index {t}) is missing, "
            f"but frames up to index {max(indices)} exist"
        )
    return frames


@dataclass
class TensorFileAttentionEncoder:
    """Toy tokens with attention slices read from tensor files.

    Each timestep t needs attn_text_%06d.ttft (heads x text tokens x
    patches) and/or attn_action_%06d.ttft (heads x patches) under the
    attention directory; the file matching the configured mode must exist.
    """

    spec: EncoderSpec
    attention_dir: str
    required: str  # "text" or "action"

    def __call__(self, frame: FrameObservation, gray: GrayscaleImage | None = None):
        tokens = encode(frame, self.spec, gray)
        text_path = os.path.join(self.attention_dir, TEXT_ATTENTION_NAME.format(frame.timestep))
        action_path = os.path.join(
            self.attention_dir, ACTION_ATTENTION_NAME.format(frame.timestep)
        )
        text_rows = read_tensor(text_path) if os.path.exists(text_path) else None
        action_row = read_tensor(action_path) if os.path.exists(action_path) else None
        if self.required == "text" and text_rows is None:
            raise FileNotFoundError(f"attention tensor not found: {text_path}")
        if self.required == "action" and action_row is None:
            raise FileNotFoundError(f"attention tensor not found: {action_path}")
        slice_ = AttentionSlice(
            text_rows=text_rows, action_row=action_row, source_timestep=frame.timestep
        )
        return tokens, slice_

    def reject_extra_files(self, frame_count: int) -> None:
        """Raise ``FileExistsError`` naming the first tensor of the required
        kind whose index is past the last of ``frame_count`` frames."""
        extra = [
            (int(m[2]), m[0])
            for m in map(_ATTENTION_FILE.fullmatch, os.listdir(self.attention_dir))
            if m and m[1] == self.required and int(m[2]) >= frame_count
        ]
        if extra:
            index, name = min(extra)
            raise FileExistsError(
                f"extra attention tensor in {self.attention_dir}: {name} (index {index}), "
                f"but the run has frames up to index {frame_count - 1} only"
            )


def build_encoder(config: RunConfig, frame_count: int):
    """The run's encoder.  A tensor-file encoder is first checked against
    the frame count, so a misnumbered attention directory fails before any
    step runs."""
    spec = EncoderSpec(
        token_dim=config.fusion.token_dim,
        seed=config.seed,
        text_token_count=config.text_tokens,
        head_count=config.heads,
    )
    if config.attention_source == ATTENTION_SOURCE_TENSOR_FILES:
        required = "text" if config.fusion.attention_mode == "text_to_vision" else "action"
        encoder = TensorFileAttentionEncoder(
            spec=spec, attention_dir=config.attention_dir, required=required
        )
        encoder.reject_extra_files(frame_count)
        return encoder
    return ToyEncoder(spec)


def materialize_frames(config: RunConfig) -> list[FrameObservation]:
    if config.frames_dir is not None:
        return load_frames_dir(config.frames_dir)
    return generate_frames(config.synth)


def run_experiment(
    config: RunConfig,
    frames: list[FrameObservation] | None = None,
    timing: dict | None = None,
) -> ExperimentResult:
    """One full run: fusion loop plus Q/K/V reuse verification."""
    if frames is None:
        frames = materialize_frames(config)
    encoder = build_encoder(config, len(frames))
    sequence = run_sequence(frames, encoder, config.fusion, timing=timing)
    return _verify_and_report(config, sequence)


def _verify_and_report(config: RunConfig, sequence: SequenceResult) -> ExperimentResult:
    """Check Q/K/V reuse over a finished fusion run and build its report."""
    projections = ProjectionSet.generate(config.fusion.token_dim, config.seed)
    checks = verify_equivalence(sequence.steps, projections)
    report = build_report(config_echo(config), sequence, checks)
    logger.info(
        "run: %d steps, mean fusion rate %.4f (all) / %.4f (non-keyframe), max reuse error %g",
        len(sequence.steps),
        sequence.mean_fusion_rate_all,
        sequence.mean_fusion_rate_non_keyframe,
        max((c.max_error for c in checks), default=0.0),
    )
    return ExperimentResult(config=config, sequence=sequence, checks=checks, report=report)


def write_run_outputs(result: ExperimentResult, out_dir: str | os.PathLike) -> str:
    """Write report.json plus optional mask/token artifacts; returns the
    report path."""
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, REPORT_NAME)
    write_report(report_path, result.report)
    config = result.config
    grid = config.fusion.grid
    if config.emit_masks:
        mask_dir = os.path.join(out_dir, MASK_DIR)
        os.makedirs(mask_dir, exist_ok=True)
        for step in result.sequence.steps:
            if step.is_keyframe:
                continue
            image = (step.fusion_mask.reshape(grid.rows, grid.cols) * 255).astype(np.uint8)
            write_pgm(os.path.join(mask_dir, MASK_NAME.format(step.timestep)), image)
    if config.emit_tokens:
        token_dir = os.path.join(out_dir, TOKEN_DIR)
        os.makedirs(token_dir, exist_ok=True)
        for step in result.sequence.steps:
            write_tensor(
                os.path.join(token_dir, TOKEN_NAME.format(step.timestep)),
                step.fused_tokens.values,
            )
    return report_path


def run_sweep(
    config: RunConfig, parameter: str, values: list, frames: list[FrameObservation] | None = None
) -> tuple[dict, list[ExperimentResult]]:
    """Run the same frames once per parameter value.

    Every value is applied before anything runs, so an invalid one fails
    first.  All values then advance through the frames in lockstep: each
    frame's grayscale, encoding (by an encoder built from ``config``; sweep
    parameters are fusion knobs the encoder does not read) and pixel diffs
    are computed once and feed every value's step.  Each value is then verified and
    reported as ``run_experiment`` would.  Returns the sweep summary
    (value -> fusion-rate means) and the per-value results in order.
    """
    from .report import build_sweep_summary
    from .runconfig import apply_parameter

    if not values:
        raise ValueError("sweep values list is empty")
    varied = [apply_parameter(config, parameter, value) for value in values]
    if frames is None:
        frames = materialize_frames(config)
    encoder = build_encoder(config, len(frames))
    sequences = run_sequences(frames, encoder, [v.fusion for v in varied])
    points = []
    results = []
    for value, point_config, sequence in zip(values, varied, sequences):
        result = _verify_and_report(point_config, sequence)
        results.append(result)
        points.append(
            {
                "value": value,
                "mean_fusion_rate_all": result.sequence.mean_fusion_rate_all,
                "mean_fusion_rate_non_keyframe": result.sequence.mean_fusion_rate_non_keyframe,
            }
        )
        logger.info("sweep %s=%s: mean fusion rate %.4f", parameter, value, points[-1]["mean_fusion_rate_all"])
    return build_sweep_summary(parameter, points), results


def replay_run_dir(run_dir: str | os.PathLike) -> tuple[dict, list[EquivalenceCheck]]:
    """Re-check a recorded run from its report, token dumps, and mask files.

    The run must have been written with ``emit_tokens`` (and ``emit_masks``
    unless every step was a keyframe); projection weights are regenerated
    from the config echo.
    """
    report = load_report(os.path.join(run_dir, REPORT_NAME))
    config = report["config"]
    grid_patches = PatchGrid.from_dims(config["width"], config["height"]).patch_count
    items = []
    for record in report["steps"]:
        t = record["t"]
        token_path = os.path.join(run_dir, TOKEN_DIR, TOKEN_NAME.format(t))
        if not os.path.exists(token_path):
            raise FileNotFoundError(
                f"token dump not found: {token_path} (run with emit_tokens = true)"
            )
        tokens = read_tensor(token_path).astype(np.float64)
        if record["is_keyframe"]:
            mask = np.ones(grid_patches, dtype=np.uint8)
        else:
            mask_path = os.path.join(run_dir, MASK_DIR, MASK_NAME.format(t))
            if not os.path.exists(mask_path):
                raise FileNotFoundError(
                    f"mask file not found: {mask_path} (run with emit_masks = true)"
                )
            mask = (read_pgm(mask_path).ravel() > 0).astype(np.uint8)
        items.append((tokens, mask))
    projections = ProjectionSet.generate(config["token_dim"], config["seed"])
    checks = verify_equivalence(items, projections)
    return report, checks
