"""Experiment orchestration: load or synthesize frames, run the fusion
loop, verify projection reuse, and write deterministic outputs.

This is the layer behind the command-line front end; everything here is
importable so scripts and tests can drive runs directly.
"""

from __future__ import annotations

import contextlib
import logging
import os
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .detection import ACTION_TO_VISION, TEXT_TO_VISION, AttentionSlice
from .frames import (
    FrameError,
    FrameObservation,
    PatchGrid,
    load_frame,
    numbered_files,
    read_pgm,
    write_pgm,
)
from .fusion import StepResult, lockstep
from .projection import EquivalenceCheck, ProjectionSet, ReuseChecker
from .report import (
    InvariantError,
    build_report,
    build_sweep_summary,
    load_report,
    step_record,
    write_report,
)
from .runconfig import ATTENTION_SOURCE_TENSOR_FILES, RunConfig, apply_parameter, config_echo
from .synthetic import FRAME_NAME, iter_frames
from .tensor_io import TensorFormatError, read_tensor, write_tensor
from .toy_encoder import ToyEncoder

logger = logging.getLogger("ttfusion")

MASK_DIR = "masks"
MASK_NAME = "mask_{:06d}.pgm"
TOKEN_DIR = "tokens"
TOKEN_NAME = "fused_{:06d}.ttft"
TEXT_ATTENTION_NAME = "attn_text_{:06d}.ttft"
ACTION_ATTENTION_NAME = "attn_action_{:06d}.ttft"
REPORT_NAME = "report.json"
_ATTENTION_NAMES = {TEXT_TO_VISION: TEXT_ATTENTION_NAME, ACTION_TO_VISION: ACTION_ATTENTION_NAME}


@dataclass
class ExperimentResult:
    """One point of a run: one Q/K/V reuse check per step, and its report."""

    checks: list[EquivalenceCheck]
    report: dict


@dataclass(frozen=True)
class FrameDirectory:
    """Frames 0..count - 1 of a directory of frame_%06d.ppm files, each
    loaded only when iteration reaches it."""

    path: str
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        for t in range(self.count):
            # A file removed since the directory was listed fails here, and
            # the OSError names it.
            yield load_frame(os.path.join(self.path, FRAME_NAME.format(t)), t)


def load_frames_dir(path: str | os.PathLike) -> FrameDirectory:
    """List the frame_%06d.ppm files starting at index 0, once.

    The indices must be contiguous: a missing index below the highest one
    present raises ``FileNotFoundError`` naming the first missing index.
    No frame is read here; iterating the result loads each in turn.
    """
    if not os.path.isdir(path):
        raise FileNotFoundError(f"frames directory not found: {path}")
    frames = numbered_files(path, FRAME_NAME)
    count = 0
    while count in frames:
        count += 1
    if not count:
        raise FileNotFoundError(f"no frame_000000.ppm in {path}: first frame missing")
    # count is the first missing index; any higher index on disk is a gap.
    if max(frames) > count:
        raise FileNotFoundError(
            f"frame gap in {path}: {FRAME_NAME.format(count)} (index {count}) is missing, "
            f"but frames up to index {max(frames)} exist"
        )
    return FrameDirectory(os.fspath(path), count)


@dataclass(kw_only=True)
class TensorFileAttentionEncoder(ToyEncoder):
    """Toy tokens with attention slices read from tensor files.

    Each timestep t reads one file under the attention directory, of the
    kind the run's attention ``mode`` uses: attn_text_%06d.ttft (heads x
    text tokens x patches) for text_to_vision, else attn_action_%06d.ttft
    (heads x patches).  Files of the other kind are never read.
    """

    attention_dir: str
    mode: str

    def attention(self, frame: FrameObservation, features, mode: str) -> AttentionSlice:
        """Timestep t's slice, read from its file.  A tensor whose rank or
        patch count does not fit the frame raises ``TensorFormatError``
        ("bad-shape"); weights an ``AttentionSlice`` rejects raise
        ``ValueError``.  Both name the file."""
        if mode != self.mode:
            raise ValueError(f"{mode!r} attention asked of a run in mode {self.mode!r}")
        name = _ATTENTION_NAMES[mode].format(frame.timestep)
        path = os.path.join(self.attention_dir, name)
        # The file was checked before step 0; read_tensor names it if it has
        # gone since.
        rows = read_tensor(path)
        n = PatchGrid.for_frame(frame).patch_count
        text = mode == TEXT_TO_VISION
        expected = ("heads", "text tokens", n) if text else ("heads", n)
        if rows.ndim != len(expected) or rows.shape[-1] != n:
            raise TensorFormatError(
                "bad-shape", f"{path}: attention tensor is {rows.shape}, expected {expected}"
            )
        try:
            return AttentionSlice(
                text_rows=rows if text else None,
                action_row=None if text else rows,
                source_timestep=frame.timestep,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def check_file_set(self, frame_count: int) -> None:
        """Check the mode's files against the frames before any
        step runs: ``FileNotFoundError`` names the first index in
        0..frame_count - 1 without a file, ``FileExistsError`` the first file
        whose index is past the last frame."""
        name = _ATTENTION_NAMES[self.mode]
        files = numbered_files(self.attention_dir, name)
        for t in range(frame_count):
            if t not in files:
                path = os.path.join(self.attention_dir, name.format(t))
                raise FileNotFoundError(f"attention tensor not found: {path} (index {t})")
        extra = min((i for i in files if i >= frame_count), default=None)
        if extra is not None:
            raise FileExistsError(
                f"extra attention tensor in {self.attention_dir}: {files[extra]} "
                f"(index {extra}), but the run has frames up to index {frame_count - 1} only"
            )


def build_encoder(config: RunConfig, frame_count: int):
    """The run's encoder.  A tensor-file encoder's files are first checked
    against the frame count, so a missing or misnumbered attention tensor
    fails before any step runs."""
    if config.attention_source == ATTENTION_SOURCE_TENSOR_FILES:
        encoder = TensorFileAttentionEncoder(
            spec=config.encoder_spec, attention_dir=config.attention_dir,
            mode=config.fusion.attention_mode,
        )
        encoder.check_file_set(frame_count)
        return encoder
    return ToyEncoder(config.encoder_spec)


def open_frames(config: RunConfig) -> tuple[Iterable[FrameObservation], int]:
    """The run's frames and their count.  Frames come from ``frames_dir``
    or the ``synth_*`` keys, each read or generated when the loop reaches
    it."""
    if config.frames_dir is not None:
        frames = load_frames_dir(config.frames_dir)
        return frames, len(frames)
    return iter_frames(config.synth), config.synth_frames


class _Point:
    """One config's share of the streaming pass: its Q/K/V reuse check, its
    report records, and its mask and token dumps when it has a directory."""

    def __init__(self, config: RunConfig, out_dir: str | os.PathLike | None):
        self.config = config
        self.out_dir = out_dir
        self.checker = ReuseChecker(
            ProjectionSet.generate(config.token_dim, config.seed),
            config.fusion.grid.patch_count,
        )
        self.checks: list[EquivalenceCheck] = []
        self.records: list[dict] = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            # report.json is written last, so a directory without one holds
            # an unfinished run, never a stale report beside new dumps.
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, REPORT_NAME))
            # Nor may an earlier run's dumps outlive it: verify-qreuse would
            # replay them as this run's.
            for wanted, subdir, name in (
                (config.emit_masks, MASK_DIR, MASK_NAME),
                (config.emit_tokens, TOKEN_DIR, TOKEN_NAME),
            ):
                folder = os.path.join(out_dir, subdir)
                if os.path.isdir(folder):
                    for entry in numbered_files(folder, name).values():
                        os.remove(os.path.join(folder, entry))
                if wanted:
                    os.makedirs(folder, exist_ok=True)

    def add(self, step: StepResult) -> None:
        check = self.checker.check(step.fused_tokens, step.fusion_mask)
        self.checks.append(check)
        self.records.append(step_record(step, check))
        if self.out_dir is None:
            return
        t = step.timestep
        if self.config.emit_masks and not step.is_keyframe:
            grid = self.config.fusion.grid
            image = (step.fusion_mask.reshape(grid.rows, grid.cols) * 255).astype(np.uint8)
            write_pgm(os.path.join(self.out_dir, MASK_DIR, MASK_NAME.format(t)), image)
        if self.config.emit_tokens:
            write_tensor(
                os.path.join(self.out_dir, TOKEN_DIR, TOKEN_NAME.format(t)),
                step.fused_tokens,
            )

    def finish(self) -> ExperimentResult:
        report = build_report(config_echo(self.config), self.records)
        aggregates = report["aggregates"]
        logger.info(
            "run: %d steps, mean fusion rate %.4f (all) / %.4f (non-keyframe), max reuse error %g",
            aggregates["steps"],
            aggregates["mean_fusion_rate_all"],
            aggregates["mean_fusion_rate_non_keyframe"],
            max((c.max_error for c in self.checks), default=0.0),
        )
        result = ExperimentResult(checks=self.checks, report=report)
        if self.out_dir is not None:
            write_report(os.path.join(self.out_dir, REPORT_NAME), report)
        return result


def run_points(configs: list[RunConfig], out_dirs: list | None = None) -> list[ExperimentResult]:
    """Run the same frames once per config, in one streaming pass.

    Frames and the encoder come from the first config (configs may differ
    only in fusion knobs neither reads); an empty ``configs`` raises
    ``ValueError`` before any frame is opened.  Every config advances
    through the frames in lockstep (``fusion.lockstep``).  Right after its
    step, each config's Q/K/V reuse check runs and the step is reduced to
    its report record; its fused tokens live on only as the next step's
    history, so memory does not grow with the episode.  With ``out_dirs``,
    one directory per config, each config's mask and token dumps are
    written as its steps complete and its report.json after the last step.
    """
    if not configs:
        raise ValueError("no fusion configs to run")
    frames, count = open_frames(configs[0])
    encoder = build_encoder(configs[0], count)
    if out_dirs is None:
        out_dirs = [None] * len(configs)
    points = [_Point(config, out_dir) for config, out_dir in zip(configs, out_dirs, strict=True)]
    for steps in lockstep(frames, encoder, [config.fusion for config in configs]):
        for point, step in zip(points, steps):
            point.add(step)
    return [point.finish() for point in points]


def run_experiment(config: RunConfig, out_dir: str | os.PathLike | None = None) -> ExperimentResult:
    """One full run: fusion loop plus Q/K/V reuse verification, writing its
    outputs to ``out_dir`` when given (see ``run_points``)."""
    return run_points([config], None if out_dir is None else [out_dir])[0]


def run_sweep(
    config: RunConfig,
    parameter: str,
    values: list,
    out_dir: str | os.PathLike | None = None,
) -> tuple[dict, list[ExperimentResult]]:
    """Run the same frames once per parameter value, through ``run_points``.

    Every value is applied before anything runs, so an invalid one fails
    first.  All values then advance through the frames in lockstep, sharing
    each frame's grayscale, encoding and pixel diffs, and each value is
    verified and reported exactly as ``run_experiment`` would, writing its
    outputs to ``out_dir/<parameter>_<value>`` when ``out_dir`` is given.
    Returns the sweep summary (value -> the fusion-rate means of its report)
    and the per-value results in order.
    """
    if not values:
        raise ValueError("sweep values list is empty")
    varied = [apply_parameter(config, parameter, value) for value in values]
    out_dirs = None
    if out_dir is not None:
        out_dirs = [os.path.join(out_dir, f"{parameter}_{value}") for value in values]
    results = run_points(varied, out_dirs)
    points = []
    for value, result in zip(values, results):
        aggregates = result.report["aggregates"]
        points.append(
            {
                "value": value,
                "mean_fusion_rate_all": aggregates["mean_fusion_rate_all"],
                "mean_fusion_rate_non_keyframe": aggregates["mean_fusion_rate_non_keyframe"],
            }
        )
    return build_sweep_summary(parameter, points), results


def replay_run_dir(run_dir: str | os.PathLike) -> tuple[dict, list[EquivalenceCheck]]:
    """Re-check a recorded run from its report, token dumps, and mask files.

    The run must have been written with ``emit_tokens`` (and ``emit_masks``
    unless every step was a keyframe); projection weights are regenerated
    from the config echo, and one ``ReuseChecker`` checks the steps in
    order.  A token dump that is not (patches, token_dim) raises
    ``TensorFormatError`` and a mask that is not the patch grid raises
    ``FrameError``, each naming the file and both shapes.  A report that
    ``load_report`` rejects, and a step whose mask reuses another number of
    rows than its record says, raise ``InvariantError`` naming the mask
    file, or the report for a keyframe.  Each step's dump and mask are read
    as the check reaches the step.
    """
    report_path = os.path.join(run_dir, REPORT_NAME)
    report = load_report(report_path)
    config = report["config"]
    grid = PatchGrid.from_dims(config["width"], config["height"])
    token_shape = (grid.patch_count, config["token_dim"])
    projections = ProjectionSet.generate(config["token_dim"], config["seed"])
    checker = ReuseChecker(projections, grid.patch_count)
    checks = []
    for record in report["steps"]:
        t = record["t"]
        token_path = os.path.join(run_dir, TOKEN_DIR, TOKEN_NAME.format(t))
        if not os.path.exists(token_path):
            raise FileNotFoundError(
                f"token dump not found: {token_path} (run with emit_tokens = true)"
            )
        tokens = read_tensor(token_path).astype(np.float64)
        if tokens.shape != token_shape:
            raise TensorFormatError(
                "bad-shape",
                f"{token_path}: token dump is {tokens.shape}, expected "
                f"{token_shape} (patches, token_dim)",
            )
        if record["is_keyframe"]:
            mask = np.ones(grid.patch_count, dtype=bool)
        else:
            mask_path = os.path.join(run_dir, MASK_DIR, MASK_NAME.format(t))
            if not os.path.exists(mask_path):
                raise FileNotFoundError(
                    f"mask file not found: {mask_path} (run with emit_masks = true)"
                )
            image = read_pgm(mask_path)
            if image.shape != (grid.rows, grid.cols):
                raise FrameError(
                    "bad-dimensions",
                    f"{mask_path}: mask is {image.shape}, expected "
                    f"{(grid.rows, grid.cols)} (patch grid rows, cols)",
                )
            mask = image.ravel() > 0
        check = checker.check(tokens, mask)
        if check.reused_rows != record["reused_rows"]:
            source = report_path if record["is_keyframe"] else mask_path
            raise InvariantError(
                f"{source}: step {t} reuses {check.reused_rows} rows, "
                f"but the report records {record['reused_rows']}"
            )
        checks.append(check)
    return report, checks
