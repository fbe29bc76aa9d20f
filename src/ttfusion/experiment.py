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
from dataclasses import dataclass, replace

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
from .fusion import FusionConfig, StepResult, lockstep
from .projection import ProjectionSet, ReuseChecker
from .report import (
    InvariantError,
    build_report,
    build_sweep_summary,
    load_report,
    mask_counts,
    step_record,
    write_report,
)
from .runconfig import (
    ATTENTION_SOURCE_TENSOR_FILES,
    RunConfig,
    apply_parameter,
    build_run_config,
    config_echo,
)
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
_DUMPS = ((MASK_DIR, MASK_NAME), (TOKEN_DIR, TOKEN_NAME))
_ATTENTION_NAMES = {TEXT_TO_VISION: TEXT_ATTENTION_NAME, ACTION_TO_VISION: ACTION_ATTENTION_NAME}


@dataclass
class ExperimentResult:
    """One point of a run: its report and its Q/K/V reuse failure lines."""

    report: dict
    failures: list[str]


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
    """One config's share of the streaming pass: its Q/K/V reuse check with
    the run's shared weights, its report records and failure lines, and its
    mask and token dumps if asked."""

    def __init__(
        self, config: RunConfig, projections: ProjectionSet, out_dir: str | os.PathLike | None
    ):
        self.config = config
        self.out_dir = out_dir
        self.checker = ReuseChecker(projections, config.fusion.grid.patch_count)
        self.records: list[dict] = []
        self.failures: list[str] = []
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            # report.json is written last, so a directory without one holds
            # an unfinished run, never a stale report beside new dumps.
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, REPORT_NAME))
            # Nor may an earlier run's dumps outlive it: verify-qreuse would
            # replay them as this run's.
            for (subdir, name), wanted in zip(_DUMPS, (config.emit_masks, config.emit_tokens)):
                folder = os.path.join(out_dir, subdir)
                if os.path.isdir(folder):
                    for entry in numbered_files(folder, name).values():
                        os.remove(os.path.join(folder, entry))
                if wanted:
                    os.makedirs(folder, exist_ok=True)

    def add(self, step: StepResult) -> None:
        errors, failures = self.checker.check(step.fused_tokens, step.fusion_mask)
        self.records.append(step_record(step, errors))
        self.failures += failures
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
            max(aggregates[f"max_reuse_error_{name}"] for name in ("query", "key", "value")),
        )
        if self.out_dir is not None:
            write_report(os.path.join(self.out_dir, REPORT_NAME), report)
        return ExperimentResult(report=report, failures=self.failures)


def run_points(
    config: RunConfig, fusions: list[FusionConfig], out_dirs: list | None = None
) -> list[ExperimentResult]:
    """Run the config's frames once per fusion config, in one streaming pass.

    The frames, the encoder and the Q/K/V weights come from ``config``; point
    i runs and echoes ``replace(config, fusion=fusions[i])``.  An empty
    ``fusions`` raises ``ValueError`` before any frame is opened.  Every
    point advances through the frames in lockstep (``fusion.lockstep``).
    Right after its step, each point's Q/K/V reuse check runs and the step
    is reduced to its report record; its fused tokens live on only as the
    next step's history, so memory does not grow with the episode.  With
    ``out_dirs``, one directory per point, each point's mask and token dumps
    are written as its steps complete and its report.json after the last
    step.
    """
    if not fusions:
        raise ValueError("no fusion configs to run")
    frames, count = open_frames(config)
    encoder = build_encoder(config, count)
    projections = ProjectionSet.generate(config.token_dim, config.seed)
    if out_dirs is None:
        out_dirs = [None] * len(fusions)
    points = [
        _Point(replace(config, fusion=fusion), projections, out_dir)
        for fusion, out_dir in zip(fusions, out_dirs, strict=True)
    ]
    for steps in lockstep(frames, encoder, fusions):
        for point, step in zip(points, steps):
            point.add(step)
    return [point.finish() for point in points]


def run_experiment(config: RunConfig, out_dir: str | os.PathLike | None = None) -> ExperimentResult:
    """One full run: fusion loop plus Q/K/V reuse verification, writing its
    outputs to ``out_dir`` when given (see ``run_points``)."""
    return run_points(config, [config.fusion], None if out_dir is None else [out_dir])[0]


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
    fusions = [apply_parameter(config, parameter, value) for value in values]
    out_dirs = None
    if out_dir is not None:
        out_dirs = [os.path.join(out_dir, f"{parameter}_{value}") for value in values]
    results = run_points(config, fusions, out_dirs)
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


def replay_run_dir(run_dir: str | os.PathLike) -> tuple[dict, list[str]]:
    """Re-check a recorded run from its report, token dumps, and mask files;
    returns the report and a line for each nonzero Q/K/V reuse error.

    The run must have been written with ``emit_tokens`` (and ``emit_masks``
    unless every step was a keyframe).  The run's config is rebuilt from
    the echo's non-null values by ``build_run_config``, so the echo must
    pass every rule and field type a config does, and must then be that
    config's echo.  Once step 0's token dump has the echo's shape,
    projection weights are generated from that config as ``run_points``
    generates them, and one ``ReuseChecker`` checks the steps in order.  A
    token dump that is not (patches, token_dim) raises ``TensorFormatError``
    and a mask that is not the patch grid raises ``FrameError``, each naming
    the file and both shapes.  A report that ``load_report`` rejects, an
    echo that breaks a config rule (the rule's message follows "config
    echo: ") or leaves a key out, a synthetic echo whose ``synth_frames``
    is not the step count, a dump past the last step (naming the first), a
    mask pixel other than 0 or 255 (naming the mask file), a wrong
    ``is_keyframe`` for the echo's ``keyframe_interval``, a ``mask_counts``
    field other than the mask gives (naming the mask file, or the report
    for a keyframe), and detector counts that cannot OR into
    ``fusion_updates``, and a nonzero ``query_error``, ``key_error`` or
    ``value_error`` where the replay's check finds exactly 0 raise
    ``InvariantError``, so the report's aggregates are the replay's.  Each
    step's dump and mask are read as the check reaches the step.
    """
    report_path = os.path.join(run_dir, REPORT_NAME)
    report = load_report(report_path)
    echo, steps = report["config"], report["steps"]
    try:
        config = build_run_config({k: v for k, v in echo.items() if v is not None})
    except (ValueError, TypeError) as exc:
        raise InvariantError(f"{report_path}: config echo: {exc}") from exc
    # A key left out or null takes its default, which the echo must hold.
    lost = [key for key, value in config_echo(config).items()
            if key not in echo or echo[key] != value]
    if lost:
        raise InvariantError(f"{report_path}: config echo: {', '.join(lost)} missing or null")
    # A report cut short passes every per-step rule, so its length is
    # checked against the echo and the dumps.
    if config.synth_frames not in (None, len(steps)):
        raise InvariantError(
            f"{report_path}: config echo: synth_frames = {config.synth_frames}, "
            f"but the report records {len(steps)} steps"
        )
    for subdir, name in _DUMPS:
        folder = os.path.join(run_dir, subdir)
        files = numbered_files(folder, name) if os.path.isdir(folder) else {}
        extra = min((i for i in files if i >= len(steps)), default=None)
        if extra is not None:
            raise InvariantError(
                f"extra dump in {folder}: {files[extra]} (index {extra}), "
                f"but {report_path} has steps up to index {len(steps) - 1} only"
            )
    interval = config.fusion.keyframe_interval
    grid = config.fusion.grid
    n = grid.patch_count
    token_shape = (n, config.token_dim)
    checker = None
    failures = []
    for record in steps:
        t = record["t"]
        keyframe = t % interval == 0
        if record["is_keyframe"] != keyframe:
            raise InvariantError(
                f"{report_path}: step {t} has is_keyframe = {record['is_keyframe']}, "
                f"but keyframe_interval = {interval} makes it {keyframe}"
            )
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
        if checker is None:
            # Only a dump that agrees with the echo sizes the weights.
            checker = ReuseChecker(ProjectionSet.generate(config.token_dim, config.seed), n)
        if keyframe:
            source, mask = report_path, np.ones(n, dtype=bool)
        else:
            source = os.path.join(run_dir, MASK_DIR, MASK_NAME.format(t))
            if not os.path.exists(source):
                raise FileNotFoundError(
                    f"mask file not found: {source} (run with emit_masks = true)"
                )
            image = read_pgm(source)
            if image.shape != (grid.rows, grid.cols):
                raise FrameError(
                    "bad-dimensions",
                    f"{source}: mask is {image.shape}, expected "
                    f"{(grid.rows, grid.cols)} (patch grid rows, cols)",
                )
            pixels = image.ravel()
            odd = np.flatnonzero((pixels != 0) & (pixels != 255))
            if odd.size:
                raise InvariantError(
                    f"{source}: step {t} has mask pixel {odd[0]} = {pixels[odd[0]]}, "
                    "expected 0 (reused) or 255 (recomputed)"
                )
            mask = pixels == 255
        errors, step_failures = checker.check(tokens, mask)
        # A nonzero replayed error is reported by its failure line: the float32
        # dumps cannot reproduce a faulty run's own values.
        for field, error in errors.items():
            if error == 0.0 and record[field] != 0.0:
                raise InvariantError(
                    f"{report_path}: step {t} has {field} = {record[field]!r}, "
                    "but the replay finds exactly 0"
                )
        reused = n - int(mask.sum())
        for field, value in mask_counts(reused, n, config.token_dim).items():
            if record[field] != value:
                raise InvariantError(
                    f"{source}: step {t} has {field} = {value!r} by its mask, "
                    f"but the report records {record[field]!r}"
                )
        fused, pixel, attention = (
            record[field] for field in ("fusion_updates", "pixel_updates", "attention_updates")
        )
        if max(pixel, attention) > fused or pixel + attention < fused:
            raise InvariantError(
                f"{report_path}: step {t} has pixel_updates = {pixel} and attention_updates = "
                f"{attention}, which cannot OR into fusion_updates = {fused}"
            )
        failures += step_failures
    return report, failures
