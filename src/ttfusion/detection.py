"""Per-patch importance masks: pixel-difference and attention-relevance.

Two independent detectors feed the fusion decision.  The pixel detector
thresholds the mean absolute luminance change of each patch; the attention
detector aggregates transformer attention rows into per-patch scores and
keeps the top-k (or a reuse-rate-derived budget).  Both emit binary masks
where 1 means "recompute this patch".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import PATCH_PIXELS, PATCH_SIDE, GrayscaleImage, PatchGrid

TEXT_TO_VISION = "text_to_vision"
ACTION_TO_VISION = "action_to_vision"
ATTENTION_MODES = (TEXT_TO_VISION, ACTION_TO_VISION)

_ROW_SUM_TOLERANCE = 1e-6


@dataclass
class AttentionSlice:
    """Attention rows from text/action tokens to vision patches.

    ``text_rows`` has shape (heads, text tokens, patches) and ``action_row``
    (heads, patches); either may be absent.  Rows are sub-rows of full
    attention distributions, so they are non-negative and sum to at most 1.
    """

    text_rows: np.ndarray | None
    action_row: np.ndarray | None
    source_timestep: int

    def __post_init__(self) -> None:
        if self.text_rows is None and self.action_row is None:
            raise ValueError("attention slice needs text rows or an action row")
        if self.text_rows is not None:
            self.text_rows = np.asarray(self.text_rows, dtype=np.float64)
            if self.text_rows.ndim != 3:
                raise ValueError("text rows must be heads x text-tokens x patches")
            _check_rows(self.text_rows)
        if self.action_row is not None:
            self.action_row = np.asarray(self.action_row, dtype=np.float64)
            if self.action_row.ndim != 2:
                raise ValueError("action row must be heads x patches")
            _check_rows(self.action_row)
        if self.text_rows is not None and self.action_row is not None:
            if self.text_rows.shape[0] != self.action_row.shape[0]:
                raise ValueError("head counts differ between text rows and action row")
            if self.text_rows.shape[2] != self.action_row.shape[1]:
                raise ValueError("patch counts differ between text rows and action row")

    @property
    def head_count(self) -> int:
        rows = self.text_rows if self.text_rows is not None else self.action_row
        return rows.shape[0]

    @property
    def patch_count(self) -> int:
        if self.text_rows is not None:
            return self.text_rows.shape[2]
        return self.action_row.shape[1]


def _check_rows(rows: np.ndarray) -> None:
    if rows.size == 0:
        return
    # NaN fails no comparison below, so non-finite weights are caught first.
    if not np.isfinite(rows).all():
        raise ValueError("attention weights must be finite")
    if rows.min() < 0.0:
        raise ValueError("attention weights must be non-negative")
    if rows.sum(axis=-1).max() > 1.0 + _ROW_SUM_TOLERANCE:
        raise ValueError("attention rows must sum to at most 1")


def patch_diffs(gray_t: GrayscaleImage, gray_prev: GrayscaleImage, grid: PatchGrid) -> np.ndarray:
    """Mean absolute luminance difference of each patch between two frames.

    Depends on the frame pair alone, so one result can serve every
    threshold applied to it.  The absolute value is taken in place, so the
    call allocates one frame-sized temporary, not two.
    """
    a, b = gray_t.values, gray_prev.values
    if a.shape != b.shape:
        raise ValueError(f"grayscale shapes differ: {a.shape} vs {b.shape}")
    if a.shape != (grid.rows * PATCH_SIDE, grid.cols * PATCH_SIDE):
        raise ValueError(f"grayscale shape {a.shape} does not match grid {grid.rows}x{grid.cols}")
    delta = np.subtract(a, b)
    np.abs(delta, out=delta)
    return (
        delta.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE)
        .sum(axis=(1, 3))
        .ravel()
        / PATCH_PIXELS
    )


def threshold_diffs(diffs: np.ndarray, threshold: float | None) -> np.ndarray:
    """The uint8 mask of the patches whose difference (from
    :func:`patch_diffs`) lies strictly above ``threshold``, so a difference
    sitting exactly on it reuses history.  ``None`` selects
    :func:`auto_threshold` of ``diffs``; a negative threshold is rejected."""
    if threshold is None:
        threshold = auto_threshold(diffs)
    elif threshold < 0.0:
        raise ValueError("pixel threshold must be non-negative")
    return (diffs > threshold).astype(np.uint8)


def auto_threshold(diffs: np.ndarray) -> float:
    """Scene-statistics threshold: mean plus one standard deviation."""
    diffs = np.asarray(diffs, dtype=np.float64)
    return float(diffs.mean() + diffs.std())


def text_to_vision_scores(slice_: AttentionSlice) -> np.ndarray:
    """Per-patch scores: mean over heads of the mean over text tokens."""
    if slice_.text_rows is None or slice_.text_rows.shape[1] == 0:
        raise ValueError("attention slice has no text rows")
    return slice_.text_rows.mean(axis=(0, 1))


def action_to_vision_scores(slice_: AttentionSlice) -> np.ndarray:
    """Per-patch scores: mean over heads of the first-action-token row."""
    if slice_.action_row is None:
        raise ValueError("attention slice has no action row")
    return slice_.action_row.mean(axis=0)


def relevance_scores(slice_: AttentionSlice, mode: str) -> np.ndarray:
    if mode == TEXT_TO_VISION:
        return text_to_vision_scores(slice_)
    if mode == ACTION_TO_VISION:
        return action_to_vision_scores(slice_)
    raise ValueError(f"unknown attention mode {mode!r}")


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """The uint8 mask of the k highest-scoring patches, lower index first on
    ties, so selections are reproducible.

    Exactly ``min(k, N)`` entries are 1: ``k`` beyond the patch count
    selects every patch.
    """
    if k < 0:
        raise ValueError("selection budget must be non-negative")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    take = min(k, n)
    # Stable sort of the negated scores keeps ascending-index order on ties.
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(n, dtype=np.uint8)
    mask[order[:take]] = 1
    return mask


def rate_target_mask(scores: np.ndarray, target_reuse_rate: float) -> np.ndarray:
    """Mark enough patches that the reused fraction meets the target.

    Selects the top ceil((1 - target) * N) patches as important, so a target
    of 0.3 leaves 30% of attention-driven decisions reusing history (up to
    rounding); tie rule as in :func:`top_k_mask`.
    """
    if not 0.0 <= target_reuse_rate <= 1.0:
        raise ValueError("target reuse rate must lie in [0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    # Epsilon guards against float products like 0.65 * 20 landing above the
    # intended integer.
    k = math.ceil((1.0 - target_reuse_rate) * n - 1e-9)
    return top_k_mask(scores, max(k, 0))
