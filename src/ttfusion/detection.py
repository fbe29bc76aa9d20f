"""Per-patch importance masks: pixel-difference and attention-relevance.

Two independent detectors feed the fusion decision.  The pixel detector
thresholds the mean absolute luminance change of each patch; the attention
detector aggregates transformer attention rows into per-patch scores and
keeps the top-k (or a reuse-rate-derived budget).  Both emit bool masks
where True means "recompute this patch".  The fusion loop takes the pixel
mask from a cheap per-patch sum estimate, exact by a rounding bound
(:func:`threshold_estimate`), rather than from the means themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import PATCH_PIXELS, PATCH_SIDE, PatchGrid

TEXT_TO_VISION = "text_to_vision"
ACTION_TO_VISION = "action_to_vision"
ATTENTION_MODES = (TEXT_TO_VISION, ACTION_TO_VISION)

_ROW_SUM_TOLERANCE = 1e-6
# Pixels per band of patch rows in patch_diffs and patch_sum_estimate.
DIFF_BAND_PIXELS = 32768
# patch_sum_estimate and patch_diffs add the same 196 nonnegative doubles
# |g_t - g_{t-1}| of a patch in different orders, so each sum lies within
# 196 * 2**-53 of their real sum, relative, whatever the frame size.  A
# margin of 1e-9 around 196 * threshold covers both gaps, and the few
# roundings of that bar and of patch_diffs' division by 196: outside it the
# estimate decides as the mean does.
ESTIMATE_MARGIN = 1e-9
# Below this a patch's mean (sum / 196) may be subnormal, where rounding is
# absolute, not relative, so a sum estimated there is never flagged unrefined.
_NORMAL_SUM = 2.0**-1000


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


def diff_band(grid: PatchGrid) -> np.ndarray:
    """A float64 scratch band for :func:`patch_diffs` on frames of ``grid``:
    as many whole patch rows as fit in about ``DIFF_BAND_PIXELS`` pixels, at
    least one and at most the grid's."""
    width = grid.cols * PATCH_SIDE
    band = max(1, DIFF_BAND_PIXELS // (PATCH_SIDE * width))
    return np.empty((min(band, grid.rows) * PATCH_SIDE, width))


def _abs_diff_bands(gray_t, gray_prev, grid: PatchGrid, band: np.ndarray | None):
    """Yield ``(r0, r1, d)`` for each band of patch rows r0..r1 - 1 in turn,
    ``d`` holding |gray_t - gray_prev| over their pixel rows in ``band``."""
    a, b = np.asarray(gray_t), np.asarray(gray_prev)
    if a.shape != b.shape:
        raise ValueError(f"grayscale shapes differ: {a.shape} vs {b.shape}")
    if a.shape != (grid.rows * PATCH_SIDE, grid.cols * PATCH_SIDE):
        raise ValueError(f"grayscale shape {a.shape} does not match grid {grid.rows}x{grid.cols}")
    if band is None:
        band = diff_band(grid)
    step = len(band) // PATCH_SIDE
    if band.dtype != np.float64 or band.shape[1:] != a.shape[1:] or not step:
        raise ValueError(f"band {band.shape} is no diff_band of {a.shape[1]} px wide frames")
    for r0 in range(0, grid.rows, step):
        r1 = min(r0 + step, grid.rows)
        pixels = slice(r0 * PATCH_SIDE, r1 * PATCH_SIDE)
        d = band[: (r1 - r0) * PATCH_SIDE]
        np.subtract(a[pixels], b[pixels], out=d)
        np.abs(d, out=d)
        yield r0, r1, d


def patch_diffs(
    gray_t: np.ndarray, gray_prev: np.ndarray, grid: PatchGrid, band: np.ndarray | None = None
) -> np.ndarray:
    """Mean absolute luminance difference of each patch between two
    grayscale planes (from ``frames.to_grayscale``).

    Depends on the frame pair alone, so one result can serve every
    threshold applied to it.  The differences are taken a band of whole
    patch rows at a time in ``band``, a scratch array from
    :func:`diff_band` that the caller may keep for the next call (a new
    one when None).  Each patch sums its pixels in the same order as over
    the whole frame, so the result does not depend on the band size.
    """
    sums = np.empty((grid.rows, grid.cols))
    for r0, r1, d in _abs_diff_bands(gray_t, gray_prev, grid, band):
        d.reshape(r1 - r0, PATCH_SIDE, grid.cols, PATCH_SIDE).sum(axis=(1, 3), out=sums[r0:r1])
    sums = sums.ravel()
    sums /= PATCH_PIXELS
    return sums


def threshold_diffs(diffs: np.ndarray, threshold: float) -> np.ndarray:
    """The bool mask of the patches whose difference (from
    :func:`patch_diffs`) lies strictly above ``threshold``, so a difference
    sitting exactly on it reuses history; a negative threshold is rejected."""
    if threshold < 0.0:
        raise ValueError("pixel threshold must be non-negative")
    return diffs > threshold


def estimate_scratch(grid: PatchGrid) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for :func:`patch_sum_estimate` on frames of ``grid``, which
    the caller may keep from frame to frame: a :func:`diff_band` and a
    (rows, W) array for each patch row's sums of its 14 pixel rows."""
    return diff_band(grid), np.empty((grid.rows, grid.cols * PATCH_SIDE))


def patch_sum_estimate(
    gray_t: np.ndarray,
    gray_prev: np.ndarray,
    grid: PatchGrid,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Each patch's sum of absolute luminance differences between two
    grayscale planes: 196 times its :func:`patch_diffs`, up to rounding
    (see ``ESTIMATE_MARGIN``).

    Uses no threshold, so one result serves every threshold that
    :func:`threshold_estimate` applies to it.  The differences are taken a
    band at a time as in :func:`patch_diffs`, each patch row's 14 pixel rows
    are summed into the row-sum scratch, and then each patch's 14 columns of
    it.  ``scratch`` is :func:`estimate_scratch` of ``grid`` (a new one when
    None).
    """
    band, row_sums = estimate_scratch(grid) if scratch is None else scratch
    width = grid.cols * PATCH_SIDE
    if row_sums.shape != (grid.rows, width):
        raise ValueError(f"scratch is no estimate_scratch of grid {grid.rows}x{grid.cols}")
    for r0, r1, d in _abs_diff_bands(gray_t, gray_prev, grid, band):
        d.reshape(r1 - r0, PATCH_SIDE, width).sum(axis=1, out=row_sums[r0:r1])
    return np.add.reduceat(row_sums, np.arange(0, width, PATCH_SIDE), axis=1).ravel()


def threshold_estimate(
    estimate: np.ndarray,
    gray_t: np.ndarray,
    gray_prev: np.ndarray,
    grid: PatchGrid,
    threshold: float,
    band: np.ndarray | None = None,
) -> np.ndarray:
    """``threshold_diffs(patch_diffs(gray_t, gray_prev, grid), threshold)``,
    bit for bit, from the :func:`patch_sum_estimate` of the same planes.

    A patch is flagged when its estimate lies above 196 * threshold *
    (1 + ``ESTIMATE_MARGIN``), and cleared when it lies below 196 *
    threshold * (1 - ``ESTIMATE_MARGIN``) or is exactly 0 (only a sum of
    zeros is 0).  Only a patch in between has its mean taken, by
    :func:`patch_diffs` on its strip of 14 pixel rows in ``band``, a
    :func:`diff_band` of ``grid`` that the caller may keep (a new one when
    None); a negative threshold is rejected.
    """
    if threshold < 0.0:
        raise ValueError("pixel threshold must be non-negative")
    if estimate.shape != (grid.patch_count,):
        raise ValueError(f"estimate {estimate.shape} does not match grid {grid.rows}x{grid.cols}")
    bar = PATCH_PIXELS * threshold
    upper = max(bar * (1.0 + ESTIMATE_MARGIN), _NORMAL_SUM)
    # The least positive double as a floor clears every zero estimate.
    lower = max(bar * (1.0 - ESTIMATE_MARGIN), 5e-324)
    mask = estimate > upper
    unsure = np.flatnonzero((estimate >= lower) ^ mask)
    if not unsure.size:
        return mask
    strip = PatchGrid(1, grid.cols)
    for r in np.unique(unsure // grid.cols):
        pixels = slice(r * PATCH_SIDE, (r + 1) * PATCH_SIDE)
        diffs = patch_diffs(gray_t[pixels], gray_prev[pixels], strip, band)
        patches = unsure[unsure // grid.cols == r]
        mask[patches] = threshold_diffs(diffs, threshold)[patches % grid.cols]
    return mask


def relevance_scores(slice_: AttentionSlice, mode: str) -> np.ndarray:
    """Per-patch scores of ``mode``: the mean over heads of the mean over text
    tokens (text_to_vision) or of the first-action-token row (action_to_vision)."""
    if mode == TEXT_TO_VISION:
        if slice_.text_rows is None or slice_.text_rows.shape[1] == 0:
            raise ValueError("attention slice has no text rows")
        return slice_.text_rows.mean(axis=(0, 1))
    if mode == ACTION_TO_VISION:
        if slice_.action_row is None:
            raise ValueError("attention slice has no action row")
        return slice_.action_row.mean(axis=0)
    raise ValueError(f"unknown attention mode {mode!r}")


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """The bool mask of the k highest-scoring patches, lower index first on
    ties, so selections are reproducible.

    Exactly ``min(k, N)`` entries are True: ``k`` beyond the patch count
    selects every patch.
    """
    if k < 0:
        raise ValueError("selection budget must be non-negative")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    take = min(k, n)
    # Stable sort of the negated scores keeps ascending-index order on ties.
    order = np.argsort(-scores, kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:take]] = True
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
