"""Per-patch importance masks: pixel-difference and attention-relevance.

Two independent detectors feed the fusion decision.  The pixel detector
thresholds the mean absolute luminance change of each patch; the attention
detector aggregates transformer attention rows into per-patch scores and
keeps the top-k (or a reuse-rate-derived budget).  Both emit bool masks
where True means "recompute this patch".  The fusion loop takes the pixel
mask from each patch's exact integer sum of luma changes, exact by a
rounding bound (:func:`threshold_luma_sums`), rather than from the means
themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import PATCH_PIXELS, PATCH_SIDE, Luma, PatchGrid

TEXT_TO_VISION = "text_to_vision"
ACTION_TO_VISION = "action_to_vision"
ATTENTION_MODES = (TEXT_TO_VISION, ACTION_TO_VISION)

_ROW_SUM_TOLERANCE = 1e-6
# Pixels per band of patch rows in patch_diffs.
DIFF_BAND_PIXELS = 32768
# Let S be a patch's exact integer sum of |L_t - L_{t-1}| over its 196
# pixels, both lumas at one scale s (frames.PLANE_SCALE or RGB_SCALE).
# patch_diffs takes the same sum from the rounded grayscales L / s.  A
# pixel whose lumas are equal adds exactly 0 there, and one whose lumas
# differ by d >= 1 adds d / s within 2 * 2**-53 absolute, which is within
# 2 * 2**-53 * s relative (below 5.7e-11 at s = 255000), and within 2**-53
# more by its subtraction; adding the 196 terms costs at most 195 * 2**-53
# relative.  So for any S >= 1, patch_diffs' sum lies within 6e-11 of
# S / s, relative, and its mean, at least 1 / (196 s), is a normal double.
# A margin of 1e-9 around 196 * s * threshold covers that, the few
# roundings of that bar and patch_diffs' division by 196: outside it S
# decides as the mean does.  S is 0 only where the two lumas are equal.
ESTIMATE_MARGIN = 1e-9


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
    sums = np.empty((grid.rows, grid.cols))
    for r0 in range(0, grid.rows, step):
        r1 = min(r0 + step, grid.rows)
        pixels = slice(r0 * PATCH_SIDE, r1 * PATCH_SIDE)
        d = band[: (r1 - r0) * PATCH_SIDE]
        np.subtract(a[pixels], b[pixels], out=d)
        np.abs(d, out=d)
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


class PixelScratch:
    """Scratch of the loop's pixel detector on frames of ``grid``, which the
    caller may keep from frame to frame.

    For each luma dtype :func:`patch_luma_sums` meets, two (H, W) arrays of
    it for each pixel's larger and smaller luma, and (rows, W) sums of each
    patch row's 14 pixel rows (uint16 for uint8 luma, whose patch sums stay
    below 196 * 255, else uint32), each set allocated when first used; and
    the three float64 (14, W) strips that :func:`threshold_luma_sums`
    refines a patch row in, allocated here.
    """

    def __init__(self, grid: PatchGrid):
        self.grid = grid
        self.shape = (grid.rows * PATCH_SIDE, grid.cols * PATCH_SIDE)
        self.strips = np.empty((3, PATCH_SIDE, self.shape[1]))
        # The first pixel column of each patch column.
        self.starts = np.arange(0, self.shape[1], PATCH_SIDE)
        self._sums: dict[np.dtype, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def sums(self, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The larger-luma, smaller-luma and row-sum arrays of ``dtype``."""
        dtype = np.dtype(dtype)
        arrays = self._sums.get(dtype)
        if arrays is None:
            rows = np.uint16 if dtype == np.uint8 else np.uint32
            arrays = self._sums[dtype] = (
                np.empty(self.shape, dtype), np.empty(self.shape, dtype),
                np.empty((self.grid.rows, self.shape[1]), rows),
            )
        return arrays


def _at_scale(luma: Luma, scale: int) -> np.ndarray:
    """The luma's values in units of 1 / ``scale``, a multiple of its own
    scale: a uint8 plane's times 1000 for an RGB frame's, exactly."""
    if luma.scale == scale:
        return luma.values
    return np.multiply(luma.values, scale // luma.scale, dtype=np.uint32)


def patch_luma_sums(
    luma_t: Luma, luma_prev: Luma, grid: PatchGrid, scratch: PixelScratch | None = None
) -> tuple[np.ndarray, int]:
    """Each patch's exact sum of |L_t - L_{t-1}| over its pixels, as an (N,)
    integer array, and the scale it is in: 196 * scale times the patch's
    :func:`patch_diffs` of the two grayscales, up to rounding (see
    ``ESTIMATE_MARGIN``).

    Two lumas of different scales are summed at the larger, the other one
    multiplied up for the call.  Uses no threshold, so one result serves
    every threshold that :func:`threshold_luma_sums` applies to it.  Each
    |a - b| is taken as max - min, so no unsigned value wraps, each patch
    row's 14 pixel rows are summed into the row sums of ``scratch`` (a new
    :class:`PixelScratch` when None), and then each patch's 14 columns.
    """
    if scratch is None:
        scratch = PixelScratch(grid)
    elif scratch.grid != grid:
        raise ValueError(f"scratch is no PixelScratch of grid {grid.rows}x{grid.cols}")
    scale = max(luma_t.scale, luma_prev.scale)
    a, b = _at_scale(luma_t, scale), _at_scale(luma_prev, scale)
    if a.shape != scratch.shape or b.shape != scratch.shape:
        raise ValueError(f"luma shapes {a.shape}, {b.shape} do not match grid {grid.rows}x{grid.cols}")
    high, low, row_sums = scratch.sums(a.dtype)
    np.maximum(a, b, out=high)
    np.minimum(a, b, out=low)
    np.subtract(high, low, out=high)
    high.reshape(grid.rows, PATCH_SIDE, -1).sum(axis=1, dtype=row_sums.dtype, out=row_sums)
    # Given an out array, reduceat allocates no (rows, W) temporary.
    sums = np.empty(grid.patch_count, row_sums.dtype)
    np.add.reduceat(row_sums, scratch.starts, axis=1, out=sums.reshape(grid.rows, grid.cols))
    return sums, scale


def threshold_luma_sums(
    sums: np.ndarray,
    scale: int,
    luma_t: Luma,
    luma_prev: Luma,
    grid: PatchGrid,
    threshold: float,
    scratch: PixelScratch | None = None,
) -> np.ndarray:
    """``threshold_diffs(patch_diffs(gray_t, gray_prev, grid), threshold)``,
    bit for bit, where each gray is its luma's ``gray()``, from the
    :func:`patch_luma_sums` ``sums`` of the same lumas, in units of
    1 / ``scale``.

    A patch is flagged when its sum lies above 196 * scale * threshold *
    (1 + ``ESTIMATE_MARGIN``), and cleared when it lies below 196 * scale *
    threshold * (1 - ``ESTIMATE_MARGIN``) or is 0; as sums are integers,
    both bounds are compared as integers.  Only a patch in between has its
    mean taken, by :func:`patch_diffs` on the grays of its strip of 14 pixel
    rows, made in the strips of ``scratch`` (a new :class:`PixelScratch`
    when None); a negative threshold is rejected.
    """
    if threshold < 0.0:
        raise ValueError("pixel threshold must be non-negative")
    if sums.shape != (grid.patch_count,):
        raise ValueError(f"sums {sums.shape} do not match grid {grid.rows}x{grid.cols}")
    # No sum exceeds 196 * scale, as no luma changes by more than the scale,
    # so a larger bar (or a NaN threshold) clears every patch, as it clears
    # every mean.
    cap = PATCH_PIXELS * scale
    bar = cap * threshold
    if not bar <= cap:
        return np.zeros(grid.patch_count, dtype=bool)
    upper = min(math.floor(bar * (1.0 + ESTIMATE_MARGIN)), cap)
    mask = sums > upper
    # Within the margin lies at most one integer, and rarely any: a floor of
    # 1 leaves every zero sum cleared.
    lower = max(math.ceil(bar * (1.0 - ESTIMATE_MARGIN)), 1)
    if lower > upper:
        return mask
    unsure = np.flatnonzero((sums >= lower) & ~mask)
    if not unsure.size:
        return mask
    if scratch is None:
        scratch = PixelScratch(grid)
    gray_t, gray_prev, band = scratch.strips
    strip = PatchGrid(1, grid.cols)
    patch_rows = unsure // grid.cols
    for r in np.flatnonzero(np.bincount(patch_rows)):
        pixels = slice(r * PATCH_SIDE, (r + 1) * PATCH_SIDE)
        Luma(luma_t.values[pixels], luma_t.scale).gray(gray_t)
        Luma(luma_prev.values[pixels], luma_prev.scale).gray(gray_prev)
        diffs = patch_diffs(gray_t, gray_prev, strip, band)
        patches = unsure[patch_rows == r]
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
