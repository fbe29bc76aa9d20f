"""Deterministic stand-in for a vision encoder and its attention.

Tokens are a fixed linear projection of per-patch features (the 196 patch
luminance values plus the normalized grid position), so a patch's token
depends only on that patch.  The product goes through
``projection.project_full``, so a token is the same bits whether its patch
is encoded alone or with every other one, and the fusion loop encodes only
the patches it recomputes.  Attention is synthesized from luminance so
that bright or high-contrast patches score as relevant.  Everything is a
pure function of the frame and the seeded spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .detection import ACTION_TO_VISION, TEXT_TO_VISION, AttentionSlice
from .frames import PATCH_PIXELS, PATCH_SIDE, FrameObservation, PatchGrid, to_grayscale
from .projection import gather_rows, project_full
from .prng import SplitMix64

FEATURE_DIM = PATCH_PIXELS + 2


@dataclass(frozen=True)
class EncoderSpec:
    """Seeded projection encoder: 198 features (196 pixels + row, col) -> d.

    The projection matrix is filled row-major from the splitmix64 stream of
    ``seed``, each entry mapped from [0, 1) to [-1, 1), so identical seed
    and dims always reproduce it bit-for-bit.
    """

    token_dim: int = 64
    seed: int = 0
    text_token_count: int = 8
    head_count: int = 4

    def __post_init__(self) -> None:
        if self.token_dim < 1:
            raise ValueError("token dim must be positive")
        if self.text_token_count < 1:
            raise ValueError("need at least one text token")
        if self.head_count < 1:
            raise ValueError("need at least one head")

    def projection(self) -> np.ndarray:
        return _projection_for(self)


@lru_cache(maxsize=8)
def _projection_for(spec: "EncoderSpec") -> np.ndarray:
    stream = SplitMix64(spec.seed)
    flat = stream.float_block(FEATURE_DIM * spec.token_dim)
    return (2.0 * flat - 1.0).reshape(FEATURE_DIM, spec.token_dim)


def _feature_matrix(grid: PatchGrid) -> np.ndarray:
    """An (N, 198) feature matrix whose position columns, row/rows and
    col/cols, are filled in; its pixel columns are left to each frame."""
    features = np.empty((grid.patch_count, FEATURE_DIM))
    rows, cols = np.divmod(np.arange(grid.patch_count), grid.cols)
    np.divide(rows, grid.rows, out=features[:, PATCH_PIXELS])
    np.divide(cols, grid.cols, out=features[:, PATCH_PIXELS + 1])
    return features


def _patch_features(
    frame: FrameObservation, gray: np.ndarray | None, out: np.ndarray | None = None
) -> np.ndarray:
    """(N, 198) features: patch pixels row-major, then row/rows, col/cols;
    ``gray`` defaults to the frame's grayscale.  The pixels are written into
    ``out``, a :func:`_feature_matrix` of the frame's grid, if given."""
    grid = PatchGrid.for_frame(frame)
    if gray is None:
        gray = to_grayscale(frame)
    if gray.shape != (frame.height, frame.width):
        raise ValueError(f"grayscale is {gray.shape}, frame is {frame.height}x{frame.width}")
    features = _feature_matrix(grid) if out is None else out
    # Splitting both axes of the pixel columns keeps them a view, so the
    # patch layout is written straight into the matrix.
    features[:, :PATCH_PIXELS].reshape(grid.rows, grid.cols, PATCH_SIDE, PATCH_SIDE)[...] = (
        gray.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE).transpose(0, 2, 1, 3)
    )
    return features


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _text_rows(features: np.ndarray, spec: EncoderSpec) -> np.ndarray:
    luminance = features[:, :PATCH_PIXELS].mean(axis=1)
    heads = np.arange(spec.head_count)[:, None, None]
    tokens = np.arange(spec.text_token_count)[None, :, None]
    text_logits = luminance[None, None, :] * (1.0 + 0.1 * heads) + 0.05 * tokens
    return _softmax(text_logits)


def _action_row(features: np.ndarray, spec: EncoderSpec) -> np.ndarray:
    pixels = features[:, :PATCH_PIXELS]
    contrast = pixels.max(axis=1)
    contrast -= pixels.min(axis=1)
    return np.broadcast_to(_softmax(contrast), (spec.head_count, len(features))).copy()


def synth_attention(
    frame: FrameObservation, spec: EncoderSpec, gray: np.ndarray | None = None
) -> AttentionSlice:
    """Luminance-driven attention rows, one distribution per head and token.

    Text logits for head h and token j are ``mean_luminance * (1 + 0.1 h) +
    0.05 j``; the action row is a softmax over per-patch luminance contrast
    (max minus min pixel), shared across heads.  Both kinds are built;
    ``ToyEncoder.attention`` builds the one a run asks for.  ``gray`` is as
    in ``ToyEncoder.features``.
    """
    features = _patch_features(frame, gray)
    return AttentionSlice(
        text_rows=_text_rows(features, spec),
        action_row=_action_row(features, spec),
        source_timestep=frame.timestep,
    )


@dataclass
class ToyEncoder:
    """The fusion loop's encoder: tokens and attention of ``spec``, both read
    from one (patches, 198) feature matrix per frame.

    The loop calls ``features`` once per frame, then ``attention`` once per
    attention mode its steps use and ``tokens`` for the rows they recompute
    (see :class:`ttfusion.fusion.SharedObservation`).  The encoder keeps
    its feature matrix and its row gather from frame to frame, so it serves
    one loop at a time.
    """

    spec: EncoderSpec = field(default_factory=EncoderSpec)
    _grid: PatchGrid | None = field(default=None, init=False, repr=False, compare=False)
    _features: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _gather: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def features(self, frame: FrameObservation, gray: np.ndarray | None = None) -> np.ndarray:
        """The frame's (patches, 198) feature matrix, built from ``gray`` if
        given, else from a grayscale computed here.  The matrix is the
        encoder's own, rewritten by the next call, so the result is valid
        until then."""
        grid = PatchGrid.for_frame(frame)
        if grid != self._grid:
            self._grid, self._features = grid, _feature_matrix(grid)
        return _patch_features(frame, gray, self._features)

    def tokens(self, features: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
        """The (len(rows), d) token rows of patches ``rows``, an index array,
        or all patches when None, through ``project_full``, so a row's bits
        do not depend on the other rows asked for."""
        if rows is not None:
            if self._gather is None or self._gather.shape != features.shape:
                self._gather = np.empty(features.shape)
            features = gather_rows(features, rows, self._gather)
        return project_full(features, self.spec.projection())

    def attention(self, frame: FrameObservation, features: np.ndarray, mode: str) -> AttentionSlice:
        """The slice of one kind: text rows for ``text_to_vision``, the action
        row for ``action_to_vision`` (as in ``synth_attention``)."""
        if mode == TEXT_TO_VISION:
            text, action = _text_rows(features, self.spec), None
        elif mode == ACTION_TO_VISION:
            text, action = None, _action_row(features, self.spec)
        else:
            raise ValueError(f"unknown attention mode {mode!r}")
        return AttentionSlice(text_rows=text, action_row=action, source_timestep=frame.timestep)
