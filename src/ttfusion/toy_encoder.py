"""Deterministic stand-in for a vision encoder and its attention.

Tokens are a fixed linear projection of per-patch features (the 196 patch
luminance values plus the normalized grid position), so a patch's token
depends only on that patch.  Attention is synthesized from luminance so
that bright or high-contrast patches score as relevant.  Everything is a
pure function of the frame and the seeded spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .detection import AttentionSlice
from .frames import (
    PATCH_PIXELS,
    PATCH_SIDE,
    FrameObservation,
    GrayscaleImage,
    PatchGrid,
    to_grayscale,
)
from .fusion import TokenMatrix
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


def _patch_features(frame: FrameObservation, gray: GrayscaleImage | None) -> np.ndarray:
    """(N, 198) features: patch pixels row-major, then row/rows, col/cols;
    ``gray`` defaults to the frame's grayscale."""
    grid = PatchGrid.for_frame(frame)
    if gray is None:
        gray = to_grayscale(frame)
    if gray.values.shape != (frame.height, frame.width):
        raise ValueError(
            f"grayscale is {gray.values.shape}, frame is {frame.height}x{frame.width}"
        )
    features = np.empty((grid.patch_count, FEATURE_DIM))
    # Splitting both axes of the pixel columns keeps them a view, so the
    # patch layout is written straight into the matrix.
    features[:, :PATCH_PIXELS].reshape(grid.rows, grid.cols, PATCH_SIDE, PATCH_SIDE)[...] = (
        gray.values.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE).transpose(0, 2, 1, 3)
    )
    rows, cols = np.divmod(np.arange(grid.patch_count), grid.cols)
    np.divide(rows, grid.rows, out=features[:, PATCH_PIXELS])
    np.divide(cols, grid.cols, out=features[:, PATCH_PIXELS + 1])
    return features


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def _attention(features: np.ndarray, spec: EncoderSpec, timestep: int) -> AttentionSlice:
    pixels = features[:, :PATCH_PIXELS]
    luminance = pixels.mean(axis=1)
    contrast = pixels.max(axis=1) - pixels.min(axis=1)

    heads = np.arange(spec.head_count)[:, None, None]
    tokens = np.arange(spec.text_token_count)[None, :, None]
    text_logits = luminance[None, None, :] * (1.0 + 0.1 * heads) + 0.05 * tokens
    text_rows = _softmax(text_logits)
    action_row = np.broadcast_to(_softmax(contrast), (spec.head_count, len(features))).copy()
    return AttentionSlice(text_rows=text_rows, action_row=action_row, source_timestep=timestep)


def encode(
    frame: FrameObservation, spec: EncoderSpec, gray: GrayscaleImage | None = None
) -> TokenMatrix:
    """Project each patch's features through the seeded matrix.

    ``gray`` is the frame's grayscale if the caller already has it; by
    default it is computed here.
    """
    return TokenMatrix(_patch_features(frame, gray) @ spec.projection())


def synth_attention(
    frame: FrameObservation, spec: EncoderSpec, gray: GrayscaleImage | None = None
) -> AttentionSlice:
    """Luminance-driven attention rows, one distribution per head and token.

    Text logits for head h and token j are ``mean_luminance * (1 + 0.1 h) +
    0.05 j``; the action row is a softmax over per-patch luminance contrast
    (max minus min pixel), shared across heads.  ``gray`` is as in
    ``encode``.
    """
    return _attention(_patch_features(frame, gray), spec, frame.timestep)


@dataclass
class ToyEncoder:
    """Callable encoder producing (tokens, attention) for the fusion loop.

    Both come from one feature matrix of the frame, built from ``gray`` if
    given (the fusion loop passes the one it computed), else from a
    grayscale computed once here.
    """

    spec: EncoderSpec = field(default_factory=EncoderSpec)

    def __call__(
        self, frame: FrameObservation, gray: GrayscaleImage | None = None
    ) -> tuple[TokenMatrix, AttentionSlice]:
        features = _patch_features(frame, gray)
        tokens = TokenMatrix(features @ self.spec.projection())
        return tokens, _attention(features, self.spec, frame.timestep)
