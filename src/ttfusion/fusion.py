"""Per-timestep hard token fusion with keyframe anchoring.

Each step decides patch-by-patch whether to keep the freshly encoded token
or splice in the previous step's fused token.  The decision ORs the pixel
and attention masks; keyframes (every K steps, or whenever history is empty)
recompute everything and reset reuse chains.  The rolling state stores the
*fused* tokens, so reuse chains extend until a keyframe cuts them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import detection
from .detection import ATTENTION_MODES, AttentionSlice
from .frames import FrameObservation, GrayscaleImage, PatchGrid, to_grayscale

SELECTION_TOP_K = "top_k"
SELECTION_RATE_TARGET = "rate_target"
SELECTION_MODES = (SELECTION_TOP_K, SELECTION_RATE_TARGET)


@dataclass
class TokenMatrix:
    """N x d patch-token matrix; row i is the token of patch i."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("token matrix must be 2-D")
        if not np.isfinite(self.values).all():
            raise ValueError("token matrix contains non-finite values")

    @property
    def patch_count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FusionConfig:
    """Knobs of the fusion loop.

    Defaults follow the simulation configuration (keyframe interval 3,
    attention budget 70, pixel threshold 0.03, text-to-vision attention).
    Disabling a detection dimension removes it from the OR combination.
    """

    keyframe_interval: int = 3
    pixel_threshold: float = 0.03
    top_k: int = 70
    attention_mode: str = detection.TEXT_TO_VISION
    selection_mode: str = SELECTION_TOP_K
    target_reuse_rate: float = 0.3
    width: int = 224
    height: int = 224
    token_dim: int = 64
    enable_pixel: bool = True
    enable_attention: bool = True

    def __post_init__(self) -> None:
        if self.keyframe_interval < 1:
            raise ValueError("keyframe interval must be at least 1")
        if self.pixel_threshold < 0.0:
            raise ValueError("pixel threshold must be non-negative")
        if self.top_k < 0:
            raise ValueError("attention budget must be non-negative")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"unknown attention mode {self.attention_mode!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection_mode!r}")
        if not 0.0 <= self.target_reuse_rate <= 1.0:
            raise ValueError("target reuse rate must lie in [0, 1]")
        if self.token_dim < 1:
            raise ValueError("token dim must be positive")
        PatchGrid.from_dims(self.width, self.height)

    @property
    def grid(self) -> PatchGrid:
        return PatchGrid.from_dims(self.width, self.height)


@dataclass
class FusionState:
    """Rolling memory between steps: previous grayscale, fused tokens, attention.

    At timestep 0 every ``prev_*`` field is absent; afterwards
    ``prev_tokens`` always holds the fused tokens just emitted.
    """

    prev_gray: GrayscaleImage | None = None
    prev_tokens: TokenMatrix | None = None
    prev_attention: AttentionSlice | None = None
    timestep: int = 0


@dataclass
class StepResult:
    """Outcome of one fusion step.

    On keyframes the three masks are one shared read-only all-ones array
    and the fusion rate is 0.  ``fusion_rate`` counts the fraction of
    patches whose token was reused from history.
    """

    timestep: int
    is_keyframe: bool
    fused_tokens: TokenMatrix
    pixel_mask: np.ndarray
    attention_mask: np.ndarray
    fusion_mask: np.ndarray
    fusion_rate: float


def is_keyframe(t: int, state: FusionState, keyframe_interval: int) -> bool:
    """True when all patches are unconditionally recomputed at step t."""
    if t != state.timestep:
        raise ValueError(f"step timestep {t} does not match state timestep {state.timestep}")
    return (t % keyframe_interval == 0) or state.prev_tokens is None


def combine_masks(pixel_mask: np.ndarray, attention_mask: np.ndarray) -> np.ndarray:
    """OR the two masks (``step`` passes all zeros for a disabled dimension)."""
    pixel_mask = np.asarray(pixel_mask, dtype=np.uint8)
    attention_mask = np.asarray(attention_mask, dtype=np.uint8)
    if pixel_mask.shape != attention_mask.shape:
        raise ValueError(f"mask lengths differ: {pixel_mask.shape} vs {attention_mask.shape}")
    return (pixel_mask | attention_mask).astype(np.uint8)


def fuse_tokens(
    current: TokenMatrix, previous: TokenMatrix, fusion_mask: np.ndarray
) -> TokenMatrix:
    """Row-wise hard selection: mask 1 takes the current row, 0 the previous.

    Rows are copied bit-exactly; no blending.
    """
    if current.values.shape != previous.values.shape:
        raise ValueError(
            f"token shapes differ: {current.values.shape} vs {previous.values.shape}"
        )
    mask = np.asarray(fusion_mask, dtype=np.uint8)
    if mask.shape != (current.patch_count,):
        raise ValueError(f"mask length {mask.shape} does not match {current.patch_count} patches")
    fused = np.where(mask[:, None] == 1, current.values, previous.values)
    return TokenMatrix(fused)


def _attention_mask(
    prev_attention: AttentionSlice | None, n: int, config: FusionConfig
) -> np.ndarray:
    if prev_attention is None:
        # No usable attention from the prior step: recompute everything
        # rather than risk reusing stale tokens.
        return np.ones(n, dtype=np.uint8)
    scores = detection.relevance_scores(prev_attention, config.attention_mode)
    if scores.shape[0] != n:
        raise ValueError(f"attention slice covers {scores.shape[0]} patches, expected {n}")
    if config.selection_mode == SELECTION_TOP_K:
        return detection.top_k_mask(scores, config.top_k)
    return detection.rate_target_mask(scores, config.target_reuse_rate)


def step(
    state: FusionState,
    frame: FrameObservation,
    encoder,
    config: FusionConfig,
    shared: SharedObservation | None = None,
) -> tuple[StepResult, FusionState]:
    """Run one timestep of the fusion loop.

    ``encoder`` is any callable ``encoder(frame, gray)`` returning
    ``(TokenMatrix, AttentionSlice | None)``, where ``gray`` is the frame's
    grayscale, computed once here and shared by pixel detection and the
    encoder.  ``shared``, when given, is this frame's
    :class:`SharedObservation` (built from ``frame`` and ``encoder``), so
    steps of several configs on one frame compute its grayscale, encoding
    and pixel diffs once; without it the step builds its own.  The returned
    state carries the fused tokens, this frame's grayscale, and the
    attention captured this step (consumed by the next step, which rejects
    it unless it came from timestep t - 1).
    """
    t = frame.timestep
    if t != state.timestep:
        raise ValueError(f"frame timestep {t} does not match state timestep {state.timestep}")
    if state.prev_attention is not None and state.prev_attention.source_timestep != t - 1:
        raise ValueError(
            f"stale attention: step {t} got attention from timestep "
            f"{state.prev_attention.source_timestep}, expected {t - 1}"
        )
    if frame.width != config.width or frame.height != config.height:
        raise ValueError(
            f"frame is {frame.width}x{frame.height}, config expects {config.width}x{config.height}"
        )
    if shared is None:
        shared = SharedObservation(frame, encoder)
    elif shared.frame is not frame:
        raise ValueError(f"shared observation is of another frame than timestep {t}")
    grid = config.grid
    n = grid.patch_count

    tokens, attention = shared.encoded()
    if tokens.patch_count != n:
        raise ValueError(f"encoder produced {tokens.patch_count} tokens, expected {n}")

    if is_keyframe(t, state, config.keyframe_interval):
        ones = np.ones(n, dtype=np.uint8)
        ones.flags.writeable = False
        result = StepResult(
            timestep=t,
            is_keyframe=True,
            fused_tokens=tokens,
            pixel_mask=ones,
            attention_mask=ones,
            fusion_mask=ones,
            fusion_rate=0.0,
        )
    else:
        if config.enable_pixel:
            if state.prev_gray is None:
                raise ValueError("non-keyframe step needs the previous frame's grayscale")
            diffs = shared.diffs(state.prev_gray, grid)
            pixel_mask = detection.threshold_diffs(diffs, config.pixel_threshold)
        else:
            pixel_mask = np.zeros(n, dtype=np.uint8)
        if config.enable_attention:
            attention_mask = _attention_mask(state.prev_attention, n, config)
        else:
            attention_mask = np.zeros(n, dtype=np.uint8)
        fusion_mask = combine_masks(pixel_mask, attention_mask)

        fused = fuse_tokens(tokens, state.prev_tokens, fusion_mask)
        result = StepResult(
            timestep=t,
            is_keyframe=False,
            fused_tokens=fused,
            pixel_mask=pixel_mask,
            attention_mask=attention_mask,
            fusion_mask=fusion_mask,
            fusion_rate=int(np.count_nonzero(fusion_mask == 0)) / n,
        )

    new_state = FusionState(
        prev_gray=shared.gray,
        prev_tokens=result.fused_tokens,
        prev_attention=attention,
        timestep=t + 1,
    )
    return result, new_state


def lockstep(frames, encoder, configs) -> Iterator[list[StepResult]]:
    """Drive one fusion loop per config over the same frames, in lockstep,
    yielding each frame's step results, one per config, in order.

    Frames are the outer loop and configs the inner one, so every config
    takes its ``step`` on frame t before any takes frame t + 1.  All steps on
    a frame share one :class:`SharedObservation`, so the frame's grayscale
    and encoding are computed once, and its pixel diffs at most once, inside
    whichever step first needs them.  Frames are consumed as they arrive
    and need not be a list; between frames only each config's
    :class:`FusionState` is kept, so memory stays flat however long the
    episode is.

    Frame t must have timestep t: a frame off its position raises
    ``ValueError`` ("timestep gap") when the loop reaches it, and a stream
    that ends before its first frame raises ``ValueError`` ("first frame
    missing").  An empty ``configs`` raises ``ValueError`` too.  Being a
    generator, the loop raises each of these on the ``next`` call that
    meets it, not when ``lockstep`` is called.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("no fusion configs to run")
    states = [FusionState() for _ in configs]
    index = -1
    for index, frame in enumerate(frames):
        if frame.timestep != index:
            raise ValueError(
                f"timestep gap: frame at position {index} has timestep {frame.timestep}"
            )
        shared = SharedObservation(frame, encoder)
        results = []
        for i, config in enumerate(configs):
            result, states[i] = step(states[i], frame, encoder, config, shared=shared)
            results.append(result)
        # Only the states carry over: drop the frame and its shared
        # observation before the caller handles this frame's steps.
        del frame, shared
        yield results
    if index < 0:
        raise ValueError("sequence is empty: first frame missing")


class SharedObservation:
    """What the fusion loop derives from one frame, each part computed on
    first request: the grayscale, the encoder result, and the per-patch
    pixel diffs against the previous frame's grayscale.

    None of the three reads a ``FusionConfig`` field, so every config's step
    on the frame can use the same results.  The diffs are read-only because
    every config's step on the frame reads the same array.
    """

    def __init__(self, frame: FrameObservation, encoder):
        self.frame = frame
        self._encoder = encoder
        self._gray: GrayscaleImage | None = None
        self._encoded = None
        self._diffs: np.ndarray | None = None
        self._diffs_base: GrayscaleImage | None = None

    @property
    def gray(self) -> GrayscaleImage:
        if self._gray is None:
            self._gray = to_grayscale(self.frame)
        return self._gray

    def encoded(self):
        """``encoder(frame, gray)``, run on the first call only."""
        if self._encoded is None:
            self._encoded = self._encoder(self.frame, self.gray)
        return self._encoded

    def diffs(self, prev_gray: GrayscaleImage, grid: PatchGrid) -> np.ndarray:
        """``detection.patch_diffs`` of this frame against ``prev_gray``,
        computed again only when asked against another grayscale."""
        if self._diffs_base is not prev_gray:
            diffs = detection.patch_diffs(self.gray, prev_gray, grid)
            diffs.flags.writeable = False
            self._diffs, self._diffs_base = diffs, prev_gray
        return self._diffs

