"""Per-timestep hard token fusion with keyframe anchoring.

Each step decides patch-by-patch whether to keep the freshly encoded token
or copy the previous step's fused token bit for bit.  The decision ORs the
pixel and attention masks; keyframes (every K steps, or whenever history is
empty) recompute everything and reset reuse chains.  The rolling state
stores the *fused* tokens, so reuse chains extend until a keyframe cuts
them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import detection
from .detection import ATTENTION_MODES
from .frames import FrameObservation, PatchGrid, to_grayscale

SELECTION_TOP_K = "top_k"
SELECTION_RATE_TARGET = "rate_target"
SELECTION_MODES = (SELECTION_TOP_K, SELECTION_RATE_TARGET)
# A frame of which a step asks for at least this share of the tokens, none
# encoded yet, is encoded whole: encoding a row subset means gathering its
# features and scattering its tokens, which outweighs the few rows saved.
WHOLE_FRAME_SHARE = 0.9


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
        PatchGrid.from_dims(self.width, self.height)

    @property
    def grid(self) -> PatchGrid:
        return PatchGrid.from_dims(self.width, self.height)


@dataclass
class FusionState:
    """Rolling memory between steps: previous grayscale, fused tokens, scores.

    At timestep 0 every ``prev_*`` field is absent; afterwards
    ``prev_tokens`` always holds the fused tokens just emitted.
    """

    prev_gray: np.ndarray | None = None
    prev_tokens: np.ndarray | None = None
    prev_scores: np.ndarray | None = None
    timestep: int = 0


@dataclass
class StepResult:
    """Outcome of one fusion step.

    The masks are bool (N,) arrays, True where the patch is recomputed.  On
    keyframes the three masks are one shared read-only all-True array and
    the fusion rate is 0.  ``fusion_rate`` counts the fraction of
    patches whose token was reused from history.  ``fused_tokens`` is the
    (N, d) float64 array whose row i is the token of patch i.
    """

    timestep: int
    is_keyframe: bool
    fused_tokens: np.ndarray
    pixel_mask: np.ndarray
    attention_mask: np.ndarray
    fusion_mask: np.ndarray
    fusion_rate: float


def is_keyframe(t: int, state: FusionState, keyframe_interval: int) -> bool:
    """True when all patches are unconditionally recomputed at step t."""
    if t != state.timestep:
        raise ValueError(f"step timestep {t} does not match state timestep {state.timestep}")
    return (t % keyframe_interval == 0) or state.prev_tokens is None


def _attention_mask(scores: np.ndarray | None, n: int, config: FusionConfig) -> np.ndarray:
    if not config.enable_attention:
        return np.zeros(n, dtype=bool)
    if scores is None:
        # No usable attention from the prior step: recompute everything
        # rather than risk reusing stale tokens.
        return np.ones(n, dtype=bool)
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

    ``encoder`` provides ``features``, ``tokens`` and ``attention`` as
    :class:`SharedObservation` calls them (``toy_encoder.ToyEncoder`` is
    one).  The step settles its fusion mask first, from the grayscale, the
    pixel diffs and the previous step's relevance scores, and then has the
    encoder encode only the token rows that mask recomputes: every row on a
    keyframe, the flagged rows otherwise (or the whole frame when they are
    most of it; see :meth:`SharedObservation.tokens`).  ``shared``, when
    given, is this frame's :class:`SharedObservation` (built from ``frame``
    and ``encoder``), so steps of several configs on one frame compute its
    grayscale, features, scores of each mode, token rows and pixel diffs
    once; without it the step builds its own.  The returned state carries
    the fused tokens, this frame's grayscale, and the relevance scores of
    the config's mode that :meth:`SharedObservation.scores` checked this
    step, for the next step to select from.  The scores are None, and never
    computed, when no step reads them: with attention detection off, or
    when the next step is a keyframe.
    """
    t = frame.timestep
    if t != state.timestep:
        raise ValueError(f"frame timestep {t} does not match state timestep {state.timestep}")
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
    # Only the next step reads this frame's scores, and only if it is no
    # keyframe.
    scores = None
    if config.enable_attention and (t + 1) % config.keyframe_interval:
        scores = shared.scores(config.attention_mode)

    keyframe = is_keyframe(t, state, config.keyframe_interval)
    if keyframe:
        fusion_mask = np.ones(n, dtype=bool)
        fusion_mask.flags.writeable = False
        pixel_mask = attention_mask = fusion_mask
        fused, fusion_rate = shared.tokens(None), 0.0
    else:
        if config.enable_pixel:
            if state.prev_gray is None:
                raise ValueError("non-keyframe step needs the previous frame's grayscale")
            diffs = shared.diffs(state.prev_gray, grid)
            pixel_mask = detection.threshold_diffs(diffs, config.pixel_threshold)
        else:
            pixel_mask = np.zeros(n, dtype=bool)
        attention_mask = _attention_mask(state.prev_scores, n, config)
        fusion_mask = pixel_mask | attention_mask
        rows = np.flatnonzero(fusion_mask)
        # Hard fusion: recomputed rows come from this frame's tokens, the
        # rest stay bit-exact copies of the previous step's fused tokens.
        fused = state.prev_tokens.copy()
        fused[rows] = shared.tokens(rows)[rows]
        fusion_rate = (n - rows.size) / n
    result = StepResult(
        timestep=t,
        is_keyframe=keyframe,
        fused_tokens=fused,
        pixel_mask=pixel_mask,
        attention_mask=attention_mask,
        fusion_mask=fusion_mask,
        fusion_rate=fusion_rate,
    )
    new_state = FusionState(
        prev_gray=shared.gray,
        prev_tokens=fused,
        prev_scores=scores,
        timestep=t + 1,
    )
    return result, new_state


def lockstep(frames, encoder, configs) -> Iterator[list[StepResult]]:
    """Drive one fusion loop per config over the same frames, in lockstep,
    yielding each frame's step results, one per config, in order.

    Frames are the outer loop and configs the inner one, so every config
    takes its ``step`` on frame t before any takes frame t + 1.  All steps on
    a frame share one :class:`SharedObservation`, so the frame's grayscale
    and features are computed once, its scores once per attention mode,
    each token row at most once and its pixel diffs at most once, inside
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
    first request: the grayscale, the encoder's features, the relevance
    scores of each attention mode asked for, its token rows, and the
    per-patch pixel diffs against the previous frame's grayscale.

    None of these reads a ``FusionConfig`` field, so every config's step on
    the frame can use the same results.  The scores and the diffs are
    read-only because every config's step on the frame reads the same array.

    The encoder provides three methods.  ``features(frame, gray)`` returns
    whatever the other two need of the frame; it is called once.
    ``attention(frame, features, mode)`` returns the frame's
    ``AttentionSlice`` for one attention mode, or None; it is called once
    per mode a step asks for.  ``tokens(features, rows)`` returns the
    (len(rows), d) token rows of the patches in the index array ``rows``,
    or all N rows when ``rows`` is None; each row's bits must not depend on
    which other rows are asked for with it.
    """

    def __init__(self, frame: FrameObservation, encoder):
        self.frame = frame
        self._encoder = encoder
        self._scores: dict[str, np.ndarray | None] = {}
        self._tokens: np.ndarray | None = None
        self._unset: np.ndarray | None = None
        self._diffs: np.ndarray | None = None
        self._diffs_base: np.ndarray | None = None

    @cached_property
    def gray(self) -> np.ndarray:
        return to_grayscale(self.frame)

    @cached_property
    def features(self):
        return self._encoder.features(self.frame, self.gray)

    def scores(self, mode: str) -> np.ndarray | None:
        """The read-only (N,) ``detection.relevance_scores`` of the encoder's
        attention of ``mode`` (None for no slice), asked for once per mode; a
        slice of another timestep or patch count raises ``ValueError``."""
        if mode in self._scores:
            return self._scores[mode]
        slice_ = self._encoder.attention(self.frame, self.features, mode)
        scores = None
        if slice_ is not None:
            t, n = self.frame.timestep, PatchGrid.for_frame(self.frame).patch_count
            if slice_.source_timestep != t:
                raise ValueError(
                    f"stale attention: step {t} got attention from timestep "
                    f"{slice_.source_timestep}, expected {t}"
                )
            scores = detection.relevance_scores(slice_, mode)
            if len(scores) != n:
                raise ValueError(f"attention slice covers {len(scores)} patches, expected {n}")
            scores.flags.writeable = False
        self._scores[mode] = scores
        return scores

    def tokens(self, rows: np.ndarray | None) -> np.ndarray:
        """The frame's (N, d) tokens, of which at least ``rows`` (an index array,
        or None for every row) are encoded.

        Rows no earlier call asked for are encoded now, in one encoder call,
        checked finite and kept; a row no call has asked for holds zeros,
        and no caller may read it.  When no row is encoded yet and at least
        ``WHOLE_FRAME_SHARE`` of them are asked for, the whole frame is
        encoded instead and the encoder's output kept as it is, with no
        copy.
        """
        if self._unset is None:
            self._unset = np.ones(PatchGrid.for_frame(self.frame).patch_count, dtype=bool)
        n = len(self._unset)
        missing = np.flatnonzero(self._unset) if rows is None else rows[self._unset[rows]]
        if self._tokens is None and missing.size >= WHOLE_FRAME_SHARE * n:
            self._tokens = self._encode(None)
            self._unset[:] = False
        elif missing.size or self._tokens is None:
            new = self._encode(missing)
            if self._tokens is None:
                self._tokens = np.zeros((n, new.shape[1]))
            self._tokens[missing] = new
            self._unset[missing] = False
        return self._tokens

    def _encode(self, rows: np.ndarray | None) -> np.ndarray:
        new = np.asarray(self._encoder.tokens(self.features, rows), dtype=np.float64)
        count = len(self._unset) if rows is None else len(rows)
        t = self.frame.timestep
        if new.ndim != 2 or len(new) != count:
            raise ValueError(f"encoder produced {new.shape} tokens for {count} patches of timestep {t}")
        if not np.isfinite(new).all():
            raise ValueError(f"encoder produced non-finite tokens at timestep {t}")
        return new

    def diffs(self, prev_gray: np.ndarray, grid: PatchGrid) -> np.ndarray:
        """``detection.patch_diffs`` of this frame against ``prev_gray``,
        computed again only when asked against another grayscale."""
        if self._diffs_base is not prev_gray:
            diffs = detection.patch_diffs(self.gray, prev_gray, grid)
            diffs.flags.writeable = False
            self._diffs, self._diffs_base = diffs, prev_gray
        return self._diffs
