"""Training-free temporal token fusion for frame sequences.

The library fuses each frame's patch tokens with the previous step's fused
tokens: patches flagged by pixel-difference or attention-relevance
detection are recomputed, the rest are reused bit-exactly, and periodic
keyframes reset the reuse chains.  Because reused token rows are exact
copies, the matching rows of the query/key/value projections can be reused
too; :mod:`ttfusion.projection` verifies that shortcut and counts the
arithmetic it avoids.
"""

from .detection import (
    ACTION_TO_VISION,
    TEXT_TO_VISION,
    AttentionSlice,
    patch_diffs,
    rate_target_mask,
    relevance_scores,
    threshold_diffs,
    top_k_mask,
)
from .frames import (
    PATCH_SIDE,
    FrameError,
    FrameObservation,
    PatchGrid,
    load_frame,
    save_frame,
    to_grayscale,
)
from .fusion import (
    FusionConfig,
    FusionState,
    StepResult,
    is_keyframe,
    lockstep,
    step,
)
from .projection import ProjectionSet, ReuseChecker, project_full
from .prng import SplitMix64
from .runconfig import ConfigError, RunConfig, load_config_file
from .synthetic import SynthSpec, generate_frames, iter_frames, walker_patch, write_sequence
from .tensor_io import TensorFormatError, read_tensor, write_tensor
from .toy_encoder import EncoderSpec, ToyEncoder, synth_attention

__version__ = "0.1.0"

__all__ = [
    "ACTION_TO_VISION",
    "TEXT_TO_VISION",
    "PATCH_SIDE",
    "AttentionSlice",
    "ConfigError",
    "EncoderSpec",
    "FrameError",
    "FrameObservation",
    "FusionConfig",
    "FusionState",
    "PatchGrid",
    "ProjectionSet",
    "ReuseChecker",
    "RunConfig",
    "SplitMix64",
    "StepResult",
    "SynthSpec",
    "TensorFormatError",
    "ToyEncoder",
    "generate_frames",
    "is_keyframe",
    "iter_frames",
    "load_config_file",
    "load_frame",
    "lockstep",
    "patch_diffs",
    "project_full",
    "rate_target_mask",
    "read_tensor",
    "relevance_scores",
    "save_frame",
    "step",
    "synth_attention",
    "threshold_diffs",
    "to_grayscale",
    "top_k_mask",
    "walker_patch",
    "write_sequence",
    "write_tensor",
]
