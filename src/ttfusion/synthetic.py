"""Seeded synthetic frame sequences for experiments and oracle tests.

Every frame starts from a fixed horizontal gradient.  Three independent
perturbations can be layered on, in this order: a random subset of patches
repainted each step, a patch-aligned bright "walker" square that advances
one patch per frame (an analytically known change mask), and per-pixel
additive noise.  All randomness comes from one splitmix64 stream consumed
in a fixed documented order, so a (spec, seed) pair always reproduces the
same bytes.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .frames import PATCH_SIDE, FrameObservation, PatchGrid, write_ppm
from .prng import SplitMix64

FRAME_NAME = "frame_{:06d}.ppm"
FRAME_FILE = re.compile(r"frame_(\d{6,})\.ppm")
# Noise is drawn and added this many pixels at a time, so its float64
# draws stay a small temporary whatever the frame size.
NOISE_BAND_PIXELS = 16384


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic episode.

    ``change_fraction`` repaints that fraction of patches (rounded) with a
    random gray level on every frame after the first; ``noise_amplitude``
    adds per-pixel uniform noise in [0, a] (one draw per pixel, applied to
    all channels).  The walker square is painted last, so it always stays
    bright.
    """

    frame_count: int = 100
    width: int = 224
    height: int = 224
    change_fraction: float = 0.0
    walker: bool = False
    noise_amplitude: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.frame_count < 1:
            raise ValueError("need at least one frame")
        PatchGrid.from_dims(self.width, self.height)
        if not 0.0 <= self.change_fraction <= 1.0:
            raise ValueError("change fraction must lie in [0, 1]")
        if not 0.0 <= self.noise_amplitude <= 1.0:
            raise ValueError("noise amplitude must lie in [0, 1]")

    @property
    def grid(self) -> PatchGrid:
        return PatchGrid.from_dims(self.width, self.height)


def _base_plane(spec: SynthSpec) -> np.ndarray:
    cols = np.arange(spec.width)
    row = 32 + (160 * cols) // max(spec.width - 1, 1)
    return np.repeat(row[None, :], spec.height, axis=0).astype(np.uint8)


def base_image(spec: SynthSpec) -> np.ndarray:
    """The static background: a left-to-right gradient, identical channels."""
    return np.stack([_base_plane(spec)] * 3, axis=2)


def walker_patch(grid: PatchGrid, t: int) -> int:
    """Patch index occupied by the walker at step t (row-major, wrapping)."""
    return t % grid.patch_count


def _choose_patches(stream: SplitMix64, n: int, count: int) -> list[int]:
    # Partial Fisher-Yates driven by the shared stream: one draw per pick,
    # all drawn before the first swap.
    j = np.arange(count)
    targets = j + (stream.float_block(count) * (n - j)).astype(np.int64)
    indices = list(range(n))
    for a, b in enumerate(targets.tolist()):
        indices[a], indices[b] = indices[b], indices[a]
    return indices[:count]


def _add_noise(plane: np.ndarray, stream: SplitMix64, amplitude: float) -> None:
    """Add round(draw * amplitude * 255) to each pixel of ``plane`` in place,
    saturating at 255: one draw per pixel, row-major, drawn and added a band
    of NOISE_BAND_PIXELS at a time."""
    flat = plane.reshape(-1)
    for start in range(0, flat.size, NOISE_BAND_PIXELS):
        pixels = flat[start : start + NOISE_BAND_PIXELS]
        draws = stream.float_block(pixels.size)
        draws *= amplitude
        draws *= 255.0
        delta = np.round(draws, out=draws).astype(np.uint8)
        np.minimum(delta, 255 - pixels, out=delta)
        pixels += delta


def iter_frames(spec: SynthSpec) -> Iterator[FrameObservation]:
    """Yield the episode's frames, timesteps 0..count-1, one at a time.

    Each frame is painted on one (height, width) uint8 plane that becomes
    all three channels, so R = G = B in every pixel.  After the first frame,
    each frame draws from the stream, in order: the repaint picks, their
    gray levels, then one noise draw per pixel, row-major.
    """
    grid = spec.grid
    n = grid.patch_count
    base = _base_plane(spec)
    stream = SplitMix64(spec.seed)
    changed = min(n, int(round(spec.change_fraction * n)))
    for t in range(spec.frame_count):
        plane = base.copy()
        patches = plane.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE)
        if changed and t > 0:
            rows, cols = np.divmod(_choose_patches(stream, n, changed), grid.cols)
            levels = np.minimum((stream.float_block(changed) * 256).astype(np.int64), 255)
            patches[rows, :, cols, :] = levels[:, None, None]
        if spec.walker:
            row, col = divmod(walker_patch(grid, t), grid.cols)
            patches[row, :, col, :] = 255
        if spec.noise_amplitude > 0.0:
            _add_noise(plane, stream, spec.noise_amplitude)
        img = np.stack([plane] * 3, axis=2)
        yield FrameObservation(pixels=img, timestep=t)
        # Drop the frame before the next one is allocated, so a consumer
        # that keeps no frame lets the next one take its memory.
        del img


def generate_frames(spec: SynthSpec) -> list[FrameObservation]:
    """Materialise the episode as in-memory frames, timesteps 0..count-1."""
    return list(iter_frames(spec))


def write_sequence(spec: SynthSpec, out_dir: str | os.PathLike) -> list[str]:
    """Write the episode as frame_%06d.ppm files, each as it is generated;
    returns the paths.

    Frames of an earlier, longer episode would be read as part of this one,
    so if the directory already holds a frame file at or past the new frame
    count, ``FileExistsError`` names the first such file and nothing is
    written.
    """
    os.makedirs(out_dir, exist_ok=True)
    stale = [
        (int(m[1]), m[0])
        for m in map(FRAME_FILE.fullmatch, os.listdir(out_dir))
        if m and int(m[1]) >= spec.frame_count
    ]
    if stale:
        index, name = min(stale)
        raise FileExistsError(
            f"{out_dir} already holds {name} (index {index}), past the new episode's "
            f"last frame {spec.frame_count - 1}; remove it or write elsewhere"
        )
    paths = []
    for frame in iter_frames(spec):
        path = os.path.join(out_dir, FRAME_NAME.format(frame.timestep))
        write_ppm(path, frame.pixels)
        paths.append(path)
    return paths
