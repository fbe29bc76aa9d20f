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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .frames import FrameObservation, PatchGrid, write_ppm
from .prng import SplitMix64

FRAME_NAME = "frame_{:06d}.ppm"


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


def base_image(spec: SynthSpec) -> np.ndarray:
    """The static background: a left-to-right gradient, identical channels."""
    cols = np.arange(spec.width)
    row = 32 + (160 * cols) // max(spec.width - 1, 1)
    plane = np.repeat(row[None, :], spec.height, axis=0).astype(np.uint8)
    return np.stack([plane, plane, plane], axis=2)


def walker_patch(grid: PatchGrid, t: int) -> int:
    """Patch index occupied by the walker at step t (row-major, wrapping)."""
    return t % grid.patch_count


def _choose_patches(stream: SplitMix64, n: int, count: int) -> np.ndarray:
    # Partial Fisher-Yates driven by the shared stream: one draw per pick.
    indices = np.arange(n)
    for j in range(count):
        r = j + int(stream.next_float() * (n - j))
        indices[j], indices[r] = indices[r], indices[j]
    return indices[:count]


def _add_noise(img: np.ndarray, draws: np.ndarray, amplitude: float) -> None:
    """Add round(draw * amplitude * 255) to every channel of each pixel of
    ``img`` in place, clipped to [0, 255]; ``draws`` holds one draw per
    pixel, row-major, and is overwritten."""
    draws *= amplitude
    draws *= 255.0
    delta = np.round(draws, out=draws).astype(np.int16).reshape(img.shape[:2])
    noisy = img.astype(np.int16)
    noisy += delta[:, :, None]
    img[...] = np.clip(noisy, 0, 255, out=noisy)


def iter_frames(spec: SynthSpec) -> Iterator[FrameObservation]:
    """Yield the episode's frames, timesteps 0..count-1, one at a time."""
    grid = spec.grid
    n = grid.patch_count
    base = base_image(spec)
    stream = SplitMix64(spec.seed)
    changed = min(n, int(round(spec.change_fraction * n)))
    for t in range(spec.frame_count):
        img = base.copy()
        if changed and t > 0:
            for index in _choose_patches(stream, n, changed):
                u0, v0, u1, v1 = grid.patch_region(int(index))
                level = min(int(stream.next_float() * 256), 255)
                img[u0 : u1 + 1, v0 : v1 + 1, :] = level
        if spec.walker:
            u0, v0, u1, v1 = grid.patch_region(walker_patch(grid, t))
            img[u0 : u1 + 1, v0 : v1 + 1, :] = 255
        if spec.noise_amplitude > 0.0:
            _add_noise(img, stream.float_block(spec.height * spec.width), spec.noise_amplitude)
        yield FrameObservation(pixels=img, timestep=t)
        # Drop the frame before the next one is allocated, so a consumer
        # that keeps no frame lets the next one take its memory.
        del img


def generate_frames(spec: SynthSpec) -> list[FrameObservation]:
    """Materialise the episode as in-memory frames, timesteps 0..count-1."""
    return list(iter_frames(spec))


def write_sequence(spec: SynthSpec, out_dir: str | os.PathLike) -> list[str]:
    """Write the episode as frame_%06d.ppm files, each as it is generated;
    returns the paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for frame in iter_frames(spec):
        path = os.path.join(out_dir, FRAME_NAME.format(frame.timestep))
        write_ppm(path, frame.pixels)
        paths.append(path)
    return paths
