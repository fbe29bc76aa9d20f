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

from .frames import PATCH_SIDE, FrameObservation, PatchGrid, numbered_files, write_ppm
from .prng import SplitMix64

FRAME_NAME = "frame_{:06d}.ppm"
# Noise is drawn and added this many pixels at a time, so its buffers
# stay small whatever the frame size.
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


def _noise_bands(pixels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffers of ``_add_noise`` for frames of ``pixels`` pixels, one
    band of NOISE_BAND_PIXELS each: the draws, the uint8 delta and the
    headroom ``255 - pixel``."""
    band = min(NOISE_BAND_PIXELS, pixels)
    return np.empty(band), np.empty(band, dtype=np.uint8), np.empty(band, dtype=np.uint8)


def _add_noise(plane: np.ndarray, stream: SplitMix64, amplitude: float, bands) -> None:
    """Add round(draw * amplitude * 255) to each pixel of ``plane`` in place,
    saturating at 255: one draw per pixel, row-major, drawn and added one
    band at a time in the buffers of ``_noise_bands``."""
    flat = plane.reshape(-1)
    band_draws, band_delta, band_room = bands
    for start in range(0, flat.size, band_draws.size):
        pixels = flat[start : start + band_draws.size]
        size = pixels.size
        draws = stream.float_block(size, out=band_draws[:size])
        draws *= amplitude
        draws *= 255.0
        delta = band_delta[:size]
        np.copyto(delta, np.round(draws, out=draws), casting="unsafe")
        np.minimum(delta, np.subtract(255, pixels, out=band_room[:size]), out=delta)
        pixels += delta


def iter_frames(spec: SynthSpec) -> Iterator[FrameObservation]:
    """Yield the episode's frames, timesteps 0..count-1, one at a time.

    Each frame is painted on one (height, width) uint8 plane, and its pixels
    are a read-only (height, width, 3) view that shows the plane as all
    three channels, so R = G = B in every pixel.  After the first frame,
    each frame draws from the stream, in order: the repaint picks, their
    gray levels, then one noise draw per pixel, row-major.
    """
    grid = spec.grid
    n = grid.patch_count
    base = _base_plane(spec)
    stream = SplitMix64(spec.seed)
    changed = min(n, int(round(spec.change_fraction * n)))
    bands = _noise_bands(base.size) if spec.noise_amplitude > 0.0 else None
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
        if bands is not None:
            _add_noise(plane, stream, spec.noise_amplitude, bands)
        pixels = np.broadcast_to(plane[..., None], (*plane.shape, 3))
        yield FrameObservation(pixels=pixels, timestep=t)
        # Drop the frame before the next one is allocated, so a consumer
        # that keeps no frame lets the next one take its memory.
        del plane, patches, pixels


def generate_frames(spec: SynthSpec) -> list[FrameObservation]:
    """Materialise the episode as in-memory frames, timesteps 0..count-1;
    their pixels are read-only views, as ``iter_frames`` yields them."""
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
    files = numbered_files(out_dir, FRAME_NAME)
    stale = min((i for i in files if i >= spec.frame_count), default=None)
    if stale is not None:
        raise FileExistsError(
            f"{out_dir} already holds {files[stale]} (index {stale}), past the new "
            f"episode's last frame {spec.frame_count - 1}; remove it or write elsewhere"
        )
    paths = []
    for frame in iter_frames(spec):
        path = os.path.join(out_dir, FRAME_NAME.format(frame.timestep))
        write_ppm(path, frame.pixels)
        paths.append(path)
    return paths
