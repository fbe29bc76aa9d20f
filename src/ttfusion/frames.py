"""Frame ingestion, luminance conversion, and the fixed 14-pixel patch grid.

Frames are binary PPM (P6, maxval 255) images whose dimensions are exact
multiples of the patch side.  The patch grid indexes every downstream mask
and token row, patch 0 at the top-left corner, row-major.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

PATCH_SIDE = 14
PATCH_PIXELS = PATCH_SIDE * PATCH_SIDE

# Integer luminance weights; dividing the exact integer-valued sum once keeps
# every value correctly rounded and inside [0, 1].
_LUMA_WEIGHTS = np.array([299.0, 587.0, 114.0])
_LUMA_SCALE = 255000.0
# Pixels per band of rows when an RGB frame is converted to grayscale.
GRAY_BAND_PIXELS = 4096


class FrameError(ValueError):
    """Rejected frame file or frame data.

    ``code`` is one of ``malformed-header``, ``bad-dimensions``,
    ``truncated-data``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass
class FrameObservation:
    """One RGB frame with its position in the sequence.

    ``pixels`` is an (height, width, 3) uint8 array, row-major.
    """

    pixels: np.ndarray
    timestep: int

    def __post_init__(self) -> None:
        self.pixels = np.asarray(self.pixels)
        if self.pixels.dtype != np.uint8:
            raise FrameError("malformed-header", "pixels must be uint8")
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise FrameError("malformed-header", "pixels must be H x W x 3")
        h, w = self.pixels.shape[:2]
        if h <= 0 or w <= 0 or h % PATCH_SIDE or w % PATCH_SIDE:
            raise FrameError(
                "bad-dimensions",
                f"dimensions {w}x{h} are not positive multiples of {PATCH_SIDE}",
            )
        if self.timestep < 0:
            raise ValueError("timestep must be non-negative")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass(frozen=True)
class PatchGrid:
    """Row-major grid of 14x14 patches covering a frame exactly."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("grid must have positive dimensions")

    @classmethod
    def from_dims(cls, width: int, height: int) -> "PatchGrid":
        if width % PATCH_SIDE or height % PATCH_SIDE:
            raise FrameError(
                "bad-dimensions",
                f"dimensions {width}x{height} are not multiples of {PATCH_SIDE}",
            )
        return cls(rows=height // PATCH_SIDE, cols=width // PATCH_SIDE)

    @classmethod
    def for_frame(cls, frame: FrameObservation) -> "PatchGrid":
        return cls.from_dims(frame.width, frame.height)

    @property
    def patch_count(self) -> int:
        return self.rows * self.cols

    def patch_region(self, index: int) -> tuple[int, int, int, int]:
        """Pixel region (u0, v0, u1, v1) of a patch, bounds inclusive.

        ``u`` is the pixel row and ``v`` the pixel column; patch ``cols`` sits
        at (14, 0), the start of the second row band.
        """
        if not 0 <= index < self.patch_count:
            raise IndexError(f"patch index {index} out of range [0, {self.patch_count})")
        u0 = (index // self.cols) * PATCH_SIDE
        v0 = (index % self.cols) * PATCH_SIDE
        return u0, v0, u0 + PATCH_SIDE - 1, v0 + PATCH_SIDE - 1


def to_grayscale(frame: FrameObservation, out: np.ndarray | None = None) -> np.ndarray:
    """The frame's (height, width) float64 luminance plane,
    (0.299 R + 0.587 G + 0.114 B) / 255, every value in [0, 1]; written
    into ``out`` (a C-contiguous float64 array of that shape) if given.

    An RGB frame is converted a band of about ``GRAY_BAND_PIXELS`` pixels
    at a time, so no float64 copy of the whole frame is made.  Each weighted
    sum is an exact integer, so the result does not depend on the band.
    """
    pixels = frame.pixels
    shape = pixels.shape[:2]
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 {shape} array")
    if pixels.strides[2] == 0:
        # One plane in memory is all three channels (R = G = B), so the
        # weighted sum is exactly 1000 p, and 1000 p / 255000 is the same
        # real number as p / 255: one division rounds to the same value.
        return np.divide(pixels[..., 0], 255.0, out=out, dtype=np.float64)
    band = max(1, GRAY_BAND_PIXELS // shape[1])
    values = np.empty((min(band, shape[0]), shape[1], 3))
    for r0 in range(0, shape[0], band):
        rows = values[: min(band, shape[0] - r0)]
        np.copyto(rows, pixels[r0 : r0 + band])
        np.matmul(rows, _LUMA_WEIGHTS, out=out[r0 : r0 + band])
    out /= _LUMA_SCALE
    return out


def _parse_netpbm_header(data: bytes, magic: bytes, path: str) -> tuple[int, int, int]:
    """Parse a P5/P6 header, returning (width, height, data offset).

    Whitespace-separated integer fields; ``#`` comments run to end of line.
    """
    if not data.startswith(magic):
        raise FrameError("malformed-header", f"{path}: not a {magic.decode()} file")
    pos = len(magic)
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise FrameError("malformed-header", f"{path}: header ended early")
        byte = data[pos : pos + 1]
        if byte in b" \t\r\n":
            pos += 1
        elif byte == b"#":
            while pos < len(data) and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        elif byte.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise FrameError("malformed-header", f"{path}: unexpected byte {byte!r} in header")
    if pos >= len(data) or data[pos : pos + 1] not in b" \t\r\n":
        raise FrameError("malformed-header", f"{path}: missing whitespace after maxval")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise FrameError("malformed-header", f"{path}: maxval {maxval} unsupported (want 255)")
    if width <= 0 or height <= 0:
        raise FrameError("bad-dimensions", f"{path}: non-positive dimensions {width}x{height}")
    return width, height, pos


def _netpbm_body(data: bytes, offset: int, expected: int, path: str | os.PathLike) -> np.ndarray:
    """The ``expected`` pixel bytes after a header ending at ``offset``, as
    uint8.  They must be the rest of the file: fewer raise "truncated-data",
    more "bad-dimensions", as the header then misstates the image."""
    found = len(data) - offset
    if found < expected:
        raise FrameError(
            "truncated-data", f"{path}: expected {expected} pixel bytes, found {found}"
        )
    if found > expected:
        raise FrameError(
            "bad-dimensions", f"{path}: header declares {expected} pixel bytes, found {found}"
        )
    return np.frombuffer(data, dtype=np.uint8, offset=offset)


def load_frame(path: str | os.PathLike, timestep: int) -> FrameObservation:
    """Load a binary PPM (P6) frame and validate its dimensions."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, offset = _parse_netpbm_header(data, b"P6", str(path))
    if width % PATCH_SIDE or height % PATCH_SIDE:
        raise FrameError(
            "bad-dimensions",
            f"{path}: dimension not multiple of {PATCH_SIDE} ({width}x{height})",
        )
    pixels = _netpbm_body(data, offset, width * height * 3, path).reshape(height, width, 3)
    return FrameObservation(pixels=pixels.copy(), timestep=timestep)


def save_frame(path: str | os.PathLike, frame: FrameObservation) -> None:
    """Write a frame as binary PPM (P6)."""
    write_ppm(path, frame.pixels)


def write_ppm(path: str | os.PathLike, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("PPM data must be H x W x 3")
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_pgm(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write a grayscale image as binary PGM (P5)."""
    values = np.asarray(values, dtype=np.uint8)
    if values.ndim != 2:
        raise ValueError("PGM data must be H x W")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(values.tobytes())


def read_pgm(path: str | os.PathLike) -> np.ndarray:
    """Read a binary PGM (P5) image as a (height, width) uint8 array."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, offset = _parse_netpbm_header(data, b"P5", str(path))
    return _netpbm_body(data, offset, width * height, path).reshape(height, width).copy()


def numbered_files(directory: str | os.PathLike, name: str) -> dict[int, str]:
    """The entries of ``directory`` named ``name.format(i)`` for an index
    i >= 0, by index.  ``name`` holds one ``{:06d}`` field, so an entry
    with more than six digits belongs only without a leading zero."""
    head, tail = name.split("{:06d}")
    found = {}
    for entry in os.listdir(directory):
        digits = entry.removeprefix(head).removesuffix(tail)
        if digits.isdecimal() and entry == name.format(int(digits)):
            found[int(digits)] = entry
    return found
