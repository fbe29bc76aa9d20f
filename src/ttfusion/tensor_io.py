"""Binary tensor files: magic "TTFT", little-endian, row-major float32.

Layout: 4-byte magic, u32 version (currently 1), u32 ndim, ndim u32 dims,
then the values as float32.  A 0-dim file carries a single scalar.  Internal
math is float64; writing truncates to float32, which is the documented lossy
boundary of the format.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"TTFT"
VERSION = 1

# Guards allocation on read; dims whose product exceeds this are rejected.
_MAX_ELEMENTS = 1 << 31


class TensorFormatError(ValueError):
    """Rejected tensor file.

    ``code`` is one of ``bad-magic``, ``bad-version``, ``dim-overflow``,
    ``truncated``, or ``bad-shape`` (a well-formed file whose shape its
    reader cannot use).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def write_tensor(path: str | os.PathLike, values: np.ndarray) -> None:
    """Write an array (any rank, including 0-dim scalars) as float32."""
    values = np.asarray(values)
    dims = values.shape
    if any(d >= (1 << 32) for d in dims):
        raise TensorFormatError("dim-overflow", f"dimension too large for u32: {dims}")
    if values.size > _MAX_ELEMENTS:
        raise TensorFormatError("dim-overflow", f"{values.size} elements exceed format limit")
    payload = np.ascontiguousarray(values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(payload.tobytes())


def read_tensor(path: str | os.PathLike) -> np.ndarray:
    """Read a tensor file back as a float32 array with its stored shape."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise TensorFormatError("bad-magic", f"{path}: bad magic {data[:4]!r}")
    if len(data) < 12:
        raise TensorFormatError("truncated", f"{path}: header incomplete")
    version, ndim = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise TensorFormatError("bad-version", f"{path}: unsupported version {version}")
    offset = 12
    if len(data) < offset + 4 * ndim:
        raise TensorFormatError("truncated", f"{path}: dims incomplete")
    dims = struct.unpack_from(f"<{ndim}I", data, offset)
    offset += 4 * ndim
    count = 1
    for d in dims:
        count *= d
        if count > _MAX_ELEMENTS:
            raise TensorFormatError("dim-overflow", f"{path}: dims {dims} overflow")
    expected = 4 * count
    if len(data) < offset + expected:
        raise TensorFormatError(
            "truncated", f"{path}: expected {expected} value bytes, found {len(data) - offset}"
        )
    values = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
    return values.reshape(dims).copy()
