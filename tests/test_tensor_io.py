import struct

import numpy as np
import pytest

from ttfusion.tensor_io import TensorFormatError, read_tensor, write_tensor


class TestRoundTrip:
    def test_2x3_matrix(self, tmp_path):
        path = tmp_path / "m.ttft"
        values = np.array([[1.5, -2.0, 0.25], [3.0, 4.5, -0.125]], dtype=np.float32)
        write_tensor(path, values)
        again = read_tensor(path)
        assert again.dtype == np.float32
        assert np.array_equal(again, values)

    def test_zero_dim_scalar(self, tmp_path):
        path = tmp_path / "s.ttft"
        write_tensor(path, np.float32(7.5))
        again = read_tensor(path)
        assert again.shape == ()
        assert again == np.float32(7.5)

    def test_3d_tensor(self, tmp_path):
        path = tmp_path / "t.ttft"
        values = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        write_tensor(path, values)
        assert np.array_equal(read_tensor(path), values)

    def test_float64_input_truncates_to_float32(self, tmp_path):
        path = tmp_path / "d.ttft"
        values = np.array([1.0 / 3.0], dtype=np.float64)
        write_tensor(path, values)
        assert np.array_equal(read_tensor(path), values.astype(np.float32))

    def test_header_layout_is_little_endian(self, tmp_path):
        path = tmp_path / "h.ttft"
        write_tensor(path, np.zeros((2, 3), dtype=np.float32))
        data = path.read_bytes()
        assert data[:4] == b"TTFT"
        version, ndim, d0, d1 = struct.unpack("<IIII", data[4:20])
        assert (version, ndim, d0, d1) == (1, 2, 2, 3)
        assert len(data) == 20 + 2 * 3 * 4


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ttft"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert info.value.code == "bad-magic"

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v.ttft"
        path.write_bytes(b"TTFT" + struct.pack("<II", 9, 0) + bytes(4))
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert info.value.code == "bad-version"

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "t.ttft"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert info.value.code == "truncated"

    def test_values_past_the_dims_rejected(self, tmp_path):
        path = tmp_path / "t.ttft"
        write_tensor(path, np.zeros((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(
            TensorFormatError, match=r"t.ttft: dims \(4, 4\) declare 64 value bytes, found 72"
        ) as info:
            read_tensor(path)
        assert info.value.code == "bad-shape"

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.ttft"
        path.write_bytes(b"TTFT\x01\x00")
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert info.value.code == "truncated"

    def test_dim_overflow(self, tmp_path):
        path = tmp_path / "o.ttft"
        path.write_bytes(b"TTFT" + struct.pack("<IIII", 1, 2, 1 << 20, 1 << 20))
        with pytest.raises(TensorFormatError) as info:
            read_tensor(path)
        assert info.value.code == "dim-overflow"
