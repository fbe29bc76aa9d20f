import numpy as np
import pytest

from ttfusion.frames import (
    FrameError,
    FrameObservation,
    PatchGrid,
    load_frame,
    numbered_files,
    read_pgm,
    save_frame,
    to_grayscale,
    write_pgm,
    write_ppm,
)


def solid_frame(width, height, rgb, timestep=0):
    pixels = np.zeros((height, width, 3), dtype=np.uint8)
    pixels[:, :] = rgb
    return FrameObservation(pixels=pixels, timestep=timestep)


class TestLoadFrame:
    def test_round_trip_224(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8)
        path = tmp_path / "frame.ppm"
        write_ppm(path, pixels)
        frame = load_frame(path, timestep=0)
        assert (frame.width, frame.height, frame.timestep) == (224, 224, 0)
        assert np.array_equal(frame.pixels, pixels)

    def test_header_comments_tolerated(self, tmp_path):
        path = tmp_path / "frame.ppm"
        body = bytes(28 * 28 * 3)
        path.write_bytes(b"P6\n# a comment\n28 # trailing\n28\n255\n" + body)
        frame = load_frame(path, timestep=3)
        assert frame.width == frame.height == 28

    def test_all_black_28_has_four_zero_patches(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n28 28\n255\n" + bytes(28 * 28 * 3))
        frame = load_frame(path, timestep=0)
        grid = PatchGrid.for_frame(frame)
        assert grid.patch_count == 4
        assert not frame.pixels.any()

    def test_dimension_not_multiple_of_14(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n225 224\n255\n" + bytes(225 * 224 * 3))
        with pytest.raises(FrameError) as info:
            load_frame(path, timestep=0)
        assert info.value.code == "bad-dimensions"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P5\n28 28\n255\n" + bytes(28 * 28))
        with pytest.raises(FrameError) as info:
            load_frame(path, timestep=0)
        assert info.value.code == "malformed-header"

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n28 28\n65535\n" + bytes(28 * 28 * 6))
        with pytest.raises(FrameError) as info:
            load_frame(path, timestep=0)
        assert info.value.code == "malformed-header"

    def test_truncated_pixel_data(self, tmp_path):
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n28 28\n255\n" + bytes(100))
        with pytest.raises(FrameError) as info:
            load_frame(path, timestep=0)
        assert info.value.code == "truncated-data"

    def test_body_longer_than_header_declares(self, tmp_path):
        # A 56 x 56 body under a 28 x 28 header would load as a scrambled
        # 28 x 28 frame.
        path = tmp_path / "frame.ppm"
        path.write_bytes(b"P6\n28 28\n255\n" + bytes(56 * 56 * 3))
        with pytest.raises(FrameError, match=f"frame.ppm: header declares {28 * 28 * 3} pixel "
                           f"bytes, found {56 * 56 * 3}") as info:
            load_frame(path, timestep=0)
        assert info.value.code == "bad-dimensions"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_frame(tmp_path / "nope.ppm", timestep=0)

    def test_save_then_load_is_identity(self, tmp_path):
        frame = solid_frame(42, 28, (10, 20, 30), timestep=5)
        path = tmp_path / "frame.ppm"
        save_frame(path, frame)
        again = load_frame(path, timestep=5)
        assert np.array_equal(again.pixels, frame.pixels)


class TestGrayscale:
    def test_white_is_exactly_one(self):
        gray = to_grayscale(solid_frame(14, 14, (255, 255, 255)))
        assert (gray == 1.0).all()

    def test_pure_red_is_exactly_0_299(self):
        gray = to_grayscale(solid_frame(14, 14, (255, 0, 0)))
        assert (gray == 0.299).all()

    def test_black_is_zero(self):
        gray = to_grayscale(solid_frame(14, 14, (0, 0, 0)))
        assert (gray == 0.0).all()

    def test_bounded_for_random_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pixels = rng.integers(0, 256, size=(28, 28, 3), dtype=np.uint8)
            values = to_grayscale(FrameObservation(pixels=pixels, timestep=0))
            assert values.min() >= 0.0 and values.max() <= 1.0

    def test_monotone_in_each_channel(self):
        rng = np.random.default_rng(2)
        pixels = rng.integers(0, 255, size=(28, 28, 3), dtype=np.uint8)
        base = to_grayscale(FrameObservation(pixels=pixels, timestep=0))
        for channel in range(3):
            bumped = pixels.copy()
            bumped[:, :, channel] += 1
            higher = to_grayscale(FrameObservation(pixels=bumped, timestep=0))
            assert (higher > base).all()

    def test_patchwise_equals_whole(self):
        rng = np.random.default_rng(3)
        pixels = rng.integers(0, 256, size=(28, 42, 3), dtype=np.uint8)
        frame = FrameObservation(pixels=pixels, timestep=0)
        whole = to_grayscale(frame)
        grid = PatchGrid.for_frame(frame)
        for i in range(grid.patch_count):
            u0, v0, u1, v1 = grid.patch_region(i)
            piece = FrameObservation(pixels=pixels[u0 : u1 + 1, v0 : v1 + 1], timestep=0)
            assert np.array_equal(to_grayscale(piece), whole[u0 : u1 + 1, v0 : v1 + 1])



def float64_grayscale(pixels):
    """The float64 formula: weighted sum of the float64 channels, then one
    division."""
    return pixels.astype(np.float64) @ np.array([299.0, 587.0, 114.0]) / 255000.0


class TestGrayscaleLayouts:
    def test_one_plane_viewed_as_three_channels(self):
        plane = (np.arange(14 * 28) % 256).astype(np.uint8).reshape(14, 28)
        view = np.broadcast_to(plane[..., None], (14, 28, 3))
        assert view.strides[2] == 0
        got = to_grayscale(FrameObservation(pixels=view, timestep=0))
        assert np.array_equal(got, float64_grayscale(np.ascontiguousarray(view)))
        assert np.array_equal(got, plane / 255.0)

    def test_strided_pixels(self):
        rng = np.random.default_rng(4)
        wide = rng.integers(0, 256, size=(28, 84, 3), dtype=np.uint8)
        pixels = wide[:, ::2]
        got = to_grayscale(FrameObservation(pixels=pixels, timestep=0))
        assert np.array_equal(got, float64_grayscale(pixels))


class TestPatchGrid:
    def test_first_patch(self):
        grid = PatchGrid.from_dims(224, 224)
        assert grid.patch_region(0) == (0, 0, 13, 13)

    def test_patch_cols_starts_second_row_band(self):
        grid = PatchGrid.from_dims(224, 224)
        assert grid.cols == 16
        assert grid.patch_region(16) == (14, 0, 27, 13)

    def test_last_patch(self):
        grid = PatchGrid.from_dims(224, 224)
        assert grid.patch_region(255) == (210, 210, 223, 223)

    def test_out_of_range(self):
        grid = PatchGrid.from_dims(28, 28)
        with pytest.raises(IndexError):
            grid.patch_region(4)
        with pytest.raises(IndexError):
            grid.patch_region(-1)

    def test_unbound_call_matches_bound(self):
        grid = PatchGrid.from_dims(28, 28)
        assert PatchGrid.patch_region(grid, 3) == grid.patch_region(3) == (14, 14, 27, 27)

    def test_regions_partition_every_pixel_exactly_once(self):
        grid = PatchGrid.from_dims(70, 42)
        counts = np.zeros((42, 70), dtype=int)
        for i in range(grid.patch_count):
            u0, v0, u1, v1 = grid.patch_region(i)
            counts[u0 : u1 + 1, v0 : v1 + 1] += 1
        assert (counts == 1).all()


class TestFrameValidation:
    def test_negative_timestep_rejected(self):
        with pytest.raises(ValueError):
            solid_frame(14, 14, (0, 0, 0), timestep=-1)

    def test_bad_shape_rejected(self):
        with pytest.raises(FrameError):
            FrameObservation(pixels=np.zeros((14, 15, 3), dtype=np.uint8), timestep=0)


class TestReadPgm:
    def test_round_trip(self, tmp_path):
        values = np.arange(12, dtype=np.uint8).reshape(3, 4)
        write_pgm(tmp_path / "m.pgm", values)
        assert np.array_equal(read_pgm(tmp_path / "m.pgm"), values)

    def test_extra_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_pgm(path, np.ones((2, 2), dtype=np.uint8))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FrameError, match="m.pgm: header declares 4 pixel bytes, found 5") as info:
            read_pgm(path)
        assert info.value.code == "bad-dimensions"

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(3))
        with pytest.raises(FrameError, match="expected 4 pixel bytes, found 3") as info:
            read_pgm(path)
        assert info.value.code == "truncated-data"


class TestNumberedFiles:
    def test_members_by_index(self, tmp_path):
        for name in ("frame_000000.ppm", "frame_000012.ppm", "frame_1234567.ppm"):
            (tmp_path / name).touch()
        assert numbered_files(tmp_path, "frame_{:06d}.ppm") == {
            0: "frame_000000.ppm",
            12: "frame_000012.ppm",
            1234567: "frame_1234567.ppm",
        }

    @pytest.mark.parametrize(
        "name",
        [
            "frame_00001.ppm",  # five digits
            "frame_0000001.ppm",  # a leading zero past six digits
            "frame_000001.ppm.bak",
            "xframe_000001.ppm",
            "frame_000001.pgm",
            "frame_+00001.ppm",
            "frame_-00001.ppm",
            "frame_ 00001.ppm",
            "frame_00000\u0661.ppm",  # a non-ASCII decimal digit
            "frame_00000\u00b2.ppm",  # a digit int() does not read
            "frame_.ppm",
            "000001",
        ],
    )
    def test_other_names_ignored(self, tmp_path, name):
        (tmp_path / name).touch()
        (tmp_path / "frame_000002.ppm").touch()
        assert numbered_files(tmp_path, "frame_{:06d}.ppm") == {2: "frame_000002.ppm"}
