import numpy as np
import pytest

from ttfusion.frames import PatchGrid
from ttfusion.synthetic import (
    SynthSpec,
    base_image,
    generate_frames,
    iter_frames,
    walker_patch,
    write_sequence,
)


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestGeneration:
    def test_static_spec_gives_identical_frames(self):
        frames = generate_frames(SynthSpec(frame_count=5, width=28, height=28))
        for frame in frames[1:]:
            assert np.array_equal(frame.pixels, frames[0].pixels)

    def test_frames_are_generated_one_at_a_time(self):
        spec = SynthSpec(
            frame_count=5, width=28, height=28, change_fraction=0.3, walker=True,
            noise_amplitude=0.1, seed=4,
        )
        stream = iter_frames(spec)
        first = next(stream)
        frames = generate_frames(spec)
        assert first.timestep == 0 and np.array_equal(first.pixels, frames[0].pixels)
        for a, b in zip(stream, frames[1:], strict=True):
            assert a.timestep == b.timestep and np.array_equal(a.pixels, b.pixels)

    def test_timesteps_are_contiguous(self):
        frames = generate_frames(SynthSpec(frame_count=4, width=28, height=28))
        assert [f.timestep for f in frames] == [0, 1, 2, 3]

    def test_reproducible_from_spec_and_seed(self):
        spec = SynthSpec(
            frame_count=6, width=28, height=28, change_fraction=0.3, walker=True,
            noise_amplitude=0.1, seed=21,
        )
        first = generate_frames(spec)
        second = generate_frames(spec)
        for a, b in zip(first, second):
            assert np.array_equal(a.pixels, b.pixels)

    def test_different_seeds_differ(self):
        kwargs = dict(frame_count=3, width=28, height=28, noise_amplitude=0.1)
        a = generate_frames(SynthSpec(seed=1, **kwargs))
        b = generate_frames(SynthSpec(seed=2, **kwargs))
        assert not np.array_equal(a[0].pixels, b[0].pixels)

    def test_noise_only_raises_pixel_values_within_amplitude(self):
        spec = SynthSpec(frame_count=2, width=28, height=28, noise_amplitude=0.1, seed=3)
        base = base_image(spec)
        frame = generate_frames(spec)[0]
        delta = frame.pixels.astype(int) - base.astype(int)
        assert delta.min() >= 0
        assert delta.max() <= round(0.1 * 255)
        # Noise is luminance-only: all channels move together.
        assert np.array_equal(delta[:, :, 0], delta[:, :, 1])

    def test_change_fraction_repaints_expected_patch_count(self):
        spec = SynthSpec(frame_count=4, width=28, height=28, change_fraction=0.5, seed=4)
        base = base_image(spec)
        grid = spec.grid
        frames = generate_frames(spec)
        assert np.array_equal(frames[0].pixels, base)  # first frame untouched
        for frame in frames[1:]:
            differing = 0
            for i in range(grid.patch_count):
                u0, v0, u1, v1 = grid.patch_region(i)
                if not np.array_equal(
                    frame.pixels[u0 : u1 + 1, v0 : v1 + 1], base[u0 : u1 + 1, v0 : v1 + 1]
                ):
                    differing += 1
            assert differing == 2  # round(0.5 * 4)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(frame_count=0)
        with pytest.raises(ValueError):
            SynthSpec(width=225)
        with pytest.raises(ValueError):
            SynthSpec(change_fraction=1.5)
        with pytest.raises(ValueError):
            SynthSpec(noise_amplitude=-0.1)


class TestWalker:
    def test_one_aligned_bright_square_per_frame(self):
        spec = SynthSpec(frame_count=6, width=56, height=28, walker=True)
        grid = spec.grid
        for frame in generate_frames(spec):
            bright = np.nonzero((frame.pixels == 255).all(axis=2))
            assert bright[0].size == 14 * 14
            expected = grid.patch_region(walker_patch(grid, frame.timestep))
            assert (bright[0].min(), bright[1].min()) == (expected[0], expected[1])
            assert (bright[0].max(), bright[1].max()) == (expected[2], expected[3])

    def test_walker_advances_one_patch_per_frame(self):
        grid = PatchGrid.from_dims(56, 28)
        positions = [walker_patch(grid, t) for t in range(10)]
        assert positions == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_frames_differ_exactly_at_entered_and_left_patches(self):
        spec = SynthSpec(frame_count=5, width=56, height=28, walker=True)
        grid = spec.grid
        frames = generate_frames(spec)
        for t in range(1, 5):
            changed = set()
            for i in range(grid.patch_count):
                u0, v0, u1, v1 = grid.patch_region(i)
                if not np.array_equal(
                    frames[t].pixels[u0 : u1 + 1, v0 : v1 + 1],
                    frames[t - 1].pixels[u0 : u1 + 1, v0 : v1 + 1],
                ):
                    changed.add(i)
            assert changed == {walker_patch(grid, t - 1), walker_patch(grid, t)}


class TestWriteSequence:
    def test_writes_zero_padded_names(self, tmp_path):
        paths = write_sequence(SynthSpec(frame_count=3, width=28, height=28), tmp_path)
        assert [p.split("/")[-1] for p in paths] == [
            "frame_000000.ppm",
            "frame_000001.ppm",
            "frame_000002.ppm",
        ]

    def test_same_spec_twice_is_byte_identical(self, tmp_path):
        spec = SynthSpec(
            frame_count=4, width=28, height=28, change_fraction=0.25, walker=True,
            noise_amplitude=0.05, seed=11,
        )
        write_sequence(spec, tmp_path / "a")
        write_sequence(spec, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")
