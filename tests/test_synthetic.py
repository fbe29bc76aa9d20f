import numpy as np
import pytest

import ttfusion.synthetic
from ttfusion.frames import FrameObservation, PatchGrid
from ttfusion.prng import SplitMix64
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


# Reference generator: the scalar three-channel version that the one-plane
# generator replaced.  Frames must stay byte-equal to it.
def _reference_choose_patches(stream, n, count):
    indices = np.arange(n)
    for j in range(count):
        r = j + int(stream.next_float() * (n - j))
        indices[j], indices[r] = indices[r], indices[j]
    return indices[:count]


def _reference_add_noise(img, draws, amplitude):
    draws *= amplitude
    draws *= 255.0
    delta = np.round(draws, out=draws).astype(np.int16).reshape(img.shape[:2])
    noisy = img.astype(np.int16)
    noisy += delta[:, :, None]
    img[...] = np.clip(noisy, 0, 255, out=noisy)


def reference_iter_frames(spec, stream_type=SplitMix64):
    grid = spec.grid
    n = grid.patch_count
    base = base_image(spec)
    stream = stream_type(spec.seed)
    changed = min(n, int(round(spec.change_fraction * n)))
    for t in range(spec.frame_count):
        img = base.copy()
        if changed and t > 0:
            for index in _reference_choose_patches(stream, n, changed):
                u0, v0, u1, v1 = grid.patch_region(int(index))
                level = min(int(stream.next_float() * 256), 255)
                img[u0 : u1 + 1, v0 : v1 + 1, :] = level
        if spec.walker:
            u0, v0, u1, v1 = grid.patch_region(walker_patch(grid, t))
            img[u0 : u1 + 1, v0 : v1 + 1, :] = 255
        if spec.noise_amplitude > 0.0:
            _reference_add_noise(
                img, stream.float_block(spec.height * spec.width), spec.noise_amplitude
            )
        yield FrameObservation(pixels=img, timestep=t)


class CountingStream(SplitMix64):
    """A splitmix64 stream that counts the outputs drawn from it."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = 0

    def next_u64(self):
        self.drawn += 1
        return super().next_u64()

    def u64_block(self, count):
        self.drawn += count
        return super().u64_block(count)


def draws_per_frame(frames, streams):
    """Outputs drawn for each frame of ``frames``, read from the one stream
    the generator creates (appended to ``streams``)."""
    counts, before = [], 0
    for _ in frames:
        (stream,) = streams
        counts.append(stream.drawn - before)
        before = stream.drawn
    return counts


# The last size spans two noise bands, the second one partial.
PIN_SIZES = [(42, 28, 2**64 - 1), (70, 56, 7), (224, 98, 11)]


class TestMatchesReferenceGenerator:
    @pytest.mark.parametrize("noise", [0.0, 0.02, 1.0])
    @pytest.mark.parametrize("change", [0.0, 0.05, 1.0])
    @pytest.mark.parametrize("walker", [False, True])
    @pytest.mark.parametrize("width,height,seed", PIN_SIZES)
    def test_frames_are_byte_equal(self, noise, change, walker, width, height, seed):
        spec = SynthSpec(
            frame_count=4, width=width, height=height, change_fraction=change,
            walker=walker, noise_amplitude=noise, seed=seed,
        )
        for got, want in zip(iter_frames(spec), reference_iter_frames(spec), strict=True):
            assert got.timestep == want.timestep
            assert got.pixels.shape == want.pixels.shape
            assert got.pixels.tobytes() == want.pixels.tobytes()

    @pytest.mark.parametrize("width,height,seed", PIN_SIZES)
    def test_stream_advances_by_the_same_draws_per_frame(
        self, monkeypatch, width, height, seed
    ):
        spec = SynthSpec(
            frame_count=4, width=width, height=height, change_fraction=0.5,
            walker=True, noise_amplitude=0.3, seed=seed,
        )
        streams = []

        def counting(seed):
            streams.append(CountingStream(seed))
            return streams[-1]

        monkeypatch.setattr(ttfusion.synthetic, "SplitMix64", counting)
        got = draws_per_frame(iter_frames(spec), streams)
        streams.clear()
        want = draws_per_frame(reference_iter_frames(spec, counting), streams)
        changed = round(0.5 * spec.grid.patch_count)
        assert want == [width * height] + [2 * changed + width * height] * 3
        assert got == want

    @pytest.mark.parametrize("band", [1, 100, 42 * 28 - 1, 42 * 28 + 1])
    def test_band_size_does_not_change_the_bytes(self, monkeypatch, band):
        spec = SynthSpec(
            frame_count=3, width=42, height=28, change_fraction=0.5, walker=True,
            noise_amplitude=0.4, seed=9,
        )
        want = [f.pixels.tobytes() for f in reference_iter_frames(spec)]
        monkeypatch.setattr(ttfusion.synthetic, "NOISE_BAND_PIXELS", band)
        assert [f.pixels.tobytes() for f in iter_frames(spec)] == want


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
