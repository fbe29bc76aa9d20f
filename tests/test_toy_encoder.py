import numpy as np
import pytest

import ttfusion.toy_encoder
from ttfusion.detection import ACTION_TO_VISION, TEXT_TO_VISION
from ttfusion.experiment import TensorFileAttentionEncoder
from ttfusion.fusion import SharedObservation
from ttfusion.frames import (
    PATCH_PIXELS,
    PATCH_SIDE,
    FrameObservation,
    PatchGrid,
    to_grayscale,
)
from ttfusion.projection import CHUNK_ROWS, project_full
from ttfusion.synthetic import SynthSpec, generate_frames
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder, synth_attention


def encode(frame, spec, gray=None):
    """The frame's (N, d) tokens, every row encoded in one call."""
    encoder = ToyEncoder(spec)
    return encoder.tokens(encoder.features(frame, gray), None)


def frame_from_gray_levels(levels, width=28, height=28, timestep=0):
    """Frame whose four patches have the given uniform 8-bit levels."""
    grid = PatchGrid.from_dims(width, height)
    pixels = np.zeros((height, width, 3), dtype=np.uint8)
    for i, level in enumerate(levels):
        u0, v0, u1, v1 = grid.patch_region(i)
        pixels[u0 : u1 + 1, v0 : v1 + 1, :] = level
    return FrameObservation(pixels=pixels, timestep=timestep)


SPEC = EncoderSpec(token_dim=16, seed=99, text_token_count=3, head_count=2)


# Reference path: the block matrix copied out of the grayscale and then
# concatenated with the positions, as the encoder built its features before
# it wrote them into one matrix.  Tokens and attention must stay bit-equal.
def _reference_blocks(frame, gray):
    grid = PatchGrid.for_frame(frame)
    if gray is None:
        gray = to_grayscale(frame)
    return (
        gray.reshape(grid.rows, PATCH_SIDE, grid.cols, PATCH_SIDE)
        .transpose(0, 2, 1, 3)
        .reshape(grid.patch_count, PATCH_PIXELS)
    )


def reference_encode(frame, spec, gray=None):
    grid = PatchGrid.for_frame(frame)
    patches = _reference_blocks(frame, gray)
    rows, cols = np.divmod(np.arange(grid.patch_count), grid.cols)
    position = np.stack([rows / grid.rows, cols / grid.cols], axis=1)
    # Through project_full, as the encoder does: a plain ``@`` over fewer
    # than 32 rows sums in another order under some BLAS kernels (Nehalem).
    return project_full(np.concatenate([patches, position], axis=1), spec.projection())


def _reference_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    return weights / weights.sum(axis=-1, keepdims=True)


def reference_attention(frame, spec, gray=None):
    grid = PatchGrid.for_frame(frame)
    blocks = _reference_blocks(frame, gray)
    luminance = blocks.mean(axis=1)
    contrast = blocks.max(axis=1) - blocks.min(axis=1)
    heads = np.arange(spec.head_count)[:, None, None]
    tokens = np.arange(spec.text_token_count)[None, :, None]
    text_logits = luminance[None, None, :] * (1.0 + 0.1 * heads) + 0.05 * tokens
    action_row = _reference_softmax(contrast)
    return (
        _reference_softmax(text_logits),
        np.broadcast_to(action_row, (spec.head_count, grid.patch_count)),
    )


class TestEncode:
    def test_same_frame_twice_is_bit_identical(self):
        frame = frame_from_gray_levels([10, 80, 160, 250])
        assert np.array_equal(encode(frame, SPEC), encode(frame, SPEC))

    def test_projection_reproducible_from_seed(self):
        again = EncoderSpec(token_dim=16, seed=99, text_token_count=3, head_count=2)
        assert np.array_equal(SPEC.projection(), again.projection())
        other = EncoderSpec(token_dim=16, seed=100, text_token_count=3, head_count=2)
        assert not np.array_equal(SPEC.projection(), other.projection())

    def test_locality_single_patch_change_touches_one_row(self):
        a = frame_from_gray_levels([10, 80, 160, 250])
        pixels = a.pixels.copy()
        grid = PatchGrid.for_frame(a)
        u0, v0, u1, v1 = grid.patch_region(2)
        pixels[u0 + 3, v0 + 4] = (200, 100, 50)
        b = FrameObservation(pixels=pixels, timestep=0)
        rows_equal = (encode(a, SPEC) == encode(b, SPEC)).all(axis=1)
        assert list(rows_equal) == [True, True, False, True]

    def test_all_black_rows_come_from_position_features(self):
        frame = frame_from_gray_levels([0, 0, 0, 0])
        tokens = encode(frame, SPEC)
        projection = SPEC.projection()
        for i, (row, col) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
            expected = (row / 2) * projection[196] + (col / 2) * projection[197]
            assert np.allclose(tokens[i], expected, rtol=0.0, atol=1e-12)
        assert not np.array_equal(tokens[0], tokens[1])

    def test_one_pixel_perturbation_is_lipschitz_bounded(self):
        frame = frame_from_gray_levels([100, 100, 100, 100])
        pixels = frame.pixels.copy()
        pixels[0, 0, 1] += 1  # one channel, one step
        bumped = FrameObservation(pixels=pixels, timestep=0)
        delta = np.abs(encode(bumped, SPEC) - encode(frame, SPEC))
        bound = np.abs(SPEC.projection()).max() * (1.0 / 255.0)
        assert delta.max() <= bound + 1e-12

    def test_token_dim_matches_spec(self):
        frame = frame_from_gray_levels([5, 5, 5, 5])
        tokens = encode(frame, SPEC)
        assert tokens.shape == (4, 16)


class TestSynthAttention:
    def test_uniform_frame_gives_uniform_text_rows(self):
        frame = frame_from_gray_levels([77, 77, 77, 77])
        slice_ = synth_attention(frame, SPEC)
        assert np.allclose(slice_.text_rows, 0.25, rtol=0.0, atol=1e-12)

    def test_bright_patch_gets_max_text_weight(self):
        frame = frame_from_gray_levels([30, 30, 220, 30])
        slice_ = synth_attention(frame, SPEC)
        assert (slice_.text_rows.argmax(axis=-1) == 2).all()

    def test_hand_computed_softmax(self):
        frame = frame_from_gray_levels([0, 0, 0, 255])
        slice_ = synth_attention(
            frame, EncoderSpec(token_dim=8, seed=0, text_token_count=1, head_count=1)
        )
        logits = np.array([0.0, 0.0, 0.0, 1.0])
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.allclose(slice_.text_rows[0, 0], expected, rtol=0.0, atol=1e-12)
        assert np.allclose(
            slice_.text_rows[0, 0], [0.1749, 0.1749, 0.1749, 0.4754], rtol=0.0, atol=5e-5
        )

    def test_rows_are_distributions(self):
        frame = frame_from_gray_levels([10, 90, 170, 250])
        slice_ = synth_attention(frame, SPEC)
        assert slice_.text_rows.min() >= 0.0
        assert np.abs(slice_.text_rows.sum(axis=-1) - 1.0).max() <= 1e-9
        assert np.abs(slice_.action_row.sum(axis=-1) - 1.0).max() <= 1e-9

    def test_action_row_tracks_contrast(self):
        grid = PatchGrid.from_dims(28, 28)
        pixels = np.full((28, 28, 3), 128, dtype=np.uint8)
        u0, v0, u1, v1 = grid.patch_region(1)
        pixels[u0 : u1 + 1, v0 : v1 + 1][::2, ::2] = 255  # checkerboard: high contrast
        frame = FrameObservation(pixels=pixels, timestep=0)
        slice_ = synth_attention(frame, SPEC)
        assert (slice_.action_row.argmax(axis=-1) == 1).all()

    def test_source_timestep_recorded(self):
        frame = frame_from_gray_levels([1, 2, 3, 4], timestep=9)
        assert synth_attention(frame, SPEC).source_timestep == 9

    def test_locality_unchanged_patches_keep_their_weight_ratios(self):
        # Editing patch 1 moves only patch 1's logit; softmax renormalizes,
        # so the ratio between any two untouched patches must not move.
        a = frame_from_gray_levels([40, 90, 150, 210])
        b = frame_from_gray_levels([40, 200, 150, 210])
        rows_a = synth_attention(a, SPEC).text_rows
        rows_b = synth_attention(b, SPEC).text_rows
        ratios_a = rows_a[..., 2] / rows_a[..., 3]
        ratios_b = rows_b[..., 2] / rows_b[..., 3]
        assert np.allclose(ratios_a, ratios_b, rtol=1e-12, atol=0.0)
        assert not np.allclose(rows_a[..., 1], rows_b[..., 1], rtol=1e-3, atol=0.0)

    def test_head_and_token_counts(self):
        frame = frame_from_gray_levels([1, 2, 3, 4])
        slice_ = synth_attention(frame, SPEC)
        assert slice_.text_rows.shape == (2, 3, 4)
        assert slice_.action_row.shape == (2, 4)


class TestMatchesReferencePath:
    @pytest.mark.parametrize("width,height", [(28, 28), (224, 224), (42, 28)])
    @pytest.mark.parametrize("given_gray", [False, True])
    def test_tokens_and_attention_are_bit_equal(self, width, height, given_gray):
        spec = EncoderSpec(token_dim=24, seed=5, text_token_count=4, head_count=3)
        frames = generate_frames(
            SynthSpec(
                frame_count=3, width=width, height=height, change_fraction=0.3,
                walker=True, noise_amplitude=0.2, seed=8,
            )
        )
        encoder = ToyEncoder(spec)
        for frame in frames:
            gray = to_grayscale(frame) if given_gray else None
            want_tokens = reference_encode(frame, spec, gray)
            want_text, want_action = reference_attention(frame, spec, gray)
            features = encoder.features(frame, gray)
            text = encoder.attention(frame, features, TEXT_TO_VISION)
            action = encoder.attention(frame, features, ACTION_TO_VISION)
            assert text.action_row is None and action.text_rows is None
            synth = synth_attention(frame, spec, gray)
            for tokens, text_rows, action_row in (
                (encoder.tokens(features, None), text.text_rows, action.action_row),
                (encode(frame, spec, gray), synth.text_rows, synth.action_row),
            ):
                assert tokens.tobytes() == want_tokens.tobytes()
                assert text_rows.tobytes() == want_text.tobytes()
                assert action_row.tobytes() == want_action.tobytes()
            for attention in (text, action, synth):
                assert attention.source_timestep == frame.timestep

    def test_one_call_builds_the_patch_layout_once(self, monkeypatch):
        calls = {"features": 0, "grayscale": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        module = ttfusion.toy_encoder
        monkeypatch.setattr(module, "_patch_features", counted("features", module._patch_features))
        monkeypatch.setattr(module, "to_grayscale", counted("grayscale", module.to_grayscale))
        monkeypatch.setattr(ttfusion.fusion, "to_luma", counted("grayscale", ttfusion.fusion.to_luma))
        frame = frame_from_gray_levels([10, 80, 160, 250])
        ToyEncoder(SPEC).features(frame)
        assert calls == {"features": 1, "grayscale": 1}
        ToyEncoder(SPEC).features(frame, to_grayscale(frame))
        assert calls == {"features": 2, "grayscale": 1}
        # The fusion loop's observation of a frame builds one layout for
        # its tokens, in any number of row sets, and both attention kinds.
        shared = SharedObservation(frame, ToyEncoder(SPEC))
        shared.tokens(np.array([1, 3]))
        shared.scores(TEXT_TO_VISION)
        shared.scores(ACTION_TO_VISION)
        shared.tokens(None)
        assert calls == {"features": 3, "grayscale": 2}


def encoder_of(kind, spec, tmp_path):
    if kind == "toy":
        return ToyEncoder(spec)
    return TensorFileAttentionEncoder(spec=spec, attention_dir=str(tmp_path), mode=TEXT_TO_VISION)


class TestRowSubsets:
    """Any set of token rows equals the same rows of the full encode, bit
    for bit, so the fusion loop may encode only the rows it recomputes."""

    @pytest.mark.parametrize("kind", ["toy", "tensor_files"])
    @pytest.mark.parametrize("token_dim", [8, 64])
    @pytest.mark.parametrize("size", [224, 448])
    def test_subsets_equal_full_rows(self, size, token_dim, kind, tmp_path):
        spec = EncoderSpec(token_dim=token_dim, seed=13)
        encoder = encoder_of(kind, spec, tmp_path)
        frame = generate_frames(
            SynthSpec(frame_count=2, width=size, height=size, change_fraction=0.3,
                      walker=True, noise_amplitude=0.2, seed=4)
        )[1]
        features = encoder.features(frame, None)
        full = encoder.tokens(features, None)
        n = len(full)
        assert full.tobytes() == encode(frame, spec).tobytes()
        rng = np.random.default_rng(size + token_dim)
        # Every row lands at every position of a 32-row chunk: a suffix
        # from each offset, a stride-7 subset from it, and a random subset.
        for offset in range(CHUNK_ROWS):
            for rows in (
                np.arange(offset, n),
                np.arange(offset, n, 7),
                np.flatnonzero(rng.random(n) < 0.5),
                np.array([offset]),
            ):
                got = encoder.tokens(features, rows)
                assert got.shape == (len(rows), token_dim)
                assert got.tobytes() == full[rows].tobytes()


class TestToyEncoder:
    def test_methods_return_tokens_and_attention(self):
        encoder = ToyEncoder(SPEC)
        frame = frame_from_gray_levels([9, 9, 9, 9])
        features = encoder.features(frame)
        assert encoder.tokens(features, None).shape == (4, 16)
        assert encoder.tokens(features, np.array([2])).shape == (1, 16)
        assert encoder.attention(frame, features, TEXT_TO_VISION).text_rows.shape[0] == 2

    def test_given_grayscale_matches_computed_one(self):
        frame = frame_from_gray_levels([10, 80, 160, 250])
        encoder = ToyEncoder(SPEC)
        features = encoder.features(frame, to_grayscale(frame)).copy()
        assert np.array_equal(features, encoder.features(frame))
        assert np.array_equal(encoder.tokens(features, None), encode(frame, SPEC))
        text = encoder.attention(frame, features, TEXT_TO_VISION)
        action = encoder.attention(frame, features, ACTION_TO_VISION)
        assert np.array_equal(text.text_rows, synth_attention(frame, SPEC).text_rows)
        assert np.array_equal(action.action_row, synth_attention(frame, SPEC).action_row)

    def test_feature_matrix_is_kept_per_grid(self):
        # Each frame's features are written over the last frame's of the
        # same grid, and equal a new encoder's.
        encoder = ToyEncoder(SPEC)
        frames = generate_frames(
            SynthSpec(frame_count=3, width=42, height=28, walker=True, noise_amplitude=0.2)
        )
        first = encoder.features(frames[0])
        for frame in frames[1:]:
            assert encoder.features(frame) is first
            assert first.tobytes() == ToyEncoder(SPEC).features(frame).tobytes()
        other = frame_from_gray_levels([1, 2, 3, 4, 5, 6], width=28, height=42)
        features = encoder.features(other)
        assert features is not first
        assert features.tobytes() == ToyEncoder(SPEC).features(other).tobytes()

    def test_unknown_attention_mode_rejected(self):
        frame = frame_from_gray_levels([10, 80, 160, 250])
        encoder = ToyEncoder(SPEC)
        with pytest.raises(ValueError, match="unknown attention mode"):
            encoder.attention(frame, encoder.features(frame), "both")

    def test_grayscale_of_other_shape_rejected(self):
        frame = frame_from_gray_levels([10, 80, 160, 250])
        wrong = np.zeros((14, 56))
        with pytest.raises(ValueError, match="grayscale is"):
            encode(frame, SPEC, wrong)
        with pytest.raises(ValueError, match="grayscale is"):
            synth_attention(frame, SPEC, wrong)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EncoderSpec(token_dim=0)
        with pytest.raises(ValueError):
            EncoderSpec(text_token_count=0)
        with pytest.raises(ValueError):
            EncoderSpec(head_count=0)
