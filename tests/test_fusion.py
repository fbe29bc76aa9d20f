import numpy as np
import pytest

import ttfusion.detection
import ttfusion.fusion
import ttfusion.toy_encoder
from ttfusion.detection import AttentionSlice
from ttfusion.frames import FrameObservation, to_grayscale
from ttfusion.fusion import (
    FusionConfig,
    FusionState,
    TokenMatrix,
    combine_masks,
    fuse_tokens,
    is_keyframe,
    lockstep,
    SharedObservation,
    step,
)
from ttfusion.synthetic import SynthSpec, generate_frames
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder


def small_config(**overrides):
    defaults = dict(width=28, height=28, token_dim=8, top_k=2)
    defaults.update(overrides)
    return FusionConfig(**defaults)


def small_frames(count, **synth):
    spec = SynthSpec(frame_count=count, width=28, height=28, **synth)
    return generate_frames(spec)


def small_encoder(seed=0):
    return ToyEncoder(EncoderSpec(token_dim=8, seed=seed, text_token_count=2, head_count=2))


def run_steps(frames, encoder, config):
    """One config's steps over the frames, from ``lockstep``."""
    return [result for [result] in lockstep(frames, encoder, [config])]


def rates_of(steps):
    return [s.fusion_rate for s in steps]


class StubEncoder:
    """Fixed tokens per timestep; attention slice optional."""

    def __init__(self, tokens_by_step, attention=None):
        self.tokens_by_step = tokens_by_step
        self.attention = attention

    def __call__(self, frame, gray):
        return TokenMatrix(self.tokens_by_step[frame.timestep]), self.attention


class TestIsKeyframe:
    def test_first_step_with_empty_state(self):
        assert is_keyframe(0, FusionState(), 3)

    def test_multiple_of_interval(self):
        state = FusionState(prev_tokens=TokenMatrix(np.zeros((4, 8))), timestep=3)
        assert is_keyframe(3, state, 3)

    def test_interior_step_with_history(self):
        state = FusionState(prev_tokens=TokenMatrix(np.zeros((4, 8))), timestep=4)
        assert not is_keyframe(4, state, 3)

    def test_empty_history_forces_keyframe_anywhere(self):
        state = FusionState(timestep=4)
        assert is_keyframe(4, state, 3)

    def test_timestep_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_keyframe(2, FusionState(), 3)


class TestCombineMasks:
    def test_logical_or_per_patch(self):
        pixel = np.array([0, 0, 1, 1], dtype=np.uint8)
        attention = np.array([1, 0, 0, 1], dtype=np.uint8)
        assert list(combine_masks(pixel, attention)) == [1, 0, 1, 1]

    def test_all_ones_gives_all_ones(self):
        ones = np.ones(4, dtype=np.uint8)
        assert combine_masks(ones, ones).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_masks(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8))


class TestFuseTokens:
    def test_all_ones_returns_current(self):
        current = TokenMatrix(np.arange(8.0).reshape(2, 4))
        previous = TokenMatrix(np.arange(8.0, 16.0).reshape(2, 4))
        fused = fuse_tokens(current, previous, np.array([1, 1]))
        assert np.array_equal(fused.values, current.values)

    def test_all_zeros_returns_previous(self):
        current = TokenMatrix(np.arange(8.0).reshape(2, 4))
        previous = TokenMatrix(np.arange(8.0, 16.0).reshape(2, 4))
        fused = fuse_tokens(current, previous, np.array([0, 0]))
        assert np.array_equal(fused.values, previous.values)

    def test_row_splice(self):
        current = TokenMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        previous = TokenMatrix(np.array([[5.0, 6.0], [7.0, 8.0]]))
        fused = fuse_tokens(current, previous, np.array([1, 0]))
        assert np.array_equal(fused.values, [[1.0, 2.0], [7.0, 8.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse_tokens(
                TokenMatrix(np.zeros((2, 4))), TokenMatrix(np.zeros((3, 4))), np.array([1, 0])
            )
        with pytest.raises(ValueError):
            fuse_tokens(
                TokenMatrix(np.zeros((2, 4))), TokenMatrix(np.zeros((2, 4))), np.array([1, 0, 1])
            )

    def test_rows_are_exact_copies(self):
        rng = np.random.default_rng(4)
        current = TokenMatrix(rng.standard_normal((16, 8)))
        previous = TokenMatrix(rng.standard_normal((16, 8)))
        mask = rng.integers(0, 2, size=16).astype(np.uint8)
        fused = fuse_tokens(current, previous, mask)
        for i in range(16):
            source = current if mask[i] else previous
            assert np.array_equal(fused.values[i], source.values[i])


class TestStep:
    def test_first_step_is_keyframe_with_rate_zero(self):
        frames = small_frames(1)
        result, state = step(FusionState(), frames[0], small_encoder(), small_config())
        assert result.is_keyframe
        assert result.fusion_rate == 0.0
        assert result.pixel_mask.all() and result.attention_mask.all()
        assert state.timestep == 1
        assert state.prev_tokens is result.fused_tokens
        assert state.prev_attention is not None

    def test_static_frames_reuse_everything_when_detection_off(self):
        frames = small_frames(2)
        config = small_config(
            keyframe_interval=100, enable_pixel=False, enable_attention=False
        )
        encoder = small_encoder()
        result0, state = step(FusionState(), frames[0], encoder, config)
        result1, _ = step(state, frames[1], encoder, config)
        assert not result1.is_keyframe
        assert result1.fusion_rate == 1.0
        assert np.array_equal(result1.fused_tokens.values, result0.fused_tokens.values)

    def test_static_frames_attention_budget_sets_rate(self):
        # Identical frames: no pixel updates, exactly top_k attention updates.
        frames = small_frames(3)
        config = small_config(keyframe_interval=100, top_k=3)
        encoder = small_encoder()
        state = FusionState()
        results = []
        for frame in frames:
            result, state = step(state, frame, encoder, config)
            results.append(result)
        for result in results[1:]:
            assert result.pixel_mask.sum() == 0
            assert result.attention_mask.sum() == 3
            assert result.fusion_rate == 1 / 4

    @staticmethod
    def non_keyframe_steps(config):
        """Steps 1..5 of a noisy walker episode, where both detectors flag
        some patches and leave others."""
        encoder = small_encoder()
        state, results = FusionState(), []
        for frame in small_frames(6, walker=True, noise_amplitude=0.05, seed=6):
            result, state = step(state, frame, encoder, config)
            results.append(result)
        return results[1:]

    def test_pixel_only_mode_fusion_mask_equals_pixel_mask(self):
        config = small_config(keyframe_interval=100, top_k=1, enable_attention=False)
        results = self.non_keyframe_steps(config)
        assert any(r.pixel_mask.any() for r in results)
        for result in results:
            assert not result.attention_mask.any()
            assert np.array_equal(result.fusion_mask, result.pixel_mask)

    def test_attention_only_mode_fusion_mask_equals_attention_mask(self, monkeypatch):
        config = small_config(keyframe_interval=100, top_k=1, enable_pixel=False)
        assert any(r.pixel_mask.any() for r in self.non_keyframe_steps(
            small_config(keyframe_interval=100, top_k=1)
        ))
        diff_calls = []
        original_diffs = ttfusion.detection.patch_diffs

        def counting_diffs(*args):
            diff_calls.append(1)
            return original_diffs(*args)

        monkeypatch.setattr(ttfusion.detection, "patch_diffs", counting_diffs)
        for result in self.non_keyframe_steps(config):
            assert not result.pixel_mask.any()
            assert result.attention_mask.sum() == 1
            assert np.array_equal(result.fusion_mask, result.attention_mask)
        # With the pixel dimension off no pixel diff is ever computed.
        assert diff_calls == []

    def test_missing_prev_attention_recomputes_everything(self):
        tokens = {0: np.zeros((4, 8)), 1: np.ones((4, 8))}
        encoder = StubEncoder(tokens, attention=None)
        config = small_config(keyframe_interval=100)
        _, state = step(FusionState(), small_frames(2)[0], encoder, config)
        assert state.prev_attention is None
        result, _ = step(state, small_frames(2)[1], encoder, config)
        assert result.attention_mask.all()
        assert result.fusion_rate == 0.0

    def test_rate_target_selection_mode(self):
        frames = small_frames(2)
        config = small_config(
            keyframe_interval=100,
            selection_mode="rate_target",
            target_reuse_rate=0.5,
            enable_pixel=False,
        )
        encoder = small_encoder()
        _, state = step(FusionState(), frames[0], encoder, config)
        result, _ = step(state, frames[1], encoder, config)
        assert result.attention_mask.sum() == 2  # ceil(0.5 * 4)
        assert result.fusion_rate == 0.5

    def test_timestep_mismatch_rejected(self):
        frames = small_frames(2)
        with pytest.raises(ValueError):
            step(FusionState(), frames[1], small_encoder(), small_config())

    def test_frame_dims_must_match_config(self):
        frame = small_frames(1)[0]
        with pytest.raises(ValueError):
            step(FusionState(), frame, small_encoder(), FusionConfig())

    def test_encoder_failure_propagates(self):
        def broken(frame, gray):
            raise RuntimeError("encoder down")

        with pytest.raises(RuntimeError, match="encoder down"):
            step(FusionState(), small_frames(1)[0], broken, small_config())

    def test_stale_attention_rejected(self):
        # Every step hands back attention from timestep 0; step 2 must not
        # select patches with it.
        stale = AttentionSlice(
            text_rows=np.full((2, 2, 4), 0.25), action_row=None, source_timestep=0
        )
        encoder = StubEncoder({t: np.zeros((4, 8)) for t in range(3)}, attention=stale)
        config = small_config(keyframe_interval=100)
        frames = small_frames(3)
        _, state = step(FusionState(), frames[0], encoder, config)
        _, state = step(state, frames[1], encoder, config)
        with pytest.raises(ValueError, match="stale attention"):
            step(state, frames[2], encoder, config)

    def test_diffs_recorded_on_non_keyframes(self):
        # The step thresholds the diffs its shared observation records.
        frames = small_frames(2, walker=True)
        config = small_config(keyframe_interval=100)
        encoder = small_encoder()
        _, state = step(FusionState(), frames[0], encoder, config)
        shared = SharedObservation(frames[1], encoder)
        result, _ = step(state, frames[1], encoder, config, shared=shared)
        diffs = shared.diffs(state.prev_gray, config.grid)
        assert diffs.shape == (4,)
        assert diffs.max() > 0.0
        assert np.array_equal(
            result.pixel_mask, ttfusion.detection.threshold_diffs(diffs, config.pixel_threshold)
        )

    def test_shared_observation_diffs_follow_each_previous_grayscale(self):
        # Two histories reach frame 1 with different previous grayscales;
        # one shared observation must give each the diffs of its own.
        frames = small_frames(2, walker=True)
        other = small_frames(1, walker=True, noise_amplitude=0.3, seed=5)[0]
        config = small_config(keyframe_interval=100)
        encoder = small_encoder()
        shared = SharedObservation(frames[1], encoder)
        for first in (frames[0], other):
            _, state = step(FusionState(), first, encoder, config)
            alone, _ = step(state, frames[1], encoder, config)
            together, _ = step(state, frames[1], encoder, config, shared=shared)
            expected = ttfusion.detection.patch_diffs(
                to_grayscale(frames[1]), state.prev_gray, config.grid
            )
            assert np.array_equal(shared.diffs(state.prev_gray, config.grid), expected)
            assert np.array_equal(together.pixel_mask, alone.pixel_mask)
        with pytest.raises(ValueError, match="another frame"):
            step(state, small_frames(2, seed=7)[1], encoder, config, shared=shared)


class TestLockstepOneConfig:
    def test_single_frame_sequence(self):
        steps = run_steps(small_frames(1), small_encoder(), small_config())
        assert len(steps) == 1
        assert steps[0].is_keyframe
        assert steps[0].fusion_rate == 0.0

    def test_budget_covering_all_patches_pins_rate_to_zero(self):
        config = small_config(keyframe_interval=3, top_k=4)
        steps = run_steps(small_frames(6), small_encoder(), config)
        assert rates_of(steps) == [0.0] * 6

    def test_detection_disabled_reuses_after_single_keyframe(self):
        config = small_config(
            keyframe_interval=100, enable_pixel=False, enable_attention=False
        )
        steps = run_steps(small_frames(6), small_encoder(), config)
        assert rates_of(steps) == [0.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_keyframe_periodicity(self):
        for k in (2, 3, 5):
            config = small_config(keyframe_interval=k)
            frames = small_frames(20, noise_amplitude=0.05, seed=k)
            for t, result in enumerate(run_steps(frames, small_encoder(), config)):
                assert result.is_keyframe == (t % k == 0)
                if t % k == 0:
                    assert result.fusion_rate == 0.0

    def test_reuse_provenance_every_row_is_a_copy(self):
        frames = small_frames(12, noise_amplitude=0.08, walker=True, seed=5)
        config = small_config(keyframe_interval=4, top_k=1)
        encoder = small_encoder()
        steps = run_steps(frames, encoder, config)
        for t, result in enumerate(steps):
            fresh = encoder(frames[t])[0].values
            for i in range(4):
                if result.fusion_mask[i]:
                    assert np.array_equal(result.fused_tokens.values[i], fresh[i])
                else:
                    previous = steps[t - 1].fused_tokens.values[i]
                    assert np.array_equal(result.fused_tokens.values[i], previous)

    def test_or_conservatism_dual_rate_never_exceeds_single(self):
        frames = small_frames(15, noise_amplitude=0.1, walker=True, seed=6)
        encoder = small_encoder()
        kwargs = dict(keyframe_interval=4, top_k=1)
        dual = run_steps(frames, encoder, small_config(**kwargs))
        pixel_only = run_steps(frames, encoder, small_config(enable_attention=False, **kwargs))
        attention_only = run_steps(frames, encoder, small_config(enable_pixel=False, **kwargs))
        for d, p, a in zip(rates_of(dual), rates_of(pixel_only), rates_of(attention_only)):
            assert d <= min(p, a)

    def test_determinism_same_inputs_bitwise_identical(self):
        frames = small_frames(10, noise_amplitude=0.05, seed=8)
        config = small_config()
        first = run_steps(frames, small_encoder(3), config)
        second = run_steps(frames, small_encoder(3), config)
        assert rates_of(first) == rates_of(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.fused_tokens.values, b.fused_tokens.values)
            assert np.array_equal(a.fusion_mask, b.fusion_mask)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="first frame missing"):
            run_steps([], small_encoder(), small_config())

    def test_timestep_gap_rejected(self):
        frames = small_frames(3)
        with pytest.raises(ValueError, match="timestep gap"):
            run_steps([frames[0], frames[2]], small_encoder(), small_config())


class TestLockstep:
    def walker_frames(self):
        return small_frames(13, walker=True, noise_amplitude=0.08, seed=11)

    def configs(self):
        return [small_config(keyframe_interval=k, top_k=1) for k in (1, 3, 6)]

    def test_encoder_runs_once_per_frame(self):
        inner = small_encoder()
        calls = []

        def counting(frame, gray):
            calls.append(frame.timestep)
            return inner(frame, gray)

        frames = self.walker_frames()
        for _ in lockstep(frames, counting, self.configs()):
            pass
        assert calls == list(range(len(frames)))

    def test_each_config_matches_its_own_loop(self):
        frames = self.walker_frames()
        encoder = small_encoder()
        together = list(zip(*lockstep(frames, encoder, self.configs())))
        for config, steps in zip(self.configs(), together):
            alone = run_steps(frames, encoder, config)
            assert rates_of(steps) == rates_of(alone)
            for a, b in zip(steps, alone):
                assert a.is_keyframe == b.is_keyframe
                assert np.array_equal(a.pixel_mask, b.pixel_mask)
                assert np.array_equal(a.attention_mask, b.attention_mask)
                assert np.array_equal(a.fusion_mask, b.fusion_mask)
                assert np.array_equal(a.fused_tokens.values, b.fused_tokens.values)
        # K = 1 recomputes every patch, K = 6 reuses some: the points differ.
        assert rates_of(together[0]) != rates_of(together[2])

    def test_one_grayscale_per_step(self, monkeypatch):
        calls, diff_calls = [], []
        original = ttfusion.fusion.to_grayscale
        original_diffs = ttfusion.detection.patch_diffs

        def counting(frame):
            calls.append(frame.timestep)
            return original(frame)

        def counting_diffs(gray_t, gray_prev, grid):
            diff_calls.append(calls[-1])
            return original_diffs(gray_t, gray_prev, grid)

        monkeypatch.setattr(ttfusion.fusion, "to_grayscale", counting)
        monkeypatch.setattr(ttfusion.toy_encoder, "to_grayscale", counting)
        monkeypatch.setattr(ttfusion.detection, "patch_diffs", counting_diffs)
        frames = self.walker_frames()
        run_steps(frames, small_encoder(), self.configs()[0])
        assert calls == list(range(len(frames)))
        assert diff_calls == []
        calls.clear()
        for _ in lockstep(frames, small_encoder(), self.configs()):
            pass
        # One grayscale per frame for all three points, and one pixel-diff
        # computation per frame that is a non-keyframe for some point: with
        # K = 1, 3, 6 those are the frames off multiples of 6.
        assert calls == list(range(len(frames)))
        assert diff_calls == [t for t in range(len(frames)) if t % 6]

    def test_frames_may_be_an_iterator(self):
        frames = self.walker_frames()
        streamed = lockstep(iter(frames), small_encoder(), self.configs())
        listed = lockstep(frames, small_encoder(), self.configs())
        for a, b in zip(streamed, listed, strict=True):
            assert rates_of(a) == rates_of(b)

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="no fusion configs"):
            next(lockstep(small_frames(2), small_encoder(), []))


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(keyframe_interval=0)
        with pytest.raises(ValueError):
            FusionConfig(pixel_threshold=-0.1)
        with pytest.raises(ValueError):
            FusionConfig(attention_mode="nope")
        with pytest.raises(ValueError):
            FusionConfig(selection_mode="nope")
        with pytest.raises(ValueError):
            FusionConfig(width=225)

    def test_token_matrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TokenMatrix(np.array([[np.nan, 1.0]]))
