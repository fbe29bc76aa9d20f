import dataclasses
import re

import numpy as np
import pytest

import ttfusion.detection
import ttfusion.fusion
import ttfusion.toy_encoder
from ttfusion.detection import AttentionSlice
from ttfusion.frames import FrameObservation, to_grayscale
from ttfusion.fusion import (
    WHOLE_FRAME_SHARE,
    FusionConfig,
    FusionState,
    is_keyframe,
    lockstep,
    SharedObservation,
    step,
)
from ttfusion.synthetic import SynthSpec, generate_frames
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder


def encode(frame, spec, gray=None):
    """The frame's (N, d) tokens, every row encoded in one call."""
    encoder = ToyEncoder(spec)
    return encoder.tokens(encoder.features(frame, gray), None)


def small_config(**overrides):
    defaults = dict(width=28, height=28, top_k=2)
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
    """Fixed tokens per timestep; attention slice optional, stamped with
    each frame's timestep unless ``stale``."""

    def __init__(self, tokens_by_step, attention=None, stale=False):
        self.tokens_by_step = tokens_by_step
        self.slice_ = attention
        self.stale = stale

    def features(self, frame, gray):
        return self.tokens_by_step[frame.timestep]

    def tokens(self, features, rows):
        return features if rows is None else features[rows]

    def attention(self, frame, features, mode):
        if self.slice_ is None or self.stale:
            return self.slice_
        return dataclasses.replace(self.slice_, source_timestep=frame.timestep)


class CountingEncoder:
    """Wraps an encoder, recording each call: the timestep of every
    ``features`` call, the (timestep, rows) of every ``tokens`` call (rows
    None for the whole frame) and the (timestep, mode) of every
    ``attention`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.feature_calls, self.token_calls, self.attention_calls = [], [], []

    def features(self, frame, gray):
        self.feature_calls.append(frame.timestep)
        return frame.timestep, self.inner.features(frame, gray)

    def tokens(self, features, rows):
        t, inner = features
        self.token_calls.append((t, None if rows is None else rows.copy()))
        return self.inner.tokens(inner, rows)

    def attention(self, frame, features, mode):
        self.attention_calls.append((frame.timestep, mode))
        return self.inner.attention(frame, features[1], mode)

    def rows_by_frame(self, n=4):
        """Timestep -> every row index encoded for it, in call order, for
        frames of ``n`` patches."""
        rows = {}
        for t, encoded in self.token_calls:
            rows.setdefault(t, []).extend(range(n) if encoded is None else encoded.tolist())
        return rows


class TestIsKeyframe:
    def test_first_step_with_empty_state(self):
        assert is_keyframe(0, FusionState(), 3)

    def test_multiple_of_interval(self):
        state = FusionState(prev_tokens=np.zeros((4, 8)), timestep=3)
        assert is_keyframe(3, state, 3)

    def test_interior_step_with_history(self):
        state = FusionState(prev_tokens=np.zeros((4, 8)), timestep=4)
        assert not is_keyframe(4, state, 3)

    def test_empty_history_forces_keyframe_anywhere(self):
        state = FusionState(timestep=4)
        assert is_keyframe(4, state, 3)

    def test_timestep_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_keyframe(2, FusionState(), 3)


class TestStep:
    def test_first_step_is_keyframe_with_rate_zero(self):
        frames = small_frames(1)
        result, state = step(FusionState(), frames[0], small_encoder(), small_config())
        assert result.is_keyframe
        assert result.fusion_rate == 0.0
        assert result.pixel_mask.all() and result.attention_mask.all()
        assert state.timestep == 1
        assert state.prev_tokens is result.fused_tokens
        assert state.prev_scores is not None

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
        assert np.array_equal(result1.fused_tokens, result0.fused_tokens)

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

    def test_fusion_mask_is_the_or_of_both_masks(self):
        frames = small_frames(12, walker=True, noise_amplitude=0.05, seed=6)
        steps = run_steps(frames, small_encoder(), small_config(keyframe_interval=4))
        non_keyframe = [s for s in steps if not s.is_keyframe]
        # Each detector flags a patch the other leaves, so the OR is exact
        # only if it adds both.
        assert any(s.fusion_rate > 0 for s in non_keyframe)
        assert any((s.pixel_mask & ~s.attention_mask).any() for s in non_keyframe)
        assert any((s.attention_mask & ~s.pixel_mask).any() for s in non_keyframe)
        for result in non_keyframe:
            assert np.array_equal(result.fusion_mask, result.pixel_mask | result.attention_mask)
            assert result.fusion_rate == 1 - result.fusion_mask.sum() / 4

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
        assert state.prev_scores is None
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
        class Broken(StubEncoder):
            def features(self, frame, gray):
                raise RuntimeError("encoder down")

        with pytest.raises(RuntimeError, match="encoder down"):
            step(FusionState(), small_frames(1)[0], Broken({}), small_config())

    @pytest.mark.parametrize("keyframe_interval", [1, 100])
    def test_non_finite_recomputed_row_rejected(self, keyframe_interval):
        # Step 1 recomputes rows 0 and 2 (top_k = 2, no pixel change);
        # a NaN there fails the step, as one in a keyframe's rows does.
        tokens = {0: np.zeros((4, 8)), 1: np.ones((4, 8))}
        tokens[1][2, 5] = np.nan
        text = np.array([[[0.4, 0.1, 0.3, 0.2]]] * 2)
        encoder = StubEncoder(tokens)
        config = small_config(keyframe_interval=keyframe_interval, enable_pixel=False)
        frames = small_frames(2)
        encoder.slice_ = AttentionSlice(text_rows=text, action_row=None, source_timestep=0)
        _, state = step(FusionState(), frames[0], encoder, config)
        with pytest.raises(ValueError, match="non-finite"):
            step(state, frames[1], encoder, config)

    @pytest.mark.parametrize("shape", [(4,), (3, 8), (4, 8, 1)])
    def test_encoder_tokens_of_another_shape_rejected(self, shape):
        # Token rows are checked once, where the encoder returns them.
        encoder = StubEncoder({0: np.zeros(shape)})
        expected = re.escape(f"encoder produced {shape} tokens for 4 patches of timestep 0")
        with pytest.raises(ValueError, match=expected):
            step(FusionState(), small_frames(1)[0], encoder, small_config())

    def test_non_finite_reused_row_is_never_read(self):
        # Row 1 is reused at step 1, so its NaN is never encoded or checked.
        tokens = {0: np.zeros((4, 8)), 1: np.ones((4, 8))}
        tokens[1][1, 0] = np.nan
        text = np.array([[[0.4, 0.1, 0.3, 0.2]]] * 2)
        encoder = CountingEncoder(StubEncoder(tokens))
        encoder.inner.slice_ = AttentionSlice(text_rows=text, action_row=None, source_timestep=0)
        config = small_config(keyframe_interval=100, enable_pixel=False)
        frames = small_frames(2)
        _, state = step(FusionState(), frames[0], encoder, config)
        result, _ = step(state, frames[1], encoder, config)
        assert list(result.fusion_mask) == [1, 0, 1, 0]
        assert encoder.rows_by_frame()[1] == [0, 2]
        assert np.array_equal(result.fused_tokens[[0, 2]], np.ones((2, 8)))
        assert np.array_equal(result.fused_tokens[[1, 3]], np.zeros((2, 8)))

    def test_stale_attention_rejected(self):
        # Every step hands back attention from timestep 0; step 1 must reject
        # it, in its own step, before step 2 could select patches with it.
        stale = AttentionSlice(
            text_rows=np.full((2, 2, 4), 0.25), action_row=None, source_timestep=0
        )
        encoder = StubEncoder({t: np.zeros((4, 8)) for t in range(3)}, attention=stale, stale=True)
        config = small_config(keyframe_interval=100)
        frames = small_frames(3)
        _, state = step(FusionState(), frames[0], encoder, config)
        with pytest.raises(ValueError, match="stale attention: step 1 got attention from timestep 0"):
            step(state, frames[1], encoder, config)

    @pytest.mark.parametrize("patches", [3, 5])
    def test_slice_of_another_patch_count_fails_its_own_step(self, patches):
        text = np.full((2, 1, patches), 1.0 / patches)
        encoder = StubEncoder({0: np.zeros((4, 8))}, attention=AttentionSlice(
            text_rows=text, action_row=None, source_timestep=0
        ))
        with pytest.raises(ValueError, match=f"covers {patches} patches, expected 4"):
            step(FusionState(), small_frames(1)[0], encoder, small_config(keyframe_interval=100))

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


class TestHardFusion:
    """One non-keyframe ``step`` on pinned detector masks: the fusion mask is
    their OR, flagged rows come from this frame's tokens and the others are
    bit-exact copies of the previous step's fused tokens."""

    @staticmethod
    def fuse(monkeypatch, pixel, attention):
        """Steps 0 and 1 with the pixel and attention masks of step 1 pinned;
        returns step 0's result, step 1's result, step 1's encoder tokens and
        the counting encoder."""
        rng = np.random.default_rng(4)
        tokens = {0: rng.standard_normal((4, 8)), 1: rng.standard_normal((4, 8))}
        encoder = CountingEncoder(StubEncoder(tokens))
        text = np.array([[[0.4, 0.1, 0.3, 0.2]]] * 2)
        encoder.inner.slice_ = AttentionSlice(text_rows=text, action_row=None, source_timestep=0)
        monkeypatch.setattr(
            ttfusion.detection, "threshold_diffs", lambda *args: np.array(pixel, dtype=bool)
        )
        monkeypatch.setattr(
            ttfusion.detection, "top_k_mask", lambda *args: np.array(attention, dtype=bool)
        )
        frames = small_frames(2)
        config = small_config(keyframe_interval=100)
        first, state = step(FusionState(), frames[0], encoder, config)
        second, _ = step(state, frames[1], encoder, config)
        return first, second, tokens[1], encoder

    def test_fusion_mask_is_the_per_patch_or(self, monkeypatch):
        _, result, _, _ = self.fuse(monkeypatch, [0, 0, 1, 1], [1, 0, 0, 1])
        assert result.fusion_mask.dtype == np.bool_
        assert list(result.fusion_mask) == [1, 0, 1, 1]
        assert result.fusion_rate == 0.25

    def test_all_flagged_returns_this_frames_tokens(self, monkeypatch):
        _, result, current, _ = self.fuse(monkeypatch, [1, 1, 1, 1], [0, 0, 0, 0])
        assert np.array_equal(result.fused_tokens, current)
        assert result.fusion_rate == 0.0

    def test_none_flagged_returns_the_previous_tokens_and_encodes_no_row(self, monkeypatch):
        first, result, _, encoder = self.fuse(monkeypatch, [0, 0, 0, 0], [0, 0, 0, 0])
        assert np.array_equal(result.fused_tokens, first.fused_tokens)
        assert result.fusion_rate == 1.0
        assert encoder.rows_by_frame().get(1, []) == []

    def test_row_splice(self, monkeypatch):
        first, result, current, encoder = self.fuse(monkeypatch, [1, 0, 0, 0], [0, 0, 0, 1])
        assert encoder.rows_by_frame()[1] == [0, 3]
        for i, source in enumerate((current, first.fused_tokens, first.fused_tokens, current)):
            assert np.array_equal(result.fused_tokens[i], source[i])

    def test_splice_leaves_the_previous_steps_tokens_unchanged(self, monkeypatch):
        rng = np.random.default_rng(4)
        before = rng.standard_normal((4, 8))
        first, result, _, _ = self.fuse(monkeypatch, [0, 1, 0, 0], [0, 0, 1, 0])
        assert np.array_equal(first.fused_tokens, before)
        assert result.fused_tokens is not first.fused_tokens


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
            fresh = encode(frames[t], encoder.spec)
            for i in range(4):
                if result.fusion_mask[i]:
                    assert np.array_equal(result.fused_tokens[i], fresh[i])
                else:
                    previous = steps[t - 1].fused_tokens[i]
                    assert np.array_equal(result.fused_tokens[i], previous)

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
            assert np.array_equal(a.fused_tokens, b.fused_tokens)
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
        encoder = CountingEncoder(small_encoder())
        frames = self.walker_frames()
        for _ in lockstep(frames, encoder, self.configs()):
            pass
        assert encoder.feature_calls == list(range(len(frames)))
        # One attention mode in use: one slice per frame for all points,
        # except before frames that are keyframes for every point that reads
        # attention (K = 3 and K = 6; K = 1 never reads it).
        assert encoder.attention_calls == [
            (t, "text_to_vision") for t in range(len(frames)) if (t + 1) % 6
        ]

    def test_each_row_encoded_at_most_once_per_frame(self):
        # K = 6 and K = 3 come first, so frames that are keyframes for K = 1
        # only reach it with some rows already encoded.
        encoder = CountingEncoder(small_encoder())
        frames = self.walker_frames()
        configs = self.configs()[::-1]
        together = list(lockstep(frames, encoder, configs))
        rows = encoder.rows_by_frame()
        assert len(together) == len(frames)
        for t in range(len(frames)):
            # K = 1 makes every frame a keyframe for some point: all rows,
            # none twice.
            assert sorted(rows[t]) == list(range(4))
        assert any(len(calls) > 1 for calls in self.calls_by_frame(encoder).values())
        # Alone, a point encodes exactly the rows its masks recompute.
        for config in configs:
            alone = CountingEncoder(small_encoder())
            steps = run_steps(frames, alone, config)
            for t, result in enumerate(steps):
                assert alone.rows_by_frame().get(t, []) == list(np.flatnonzero(result.fusion_mask))
                assert result.is_keyframe == (t % config.keyframe_interval == 0)

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
                assert np.array_equal(a.fused_tokens, b.fused_tokens)
        # K = 1 recomputes every patch, K = 6 reuses some: the points differ.
        assert rates_of(together[0]) != rates_of(together[2])

    @staticmethod
    def calls_by_frame(encoder):
        calls = {}
        for t, rows in encoder.token_calls:
            calls.setdefault(t, []).append(rows)
        return calls

    def test_mixed_attention_modes_match_their_own_loops(self):
        frames = self.walker_frames()
        configs = [
            small_config(keyframe_interval=4, top_k=1, attention_mode=mode)
            for mode in ("text_to_vision", "action_to_vision")
        ]
        encoder = CountingEncoder(small_encoder())
        together = list(zip(*lockstep(frames, encoder, configs)))
        # Each mode's slice is built once per frame, whichever point asks,
        # except before a keyframe.
        assert sorted(encoder.attention_calls) == sorted(
            (t, mode)
            for t in range(len(frames))
            for mode in ("text_to_vision", "action_to_vision")
            if (t + 1) % 4
        )
        for config, steps in zip(configs, together):
            alone = run_steps(frames, small_encoder(), config)
            for a, b in zip(steps, alone, strict=True):
                assert a.is_keyframe == b.is_keyframe
                assert np.array_equal(a.pixel_mask, b.pixel_mask)
                assert np.array_equal(a.attention_mask, b.attention_mask)
                assert np.array_equal(a.fusion_mask, b.fusion_mask)
                assert np.array_equal(a.fused_tokens, b.fused_tokens)
        # The modes select different patches somewhere, so the check bites.
        assert any(
            not np.array_equal(a.attention_mask, b.attention_mask)
            for a, b in zip(*together)
            if not a.is_keyframe
        )

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

    def test_results_and_states_hold_c_contiguous_float64_arrays(self, monkeypatch):
        states = []
        original = ttfusion.fusion.step

        def recording(*args, **kwargs):
            result, state = original(*args, **kwargs)
            states.append(state)
            return result, state

        monkeypatch.setattr(ttfusion.fusion, "step", recording)
        frames = self.walker_frames()
        results = [r for rs in lockstep(frames, small_encoder(), self.configs()) for r in rs]
        assert len(states) == len(results) == 3 * len(frames)
        assert not all(r.is_keyframe for r in results)
        for result, state in zip(results, states):
            assert state.prev_tokens is result.fused_tokens
            for mask in (result.pixel_mask, result.attention_mask, result.fusion_mask):
                assert type(mask) is np.ndarray
                assert mask.shape == (4,)
                assert mask.dtype == np.bool_
            for array, shape in ((result.fused_tokens, (4, 8)), (state.prev_gray, (28, 28))):
                assert type(array) is np.ndarray
                assert array.shape == shape
                assert array.dtype == np.float64
                assert array.flags.c_contiguous

    def test_scores_reduced_once_per_frame_and_mode(self, monkeypatch):
        calls = []
        original = ttfusion.detection.relevance_scores

        def counting(slice_, mode):
            calls.append((slice_.source_timestep, mode))
            return original(slice_, mode)

        monkeypatch.setattr(ttfusion.detection, "relevance_scores", counting)
        frames = self.walker_frames()
        for _ in lockstep(frames, small_encoder(), self.configs()):
            pass
        # K = 3 and K = 6 read each frame's scores unless their next step is
        # a keyframe; both share one reduction.
        assert calls == [(t, "text_to_vision") for t in range(len(frames)) if (t + 1) % 6]

    def test_frames_may_be_an_iterator(self):
        frames = self.walker_frames()
        streamed = lockstep(iter(frames), small_encoder(), self.configs())
        listed = lockstep(frames, small_encoder(), self.configs())
        for a, b in zip(streamed, listed, strict=True):
            assert rates_of(a) == rates_of(b)

    def test_no_configs_rejected(self):
        with pytest.raises(ValueError, match="no fusion configs"):
            next(lockstep(small_frames(2), small_encoder(), []))


class TestEncodesOnlyWhatTheStepReads:
    @pytest.mark.parametrize("mode", ["text_to_vision", "action_to_vision"])
    def test_only_the_run_mode_attention_is_built(self, mode, monkeypatch):
        built = []
        for name in ("_text_rows", "_action_row"):
            original = getattr(ttfusion.toy_encoder, name)

            def counting(features, spec, name=name, original=original):
                built.append(name)
                return original(features, spec)

            monkeypatch.setattr(ttfusion.toy_encoder, name, counting)
        frames = small_frames(7, walker=True, noise_amplitude=0.05, seed=4)
        steps = run_steps(frames, small_encoder(), small_config(attention_mode=mode, top_k=1))
        wanted = "_text_rows" if mode == "text_to_vision" else "_action_row"
        # K = 3: frames 2 and 5 precede keyframes, which read no attention.
        assert built == [wanted] * 5
        assert len(steps) == len(frames)

    def test_attention_off_builds_no_attention(self):
        encoder = CountingEncoder(small_encoder())
        config = small_config(keyframe_interval=3, enable_attention=False)
        run_steps(small_frames(5, walker=True), encoder, config)
        assert encoder.attention_calls == []

    @pytest.mark.parametrize("keyframe_interval", [1, 2, 3])
    def test_no_attention_before_a_keyframe(self, keyframe_interval):
        encoder = CountingEncoder(small_encoder())
        config = small_config(keyframe_interval=keyframe_interval, top_k=1)
        frames = small_frames(7, walker=True, noise_amplitude=0.05, seed=3)
        state = FusionState()
        for frame in frames:
            _, state = step(state, frame, encoder, config)
            next_is_keyframe = (frame.timestep + 1) % keyframe_interval == 0
            assert (state.prev_scores is None) == next_is_keyframe
            if state.prev_scores is not None:
                assert state.prev_scores.shape == (4,)
                assert not state.prev_scores.flags.writeable
        assert [t for t, _ in encoder.attention_calls] == [
            t for t in range(len(frames)) if (t + 1) % keyframe_interval
        ]

    def test_keyframes_encode_all_rows_and_other_steps_the_recomputed_ones(self):
        # The benchmark's reuse workload: 224 px walker episode with 5%
        # repaint and 2% noise, paper settings.
        frames = generate_frames(
            SynthSpec(frame_count=30, width=224, height=224, change_fraction=0.05,
                      walker=True, noise_amplitude=0.02, seed=1)
        )
        encoder = CountingEncoder(ToyEncoder(EncoderSpec(seed=1)))
        steps = run_steps(frames, encoder, FusionConfig())
        calls = {t: rows for t, rows in encoder.token_calls}
        assert sorted(calls) == list(range(len(frames)))
        assert len(encoder.token_calls) == len(frames)
        for t, result in enumerate(steps):
            if result.is_keyframe:
                assert calls[t] is None
            else:
                assert np.array_equal(calls[t], np.flatnonzero(result.fusion_mask))
        encoded = sum(256 if rows is None else len(rows) for rows in calls.values())
        # 143 of 256 rows per frame: encoding every row, the loop would
        # have kept only 0.56 of the rows it encoded.
        assert encoded == sum(int(s.fusion_mask.sum()) for s in steps) == 4291


    def test_a_mostly_recomputed_frame_is_encoded_whole(self):
        # Noise 0.1 flags 248-255 of 256 patches per non-keyframe, as in the
        # benchmark's churn workload: at least WHOLE_FRAME_SHARE of the
        # frame, so each frame is encoded whole, in one call.
        frames = generate_frames(
            SynthSpec(frame_count=6, width=224, height=224, change_fraction=0.05,
                      walker=True, noise_amplitude=0.1, seed=1)
        )
        encoder = CountingEncoder(ToyEncoder(EncoderSpec(seed=1)))
        steps = run_steps(frames, encoder, FusionConfig())
        assert encoder.token_calls == [(t, None) for t in range(len(frames))]
        recomputed = [int(s.fusion_mask.sum()) for s in steps if not s.is_keyframe]
        assert all(WHOLE_FRAME_SHARE * 256 <= r < 256 for r in recomputed)
        for t, result in enumerate(steps):
            fresh = encode(frames[t], EncoderSpec(seed=1))
            rows = result.fusion_mask == 1
            assert np.array_equal(result.fused_tokens[rows], fresh[rows])


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
