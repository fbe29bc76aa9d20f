import numpy as np
import pytest

from ttfusion.detection import (
    ACTION_TO_VISION,
    TEXT_TO_VISION,
    AttentionSlice,
    patch_diffs,
    rate_target_mask,
    relevance_scores,
    threshold_diffs,
    top_k_mask,
)
from ttfusion.frames import PatchGrid


def gray(values):
    return np.asarray(values, dtype=np.float64)


def brute_force_diffs(a, b, grid):
    """Per-pixel oracle with no patch-shaped array tricks."""
    acc = [0.0] * grid.patch_count
    rows_a = a.tolist()
    rows_b = b.tolist()
    for u in range(a.shape[0]):
        band = (u // 14) * grid.cols
        row_a = rows_a[u]
        row_b = rows_b[u]
        for v in range(a.shape[1]):
            acc[band + v // 14] += abs(row_a[v] - row_b[v])
    return np.array([s / 196.0 for s in acc])


class TestPixelDiff:
    def test_identical_images_are_all_zero(self):
        values = np.random.default_rng(0).random((28, 28))
        diffs = patch_diffs(gray(values), gray(values.copy()), PatchGrid.from_dims(28, 28))
        assert (diffs == 0.0).all()
        assert not threshold_diffs(diffs, 0.03).any()

    def test_uniform_patch_delta_sets_exact_mean(self):
        grid = PatchGrid.from_dims(28, 28)
        a = np.full((28, 28), 0.5)
        b = a.copy()
        u0, v0, u1, v1 = grid.patch_region(2)
        b[u0 : u1 + 1, v0 : v1 + 1] += 0.05
        diffs = patch_diffs(gray(b), gray(a), grid)
        assert diffs[2] == pytest.approx(0.05, abs=1e-15)
        assert list(threshold_diffs(diffs, 0.03)) == [0, 0, 1, 0]

    def test_single_pixel_change_stays_below_threshold(self):
        grid = PatchGrid.from_dims(28, 28)
        a = np.zeros((28, 28))
        b = a.copy()
        b[3, 5] = 0.196
        diffs = patch_diffs(gray(b), gray(a), grid)
        assert diffs[0] == 0.196 / 196
        assert brute_force_diffs(b, a, grid)[0] == pytest.approx(diffs[0], abs=1e-15)
        assert not threshold_diffs(diffs, 0.03).any()

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        grid = PatchGrid.from_dims(42, 28)
        a = rng.random((28, 42))
        b = rng.random((28, 42))
        oracle = brute_force_diffs(a, b, grid)
        assert np.abs(patch_diffs(gray(a), gray(b), grid) - oracle).max() <= 1e-12

    def test_threshold_is_strict(self):
        # Dyadic values keep both the mean and the threshold exact, so the
        # boundary case really exercises the strict inequality.
        grid = PatchGrid.from_dims(14, 14)
        a = np.zeros((14, 14))
        b = np.full((14, 14), 1.0 / 32.0)
        diffs = patch_diffs(gray(b), gray(a), grid)
        assert diffs[0] == 1.0 / 32.0
        assert threshold_diffs(diffs, 1.0 / 32.0)[0] == 0

    def test_symmetric_in_frame_order(self):
        rng = np.random.default_rng(8)
        a, b = rng.random((28, 28)), rng.random((28, 28))
        grid = PatchGrid.from_dims(28, 28)
        forward = patch_diffs(gray(a), gray(b), grid)
        backward = patch_diffs(gray(b), gray(a), grid)
        assert np.array_equal(forward, backward)

    def test_invariant_under_global_shift(self):
        # 8-bit dyadic values plus a dyadic shift make the additions exact.
        rng = np.random.default_rng(9)
        a = rng.integers(0, 192, size=(28, 28)) / 256.0
        b = rng.integers(0, 192, size=(28, 28)) / 256.0
        grid = PatchGrid.from_dims(28, 28)
        plain = patch_diffs(gray(a), gray(b), grid)
        shifted = patch_diffs(gray(a + 0.25), gray(b + 0.25), grid)
        assert np.array_equal(plain, shifted)

    def test_dimension_mismatch_rejected(self):
        grid = PatchGrid.from_dims(28, 28)
        with pytest.raises(ValueError):
            patch_diffs(gray(np.zeros((28, 28))), gray(np.zeros((14, 14))), grid)
        with pytest.raises(ValueError):
            patch_diffs(gray(np.zeros((14, 14))), gray(np.zeros((14, 14))), grid)

    def test_negative_threshold_rejected(self):
        grid = PatchGrid.from_dims(14, 14)
        diffs = patch_diffs(gray(np.zeros((14, 14))), gray(np.zeros((14, 14))), grid)
        with pytest.raises(ValueError):
            threshold_diffs(diffs, -0.1)


class TestAttentionScores:
    def test_single_head_single_token_is_identity(self):
        slice_ = AttentionSlice(
            text_rows=np.array([[[0.2, 0.8]]]), action_row=None, source_timestep=0
        )
        assert np.array_equal(relevance_scores(slice_, TEXT_TO_VISION), [0.2, 0.8])

    def test_mean_over_heads(self):
        slice_ = AttentionSlice(
            text_rows=np.array([[[0.2, 0.8]], [[0.6, 0.4]]]), action_row=None, source_timestep=0
        )
        assert relevance_scores(slice_, TEXT_TO_VISION) == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_mean_over_text_tokens(self):
        slice_ = AttentionSlice(
            text_rows=np.array([[[1.0, 0.0], [0.0, 1.0]]]), action_row=None, source_timestep=0
        )
        assert relevance_scores(slice_, TEXT_TO_VISION) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_action_single_head_is_identity(self):
        slice_ = AttentionSlice(
            text_rows=None, action_row=np.array([[0.3, 0.7]]), source_timestep=0
        )
        assert np.array_equal(relevance_scores(slice_, ACTION_TO_VISION), [0.3, 0.7])

    def test_action_mean_over_heads(self):
        slice_ = AttentionSlice(
            text_rows=None, action_row=np.array([[1.0, 0.0], [0.0, 1.0]]), source_timestep=0
        )
        assert relevance_scores(slice_, ACTION_TO_VISION) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_zero_rows_give_zero_scores(self):
        slice_ = AttentionSlice(
            text_rows=None, action_row=np.zeros((3, 5)), source_timestep=0
        )
        assert not relevance_scores(slice_, ACTION_TO_VISION).any()

    def test_missing_text_rows_rejected(self):
        slice_ = AttentionSlice(text_rows=None, action_row=np.zeros((1, 4)), source_timestep=0)
        with pytest.raises(ValueError):
            relevance_scores(slice_, TEXT_TO_VISION)

    def test_missing_action_row_rejected(self):
        slice_ = AttentionSlice(text_rows=np.zeros((1, 1, 4)), action_row=None, source_timestep=0)
        with pytest.raises(ValueError):
            relevance_scores(slice_, ACTION_TO_VISION)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            AttentionSlice(text_rows=np.array([[[-0.1, 0.5]]]), action_row=None, source_timestep=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        rows = np.array([[0.1, 0.1, bad, 0.1]])
        with pytest.raises(ValueError, match="finite"):
            AttentionSlice(text_rows=rows[None], action_row=None, source_timestep=0)
        with pytest.raises(ValueError, match="finite"):
            AttentionSlice(text_rows=None, action_row=rows, source_timestep=0)

    def test_row_sums_above_one_rejected(self):
        with pytest.raises(ValueError):
            AttentionSlice(text_rows=np.array([[[0.7, 0.7]]]), action_row=None, source_timestep=0)

    def test_aggregates_stay_within_weight_range(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rows = rng.random((3, 4, 8))
            rows /= rows.sum(axis=-1, keepdims=True)
            slice_ = AttentionSlice(text_rows=rows, action_row=rows[:, 0, :], source_timestep=0)
            for scores, pool in [
                (relevance_scores(slice_, TEXT_TO_VISION), rows),
                (relevance_scores(slice_, ACTION_TO_VISION), rows[:, 0, :]),
            ]:
                per_patch_min = pool.reshape(-1, 8).min(axis=0)
                per_patch_max = pool.reshape(-1, 8).max(axis=0)
                assert (scores >= per_patch_min - 1e-12).all()
                assert (scores <= per_patch_max + 1e-12).all()


class TestTopK:
    def test_selects_two_highest(self):
        mask = top_k_mask(np.array([0.1, 0.4, 0.3, 0.2]), 2)
        assert list(mask) == [0, 1, 1, 0]

    def test_tie_goes_to_lower_index(self):
        mask = top_k_mask(np.array([0.5, 0.5, 0.1]), 1)
        assert list(mask) == [1, 0, 0]

    def test_k_zero_selects_nothing(self):
        mask = top_k_mask(np.array([0.5, 0.5, 0.1]), 0)
        assert not mask.any()

    def test_k_beyond_n_selects_all(self):
        mask = top_k_mask(np.array([0.5, 0.5, 0.1]), 99)
        assert mask.all()

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            top_k_mask(np.array([0.5]), -1)

    def test_selected_scores_dominate_unselected(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scores = np.round(rng.random(32), 2)  # quantized to force ties
            mask = top_k_mask(scores, 10)
            assert mask.sum() == 10
            assert scores[mask == 1].min() >= scores[mask == 0].max()

    def test_permutation_consistency_for_distinct_scores(self):
        rng = np.random.default_rng(13)
        scores = rng.permutation(np.linspace(0.0, 1.0, 40))
        mask = top_k_mask(scores, 7)
        perm = rng.permutation(40)
        permuted_mask = top_k_mask(scores[perm], 7)
        restored = np.empty(40, dtype=permuted_mask.dtype)
        restored[perm] = permuted_mask
        assert np.array_equal(restored, mask)


class TestRateTarget:
    def test_detectors_return_bool_masks(self):
        scores = np.array([0.1, 0.4, 0.3, 0.2])
        for mask in (
            threshold_diffs(scores, 0.25),
            top_k_mask(scores, 2),
            rate_target_mask(scores, 0.5),
        ):
            assert mask.dtype == np.bool_
            assert list(mask) == [False, True, True, False]


    def test_target_030_selects_seven_of_ten(self):
        mask = rate_target_mask(np.arange(10.0), 0.30)
        assert mask.sum() == 7

    def test_target_zero_selects_all(self):
        mask = rate_target_mask(np.arange(10.0), 0.0)
        assert mask.all()

    def test_target_one_selects_none(self):
        mask = rate_target_mask(np.arange(10.0), 1.0)
        assert not mask.any()

    def test_float_products_do_not_over_select(self):
        # ceil((1 - 0.35) * 20) must be 13 even though 0.65 * 20 can float
        # slightly above 13.
        mask = rate_target_mask(np.arange(20.0), 0.35)
        assert mask.sum() == 13

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            rate_target_mask(np.arange(4.0), 1.5)
