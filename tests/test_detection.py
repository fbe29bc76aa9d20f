import numpy as np
import pytest

import ttfusion.detection
from ttfusion.detection import (
    ACTION_TO_VISION,
    ESTIMATE_MARGIN,
    TEXT_TO_VISION,
    AttentionSlice,
    PixelScratch,
    diff_band,
    patch_diffs,
    patch_luma_sums,
    rate_target_mask,
    relevance_scores,
    threshold_diffs,
    threshold_luma_sums,
    top_k_mask,
)
from ttfusion.frames import RGB_SCALE, FrameObservation, Luma, PatchGrid, to_grayscale, to_luma


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

    @pytest.mark.parametrize("patch_rows", [1, 2, 3, 5])
    def test_band_of_any_height_gives_the_same_diffs(self, patch_rows):
        rng = np.random.default_rng(patch_rows)
        a, b = rng.random((70, 42)), rng.random((70, 42))
        grid = PatchGrid.from_dims(42, 70)
        band = np.full((patch_rows * 14, 42), np.nan)
        got = patch_diffs(a, b, grid, band)
        assert got.tobytes() == patch_diffs(a, b, grid).tobytes()
        assert np.abs(got - brute_force_diffs(a, b, grid)).max() <= 1e-12

    def test_default_band_fits_the_frame(self):
        assert diff_band(PatchGrid.from_dims(224, 224)).shape == (140, 224)
        assert diff_band(PatchGrid.from_dims(4200, 42)).shape == (14, 4200)
        assert diff_band(PatchGrid.from_dims(28, 28)).shape == (28, 28)

    @pytest.mark.parametrize(
        "band", [np.empty((13, 28)), np.empty((14, 42)), np.empty((14, 28), dtype=np.float32)]
    )
    def test_band_of_wrong_shape_or_dtype_rejected(self, band):
        grid = PatchGrid.from_dims(28, 28)
        with pytest.raises(ValueError, match="no diff_band"):
            patch_diffs(gray(np.zeros((28, 28))), gray(np.zeros((28, 28))), grid, band)

    def test_negative_threshold_rejected(self):
        grid = PatchGrid.from_dims(14, 14)
        diffs = patch_diffs(gray(np.zeros((14, 14))), gray(np.zeros((14, 14))), grid)
        with pytest.raises(ValueError):
            threshold_diffs(diffs, -0.1)


def random_frame(kind, grid, rng):
    """A random frame of ``grid``: RGB, or one whose three channels are one
    plane in memory, as synthetic frames are."""
    shape = (grid.rows * 14, grid.cols * 14)
    if kind == "rgb":
        return FrameObservation(rng.integers(0, 256, size=shape + (3,), dtype=np.uint8), 0)
    plane = rng.integers(0, 256, size=shape, dtype=np.uint8)
    return FrameObservation(np.broadcast_to(plane[..., None], shape + (3,)), 0)


def frame_pair(kind, grid, seed):
    """Two frames of ``grid``: both RGB, both one-plane, one of each kind in
    either order, or one random frame twice."""
    rng = np.random.default_rng(seed)
    kinds = {"rgb": ("rgb", "rgb"), "one_plane": ("plane", "plane"),
             "mixed": ("plane", "rgb"), "mixed_reversed": ("rgb", "plane"),
             "identical": ("rgb", "rgb")}[kind]
    frames = [random_frame(k, grid, rng) for k in kinds]
    if kind == "identical":
        frames[1] = FrameObservation(frames[0].pixels.copy(), 0)
    return frames


def refine_counter(monkeypatch):
    """The strips that threshold_luma_sums refines, recorded as it calls
    patch_diffs."""
    refined = []
    original = ttfusion.detection.patch_diffs

    def counting(gray_t, gray_prev, strip, band=None):
        refined.append(strip)
        return original(gray_t, gray_prev, strip, band)

    monkeypatch.setattr(ttfusion.detection, "patch_diffs", counting)
    return refined


class TestLumaSums:
    """The loop's pixel mask, decided from each patch's exact integer luma
    sum, is the thresholded patch means of the grayscales bit for bit, on
    thresholds right at a mean too, where only the exact mean can decide."""

    @pytest.mark.parametrize("kind", ["rgb", "one_plane", "mixed", "mixed_reversed", "identical"])
    @pytest.mark.parametrize("rows,cols", [(1, 1), (3, 17), (32, 32)])
    def test_equals_the_thresholded_means(self, monkeypatch, kind, rows, cols):
        grid = PatchGrid(rows, cols)
        a, b = frame_pair(kind, grid, seed=rows * 100 + cols)
        diffs = patch_diffs(to_grayscale(a), to_grayscale(b), grid)
        luma_a, luma_b = to_luma(a), to_luma(b)
        scratch = PixelScratch(grid)
        sums, scale = patch_luma_sums(luma_a, luma_b, grid, scratch)
        assert scale == max(luma_a.scale, luma_b.scale)
        thresholds = {0.0, 5e-324, 0.03, 1.5}
        for value in np.unique(diffs):
            thresholds |= {value, np.nextafter(value, 0.0), np.nextafter(value, np.inf)}
        refined = refine_counter(monkeypatch)
        for threshold in sorted(thresholds):
            mask = threshold_luma_sums(
                sums, scale, luma_a, luma_b, grid, float(threshold), scratch
            )
            assert mask.dtype == np.bool_
            assert np.array_equal(mask, threshold_diffs(diffs, threshold)), threshold
        # A threshold on a mean leaves its sum inside the margin, so the
        # strip is refined; a zero sum never is.
        assert bool(refined) == (kind != "identical")
        assert all(strip == PatchGrid(1, cols) for strip in refined)

    @pytest.mark.parametrize("kind", ["rgb", "one_plane", "mixed"])
    def test_sums_are_the_exact_integer_sums(self, kind):
        grid = PatchGrid(3, 17)
        a, b = frame_pair(kind, grid, seed=5)
        luma_a, luma_b = to_luma(a), to_luma(b)
        sums, scale = patch_luma_sums(luma_a, luma_b, grid)
        wide = [luma.values.astype(np.int64) * (scale // luma.scale) for luma in (luma_a, luma_b)]
        exact = np.abs(wide[0] - wide[1]).reshape(3, 14, 17, 14).sum(axis=(1, 3)).ravel()
        assert np.array_equal(sums, exact)
        # patch_diffs' sums lie within the bound that ESTIMATE_MARGIN covers.
        means = patch_diffs(to_grayscale(a), to_grayscale(b), grid)
        assert np.abs(means * 196 - sums / scale).max() <= 6e-11 * (sums / scale).max()
        assert 6e-11 < ESTIMATE_MARGIN

    def test_white_against_black_rgb_sums_without_wrapping(self, monkeypatch):
        # Every luma is 255000 or 0: the largest products and sums there are.
        grid = PatchGrid(2, 3)
        white = FrameObservation(np.full((28, 42, 3), 255, dtype=np.uint8), 0)
        black = FrameObservation(np.zeros((28, 42, 3), dtype=np.uint8), 0)
        white_luma, black_luma = to_luma(white), to_luma(black)
        assert (white_luma.values == RGB_SCALE).all()
        for luma_t, luma_prev in ((white_luma, black_luma), (black_luma, white_luma)):
            sums, scale = patch_luma_sums(luma_t, luma_prev, grid)
            assert scale == RGB_SCALE and (sums == 196 * RGB_SCALE).all()
            refined = refine_counter(monkeypatch)
            for threshold, flagged in ((np.nextafter(1.0, 0.0), True), (1.0, False)):
                mask = threshold_luma_sums(sums, scale, luma_t, luma_prev, grid, threshold)
                assert mask.all() == flagged and mask.any() == flagged
            assert refined

    def test_smallest_threshold_flags_every_changed_patch(self):
        grid = PatchGrid(1, 2)
        a = Luma(np.zeros((14, 28), dtype=np.uint8), 255)
        b = Luma(a.values.copy(), 255)
        b.values[3, 20] = 1
        sums, scale = patch_luma_sums(a, b, grid)
        assert list(sums) == [0, 1]
        assert list(threshold_luma_sums(sums, scale, a, b, grid, 5e-324)) == [False, True]
        assert list(threshold_luma_sums(sums, scale, a, b, grid, 0.0)) == [False, True]

    def test_scratch_keeps_one_set_per_dtype(self):
        scratch = PixelScratch(PatchGrid(1, 2))
        for dtype, rows in ((np.uint8, np.uint16), (np.uint32, np.uint32)):
            arrays = scratch.sums(dtype)
            assert scratch.sums(np.dtype(dtype)) is arrays
            assert [a.dtype for a in arrays] == [dtype, dtype, rows]
            assert [a.shape for a in arrays] == [(14, 28), (14, 28), (1, 28)]

    def test_scratch_of_another_grid_rejected(self):
        grid = PatchGrid(2, 2)
        lumas = [Luma(np.zeros((28, 28), dtype=np.uint8), 255)] * 2
        for other in (PatchGrid(1, 2), PatchGrid(2, 3)):
            with pytest.raises(ValueError, match="no PixelScratch"):
                patch_luma_sums(*lumas, grid, PixelScratch(other))

    def test_lumas_of_another_grid_rejected(self):
        lumas = [Luma(np.zeros((28, 28), dtype=np.uint8), 255)] * 2
        with pytest.raises(ValueError, match="do not match grid"):
            patch_luma_sums(*lumas, PatchGrid(1, 2))

    def test_sums_of_another_grid_or_negative_threshold_rejected(self):
        grid = PatchGrid(2, 2)
        lumas = [Luma(np.zeros((28, 28), dtype=np.uint8), 255)] * 2
        with pytest.raises(ValueError, match="do not match grid"):
            threshold_luma_sums(np.zeros(3), 255, *lumas, grid, 0.03)
        with pytest.raises(ValueError, match="non-negative"):
            threshold_luma_sums(np.zeros(4), 255, *lumas, grid, -0.1)


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
