import numpy as np
import pytest

from ttfusion.fusion import FusionConfig, lockstep
from ttfusion.projection import (
    EquivalenceCheck,
    ProjectionSet,
    ReuseChecker,
    equivalence_failures,
    project_full,
)
from ttfusion.synthetic import SynthSpec, generate_frames
from ttfusion.toy_encoder import EncoderSpec, ToyEncoder


class TestProjectFull:
    def test_identity_weights(self):
        tokens = np.random.default_rng(0).standard_normal((5, 4))
        assert np.array_equal(project_full(tokens, np.eye(4)), tokens)

    def test_zero_tokens(self):
        assert not project_full(np.zeros((3, 4)), np.ones((4, 4))).any()

    def test_hand_computed_2x2(self):
        tokens = np.array([[1.0, 2.0], [3.0, 4.0]])
        weights = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(project_full(tokens, weights), [[3.0, 2.0], [7.0, 4.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project_full(np.zeros((2, 3)), np.zeros((4, 4)))

    def test_row_results_do_not_depend_on_other_rows(self):
        rng = np.random.default_rng(1)
        tokens = rng.standard_normal((8, 16))
        weights = rng.standard_normal((16, 16))
        full = project_full(tokens, weights)
        for i in range(8):
            assert np.array_equal(project_full(tokens[i : i + 1], weights), full[i : i + 1])

        # d = 64 as in the default run: a 256-patch batch against random row
        # subsets of the sizes fusion masks recompute, and against copies laid
        # out differently in memory.
        tokens = rng.standard_normal((256, 64))
        weights = rng.standard_normal((64, 64))
        full = project_full(tokens, weights)
        for size in (1, 2, 37, 70, 128, 186, 255):
            rows = np.sort(rng.choice(256, size=size, replace=False))
            assert np.array_equal(project_full(tokens[rows], weights), full[rows])
        buffer = np.empty(tokens.size + 1)
        odd_offset = buffer[1:].reshape(tokens.shape)
        odd_offset[...] = tokens
        assert np.array_equal(project_full(odd_offset, weights), full)
        assert np.array_equal(project_full(np.asfortranarray(tokens), weights), full)
        assert np.array_equal(project_full(tokens[1::3], weights), full[1::3])

    def test_matches_ascending_index_reference(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((256, 64))
        weights = rng.standard_normal((64, 64))
        reference = np.zeros((256, 64))
        for k in range(64):
            reference += tokens[:, k : k + 1] * weights[k]
        assert np.allclose(project_full(tokens, weights), reference, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(("d", "n"), [(64, 1024), (256, 256)])
    def test_rows_are_bit_exact_across_chunk_boundaries(self, d, n):
        # project_full multiplies rows in 32-row chunks and pads only the
        # tail chunk; n = 1024 is the 448 px patch count.
        rng = np.random.default_rng(d + n)
        tokens = rng.standard_normal((n, d))
        weights = rng.standard_normal((d, d))
        full = project_full(tokens, weights)

        # One fixed row at each offset of a whole chunk and of a tail chunk.
        row = tokens[0]
        for offset in range(32):
            whole = rng.standard_normal((64, d))
            whole[offset] = row
            assert np.array_equal(project_full(whole, weights)[offset], full[0])
            tail = rng.standard_normal((32 + offset + 1, d))
            tail[32 + offset] = row
            assert np.array_equal(project_full(tail, weights)[32 + offset], full[0])

        for size in (0, 1, 31, 32, 33, 63, 64, 65, n - 1):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            assert np.array_equal(project_full(tokens[rows], weights), full[rows])
        rolled = project_full(np.roll(tokens, 5, axis=0), weights)
        assert np.array_equal(rolled, np.roll(full, 5, axis=0))
        assert project_full(np.empty((0, d)), weights).shape == (0, d)


def pairs_of(steps):
    return [(s.fused_tokens, s.fusion_mask) for s in steps]


def check_pairs(pairs, projections):
    """Feed (tokens, mask) pairs, in step order, through one ReuseChecker."""
    checker = ReuseChecker(projections, len(pairs[0][0]))
    return [checker.check(tokens, mask) for tokens, mask in pairs]


class TestReuseCheckerOverRuns:
    @staticmethod
    def run_small_sequence(frame_count=12, keyframe_interval=4, seed=9):
        spec = SynthSpec(
            frame_count=frame_count,
            width=28,
            height=28,
            noise_amplitude=0.08,
            walker=True,
            seed=seed,
        )
        config = FusionConfig(
            width=28, height=28, token_dim=8, top_k=2, keyframe_interval=keyframe_interval
        )
        encoder = ToyEncoder(EncoderSpec(token_dim=8, seed=seed, text_token_count=2, head_count=2))
        return [step for [step] in lockstep(generate_frames(spec), encoder, [config])]

    def test_full_run_is_bit_exact(self):
        steps = self.run_small_sequence()
        projections = ProjectionSet.generate(8, 9)
        checks = check_pairs(pairs_of(steps), projections)
        assert max(c.max_error for c in checks) == 0.0
        assert equivalence_failures(checks) == []

    def test_keyframe_steps_recompute_all_rows(self):
        steps = self.run_small_sequence()
        checks = check_pairs(pairs_of(steps), ProjectionSet.generate(8, 9))
        for result, check in zip(steps, checks):
            if result.is_keyframe:
                assert check.reused_rows == 0
                assert check.max_error == 0.0

    def test_reused_rows_match_fusion_rate(self):
        steps = self.run_small_sequence()
        checks = check_pairs(pairs_of(steps), ProjectionSet.generate(8, 9))
        for result, check in zip(steps, checks):
            assert check.reused_rows / 4 == result.fusion_rate

    def test_savings_match_independent_recount(self):
        steps = self.run_small_sequence()
        checks = check_pairs(pairs_of(steps), ProjectionSet.generate(8, 9))
        recount = sum(
            int(np.count_nonzero(step.fusion_mask == 0)) * 8 * 8 * 3
            for step in steps
        )
        assert sum(c.saved_multiplications for c in checks) == recount

    def test_accepts_token_mask_pairs(self):
        steps = self.run_small_sequence(frame_count=6)
        pairs = [(s.fused_tokens, s.fusion_mask) for s in steps]
        checks = check_pairs(pairs, ProjectionSet.generate(8, 9))
        assert max(c.max_error for c in checks) == 0.0

    def test_corruption_is_reported_with_row_and_matrix(self):
        steps = self.run_small_sequence(frame_count=6, keyframe_interval=100)
        pairs = [[s.fused_tokens.copy(), s.fusion_mask.copy()] for s in steps]
        # Corrupt a reused token row at step 2: the recorded fused row no
        # longer equals the previous row, so the copied projection row is
        # stale there.
        reused_rows = np.nonzero(pairs[2][1] == 0)[0]
        assert reused_rows.size
        target = int(reused_rows[0])
        pairs[2][0][target] += 0.5
        checks = check_pairs(pairs, ProjectionSet.generate(8, 9))
        failures = equivalence_failures(checks)
        assert failures
        assert any(f"row {target}" in failure for failure in failures)
        assert any("step 2" in failure for failure in failures)

    def test_all_ones_masks_reuse_nothing(self):
        # Every row recomputed: unrelated tokens at each step are no gap.
        rng = np.random.default_rng(2)
        ones = np.ones(6, dtype=np.uint8)
        pairs = [(rng.standard_normal((6, 8)), ones) for _ in range(3)]
        checks = check_pairs(pairs, ProjectionSet.generate(8, 2))
        assert [(c.reused_rows, c.saved_multiplications) for c in checks] == [(0, 0)] * 3
        assert [c.max_error for c in checks] == [0.0] * 3
        assert all(c.worst_rows == {} for c in checks)

    def test_all_zeros_mask_with_unchanged_tokens_copies_previous_rows(self):
        tokens = np.random.default_rng(3).standard_normal((6, 8))
        pairs = [(tokens, np.ones(6, dtype=np.uint8)), (tokens, np.zeros(6, dtype=np.uint8))]
        checks = check_pairs(pairs, ProjectionSet.generate(8, 3))
        assert checks[1].reused_rows == 6
        assert checks[1].max_error == 0.0
        assert equivalence_failures(checks) == []

    def test_saved_multiplication_counting(self):
        tokens = np.random.default_rng(4).standard_normal((256, 64))
        mask = np.ones(256, dtype=np.uint8)
        mask[:110] = 0
        pairs = [(tokens, np.ones(256, dtype=np.uint8)), (tokens, mask)]
        checks = check_pairs(pairs, ProjectionSet.generate(64, 4))
        assert checks[1].saved_multiplications == 3 * 110 * 64 * 64 == 1351680
        assert checks[1].max_error == 0.0

    def test_corrupted_reused_row_is_localised(self):
        tokens = np.random.default_rng(5).standard_normal((6, 8))
        changed = tokens.copy()
        changed[3, 2] += 1.0
        pairs = [(tokens, np.ones(6, dtype=np.uint8)), (changed, np.zeros(6, dtype=np.uint8))]
        projections = ProjectionSet.generate(8, 5)
        check = check_pairs(pairs, projections)[1]
        # The copied row 3 misses exactly token entry 2 times weight row 2.
        for name in ("query", "key", "value"):
            weights = getattr(projections, name)
            error = getattr(check, f"{name}_error")
            assert error == pytest.approx(np.abs(weights[2]).max())
        assert check.worst_rows == {"query": 3, "key": 3, "value": 3}

    def test_reuse_at_first_step_rejected(self):
        pairs = [(np.zeros((4, 4)), np.array([0, 1, 1, 1], dtype=np.uint8))]
        with pytest.raises(ValueError, match="step 0: 1 rows marked for reuse"):
            check_pairs(pairs, ProjectionSet.generate(4, 0))

    def test_non_binary_mask_rejected(self):
        # Cast to uint8, 0.5 and 256 would both read as 0 (reuse).
        projections = ProjectionSet.generate(4, 1)
        checker = ReuseChecker(projections, 3)
        rng = np.random.default_rng(0)
        checker.check(rng.standard_normal((3, 4)), np.ones(3))
        with pytest.raises(ValueError, match="step 1: mask entries must be 0 or 1"):
            checker.check(rng.standard_normal((3, 4)), np.array([0.5, 0.0, 256.0]))
        for bad in (np.array([1, 0, 2]), np.array([1.0, -1.0, 0.0]), np.array([np.nan, 1, 1])):
            with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
                ReuseChecker(projections, 3).check(np.zeros((3, 4)), bad)

    def test_bool_and_float_binary_masks_accepted(self):
        projections = ProjectionSet.generate(4, 1)
        tokens = np.random.default_rng(1).standard_normal((3, 4))
        for first, second in ((np.ones(3, dtype=bool), np.array([True, False, True])),
                              (np.ones(3), np.array([1.0, 0.0, 1.0]))):
            checker = ReuseChecker(projections, 3)
            checker.check(tokens, first)
            assert checker.check(tokens, second).reused_rows == 1

    def test_mask_length_mismatch_rejected(self):
        tokens = np.zeros((4, 4))
        pairs = [(tokens, np.ones(4, dtype=np.uint8)), (tokens, np.ones(5, dtype=np.uint8))]
        with pytest.raises(ValueError, match="step 1: mask length"):
            check_pairs(pairs, ProjectionSet.generate(4, 0))

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (12,), (3, 4, 1)])
    def test_tokens_of_another_shape_rejected(self, shape):
        # The checker is built for one (rows, d); a step of another shape is
        # an error, not a reason to reallocate its buffers.
        checker = ReuseChecker(ProjectionSet.generate(4, 0), 3)
        checker.check(np.zeros((3, 4)), np.ones(3))
        with pytest.raises(ValueError) as info:
            checker.check(np.zeros(shape), np.ones(shape[0]))
        assert str(info.value) == f"step 1: tokens are {shape}, expected (3, 4)"


def reference_project_selective(tokens, prev_projection, fusion_mask, weights):
    """The per-matrix selective projection before the shared row split:
    boolean gathers per matrix and a gap computation on every call."""
    values = np.asarray(tokens, dtype=np.float64)
    mask = np.asarray(fusion_mask, dtype=np.uint8)
    n, d = values.shape
    reuse = mask == 0
    reused = int(np.count_nonzero(reuse))
    out = np.empty((n, weights.shape[1]))
    recompute = ~reuse
    if recompute.any():
        out[recompute] = project_full(values[recompute], weights)
    if reused:
        out[reuse] = np.asarray(prev_projection)[reuse]
    gaps = np.abs(out - project_full(values, weights))
    error = float(gaps.max()) if n else 0.0
    worst_row = int(gaps.max(axis=1).argmax()) if error else None
    return out, (reused, reused * d * weights.shape[1], error, worst_row)


def reference_verify(pairs, projections):
    checks = []
    previous = {"query": None, "key": None, "value": None}
    for t, (tokens, mask) in enumerate(pairs):
        ledgers = {}
        for name in ("query", "key", "value"):
            previous[name], ledgers[name] = reference_project_selective(
                tokens, previous[name], mask, getattr(projections, name)
            )
        checks.append(
            EquivalenceCheck(
                timestep=t,
                query_error=ledgers["query"][2],
                key_error=ledgers["key"][2],
                value_error=ledgers["value"][2],
                reused_rows=ledgers["query"][0],
                saved_multiplications=sum(ledger[1] for ledger in ledgers.values()),
                worst_rows={
                    name: ledgers[name][3]
                    for name in ("query", "key", "value")
                    if ledgers[name][3] is not None
                },
            )
        )
    return checks


class TestCheckerMatchesPerMatrixChain:
    """ReuseChecker against a per-matrix selective-projection chain,
    on clean and tampered runs."""

    ROWS, DIM = 12, 8

    def chain(self):
        """(tokens, mask) pairs whose reused rows copy the previous tokens:
        masks all ones, mixed, all zeros, mixed."""
        rng = np.random.default_rng(21)
        masks = [np.ones(self.ROWS, dtype=np.uint8)]
        masks.append((rng.random(self.ROWS) < 0.5).astype(np.uint8))
        masks.append(np.zeros(self.ROWS, dtype=np.uint8))
        masks.append((rng.random(self.ROWS) < 0.5).astype(np.uint8))
        pairs, tokens = [], None
        for mask in masks:
            fresh = rng.standard_normal((self.ROWS, self.DIM))
            tokens = fresh if tokens is None else np.where(mask[:, None] == 1, fresh, tokens)
            pairs.append([tokens.copy(), mask])
        return pairs

    def assert_same(self, pairs):
        projections = ProjectionSet.generate(self.DIM, 4)
        checks = check_pairs(pairs, projections)
        # repr compares NaN errors as equal and tells 0.0 from -0.0.
        assert repr(checks) == repr(reference_verify(pairs, projections))
        return checks

    def test_clean_chain(self):
        pairs = self.chain()
        assert [int(m.sum()) for _, m in pairs][0] == self.ROWS
        assert 0 < int(pairs[1][1].sum()) < self.ROWS
        checks = self.assert_same(pairs)
        assert equivalence_failures(checks) == []
        assert [c.reused_rows for c in checks][2] == self.ROWS

    def test_tampered_reused_row(self):
        pairs = self.chain()
        row = int(np.flatnonzero(pairs[3][1] == 0)[0])
        pairs[3][0][row, 1] += 1e-9
        assert equivalence_failures(self.assert_same(pairs))

    def test_tampered_recomputed_row(self):
        pairs = self.chain()
        row = int(np.flatnonzero(pairs[1][1] == 1)[0])
        pairs[1][0][row, 0] += 0.5
        self.assert_same(pairs)

    def test_nan_token(self):
        for t, row in ((0, 3), (2, 5)):
            pairs = self.chain()
            pairs[t][0][row, 2] = np.nan
            assert equivalence_failures(self.assert_same(pairs))

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
    def test_infinite_token(self):
        pairs = self.chain()
        pairs[0][0][4, 0] = np.inf
        assert equivalence_failures(self.assert_same(pairs))

    def test_negative_zero(self):
        pairs = self.chain()
        # Row 6 is +0.0 where it is first projected and -0.0 where step 2
        # reuses it: the copied and the recomputed rows differ only in signs
        # of zero, which is no gap.
        for tokens, _ in pairs:
            tokens[6] = 0.0
        pairs[2][0][6] = -0.0
        pairs[3][0][6] = -0.0
        checks = self.assert_same(pairs)
        assert equivalence_failures(checks) == []


class TestProjectionSet:
    def test_generation_is_reproducible(self):
        a = ProjectionSet.generate(16, 5)
        b = ProjectionSet.generate(16, 5)
        for name in ("query", "key", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_matrices_differ_from_each_other(self):
        p = ProjectionSet.generate(16, 5)
        assert not np.array_equal(p.query, p.key)
        assert not np.array_equal(p.key, p.value)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ProjectionSet(query=np.zeros((2, 3)), key=np.zeros((2, 3)), value=np.zeros((2, 3)))
