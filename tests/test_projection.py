import numpy as np
import pytest

from ttfusion.fusion import FusionConfig
from ttfusion.projection import (
    EquivalenceCheck,
    ProjectionSet,
    equivalence_failures,
    project_full,
    project_selective,
    verify_equivalence,
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


class TestProjectSelective:
    def test_all_ones_matches_full_with_no_reuse(self):
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((6, 8))
        weights = rng.standard_normal((8, 8))
        out, ledger = project_selective(tokens, None, np.ones(6, dtype=np.uint8), weights)
        assert np.array_equal(out, project_full(tokens, weights))
        assert (ledger.reused_rows, ledger.recomputed_rows) == (0, 6)
        assert ledger.saved_multiplications == 0
        assert ledger.max_row_error == 0.0

    def test_all_zeros_with_unchanged_tokens_copies_previous(self):
        rng = np.random.default_rng(3)
        tokens = rng.standard_normal((6, 8))
        weights = rng.standard_normal((8, 8))
        prev = project_full(tokens, weights)
        out, ledger = project_selective(tokens, prev, np.zeros(6, dtype=np.uint8), weights)
        assert np.array_equal(out, prev)
        assert ledger.max_row_error == 0.0
        assert ledger.reused_rows == 6

    def test_saved_multiplication_counting(self):
        rng = np.random.default_rng(4)
        tokens = rng.standard_normal((256, 64))
        weights = rng.standard_normal((64, 64))
        mask = np.ones(256, dtype=np.uint8)
        mask[:110] = 0
        prev = project_full(tokens, weights)
        _, ledger = project_selective(tokens, prev, mask, weights)
        assert ledger.saved_multiplications == 110 * 64 * 64 == 450560

    def test_missing_previous_projection_rejected(self):
        tokens = np.zeros((4, 4))
        with pytest.raises(ValueError):
            project_selective(tokens, None, np.array([0, 1, 1, 1], dtype=np.uint8), np.eye(4))

    def test_previous_projection_left_unchanged(self):
        rng = np.random.default_rng(7)
        tokens = rng.standard_normal((6, 8))
        weights = rng.standard_normal((8, 8))
        prev = np.ones((6, 8))
        mask = np.array([1, 0, 1, 0, 0, 1], dtype=np.uint8)
        out, _ = project_selective(tokens, prev, mask, weights)
        assert np.array_equal(prev, np.ones((6, 8)))
        assert np.array_equal(out[[0, 2, 5]], project_full(tokens, weights)[[0, 2, 5]])
        assert np.array_equal(out[[1, 3, 4]], np.ones((3, 8)))

    def test_corrupted_previous_row_is_localised(self):
        rng = np.random.default_rng(5)
        tokens = rng.standard_normal((6, 8))
        weights = rng.standard_normal((8, 8))
        prev = project_full(tokens, weights)
        prev[3, 2] += 1.0
        out, ledger = project_selective(tokens, prev, np.zeros(6, dtype=np.uint8), weights)
        assert ledger.max_row_error == pytest.approx(1.0)
        assert ledger.worst_row == 3
        reference = project_full(tokens, weights)
        differing_rows = np.nonzero((out != reference).any(axis=1))[0]
        assert list(differing_rows) == [3]


class TestVerifyEquivalence:
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
        from ttfusion.fusion import run_sequence

        return run_sequence(generate_frames(spec), encoder, config)

    def test_full_run_is_bit_exact(self):
        sequence = self.run_small_sequence()
        projections = ProjectionSet.generate(8, 9)
        checks = verify_equivalence(sequence.steps, projections)
        assert max(c.max_error for c in checks) == 0.0
        assert equivalence_failures(checks) == []

    def test_keyframe_steps_recompute_all_rows(self):
        sequence = self.run_small_sequence()
        checks = verify_equivalence(sequence.steps, ProjectionSet.generate(8, 9))
        for result, check in zip(sequence.steps, checks):
            if result.is_keyframe:
                assert check.reused_rows == 0
                assert check.max_error == 0.0

    def test_reused_rows_match_fusion_rate(self):
        sequence = self.run_small_sequence()
        checks = verify_equivalence(sequence.steps, ProjectionSet.generate(8, 9))
        for result, check in zip(sequence.steps, checks):
            assert check.reused_rows / 4 == result.fusion_rate

    def test_savings_match_independent_recount(self):
        sequence = self.run_small_sequence()
        checks = verify_equivalence(sequence.steps, ProjectionSet.generate(8, 9))
        recount = sum(
            int(np.count_nonzero(step.fusion_mask == 0)) * 8 * 8 * 3
            for step in sequence.steps
        )
        assert sum(c.saved_multiplications for c in checks) == recount

    def test_accepts_token_mask_pairs(self):
        sequence = self.run_small_sequence(frame_count=6)
        pairs = [(s.fused_tokens.values, s.fusion_mask) for s in sequence.steps]
        checks = verify_equivalence(pairs, ProjectionSet.generate(8, 9))
        assert max(c.max_error for c in checks) == 0.0

    def test_corruption_is_reported_with_row_and_matrix(self):
        sequence = self.run_small_sequence(frame_count=6, keyframe_interval=100)
        pairs = [[s.fused_tokens.values.copy(), s.fusion_mask.copy()] for s in sequence.steps]
        # Corrupt a reused token row at step 2: the recorded fused row no
        # longer equals the previous row, so the copied projection row is
        # stale there.
        reused_rows = np.nonzero(pairs[2][1] == 0)[0]
        assert reused_rows.size
        target = int(reused_rows[0])
        pairs[2][0][target] += 0.5
        checks = verify_equivalence(pairs, ProjectionSet.generate(8, 9))
        failures = equivalence_failures(checks)
        assert failures
        assert any(f"row {target}" in failure for failure in failures)
        assert any("step 2" in failure for failure in failures)


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


class TestVerifyMatchesPerMatrixChain:
    """verify_equivalence against the per-matrix project_selective chain it
    replaced, on clean and tampered runs."""

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
        checks = verify_equivalence(pairs, projections)
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
        # BLAS sums zeros to +0.0, so a -0.0 projection row can only come
        # from the caller: a copied -0.0 against a recomputed +0.0 is no gap.
        tokens, mask = pairs[2]
        weights = ProjectionSet.generate(self.DIM, 4).key
        prev = project_full(tokens, weights)
        prev[6] = -0.0
        out, ledger = project_selective(tokens, prev, mask, weights)
        _, (_, _, error, worst_row) = reference_project_selective(tokens, prev, mask, weights)
        assert (ledger.max_row_error, ledger.worst_row) == (error, worst_row) == (0.0, None)
        assert np.signbit(out[6]).all()


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
