"""Selective Q/K/V projection reuse and its exact-equality verification.

Because the query matrix is the fused tokens times a fixed weight matrix,
any token row reused from the previous step yields a projection row
bit-identical to the previous step's, so the row can be copied instead of
recomputed.  This module performs that selective reuse, counts the
multiplications it avoids, and checks the shortcut against a full
recomputation.  Equality is demanded bit-exact, which requires each output
row to be a deterministic function of its own token row alone:
:func:`project_full` computes every row as its own fixed-shape (1 x d) by
(d x d) BLAS product.  A plain batched ``x @ W`` does not qualify, because
BLAS may sum a row in a different order depending on how many rows share
the call: at d = 64 a row computed alone differs in the last bits from the
same row inside a batch of 256.

The check of one step splits its rows by the fusion mask once and shares
that split by the query, key and value projections.  For each matrix it
projects the m recomputed rows, copies the reused rows from the previous
step's result, projects all n rows densely, and compares the two with an
exact equality test; the per-row gaps that locate a failure are computed
only when that test fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .prng import SplitMix64


@dataclass(frozen=True)
class ProjectionSet:
    """Fixed query/key/value weight matrices (d x d) for a sequence."""

    query: np.ndarray
    key: np.ndarray
    value: np.ndarray

    def __post_init__(self) -> None:
        for name in ("query", "key", "value"):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError(f"{name} weights must be square")
            if not np.isfinite(w).all():
                raise ValueError(f"{name} weights contain non-finite values")
            object.__setattr__(self, name, w)
        if not (self.query.shape == self.key.shape == self.value.shape):
            raise ValueError("projection matrices must share one shape")

    @property
    def dim(self) -> int:
        return self.query.shape[0]

    @classmethod
    def generate(cls, dim: int, seed: int) -> "ProjectionSet":
        """Seeded matrices: query, key, value filled row-major in that order,
        entries mapped from [0, 1) to [-1, 1)."""
        stream = SplitMix64(seed)

        def draw() -> np.ndarray:
            return (2.0 * stream.float_block(dim * dim) - 1.0).reshape(dim, dim)

        return cls(query=draw(), key=draw(), value=draw())


@dataclass
class ReuseLedger:
    """Accounting for one selective projection: rows copied vs recomputed.

    ``saved_multiplications`` counts ``reused_rows * d * d`` for this one
    projection; ``max_row_error`` is the max-norm gap against the full
    recomputation (0 whenever arithmetic order is shared).
    """

    reused_rows: int
    recomputed_rows: int
    saved_multiplications: int
    max_row_error: float
    worst_row: int | None = None


@dataclass
class EquivalenceCheck:
    """Per-step verification record for the three projections."""

    timestep: int
    query_error: float
    key_error: float
    value_error: float
    reused_rows: int
    saved_multiplications: int
    worst_rows: dict = field(default_factory=dict)

    @property
    def max_error(self) -> float:
        return max(self.query_error, self.key_error, self.value_error)


def _token_values(tokens) -> np.ndarray:
    values = getattr(tokens, "values", tokens)
    return np.asarray(values, dtype=np.float64)


def project_full(tokens, weights: np.ndarray) -> np.ndarray:
    """Dense projection, output row i = token row i times the weight matrix.

    Each row is its own fixed-shape (1 x d) by (d x d) product, so output
    row i depends on token row i alone, bit for bit, whatever other rows
    are in the batch and however the input is laid out in memory.  One
    batched ``values @ weights`` would not be: its per-row summation order
    can change with the row count (see the module docstring).
    """
    values = _token_values(tokens)
    weights = np.asarray(weights, dtype=np.float64)
    if values.ndim != 2 or weights.ndim != 2 or values.shape[1] != weights.shape[0]:
        raise ValueError(f"shape mismatch: tokens {values.shape} vs weights {weights.shape}")
    return np.matmul(np.ascontiguousarray(values)[:, None, :], weights)[:, 0, :]


def project_selective(
    tokens_fused,
    prev_projection: np.ndarray | None,
    fusion_mask: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, ReuseLedger]:
    """Copy projection rows for reused patches, recompute the rest.

    Rows with mask 0 are taken from ``prev_projection`` (which must be the
    same weights applied to the previous fused tokens); rows with mask 1 go
    through the same per-row arithmetic as :func:`project_full`.  The ledger
    records the row split, the multiplications avoided, and the max-norm gap
    against a full recomputation of ``tokens_fused``.  ``prev_projection``
    is not modified.
    """
    if prev_projection is not None:
        prev_projection = np.array(prev_projection, dtype=np.float64)
    return _RowSplit(tokens_fused, fusion_mask).project(prev_projection, weights)


class _RowSplit:
    """One step's token rows split by its fusion mask into recomputed rows
    (mask 1) and reused rows (mask 0), built once and shared by the query,
    key and value projections of the step."""

    def __init__(self, tokens, fusion_mask) -> None:
        self.values = _token_values(tokens)
        mask = np.asarray(fusion_mask, dtype=np.uint8)
        n = self.values.shape[0]
        if mask.shape != (n,):
            raise ValueError(f"mask length {mask.shape} does not match {n} rows")
        self.recompute = np.flatnonzero(mask)
        self.reused = n - self.recompute.size
        self.rows = self.values[self.recompute] if self.reused else self.values

    def project(
        self, prev_projection: np.ndarray | None, weights: np.ndarray
    ) -> tuple[np.ndarray, ReuseLedger]:
        """The selective projection and its ledger, as :func:`project_selective`
        describes, except that the recomputed rows are written into
        ``prev_projection`` (a float64 array) in place."""
        n, d = self.values.shape
        width = weights.shape[1]
        if not self.reused:
            out = project_full(self.rows, weights)
        elif prev_projection is None:
            raise ValueError(
                f"{self.reused} rows marked for reuse but no previous projection given"
            )
        elif prev_projection.shape != (n, width):
            raise ValueError(
                f"previous projection is {prev_projection.shape}, expected {(n, width)}"
            )
        else:
            out = prev_projection
            if self.recompute.size:
                out[self.recompute] = project_full(self.rows, weights)
        reference = project_full(self.values, weights)
        # Equal arrays have gap 0 everywhere, except that an infinite entry
        # gives inf - inf = NaN; such arrays and every unequal one (NaN
        # entries included) take the full gap computation.
        if np.array_equal(out, reference) and not np.isinf(out).any():
            error, worst_row = 0.0, None
        else:
            gaps = np.abs(out - reference)
            error = float(gaps.max())
            worst_row = int(gaps.max(axis=1).argmax())
        ledger = ReuseLedger(
            reused_rows=self.reused,
            recomputed_rows=n - self.reused,
            saved_multiplications=self.reused * d * width,
            max_row_error=error,
            worst_row=worst_row,
        )
        return out, ledger


def _fused_and_mask(item) -> tuple:
    if hasattr(item, "fused_tokens"):
        return item.fused_tokens, item.fusion_mask
    tokens, mask = item
    return tokens, mask


def verify_equivalence(steps, projections: ProjectionSet) -> list[EquivalenceCheck]:
    """Replay a recorded run, checking selective reuse against recomputation.

    ``steps`` is a sequence of fusion step results, or of ``(tokens, mask)``
    pairs in step order starting at the sequence head.  For each step and
    each of the three projections, the selective result (chained on the
    previous step's selective result) is compared bit-exactly to the full
    product; any gap is reported with its step and matrix identity.  Each
    step's row split is made once for all three projections, and each
    previous projection is overwritten by its successor as soon as that
    matrix is checked.
    """
    checks: list[EquivalenceCheck] = []
    previous: dict[str, np.ndarray | None] = {"query": None, "key": None, "value": None}
    for t, item in enumerate(steps):
        split = _RowSplit(*_fused_and_mask(item))
        ledgers: dict[str, ReuseLedger] = {}
        for name in ("query", "key", "value"):
            previous[name], ledgers[name] = split.project(
                previous[name], getattr(projections, name)
            )
        checks.append(
            EquivalenceCheck(
                timestep=t,
                query_error=ledgers["query"].max_row_error,
                key_error=ledgers["key"].max_row_error,
                value_error=ledgers["value"].max_row_error,
                reused_rows=ledgers["query"].reused_rows,
                saved_multiplications=sum(l.saved_multiplications for l in ledgers.values()),
                worst_rows={
                    name: ledgers[name].worst_row
                    for name in ("query", "key", "value")
                    if ledgers[name].worst_row is not None
                },
            )
        )
    return checks


def equivalence_failures(checks: list[EquivalenceCheck]) -> list[str]:
    """Human-readable descriptions of every nonzero reuse error."""
    failures = []
    for check in checks:
        for name, err in (
            ("query", check.query_error),
            ("key", check.key_error),
            ("value", check.value_error),
        ):
            if err != 0.0:
                row = check.worst_rows.get(name)
                failures.append(f"step {check.timestep}: {name} row {row} reuse error {err:.3e}")
    return failures
