"""Q/K/V projection reuse and its exact-equality verification.

Because the query matrix is the fused tokens times a fixed weight matrix,
any token row reused from the previous step yields a projection row
bit-identical to the previous step's, so the row can be copied instead of
recomputed.  :class:`ReuseChecker` takes a run's fused tokens and fusion
masks one step at a time and checks the shortcut against a full
recomputation; the multiplications that copying avoids follow from the
mask alone (``report.mask_counts``).  Equality is demanded bit-exact,
which requires each output row to be a deterministic function of its own
token row alone.  A plain batched ``x @ W`` does not qualify,
because BLAS may sum a row in a different order depending on how many
rows share the call: at d = 64 a row computed alone differs in the last
bits from the same row inside a batch of 256.  :func:`project_full`
therefore sends every row through the same fixed-shape (32 x d) by
(d x d) product: the rows are viewed as chunks of ``CHUNK_ROWS`` = 32 and
multiplied in one batched call into a preallocated output, and only the
last partial chunk is copied into a zero-padded 32-row buffer.  Copying
all rows into one padded buffer instead would fault in fresh pages on
every call and cost more than the product it feeds.

The check of one step gathers the m recomputed rows (mask 1) once and
shares them by the query, key and value matrices.  For each matrix it
projects those m rows into the previous step's projection in place, so the
reused rows keep their copied values, then projects all n rows densely and
compares the two with an exact equality test; the per-row gaps that locate
a failure are computed only when that test fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prng import SplitMix64

# Rows per fixed-shape product in project_full.
CHUNK_ROWS = 32


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


def project_full(tokens, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dense projection, output row i = token row i times the weight matrix.

    Every row goes through the same fixed-shape (32 x d) by (d x d) BLAS
    product, so output row i depends on token row i alone, bit for bit,
    whatever other rows are in the batch and however the input is laid out
    in memory.  Whole chunks of ``CHUNK_ROWS`` rows are multiplied in place
    as a ``(m // 32, 32, d)`` view; only the tail chunk is padded with zero
    rows, so no full padded copy of the input is made.  One batched
    ``values @ weights`` would not be row-invariant: its per-row summation
    order can change with the row count (see the module docstring).  With
    ``out`` given, a C-contiguous float64 (m, width) array, the product is
    written there instead of a new array.
    """
    values = np.asarray(tokens, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if values.ndim != 2 or weights.ndim != 2 or values.shape[1] != weights.shape[0]:
        raise ValueError(f"shape mismatch: tokens {values.shape} vs weights {weights.shape}")
    values = np.ascontiguousarray(values)
    (m, d), width = values.shape, weights.shape[1]
    if out is None:
        out = np.empty((m, width))
    elif out.shape != (m, width) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 {(m, width)} array")
    whole = m - m % CHUNK_ROWS
    if whole:
        np.matmul(
            values[:whole].reshape(-1, CHUNK_ROWS, d),
            weights,
            out=out[:whole].reshape(-1, CHUNK_ROWS, width),
        )
    if whole < m:
        tail = np.zeros((1, CHUNK_ROWS, d))
        tail[0, : m - whole] = values[whole:]
        out[whole:] = np.matmul(tail, weights)[0, : m - whole]
    return out


def gather_rows(values: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``values[rows]`` for an index array ``rows``, written into the head
    of ``out``.  A row outside [0, len(values)) raises ``IndexError``; it is
    checked here because ``np.take``, in the mode that would check it,
    gathers into a new array first."""
    if rows.size and (rows.min() < 0 or rows.max() >= len(values)):
        raise IndexError(f"row index out of range [0, {len(values)})")
    return np.take(values, rows, axis=0, out=out[: len(rows)], mode="clip")


def check_scratch(rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The scratch a :class:`ReuseChecker` of ``rows`` x ``dim`` tokens
    checks in: a buffer for the full products and one for the gathered
    recomputed rows.  No check reads what an earlier one left there, so
    checkers whose checks never overlap, like the points of one run, may
    share one."""
    return np.empty((rows, dim)), np.empty((rows, dim))


class ReuseChecker:
    """The Q/K/V reuse check of one run, fed one step at a time.

    Each :meth:`check` compares the selective projection of a step, chained
    on the previous step's selective projection, bit-exactly with the full
    product; only that previous projection is kept between steps, so a
    stream of steps can be checked as it is produced.

    The chained projections are allocated here for tokens of ``rows`` x d,
    the one shape every check takes, and ``scratch`` is the
    :func:`check_scratch` of that shape the checks run in (a new one when
    None), so a check allocates no array of that size.  The recomputed
    rows' projection is written into the head of the full products' buffer,
    which the full product overwrites only after those rows are copied out.
    """

    def __init__(
        self,
        projections: ProjectionSet,
        rows: int,
        scratch: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        self.projections = projections
        self.timestep = 0
        self.shape = (rows, projections.dim)
        self._selective = {name: np.empty(self.shape) for name in ("query", "key", "value")}
        if scratch is None:
            scratch = check_scratch(*self.shape)
        if any(a.shape != self.shape or a.dtype != np.float64 for a in scratch):
            raise ValueError(f"scratch is no check_scratch of {self.shape} tokens")
        self._reference, self._rows = scratch

    def check(self, tokens, mask) -> tuple[dict[str, float], list[str]]:
        """Check the next step: its fused token rows (n x d) and fusion mask
        (n entries, 1 = recomputed, 0 = reused from the previous step).

        Returns the max-norm gap of each matrix, keyed ``query_error``,
        ``key_error`` and ``value_error`` as in the step's report record,
        and a line ``step {t}: {matrix} row {row} reuse error {err:.3e}``
        for each nonzero gap, naming its worst row.  ``ValueError`` is
        raised for tokens of another shape than the checker's, for a mask of
        the wrong length or with an entry other than 0 or 1, and for reused
        rows at step 0, which has no previous projection to copy them from.
        """
        t = self.timestep
        values = np.asarray(tokens, dtype=np.float64)
        if values.shape != self.shape:
            raise ValueError(f"step {t}: tokens are {values.shape}, expected {self.shape}")
        n = len(values)
        mask = np.asarray(mask)
        if mask.shape != (n,):
            raise ValueError(f"step {t}: mask length {mask.shape} does not match {n} rows")
        # A cast would silently read 0.5 or 256 as a flag.
        if mask.dtype != np.bool_ and not ((mask == 0) | (mask == 1)).all():
            raise ValueError(f"step {t}: mask entries must be 0 or 1")
        recompute = np.flatnonzero(mask)
        reused = n - recompute.size
        if reused and t == 0:
            raise ValueError(
                f"step 0: {reused} rows marked for reuse, but there is no previous "
                "projection to copy them from"
            )
        rows = values
        if reused:
            rows = gather_rows(values, recompute, self._rows)
        errors: dict[str, float] = {}
        failures: list[str] = []
        for name in ("query", "key", "value"):
            weights = getattr(self.projections, name)
            selective = self._selective[name]
            if not reused:
                project_full(rows, weights, out=selective)
            elif recompute.size:
                # Only the recomputed rows are projected; the reused ones
                # keep the previous step's values.
                out = self._reference[: recompute.size]
                selective[recompute] = project_full(rows, weights, out=out)
            reference = project_full(values, weights, out=self._reference)
            error, row = _gap(selective, reference)
            errors[f"{name}_error"] = error
            if row is not None:
                failures.append(f"step {t}: {name} row {row} reuse error {error:.3e}")
        self.timestep = t + 1
        return errors, failures


def _gap(selective: np.ndarray, reference: np.ndarray) -> tuple[float, int | None]:
    """The max-norm gap between a selective projection and the full one,
    and the row of that gap (None when the gap is 0)."""
    # Equal arrays have gap 0 everywhere, except that an infinite entry
    # gives inf - inf = NaN; such arrays and every unequal one (NaN entries
    # included) take the full gap computation.
    if np.array_equal(selective, reference) and not np.isinf(selective).any():
        return 0.0, None
    gaps = np.abs(selective - reference)
    return float(gaps.max()), int(gaps.max(axis=1).argmax())
