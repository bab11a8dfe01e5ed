"""Per-sample pseudo-condition table and its momentum (temporal-ensembling) update."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PseudoTable:
    """One condition vector per dataset index, refined by moving averages."""

    entries: np.ndarray  # (n_samples, cond_dim)
    update_count: np.ndarray  # (n_samples,)


def init_pseudo(dataset_size: int, cond_dim: int) -> PseudoTable:
    """Every sample starts from the same all-zero condition."""
    if dataset_size < 1 or cond_dim < 1:
        raise ValueError("dataset_size and cond_dim must be positive")
    return PseudoTable(
        np.zeros((dataset_size, cond_dim)), np.zeros(dataset_size, dtype=np.int64)
    )


def ensemble_update(table: PseudoTable, idx, y_phi: np.ndarray, alpha: float) -> PseudoTable:
    """Momentum update y <- alpha * y + (1 - alpha) * y_phi, in place."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    idx_arr = np.atleast_1d(np.asarray(idx))
    n_samples, cond_dim = table.entries.shape
    if np.any(idx_arr < 0) or np.any(idx_arr >= n_samples):
        raise IndexError("pseudo-table index out of range")
    y_phi = np.asarray(y_phi, dtype=np.float64).reshape(idx_arr.size, cond_dim)
    if not np.all(np.isfinite(y_phi)):
        raise ValueError("pseudo-condition update must be finite")
    # In rounds: each applies the earliest pending occurrence of every index
    # at once, so an index repeated in the batch is updated once per
    # occurrence, in batch order, as a row-by-row loop would.
    pending = np.arange(idx_arr.size)
    while pending.size:
        _, first = np.unique(idx_arr[pending], return_index=True)
        rows = pending[first]
        i = idx_arr[rows]
        table.entries[i] = alpha * table.entries[i] + (1.0 - alpha) * y_phi[rows]
        table.update_count[i] += 1
        pending = np.delete(pending, first)
    return table

