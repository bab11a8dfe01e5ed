"""Momentum (temporal-ensembling) update of the pseudo-condition table.

The table is a plain (n_samples, N_CLASSES) float64 array, one condition
vector per dataset row; training starts it at zero.
"""

from __future__ import annotations

import numpy as np


def ensemble_update(table: np.ndarray, idx, y_phi: np.ndarray, alpha: float) -> np.ndarray:
    """Momentum update y <- alpha * y + (1 - alpha) * y_phi of rows `idx`, in place."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    idx_arr = np.atleast_1d(np.asarray(idx))
    n_samples, cond_dim = table.shape
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
        table[i] = alpha * table[i] + (1.0 - alpha) * y_phi[rows]
        pending = np.delete(pending, first)
    return table
