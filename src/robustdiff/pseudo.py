"""Momentum (temporal-ensembling) update of the pseudo-condition table.

The table is a plain (n_samples, N_CLASSES) float64 array, one condition
vector per dataset row; training starts it at zero.
"""

from __future__ import annotations

import numpy as np


def ensemble_update(table: np.ndarray, idx: np.ndarray, y_phi: np.ndarray,
                    alpha: float) -> None:
    """Momentum update y <- alpha * y + (1 - alpha) * y_phi of rows `idx`, in
    place: `idx` (B,) holds table rows and `y_phi` (B, C) one estimate each."""
    # The update runs in the table's float64; pc_only's estimate is float32.
    y_phi = np.asarray(y_phi, dtype=np.float64)
    # In rounds: each applies the earliest pending occurrence of every index
    # at once, so an index repeated in the batch is updated once per
    # occurrence, in batch order, as a row-by-row loop would.
    pending = np.arange(idx.size)
    while pending.size:
        _, first = np.unique(idx[pending], return_index=True)
        rows = pending[first]
        i = idx[rows]
        table[i] = alpha * table[i] + (1.0 - alpha) * y_phi[rows]
        pending = np.delete(pending, first)
