"""Toy-benchmark metrics: nearest-neighbor MAE and centroid controllability.

MAE definition used throughout: for each generated point, find the nearest
clean reference point of the same class (Euclidean), take the mean absolute
difference across the two axes, then average over generated points. Per-class
values are averaged by the caller. Absolute numbers depend on the cluster
layout, so comparisons should always be relative (method vs baseline).
"""

from __future__ import annotations

from statistics import median

import numpy as np

from .data import N_CLASSES

# Squared distances held at once by `mae`: 2**16 float64 entries, 512 KiB
# per array, so a block and its scratch array fit in a 2 MB L2 cache.
DIST_BLOCK = 2**16


def mae(gen: np.ndarray, ref: np.ndarray) -> float:
    """Per-axis mean absolute deviation of the generated points `gen` to the
    nearest of the clean reference points `ref`.

    Memory: the nearest-reference search runs over blocks of generated rows
    and holds one block of squared distances plus one scratch array of the
    same size: at most `DIST_BLOCK` entries each whatever the number of
    generated points, and one row of n_ref entries when n_ref exceeds it.

    The nearest reference is the first at the minimum (`argmin`) of the
    squared distances, summed axis by axis. Each point's |Δ| averaged over
    the axes goes into one sum over all points, within 1e-15 relative of a
    sum taken chunk by chunk.
    """
    n_gen, n_ref = gen.shape[0], ref.shape[0]
    rows = max(1, min(n_gen, DIST_BLOCK // n_ref))
    d2_buf = np.empty((rows, n_ref))
    sq_buf = np.empty((rows, n_ref))
    nearest = np.empty(n_gen, dtype=np.intp)
    for lo in range(0, n_gen, rows):
        block = gen[lo : lo + rows]
        d2, sq = d2_buf[: len(block)], sq_buf[: len(block)]
        np.subtract(block[:, :1], ref[:, 0], out=d2)
        np.square(d2, out=d2)
        for a in range(1, gen.shape[1]):
            np.subtract(block[:, a : a + 1], ref[:, a], out=sq)
            np.square(sq, out=sq)
            d2 += sq
        np.argmin(d2, axis=1, out=nearest[lo : lo + len(block)])
    return float(np.abs(gen - ref[nearest]).mean(axis=1).sum() / n_gen)


def fit_centroids(pts: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Class-mean centroids (N_CLASSES, 2) over clean data; every class must be present."""
    cents = np.zeros((N_CLASSES, pts.shape[1]))
    for c in range(N_CLASSES):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"class {c} missing from the reference data")
        cents[c] = pts[mask].mean(axis=0)
    return cents


def controllability_acc(generated_per_class: dict[int, np.ndarray], centroids: np.ndarray) -> float:
    """Fraction of generated points nearest the centroid of their conditioning class."""
    hits = 0
    total = 0
    for c, pts in sorted(generated_per_class.items()):
        preds = np.argmin(((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1)
        hits += int((preds == c).sum())
        total += len(preds)
    return hits / total


def cell_medians(rows) -> dict[tuple, tuple[float, float]]:
    """Median (mae, controllability) per (variant, noise, eta) cell over seeds,
    from rows (variant, noise, eta, seed, mae, controllability)."""
    cells: dict[tuple, list[tuple]] = {}
    for row in rows:
        cells.setdefault(row[:3], []).append(row[4:])
    return {key: tuple(median(col) for col in zip(*scores)) for key, scores in cells.items()}
