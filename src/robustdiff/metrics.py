"""Toy-benchmark metrics: nearest-neighbor MAE and centroid controllability.

MAE definition used throughout: for each generated point, find the nearest
clean reference point of the same class (Euclidean), take the mean absolute
difference across the two axes, then average over generated points. Per-class
values are averaged by the caller. Absolute numbers depend on the cluster
layout, so comparisons should always be relative (method vs baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np


def mae(generated: np.ndarray, reference_clean: np.ndarray) -> float:
    """Per-axis mean absolute deviation to the nearest clean reference point."""
    gen = np.atleast_2d(np.asarray(generated, dtype=np.float64))
    ref = np.atleast_2d(np.asarray(reference_clean, dtype=np.float64))
    if gen.shape[0] == 0 or ref.shape[0] == 0:
        raise ValueError("generated and reference sets must be non-empty")
    total = 0.0
    # Chunk the distance matrix to keep memory flat for large sets.
    for lo in range(0, gen.shape[0], 512):
        chunk = gen[lo : lo + 512]
        # Squared distances summed axis by axis on (chunk, ref) arrays.
        d2 = (chunk[:, :1] - ref[:, 0]) ** 2
        for a in range(1, gen.shape[1]):
            d2 += (chunk[:, a : a + 1] - ref[:, a]) ** 2
        nearest = ref[np.argmin(d2, axis=1)]
        total += np.abs(chunk - nearest).mean(axis=1).sum()
    return float(total / gen.shape[0])


@dataclass
class CentroidClassifier:
    centroids: np.ndarray  # (n_classes, 2)

    def predict(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        d2 = ((pts[:, None, :] - self.centroids[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)


def fit_centroids(pts: np.ndarray, labels: np.ndarray, n_classes: int) -> CentroidClassifier:
    """Class-mean centroids over clean data; every class must be present."""
    pts = np.asarray(pts, dtype=np.float64)
    labels = np.asarray(labels)
    cents = np.zeros((n_classes, pts.shape[1]))
    for c in range(n_classes):
        mask = labels == c
        if not mask.any():
            raise ValueError(f"class {c} missing from the reference data")
        cents[c] = pts[mask].mean(axis=0)
    return CentroidClassifier(cents)


def controllability_acc(
    generated_per_class: dict[int, np.ndarray], classifier: CentroidClassifier
) -> float:
    """Fraction of generated points landing nearest their conditioning class."""
    hits = 0
    total = 0
    for c in sorted(generated_per_class):
        preds = classifier.predict(generated_per_class[c])
        hits += int((preds == c).sum())
        total += len(preds)
    return hits / total


# ---------------------------------------------------------------------------
# Results records
# ---------------------------------------------------------------------------

RESULT_HEADER = "variant,noise,eta,seed,mae,controllability"


@dataclass(frozen=True)
class RunResult:
    variant: str
    noise: str
    eta: float
    seed: int
    mae: float
    controllability: float

    def line(self) -> str:
        return (
            f"{self.variant},{self.noise},{self.eta:g},{self.seed},"
            f"{self.mae:.6f},{self.controllability:.6f}"
        )


def parse_result_line(line: str) -> RunResult:
    variant, noise, eta, seed, m, acc = line.strip().split(",")
    return RunResult(variant, noise, float(eta), int(seed), float(m), float(acc))


def write_results(path, results: list[RunResult]) -> None:
    with open(path, "w") as f:
        f.write(RESULT_HEADER + "\n")
        for r in results:
            f.write(r.line() + "\n")


def read_results(path) -> list[RunResult]:
    out = []
    with open(path) as f:
        header = f.readline().strip()
        if header != RESULT_HEADER:
            raise ValueError("bad results header")
        for line in f:
            if line.strip():
                out.append(parse_result_line(line))
    return out


def cell_medians(results: list[RunResult]) -> dict[tuple, tuple[float, float]]:
    """Median (mae, controllability) per (variant, noise, eta) cell over seeds."""
    cells: dict[tuple, list[RunResult]] = {}
    for r in results:
        cells.setdefault((r.variant, r.noise, r.eta), []).append(r)
    return {
        key: (median(r.mae for r in rs), median(r.controllability for r in rs))
        for key, rs in cells.items()
    }
