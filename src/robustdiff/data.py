"""Synthetic four-class 2-D dataset, label-noise injection, the
point-record files (datasets and samples), and `write_table`, the one CSV
writer of the package: the point records and the sweep's tables go through it.
A samples file holds a dict {class id: that class's points (n_c, X_DIM)},
the form in which sampling makes them and evaluation scores them.

A dataset is one `Dataset` of three row-aligned arrays: `points` (n, X_DIM)
float64, and the `clean` and `noisy` class ids (n,) int64 in 0..N_CLASSES-1.
Row i is sample i: the pseudo-condition table and every batch index it by row
number. X_DIM and N_CLASSES fix the problem's shape: the network's point and
condition widths follow from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

X_DIM = 2
N_CLASSES = 4
# Four Gaussian blobs, one per quadrant. Class order: (+,+), (-,+), (-,-), (+,-).
CENTROIDS = np.array([[2.5, 2.5], [-2.5, 2.5], [-2.5, -2.5], [2.5, -2.5]])
BLOB_STD = 0.375
# The EDM sigma_data (Karras et al. 2022): the layout's per-coordinate std,
# sqrt(2.5^2 + BLOB_STD^2) ~ 2.53, rounded.
SIGMA_DATA = 2.5
# Similar-class pair flips for asymmetric noise: neighbors along x.
PAIR_MAP = {0: 1, 1: 0, 2: 3, 3: 2}


@dataclass(frozen=True)
class Dataset:
    """n labelled points. Noise injection returns a new Dataset that shares
    `points` and `clean` with its source and has its own `noisy`."""

    points: np.ndarray  # (n, X_DIM) float64
    clean: np.ndarray  # (n,) int64
    noisy: np.ndarray  # (n,) int64

    def __post_init__(self):
        n = len(self.points)
        if self.points.shape != (n, X_DIM) or self.clean.shape != (n,) or self.noisy.shape != (n,):
            raise ValueError(f"points, clean and noisy must be (n, {X_DIM}), (n,) and (n,) arrays")
        for name, labels in (("clean", self.clean), ("noisy", self.noisy)):
            if n and not (labels.min() >= 0 and labels.max() < N_CLASSES):
                raise ValueError(f"{name} labels span {labels.min()}..{labels.max()}; "
                                 f"expected 0..{N_CLASSES - 1}")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "symmetric" | "asymmetric"
    eta: float
    seed: int

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError("kind must be symmetric or asymmetric")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")


def make_toy_dataset(n_per_class: int, seed: int) -> Dataset:
    """An isotropic Gaussian blob of std BLOB_STD around each of CENTROIDS,
    in class order; noisy labels start out clean."""
    rng = np.random.default_rng(seed)
    pts = np.empty((N_CLASSES * n_per_class, X_DIM))
    for c in range(N_CLASSES):
        rows = slice(c * n_per_class, (c + 1) * n_per_class)
        pts[rows] = CENTROIDS[c] + BLOB_STD * rng.standard_normal((n_per_class, X_DIM))
    clean = np.repeat(np.arange(N_CLASSES, dtype=np.int64), n_per_class)
    return Dataset(pts, clean, clean.copy())


def inject_noise(samples: Dataset, spec: NoiseSpec) -> Dataset:
    """Each label flips with probability spec.eta: under symmetric noise
    uniformly to one of the other classes, under asymmetric noise to its
    PAIR_MAP partner."""
    rng = np.random.default_rng(spec.seed)
    noisy = samples.clean.copy()
    if spec.kind == "symmetric":
        others = {c: [o for o in range(N_CLASSES) if o != c] for c in range(N_CLASSES)}
        # One draw per row, plus a destination draw after each flip: the
        # interleaving is the RNG stream, so the rows are walked in order.
        for i, c in enumerate(samples.clean.tolist()):
            if rng.random() < spec.eta:
                noisy[i] = others[c][rng.integers(len(others[c]))]
    else:
        # One uniform per row, in row order: the same stream as scalar draws.
        flip = np.flatnonzero(rng.random(len(samples)) < spec.eta)
        noisy[flip] = [PAIR_MAP[c] for c in samples.clean[flip].tolist()]
    return Dataset(samples.points, samples.clean, noisy)


def noisy_labels(samples: Dataset) -> np.ndarray:
    # Read only by perfbench/run.py; it goes with ROADMAP direction 2.
    return samples.noisy


DATASET_HEADER = "x1,x2,clean,noisy"
SAMPLES_HEADER = "x1,x2,class"


def write_table(path, header: str, line: str, rows) -> None:
    """Write `header`, then `line.format(*row)` for each of `rows`, one a line."""
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(line.format(*row) + "\n" for row in rows)


def write_records(path, header: str, points: np.ndarray, ids: np.ndarray) -> None:
    """Write the file read_records reads: `header`, then one record per line,
    the coordinates of `points` (n, 2) then the class ids `ids`
    (n, columns - 2). The non-finite coordinates read_records refuses are
    refused before anything is made; the parent directory is created."""
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: non-finite coordinates, not written")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    write_table(path, header, ",".join(["{!r}"] * (header.count(",") + 1)),
                (coords + cids for coords, cids in zip(points.tolist(), ids.tolist())))


def save_dataset(path, samples: Dataset) -> None:
    write_records(path, DATASET_HEADER, samples.points,
                  np.column_stack([samples.clean, samples.noisy]))


def write_samples(path, per_class: dict[int, np.ndarray]) -> None:
    """The samples of each class, per_class[c] (n_c, X_DIM), as a
    SAMPLES_HEADER file, the classes in ascending order."""
    classes = sorted(per_class)
    ids = np.concatenate([np.full(len(per_class[c]), c, np.int64) for c in classes])
    write_records(path, SAMPLES_HEADER, np.concatenate([per_class[c] for c in classes]),
                  ids[:, None])


def read_records(path, header: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a CSV file whose first line is `header`: per record two finite
    coordinates, then one class id in 0..N_CLASSES-1 per further column.
    Returns the points (n, 2) float64 and the class ids (n, columns - 2) int64.

    A wrong header, a file with no records, and a record with the wrong
    field count, a field that is not a number, a non-finite coordinate or a
    class id out of range raise ValueError naming the file (and the record).
    """
    width = header.count(",") + 1
    coords, ids = [], []
    with open(path) as f:
        if (got := f.readline().strip()) != header:
            raise ValueError(f"{path}: header {got!r}, expected {header!r}")
        for i, line in enumerate(f):
            fields = line.strip().split(",")
            if len(fields) != width:
                raise ValueError(f"{path}: record {i} has {len(fields)} fields, expected {width}")
            try:
                x1, x2 = float(fields[0]), float(fields[1])
                cids = [int(v) for v in fields[2:]]
            except ValueError:
                raise ValueError(f"{path}: record {i} has a non-number in {line.strip()!r}") from None
            if not (math.isfinite(x1) and math.isfinite(x2)):
                raise ValueError(f"{path}: record {i} has non-finite coordinates {x1},{x2}")
            if not all(0 <= c < N_CLASSES for c in cids):
                raise ValueError(f"{path}: record {i} has class ids {','.join(fields[2:])}; "
                                 f"expected 0..{N_CLASSES - 1}")
            coords.append((x1, x2))
            ids.append(cids)
    if not coords:
        raise ValueError(f"{path}: no records")
    return np.array(coords), np.array(ids, dtype=np.int64)


def load_dataset(path) -> Dataset:
    """Read a save_dataset file, checked as read_records checks it."""
    points, ids = read_records(path, DATASET_HEADER)
    return Dataset(points, ids[:, 0].copy(), ids[:, 1].copy())


def read_samples(path) -> dict[int, np.ndarray]:
    """Read a write_samples file, checked as read_records checks it: the
    points (n_c, X_DIM) of each class c, in file order. A file without a
    record of every class raises ValueError naming the missing ids."""
    pts, ids = read_records(path, SAMPLES_HEADER)
    if missing := sorted(set(range(N_CLASSES)) - set(ids[:, 0].tolist())):
        raise ValueError(f"{path}: no samples of class {','.join(map(str, missing))}")
    return {c: pts[ids[:, 0] == c] for c in range(N_CLASSES)}
