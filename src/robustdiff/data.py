"""Synthetic four-class 2-D dataset and label-noise injection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

N_CLASSES = 4
# Four Gaussian blobs, one per quadrant. Class order: (+,+), (-,+), (-,-), (+,-).
CENTROIDS = np.array([[2.5, 2.5], [-2.5, 2.5], [-2.5, -2.5], [2.5, -2.5]])
BLOB_STD = 0.375
# Similar-class pair flips for asymmetric noise: neighbors along x.
DEFAULT_PAIR_MAP = {0: 1, 1: 0, 2: 3, 3: 2}


@dataclass
class LabeledSample:
    point: np.ndarray
    clean_class: int
    noisy_class: int
    index: int


@dataclass(frozen=True)
class NoiseSpec:
    kind: str  # "symmetric" | "asymmetric"
    eta: float
    seed: int
    pair_map: dict | None = None

    def __post_init__(self):
        if self.kind not in ("symmetric", "asymmetric"):
            raise ValueError("kind must be symmetric or asymmetric")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if self.kind == "asymmetric":
            pm = self.pair_map or DEFAULT_PAIR_MAP
            _check_involution(pm)


def _check_involution(pair_map: dict) -> None:
    for a, b in pair_map.items():
        if pair_map.get(b) != a:
            raise ValueError("pair_map must be an involution on classes")


def make_toy_dataset(
    n_per_class: int,
    seed: int,
    centroids: np.ndarray = CENTROIDS,
    std: float = BLOB_STD,
) -> list[LabeledSample]:
    """Isotropic Gaussian blob per class; noisy labels start out clean."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    samples = []
    idx = 0
    for c in range(len(centroids)):
        pts = centroids[c] + std * rng.standard_normal((n_per_class, 2))
        for p in pts:
            samples.append(LabeledSample(p, c, c, idx))
            idx += 1
    return samples


def inject_symmetric_noise(
    samples: list[LabeledSample], eta: float, seed: int
) -> list[LabeledSample]:
    """Each label flips with probability eta, uniformly to one of the others."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    classes = sorted({s.clean_class for s in samples})
    out = []
    for s in samples:
        noisy = s.clean_class
        if rng.random() < eta:
            others = [c for c in classes if c != s.clean_class]
            noisy = others[rng.integers(len(others))]
        out.append(LabeledSample(s.point, s.clean_class, noisy, s.index))
    return out


def inject_asymmetric_noise(
    samples: list[LabeledSample], eta: float, pair_map: dict | None, seed: int
) -> list[LabeledSample]:
    """Each label flips to its paired class with probability eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    pm = pair_map or DEFAULT_PAIR_MAP
    _check_involution(pm)
    rng = np.random.default_rng(seed)
    out = []
    for s in samples:
        noisy = s.clean_class
        if rng.random() < eta:
            noisy = pm[s.clean_class]
        out.append(LabeledSample(s.point, s.clean_class, noisy, s.index))
    return out


def inject_noise(samples: list[LabeledSample], spec: NoiseSpec) -> list[LabeledSample]:
    if spec.kind == "symmetric":
        return inject_symmetric_noise(samples, spec.eta, spec.seed)
    return inject_asymmetric_noise(samples, spec.eta, spec.pair_map, spec.seed)


def one_hot(class_id: int, n_classes: int = N_CLASSES) -> np.ndarray:
    if not 0 <= class_id < n_classes:
        raise ValueError(f"class id {class_id} out of [0, {n_classes})")
    v = np.zeros(n_classes)
    v[class_id] = 1.0
    return v


def points(samples: list[LabeledSample]) -> np.ndarray:
    return np.array([s.point for s in samples])


def clean_labels(samples: list[LabeledSample]) -> np.ndarray:
    return np.array([s.clean_class for s in samples], dtype=np.int64)


def noisy_labels(samples: list[LabeledSample]) -> np.ndarray:
    return np.array([s.noisy_class for s in samples], dtype=np.int64)


def empirical_std(samples: list[LabeledSample]) -> float:
    """Per-coordinate standard deviation of the point cloud (preconditioning aid)."""
    return float(points(samples).std())


def save_dataset(path, samples: list[LabeledSample]) -> None:
    with open(path, "w") as f:
        f.write("x1,x2,clean,noisy\n")
        for s in sorted(samples, key=lambda s: s.index):
            x1, x2 = (repr(float(v)) for v in s.point)
            f.write(f"{x1},{x2},{s.clean_class},{s.noisy_class}\n")


def load_dataset(path) -> list[LabeledSample]:
    samples = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "x1,x2,clean,noisy":
            raise ValueError("bad dataset header")
        for i, line in enumerate(f):
            x1, x2, clean, noisy = line.strip().split(",")
            clean, noisy = int(clean), int(noisy)
            if not (0 <= clean < N_CLASSES and 0 <= noisy < N_CLASSES):
                raise ValueError(
                    f"{path}: record {i} has class ids {clean},{noisy}; "
                    f"expected 0..{N_CLASSES - 1}"
                )
            samples.append(LabeledSample(np.array([float(x1), float(x2)]), clean, noisy, i))
    return samples
