import tracemalloc

import numpy as np
import pytest

from robustdiff.data import write_table
from robustdiff.metrics import (
    DIST_BLOCK,
    cell_medians,
    controllability_acc,
    fit_centroids,
    mae,
)


def brute_force_mae(gen, ref):
    total = 0.0
    for g in gen:
        best, best_d = None, np.inf
        for r in ref:
            d = (g[0] - r[0]) ** 2 + (g[1] - r[1]) ** 2
            if d < best_d:
                best_d, best = d, r
        total += (abs(g[0] - best[0]) + abs(g[1] - best[1])) / 2.0
    return total / len(gen)


class TestMae:
    def test_subset_gives_zero(self):
        ref = np.random.default_rng(0).normal(size=(20, 2))
        assert mae(ref[:7], ref) == 0.0

    def test_single_pair_arithmetic(self):
        assert mae(np.array([[1.0, 1.0]]), np.array([[0.0, 0.0]])) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            gen = rng.normal(size=(13, 2))
            ref = rng.normal(size=(29, 2))
            assert mae(gen, ref) == pytest.approx(brute_force_mae(gen, ref), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        gen = rng.normal(size=(15, 2))
        ref = rng.normal(size=(10, 2))
        perm = rng.permutation(15)
        assert mae(gen, ref) == pytest.approx(mae(gen[perm], ref), rel=1e-12)

    def test_reference_duplication_invariance(self):
        rng = np.random.default_rng(3)
        gen = rng.normal(size=(8, 2))
        ref = rng.normal(size=(6, 2))
        assert mae(gen, ref) == pytest.approx(mae(gen, np.concatenate([ref, ref])), rel=1e-12)

    def test_nonnegative_zero_iff_coincident(self):
        rng = np.random.default_rng(4)
        ref = rng.normal(size=(9, 2))
        assert mae(ref, ref) == 0.0
        shifted = ref + 0.01
        assert mae(shifted, ref) > 0.0

    def test_chunking_consistent(self):
        rng = np.random.default_rng(5)
        gen = rng.normal(size=(1100, 2))  # spans multiple chunks
        ref = rng.normal(size=(50, 2))
        assert mae(gen, ref) == pytest.approx(brute_force_mae(gen, ref), rel=1e-10)


class TestMaeBroadcastOracle:
    @staticmethod
    def broadcast_mae(gen, ref):
        """The (chunk, ref, 2) broadcast nearest search over 512-row chunks,
        then one sum over all points, as mae sums."""
        nearest = np.concatenate([
            np.argmin(((gen[lo : lo + 512, None, :] - ref[None, :, :]) ** 2).sum(axis=2), axis=1)
            for lo in range(0, gen.shape[0], 512)])
        return float(np.abs(gen - ref[nearest]).mean(axis=1).sum() / gen.shape[0])

    def test_bitwise_equal_with_exact_ties(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            # integer grids give many exactly equidistant references
            ref = rng.integers(-3, 4, size=(int(rng.integers(1, 60)), 2)).astype(float)
            gen = rng.integers(-3, 4, size=(int(rng.integers(1, 700)), 2)) + 0.5 * rng.integers(0, 2, size=(1, 2))
            assert mae(gen, ref) == self.broadcast_mae(gen, ref), f"grid trial {trial}"
            # random floats with duplicated references
            ref = rng.normal(size=(int(rng.integers(1, 40)), 2))
            ref = np.concatenate([ref, ref[: len(ref) // 2]])
            gen = rng.normal(size=(int(rng.integers(1, 600)), 2))
            assert mae(gen, ref) == self.broadcast_mae(gen, ref), f"float trial {trial}"

    def test_bitwise_equal_with_block_edges_inside_chunks(self):
        rng = np.random.default_rng(7)
        for trial in range(3):
            n_ref = int(rng.integers(3000, 3500))
            assert DIST_BLOCK // n_ref < 512  # block edges fall inside a chunk
            n_gen = int(rng.integers(513, 1100))
            # a sparse integer grid: exact ties between references at unequal
            # per-axis deviations (0,5)/(3,4), so the first index matters
            ref = rng.integers(-200, 201, size=(n_ref, 2)).astype(float)
            gen = rng.integers(-200, 201, size=(n_gen, 2)).astype(float)
            assert mae(gen, ref) == self.broadcast_mae(gen, ref), f"sparse grid trial {trial}"
            # a dense one: ties in every row, and equal generated points on
            # both sides of every block edge
            ref = rng.integers(-3, 4, size=(n_ref, 2)).astype(float)
            gen = rng.integers(-3, 4, size=(n_gen, 2)) + 0.5 * rng.integers(0, 2, size=(1, 2))
            assert mae(gen, ref) == self.broadcast_mae(gen, ref), f"grid trial {trial}"
            ref = rng.normal(size=(n_ref, 2))
            gen = rng.normal(size=(n_gen, 2))
            assert mae(gen, ref) == self.broadcast_mae(gen, ref), f"float trial {trial}"

    def test_bitwise_equal_beyond_one_block_of_references(self):
        rng = np.random.default_rng(8)
        ref = rng.integers(-3, 4, size=(DIST_BLOCK + 5, 2)).astype(float)
        gen = rng.integers(-3, 4, size=(7, 2)) + 0.5 * rng.integers(0, 2, size=(1, 2))
        assert mae(gen, ref) == self.broadcast_mae(gen, ref)


class TestMaeMemory:
    def test_peak_bounded_whatever_the_reference_size(self):
        rng = np.random.default_rng(9)
        gen = rng.normal(size=(1000, 2))
        ref = rng.normal(size=(20000, 2))
        # numpy reports its array buffers to tracemalloc
        tracemalloc.start()
        try:
            mae(gen, ref)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestCentroids:
    def test_single_point_per_class(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0], [-4.0, 0.5], [1.5, -2.0]])
        assert np.array_equal(fit_centroids(pts, np.arange(4)), pts)

    def test_blob_means_near_layout(self):
        from robustdiff import data as data_mod

        samples = data_mod.make_toy_dataset(2000, seed=0)
        cents = fit_centroids(samples.points, samples.clean)
        assert np.all(np.abs(cents - data_mod.CENTROIDS) < 0.02)

    def test_order_invariance(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(40, 2))
        labels = rng.integers(0, 4, 40)
        while len(set(labels)) < 4:
            labels = rng.integers(0, 4, 40)
        cents1 = fit_centroids(pts, labels)
        perm = rng.permutation(40)
        cents2 = fit_centroids(pts[perm], labels[perm])
        assert np.allclose(cents1, cents2, rtol=1e-12)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            fit_centroids(np.zeros((3, 2)), np.array([0, 1, 1]))


class TestControllability:
    def test_points_at_centroids_give_one(self):
        cents = np.array([[0, 0], [10, 0], [0, 10], [10, 10]], dtype=float)
        gen = {c: np.tile(cents[c], (5, 1)) for c in range(4)}
        assert controllability_acc(gen, cents) == 1.0

    def test_wrong_centroid_gives_zero(self):
        cents = np.array([[0, 0], [10, 0]], dtype=float)
        gen = {0: np.tile([10.0, 0.0], (5, 1)), 1: np.tile([0.0, 0.0], (5, 1))}
        assert controllability_acc(gen, cents) == 0.0

    def test_shuffled_labels_near_quarter(self):
        rng = np.random.default_rng(7)
        cents = np.array([[2.5, 2.5], [-2.5, 2.5], [-2.5, -2.5], [2.5, -2.5]])
        # points drawn uniformly from the four blobs, labels assigned at random
        pts = cents[rng.integers(0, 4, 4000)] + 0.3 * rng.standard_normal((4000, 2))
        gen = {c: pts[c * 1000 : (c + 1) * 1000] for c in range(4)}
        acc = controllability_acc(gen, cents)
        assert abs(acc - 0.25) < 0.02

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        cents = rng.normal(size=(4, 2))
        pts = {c: rng.normal(size=(10, 2)) for c in range(4)}
        shift = np.array([3.7, -1.2])
        acc1 = controllability_acc(pts, cents)
        acc2 = controllability_acc({c: p + shift for c, p in pts.items()}, cents + shift)
        assert acc1 == acc2


class TestResultsRecords:
    def test_round_trip(self, tmp_path):
        # The results table as `reproduce` writes it.
        rows = [
            ("vanilla", "sym", 0.4, 0, 0.642132, 0.779),
            ("pc_rdc", "sym", 0.4, 1, 0.165, 0.936251),
        ]
        path = tmp_path / "results.csv"
        write_table(path, "variant,noise,eta,seed,mae,controllability",
                    "{},{},{:g},{},{:.6f},{:.6f}", rows)
        assert path.read_text().splitlines() == [
            "variant,noise,eta,seed,mae,controllability",
            "vanilla,sym,0.4,0,0.642132,0.779000",
            "pc_rdc,sym,0.4,1,0.165000,0.936251",
        ]

    def test_cell_medians(self):
        rows = [
            ("v", "sym", 0.2, s, m, a)
            for s, m, a in [(0, 1.0, 0.5), (1, 3.0, 0.7), (2, 2.0, 0.6)]
        ]
        meds = cell_medians(rows)
        assert meds[("v", "sym", 0.2)] == (2.0, 0.6)
