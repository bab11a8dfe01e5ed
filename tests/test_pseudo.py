import numpy as np
import pytest

from robustdiff.pseudo import ensemble_update


class TestEnsembleUpdate:
    def test_alpha_one_keeps_entry(self):
        table = np.zeros((2, 4))
        table[1] = [1, 2, 3, 4]
        before = table[1].copy()
        ensemble_update(table, np.array([1]), np.array([[9.0, 9.0, 9.0, 9.0]]), alpha=1.0)
        assert np.array_equal(table[1], before)

    def test_alpha_zero_replaces_entry(self):
        table = np.zeros((2, 4))
        new = np.array([5.0, -1.0, 0.0, 2.0])
        ensemble_update(table, np.array([0]), new[None], alpha=0.0)
        assert np.array_equal(table[0], new)

    def test_alpha_point_one_value(self):
        # entry 0, estimate 1 -> 0.9
        table = np.zeros((1, 1))
        ensemble_update(table, np.array([0]), np.array([[1.0]]), alpha=0.1)
        assert table[0, 0] == pytest.approx(0.9)

    def test_geometric_contraction_exact(self):
        # alpha = 0.5 and target 0 so the decay is exact in binary floats
        table = np.zeros((1, 1))
        table[0, 0] = 1.0
        for k in range(1, 30):
            ensemble_update(table, np.array([0]), np.array([[0.0]]), alpha=0.5)
            assert table[0, 0] == 0.5**k

    def test_geometric_contraction_general_alpha(self):
        alpha, c = 0.3, 2.5
        table = np.zeros((1, 2))
        table[0] = [4.0, -1.0]
        start = table[0].copy()
        for k in range(1, 12):
            ensemble_update(table, np.array([0]), np.array([[c, c]]), alpha=alpha)
            want = alpha**k * (start - c) + c
            assert np.allclose(table[0], want, rtol=1e-12)

    def test_update_count_and_duplicates(self):
        table = np.zeros((3, 2))
        ensemble_update(table, np.array([1, 1, 2]), np.ones((3, 2)), alpha=0.5)
        # two sequential updates on index 1: 0 -> 0.5 -> 0.75; one on index 2
        assert table.tolist() == [[0.0, 0.0], [0.75, 0.75], [0.5, 0.5]]

    def test_matches_row_by_row_loop(self):
        # oracle: the sequential loop, one row at a time in batch order
        def loop_update(entries, idx, y_phi, alpha):
            for i, row in zip(idx, y_phi):
                entries[i] = alpha * entries[i] + (1.0 - alpha) * row

        rng = np.random.default_rng(3)
        for trial in range(50):
            n, batch = int(rng.integers(1, 12)), int(rng.integers(1, 40))  # many repeats
            table = np.zeros((n, 3))
            table[:] = rng.normal(size=(n, 3))
            entries = table.copy()
            idx = rng.integers(0, n, size=batch)
            y_phi = rng.normal(size=(batch, 3))
            alpha = float(rng.uniform(0, 1))
            loop_update(entries, idx, y_phi, alpha)
            ensemble_update(table, idx, y_phi, alpha)
            assert np.array_equal(table, entries), f"trial {trial}"

    def test_entries_remain_finite_random_sequences(self):
        rng = np.random.default_rng(1)
        table = np.zeros((4, 3))
        for _ in range(200):
            idx = rng.integers(0, 4, size=8)
            ensemble_update(table, idx, rng.normal(size=(8, 3)), alpha=float(rng.uniform(0, 1)))
        assert np.all(np.isfinite(table))
