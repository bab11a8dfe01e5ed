import numpy as np
import pytest

from robustdiff import trainer
from robustdiff.network import ScoreNetwork
from robustdiff.pseudo import ensemble_update
from robustdiff.trainer import TrainConfig


class TestEnsembleUpdate:
    def test_alpha_one_keeps_entry(self):
        table = np.zeros((2, 4))
        table[1] = [1, 2, 3, 4]
        before = table[1].copy()
        ensemble_update(table, 1, np.array([9.0, 9.0, 9.0, 9.0]), alpha=1.0)
        assert np.array_equal(table[1], before)

    def test_alpha_zero_replaces_entry(self):
        table = np.zeros((2, 4))
        new = np.array([5.0, -1.0, 0.0, 2.0])
        ensemble_update(table, 0, new, alpha=0.0)
        assert np.array_equal(table[0], new)

    def test_alpha_point_one_value(self):
        # entry 0, estimate 1 -> 0.9
        table = np.zeros((1, 1))
        ensemble_update(table, 0, np.array([1.0]), alpha=0.1)
        assert table[0, 0] == pytest.approx(0.9)

    def test_geometric_contraction_exact(self):
        # alpha = 0.5 and target 0 so the decay is exact in binary floats
        table = np.zeros((1, 1))
        table[0, 0] = 1.0
        for k in range(1, 30):
            ensemble_update(table, 0, np.array([0.0]), alpha=0.5)
            assert table[0, 0] == 0.5**k

    def test_geometric_contraction_general_alpha(self):
        alpha, c = 0.3, 2.5
        table = np.zeros((1, 2))
        table[0] = [4.0, -1.0]
        start = table[0].copy()
        for k in range(1, 12):
            ensemble_update(table, 0, np.array([c, c]), alpha=alpha)
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

    def test_invalid_alpha_rejected(self):
        table = np.zeros((1, 1))
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                ensemble_update(table, 0, np.zeros(1), alpha=bad)

    def test_missing_index_rejected(self):
        table = np.zeros((2, 1))
        with pytest.raises(IndexError):
            ensemble_update(table, 5, np.zeros(1), alpha=0.5)

    def test_nonfinite_update_rejected(self):
        table = np.zeros((1, 2))
        with pytest.raises(ValueError):
            ensemble_update(table, 0, np.array([np.nan, 0.0]), alpha=0.5)

    def test_entries_remain_finite_random_sequences(self):
        rng = np.random.default_rng(1)
        table = np.zeros((4, 3))
        for _ in range(200):
            idx = rng.integers(0, 4, size=8)
            ensemble_update(table, idx, rng.normal(size=(8, 3)), alpha=float(rng.uniform(0, 1)))
        assert np.all(np.isfinite(table))


class TestEarlyStop:
    """The early-stop budget ends the table updates: TrainConfig.in_phase1."""

    def test_before_budget(self):
        assert TrainConfig(early_stop_iters=500).in_phase1(0)

    def test_at_budget(self):
        assert not TrainConfig(early_stop_iters=500).in_phase1(500)

    def test_after_budget(self):
        assert not TrainConfig(early_stop_iters=500).in_phase1(501)

    def test_monotone(self):
        for variant in ("pc_only", "pc_rdc"):
            config = TrainConfig(variant=variant, early_stop_iters=7, total_iters=20)
            flags = [config.in_phase1(i) for i in range(20)]
            assert flags == [True] * 7 + [False] * 13
        vanilla = TrainConfig(variant="vanilla", early_stop_iters=7, total_iters=20)
        assert not any(vanilla.in_phase1(i) for i in range(20))

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            TrainConfig(early_stop_iters=0)


def _save_table(ckpt_dir, table):
    """Save `table` inside a checkpoint of a small untrained network."""
    cfg = trainer.TrainConfig(hidden=4, depth=1, total_iters=0)
    net = ScoreNetwork.create(hidden=4, depth=1, sigma_data=cfg.sigma_data, seed=0)
    ckpt = trainer.Checkpoint(net.params, table, 0, cfg.digest(), np.eye(4))
    trainer.save_checkpoint(ckpt_dir, ckpt, cfg)


class TestSnapshot:
    """The pseudo table's trip through the checkpoint archive."""

    def test_round_trip(self, tmp_path):
        table = np.random.default_rng(0).normal(size=(4, 4))
        ensemble_update(table, [1, 1, 3], np.ones((3, 4)), 0.5)
        _save_table(tmp_path, table)
        loaded = trainer.load_checkpoint(tmp_path)[2].pseudo
        assert loaded.dtype == np.float64 and np.array_equal(loaded, table)

    def test_format_index_then_floats(self, tmp_path):
        table = np.zeros((2, 4))
        table[1] = [0.5, -0.25, 0.0, 1.0]
        _save_table(tmp_path, table)
        with np.load(tmp_path / trainer.CHECKPOINT_FILE) as archive:
            entries = archive["table_entries"]
            assert "table_updates" not in archive.files
        assert entries.dtype == np.float64
        assert entries.tolist() == [[0.0, 0.0, 0.0, 0.0], [0.5, -0.25, 0.0, 1.0]]

    @pytest.mark.parametrize(
        "edit",
        [
            {"table_entries": np.zeros((3, 2))},  # rows narrower than cond_dim
            {},  # no table at all
        ],
        ids=["unequal_width", "empty"],
    )
    def test_malformed_table_rejected(self, tmp_path, edit_archive, edit):
        _save_table(tmp_path, np.zeros((3, 4)))
        edit_archive(tmp_path, drop=() if edit else ("table_entries",), **edit)
        with pytest.raises(ValueError, match="table_"):
            trainer.load_checkpoint(tmp_path)
