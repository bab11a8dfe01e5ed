import errno
import gc
import io
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdiff import data as data_mod
from robustdiff import diffusion, nn_core, pseudo, rdc, trainer
from robustdiff.network import COND_HEAD, ScoreNetwork
from robustdiff.trainer import (
    CHECKPOINT_FILE,
    LOG_FILE,
    TrainConfig,
    class_prototypes,
    draw_iteration,
    load_checkpoint,
    loss_step,
    save_checkpoint,
    train,
)
from oracles import dsm_loss, estimate_pseudo, float64_net, head_field

def tiny_config(**kw):
    base = dict(
        variant="pc_rdc",
        batch_size=16,
        total_iters=20,
        early_stop_iters=10,
        hidden=8,
        depth=2,
        quad_nodes=3,
        num_steps=6,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(n=40, eta=0.4, seed=0):
    samples = data_mod.make_toy_dataset(n, seed=seed)
    return data_mod.inject_noise(samples, data_mod.NoiseSpec("symmetric", eta, seed + 1))


class TestTrainConfig:
    def test_variant_validated(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="nope")

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            TrainConfig(alpha=1.5)

    def test_total_must_cover_budget(self):
        with pytest.raises(ValueError):
            TrainConfig(total_iters=100, early_stop_iters=500)

    def test_zero_iters_allowed(self):
        TrainConfig(total_iters=0)

    def test_budget_of_pseudo_variants_at_least_one(self):
        for variant in ("pc_only", "pc_rdc"):
            with pytest.raises(ValueError, match="early_stop_iters must be >= 1"):
                TrainConfig(variant=variant, early_stop_iters=0)
        # vanilla has no phase 1: any budget, 0 included
        assert not TrainConfig(variant="vanilla", early_stop_iters=0).in_phase1(0)

    def test_lr_beyond_float32_refused(self):
        # Adam's float32 update would turn it into inf at the first step.
        with pytest.raises(ValueError, match="lr must be <= 3.40282e.38, the float32 maximum"):
            TrainConfig(lr=1e50)
        TrainConfig(lr=float(np.finfo(np.float32).max))

    def test_digest_stable_and_sensitive(self):
        a, b = TrainConfig(), TrainConfig()
        assert a.digest() == b.digest()
        assert TrainConfig(alpha=0.2).digest() != a.digest()


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


class TestTrain:
    def test_zero_iters_returns_initialized_state(self):
        cfg = tiny_config(total_iters=0)
        samples = tiny_dataset()
        ckpt = train(cfg, samples)
        fresh = ScoreNetwork.create(
            hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
        )
        assert np.array_equal(ckpt.params.values, fresh.params.values)
        assert np.array_equal(ckpt.pseudo, np.zeros((len(samples), 4)))
        assert ckpt.iteration == 0

    def test_create_and_train_yield_float32(self):
        net = ScoreNetwork.create(hidden=8, depth=2, seed=0)
        assert net.params.values.dtype == np.float32
        ckpt = train(tiny_config(), tiny_dataset())
        assert ckpt.params.values.dtype == np.float32
        assert ckpt.pseudo.dtype == ckpt.prototypes.dtype == np.float64

    def test_same_seed_bitwise_identical(self):
        samples = tiny_dataset()
        a = train(tiny_config(), samples)
        b = train(tiny_config(), samples)
        assert np.array_equal(a.params.values, b.params.values)
        assert np.array_equal(a.pseudo, b.pseudo)
        assert np.array_equal(a.prototypes, b.prototypes)

    def test_vanilla_loss_decreases_on_clean_data(self):
        # trailing-100-iteration mean of the denoising loss beats the leading one
        samples = data_mod.make_toy_dataset(200, seed=3)
        cfg = TrainConfig(
            variant="vanilla", batch_size=64, total_iters=500, early_stop_iters=500,
            hidden=16, depth=2, seed=1,
        )
        net = ScoreNetwork.create(
            hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed
        )
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        tape = nn_core.MlpTape()
        m, v = np.zeros((2, net.params.values.size), net.params.values.dtype)  # Adam's moments
        rng = np.random.default_rng(cfg.seed + 1)
        losses = []
        for it in range(cfg.total_iters):
            draws = draw_iteration(rng, len(samples), cfg, False)
            demo_term, _, _ = loss_step(net, samples, table, cfg, draws, it, tape, None)
            losses.append(demo_term)
            nn_core.adam_step(net.params, tape.grads, m, v, it + 1, cfg.lr)
        assert np.mean(losses[-100:]) < np.mean(losses[:100])

    def test_pc_rdc_writes_table_and_vanilla_does_not_read(self):
        samples = tiny_dataset()
        ckpt_pc = train(tiny_config(), samples)
        assert np.any(ckpt_pc.pseudo)
        ckpt_v = train(tiny_config(variant="vanilla"), samples)
        assert not np.any(ckpt_v.pseudo)
        assert np.array_equal(ckpt_v.prototypes, np.eye(4))
        # a vanilla step reads nothing of the table: an all-NaN one changes nothing
        cfg = tiny_config(variant="vanilla")
        net = ScoreNetwork.create(hidden=cfg.hidden, depth=cfg.depth, seed=2)
        draws = draw_iteration(np.random.default_rng(4), len(samples), cfg, False)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        tape = nn_core.MlpTape()
        loss_step(net, samples, table, cfg, draws, 0, tape, None)
        want = tape.grads.copy()
        table[:] = np.nan
        demo_term, cond_term, _ = loss_step(net, samples, table, cfg, draws, 0, tape, None)
        assert np.isfinite(demo_term + cond_term) and np.array_equal(tape.grads, want)

    def test_phase_boundary_no_updates_after_budget(self):
        samples = tiny_dataset()
        at_budget = train(tiny_config(total_iters=5, early_stop_iters=5), samples)
        ckpt = train(tiny_config(total_iters=20, early_stop_iters=5), samples)
        # iterations 5..19 train on, but leave the table as the budget left it
        assert np.any(at_budget.pseudo)
        assert np.array_equal(ckpt.pseudo, at_budget.pseudo)

    @pytest.mark.parametrize("variant", ["pc_only", "pc_rdc"])
    def test_phase2_center_taken_once_equals_every_iteration(self, variant):
        # train takes the table's mean once for the frozen phase-2 table; a
        # loop that takes it on every iteration gives the same bits.
        cfg = tiny_config(variant=variant, total_iters=8, early_stop_iters=4)
        samples = tiny_dataset()
        net = ScoreNetwork.create(cfg.hidden, cfg.depth, cfg.seed)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        tape = nn_core.MlpTape()
        m, v = np.zeros((2, net.params.values.size), net.params.values.dtype)  # Adam's moments
        rng = np.random.default_rng(cfg.seed + 1)
        for it in range(cfg.total_iters):
            cond_path = cfg.in_phase1(it)
            draws = draw_iteration(rng, len(samples), cfg, cond_path)
            _, _, y_phi = loss_step(net, samples, table, cfg, draws, it, tape, table.mean(axis=0))
            nn_core.adam_step(net.params, tape.grads, m, v, it + 1, cfg.lr)
            if cond_path:
                pseudo.ensemble_update(table, draws.idx, y_phi, cfg.alpha)
        ckpt = train(cfg, samples)
        assert np.array_equal(ckpt.params.values, net.params.values)
        assert np.array_equal(ckpt.pseudo, table)

    def test_phase2_no_condition_gradient(self):
        cfg = tiny_config()
        samples = tiny_dataset()
        net = ScoreNetwork.create(
            hidden=cfg.hidden, depth=cfg.depth, seed=3
        )
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        rng = np.random.default_rng(0)
        draws = draw_iteration(rng, len(samples), cfg, False)
        tape = nn_core.MlpTape()
        _, cond_term, _ = loss_step(net, samples, table, cfg, draws, cfg.early_stop_iters, tape,
                                    table.mean(axis=0))
        w_grad, b_grad = net.params.layers(tape.grads)[COND_HEAD]
        assert not np.any(w_grad) and not np.any(b_grad)
        assert cond_term == 0.0

    def test_divergence_aborts_with_checkpoint(self, tmp_path):
        # An absurd learning rate blows the loss up within a few steps; a
        # one-iteration budget lets the reference run below stop anywhere.
        cfg = tiny_config(lr=1e18, total_iters=30, early_stop_iters=1)
        samples = tiny_dataset()
        with pytest.raises(trainer.TrainingDiverged,
                           match=r"^training diverged: .+ at iteration \d+$") as err:
            train(cfg, samples, tmp_path)
        n = int(re.search(r"\d+$", str(err.value)).group())
        assert sorted(os.listdir(tmp_path)) == [CHECKPOINT_FILE, LOG_FILE]
        _, _, loaded = load_checkpoint(tmp_path)
        assert loaded.diverged and (loaded.iteration, loaded.config_digest) == (n, cfg.digest())
        # The saved state is the one iteration n started from: that of the
        # same run stopped after n iterations.
        assert n >= 1
        ref = train(replace(cfg, total_iters=n), samples)
        assert_same_checkpoint(loaded, replace(ref, config_digest=cfg.digest(), diverged=True))
        assert np.any(loaded.pseudo)

    def test_log_line_on_disk_while_training(self, tmp_path):
        run = tmp_path / "new" / "run"
        seen = []
        ckpt = train(tiny_config(total_iters=12, early_stop_iters=6), tiny_dataset(), run,
                     snapshot_every=1,
                     snapshot_cb=lambda *_: seen.append((run / LOG_FILE).read_text()))
        assert seen[0].startswith("iter 0 demo ")
        assert sorted(os.listdir(run)) == [CHECKPOINT_FILE, LOG_FILE]
        assert_same_checkpoint(load_checkpoint(run)[2], ckpt)


class TestLossStep:
    def test_vanilla_equals_dsm_alone(self):
        cfg = tiny_config(variant="vanilla")
        samples = tiny_dataset()
        net = ScoreNetwork.create(hidden=cfg.hidden, depth=cfg.depth, seed=5)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        draws = draw_iteration(np.random.default_rng(1), len(samples), cfg, False)
        demo_term, cond_term, _ = loss_step(net, samples, table, cfg, draws, 0,
                                            nn_core.MlpTape(), None)
        assert demo_term + cond_term == demo_term
        assert cond_term == 0.0
        # independent recomputation through the reference loss
        cond = np.where(draws.drop, 0.0, np.eye(4)[samples.noisy[draws.idx]])
        want = dsm_loss(
            lambda x, sig: diffusion.denoise(net, x, sig, cond),
            samples.points[draws.idx], draws.sigma.ravel(), draws.eps_x, net.sigma_data,
        )
        assert demo_term == pytest.approx(want, rel=1e-12)

    def test_phase1_step_holds_one_activation_slot_per_node(self, monkeypatch):
        # The denoising pass goes back before the k node passes are recorded,
        # so node 0 takes its activations: k sets, not k + 1. The next step
        # records into the same arrays, and each live node pass keeps its
        # own input.
        cfg = tiny_config(quad_nodes=8)
        samples = tiny_dataset()
        net = ScoreNetwork.create(hidden=cfg.hidden, depth=cfg.depth, seed=5)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        tape = nn_core.MlpTape()
        record, passes, steps = tape.record, [], []

        def spy(*args):
            passes.append(record(*args))
            return passes[-1]

        monkeypatch.setattr(tape, "record", spy)
        for it in range(2):
            passes.clear()
            draws = draw_iteration(np.random.default_rng(it), len(samples), cfg, True)
            loss_step(net, samples, table, cfg, draws, it, tape, table.mean(axis=0))
            assert len(passes) == 1 + cfg.quad_nodes  # the denoising pass, then the nodes
            steps.append([rec.h + rec.dact for rec in passes])
            assert len({tuple(map(id, acts)) for acts in steps[-1]}) == cfg.quad_nodes
            nodes = passes[1:]
            assert not any(np.shares_memory(a.x, b.x)
                           for i, a in enumerate(nodes) for b in nodes[i + 1:])
        assert all(a is b for first, second in zip(*steps) for a, b in zip(first, second))

    def test_pc_rdc_hand_recomposition(self):
        cfg = tiny_config(batch_size=4)
        samples = tiny_dataset()
        net = float64_net(hidden=cfg.hidden, depth=cfg.depth, seed=6)
        rng0 = np.random.default_rng(9)
        net.params.values[:] = rng0.normal(0, 0.3, net.params.values.size)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        table[:] = rng0.normal(0, 0.2, table.shape)
        draws = draw_iteration(np.random.default_rng(2), len(samples), cfg, True)
        center = table.mean(axis=0)
        demo_term, cond_term, got_y_phi = loss_step(net, samples, table, cfg, draws, 0,
                                                    nn_core.MlpTape(), center)

        # hand path: centered, mirrored, scaled condition into dsm_loss
        sig_c = diffusion.mirror_sigma(draws.sigma)
        y_t = table[draws.idx] + sig_c * draws.eps_c
        cond = rdc.cond_channels(y_t, draws.sigma, center)
        cond = np.where(draws.drop, 0.0, cond)
        demo_want = dsm_loss(
            lambda x, sig: diffusion.denoise(net, x, sig, cond),
            samples.points[draws.idx], draws.sigma.ravel(), draws.eps_x, net.sigma_data,
        )
        assert demo_term == pytest.approx(demo_want, rel=1e-10)

        # condition term: reference quadrature + squared error
        x_t = samples.points[draws.idx] + draws.sigma * draws.eps_x
        x_ctx = diffusion.precondition(draws.sigma, net.sigma_data).c_in * x_t
        y_phi = estimate_pseudo(
            head_field(net, center), x_ctx, draws.y_start, cfg.quad_nodes
        )
        cond_want = np.mean(
            [((y_phi[i] - np.eye(4)[samples.noisy[draws.idx]][i]) ** 2).sum() for i in range(4)]
        )
        assert cond_term == pytest.approx(cond_want, rel=1e-10)
        assert demo_term + cond_term == pytest.approx(demo_want + cond_want, rel=1e-10)
        assert np.allclose(got_y_phi, y_phi, rtol=1e-12)

    def test_combined_gradient_matches_finite_differences(self):
        cfg = tiny_config(batch_size=3, quad_nodes=3, hidden=6, depth=2)
        samples = tiny_dataset(n=10)
        net = float64_net(hidden=cfg.hidden, depth=cfg.depth, seed=7)
        rng0 = np.random.default_rng(11)
        net.params.values[:] = rng0.normal(0, 0.3, net.params.values.size)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        table[:] = rng0.normal(0, 0.3, table.shape)
        draws = draw_iteration(np.random.default_rng(3), len(samples), cfg, True)
        tape = nn_core.MlpTape()
        center = table.mean(axis=0)
        loss_step(net, samples, table, cfg, draws, 0, tape, center)
        grads = tape.grads

        base = net.params.values.copy()
        fd = np.zeros_like(base)
        h = 1e-5
        for i in range(base.size):
            net.params.values[i] = base[i] + h
            up = sum(loss_step(net, samples, table, cfg, draws, 0, tape, center)[:2])
            net.params.values[i] = base[i] - h
            dn = sum(loss_step(net, samples, table, cfg, draws, 0, tape, center)[:2])
            net.params.values[i] = base[i]
            fd[i] = (up - dn) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(grads), np.abs(fd)), 1e-6)
        assert np.max(np.abs(grads - fd) / scale) < 1e-4

    @pytest.mark.parametrize("variant", trainer.VARIANTS)
    def test_float32_step_agrees_with_float64(self, variant):
        # Production widths, batch and quadrature. Relative L2 error 1e-5: the
        # float32 step measures below 5e-7, and float16 rounding (eps ~1e-3)
        # would fail it.
        cfg = TrainConfig(variant=variant)
        samples = tiny_dataset(n=200)
        net = ScoreNetwork.create(cfg.hidden, cfg.depth, seed=5)
        net.params.values += np.random.default_rng(5).normal(0, 0.1, net.params.values.size)
        net64 = ScoreNetwork(nn_core.ParamBundle(net.params.layer_shapes,
                                                 net.params.values.astype(np.float64)))
        table = np.random.default_rng(3).normal(0, 0.3, (len(samples), data_mod.N_CLASSES))
        center = None if variant == "vanilla" else table.mean(axis=0)
        draws = draw_iteration(np.random.default_rng(7), len(samples), cfg, cfg.in_phase1(0))
        tape, tape64 = nn_core.MlpTape(), nn_core.MlpTape()
        _, _, got = loss_step(net, samples, table, cfg, draws, 0, tape, center)
        _, _, want = loss_step(net64, samples, table, cfg, draws, 0, tape64, center)
        assert (tape.grads.dtype, tape64.grads.dtype) == (np.float32, np.float64)

        def rel_l2(a, b):
            return np.linalg.norm(a - b) / np.linalg.norm(b)

        assert rel_l2(tape.grads, tape64.grads) <= 1e-5
        if variant == "pc_rdc":
            assert rel_l2(got, want) <= 1e-5

    def test_buffer_reuse_leaks_nothing(self):
        # one tape reuses its buffers from one step to the next
        cfg = tiny_config(batch_size=3)
        samples = tiny_dataset()
        net = ScoreNetwork.create(hidden=cfg.hidden, depth=cfg.depth, seed=8)
        net.params.values[:] = np.random.default_rng(8).normal(0, 0.3, net.params.values.size)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        draws = [draw_iteration(np.random.default_rng(s), len(samples), cfg, True) for s in (1, 2)]
        tape = nn_core.MlpTape()
        center = table.mean(axis=0)
        *first_terms, first_y_phi = loss_step(net, samples, table, cfg, draws[0], 0, tape, center)
        first_grads = tape.grads
        grads, y_phi = first_grads.copy(), first_y_phi.copy()
        loss_step(net, samples, table, cfg, draws[1], 0, tape, center)
        assert np.array_equal(first_grads, grads)
        assert np.array_equal(first_y_phi, y_phi)
        *again_terms, _ = loss_step(net, samples, table, cfg, draws[0], 0, tape, center)
        assert np.array_equal(tape.grads, grads) and sum(again_terms) == sum(first_terms)
        # batch 3 then 4 on one tape gives what a fresh tape gives
        cfg4 = tiny_config(batch_size=4)
        draws4 = draw_iteration(np.random.default_rng(3), len(samples), cfg4, True)
        fresh = nn_core.MlpTape()
        _, _, got = loss_step(net, samples, table, cfg4, draws4, 0, tape, center)
        _, _, want = loss_step(net, samples, table, cfg4, draws4, 0, fresh, center)
        assert np.array_equal(tape.grads, fresh.grads)
        assert np.array_equal(got, want)

    def test_loss_finite_through_run(self):
        cfg = tiny_config(total_iters=30, early_stop_iters=10)
        samples = tiny_dataset()
        net = ScoreNetwork.create(hidden=cfg.hidden, depth=cfg.depth, seed=cfg.seed)
        table = np.zeros((len(samples), data_mod.N_CLASSES))
        tape = nn_core.MlpTape()
        m, v = np.zeros((2, net.params.values.size), net.params.values.dtype)  # Adam's moments
        rng = np.random.default_rng(5)
        for it in range(cfg.total_iters):
            cond_path = it < cfg.early_stop_iters
            draws = draw_iteration(rng, len(samples), cfg, cond_path)
            demo_term, cond_term, y_phi = loss_step(net, samples, table, cfg, draws, it, tape,
                                                    table.mean(axis=0))
            assert np.isfinite(demo_term + cond_term)
            if cond_path:
                pseudo.ensemble_update(table, draws.idx, y_phi, cfg.alpha)
            nn_core.adam_step(net.params, tape.grads, m, v, it + 1, cfg.lr)


class TestPrototypes:
    def test_centered_and_shrunk(self):
        table = np.zeros((8, 4))
        noisy = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        table[:] = np.array([
            [1.0, 0, 0, 0], [0.8, 0.2, 0, 0],
            [0, 1.0, 0, 0], [0.2, 0.8, 0, 0],
            [0, 0, 1.0, 0], [0, 0.2, 0.8, 0],
            [0, 0, 0, 1.0], [0, 0, 0.2, 0.8],
        ])
        protos = class_prototypes(table, noisy, 4, floor=0.012)
        assert np.allclose(protos.sum(axis=0), 0.0, atol=1e-12)  # centered
        # strong structure survives the reliability floor almost untouched
        assert np.linalg.norm(protos[0]) > 0.5
        # a degenerate table collapses to (near) unconditional prototypes
        table[:] = 0.25 + 1e-4 * np.random.default_rng(0).normal(size=(8, 4))
        weak = class_prototypes(table, noisy, 4, floor=0.012)
        assert np.all(np.linalg.norm(weak, axis=1) < 1e-4)

    def test_missing_class_falls_back_to_one_hot(self):
        table = np.zeros((4, 4))
        noisy = np.array([0, 0, 1, 2])
        protos = class_prototypes(table, noisy, 4, floor=0.012)
        assert np.array_equal(protos[3], np.array([0, 0, 0, 1.0]))

    def test_unequal_counts_recentered_absent_class_one_hot(self):
        table = np.zeros((7, 4))
        noisy = np.array([0, 0, 0, 0, 1, 2, 2])  # class 3 never occurs
        table[:] = np.random.default_rng(1).dirichlet(np.ones(4), size=7)
        protos = class_prototypes(table, noisy, 4, floor=0.012)
        assert np.allclose(protos[:3].sum(axis=0), 0.0, atol=1e-12)
        assert np.array_equal(protos[3], np.array([0, 0, 0, 1.0]))

    def test_unresolved_class_stays_near_unconditional(self):
        # classes 0-2 resolved; class 3 sits within 1e-3 of the table mean
        table = np.zeros((8, 4))
        noisy = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        table[:6] = np.array([
            [1.0, 0, 0, 0], [0.8, 0.2, 0, 0],
            [0, 1.0, 0, 0], [0.2, 0.8, 0, 0],
            [0, 0, 1.0, 0], [0, 0.2, 0.8, 0],
        ])
        resolved_mean = table[:6].mean(axis=0)
        table[6] = resolved_mean + [1e-3, -1e-3, 0, 0]
        table[7] = resolved_mean + [1e-3, 0, -1e-3, 0]
        floor = 0.012
        protos = class_prototypes(table, noisy, 4, floor=floor)
        assert np.linalg.norm(protos[3]) < floor
        # shrunk towards the unconditional token, not just carried along
        raw = table[6:].mean(axis=0) - table.mean(axis=0)
        assert np.linalg.norm(protos[3]) < 0.5 * np.linalg.norm(raw)
        assert np.all(np.linalg.norm(protos[:3], axis=1) > 0.5)


def assert_same_checkpoint(loaded, ckpt):
    for got, want in [
        (loaded.params.values, ckpt.params.values),
        (loaded.pseudo, ckpt.pseudo),
        (loaded.prototypes, ckpt.prototypes),
    ]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert loaded.params.layer_shapes == ckpt.params.layer_shapes
    assert (loaded.iteration, loaded.config_digest, loaded.diverged) == (
        ckpt.iteration, ckpt.config_digest, ckpt.diverged
    )


class TestCheckpointIO:
    """The checkpoint's trip through its archive.

    A second save is no longer byte-identical to the first: zip entries carry
    the time of writing.
    """

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(total_iters=12, early_stop_iters=6)
        samples = tiny_dataset()
        ckpt = train(cfg, samples)
        save_checkpoint(tmp_path, ckpt, cfg)
        net, cfg2, loaded = load_checkpoint(tmp_path)
        assert cfg2 == cfg
        assert_same_checkpoint(loaded, ckpt)
        assert os.listdir(tmp_path) == [CHECKPOINT_FILE]

    def test_archive_holds_only_what_sampling_reads(self, tmp_path):
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        save_checkpoint(tmp_path, train(cfg, tiny_dataset()), cfg)
        with np.load(tmp_path / CHECKPOINT_FILE) as archive:
            assert sorted(archive.files) == sorted([
                "params", "table_entries", "prototypes", "iteration",
                "diverged", "config_digest", "config_json",
            ])

    def test_archive_with_layer_shapes_loads_equal(self, tmp_path, edit_archive):
        # Older archives also hold the layer shapes; the config's hidden and
        # depth give the layout, so nothing reads them.
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        ckpt = train(cfg, tiny_dataset())
        save_checkpoint(tmp_path, ckpt, cfg)
        edit_archive(tmp_path, layer_shapes=np.array(ckpt.params.layer_shapes, dtype=np.int64))
        _, cfg2, loaded = load_checkpoint(tmp_path)
        assert cfg2 == cfg
        assert_same_checkpoint(loaded, ckpt)

    def test_params_of_another_layout_rejected(self, tmp_path, edit_archive):
        # Parameters saved under a different depth than the config echo holds.
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        save_checkpoint(tmp_path, train(cfg, tiny_dataset()), cfg)
        other = ScoreNetwork.create(cfg.hidden, cfg.depth + 1, seed=0)
        edit_archive(tmp_path, params=other.params.values)
        with pytest.raises(ValueError, match=f"{CHECKPOINT_FILE}: 'params' is float32"):
            load_checkpoint(tmp_path)

    def test_archive_with_adam_moments_loads_equal(self, tmp_path, edit_archive):
        # Older archives also hold Adam's moments and step count; nothing reads them.
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        ckpt = train(cfg, tiny_dataset())
        save_checkpoint(tmp_path, ckpt, cfg)
        n = ckpt.params.values.size
        edit_archive(tmp_path, adam_m=np.ones(n, np.float32), adam_v=np.ones(n, np.float32),
                     adam_step=np.int64(4))
        with np.load(tmp_path / CHECKPOINT_FILE) as archive:
            assert {"adam_m", "adam_v", "adam_step"} <= set(archive.files)
        _, cfg2, loaded = load_checkpoint(tmp_path)
        assert cfg2 == cfg
        assert_same_checkpoint(loaded, ckpt)

    def test_vanilla_checkpoint_has_no_pseudo_file(self, tmp_path):
        cfg = tiny_config(variant="vanilla", total_iters=4, early_stop_iters=2)
        samples = tiny_dataset()
        ckpt = train(cfg, samples)
        save_checkpoint(tmp_path, ckpt, cfg)
        assert os.listdir(tmp_path) == [CHECKPOINT_FILE]
        _, _, loaded = load_checkpoint(tmp_path)
        assert np.array_equal(loaded.pseudo, np.zeros((len(samples), 4)))
        assert np.array_equal(loaded.prototypes, np.eye(4))

    def test_diverged_flag_round_trip(self, tmp_path):
        cfg = tiny_config(lr=1e18, total_iters=30, early_stop_iters=5)
        with pytest.raises(trainer.TrainingDiverged) as err:
            train(cfg, tiny_dataset(), tmp_path / "run")
        _, cfg2, loaded = load_checkpoint(tmp_path / "run")
        assert cfg2 == cfg
        assert loaded.diverged and str(err.value).endswith(f"at iteration {loaded.iteration}")
        save_checkpoint(tmp_path / "again", loaded, cfg)
        _, _, again = load_checkpoint(tmp_path / "again")
        assert again.diverged
        assert_same_checkpoint(again, loaded)

    @pytest.mark.parametrize("key", ["params", "table_entries", "prototypes"])
    def test_non_finite_entry_rejected(self, tmp_path, edit_archive, key):
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        save_checkpoint(tmp_path, train(cfg, tiny_dataset()), cfg)
        with np.load(tmp_path / CHECKPOINT_FILE) as archive:
            bad = archive[key].copy()
        bad.flat[1] = np.nan
        edit_archive(tmp_path, **{key: bad})
        with pytest.raises(ValueError, match=f"{CHECKPOINT_FILE}: '{key}' holds non-finite"):
            load_checkpoint(tmp_path)

    def test_config_digest_mismatch_rejected(self, tmp_path, edit_archive):
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        save_checkpoint(tmp_path, train(cfg, tiny_dataset()), cfg)
        edit_archive(tmp_path, config_digest=np.str_(replace(cfg, lr=0.5).digest()))
        with pytest.raises(ValueError, match="config digest"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("key", ["config_json", "config_digest", "params", "iteration"])
    def test_missing_entry_named_once(self, tmp_path, edit_archive, key):
        cfg = tiny_config(total_iters=4, early_stop_iters=2)
        save_checkpoint(tmp_path, train(cfg, tiny_dataset()), cfg)
        edit_archive(tmp_path, drop=(key,))
        with pytest.raises(ValueError) as err:
            load_checkpoint(tmp_path)
        assert str(err.value) == f"{tmp_path / CHECKPOINT_FILE}: no {key!r} entry"

    def test_missing_archive_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError, match=CHECKPOINT_FILE):
            load_checkpoint(tmp_path)

    def test_round_trip_bitwise(self, tmp_path):
        cfg = trainer.TrainConfig(hidden=5, depth=1, total_iters=0)
        net = ScoreNetwork.create(hidden=5, depth=1, seed=13)
        params = net.params
        params.values[:] = np.random.default_rng(1).normal(size=params.values.size)
        ckpt = trainer.Checkpoint(params, np.zeros((3, 4)), 0, cfg.digest(), np.eye(4))
        trainer.save_checkpoint(tmp_path, ckpt, cfg)
        _, _, loaded = trainer.load_checkpoint(tmp_path)
        assert loaded.params.layer_shapes == params.layer_shapes
        assert loaded.params.values.dtype == np.float32
        assert np.array_equal(loaded.params.values, params.values)

    @pytest.mark.parametrize("create, dtype", [(ScoreNetwork.create, np.float32),
                                               (float64_net, np.float64)],
                             ids=["float32", "float64"])
    def test_round_trip_keeps_the_dtype_of_params_and_moments(self, tmp_path, create, dtype):
        cfg = trainer.TrainConfig(hidden=5, depth=1, total_iters=0)
        params = create(hidden=5, depth=1, seed=13).params
        rng = np.random.default_rng(2)
        params.values[:] = rng.normal(size=params.values.size)
        grads = rng.normal(size=params.values.size)
        m, v = np.zeros_like(params.values), np.zeros_like(params.values)
        nn_core.adam_step(params, grads, m, v, 1, 1e-3)
        assert np.any(v) and m.dtype == v.dtype == dtype  # moved in place, in their dtype
        ckpt = trainer.Checkpoint(params, np.zeros((3, 4)), 1, cfg.digest(), np.eye(4))
        trainer.save_checkpoint(tmp_path, ckpt, cfg)
        _, _, loaded = trainer.load_checkpoint(tmp_path)
        got, want = loaded.params.values, params.values
        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)

    def test_bad_header_rejected(self, tmp_path):
        (tmp_path / trainer.CHECKPOINT_FILE).write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="unreadable checkpoint archive"):
            trainer.load_checkpoint(tmp_path)


def _save_table(ckpt_dir, table):
    """Save `table` inside a checkpoint of a small untrained network."""
    cfg = trainer.TrainConfig(hidden=4, depth=1, total_iters=0)
    net = ScoreNetwork.create(hidden=4, depth=1, seed=0)
    ckpt = trainer.Checkpoint(net.params, table, 0, cfg.digest(), np.eye(4))
    trainer.save_checkpoint(ckpt_dir, ckpt, cfg)


class TestSnapshot:
    """The pseudo table's trip through the checkpoint archive."""

    def test_round_trip(self, tmp_path):
        table = np.random.default_rng(0).normal(size=(4, 4))
        pseudo.ensemble_update(table, np.array([1, 1, 3]), np.ones((3, 4)), 0.5)
        _save_table(tmp_path, table)
        loaded = trainer.load_checkpoint(tmp_path)[2].pseudo
        assert loaded.dtype == np.float64 and np.array_equal(loaded, table)

    def test_table_is_one_float64_entry(self, tmp_path):
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
            {"table_entries": np.zeros((3, 2))},  # rows narrower than N_CLASSES
            {},  # no table at all
        ],
        ids=["unequal_width", "empty"],
    )
    def test_malformed_table_rejected(self, tmp_path, edit_archive, edit):
        _save_table(tmp_path, np.zeros((3, 4)))
        edit_archive(tmp_path, drop=() if edit else ("table_entries",), **edit)
        with pytest.raises(ValueError, match="table_"):
            trainer.load_checkpoint(tmp_path)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A small trained checkpoint, its config, and a directory holding it."""
    cfg = tiny_config(total_iters=4, early_stop_iters=2)
    ckpt = train(cfg, tiny_dataset(n=10))
    ckpt_dir = tmp_path_factory.mktemp("ckpt")
    save_checkpoint(ckpt_dir, ckpt, cfg)
    return ckpt, cfg, ckpt_dir


class _DiskFull(io.BufferedWriter):
    """A file that takes `budget` bytes, then fails as a full disk does."""

    def __init__(self, path, mode, budget):
        super().__init__(io.FileIO(path, mode))
        self.budget = budget

    def write(self, b):
        if len(b) > self.budget:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.budget -= len(b)
        return super().write(b)


class TestArchiveDamage:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_archive_rejected_or_loads_equal(self, saved, data):
        ckpt, cfg, ckpt_dir = saved
        path = ckpt_dir / CHECKPOINT_FILE
        good = path.read_bytes()
        try:
            if data.draw(st.booleans(), label="truncate"):
                path.write_bytes(good[: data.draw(st.integers(0, len(good) - 1), label="length")])
            else:
                bit = data.draw(st.integers(0, 8 * len(good) - 1), label="bit")
                damaged = bytearray(good)
                damaged[bit // 8] ^= 1 << (bit % 8)
                path.write_bytes(bytes(damaged))
            try:
                _, cfg2, loaded = load_checkpoint(ckpt_dir)
            except ValueError as exc:
                assert str(path) in str(exc)
                return
            assert cfg2 == cfg
            assert_same_checkpoint(loaded, ckpt)
        finally:
            path.write_bytes(good)

    def test_refused_archive_leaves_no_file_open(self, saved, tmp_path):
        _, _, ckpt_dir = saved
        good = (ckpt_dir / CHECKPOINT_FILE).read_bytes()
        (tmp_path / CHECKPOINT_FILE).write_bytes(good[: len(good) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="unreadable checkpoint archive"):
                load_checkpoint(tmp_path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_self_consistent_damage_caught_by_crc(self, saved, tmp_path):
        # The table's header shrinks from 2000 to 1000 rows, a shape the
        # loader accepts, so only the checksums tell that the rows read are
        # not the rows saved.
        ckpt, cfg, _ = saved
        table = np.zeros((2000, 4))
        table[:] = np.random.default_rng(0).normal(size=table.shape)
        save_checkpoint(tmp_path, replace(ckpt, pseudo=table), cfg)
        path = tmp_path / CHECKPOINT_FILE
        good = path.read_bytes()
        path.write_bytes(good.replace(b"(2000, 4)", b"(1000, 4)"))
        with pytest.raises(ValueError, match="CRC"):
            load_checkpoint(tmp_path)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_failed_save_keeps_previous_archive(self, saved, data):
        ckpt, cfg, ckpt_dir = saved
        size = (ckpt_dir / CHECKPOINT_FILE).stat().st_size
        budget = data.draw(st.integers(0, size - 1), label="bytes written before the disk fills")
        newer = replace(ckpt, iteration=ckpt.iteration + 1)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "open", lambda path, mode: _DiskFull(path, mode, budget),
                       raising=False)
            with pytest.raises(OSError):
                save_checkpoint(ckpt_dir, newer, cfg)
        assert os.listdir(ckpt_dir) == [CHECKPOINT_FILE]
        _, _, loaded = load_checkpoint(ckpt_dir)
        assert_same_checkpoint(loaded, ckpt)
