import tracemalloc

import numpy as np
import pytest

from robustdiff import cli, diffusion
from robustdiff.data import X_DIM
from robustdiff.diffusion import (
    SIGMA_MAX,
    SIGMA_MIN,
    denoise,
    edm_residual,
    guided,
    heun_sample,
    mirror_sigma,
    precondition,
    sigma_grid,
)
from robustdiff.network import ScoreNetwork
from robustdiff.trainer import TrainConfig
from oracles import dsm_loss


def random_net(seed=0, hidden=12, depth=2):
    net = ScoreNetwork.create(hidden=hidden, depth=depth, seed=seed)
    rng = np.random.default_rng(seed + 100)
    net.params.values[:] = rng.normal(0, 0.4, net.params.values.size)
    return net


class TestSchedule:
    def test_endpoints(self):
        grid = sigma_grid(18)
        assert grid[0] == 80.0
        assert grid[17] == 0.002
        assert grid[18] == 0.0
        assert len(grid) == 19

    def test_three_step_middle_value_formula(self):
        # independent evaluation of the power-law midpoint
        grid = sigma_grid(3)
        want = ((80.0 ** (1 / 7) + 0.002 ** (1 / 7)) / 2.0) ** 7
        assert grid[1] == pytest.approx(want, rel=1e-12)

    def test_strictly_decreasing_property(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            grid = sigma_grid(n)
            assert np.all(np.diff(grid) < 0)
            assert grid[0] == SIGMA_MAX and grid[-2] == SIGMA_MIN and grid[-1] == 0.0
            assert np.all(grid >= 0.0) and np.all(grid <= SIGMA_MAX)

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError, match="num_steps must be >= 2"):
            TrainConfig(num_steps=1)

    def test_mirror_swaps_grid(self):
        grid = sigma_grid(10)[:10]
        mirrored = mirror_sigma(grid)
        assert np.allclose(mirrored, grid[::-1], rtol=1e-9)


UNCOND = np.zeros(4)


def score(net, x, sigma, cond):
    """Score from the denoiser through the exact relation (D - x) / sigma^2."""
    return (denoise(net, x, sigma, cond) - x) / sigma**2


class TestDenoise:
    def test_small_sigma_limit_returns_input(self):
        net = random_net(1)
        x = np.array([[0.4, -1.2]])
        out = denoise(net, x, 1e-8, UNCOND)
        assert np.allclose(out, x, atol=1e-6)

    def test_cskip_half_at_sigma_data(self):
        assert precondition(0.5, 0.5).c_skip == pytest.approx(0.5)
        assert precondition(2.5, 2.5).c_skip == pytest.approx(0.5)

    def test_composition_oracle(self):
        # recompose denoise from the four constants and a raw trunk+head pass
        net = random_net(2)
        x = np.array([0.9, 0.1])
        sigma = 0.8
        cond = np.array([1.0, 0.0, 0.0, 0.0])
        pre = precondition(sigma, net.sigma_data)
        raw = net.demo_out((pre.c_in * x)[None, :], sigma, cond)[0]
        want = pre.c_skip * x + pre.c_out * raw
        got = denoise(net, x[None, :], sigma, cond)[0]
        assert np.allclose(got, want, rtol=1e-12)

    def test_residual_is_denoised_minus_x0(self):
        rng = np.random.default_rng(12)
        raw, x_t, x0 = (rng.normal(size=(9, 2)) for _ in range(3))
        sigma = np.exp(rng.normal(size=(9, 1)))
        pre = precondition(sigma, 2.5)
        denoised = pre.c_skip * x_t + pre.c_out * raw
        # x0 = 0 is the denoiser's own formula, bit for bit
        assert np.array_equal(edm_residual(raw, x_t, pre), denoised)
        assert np.allclose(edm_residual(raw, x_t, pre, x0), denoised - x0, rtol=1e-12)

    def test_uncond_equals_zero_vector(self):
        # guidance on the all-zero row is the unconditional branch alone
        net = random_net(5)
        x = np.array([[0.1, 0.2]])
        a = guided(net, np.zeros(4), 3.0)(x, 1.0)
        b = denoise(net, x, 1.0, np.zeros(4))
        assert np.array_equal(a, b)


class TestDsmLoss:
    def test_oracle_denoiser_gives_zero(self):
        # with eps = 0, an identity denoiser returns x0 exactly
        x0 = np.random.default_rng(0).normal(size=(8, 2))
        loss = dsm_loss(lambda x, s: x, x0, np.full(8, 0.7), np.zeros((8, 2)), 0.5)
        assert loss == 0.0

    def test_cheating_oracle_returns_x0(self):
        # an oracle that returns the true x0 regardless of noise
        x0 = np.random.default_rng(1).normal(size=(5, 2))
        eps = np.random.default_rng(2).normal(size=(5, 2))
        loss = dsm_loss(lambda x, s: x0, x0, np.full(5, 1.3), eps, 0.5)
        assert loss == 0.0

    def test_weight_value_at_sigma_data(self):
        assert precondition(0.5, 0.5).weight == pytest.approx(8.0)

    def test_weight_uses_given_sigma_data(self):
        # D = x_t + 1 with eps = 0: error 1 per coordinate, weighted at sigma_data
        x0 = np.zeros((1, 2))
        loss = dsm_loss(lambda x, s: x + 1.0, x0, np.array([0.9]), np.zeros((1, 2)), 2.5)
        assert loss == pytest.approx(2.0 * precondition(0.9, 2.5).weight, rel=1e-15)

    def test_single_sample_recomputation(self):
        net = random_net(6)
        x0 = np.array([[1.0, -0.5]])
        eps = np.array([[0.3, 0.8]])
        sigma = np.array([0.9])
        got = dsm_loss(lambda x, s: denoise(net, x, s, np.zeros(4)),
                       x0, sigma, eps, net.sigma_data)
        den = denoise(net, x0 + 0.9 * eps, 0.9, np.zeros(4))[0]
        want = precondition(0.9, net.sigma_data).weight * float(((den - x0[0]) ** 2).sum())
        assert got == pytest.approx(want, rel=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            dsm_loss(lambda x, s: x, np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), 0.5)


class TestCfgScore:
    """Classifier-free guidance through diffusion.guided; its score is
    (D - x) / sigma^2 of the guided denoiser D."""

    def test_w1_is_conditional_score_bitwise(self):
        net = random_net(7)
        x = np.array([[0.2, 0.4]])
        cond = np.array([0.0, 1.0, 0.0, 0.0])
        got = guided(net, cond, 1.0)(x, 1.0)
        assert np.array_equal(got, denoise(net, x, 1.0, cond))
        assert np.array_equal((got - x) / 1.0**2, score(net, x, 1.0, cond))

    def test_formula_arithmetic(self):
        # Eq: s_u + w (s_c - s_u); with s_u = (1,0), s_c = (3,0), w = 1.5 -> (4,0)
        s_u, s_c = np.array([1.0, 0.0]), np.array([3.0, 0.0])
        assert np.array_equal(s_u + 1.5 * (s_c - s_u), np.array([4.0, 0.0]))

    def test_matches_two_call_combination(self):
        # bit for bit, so a sampler that batches the two branches must keep the bits
        net = random_net(8)
        x = np.random.default_rng(8).normal(size=(6, X_DIM))
        cond = np.array([0.0, 0.0, 1.0, 0.0])
        for w in (1.5, 2.0, 3.0):
            got = guided(net, cond, w)(x, 0.7)
            d_c = denoise(net, x, 0.7, cond)
            d_u = denoise(net, x, 0.7, UNCOND)
            assert np.array_equal(got, d_u + w * (d_c - d_u))

    def test_zero_uncond_linearity(self):
        # when the unconditional score is exactly zero, w scales the conditional
        net = random_net(9)
        x = np.array([[0.5, -0.5]])
        cond = np.array([1.0, 0.0, 0.0, 0.0])
        s_c = score(net, x, 1.2, cond)
        s_u = score(net, x, 1.2, UNCOND)
        synthetic = s_u + 2.0 * (s_c - s_u) + s_u  # algebra check of Eq. shape
        got = (guided(net, cond, 2.0)(x, 1.2) - x) / 1.2**2
        assert np.allclose(got + s_u, synthetic, rtol=1e-12)


class TestHeunSample:
    def test_zero_denoiser_collapses_to_origin(self):
        # With D == 0 each step maps x -> x * sigma_next / sigma_cur exactly,
        # so the final step to sigma = 0 lands every chain on the origin.
        out = heun_sample(lambda x, s: np.zeros_like(x), 6, 64, seed=5)
        assert np.array_equal(out, np.zeros((64, 2)))

    def test_analytic_gaussian_moments(self):
        out = heun_sample(lambda x, s: x / (1 + s * s), 18, 10_000, seed=16)
        assert np.all(np.abs(out.mean(axis=0)) < 0.05)
        assert np.all(np.abs(out.var(axis=0) - 1.0) < 0.1)

    def test_same_seed_bitwise_identical(self):
        net = random_net(10)
        cond = np.array([1.0, 0, 0, 0])
        a = heun_sample(guided(net, cond, 2.0), 5, 16, seed=3)
        b = heun_sample(guided(net, cond, 2.0), 5, 16, seed=3)
        assert np.array_equal(a, b)

    def test_x_dim_sets_sample_width(self):
        out = heun_sample(lambda x, s: np.zeros_like(x), 4, 5, 0)
        assert out.shape == (5, X_DIM)


class TestSamplingWorkspace:
    """A network's unrecorded passes keep their (rows x hidden) arrays on its
    own tape, and what they return is a fresh array."""

    HIDDEN = 64
    ROWS = 1000

    def production_net(self, seed):
        # ScoreNetwork.create's float32 network, heads moved off zero
        net = ScoreNetwork.create(hidden=self.HIDDEN, depth=3, seed=seed)
        rng = np.random.default_rng(seed + 100)
        net.params.values[:] = rng.normal(0, 0.2, net.params.values.size)
        return net

    def test_steady_state_denoise_allocates_no_hidden_array(self, monkeypatch):
        # Every denoise call of cli.sample_per_class runs under tracemalloc;
        # after the first, none peaks a (ROWS, HIDDEN) array above its start.
        real, peaks = diffusion.denoise, []

        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                start, _ = tracemalloc.get_traced_memory()
                out = real(*args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak - start)
            return out

        monkeypatch.setattr(diffusion, "denoise", measured)
        config = TrainConfig(num_steps=3)
        cli.sample_per_class(self.production_net(0), config, self.ROWS, 0, None, np.eye(4))
        hidden_array = self.ROWS * self.HIDDEN * np.dtype(np.float32).itemsize
        assert len(peaks) == 4 * 2 * (2 * config.num_steps - 1)
        assert peaks[0] >= 2 * hidden_array  # the first call makes the tape's arrays
        assert max(peaks[1:]) < hidden_array

    def test_one_workspace_across_rows_and_branches_is_bitwise_fresh(self):
        net = self.production_net(1)
        cond = np.array([0.3, -0.1, 0.0, -0.2])
        for count in (self.ROWS, 20, self.ROWS):
            got = heun_sample(guided(net, cond, 2.0), 4, count, seed=count)
            # a fresh network on the same parameters, so a fresh tape, for every call
            want = heun_sample(
                lambda x, s: guided(ScoreNetwork(net.params), cond, 2.0)(x, s),
                4, count, seed=count)
            assert got.tobytes() == want.tobytes()

    def test_networks_on_one_bundle_keep_separate_scratch(self):
        a = self.production_net(2)
        b = ScoreNetwork(a.params)
        cond_a, cond_b = np.array([0.3, -0.1, 0.0, -0.2]), np.array([0.0, 0.5, -0.25, 0.0])

        def fresh(cond):
            return guided(ScoreNetwork(a.params), cond, 2.0)

        den_a, den_b = guided(a, cond_a, 2.0), guided(b, cond_b, 2.0)
        calls, got_b = [], []

        def a_then_b(x, s):
            out = den_a(x, s)
            calls.append((x.copy(), s))
            got_b.append(den_b(x, s))
            return out

        got_a = heun_sample(a_then_b, 4, self.ROWS, seed=0)
        assert got_a.tobytes() == heun_sample(fresh(cond_a), 4, self.ROWS, seed=0).tobytes()
        for (x, s), got in zip(calls, got_b):
            assert got.tobytes() == fresh(cond_b)(x, s).tobytes()
        # a result outlives the other network's call of its shape
        x = np.random.default_rng(3).standard_normal((self.ROWS, X_DIM))
        out_a = a.demo_out(x, 0.7, cond_a)
        out_b = b.demo_out(-x, 1.3, cond_b)
        assert out_a.tobytes() == ScoreNetwork(a.params).demo_out(x, 0.7, cond_a).tobytes()
        assert out_b.tobytes() == ScoreNetwork(a.params).demo_out(-x, 1.3, cond_b).tobytes()
