import numpy as np
import pytest

from robustdiff import nn_core
from robustdiff.diffusion import (
    SIGMA_MAX,
    SIGMA_MIN,
    c_noise,
    mirror_sigma,
    precondition,
    sigma_grid,
    trunk_input,
)
from robustdiff.network import COND_HEAD, ScoreNetwork
from robustdiff.rdc import (
    cond_channels,
    estimate_pseudo_adjoint,
    estimate_pseudo_var,
    quad_times,
)
from oracles import estimate_pseudo, float64_net, head_field


ZERO = np.zeros(4)  # the condition center of an all-zero table


def random_net(seed=0, hidden=10, depth=2, create=ScoreNetwork.create):
    net = create(hidden=hidden, depth=depth, sigma_data=0.5, seed=seed)
    rng = np.random.default_rng(seed + 50)
    net.params.values[:] = rng.normal(0, 0.4, net.params.values.size)
    return net


def condition_head(net, x, t, y):
    """The condition head at (x, t, y) through the recorded pass the training
    step makes (network.cond_var)."""
    tape = nn_core.MlpTape()
    tape.start(net.params)
    return net.cond_var(tape, trunk_input(x, t, cond_channels(y, t, ZERO))).out


class TestCondChannels:
    def test_formula_oracle(self):
        center = np.array([0.1, 0.2, 0.3, 0.4])
        rng = np.random.default_rng(8)
        y = rng.normal(size=(6, 4))
        t = np.exp(rng.uniform(-6, 4, size=(6, 1)))
        got = cond_channels(y, t, center)
        for i in range(6):
            sig_c = float(mirror_sigma(t[i, 0]))
            want = (y[i] - center) / np.sqrt(sig_c**2 + 1.0)
            assert np.allclose(got[i], want, rtol=1e-14)

    def test_scale_grows_towards_demonstration_noise(self):
        # the condition gets cleaner as the demonstration gets noisier
        ts = sigma_grid(10)[:-1][::-1]  # ascending
        scales = [float(cond_channels(np.ones((1, 4)), t, ZERO)[0, 0]) for t in ts]
        assert np.all(np.diff(scales) > 0)
        assert scales[0] == pytest.approx(1.0 / np.sqrt(80.0**2 + 1.0), rel=1e-12)
        assert scales[-1] == pytest.approx(1.0, abs=1e-5)


class TestConditionScoreHead:
    """The condition head over continuous time, as the training step records it."""

    def test_zero_initialized_head_returns_zero(self):
        net = ScoreNetwork.create(hidden=8, depth=2, sigma_data=0.5, seed=4)  # zero heads
        out = condition_head(net, np.array([[0.5, -0.5]]), 0.7, np.ones((1, 4)))
        assert np.array_equal(out, np.zeros((1, 4)))

    def test_trunk_sharing_perturbation_sensitivity(self):
        net = random_net(5)
        x = np.array([[0.3, 0.3]])
        y = np.array([[0.2, 0.1, 0.0, 0.0]])
        from robustdiff.diffusion import denoise

        demo_before = denoise(net, x, 1.0, y)
        cond_before = condition_head(net, x, 1.0, y)
        # nudge one trunk weight: both heads must move
        net.params.values[3] += 0.05
        demo_after = denoise(net, x, 1.0, y)
        cond_after = condition_head(net, x, 1.0, y)
        assert not np.allclose(demo_before, demo_after)
        assert not np.allclose(cond_before, cond_after)

    def test_composition_oracle(self):
        net = random_net(6)
        x = np.array([0.4, 0.9])
        y = np.array([0.3, -0.2, 0.5, 0.1])
        tau = sigma_grid(8)[3]
        x_ctx = precondition(tau, net.sigma_data).c_in * x
        got = condition_head(net, x_ctx[None, :], tau, y[None, :])[0]
        # independent recomposition from trunk + head passes
        scale = 1.0 / np.sqrt(float(mirror_sigma(tau)) ** 2 + 1.0)
        net_in = np.concatenate([x_ctx, [c_noise(tau)], scale * y])
        feats = net.trunk_features(net_in[None, :])
        w, b = net.params.layers()[COND_HEAD]
        want = (feats @ w + b)[0]
        assert np.allclose(got, want, rtol=1e-12)

    def test_wrong_condition_width_rejected(self):
        with pytest.raises(ValueError):
            condition_head(random_net(0), np.zeros((1, 2)), 1.0, np.zeros((1, 3)))


def recorded_estimate(net, x_ctx, y0, k):
    """rdc.estimate_pseudo_var on a fresh tape, zero center: the estimate alone."""
    tape = nn_core.MlpTape()
    tape.start(net.params)
    return estimate_pseudo_var(tape, net, x_ctx, y0, ZERO, k)[0]


class TestEstimatePseudo:
    """The production estimator, rdc.estimate_pseudo_var, and the reference
    quadrature over any field (tests/oracles.py) it is checked against."""

    def test_zero_head_returns_start_exactly(self):
        net = ScoreNetwork.create(hidden=8, depth=2, sigma_data=0.5, seed=1)  # zero cond head
        y0 = np.array([[0.7, -0.3, 0.2, 0.0]])
        got = recorded_estimate(net, np.zeros((1, 2)), y0, 8)
        assert np.array_equal(got, y0)

    def test_constant_head_matches_direct_summation(self):
        # constant head via zero weights + bias; oracle sums dt / (2 t) directly
        net = float64_net(hidden=8, depth=2, sigma_data=0.5, seed=2)
        c = np.array([1.0, -2.0, 0.5, 0.25])
        _, bias = net.params.layers()[COND_HEAD]
        bias[:] = c
        k = 8
        times = quad_times(k)
        total = sum(
            (times[m + 1] - times[m]) / (2.0 * times[m]) for m in range(k)
        )
        y0 = np.array([[0.1, 0.2, 0.3, 0.4]])
        got = recorded_estimate(net, np.zeros((1, 2)), y0, k)
        assert np.allclose(got, y0 - c * total, rtol=1e-12)

    def test_linearity_in_head_output(self):
        # doubling a state-independent field doubles the integral term exactly
        y0 = np.zeros(4)
        field = lambda x, t, y: np.tile(np.sin(t / 10.0) * np.array([1.0, 0.5, -0.25, 2.0]), (y.shape[0], 1))
        double = lambda x, t, y: 2.0 * field(x, t, y)
        a = estimate_pseudo(field, np.zeros(2), y0, 12)
        b = estimate_pseudo(double, np.zeros(2), y0, 12)
        assert np.array_equal(b, 2.0 * a)

    def test_step_halving_convergence(self):
        # smooth synthetic field: Euler error decays ~ O(1/K), so the change
        # from doubling K keeps shrinking (Richardson-style comparison)
        field = lambda x, t, y: np.full((y.shape[0], 4), np.log1p(t) * 0.1)
        y0 = np.zeros(4)
        vals = {k: estimate_pseudo(field, np.zeros(2), y0, k) for k in (8, 16, 32)}
        d1 = np.abs(vals[16] - vals[8]).max()
        d2 = np.abs(vals[32] - vals[16]).max()
        assert d2 < 0.75 * d1

    def test_nonfinite_head_names_node(self):
        calls = {"n": 0}

        def field(x, t, y):
            calls["n"] += 1
            if calls["n"] == 3:
                return np.full((y.shape[0], 4), np.nan)
            return np.zeros((y.shape[0], 4))

        with pytest.raises(nn_core.NonFiniteError, match="node 2"):
            estimate_pseudo(field, np.zeros(2), np.zeros(4), 6)

    def test_var_twin_matches_numpy_path(self):
        net = random_net(7, create=float64_net)
        rng = np.random.default_rng(3)
        x_ctx = rng.normal(size=(5, 2))
        y0 = rng.normal(size=(5, 4))
        fast = estimate_pseudo(head_field(net, ZERO), x_ctx, y0, 6)
        tape = nn_core.MlpTape()
        tape.start(net.params)
        slow, nodes = estimate_pseudo_var(tape, net, x_ctx, y0, ZERO, 6)
        assert np.allclose(fast, slow, rtol=1e-12)
        assert len(nodes) == 6

    def test_gradient_through_quadrature_matches_fd(self):
        net = random_net(8, hidden=6, depth=2, create=float64_net)
        rng = np.random.default_rng(4)
        x_ctx = rng.normal(size=(3, 2))
        y0 = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 4))

        tape = nn_core.MlpTape()
        tape.start(net.params)
        y_phi, nodes = estimate_pseudo_var(tape, net, x_ctx, y0, ZERO, 4)
        estimate_pseudo_adjoint(tape, nodes, 2.0 * (y_phi - target) / 3.0)
        g = tape.grads

        def loss():  # through the numpy quadrature, independent of the tape
            y = estimate_pseudo(head_field(net, ZERO), x_ctx, y0, 4)
            return ((y - target) ** 2).sum() / 3.0

        base = net.params.values.copy()
        fd = np.zeros_like(base)
        h = 1e-5
        for i in range(base.size):
            net.params.values[i] = base[i] + h
            vp = loss()
            net.params.values[i] = base[i] - h
            vm = loss()
            net.params.values[i] = base[i]
            fd[i] = (vp - vm) / (2 * h)
        scale = np.maximum(np.maximum(np.abs(g), np.abs(fd)), 1e-6)
        assert np.max(np.abs(g - fd) / scale) < 1e-4

    def test_quad_times_span(self):
        times = quad_times(5)
        assert times[0] == pytest.approx(SIGMA_MIN)
        assert times[-1] == pytest.approx(SIGMA_MAX)
        assert np.all(np.diff(times) > 0)
        assert len(times) == 6
