import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustdiff import nn_core, trainer
from robustdiff.data import N_CLASSES, X_DIM
from robustdiff.network import COND_HEAD, DEMO_HEAD, IN_DIM, ScoreNetwork
from robustdiff.nn_core import (
    MlpTape,
    NonFiniteError,
    ParamBundle,
    ShapeError,
    adam_step,
    init_params,
)
from oracles import float64_net, full_scale_pass, full_scale_silu


def hand_forward(net, x):
    """Independent loop-based demo_out pass (SiLU trunk, linear demonstration
    head) used as the oracle."""
    h = list(x)
    layers = net.params.layers()
    trunk = layers[:DEMO_HEAD]
    for k, (w, b) in enumerate(trunk + [layers[DEMO_HEAD]]):
        out = []
        for j in range(w.shape[1]):
            acc = b[j]
            for i in range(w.shape[0]):
                acc += h[i] * w[i, j]
            out.append(acc)
        if k < len(trunk):
            out = [v / (1.0 + np.exp(-v)) for v in out]
        h = out
    return np.array(h)


def random_net(seed, hidden=5, depth=2, create=ScoreNetwork.create):
    net = create(hidden=hidden, depth=depth, sigma_data=0.5, seed=seed)
    rng = np.random.default_rng(seed + 7)
    net.params.values[:] = rng.normal(0, 0.7, net.params.values.size)
    return net


def plain_forward(params, x):
    """Independent forward: SiLU on every layer but the last, linear last."""
    h = x
    n_layers = len(params.layer_shapes)
    for k in range(n_layers):
        w, b = params.layers()[k]
        h = h @ w + b
        if k < n_layers - 1:
            h = h / (1.0 + np.exp(-h))
    return h


def pass_grad(params, x, seed_fn, input_cols=None):
    """Record one pass of x through every layer, seed its readout with
    seed_fn(out) -> (loss, dloss/dout) and walk it back. Returns the loss,
    the flat parameter gradient and the input gradient's columns
    `input_cols` (or None)."""
    tape = MlpTape()
    tape.start(params)
    rec = tape.record(x, list(range(len(params.layer_shapes))))
    value, g_out = seed_fn(rec.out)
    g_x = tape.backward(rec, g_out, input_cols)
    return value, tape.grads, g_x


def fd_gradient(values, loss_fn, h=1e-4):
    """Central differences of loss_fn() in every entry of `values`, in place."""
    base = values.copy()
    out = np.zeros_like(base)
    for i in np.ndindex(base.shape):
        values[i] = base[i] + h
        vp = loss_fn()
        values[i] = base[i] - h
        vm = loss_fn()
        values[i] = base[i]
        out[i] = (vp - vm) / (2.0 * h)
    return out


def max_rel_err(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


class TestMlpForward:
    """The plain forward pass, ScoreNetwork.demo_out."""

    def test_identity_layer(self):
        # an identity demonstration head reads the trunk features out unchanged
        net = random_net(0, hidden=2, depth=1)
        w, b = net.params.layers()[DEMO_HEAD]
        w[:] = np.eye(2)
        b[:] = 0.0
        x = np.random.default_rng(1).normal(size=(3, IN_DIM))
        assert np.array_equal(net.demo_out(x), net.trunk_features(x))

    def test_constant_bias_layer(self):
        # zero head weights, bias 0.5: every input maps to 0.5
        net = ScoreNetwork.create(hidden=4, depth=2, sigma_data=0.5, seed=0)
        _, b = net.params.layers()[DEMO_HEAD]
        b[:] = 0.5
        for x in ([1.0, 2.0, 3.0, 0, 0, 0, 1.0], [-4.0, 0.0, 9.0, 1.0, 0, 0, 0]):
            assert np.array_equal(net.demo_out(np.array([x])), np.full((1, 2), 0.5))

    def test_two_layer_matches_hand_oracle(self):
        net = random_net(4, create=float64_net)
        x = np.random.default_rng(11).normal(size=IN_DIM)
        got = net.demo_out(x[None, :])[0]
        want = hand_forward(net, x)
        assert np.allclose(got, want, rtol=1e-12, atol=0)

    def test_widths_follow_the_parameters(self):
        # A network built from parameters alone, as the benchmark builds one
        # from a checkpoint, reads its depth from their layer shapes: every
        # layer but the last two is trunk, and the heads give X_DIM and
        # N_CLASSES columns.
        params = init_params([(7, 16), (16, 16), (16, 2), (16, 4)], seed=0)  # hidden 16, depth 2
        net = ScoreNetwork(params, sigma_data=2.5)
        x = np.zeros((3, IN_DIM))
        tape = MlpTape()
        tape.start(net.params)
        demo = net.demo_var(tape, x)
        cond = net.cond_var(tape, x)
        assert (demo.layers, cond.layers) == ([0, 1, 2], [0, 1, 3])
        assert demo.out.shape == net.demo_out(x).shape == (3, X_DIM)
        assert cond.out.shape == (3, N_CLASSES)

    def test_dimension_mismatch_rejected(self):
        net = ScoreNetwork.create(hidden=4, depth=2, sigma_data=0.5, seed=0)
        with pytest.raises(ShapeError):
            net.demo_out(np.zeros((1, IN_DIM + 1)))

    def test_pure_function_bitwise(self):
        net = random_net(1, hidden=8)
        x = np.random.default_rng(2).normal(size=(6, IN_DIM))
        assert np.array_equal(net.demo_out(x), net.demo_out(x))

    def test_batched_matches_per_row(self):
        net = random_net(9, hidden=4, create=float64_net)
        x = np.random.default_rng(3).normal(size=(5, IN_DIM))
        batched = net.demo_out(x)
        rows = np.concatenate([net.demo_out(r[None, :]) for r in x])
        assert np.allclose(batched, rows, rtol=1e-14)

    @pytest.mark.parametrize("batch", [1, 7, 512])
    def test_recorded_pass_equals_off_tape_forward(self, batch):
        # Sampling (demo_out) and the training step (demo_var) run the same
        # nn_core.silu_layer, so they agree bit for bit.
        net = ScoreNetwork.create(hidden=64, depth=3, sigma_data=2.5, seed=3)  # trained widths
        rng = np.random.default_rng(batch)
        net.params.values[:] = rng.normal(0, 0.3, net.params.values.size)
        x = rng.normal(size=(batch, IN_DIM))
        tape = MlpTape()
        tape.start(net.params)
        rec = net.demo_var(tape, x)
        assert np.array_equal(net.trunk_features(x), rec.h[-1])
        assert np.array_equal(net.demo_out(x), rec.out)


class TestGrad:
    """The hand-written backward of a recorded pass, MlpTape.backward."""

    def test_square_loss_scalar_param(self):
        # one linear layer, rows x = +1 and -1, loss = sum(out^2) / 2 at
        # w = 3: d/dw = sum(x * out) = 6 and d/db = sum(out) = 0
        params = ParamBundle([(1, 1)], np.array([3.0, 0.0]))
        x = np.array([[1.0], [-1.0]])
        _, g, _ = pass_grad(params, x, lambda out: (0.5 * (out**2).sum(), out))
        assert g[0] == pytest.approx(6.0)
        assert g[1] == 0.0

    def test_constant_loss_zero_gradient(self):
        params = init_params([(2, 3), (3, 1)], seed=5)
        x = np.random.default_rng(5).normal(size=(4, 2))
        _, g, _ = pass_grad(params, x, lambda out: (0.0, np.zeros_like(out)))
        assert np.array_equal(g, np.zeros_like(params.values))

    def test_mlp_mse_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = init_params([(3, 6), (6, 6), (6, 2)], seed=7)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def mse(out):
            return np.mean((out - target) ** 2), 2.0 * (out - target) / out.size

        _, g, _ = pass_grad(params, x, mse)
        fd = fd_gradient(params.values, lambda: mse(plain_forward(params, x))[0])
        assert max_rel_err(g, fd) < 1e-4

    def test_primitive_grads_property(self):
        # randomized agreement with central finite differences, >= 100 trials,
        # over random depths, widths and batch sizes, for the parameter
        # gradient and the input gradient
        rng = np.random.default_rng(42)
        seeds = [
            lambda out, y: (np.mean((out - y) ** 2), 2.0 * (out - y) / out.size),
            lambda out, y: ((out * y).sum(), y),
            lambda out, y: (np.mean(out * out), 2.0 * out / out.size),
        ]
        for trial in range(100):
            widths = list(rng.integers(1, 6, size=rng.integers(2, 5)))
            shapes = list(zip(widths[:-1], widths[1:]))
            params = init_params(shapes, seed=trial)
            params.values[:] += rng.normal(0, 0.2, params.values.size)
            x = rng.normal(size=(int(rng.integers(1, 5)), widths[0]))
            y = rng.normal(size=(x.shape[0], widths[-1]))
            fn = seeds[trial % len(seeds)]
            _, g, g_x = pass_grad(params, x, lambda out: fn(out, y), slice(None))
            loss = lambda: fn(plain_forward(params, x), y)[0]
            assert max_rel_err(g, fd_gradient(params.values, loss)) < 1e-4, f"trial {trial}"
            assert max_rel_err(g_x, fd_gradient(x, loss)) < 1e-4, f"trial {trial}"

    @pytest.mark.parametrize("cols", [slice(-4, None), slice(0, 3)], ids=["condition", "head"])
    def test_column_restricted_input_gradient(self, cols):
        # Trunk-shaped input: 7 wide, whose last 4 columns are the condition
        # channels the RDC adjoint asks for.
        rng = np.random.default_rng(3)
        params = init_params([(7, 6), (6, 6), (6, 4)], seed=3)
        params.values[:] += rng.normal(0, 0.2, params.values.size)
        x = rng.normal(size=(5, 7))
        y = rng.normal(size=(5, 4))
        fn = lambda out: ((out * y).sum(), y)
        _, g, g_cols = pass_grad(params, x, fn, cols)
        _, g_all, g_x = pass_grad(params, x, fn, slice(None))
        assert g_cols.shape == g_x[:, cols].shape
        np.testing.assert_allclose(g_cols, g_x[:, cols], rtol=1e-12, atol=1e-12)
        assert np.array_equal(g, g_all)
        fd = fd_gradient(x, lambda: fn(plain_forward(params, x))[0])
        assert max_rel_err(g_cols, fd[:, cols]) < 1e-4
        assert pass_grad(params, x, fn)[2] is None


class TestSiluLayer:
    """nn_core.silu_layer against the exp form of SiLU."""

    @pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-12), (np.float32, 1e-6)],
                             ids=["float64", "float32"])
    def test_matches_exp_form_without_overflow(self, dtype, rtol):
        # The exp form z / (1 + exp(-z)) and its derivative s * (1 + z * (1 - s)),
        # in float64; exp(1e4) overflows to inf there, and the form still reads
        # the limit, -0.0.
        z = np.array([0.0, 20.0, -20.0, 60.0, -60.0, 100.0, -100.0, 1e4, -1e4])
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-z))
        want_h, want_dact = z * s, s * (1.0 + z * (1.0 - s))
        # The layer takes half-scale parameters: z / 2 = x @ [[0.5]] + 0 is
        # each value halved exactly, and dact is twice the derivative.
        x = z.astype(dtype)[:, None]
        out, sig, dact = (np.empty((z.size, 1), dtype) for _ in range(3))
        with np.errstate(all="raise"):  # no clip, yet nothing overflows
            h = nn_core.silu_layer(x, np.full((1, 1), 0.5, dtype), np.zeros(1, dtype),
                                   out, sig, dact)
        assert h is out and h.dtype == dtype
        # atol = rtol: for z << 0, 1 + tanh(z / 2) cancels, so the tanh form is
        # exact on the unit scale of the sigmoid rather than relative to a
        # vanishing value.
        np.testing.assert_allclose(h[:, 0], want_h, rtol=rtol, atol=rtol)
        np.testing.assert_allclose(dact[:, 0] / 2, want_dact, rtol=rtol, atol=rtol)


def in_z_range(magnitude=st.floats(1e-30, 1e4)):
    """±0, or a value whose magnitude lies in [1e-30, 1e4]."""
    signed = st.tuples(magnitude, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])
    return st.one_of(st.sampled_from([0.0, -0.0]), signed)


class TestHalfScaleExactness:
    """silu_layer and the tape run on halved parameters, with the results of
    the full-scale formulas bit for bit (oracles.full_scale_silu and
    full_scale_pass): every halving is by a power of two."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]))
    def test_layer_on_halved_parameters_is_bitwise_the_full_scale_formula(self, data, dtype):
        rows = data.draw(st.integers(1, 8), label="rows")
        # Each pre-activation on its own: z = x @ [[1]] + (-0), which keeps
        # the sign of a zero, over the whole range.
        z = np.array(data.draw(st.lists(in_z_range(), min_size=rows, max_size=rows),
                               label="z"), dtype)[:, None]
        cases = [(z, np.ones((1, 1), dtype), np.full(1, -0.0, dtype))]
        # A product of several columns: inputs and bias over the same range,
        # weights of magnitude 1/2 to 4, so that no product, nor a difference
        # of two, is subnormal even halved.
        m, n = data.draw(st.integers(1, 4), label="in"), data.draw(st.integers(1, 4), label="out")
        draw = lambda size, values, label: np.array(
            data.draw(st.lists(values, min_size=size, max_size=size), label=label), dtype)
        cases.append((draw(rows * m, in_z_range(), "x").reshape(rows, m),
                      draw(m * n, in_z_range(st.floats(0.5, 4)), "w").reshape(m, n),
                      draw(n, in_z_range(), "b")))
        for x, w, b in cases:
            want_h, want_dact = full_scale_silu(x, w, b)
            out, s, dact = (np.empty(want_h.shape, dtype) for _ in range(3))
            with np.errstate(all="raise"):
                h = nn_core.silu_layer(x, w * 0.5, b * 0.5, out, s, dact)
            assert h.dtype == dtype
            assert h.tobytes() == want_h.tobytes()
            assert dact.tobytes() == (2 * want_dact).tobytes()

    @pytest.mark.parametrize("head", [DEMO_HEAD, COND_HEAD], ids=["demo", "cond"])
    def test_tape_gradients_are_bitwise_the_full_scale_backward(self, head):
        # The production layout and precision: a float32 network of three
        # 64-wide trunk layers, one 512-row pass, the condition columns of
        # the input gradient as the RDC adjoint asks for them.
        net = ScoreNetwork.create(hidden=64, depth=3, sigma_data=2.5, seed=4)
        rng = np.random.default_rng(5)
        net.params.values[:] = rng.normal(0, 0.3, net.params.values.size)
        n = len(net.params.layer_shapes)
        layers = [0, 1, 2, n + head]
        x = rng.normal(size=(512, IN_DIM)).astype(np.float32)
        cols = slice(-N_CLASSES, None)
        tape = MlpTape()
        tape.start(net.params)
        rec = tape.record(x, layers)
        g_out = rng.normal(size=rec.out.shape).astype(np.float32)
        want_out, want_grads, want_cols = full_scale_pass(net.params, x, layers, g_out, cols)
        assert rec.out.tobytes() == want_out.tobytes()
        got_cols = tape.backward(rec, g_out, cols)
        assert got_cols.tobytes() == want_cols.tobytes()
        assert tape.grads.tobytes() == want_grads.tobytes()  # every weight and bias
        assert np.any(tape.grads)


class TestTapeSlots:
    """Live passes form a stack: they go back last-in first-out."""

    def test_walked_back_pass_lends_its_buffers(self):
        params = init_params([(2, 3), (3, 3), (3, 1)], seed=1)
        x = np.random.default_rng(1).normal(size=(4, 2))
        tape = MlpTape()
        tape.start(params)
        first = tape.record(x, [0, 1, 2])
        second = tape.record(x, [0, 1, 2])
        tape.backward(second, np.ones_like(second.out))
        third = tape.record(x, [0, 1, 2])
        assert all(a is b for a, b in zip(third.h + third.dact, second.h + second.dact))
        assert not any(a is b for a, b in zip(third.h + third.dact, first.h + first.dact))

    def test_pass_below_a_live_one_rejected(self):
        params = init_params([(2, 3), (3, 1)], seed=2)
        tape = MlpTape()
        tape.start(params)
        first = tape.record(np.ones((2, 2)), [0, 1])
        second = tape.record(np.ones((2, 2)), [0, 1])
        with pytest.raises(ValueError, match="recorded before a live pass"):
            tape.backward(first, np.ones((2, 1)))
        assert not np.any(tape.grads)
        tape.backward(second, np.ones((2, 1)))
        tape.backward(first, np.ones((2, 1)))

    def test_second_backward_rejected(self):
        params = init_params([(2, 3), (3, 1)], seed=2)
        tape = MlpTape()
        tape.start(params)
        rec = tape.record(np.ones((2, 2)), [0, 1])
        tape.backward(rec, np.ones((2, 1)))
        with pytest.raises(ValueError, match="walked back already"):
            tape.backward(rec, np.ones((2, 1)))
        tape.start(params)
        with pytest.raises(ValueError, match="earlier step"):
            tape.backward(rec, np.ones((2, 1)))


def zero_moments(params):
    """Fresh Adam moments for `params`: two zero arrays in its dtype."""
    return np.zeros_like(params.values), np.zeros_like(params.values)


def stepped(params, grads, m, v, t, lr):
    """adam_step on a copy of `params`, returned; `params` keep their values."""
    out = ParamBundle(params.layer_shapes, params.values.copy())
    adam_step(out, grads, m, v, t, lr)
    return out


class TestAdam:
    def test_zero_gradient_fresh_state_keeps_params(self):
        params = init_params([(2, 2)], seed=3)
        before = params.values.copy()
        m, v = zero_moments(params)
        new_params = stepped(params, np.zeros_like(before), m, v, 1, 1e-3)
        assert np.array_equal(new_params.values, before)
        assert not np.any(m) and not np.any(v)

    def test_first_step_hand_value(self):
        # g = 1, lr = 1e-3: m_hat = v_hat = 1 -> delta = lr / (1 + eps)
        params = ParamBundle([(1, 1)], np.array([0.25, 0.0]))
        g = np.array([1.0, 0.0])
        m, v = zero_moments(params)
        new_params = stepped(params, g, m, v, 1, 1e-3)
        expected = 0.25 - 1e-3 * 1.0 / (np.sqrt(1.0) + nn_core.ADAM_EPS)
        assert new_params.values[0] == pytest.approx(expected, rel=1e-15)
        # the moments were updated in place
        assert m[0] == pytest.approx(1.0 - nn_core.BETA1, rel=1e-15)
        assert v[0] == pytest.approx(1.0 - nn_core.BETA2, rel=1e-15)

    def test_two_constant_steps_match_hand_recursion(self):
        # two steps at g = 0.5, then one at g = 0
        lr, b1, b2, eps = 1e-3, nn_core.BETA1, nn_core.BETA2, nn_core.ADAM_EPS
        params = ParamBundle([(1, 1)], np.array([1.0, 0.0]))
        g = np.array([0.5, 0.0])
        m, v = zero_moments(params)
        p1 = stepped(params, g, m, v, 1, lr)
        p2 = stepped(p1, g, m, v, 2, lr)
        p3 = stepped(p2, np.zeros_like(g), m, v, 3, lr)  # momentum alone moves theta
        # hand recursion
        m1 = (1 - b1) * 0.5
        v1 = (1 - b2) * 0.25
        theta1 = 1.0 - lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        m2 = b1 * m1 + (1 - b1) * 0.5
        v2 = b2 * v1 + (1 - b2) * 0.25
        theta2 = theta1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)
        m3 = b1 * m2
        v3 = b2 * v2
        theta3 = theta2 - lr * (m3 / (1 - b1**3)) / (np.sqrt(v3 / (1 - b2**3)) + eps)
        assert p1.values[0] == pytest.approx(theta1, rel=1e-15)
        assert p2.values[0] == pytest.approx(theta2, rel=1e-15)
        assert p3.values[0] == pytest.approx(theta3, rel=1e-15)
        assert theta3 < theta2
        assert m[0] == pytest.approx(m3, rel=1e-15) and v[0] == pytest.approx(v3, rel=1e-15)

    def test_nonfinite_gradient_rejected_params_untouched(self):
        params = init_params([(2, 1)], seed=1)
        before = params.values.copy()
        bad = np.full(params.values.size, np.nan)
        with pytest.raises(NonFiniteError):
            adam_step(params, bad, *zero_moments(params), 1, 1e-3)
        assert np.array_equal(params.values, before)

    def test_overflowing_second_moment_rejected_state_untouched(self):
        # a finite gradient whose square overflows leaves v at inf; the
        # moments are the caller's to drop, the parameters stay as they were
        params = init_params([(2, 1)], seed=1)
        before = params.values.copy()
        grads = np.full(params.values.size, 1e200)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NonFiniteError, match="second moment overflows"):
                adam_step(params, grads, *zero_moments(params), 1, 1e-3)
        assert np.array_equal(params.values, before)

    def test_gradient_length_mismatch(self):
        params = init_params([(2, 1)], seed=1)
        with pytest.raises(ShapeError):
            adam_step(params, np.zeros(2), *zero_moments(params), 1, 1e-3)

    @pytest.mark.parametrize("grad, lr, message", [
        (np.nan, 1e-3, "non-finite gradient entries"),
        (1e200, 1e-3, "second moment overflows"),
        (-1.0, 1e308, "non-finite parameter values"),  # 1e308 + ~1e308 overflows
    ], ids=["nan_gradient", "moment_overflow", "value_overflow"])
    def test_rejected_step_leaves_values_bitwise(self, grad, lr, message):
        params = ParamBundle([(1, 1)], np.array([1e308, -0.0]))
        values, before = params.values, params.values.tobytes()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match=message):
                adam_step(params, np.array([grad, 0.0]), *zero_moments(params), 1, lr)
        assert params.values is values and params.values.tobytes() == before

    def test_tape_reads_the_stepped_values(self):
        # Adam writes into the array the tape's views read: the next step's
        # pass and gradient equal a fresh tape's on a copy of the new values
        params = init_params([(3, 4), (4, 2)], seed=4)
        x = np.random.default_rng(4).normal(size=(5, 3))
        tape = MlpTape()
        tape.start(params)
        rec = tape.record(x, [0, 1])
        tape.backward(rec, np.ones_like(rec.out))
        values, before = params.values, params.values.copy()
        assert adam_step(params, tape.grads, *zero_moments(params), 1, 0.1) is None
        assert params.values is values and not np.array_equal(values, before)
        fresh = MlpTape()
        fresh.start(ParamBundle(params.layer_shapes, params.values.copy()))
        tape.start(params)
        got, want = tape.record(x, [0, 1]), fresh.record(x, [0, 1])
        assert got.out.tobytes() == want.out.tobytes()
        tape.backward(got, np.ones_like(got.out))
        fresh.backward(want, np.ones_like(want.out))
        assert tape.grads.tobytes() == fresh.grads.tobytes()

class TestParamBundle:
    def test_count_invariant_enforced(self):
        with pytest.raises(ShapeError):
            ParamBundle([(2, 2)], np.zeros(5))

    def test_nonfinite_values_rejected(self):
        vals = np.zeros(6)
        vals[3] = np.inf
        with pytest.raises(NonFiniteError):
            ParamBundle([(2, 2)], vals)

    def test_layer_views_share_memory(self):
        params = init_params([(2, 2), (2, 1)], seed=0)
        w, b = params.layers()[0]
        w[0, 0] = 123.0
        assert params.values[0] == 123.0
        # the same layout over another array, as over a gradient
        grads = np.zeros_like(params.values)
        gw, gb = params.layers(grads)[1]
        assert (gw.shape, gb.shape) == ((2, 1), (1,))
        gb[0] = 7.0
        assert grads[-1] == 7.0 and np.count_nonzero(grads) == 1


class TestCheckpointIO:
    """The parameter bundle's trip through the checkpoint archive.

    A second save is no longer byte-identical to the first: zip entries carry
    the time of writing.
    """

    def test_round_trip_bitwise(self, tmp_path):
        cfg = trainer.TrainConfig(hidden=5, depth=1, total_iters=0)
        net = ScoreNetwork.create(hidden=5, depth=1, sigma_data=cfg.sigma_data, seed=13)
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
        params = create(hidden=5, depth=1, sigma_data=cfg.sigma_data, seed=13).params
        rng = np.random.default_rng(2)
        params.values[:] = rng.normal(size=params.values.size)
        grads = rng.normal(size=params.values.size)
        m, v = zero_moments(params)
        adam_step(params, grads, m, v, 1, 1e-3)
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
