"""Independent reference implementations the tests check production code
against. Nothing in the package calls them.

- `dsm_loss`: the denoising score-matching loss through any denoiser
  callable, against which `trainer.loss_step`'s denoising term is checked;
- `trunk_input`: the trunk input rows in float64, which
  `ScoreNetwork.trunk_input` matches once they are rounded to its dtype;
- `head_field` and `estimate_pseudo`: the condition head as a field over
  continuous time, on `trunk_input` and `full_scale_silu`, and an Euler
  quadrature over any such field, against which `rdc.estimate_pseudo_var`
  and its adjoint are checked;
- `full_scale_silu` and `full_scale_pass`: the SiLU layer and a recorded
  pass with its backward on full-scale parameters, the formulas that
  `nn_core.silu_layer` and `MlpTape`, which run on half-scale ones, match
  bit for bit;
- `float64_net`: the network `ScoreNetwork.create` makes, on float64
  parameters, the precision at which finite differences and the formula
  checks' tolerances hold.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from robustdiff import nn_core
from robustdiff.diffusion import Denoiser, precondition
from robustdiff.network import COND_HEAD, DEMO_HEAD, ScoreNetwork
from robustdiff.rdc import cond_channels, quad_times

FieldFn = Callable[[np.ndarray, float, np.ndarray], np.ndarray]


def dsm_loss(
    denoiser: Denoiser,
    x0: np.ndarray,
    sigmas: np.ndarray,
    eps: np.ndarray,
    sigma_data: float,
) -> float:
    """Denoising score-matching loss.

    Mean over the batch of lambda(sigma) * ||D(x0 + sigma*eps, sigma) - x0||^2,
    with D called once on the whole batch and sigma as a (batch, 1) column.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    if x0.shape[0] == 0:
        raise ValueError("empty batch")
    sig = np.asarray(sigmas, dtype=np.float64).reshape(x0.shape[0], 1)
    if np.any(sig <= 0):
        raise ValueError("sigma must be > 0")
    eps = np.asarray(eps, dtype=np.float64).reshape(x0.shape)
    x_t = x0 + sig * eps
    err = ((denoiser(x_t, sig) - x0) ** 2).sum(axis=1, keepdims=True)
    return float(np.mean(precondition(sig, sigma_data).weight * err))


def trunk_input(x_in, sigma, cond) -> np.ndarray:
    """Trunk input rows in float64: the preconditioned point x_in, the noise
    channel ln(sigma) / 4 (EDM's c_noise) and the condition channels, side
    by side. `sigma` is a scalar or a (rows, 1) column; `cond` is one row
    per point or a single row shared by all."""
    x_in = np.asarray(x_in, dtype=np.float64)
    rows = len(x_in)
    noise = np.broadcast_to(np.log(np.asarray(sigma, dtype=np.float64)) / 4.0, (rows, 1))
    cond = np.asarray(cond, dtype=np.float64)
    return np.concatenate([x_in, noise, np.broadcast_to(cond, (rows, cond.shape[-1]))], axis=1)


def full_scale_silu(x, w, b) -> tuple[np.ndarray, np.ndarray]:
    """The SiLU layer on full-scale parameters: z = x @ w + b, sigmoid
    s = (1 + tanh(z * 0.5)) * 0.5, h = z * s and the derivative
    s + h * (1 - s). Returns (h, derivative), in the dtype of the inputs."""
    z = x @ w + b
    s = np.tanh(z * 0.5)
    s += 1.0
    s *= 0.5
    h = z * s
    return h, s + h * (1.0 - s)


def full_scale_pass(
    params: nn_core.ParamBundle,
    x: np.ndarray,
    layers: list[int],
    g_out: np.ndarray,
    input_cols: slice,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x through `layers` of `params`, full_scale_silu on all but the last,
    then the walk back from g_out = dL/d(out): the chain rule on full-scale
    weights, each layer's gradient added into one zeroed array.

    Returns the pass's output, the flat parameter gradient and the columns
    `input_cols` of dL/dx.
    """
    wb = params.layers()
    inputs, dacts = [x], []
    for k in layers[:-1]:
        h, dact = full_scale_silu(inputs[-1], *wb[k])
        inputs.append(h)
        dacts.append(dact)
    w, b = wb[layers[-1]]
    out = inputs[-1] @ w + b
    grads = np.zeros_like(params.values)
    grad_layers = params.layers(grads)
    g = np.asarray(g_out, dtype=grads.dtype)
    ones = np.ones(g.shape[0], grads.dtype)
    for j in reversed(range(len(layers))):
        if j < len(dacts):
            g = dacts[j] * g  # dL/dz
        gw, gb = grad_layers[layers[j]]
        gw += inputs[j].T @ g
        gb += ones @ g
        if j > 0:
            g = g @ wb[layers[j]][0].T
    return out, grads, g @ wb[layers[0]][0][input_cols].T


def float64_net(hidden: int, depth: int, seed: int) -> ScoreNetwork:
    """ScoreNetwork.create's network with its parameters cast to float64."""
    params = ScoreNetwork.create(hidden, depth, seed).params
    return ScoreNetwork(nn_core.ParamBundle(params.layer_shapes, params.values.astype(np.float64)))


def head_field(net: ScoreNetwork, center: np.ndarray) -> FieldFn:
    """The condition head of `net` as a field (x, t, y) -> s, with condition
    values centered by `center`: `trunk_input` rounded to the parameters'
    dtype, full_scale_silu on the trunk layers, then the condition head.

    `x` is the context on the trunk's preconditioned point scale (the caller
    applies c_in for whatever noise level the context carries).
    """

    def field(x, t, y):
        layers = net.params.layers()
        h = trunk_input(x, t, cond_channels(y, t, center)).astype(net.params.values.dtype)
        for w, b in layers[:DEMO_HEAD]:
            h, _ = full_scale_silu(h, w, b)
        w, b = layers[COND_HEAD]
        return h @ w + b

    return field


def estimate_pseudo(
    field: FieldFn,
    x_context: np.ndarray,
    y_start: np.ndarray,
    k: int,
) -> np.ndarray:
    """Deterministic pseudo-condition estimate over any field.

    Solves d y / dt = -s(y_t, t) / (2t) from the random boundary state
    `y_start` up to t = T with k Euler nodes on [SIGMA_MIN, T]; equivalently
    returns y_start minus the accumulated quadrature of s / (2t).
    """
    y = np.atleast_2d(np.asarray(y_start, dtype=np.float64)).copy()
    squeeze = np.asarray(y_start).ndim == 1
    x_ctx = np.atleast_2d(np.asarray(x_context, dtype=np.float64))
    if x_ctx.shape[0] == 1 and y.shape[0] > 1:
        x_ctx = np.broadcast_to(x_ctx, (y.shape[0], x_ctx.shape[1]))
    times = quad_times(k)
    for node in range(k):
        tau = float(times[node])
        dt = float(times[node + 1] - times[node])
        s = np.atleast_2d(np.asarray(field(x_ctx, tau, y), dtype=np.float64))
        if not np.all(np.isfinite(s)):
            raise nn_core.NonFiniteError(
                f"non-finite condition score at quadrature node {node} (t={tau:g})"
            )
        y = y - (dt / (2.0 * tau)) * s
    return y[0] if squeeze else y
