"""Independent reference implementations the tests check production code
against. Nothing in the package calls them.

- `dsm_loss`: the denoising score-matching loss through any denoiser
  callable, against which `trainer.loss_step`'s denoising term is checked;
- `head_field` and `estimate_pseudo`: the condition head as a field over
  continuous time and an Euler quadrature over any such field, against which
  `rdc.estimate_pseudo_var` and its adjoint are checked;
- `float64_net`: the network `ScoreNetwork.create` makes, on float64
  parameters, the precision at which finite differences and the formula
  checks' tolerances hold.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from robustdiff import nn_core
from robustdiff.diffusion import Denoiser, precondition, trunk_input
from robustdiff.network import COND_HEAD, ScoreNetwork
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


def float64_net(hidden: int, depth: int, sigma_data: float, seed: int) -> ScoreNetwork:
    """ScoreNetwork.create's network with its parameters cast to float64."""
    params = ScoreNetwork.create(hidden, depth, sigma_data, seed).params
    return ScoreNetwork(nn_core.ParamBundle(params.layer_shapes, params.values.astype(np.float64)),
                        sigma_data)


def head_field(net: ScoreNetwork, center: np.ndarray) -> FieldFn:
    """The condition head of `net` as a field (x, t, y) -> s, off the tape,
    with condition values centered by `center`.

    `x` is the context on the trunk's preconditioned point scale (the caller
    applies c_in for whatever noise level the context carries).
    """

    def field(x, t, y):
        w, b = net.params.layers()[COND_HEAD]
        return net.trunk_features(trunk_input(x, t, cond_channels(y, t, center))) @ w + b

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
