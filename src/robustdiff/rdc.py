"""Reverse-time diffusion over conditions.

The condition runs the noise schedule in the opposite direction from the
demonstration: fully random where the demonstration is clean (t = 0) and
clean where the demonstration is pure noise (t = T). At demonstration time t
the condition noise level is mirror_sigma(t), the continuous mirror of the
demonstration grid. The pseudo-condition estimate integrates the learned
condition score field from its random boundary state to the clean end with an
Euler solver over the reversed grid. Each node's condition-head pass is
recorded, and the training step walks the quadrature back through its
discrete adjoint.

The noise levels are diffusion's EDM constants (SIGMA_MIN, SIGMA_MAX, RHO);
the functions take the centering directly. `center` (C,), the pseudo table's
mean, is subtracted from condition values before they enter the trunk, so
the condition channels carry only the informative deviation from the
population mean: an uninformative table then looks like the unconditional
token.
"""

from __future__ import annotations

import functools

import numpy as np

from . import nn_core
from .diffusion import RHO, WARP_MAX, WARP_MIN, mirror_sigma, trunk_input
from .network import ScoreNetwork


def cond_channels(y, t, center):
    """Condition channels of the trunk input at demonstration time t.

    (y - center) / sqrt(mirror_sigma(t)^2 + 1): heavily noised conditions
    stay at unit magnitude, nearly clean ones pass at full strength. `t` is a
    scalar or a (batch, 1) column.
    """
    return (y - center) * (1.0 / np.sqrt(mirror_sigma(t) ** 2 + 1.0))


def quad_times(k: int) -> np.ndarray:
    """k+1 ascending time nodes from SIGMA_MIN to T = SIGMA_MAX along the
    reversed grid law."""
    if k < 1:
        raise ValueError("need at least one quadrature node")
    ramp = np.arange(k + 1) / k
    return (WARP_MIN + ramp * (WARP_MAX - WARP_MIN)) ** RHO


@functools.lru_cache(maxsize=8)
def _quad_nodes(k: int) -> tuple[tuple[float, float, float], ...]:
    """Per Euler node n of quad_times(k): tau_n, the step factor
    dt_n / (2 tau_n) and the condition scale d cond_channels / d y at tau_n."""
    times = quad_times(k)
    return tuple((float(t), float((t_next - t) / (2.0 * t)), float(cond_channels(1.0, t, 0.0)))
                 for t, t_next in zip(times[:-1], times[1:]))


def estimate_pseudo_var(
    tape: nn_core.MlpTape,
    net: ScoreNetwork,
    x_context: np.ndarray,
    y_start: np.ndarray,
    center: np.ndarray,
    k: int,
) -> tuple[np.ndarray, list[nn_core.RecordedPass]]:
    """Deterministic pseudo-condition estimate, batched.

    Solves d y / dt = -s(y_t, t) / (2t), where s is the condition head at the
    context `x_context` (B, x_dim) on the trunk's preconditioned point scale,
    from the random boundary state `y_start` (B, C) up to t = T with k Euler
    nodes on [SIGMA_MIN, T]. Each node's condition-head pass is recorded on
    `tape` on a plain trunk-input array (the tape's workspace keeps only the
    half-scale parameters and the (B x hidden) arrays). Returns the estimate
    and the k node passes, which estimate_pseudo_adjoint walks back.
    """
    y = y_start
    nodes = []
    for tau, step, scale in _quad_nodes(k):
        cond = (y - center) * scale  # cond_channels(y, tau, center)
        rec = net.cond_var(tape, trunk_input(x_context, tau, cond))
        nodes.append(rec)
        y = y - step * rec.out
    return y, nodes


def estimate_pseudo_adjoint(
    tape: nn_core.MlpTape,
    nodes: list[nn_core.RecordedPass],
    g_y: np.ndarray,
) -> None:
    """Backward of estimate_pseudo_var from g_y = dL/d(estimate).

    Discretise-then-differentiate (the discrete Neural-ODE adjoint of Chen et
    al. 2018): the Euler steps y_{n+1} = y_n - dt_n / (2 tau_n) * s_n are
    walked from the last node to the first. Node n's score gradient goes
    through its recorded pass into tape.grads, and the pass's condition
    channels carry the rest of dL/dy_n: the backward computes those input
    columns alone. The start state is a draw, so node 0 needs no input
    gradient.
    """
    cond_cols = slice(-g_y.shape[1], None)
    consts = _quad_nodes(len(nodes))
    for node in reversed(range(len(nodes))):
        _, step, scale = consts[node]
        g_cond = tape.backward(nodes[node], -g_y * step, cond_cols if node > 0 else None)
        if node > 0:
            g_y = g_y + g_cond * scale
