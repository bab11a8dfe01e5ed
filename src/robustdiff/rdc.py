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

from .diffusion import RHO, WARP_MAX, WARP_MIN, mirror_sigma
from .network import COND_COLS, ScoreNetwork


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
    net: ScoreNetwork,
    x_context: np.ndarray,
    y_start: np.ndarray,
    center: np.ndarray,
    k: int,
) -> np.ndarray:
    """Deterministic pseudo-condition estimate, batched.

    Solves d y / dt = -s(y_t, t) / (2t), where s is the condition head at the
    context `x_context` (B, X_DIM) on the trunk's preconditioned point scale,
    from the random boundary state `y_start` (B, C) up to t = T with k Euler
    nodes on [SIGMA_MIN, T]. Each node's condition-head pass is recorded on
    net.tape at the parts (x_context, tau, condition channels), so the k
    node passes are the tape's last k; estimate_pseudo_adjoint walks them
    back. Returns the estimate.
    """
    y = y_start
    for tau, step, scale in _quad_nodes(k):
        cond = (y - center) * scale  # cond_channels(y, tau, center)
        y = y - step * net.cond_var(x_context, tau, cond)
    return y


def estimate_pseudo_adjoint(net: ScoreNetwork, k: int, g_y: np.ndarray) -> None:
    """Backward of estimate_pseudo_var with k nodes from g_y = dL/d(estimate).

    Discretise-then-differentiate (the discrete Neural-ODE adjoint of Chen et
    al. 2018): the Euler steps y_{n+1} = y_n - dt_n / (2 tau_n) * s_n are
    walked from the last node to the first, as the tape's stack hands the
    node passes back. Node n's score gradient goes through its pass into
    net.tape.grads, and the pass's condition channels carry the rest of
    dL/dy_n: the backward computes those input columns, network.COND_COLS,
    alone. The start state is a draw, so node 0 needs no input gradient.
    """
    consts = _quad_nodes(k)
    for node in reversed(range(k)):
        _, step, scale = consts[node]
        g_cond = net.tape.backward(-g_y * step, COND_COLS if node > 0 else None)
        if node > 0:
            g_y = g_y + g_cond * scale
