"""Demonstration-side diffusion: sigma grid, denoiser parameterization
and its residual, guidance and the deterministic second-order sampler. The
samples file is data's.

Conventions: time equals noise level (sigma(t) = t), drift is zero, so the
forward kernel is x_t = x0 + sigma * eps. The denoiser D predicts x0 (EDM
preconditioning, Karras et al. 2022). `precondition` gives its scales and
the loss weight, and `edm_residual` is its one formula: the sampler's
denoiser and the training loss both go through them. The sampler sees D
only as a batched callable (x, sigma) -> denoised. The noise levels run
between the EDM constants SIGMA_MAX and SIGMA_MIN along a power law of
exponent RHO; only the sampler's step count is a setting. What `denoise`
returns is a fresh array.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .data import N_CLASSES, X_DIM
from .network import ScoreNetwork

Denoiser = Callable[[np.ndarray, float], np.ndarray]

# EDM noise range and grid exponent (Karras et al. 2022).
SIGMA_MIN = 0.002
SIGMA_MAX = 80.0
RHO = 7.0
# The range's ends on the rho-warped axis, where the grid is uniform.
WARP_MAX = SIGMA_MAX ** (1.0 / RHO)
WARP_MIN = SIGMA_MIN ** (1.0 / RHO)


def sigma_grid(num_steps: int) -> np.ndarray:
    """Descending sigma values, SIGMA_MAX first, SIGMA_MIN at index N-1, then 0."""
    ramp = np.arange(num_steps) / (num_steps - 1)
    grid = (WARP_MAX + ramp * (WARP_MIN - WARP_MAX)) ** RHO
    grid[0] = SIGMA_MAX  # exact endpoints, no power round-trip error
    grid[-1] = SIGMA_MIN
    return np.concatenate([grid, [0.0]])


def mirror_sigma(sigma):
    """Continuous index-mirror of the power-law grid.

    Maps SIGMA_MAX <-> SIGMA_MIN along the rho-warped axis; used to pair a
    demonstration noise level with the condition noise level running in the
    opposite direction. Inputs are clamped to [SIGMA_MIN, SIGMA_MAX].
    """
    s = np.clip(sigma, SIGMA_MIN, SIGMA_MAX) ** (1.0 / RHO)
    return (WARP_MAX + WARP_MIN - s) ** RHO


class Preconditioning(NamedTuple):
    """The EDM scales at a noise level and the loss weight there."""

    c_in: np.ndarray  # 1 / sqrt(sigma^2 + sigma_data^2)
    c_out: np.ndarray  # sigma * sigma_data / sqrt(sigma^2 + sigma_data^2)
    c_skip: np.ndarray  # sigma_data^2 / (sigma^2 + sigma_data^2)
    weight: np.ndarray  # lambda(sigma) = (sigma^2 + sigma_data^2) / (sigma * sigma_data)^2


def precondition(sigma, sigma_data) -> Preconditioning:
    """EDM preconditioning (Karras et al. 2022, table 1) at `sigma`, a
    scalar or an array of noise levels, all from one sigma^2 + sigma_data^2
    and its square root."""
    var = sigma**2 + sigma_data**2
    root = np.sqrt(var)
    return Preconditioning(1.0 / root, sigma * sigma_data / root, sigma_data**2 / var,
                           var / (sigma * sigma_data) ** 2)


def edm_residual(raw, x_t, pre: Preconditioning, x0=0.0):
    """D - x0 for the network output `raw` at the noised point x_t, with the
    scales `pre` of its noise level: c_out * raw + (c_skip * x_t - x0). With
    x0 = 0 it is the denoised value D itself."""
    return pre.c_out * raw + (pre.c_skip * x_t - x0)


def denoise(net: ScoreNetwork, x_t: np.ndarray, sigma, cond) -> np.ndarray:
    """Preconditioned denoiser on a (batch, X_DIM) array.

    denoised = c_skip(sigma) * x_t + c_out(sigma) * F(c_in(sigma) * x_t,
    sigma, cond). `sigma` is a scalar or one value per row, > 0. `cond` is
    one row per point or a single row shared by the batch; the all-zero row
    is the unconditional branch. The point and the result are float64; F
    runs in the dtype of the network's parameters, on a trunk input the
    network writes straight into that dtype.
    """
    pre = precondition(sigma, net.sigma_data)
    raw = net.demo_out(pre.c_in * x_t, sigma, cond)
    return edm_residual(raw, x_t, pre)


def guided(net: ScoreNetwork, cond, w: float) -> Denoiser:
    """Classifier-free guidance (Ho & Salimans 2022) as a denoiser.

    Returns (x, sigma) -> D_u + w * (D_c - D_u), where D_c is conditioned on
    `cond` and D_u on the all-zero row; w = 1 is D_c alone. Since the score is
    (D - x) / sigma^2, this is the guided score s_u + w * (s_c - s_u).
    """
    uncond = np.zeros(N_CLASSES)

    def fn(x, sigma):
        d_cond = denoise(net, x, sigma, cond)
        if w == 1.0:
            return d_cond
        d_unc = denoise(net, x, sigma, uncond)
        return d_unc + w * (d_cond - d_unc)

    return fn


def heun_sample(denoiser: Denoiser, num_steps: int, count: int, seed: int) -> np.ndarray:
    """Deterministic probability-flow sampler, Heun second order.

    Starts from N(0, SIGMA_MAX^2 I) and walks sigma_grid(num_steps); per
    step the slope is d = (x - D(x, sigma)) / sigma, with a midpoint
    correction except on the final step to sigma = 0, which is Euler-only.
    """
    grid = sigma_grid(num_steps)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, X_DIM)) * grid[0]
    for i in range(len(grid) - 1):
        s, s_next = grid[i], grid[i + 1]
        d = (x - denoiser(x, s)) / s
        x_euler = x + (s_next - s) * d
        if s_next == 0.0:
            x = x_euler
        else:
            d_next = (x_euler - denoiser(x_euler, s_next)) / s_next
            x = x + (s_next - s) * 0.5 * (d + d_next)
    return x
