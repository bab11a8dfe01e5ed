"""Demonstration-side diffusion: sigma grid, denoiser parameterization
and its residual, trunk input, guidance, the deterministic second-order
sampler and the samples file.

Conventions: time equals noise level (sigma(t) = t), drift is zero, so the
forward kernel is x_t = x0 + sigma * eps. The denoiser D predicts x0 (EDM
preconditioning, Karras et al. 2022). `edm_residual` is its one formula: the
sampler's denoiser and the training loss both go through it. The sampler
sees D only as a batched callable (x, sigma) -> denoised. The noise levels
run between the EDM constants SIGMA_MAX and SIGMA_MIN along a power law of
exponent RHO; only the sampler's step count is a setting.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import read_records
from .network import ScoreNetwork

SAMPLES_HEADER = "x1,x2,class"
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


def c_skip(sigma, sigma_data):
    return sigma_data**2 / (sigma**2 + sigma_data**2)


def c_out(sigma, sigma_data):
    return sigma * sigma_data / np.sqrt(sigma**2 + sigma_data**2)


def c_in(sigma, sigma_data):
    return 1.0 / np.sqrt(sigma**2 + sigma_data**2)


def c_noise(sigma):
    return np.log(sigma) / 4.0


def loss_weight(sigma, sigma_data):
    """lambda(sigma) = (sigma^2 + sigma_data^2) / (sigma * sigma_data)^2."""
    return (sigma**2 + sigma_data**2) / (sigma * sigma_data) ** 2


def trunk_input(x_in: np.ndarray, sigma, cond: np.ndarray) -> np.ndarray:
    """Trunk input rows: the preconditioned point x_in = c_in(sigma) * x, the
    noise channel c_noise(sigma) and the condition channels.

    `sigma` is a scalar or one value per row; `cond` has one row per point.
    """
    noise = np.broadcast_to(c_noise(sigma), (x_in.shape[0], 1))
    return np.concatenate([x_in, noise, cond], axis=1)


def edm_residual(raw, x_t, sigma, sigma_data, x0=0.0):
    """D - x0 for the network output `raw` at the noised point x_t:
    c_out(sigma) * raw + (c_skip(sigma) * x_t - x0). With x0 = 0 it is the
    denoised value D itself."""
    return c_out(sigma, sigma_data) * raw + (c_skip(sigma, sigma_data) * x_t - x0)


def denoise(net: ScoreNetwork, x_t: np.ndarray, sigma, cond) -> np.ndarray:
    """Preconditioned denoiser on a (batch, x_dim) array.

    denoised = c_skip(sigma) * x_t + c_out(sigma) * F(c_in(sigma) * x_t,
    c_noise(sigma), cond). `cond` is one row per point or a single row shared
    by the batch; the all-zero row is the unconditional branch. The point and
    the result are float64; F runs in the dtype of the network's parameters.
    """
    if np.any(np.asarray(sigma) <= 0):
        raise ValueError("sigma must be > 0")
    x = np.asarray(x_t, dtype=np.float64)
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (x.shape[0], 1))
    c = np.broadcast_to(cond, (x.shape[0], net.cond_dim))
    sd = net.sigma_data
    raw = net.demo_out(trunk_input(c_in(sig, sd) * x, sig, c))
    return edm_residual(raw, x, sig, sd)


def guided(net: ScoreNetwork, cond, w: float) -> Denoiser:
    """Classifier-free guidance (Ho & Salimans 2022) as a denoiser.

    Returns (x, sigma) -> D_u + w * (D_c - D_u), where D_c is conditioned on
    `cond` and D_u on the all-zero row; w = 1 is D_c alone. Since the score is
    (D - x) / sigma^2, this is the guided score s_u + w * (s_c - s_u).
    """
    if not 1.0 <= w < np.inf:
        raise ValueError("guidance scale w must be >= 1 and finite")
    uncond = np.zeros(net.cond_dim)

    def fn(x, sigma):
        d_cond = denoise(net, x, sigma, cond)
        if w == 1.0:
            return d_cond
        d_unc = denoise(net, x, sigma, uncond)
        return d_unc + w * (d_cond - d_unc)

    return fn


def heun_sample(
    denoiser: Denoiser, x_dim: int, num_steps: int, count: int, seed: int
) -> np.ndarray:
    """Deterministic probability-flow sampler, Heun second order.

    Starts from N(0, SIGMA_MAX^2 I) in x_dim dimensions and walks
    sigma_grid(num_steps); per step the slope is d = (x - D(x, sigma)) /
    sigma, with a midpoint correction except on the final step to sigma = 0,
    which is Euler-only.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    grid = sigma_grid(num_steps)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((count, x_dim)) * grid[0]
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


def write_samples(path, samples: np.ndarray, class_ids: np.ndarray) -> None:
    """One record per line: comma-separated coordinates then the class id.
    Refuses, before opening `path`, the non-finite points read_samples refuses."""
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: non-finite sample coordinates, not written")
    with open(path, "w") as f:
        f.write(SAMPLES_HEADER + "\n")
        for row, cid in zip(samples, class_ids):
            coords = ",".join(repr(float(v)) for v in row)
            f.write(f"{coords},{int(cid)}\n")


def read_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a write_samples file: points (n, 2) and class ids (n,), checked
    as data.read_records checks them."""
    pts, ids = read_records(path, SAMPLES_HEADER)
    return pts, ids[:, 0]
