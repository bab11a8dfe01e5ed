"""Demonstration-side diffusion: sigma grid, denoiser parameterization
and its residual, trunk input, guidance, the deterministic second-order
sampler and the samples file.

Conventions: time equals noise level (sigma(t) = t), drift is zero, so the
forward kernel is x_t = x0 + sigma * eps. The denoiser D predicts x0 (EDM
preconditioning, Karras et al. 2022). `precondition` gives its scales and
the loss weight, and `edm_residual` is its one formula: the sampler's
denoiser and the training loss both go through them. The sampler sees D
only as a batched callable (x, sigma) -> denoised. The noise levels run
between the EDM constants SIGMA_MAX and SIGMA_MIN along a power law of
exponent RHO; only the sampler's step count is a setting.

A sampling run owns one nn_core.Workspace and hands it to every `guided`
denoiser it builds: each `denoise` call writes its trunk input and the
network's activations into it, so the run allocates no (batch x hidden)
arrays after its first call. The workspace lives for that one run; what
`denoise` returns is a fresh array.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import N_CLASSES, X_DIM, read_records
from .network import IN_DIM, ScoreNetwork
from .nn_core import Workspace

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


def c_noise(sigma):
    return np.log(sigma) / 4.0


def trunk_input(x_in: np.ndarray, sigma, cond: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Trunk input rows, written into `out` (a fresh float64 array when
    None): the preconditioned point x_in = c_in(sigma) * x, the noise channel
    c_noise(sigma) and the condition channels. Each is computed in float64
    and rounded once to the dtype of `out`.

    `sigma` is a scalar or one value per row; `cond` has one row per point
    or a single row shared by all.
    """
    if out is None:
        out = np.empty((x_in.shape[0], X_DIM + 1 + np.shape(cond)[-1]))
    out[:, :X_DIM] = x_in
    out[:, X_DIM : X_DIM + 1] = c_noise(sigma)
    out[:, X_DIM + 1 :] = cond
    return out


def edm_residual(raw, x_t, pre: Preconditioning, x0=0.0):
    """D - x0 for the network output `raw` at the noised point x_t, with the
    scales `pre` of its noise level: c_out * raw + (c_skip * x_t - x0). With
    x0 = 0 it is the denoised value D itself."""
    return pre.c_out * raw + (pre.c_skip * x_t - x0)


def denoise(net: ScoreNetwork, x_t: np.ndarray, sigma, cond,
            ws: Workspace | None = None) -> np.ndarray:
    """Preconditioned denoiser on a (batch, x_dim) array.

    denoised = c_skip(sigma) * x_t + c_out(sigma) * F(c_in(sigma) * x_t,
    c_noise(sigma), cond). `sigma` is a scalar or one value per row, finite
    and > 0 (ValueError otherwise). `cond` is one row per point or a single
    row shared by the batch; the all-zero row is the unconditional branch.
    The point and the result are float64; F runs in the dtype of the
    network's parameters, its input written straight into that dtype in `ws`
    (key "input"), as are its activations (fresh arrays when `ws` is None).
    """
    sig = np.asarray(sigma, dtype=np.float64)
    if not np.all(np.isfinite(sig) & (sig > 0)):
        raise ValueError("sigma must be finite and > 0")
    ws = Workspace() if ws is None else ws
    x = np.asarray(x_t, dtype=np.float64)
    pre = precondition(sig, net.sigma_data)
    net_in = ws("input", (x.shape[0], IN_DIM), net.params.values.dtype)
    raw = net.demo_out(trunk_input(pre.c_in * x, sig, cond, net_in), ws)
    return edm_residual(raw, x, pre)


def guided(net: ScoreNetwork, cond, w: float, ws: Workspace | None = None) -> Denoiser:
    """Classifier-free guidance (Ho & Salimans 2022) as a denoiser.

    Returns (x, sigma) -> D_u + w * (D_c - D_u), where D_c is conditioned on
    `cond` and D_u on the all-zero row; w = 1 is D_c alone. Since the score is
    (D - x) / sigma^2, this is the guided score s_u + w * (s_c - s_u). Both
    branches run in `ws`, the sampling run's workspace (one of the
    denoiser's own when None).
    """
    if not 1.0 <= w < np.inf:
        raise ValueError("guidance scale w must be >= 1 and finite")
    uncond = np.zeros(N_CLASSES)
    ws = Workspace() if ws is None else ws

    def fn(x, sigma):
        d_cond = denoise(net, x, sigma, cond, ws)
        if w == 1.0:
            return d_cond
        d_unc = denoise(net, x, sigma, uncond, ws)
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
    """One record per line: comma-separated coordinates then the class id. The
    non-finite points read_samples refuses are refused before anything is made."""
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: non-finite sample coordinates, not written")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
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
