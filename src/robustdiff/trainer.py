"""Two-phase robust training loop.

Phase 1 (until the early-stop budget): every iteration draws demonstration
noise, forms the reverse-time-diffused condition for the score-matching term,
estimates a fresh pseudo condition for every sample in the batch, folds it
into the table with the momentum update, and applies one optimizer step on the
combined objective (denoising term plus condition term).

Phase 2 (after the budget): the table is frozen, conditioning switches to the
bare pseudo conditions, and only the denoising objective trains.

Variants: `vanilla` conditions on the given noisy labels and never touches the
table; `pc_only` reads the condition head directly as the pseudo estimate;
`pc_rdc` estimates it through the reverse-time integral.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Callable

import numpy as np

from . import data as data_mod
from . import nn_core, pseudo, rdc
from .diffusion import (
    NoiseSchedule,
    c_in,
    c_out,
    c_skip,
    loss_weight,
    mirror_sigma,
    trunk_input,
)
from .network import ScoreNetwork
from .nn_core import OptState

VARIANTS = ("vanilla", "pc_only", "pc_rdc")


@dataclass
class TrainConfig:
    variant: str = "pc_rdc"
    batch_size: int = 512
    total_iters: int = 10_000
    alpha: float = 0.1
    early_stop_iters: int = 500
    cfg_drop_prob: float = 0.1
    guidance_w: float = 2.0
    # schedule (shared by demonstration diffusion and the condition kernel)
    sigma_min: float = 0.002
    sigma_max: float = 80.0
    rho: float = 7.0
    num_steps: int = 18
    # network
    hidden: int = 64
    depth: int = 3
    sigma_data: float = 2.5  # matched to the toy layout's per-coordinate std
    x_dim: int = 2
    cond_dim: int = 4
    # condition-process settings
    quad_nodes: int = 8
    y0_std: float = 1.0
    proto_floor: float = 0.012  # reliability floor for sampling prototypes
    # optimizer
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # training-time noise-level sampling: ln sigma ~ N(mean, std^2)
    logsigma_mean: float = -1.2
    logsigma_std: float = 1.2
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.total_iters and self.total_iters < self.early_stop_iters:
            raise ValueError("total_iters must cover the early-stop budget")

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(self.sigma_min, self.sigma_max, self.rho, self.num_steps)

    def rdc_state(self, center=None) -> rdc.RdcState:
        return rdc.RdcState(self.schedule(), self.cond_dim, center=center)

    def stop_policy(self) -> pseudo.EarlyStopPolicy:
        return pseudo.EarlyStopPolicy(self.early_stop_iters)

    def digest(self) -> str:
        canon = ";".join(f"{k}={v}" for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


@dataclass
class TrainData:
    points: np.ndarray  # (n, 2)
    noisy_onehot: np.ndarray  # (n, C)
    noisy: np.ndarray
    clean: np.ndarray

    @classmethod
    def from_samples(cls, samples, cond_dim: int) -> "TrainData":
        pts = data_mod.points(samples)
        noisy = data_mod.noisy_labels(samples)
        if noisy.size and not (noisy.min() >= 0 and noisy.max() < cond_dim):
            raise ValueError(
                f"noisy labels span {noisy.min()}..{noisy.max()}; "
                f"cond_dim={cond_dim} needs them in 0..{cond_dim - 1}"
            )
        onehot = np.zeros((len(samples), cond_dim))
        onehot[np.arange(len(samples)), noisy] = 1.0
        return cls(pts, onehot, noisy, data_mod.clean_labels(samples))

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass
class Checkpoint:
    params: nn_core.ParamBundle
    pseudo: pseudo.PseudoTable
    opt: OptState
    iteration: int
    config_digest: str
    prototypes: np.ndarray | None = None  # (C, C) sampling conditions per class


def class_prototypes(
    table: pseudo.PseudoTable, noisy: np.ndarray, cond_dim: int, floor: float = 0.012
) -> np.ndarray:
    """Per-label-class sampling conditions from the pseudo table.

    The network only ever saw (centered) table entries as conditions, so
    sampling conditions on centered per-label means of the table rather than
    on raw one-hot vectors. The steps, for each label class present in
    `noisy`:

    1. center: the class mean of the table minus the table mean;
    2. shrink: scale by the Wiener-style reliability gain
       |p|^2 / (|p|^2 + floor^2), so a label class the table never resolved
       beyond the population mean collapses to the unconditional token
       instead of amplifying an unresolved direction;
    3. re-center: subtract the mean of the shrunk present-class rows, since
       unequal gains (and unequal class counts) undo the centering of step 1.

    Centered means the present-class prototypes sum to zero. With balanced
    class counts, re-centering moves an unresolved class by at most about
    floor / (number of present classes), so it stays near the unconditional
    token. A class with no occurrences falls back to its one-hot row, which
    takes no part in the centering.
    """
    center = table.entries.mean(axis=0)
    protos = np.eye(cond_dim)
    present = np.array([np.any(noisy == c) for c in range(cond_dim)])
    for c in np.flatnonzero(present):
        p = table.entries[noisy == c].mean(axis=0) - center
        gain = float(p @ p) / (float(p @ p) + floor * floor)
        protos[c] = gain * p
    protos[present] -= protos[present].mean(axis=0)
    return protos


class TrainingDiverged(RuntimeError):
    def __init__(self, message: str, checkpoint: Checkpoint):
        super().__init__(message)
        self.checkpoint = checkpoint


@dataclass
class IterationDraws:
    """Every random number one iteration consumes, drawn up front.

    One noise level per sample drives both the demonstration noising and the
    condition path: the condition head reads the features of the same noised
    point the denoiser sees.
    """

    idx: np.ndarray
    sigma: np.ndarray  # (B,1) demonstration noise levels
    eps_x: np.ndarray  # (B,2)
    drop: np.ndarray  # (B,1) guidance-drop mask
    eps_c: np.ndarray | None = None  # (B,C) condition-kernel noise
    y_start: np.ndarray | None = None  # (B,C) random boundary states


def draw_iteration(
    rng: np.random.Generator, n_data: int, config: TrainConfig, cond_path: bool
) -> IterationDraws:
    b = config.batch_size
    idx = rng.integers(0, n_data, size=b)
    sig = np.exp(rng.normal(config.logsigma_mean, config.logsigma_std, (b, 1)))
    eps_x = rng.standard_normal((b, config.x_dim))
    drop = rng.random((b, 1)) < config.cfg_drop_prob
    if not cond_path:
        return IterationDraws(idx, sig, eps_x, drop)
    eps_c = rng.standard_normal((b, config.cond_dim))
    y_start = config.y0_std * rng.standard_normal((b, config.cond_dim))
    return IterationDraws(idx, sig, eps_x, drop, eps_c, y_start)


@dataclass
class LossStepResult:
    loss: float
    grads: np.ndarray
    demo_term: float
    cond_term: float
    y_phi: np.ndarray | None


def _dsm_condition(
    data: TrainData,
    table: pseudo.PseudoTable,
    config: TrainConfig,
    draws: IterationDraws,
    phase2: bool,
    state: rdc.RdcState,
) -> np.ndarray:
    """Conditioning channels for the denoising term, before guidance drop.

    All table-derived conditions are centered by the table mean so only the
    informative deviation reaches the network.
    """
    if config.variant == "vanilla":
        return data.noisy_onehot[draws.idx]
    entries = table.get(draws.idx)
    if phase2 or config.variant == "pc_only":
        return entries - state.center
    # Reverse-time kernel: condition noise level mirrors the demonstration's.
    y_t = entries + mirror_sigma(draws.sigma, state.schedule) * draws.eps_c
    return rdc.cond_channels(y_t, draws.sigma, state)


def loss_step(
    net: ScoreNetwork,
    data: TrainData,
    table: pseudo.PseudoTable,
    config: TrainConfig,
    draws: IterationDraws,
    iteration: int,
) -> LossStepResult:
    """Combined objective value and flat parameter gradient for one batch."""
    phase2 = config.variant != "vanilla" and pseudo.should_stop(
        iteration, config.stop_policy()
    )
    b = draws.idx.size
    x0 = data.points[draws.idx]
    y_til = data.noisy_onehot[draws.idx]
    sd = net.sigma_data
    center = None if config.variant == "vanilla" else table.entries.mean(axis=0)
    state = config.rdc_state(center)

    cond = _dsm_condition(data, table, config, draws, phase2, state)
    cond = np.where(draws.drop, 0.0, cond)

    x_t = x0 + draws.sigma * draws.eps_x
    x_in = c_in(draws.sigma, sd) * x_t

    tape = net.tape
    tape.start(net.params)
    demo = net.demo_var(tape, trunk_input(x_in, draws.sigma, cond))
    # denoised - x0 = (c_skip * x_t - x0) + c_out * raw
    out_scale = c_out(draws.sigma, sd)
    weight = loss_weight(draws.sigma, sd)
    err = demo.out * out_scale + (c_skip(draws.sigma, sd) * x_t - x0)
    inv_b = 1.0 / b
    demo_term = ((err * err) * weight).sum() * inv_b
    # The denoising pass goes back first: the order in which the passes add
    # into a layer's gradient fixes its bits.
    tape.backward(demo, ((inv_b * weight) * (2.0 * err)) * out_scale)

    y_phi = None
    cond_term = 0.0
    if config.variant != "vanilla" and not phase2:
        # Context = the same noised point the denoiser consumes, already on
        # the preconditioned scale for its own noise level.
        if config.variant == "pc_rdc":
            y_phi, nodes = rdc.estimate_pseudo_var(
                tape, net, x_in, draws.y_start, state, config.quad_nodes
            )
        else:
            pc_in = trunk_input(x_in, draws.sigma, table.get(draws.idx) - state.center)
            pc = net.cond_var(tape, pc_in)
            y_phi = pc.out
        diff = y_phi - y_til
        cond_term = (diff * diff).sum() * inv_b
        g_y = inv_b * (2.0 * diff)
        if config.variant == "pc_rdc":
            rdc.estimate_pseudo_adjoint(tape, nodes, g_y, state)
        else:
            tape.backward(pc, g_y)
    return LossStepResult(
        loss=float(demo_term + cond_term),
        grads=tape.grads,
        demo_term=float(demo_term),
        cond_term=float(cond_term),
        y_phi=y_phi,
    )


SnapshotCallback = Callable[[int, ScoreNetwork, pseudo.PseudoTable], None]


def train(
    config: TrainConfig,
    samples,
    log_path=None,
    snapshot_every: int = 0,
    snapshot_cb: SnapshotCallback | None = None,
) -> Checkpoint:
    """Run the full loop; returns the final checkpoint.

    Raises TrainingDiverged (carrying the last finite checkpoint) if the loss
    goes non-finite.
    """
    if not samples:
        raise ValueError("dataset must be non-empty")
    tdata = TrainData.from_samples(samples, config.cond_dim)
    net = ScoreNetwork.create(
        x_dim=config.x_dim,
        cond_dim=config.cond_dim,
        hidden=config.hidden,
        depth=config.depth,
        sigma_data=config.sigma_data,
        seed=config.seed,
    )
    table = pseudo.init_pseudo(tdata.size, config.cond_dim)
    opt = OptState.fresh(net.params)
    rng = np.random.default_rng(config.seed + 1)
    digest = config.digest()
    log_f = open(log_path, "a") if log_path else None
    t_start = time.perf_counter()
    iteration = 0
    try:
        for iteration in range(config.total_iters):
            phase2 = config.variant != "vanilla" and pseudo.should_stop(
                iteration, config.stop_policy()
            )
            cond_path = config.variant != "vanilla" and not phase2
            draws = draw_iteration(rng, tdata.size, config, cond_path)
            result = loss_step(net, tdata, table, config, draws, iteration)
            if not np.isfinite(result.loss):
                raise TrainingDiverged(
                    f"non-finite loss at iteration {iteration}",
                    Checkpoint(net.params, table, opt, iteration, digest),
                )
            if cond_path:
                pseudo.ensemble_update(table, draws.idx, result.y_phi, config.alpha)
            new_params, opt = nn_core.adam_step(
                net.params,
                result.grads,
                opt,
                lr=config.lr,
                beta1=config.beta1,
                beta2=config.beta2,
                eps=config.adam_eps,
            )
            net.params = new_params
            if log_f and (iteration % 100 == 0 or iteration == config.total_iters - 1):
                log_f.write(
                    f"iter {iteration} demo {result.demo_term:.6f} "
                    f"cond {result.cond_term:.6f} "
                    f"wall {time.perf_counter() - t_start:.2f}\n"
                )
            if snapshot_cb and snapshot_every and (iteration + 1) % snapshot_every == 0:
                snapshot_cb(iteration + 1, net, table)
    finally:
        if log_f:
            log_f.close()
    if config.variant == "vanilla":
        protos = np.eye(config.cond_dim)
    else:
        protos = class_prototypes(table, tdata.noisy, config.cond_dim, config.proto_floor)
    return Checkpoint(net.params, table, opt, config.total_iters, digest, protos)


# ---------------------------------------------------------------------------
# Checkpoint persistence: params in the binary format, optimizer moments in a
# sibling binary file, pseudo table as text, config echo in meta.txt
# ---------------------------------------------------------------------------

_OPT_HEADER = b"robustdiff-opt 1\n"


def save_checkpoint(outdir, checkpoint: Checkpoint, config: TrainConfig) -> None:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    nn_core.save_params(outdir / "model.ckpt", checkpoint.params)
    with open(outdir / "opt.ckpt", "wb") as f:
        f.write(_OPT_HEADER)
        f.write(f"step {checkpoint.opt.step_count} size {checkpoint.opt.first_moment.size}\n".encode())
        f.write(checkpoint.opt.first_moment.astype("<f8").tobytes())
        f.write(checkpoint.opt.second_moment.astype("<f8").tobytes())
    if config.variant != "vanilla":
        pseudo.save_table(outdir / "pseudo.txt", checkpoint.pseudo)
    if checkpoint.prototypes is not None:
        with open(outdir / "prototypes.txt", "w") as f:
            for c, row in enumerate(checkpoint.prototypes):
                vals = " ".join(repr(float(v)) for v in row)
                f.write(f"{c} {vals}\n")
    with open(outdir / "meta.txt", "w") as f:
        f.write(f"iteration = {checkpoint.iteration}\n")
        f.write(f"config_digest = {checkpoint.config_digest}\n")
        for k, v in sorted(asdict(config).items()):
            f.write(f"{k} = {v}\n")


def load_checkpoint(outdir) -> tuple[ScoreNetwork, TrainConfig, Checkpoint]:
    outdir = Path(outdir)
    meta: dict[str, str] = {}
    with open(outdir / "meta.txt") as f:
        for line in f:
            if "=" in line:
                k, v = line.split("=", 1)
                meta[k.strip()] = v.strip()
    kwargs = {
        name: (meta[name] if name == "variant" else _coerce(meta[name]))
        for name in TrainConfig.__dataclass_fields__
        if name in meta
    }
    config = TrainConfig(**kwargs)
    params = nn_core.load_params(outdir / "model.ckpt")
    net = ScoreNetwork(
        params,
        x_dim=config.x_dim,
        cond_dim=config.cond_dim,
        hidden=config.hidden,
        depth=config.depth,
        sigma_data=config.sigma_data,
    )
    with open(outdir / "opt.ckpt", "rb") as f:
        header = f.readline()
        if header != _OPT_HEADER:
            raise ValueError("unrecognized optimizer checkpoint header")
        parts = f.readline().split()
        step, size = int(parts[1]), int(parts[3])
        body = f.read()
    if size != params.values.size or len(body) != 2 * 8 * size:
        raise ValueError(
            f"optimizer checkpoint holds {len(body)} bytes for size {size}; "
            f"expected two moments of {params.values.size} float64 values"
        )
    m = np.frombuffer(body[: 8 * size], dtype="<f8").astype(np.float64)
    v = np.frombuffer(body[8 * size :], dtype="<f8").astype(np.float64)
    opt = OptState(m, v, step)
    if (outdir / "pseudo.txt").exists():
        table = pseudo.load_table(outdir / "pseudo.txt")
    else:
        table = pseudo.init_pseudo(1, config.cond_dim)
    protos = None
    if (outdir / "prototypes.txt").exists():
        rows = []
        with open(outdir / "prototypes.txt") as f:
            for line in f:
                parts = line.split()
                rows.append((int(parts[0]), [float(v) for v in parts[1:]]))
        rows.sort()
        c = config.cond_dim
        if [i for i, _ in rows] != list(range(c)) or any(len(v) != c for _, v in rows):
            raise ValueError(
                f"{outdir / 'prototypes.txt'}: expected rows 0..{c - 1} of {c} values each"
            )
        protos = np.array([r[1] for r in rows])
    ckpt = Checkpoint(
        params, table, opt, int(meta["iteration"]), meta["config_digest"], protos
    )
    return net, config, ckpt


def _coerce(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw
