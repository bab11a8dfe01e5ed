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

The table is a plain (n_samples, N_CLASSES) array, and a step reads the
dataset's own arrays: the points and the noisy labels, one-hot encoded per
batch. The table's mean centers the conditions; `train` takes it at the
start and after every ensemble update. The problem's shape is no setting: it
is data.X_DIM and data.N_CLASSES, and the network's layout is
network.layer_shapes. Nor are the fixed choices: the EDM sigma_data is
data.SIGMA_DATA, the prototype floor a TrainConfig class constant, and the
draws of an iteration (the log-normal noise level, the guidance drop rate,
the boundary state's std) are constants of this module.

Nor is the precision a setting. The network trains in float32: its
parameters (ScoreNetwork.create), every recorded pass and its backward, the
gradient and Adam's moments, which stay local to `train`. The dataset, the
table, the EDM sigma columns, the loss sums and the prototypes stay float64.
A checkpoint holds what sampling reads and the table, no optimizer state.

A step allocates no (batch x hidden) arrays once the network's tape has seen
its shapes: the tape keeps them and the half-scale parameters, and
everything smaller is a plain array, such as each pass's trunk input, which
the network writes in float32. Adam writes the new values into the
network's parameter array in place, which the tape's views read.

A run given a directory owns it: it writes LOG_FILE there as it goes, and
CHECKPOINT_FILE when it ends, diverged or not.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zipfile
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, ClassVar

import numpy as np

from . import data as data_mod
from . import network, nn_core, pseudo, rdc
from .diffusion import edm_residual, mirror_sigma, precondition
from .network import ScoreNetwork

VARIANTS = ("vanilla", "pc_only", "pc_rdc")


# The draws of a training iteration: ln sigma ~ N(LOGSIGMA_MEAN,
# LOGSIGMA_STD^2), the guidance drop rate and the RDC boundary state's std.
LOGSIGMA_MEAN = -1.2
LOGSIGMA_STD = 1.2
CFG_DROP_PROB = 0.1
Y0_STD = 1.0
# Adam scales its float32 update by lr, so lr must be a float32 number.
LR_MAX = float(np.finfo(np.float32).max)
# Row c is the one-hot encoding of label c.
_ONE_HOT = np.eye(data_mod.N_CLASSES)


@dataclass
class TrainConfig:
    variant: str = "pc_rdc"
    batch_size: int = 512
    total_iters: int = 10_000
    alpha: float = 0.1
    early_stop_iters: int = 500
    num_steps: int = 18  # sampler steps on diffusion.sigma_grid
    hidden: int = 64
    depth: int = 3
    quad_nodes: int = 8  # RDC quadrature nodes
    lr: float = 1e-3
    seed: int = 0
    # Constants, not settings: the prototype reliability floor. cond_dim and
    # sigma_data, read only by perfbench/run.py, go with ROADMAP direction 1(a).
    cond_dim: ClassVar[int] = data_mod.N_CLASSES
    sigma_data: ClassVar[float] = data_mod.SIGMA_DATA
    proto_floor: ClassVar[float] = 0.012

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("batch_size", "hidden", "depth", "quad_nodes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.total_iters < 0:
            raise ValueError("total_iters must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.variant != "vanilla":  # vanilla has no phase 1, so no budget
            if self.early_stop_iters < 1:
                raise ValueError("early_stop_iters must be >= 1 for pc_only and pc_rdc")
            if self.total_iters and self.total_iters < self.early_stop_iters:
                raise ValueError("total_iters must cover the early-stop budget")
        if self.num_steps < 2:
            raise ValueError("num_steps must be >= 2")
        if not self.lr > 0:
            raise ValueError("lr must be > 0")
        if self.lr > LR_MAX:
            raise ValueError(f"lr must be <= {LR_MAX:g}, the float32 maximum")

    def in_phase1(self, iteration: int) -> bool:
        """Whether `iteration` trains the condition path and updates the
        table: the pc_* variants before the early-stop budget, never vanilla."""
        return self.variant != "vanilla" and iteration < self.early_stop_iters


@dataclass
class Checkpoint:
    """What sampling reads, the pseudo table, the iteration reached and
    whether the run diverged (never sampled then)."""

    params: nn_core.ParamBundle
    pseudo: np.ndarray  # (N, C) pseudo-condition table
    iteration: int
    prototypes: np.ndarray  # (C, C) sampling conditions per class
    diverged: bool = False


def class_prototypes(
    table: np.ndarray, noisy: np.ndarray, cond_dim: int, floor: float
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
    center = table.mean(axis=0)
    protos = np.eye(cond_dim)
    present = np.array([np.any(noisy == c) for c in range(cond_dim)])
    for c in np.flatnonzero(present):
        p = table[noisy == c].mean(axis=0) - center
        gain = float(p @ p) / (float(p @ p) + floor * floor)
        protos[c] = gain * p
    protos[present] -= protos[present].mean(axis=0)
    return protos


def sampling_prototypes(config: TrainConfig, table: np.ndarray, noisy) -> np.ndarray:
    """The per-class sampling conditions of a `config.variant` run: one-hot
    rows for vanilla, class_prototypes of the table otherwise."""
    if config.variant == "vanilla":
        return np.eye(data_mod.N_CLASSES)
    return class_prototypes(table, noisy, data_mod.N_CLASSES, config.proto_floor)


class TrainingDiverged(RuntimeError):
    """`training diverged: <reason> at iteration N`; the run's checkpoint holds
    the state iteration N started from, flagged never to be sampled."""


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
    sig = np.exp(rng.normal(LOGSIGMA_MEAN, LOGSIGMA_STD, (b, 1)))
    eps_x = rng.standard_normal((b, data_mod.X_DIM))
    drop = rng.random((b, 1)) < CFG_DROP_PROB
    if not cond_path:
        return IterationDraws(idx, sig, eps_x, drop)
    eps_c = rng.standard_normal((b, data_mod.N_CLASSES))
    y_start = Y0_STD * rng.standard_normal((b, data_mod.N_CLASSES))
    return IterationDraws(idx, sig, eps_x, drop, eps_c, y_start)


def loss_step(
    net: ScoreNetwork,
    samples: data_mod.Dataset,
    table: np.ndarray,
    config: TrainConfig,
    draws: IterationDraws,
    iteration: int,
    center: np.ndarray | None,
) -> tuple[float, float, np.ndarray | None]:
    """The objective's two terms for one batch, `(demo_term, cond_term,
    y_phi)`, their sum's gradient left in `net.tape.grads`: the step starts
    the network's tape and walks back every pass it records. `demo_term` is
    the denoising loss; `cond_term` and the pseudo-condition estimate `y_phi`
    are 0.0 and None outside phase 1. `center` is the table's mean, None for
    vanilla. Each pass takes the preconditioned point, its noise level and
    its condition."""
    phase1 = config.in_phase1(iteration)
    x0 = samples.points[draws.idx]
    y_til = _ONE_HOT[samples.noisy[draws.idx]]  # one-hot noisy labels

    # The denoising term's condition, before the guidance drop. Table rows are
    # centered by the table mean, so only the informative deviation reaches
    # the network.
    if config.variant == "vanilla":
        cond = y_til
    elif phase1 and config.variant == "pc_rdc":
        # Reverse-time kernel: condition noise level mirrors the demonstration's.
        y_t = table[draws.idx] + mirror_sigma(draws.sigma) * draws.eps_c
        cond = rdc.cond_channels(y_t, draws.sigma, center)
    else:
        cond = table[draws.idx] - center

    x_t = x0 + draws.sigma * draws.eps_x
    pre = precondition(draws.sigma, net.sigma_data)
    x_in = pre.c_in * x_t

    net.tape.start()
    demo = net.demo_var(x_in, draws.sigma, np.where(draws.drop, 0.0, cond))
    err = edm_residual(demo, x_t, pre, x0)
    inv_b = 1.0 / draws.idx.size
    demo_term = ((err * err) * pre.weight).sum() * inv_b
    # The denoising pass goes back first: the order in which the passes add
    # into a layer's gradient fixes its bits.
    net.tape.backward(((inv_b * pre.weight) * (2.0 * err)) * pre.c_out)

    y_phi = None
    cond_term = 0.0
    if phase1:
        # Context = the same noised point the denoiser consumes, already on
        # the preconditioned scale for its own noise level.
        if config.variant == "pc_rdc":
            y_phi = rdc.estimate_pseudo_var(net, x_in, draws.y_start, center, config.quad_nodes)
        else:  # the head at the table row itself, never dropped
            y_phi = net.cond_var(x_in, draws.sigma, cond)
        diff = y_phi - y_til
        cond_term = (diff * diff).sum() * inv_b
        g_y = inv_b * (2.0 * diff)
        if config.variant == "pc_rdc":
            rdc.estimate_pseudo_adjoint(net, config.quad_nodes, g_y)
        else:
            net.tape.backward(g_y)
    return float(demo_term), float(cond_term), y_phi


SnapshotCallback = Callable[[int, ScoreNetwork, np.ndarray], None]


# The loop checks the loss and Adam's values; numpy's warnings would report a divergence twice.
@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    samples,
    outdir=None,
    snapshot_every: int = 0,
    snapshot_cb: SnapshotCallback | None = None,
) -> Checkpoint:
    """Run the full loop; returns the final checkpoint. With an `outdir`, the
    run makes it, writes LOG_FILE there as it goes and saves the checkpoint
    there when it ends. Raises TrainingDiverged if the loss, the gradient or
    the updated parameters go non-finite; the checkpoint then holds the state
    the failing iteration started from, flagged diverged.
    """
    net = ScoreNetwork.create(config.hidden, config.depth, config.seed)
    table = np.zeros((len(samples), data_mod.N_CLASSES))  # every sample starts at zero
    center = None if config.variant == "vanilla" else table.mean(axis=0)
    m, v = np.zeros((2, net.params.values.size), net.params.values.dtype)  # Adam's moments
    rng = np.random.default_rng(config.seed + 1)
    if outdir:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    # Line-buffered, so a running cell's log can be followed.
    log_f = open(Path(outdir) / LOG_FILE, "w", buffering=1) if outdir else None
    t_start = time.perf_counter()
    failure = None
    try:
        for iteration in range(config.total_iters):
            cond_path = config.in_phase1(iteration)
            draws = draw_iteration(rng, len(samples), config, cond_path)
            demo_term, cond_term, y_phi = loss_step(net, samples, table, config, draws,
                                                    iteration, center)
            try:
                if not np.isfinite(demo_term + cond_term):
                    raise nn_core.NonFiniteError("non-finite loss")
                nn_core.adam_step(net.params, net.tape.grads, m, v, iteration + 1, config.lr)
            except nn_core.NonFiniteError as exc:
                failure = exc  # the state this iteration started from is intact
                break
            if cond_path:
                pseudo.ensemble_update(table, draws.idx, y_phi, config.alpha)
                center = table.mean(axis=0)
            if log_f and (iteration % 100 == 0 or iteration == config.total_iters - 1):
                log_f.write(
                    f"iter {iteration} demo {demo_term:.6f} cond {cond_term:.6f} "
                    f"wall {time.perf_counter() - t_start:.2f}\n"
                )
            if snapshot_cb and snapshot_every and (iteration + 1) % snapshot_every == 0:
                snapshot_cb(iteration + 1, net, table)
    finally:
        if log_f:
            log_f.close()
    reached = iteration if failure else config.total_iters
    ckpt = Checkpoint(net.params, table, reached,
                      sampling_prototypes(config, table, samples.noisy), failure is not None)
    if outdir:
        save_checkpoint(outdir, ckpt, config)
    if failure:
        raise TrainingDiverged(f"training diverged: {failure} at iteration {reached}") from failure
    return ckpt


# ---------------------------------------------------------------------------
# Checkpoint persistence: one np.savez archive per checkpoint directory
# ---------------------------------------------------------------------------

CHECKPOINT_FILE = "checkpoint.npz"
LOG_FILE = "train.log"


def save_checkpoint(outdir, checkpoint: Checkpoint, config: TrainConfig) -> None:
    """Write `checkpoint` and its config to `outdir/checkpoint.npz` in an
    existing `outdir`: an uncompressed np.savez archive of these entries (P
    parameters, N table rows, C = data.N_CLASSES condition channels):

    - `params` (P,) in the parameters' dtype, float32 from `train`, laid out
      as network.layer_shapes lays out the config's hidden and depth;
    - `table_entries` float64 (N, C);
    - `prototypes` float64 (C, C);
    - `iteration` int64 (), `diverged` bool ();
    - `config_json` str (): every TrainConfig field as a JSON object.

    The archive is written to a temporary file and moved over the old one
    with os.replace: a reader finds the old checkpoint or the new one, never
    a mix, and a failed write leaves no temporary file.
    """
    outdir = Path(outdir)
    entries = {
        "params": checkpoint.params.values,
        "table_entries": checkpoint.pseudo,
        "prototypes": checkpoint.prototypes,
        "iteration": np.int64(checkpoint.iteration),
        "diverged": np.bool_(checkpoint.diverged),
        "config_json": np.str_(json.dumps(asdict(config))),
    }
    tmp = outdir / (CHECKPOINT_FILE + ".tmp")
    try:
        # A file object, so that np.savez appends no ".npz" to the name.
        with open(tmp, "wb") as f:
            np.savez(f, **entries)
        os.replace(tmp, outdir / CHECKPOINT_FILE)
    finally:
        tmp.unlink(missing_ok=True)


# What damaged bytes raise in np.load and zipfile: a broken zip structure, an
# unknown compression method, a set encryption bit, a bad .npy header, a cut.
_ARCHIVE_ERRORS = (zipfile.BadZipFile, zlib.error, struct.error, EOFError, OSError,
                   ValueError, NotImplementedError, RuntimeError)


def load_checkpoint(outdir) -> tuple[ScoreNetwork, TrainConfig, Checkpoint]:
    """Read the archive save_checkpoint wrote.

    The layout of `params` is network.layer_shapes of the stored config's
    hidden and depth, and `params` must hold its parameter count. Raises
    FileNotFoundError when `outdir` holds no archive, and ValueError, naming
    the file, when the archive fails its CRC check, lacks an entry, has an
    entry of the wrong dtype or shape or a non-finite float entry, or stores
    a config that TrainConfig refuses. Entries it does not read, such as the
    Adam moments, the layer shapes and the config hash that older archives
    hold, are ignored.
    """
    path = Path(outdir) / CHECKPOINT_FILE
    if not path.is_file():
        raise FileNotFoundError(f"no checkpoint archive {path}")
    try:
        # np.load leaves a file it opened itself open when zipfile refuses it.
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as archive:
            # Every member is read in full and checked against its CRC first,
            # so damaged bytes cannot load as other values.
            bad = archive.zip.testzip()
            if bad is not None:
                raise ValueError(f"member {bad} fails its CRC check")
            stored = {key: archive[key] for key in archive.files}
    except _ARCHIVE_ERRORS as exc:
        raise ValueError(f"{path}: unreadable checkpoint archive ({exc})") from exc

    def entry(key: str, kind: str, shape: tuple) -> np.ndarray:
        """stored[key], checked against a dtype kind and a shape (None: any length)."""
        arr = stored.get(key)
        if arr is None:
            raise ValueError(f"{path}: no {key!r} entry")
        if arr.dtype.kind != kind or arr.ndim != len(shape) or any(
                want not in (None, got) for got, want in zip(arr.shape, shape)):
            raise ValueError(f"{path}: {key!r} is {arr.dtype} {arr.shape}, "
                             f"expected kind {kind!r} {shape}")
        if kind == "f" and not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: {key!r} holds non-finite values")
        return arr

    echo = str(entry("config_json", "U", ()))
    try:
        config = TrainConfig(**json.loads(echo))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad config echo ({exc})") from exc
    shapes = network.layer_shapes(config.hidden, config.depth)
    params = nn_core.ParamBundle(shapes, entry("params", "f", (nn_core.param_count(shapes),)))
    net = ScoreNetwork(params)
    table = entry("table_entries", "f", (None, data_mod.N_CLASSES))
    protos = entry("prototypes", "f", (data_mod.N_CLASSES, data_mod.N_CLASSES))
    return net, config, Checkpoint(params, table, int(entry("iteration", "i", ())), protos,
                                   bool(entry("diverged", "b", ())))
