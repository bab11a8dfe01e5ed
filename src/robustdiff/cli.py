"""Command-line interface: gen-data, train, sample, eval, reproduce.
From an uninstalled `src/`, the command is `python -m robustdiff.cli`.

`train` and `reproduce` read their settings as key=value pairs in three
layers, each overriding the one before: the defaults, a `--config` file (one
pair a line, `#` starts a comment), then each `--set KEY=VALUE` in order.
Exit codes: 0 success, 1 usage error, 2 runtime failure. A command that
cannot finish raises, and `main` prints each failure once, as one line on
stderr; only `reproduce` also reports there, each failed cell as it ends.

`reproduce` runs one cell per (variant, eta, seed). Its keys, with defaults:
etas 0.2,0.4,0.6,0.8; seeds 0,1,2; variants vanilla,pc_only,pc_rdc; noise
sym; jobs 1; n_per_class 2000 (training points per class); per_class_samples
1000 (scored samples per class); and the train settings but variant and seed.
Every value is checked before the output directory exists. The run's
manifest.txt is a config file, so `robustdiff reproduce --config
<out>/manifest.txt` reruns the sweep. A sweep writes into --out: manifest.txt;
four tables, results.csv (a row per cell), summary.csv (the medians over
seeds), mae_delta.csv (the vanilla minus pc_rdc MAE per eta) and dynamics.csv
(the eta=0.4 cells' controllability during training, header only when no
cell trains long enough); dynamics.svg, the curves of dynamics.csv; and per
cell, cells/<variant>_<noise><eta>_s<seed>/ with checkpoint.npz, train.log
and, for seed 0 at eta=0.4, scatter.svg. An older sweep's cells/ goes first.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import shutil
import sys
import typing
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, svg, trainer
from .trainer import TrainConfig, TrainingDiverged

DYNAMICS_ETA = 0.4
DYNAMICS_EVERY = 500
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Classifier-free guidance scale of sampling; `sample --w` overrides it.
GUIDANCE_W = 2.0
# The label-noise kinds the command line names, as data.NoiseSpec names them.
NOISE_KINDS = {"sym": "symmetric", "asym": "asymmetric"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def out_root() -> Path:
    return Path(os.environ.get("ROBUST_DIFF_OUT", "out"))


def _parse_settings(items) -> dict[str, str]:
    """The key=value `items` as a dict, key and value stripped; a later item
    overrides an earlier one."""
    values: dict[str, str] = {}
    for item in items:
        k, eq, v = item.partition("=")
        if not (eq and k.strip()):
            raise UsageError(f"expected key=value, got {item!r}")
        values[k.strip()] = v.strip()
    return values


def parse_config_file(path) -> dict[str, str]:
    with open(path) as f:
        lines = [line.split("#", 1)[0].strip() for line in f]
    return _parse_settings(line for line in lines if line)


def _convert(key: str, raw: str, kind):
    """The setting `key`, written `raw`, as a `kind`: str, int, float, or a
    tuple of one of these written comma-separated with no value twice."""
    if typing.get_origin(kind) is tuple:
        items = tuple(_convert(key, item, typing.get_args(kind)[0]) for item in raw.split(","))
        if len(set(items)) < len(items):
            raise UsageError(f"{key} names a value twice: {raw!r}")
        return items
    try:
        return kind(raw.strip())
    except ValueError:
        raise UsageError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {raw!r}") from None


def _build(cls, values: dict[str, str], **fixed):
    """The dataclass `cls` built from the settings `values`, each converted
    to its field's type, and the fields `fixed`. A key that names no field
    or a fixed one, a value that is no number and a record that `cls`
    refuses (ValueError) are usage errors."""
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(values) - ({f.name for f in dataclasses.fields(cls)} - set(fixed)))
    if unknown:
        raise UsageError(f"unknown setting {', '.join(unknown)}")
    try:
        return cls(**{k: _convert(k, v, kinds[k]) for k, v in values.items()}, **fixed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _merge_settings(args) -> dict[str, str]:
    """The --config file's settings, then each --set, all as written."""
    values = parse_config_file(args.config) if args.config else {}
    values.update(_parse_settings(args.set or []))
    return values


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.n_per_class < 1:
        raise UsageError("--n-per-class must be >= 1")
    if not 0.0 <= args.eta <= 1.0:
        raise UsageError("--eta must lie in [0, 1]")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    samples = data_mod.make_toy_dataset(args.n_per_class, args.seed)
    spec = data_mod.NoiseSpec(NOISE_KINDS[args.noise], args.eta, args.seed + 1)
    samples = data_mod.inject_noise(samples, spec)
    out = Path(args.out)
    data_mod.save_dataset(out, samples)
    flips = int(np.count_nonzero(samples.noisy != samples.clean))
    print(f"wrote {len(samples)} samples to {out}")
    print(f"classes {data_mod.N_CLASSES} x {args.n_per_class}, "
          f"flipped {flips} ({flips / len(samples):.3f})")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = _build(TrainConfig, _merge_settings(args))
    samples = data_mod.load_dataset(args.data)
    outdir = Path(args.out) if args.out else out_root() / "train"
    ckpt = trainer.train(config, samples, outdir)
    print(f"trained {config.variant} for {ckpt.iteration} iterations -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def sample_per_class(net, config: TrainConfig, per_class: int, seed: int, w, prototypes):
    """Per-class samples, conditioned on the class prototype vectors.

    `prototypes` holds one condition row per class: the identity (one-hot)
    for the vanilla variant, the learned per-label pseudo-condition means for
    the pseudo-condition variants. `w` None means GUIDANCE_W. The run
    samples on its own network over `net`'s parameters, so that network's
    scratch goes when the run returns, not when `net` does.
    """
    guidance = GUIDANCE_W if w is None else w
    net = dataclasses.replace(net)
    out = {}
    for c in range(data_mod.N_CLASSES):
        out[c] = diffusion.heun_sample(diffusion.guided(net, prototypes[c], guidance),
                                       config.num_steps, per_class, seed + c)
    return out


def cmd_sample(args) -> int:
    if args.w is not None and not 1.0 <= args.w < np.inf:
        raise UsageError("--w must be >= 1 and finite")
    if args.per_class < 1:
        raise UsageError("--per-class must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    ckpt_dir = Path(args.checkpoint)
    net, config, ckpt = trainer.load_checkpoint(ckpt_dir)
    if ckpt.diverged:
        raise RuntimeError(f"{ckpt_dir}: training diverged at iteration {ckpt.iteration}; "
                           "not sampling it")
    per_class = sample_per_class(net, config, args.per_class, args.seed, args.w, ckpt.prototypes)
    out = Path(args.out) if args.out else out_root() / "samples.csv"
    data_mod.write_samples(out, per_class)
    print(f"wrote {sum(map(len, per_class.values()))} samples to {out}")
    if args.svg:
        Path(args.svg).parent.mkdir(parents=True, exist_ok=True)
        svg.scatter_svg(args.svg, per_class)
        print(f"wrote scatter to {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def evaluate_samples(samples, per_class: dict[int, np.ndarray]) -> tuple[float, float]:
    """Class-averaged nearest-neighbor MAE plus centroid controllability."""
    pts, clean = samples.points, samples.clean
    centroids = metrics.fit_centroids(pts, clean)
    maes = [metrics.mae(per_class[c], pts[clean == c]) for c in sorted(per_class)]
    return float(np.mean(maes)), metrics.controllability_acc(per_class, centroids)


def cmd_eval(args) -> int:
    samples = data_mod.load_dataset(args.dataset)
    mae_avg, ctrl = evaluate_samples(samples, data_mod.read_samples(args.samples))
    line = f"mae {mae_avg:.6f} controllability {ctrl:.6f}"
    print(line)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(line + "\n")
    return 0


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def _cell_seeds(seed: int, eta: float) -> dict[str, int]:
    return {
        "data": 1000 + seed,
        "noise": 2000 + 17 * seed + int(round(eta * 1000)),
        "train": 3000 + seed,
        "eval": 4000 + seed,
    }


@dataclasses.dataclass(frozen=True)
class Sweep:
    """The settings of one `reproduce` run; the module docstring names each
    key. A cell trains `config` with only its variant and seed replaced."""

    etas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    seeds: tuple[int, ...] = (0, 1, 2)
    variants: tuple[str, ...] = trainer.VARIANTS
    noise: str = "sym"
    jobs: int = 1
    n_per_class: int = 2000
    per_class_samples: int = 1000
    config: TrainConfig = dataclasses.field(default_factory=TrainConfig)

    @classmethod
    def from_values(cls, values: dict[str, str]) -> Sweep:
        """The sweep the key=value settings `values` give; a key left out keeps
        its default. Each value is checked: the config against every variant."""
        values = dict(values)
        if values.pop("command", "reproduce") != "reproduce":  # a manifest's first line
            raise UsageError("command must be reproduce")
        own = {f.name for f in dataclasses.fields(cls)} - {"config"}
        sweep = _build(cls, {k: values.pop(k) for k in own & values.keys()})
        for key in ("jobs", "n_per_class", "per_class_samples"):
            if getattr(sweep, key) < 1:
                raise UsageError(f"{key} must be >= 1")
        if not all(0.0 <= eta <= 1.0 for eta in sweep.etas):
            raise UsageError("etas must lie in [0, 1]")
        # Two etas with one label would train into one cell directory, and
        # two with one noise seed would flip the same labels.
        for what, key in (("cell label", lambda eta: f"{eta:g}"),
                          ("noise seed", lambda eta: _cell_seeds(0, eta)["noise"])):
            first: dict = {}
            for eta in sweep.etas:
                other = first.setdefault(key(eta), eta)
                if other != eta:
                    raise UsageError(f"etas {other} and {eta} share a {what}")
        if min(sweep.seeds) < 0:
            raise UsageError("seeds must be >= 0")
        if sweep.noise not in NOISE_KINDS:
            raise UsageError(f"noise must be one of {', '.join(NOISE_KINDS)}")
        if not set(sweep.variants) <= set(trainer.VARIANTS):
            raise UsageError(f"variants must be among {', '.join(trainer.VARIANTS)}")
        # The rest are train settings; each cell sets the variant and seed.
        configs = [_build(TrainConfig, values, variant=v, seed=0) for v in sweep.variants]
        return dataclasses.replace(sweep, config=configs[0])

    def write_manifest(self, path: Path, blas_env: dict[str, str]) -> None:
        """Write the settings file from which from_values rebuilds this sweep:
        every field of the sweep and its config but the cell's own, in key
        order. The BLAS threads go in a comment, which a rerun does not read."""
        settings = dataclasses.asdict(self.config) | dataclasses.asdict(self)
        for key in ("config", "variant", "seed"):
            del settings[key]
        threads = " ".join(f"{k}={v}" for k, v in blas_env.items()) or "unset"
        lines = ["command = reproduce", f"# BLAS threads: {threads}"]
        for key, value in sorted(settings.items()):
            if isinstance(value, tuple):  # str(float) reads back equal
                value = ",".join(map(str, value))
            lines.append(f"{key} = {value}")
        path.write_text("".join(line + "\n" for line in lines))


def run_cell(sweep: Sweep, outdir: Path, cell: tuple[str, float, int]) -> dict:
    """Train + evaluate one (variant, eta, seed) cell. Top level for pickling."""
    variant, eta, seed = cell
    seeds = _cell_seeds(seed, eta)
    samples = data_mod.make_toy_dataset(sweep.n_per_class, seeds["data"])
    spec = data_mod.NoiseSpec(NOISE_KINDS[sweep.noise], eta, seeds["noise"])
    samples = data_mod.inject_noise(samples, spec)
    config = dataclasses.replace(sweep.config, variant=variant, seed=seeds["train"])
    dynamics = abs(eta - DYNAMICS_ETA) < 1e-9

    cell_dir = outdir / "cells" / f"{variant}_{sweep.noise}{eta:g}_s{seed}"
    centroids = metrics.fit_centroids(samples.points, samples.clean)
    dyn_rows = []

    def snapshot(iteration, net, table):
        protos = trainer.sampling_prototypes(config, table, samples.noisy)
        per_class = sample_per_class(net, config, 250, seeds["eval"] + 7, None, protos)
        acc = metrics.controllability_acc(per_class, centroids)
        dyn_rows.append((variant, seed, iteration, acc))

    try:
        trainer.train(config, samples, cell_dir, DYNAMICS_EVERY if dynamics else 0, snapshot)
    except TrainingDiverged as exc:
        return {"failed": f"{variant} eta={eta} seed={seed}: {exc}", "dynamics": dyn_rows}

    net, _, loaded = trainer.load_checkpoint(cell_dir)
    per_class = sample_per_class(net, config, sweep.per_class_samples, seeds["eval"], None,
                                 loaded.prototypes)
    mae_avg, ctrl = evaluate_samples(samples, per_class)
    if dynamics and seed == 0:
        svg.scatter_svg(cell_dir / "scatter.svg", per_class)
    return {"result": (variant, sweep.noise, eta, seed, mae_avg, ctrl), "dynamics": dyn_rows}


def _worker_blas_env(jobs: int) -> dict[str, str]:
    """The BLAS thread variables the `reproduce` cells run under: the user's
    own, else 1 each when several workers would each size a BLAS pool to all
    cores (a 3-cell sweep took 3.5x as long on 2 cores with two such workers)."""
    env = {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ}
    if jobs > 1 and not env:
        env = dict.fromkeys(BLAS_THREAD_VARS, "1")
    return env


def cmd_reproduce(args) -> int:
    # Imported here, the only code that starts a pool, so no other command loads them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    sweep = Sweep.from_values(_merge_settings(args))
    outdir = Path(args.out) if args.out else out_root() / "reproduce"
    outdir.mkdir(parents=True, exist_ok=True)
    # Every cell retrains, so no cell directory of an earlier sweep is kept.
    if (outdir / "cells").exists():
        shutil.rmtree(outdir / "cells")
    blas_env = _worker_blas_env(sweep.jobs)
    # Self-contained manifest: rerunning it reproduces every byte of results.
    sweep.write_manifest(outdir / "manifest.txt", blas_env)

    cells = [(v, eta, seed) for eta in sweep.etas for v in sweep.variants for seed in sweep.seeds]
    outcomes = []
    # Spawned, not forked: BLAS sizes its pool when numpy loads, which a forked
    # worker inherits from this process; a spawned one loads it under `added`.
    added = {k: v for k, v in blas_env.items() if k not in os.environ}
    os.environ.update(added)
    run = functools.partial(run_cell, sweep, outdir)
    try:
        with ProcessPoolExecutor(sweep.jobs, multiprocessing.get_context("spawn")) as pool:
            # pool.map yields in cell order as results arrive; with jobs == 1
            # the builtin map runs each cell here and no worker process starts.
            mapped = (pool.map if sweep.jobs > 1 else map)(run, cells)
            for (variant, eta, seed), outcome in zip(cells, mapped):
                outcomes.append(outcome)
                if "failed" in outcome:
                    print(f"FAILED CELL: {outcome['failed']}", file=sys.stderr, flush=True)
                else:
                    print(f"finished {variant} eta={eta:g} seed={seed}", flush=True)
    finally:
        for k in added:
            del os.environ[k]

    results = [o["result"] for o in outcomes if "result" in o]
    dynamics = sorted(row for o in outcomes for row in o["dynamics"])

    data_mod.write_table(outdir / "results.csv", "variant,noise,eta,seed,mae,controllability",
                         "{},{},{:g},{},{:.6f},{:.6f}", results)
    meds = metrics.cell_medians(results)
    data_mod.write_table(outdir / "summary.csv",
                         "variant,noise,eta,median_mae,median_controllability",
                         "{},{},{:g},{:.6f},{:.6f}", (key + meds[key] for key in sorted(meds)))
    # Written on every run, so a rerun into the same directory keeps no older curves.
    data_mod.write_table(outdir / "dynamics.csv", "variant,seed,iter,controllability",
                         "{},{},{},{:.6f}", dynamics)
    if dynamics:
        series: dict[str, list[tuple[float, float]]] = {}
        for variant, seed, iteration, acc in dynamics:
            series.setdefault(f"{variant}_s{seed}", []).append((iteration, acc))
        svg.curves_svg(outdir / "dynamics.svg", series)
    else:
        (outdir / "dynamics.svg").unlink(missing_ok=True)

    ok = _check_deltas(meds, sweep.etas, sweep.noise, outdir / "mae_delta.csv")
    print(f"wrote results to {outdir}")
    return 2 if not ok or any("failed" in o for o in outcomes) else 0


def _check_deltas(meds, etas, noise_kind, delta_csv: Path) -> bool:
    """Relative claims: the full method beats the baseline on MAE, by a clear
    margin at the highest noise level; and on controllability at eta = 0.4.
    Each eta's MAE delta also goes to `delta_csv` as a row."""
    deltas = []  # (eta, MAE vanilla, MAE pc_rdc, delta)
    for eta in etas:
        v, p = (meds.get((name, noise_kind, eta)) for name in ("vanilla", "pc_rdc"))
        if v and p:
            deltas.append((eta, v[0], p[0], v[0] - p[0]))
    data_mod.write_table(delta_csv, "eta,mae_vanilla,mae_pc_rdc,delta",
                         "{:g},{:.6f},{:.6f},{:.6f}", deltas)
    # (what, value, bound)
    gates = [(f"eta={eta:g}: MAE vanilla {mv:.4f} pc_rdc {mp:.4f} delta", delta,
              0.15 if abs(eta - 0.8) < 1e-9 else 0.0) for eta, mv, mp, delta in deltas]
    v, p = (meds.get((name, noise_kind, DYNAMICS_ETA)) for name in ("vanilla", "pc_rdc"))
    if v and p:
        gates.append((f"eta={DYNAMICS_ETA:g}: controllability pc_rdc {p[1]:.4f} "
                      f"vanilla {v[1]:.4f} gap", p[1] - v[1], 0.10))
    if not gates:
        print("no gate applies: the gates compare vanilla and pc_rdc")
    for what, value, need in gates:
        print(f"{what} {value:+.4f} (need >= {need:g}) {'ok' if value >= need else 'FAIL'}")
    return all(value >= need for _, value, need in gates)


# ---------------------------------------------------------------------------


def make_parser() -> _Parser:
    p = _Parser(prog="robustdiff", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a toy dataset file")
    g.add_argument("--n-per-class", type=int, default=2000)
    g.add_argument("--noise", choices=tuple(NOISE_KINDS), default="sym")
    g.add_argument("--eta", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train one variant on a dataset file")
    t.add_argument("--data", required=True)
    t.add_argument("--out")
    t.add_argument("--config")
    t.add_argument("--set", action="append", metavar="KEY=VALUE", help="KEY is one of "
                   + ", ".join(f.name for f in dataclasses.fields(TrainConfig)))
    t.set_defaults(fn=cmd_train)

    s = sub.add_parser("sample", help="draw per-class samples from a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--per-class", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--w", type=float, default=None)
    s.add_argument("--out")
    s.add_argument("--svg")
    s.set_defaults(fn=cmd_sample)

    e = sub.add_parser("eval", help="score a sample dump against a dataset")
    e.add_argument("--dataset", required=True)
    e.add_argument("--samples", required=True)
    e.add_argument("--out")
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("reproduce", help="run the full toy-benchmark sweep",
                       description=__doc__.rsplit("\n\n", 1)[1])
    r.add_argument("--out")
    r.add_argument("--config")
    r.add_argument("--set", action="append", metavar="KEY=VALUE", help="KEY is one of " + ", ".join(
        f.name for cls in (Sweep, TrainConfig) for f in dataclasses.fields(cls)
        if f.name not in ("config", "variant", "seed")))
    r.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
