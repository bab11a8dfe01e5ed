"""Command-line interface: gen-data, train, sample, eval, reproduce.

Settings are key=value pairs, each source overriding the one before: a
`--config` file (one pair a line), each `--set KEY=VALUE`, then the named
flags. Exit codes: 0 success, 1 usage error, 2 runtime failure.

`reproduce` runs one cell per (variant, eta, seed). Its keys, with defaults:
etas 0.2,0.4,0.6,0.8; seeds 0,1,2; variants vanilla,pc_only,pc_rdc; noise
sym; jobs 1; n_per_class 2000 (training points per class); per_class_samples
1000 (scored samples per class); and the train settings but variant and seed.
A --manifest file's values (it names etas, seeds and variants) replace the
defaults before --config, --set and the flags apply. Every value is checked
before the output directory exists; its manifest.txt reruns the sweep.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import typing
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, nn_core, svg, trainer
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


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            values[k.strip()] = v.strip()
    return values


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


def _convert_all(values: dict[str, str], cls, skip=()) -> dict:
    """`values` converted to the types of the fields of the dataclass `cls`
    they name. A key that names no field, or one in `skip`, is unknown."""
    kinds = typing.get_type_hints(cls)
    unknown = sorted(set(values) - ({f.name for f in dataclasses.fields(cls)} - set(skip)))
    if unknown:
        raise UsageError(f"unknown setting {', '.join(unknown)}")
    return {k: _convert(k, v, kinds[k]) for k, v in values.items()}


def build_train_config(values: dict[str, str], **fixed) -> TrainConfig:
    """The TrainConfig the settings `values` and the fields `fixed` give; a
    setting that names no field, is no number or is out of range is refused."""
    try:
        return TrainConfig(**_convert_all(values, TrainConfig, skip=fixed), **fixed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _merge_settings(args, flags) -> dict[str, str]:
    """The --config file's settings, then each --set, then each of the
    named `flags` given."""
    values = parse_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        values[k.strip()] = v.strip()
    values.update((k, str(getattr(args, k))) for k in flags if getattr(args, k) is not None)
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
    if args.eta > 0:
        spec = data_mod.NoiseSpec(NOISE_KINDS[args.noise], args.eta, args.seed + 1)
        samples = data_mod.inject_noise(samples, spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset(out, samples)
    flips = int(np.count_nonzero(samples.noisy != samples.clean))
    print(f"wrote {len(samples)} samples to {out}")
    print(f"classes {data_mod.N_CLASSES} x {args.n_per_class}, "
          f"flipped {flips} ({flips / len(samples):.3f})")
    print(f"empirical point std {data_mod.empirical_std(samples):.4f}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = build_train_config(_merge_settings(args, ("variant", "total_iters", "seed")))
    samples = data_mod.load_dataset(args.data)
    outdir = Path(args.out) if args.out else out_root() / "train"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        ckpt = trainer.train(config, samples, log_path=outdir / "train.log")
    except TrainingDiverged as exc:
        trainer.save_checkpoint(outdir, exc.checkpoint, config)
        print(f"training diverged: {exc}", file=sys.stderr)
        return 2
    trainer.save_checkpoint(outdir, ckpt, config)
    print(f"trained {config.variant} for {ckpt.iteration} iterations -> {outdir}")
    return 0


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def sample_per_class(net, config: TrainConfig, per_class: int, seed: int, w, prototypes):
    """Per-class samples, conditioned on the class prototype vectors.

    `prototypes` holds one condition row per class: the identity (one-hot)
    for the vanilla variant, the learned per-label pseudo-condition means for
    the pseudo-condition variants. `w` None means GUIDANCE_W. Every
    denoiser call of the run (classes x guidance branches x NFE) writes its
    network activations into one workspace, dropped when the run returns.
    """
    guidance = GUIDANCE_W if w is None else w
    ws = nn_core.Workspace()
    out = {}
    for c in range(data_mod.N_CLASSES):
        out[c] = diffusion.heun_sample(
            diffusion.guided(net, prototypes[c], guidance, ws),
            data_mod.X_DIM,
            config.num_steps,
            per_class,
            seed + c,
        )
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
        print(f"{ckpt_dir}: training diverged at iteration {ckpt.iteration}; not sampling it",
              file=sys.stderr)
        return 2
    per_class = sample_per_class(
        net, config, args.per_class, args.seed, args.w, ckpt.prototypes
    )
    pts = np.concatenate([per_class[c] for c in sorted(per_class)])
    cids = np.concatenate(
        [np.full(len(per_class[c]), c) for c in sorted(per_class)]
    )
    out = Path(args.out) if args.out else out_root() / "samples.csv"
    diffusion.write_samples(out, pts, cids)
    print(f"wrote {len(pts)} samples to {out}")
    if args.svg:
        svg.scatter_svg(args.svg, per_class)
        print(f"wrote scatter to {args.svg}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def evaluate_samples(samples, per_class: dict[int, np.ndarray]) -> tuple[float, float]:
    """Class-averaged nearest-neighbor MAE plus centroid controllability."""
    pts, clean = samples.points, samples.clean
    centroids = metrics.fit_centroids(pts, clean, int(clean.max()) + 1)
    maes = [metrics.mae(per_class[c], pts[clean == c]) for c in sorted(per_class)]
    return float(np.mean(maes)), metrics.controllability_acc(per_class, centroids)


def cmd_eval(args) -> int:
    samples = data_mod.load_dataset(args.dataset)
    pts, cids = diffusion.read_samples(args.samples)
    per_class = {int(c): pts[cids == c] for c in np.unique(cids)}
    mae_avg, ctrl = evaluate_samples(samples, per_class)
    line = f"mae {mae_avg:.6f} controllability {ctrl:.6f}"
    print(line)
    if args.out:
        with open(args.out, "w") as f:
            f.write(line + "\n")
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
        sweep = cls(**_convert_all({k: values.pop(k) for k in own & values.keys()}, cls))
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
        configs = [build_train_config(values, variant=v, seed=0) for v in sweep.variants]
        return dataclasses.replace(sweep, config=configs[0])

    def write_manifest(self, path: Path, blas_env: dict[str, str]) -> None:
        """Write the settings file from which from_values rebuilds this sweep.
        The BLAS threads go in a comment, which a rerun does not read."""
        cell = dataclasses.asdict(self.config)
        del cell["variant"], cell["seed"]
        cell.update(n_per_class=self.n_per_class, per_class_samples=self.per_class_samples)
        threads = " ".join(f"{k}={v}" for k, v in blas_env.items()) or "unset"
        lines = [
            "command = reproduce",
            f"etas = {','.join(map(str, self.etas))}",  # str(float) reads back equal
            f"seeds = {','.join(map(str, self.seeds))}",
            f"variants = {','.join(self.variants)}",
            f"noise = {self.noise}",
            f"jobs = {self.jobs}",
            f"# BLAS threads: {threads}",
            *(f"{k} = {v}" for k, v in sorted(cell.items())),
        ]
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
    cell_dir.mkdir(parents=True, exist_ok=True)

    centroids = metrics.fit_centroids(samples.points, samples.clean, data_mod.N_CLASSES)
    dyn_rows = []

    def snapshot(iteration, net, table):
        protos = trainer.sampling_prototypes(config, table, samples.noisy)
        per_class = sample_per_class(net, config, 250, seeds["eval"] + 7, None, protos)
        acc = metrics.controllability_acc(per_class, centroids)
        dyn_rows.append((variant, seed, iteration, acc))

    try:
        ckpt = trainer.train(config, samples, cell_dir / "train.log",
                             DYNAMICS_EVERY if dynamics else 0, snapshot)
    except TrainingDiverged as exc:
        trainer.save_checkpoint(cell_dir, exc.checkpoint, config)
        return {"failed": f"{variant} eta={eta} seed={seed}: {exc}", "dynamics": dyn_rows}
    trainer.save_checkpoint(cell_dir, ckpt, config)

    net, _, loaded = trainer.load_checkpoint(cell_dir)
    per_class = sample_per_class(net, config, sweep.per_class_samples, seeds["eval"], None,
                                 loaded.prototypes)
    mae_avg, ctrl = evaluate_samples(samples, per_class)
    if dynamics and seed == 0:
        svg.scatter_svg(cell_dir / "scatter.svg", per_class)
    result = metrics.RunResult(variant, sweep.noise, eta, seed, mae_avg, ctrl)
    return {"result": result, "dynamics": dyn_rows}


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

    values = parse_config_file(args.manifest) if args.manifest else {}
    missing = [k for k in ("etas", "seeds", "variants") if args.manifest and k not in values]
    if missing:
        raise UsageError(f"manifest {args.manifest} names no {', '.join(missing)}")
    given = _merge_settings(args, ("etas", "seeds", "variants", "noise", "jobs"))
    try:
        sweep = Sweep.from_values({**values, **given})
    except UsageError as exc:  # name the manifest where no other source can be at fault
        raise UsageError(f"manifest {exc}" if args.manifest and not given else str(exc)) from None
    outdir = Path(args.out) if args.out else out_root() / "reproduce"
    outdir.mkdir(parents=True, exist_ok=True)
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
                print(f"finished {variant} eta={eta:g} seed={seed}", flush=True)
    finally:
        for k in added:
            del os.environ[k]

    failures = [o["failed"] for o in outcomes if "failed" in o]
    results = [o["result"] for o in outcomes if "result" in o]
    dynamics = sorted(row for o in outcomes for row in o["dynamics"])

    metrics.write_results(outdir / "results.csv", results)
    meds = metrics.cell_medians(results)
    with open(outdir / "summary.csv", "w") as f:
        f.write("variant,noise,eta,median_mae,median_controllability\n")
        for key in sorted(meds):
            m, c = meds[key]
            f.write(f"{key[0]},{key[1]},{key[2]:g},{m:.6f},{c:.6f}\n")
    if dynamics:
        with open(outdir / "dynamics.csv", "w") as f:
            f.write("variant,seed,iter,controllability\n")
            for variant, seed, iteration, acc in dynamics:
                f.write(f"{variant},{seed},{iteration},{acc:.6f}\n")
        series: dict[str, list[tuple[float, float]]] = {}
        for variant, seed, iteration, acc in dynamics:
            series.setdefault(f"{variant}_s{seed}", []).append((iteration, acc))
        svg.curves_svg(outdir / "dynamics.svg", series)

    for fail in failures:
        print(f"FAILED CELL: {fail}", file=sys.stderr)

    ok = _check_deltas(meds, sweep.etas, sweep.noise, outdir / "mae_delta.csv")
    print(f"wrote results to {outdir}")
    if failures or not ok:
        return 2
    return 0


def _check_deltas(meds, etas, noise_kind, delta_csv: Path) -> bool:
    """Relative claims: the full method beats the baseline on MAE, by a clear
    margin at the highest noise level; and on controllability at eta = 0.4.
    Each eta's MAE delta also goes to `delta_csv` as a row."""
    gates = []  # (what, value, bound)
    with open(delta_csv, "w") as f:
        f.write("eta,mae_vanilla,mae_pc_rdc,delta\n")
        for eta in etas:
            v, p = (meds.get((name, noise_kind, eta)) for name in ("vanilla", "pc_rdc"))
            if v and p:
                f.write(f"{eta:g},{v[0]:.6f},{p[0]:.6f},{v[0] - p[0]:.6f}\n")
                need = 0.15 if abs(eta - 0.8) < 1e-9 else 0.0
                gates.append((f"eta={eta:g}: MAE vanilla {v[0]:.4f} pc_rdc {p[0]:.4f} delta",
                              v[0] - p[0], need))
    v, p = (meds.get((name, noise_kind, DYNAMICS_ETA)) for name in ("vanilla", "pc_rdc"))
    if v and p:
        gates.append((f"eta={DYNAMICS_ETA:g}: controllability pc_rdc {p[1]:.4f} "
                      f"vanilla {v[1]:.4f} gap", p[1] - v[1], 0.10))
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
    t.add_argument("--set", action="append", metavar="KEY=VALUE")
    t.add_argument("--variant", choices=trainer.VARIANTS)
    t.add_argument("--total-iters", type=int, dest="total_iters")
    t.add_argument("--seed", type=int)
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
    r.add_argument("--set", action="append", metavar="KEY=VALUE")
    r.add_argument("--etas")
    r.add_argument("--seeds")
    r.add_argument("--variants")
    r.add_argument("--noise", choices=tuple(NOISE_KINDS))
    r.add_argument("--jobs", type=int, default=None)
    r.add_argument("--manifest")
    r.set_defaults(fn=cmd_reproduce)
    return p


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
