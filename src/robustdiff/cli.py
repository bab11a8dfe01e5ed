"""Command-line interface: gen-data, train, sample, eval, reproduce.

Configuration is a flat key=value text file; command-line flags override file
values. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from statistics import median

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, svg, trainer
from .trainer import TrainConfig, TrainingDiverged

DEFAULT_ETAS = (0.2, 0.4, 0.6, 0.8)
DEFAULT_SEEDS = (0, 1, 2)
DYNAMICS_ETA = 0.4
DYNAMICS_EVERY = 500
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Settings of a `reproduce` cell beside the TrainConfig fields.
CELL_KEYS = ("n_per_class", "per_class_samples")
# Keys every `reproduce --manifest` file names.
MANIFEST_KEYS = ("etas", "seeds", "variants")
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


def build_train_config(values: dict[str, str], extra_keys=()) -> TrainConfig:
    """The TrainConfig the settings `values` give. A key that names no
    TrainConfig field and is not in `extra_keys` is a usage error."""
    fields = dataclasses.fields(TrainConfig)
    unknown = sorted(set(values) - {f.name for f in fields} - set(extra_keys))
    if unknown:
        raise UsageError(f"unknown setting {', '.join(unknown)}")
    kwargs = {}
    for fobj in fields:
        if fobj.name not in values:
            continue
        raw = values[fobj.name]
        if fobj.type == "str":
            kwargs[fobj.name] = raw
        elif fobj.type == "int":
            kwargs[fobj.name] = int(raw)
        else:
            kwargs[fobj.name] = float(raw)
    try:
        return TrainConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _merge_settings(args) -> dict[str, str]:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        k, v = item.split("=", 1)
        values[k.strip()] = v.strip()
    return values


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    if args.n_per_class < 1:
        raise UsageError("--n-per-class must be >= 1")
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
    values = _merge_settings(args)
    if args.variant:
        values["variant"] = args.variant
    if args.total_iters is not None:
        values["total_iters"] = str(args.total_iters)
    if args.seed is not None:
        values["seed"] = str(args.seed)
    config = build_train_config(values)
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
    the pseudo-condition variants. `w` None means GUIDANCE_W.
    """
    guidance = GUIDANCE_W if w is None else w
    out = {}
    for c in range(net.cond_dim):
        out[c] = diffusion.heun_sample(
            diffusion.guided(net, prototypes[c], guidance),
            net.x_dim,
            config.num_steps,
            per_class,
            seed + c,
        )
    return out


def cmd_sample(args) -> int:
    if args.w is not None and args.w < 1.0:
        raise UsageError("--w must be >= 1")
    if args.per_class < 1:
        raise UsageError("--per-class must be >= 1")
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
    out.parent.mkdir(parents=True, exist_ok=True)
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
    clf = metrics.fit_centroids(pts, clean, int(clean.max()) + 1)
    maes = [metrics.mae(per_class[c], pts[clean == c]) for c in sorted(per_class)]
    return float(np.mean(maes)), metrics.controllability_acc(per_class, clf)


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


def run_cell(cell) -> dict:
    """Train + evaluate one (variant, eta, seed) cell. Top level for pickling."""
    variant, eta, seed, noise_kind, base_values, outdir, dynamics = cell
    seeds = _cell_seeds(seed, eta)
    samples = data_mod.make_toy_dataset(int(base_values.get("n_per_class", "2000")), seeds["data"])
    spec = data_mod.NoiseSpec(NOISE_KINDS[noise_kind], eta, seeds["noise"])
    samples = data_mod.inject_noise(samples, spec)
    values = dict(base_values)
    values["variant"] = variant
    values["seed"] = str(seeds["train"])
    config = build_train_config(values, CELL_KEYS)
    per_class_n = int(base_values.get("per_class_samples", "1000"))

    cell_dir = Path(outdir) / "cells" / f"{variant}_{noise_kind}{eta:g}_s{seed}"
    cell_dir.mkdir(parents=True, exist_ok=True)

    clf = metrics.fit_centroids(samples.points, samples.clean, config.cond_dim)
    dyn_rows = []

    def snapshot(iteration, net, table):
        protos = trainer.sampling_prototypes(config, table, samples.noisy)
        per_class = sample_per_class(net, config, 250, seeds["eval"] + 7, None, protos)
        acc = metrics.controllability_acc(per_class, clf)
        dyn_rows.append((variant, seed, iteration, acc))

    try:
        ckpt = trainer.train(
            config,
            samples,
            log_path=cell_dir / "train.log",
            snapshot_every=DYNAMICS_EVERY if dynamics else 0,
            snapshot_cb=snapshot if dynamics else None,
        )
    except TrainingDiverged as exc:
        trainer.save_checkpoint(cell_dir, exc.checkpoint, config)
        return {"failed": f"{variant} eta={eta} seed={seed}: {exc}", "dynamics": dyn_rows}
    trainer.save_checkpoint(cell_dir, ckpt, config)

    net, _, loaded = trainer.load_checkpoint(cell_dir)
    per_class = sample_per_class(
        net, config, per_class_n, seeds["eval"], None, loaded.prototypes
    )
    mae_avg, ctrl = evaluate_samples(samples, per_class)
    if dynamics and seed == 0:
        svg.scatter_svg(cell_dir / "scatter.svg", per_class)
    result = metrics.RunResult(variant, noise_kind, eta, seed, mae_avg, ctrl)
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

    if args.manifest:
        manifest = parse_config_file(args.manifest)
        missing = [k for k in MANIFEST_KEYS if k not in manifest]
        if missing:
            raise UsageError(f"manifest {args.manifest} names no {', '.join(missing)}")
        etas = [float(v) for v in manifest["etas"].split(",")]
        seeds = [int(v) for v in manifest["seeds"].split(",")]
        variants = manifest["variants"].split(",")
        noise_kind = manifest.get("noise", "sym")
        if noise_kind not in NOISE_KINDS:
            raise UsageError(f"manifest noise must be one of {', '.join(NOISE_KINDS)}")
        base_values = {
            k: v
            for k, v in manifest.items()
            if k not in ("command", *MANIFEST_KEYS, "noise", "jobs")
        }
        jobs = args.jobs if args.jobs is not None else int(manifest.get("jobs", "1"))
    else:
        base_values = _merge_settings(args)
        etas = [float(v) for v in args.etas.split(",")] if args.etas else list(DEFAULT_ETAS)
        seeds = [int(v) for v in args.seeds.split(",")] if args.seeds else list(DEFAULT_SEEDS)
        variants = args.variants.split(",") if args.variants else list(trainer.VARIANTS)
        noise_kind = args.noise
        jobs = args.jobs if args.jobs is not None else 1

    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    for variant in variants:  # every setting is checked before anything is written
        build_train_config({**base_values, "variant": variant}, CELL_KEYS)
    outdir = Path(args.out) if args.out else out_root() / "reproduce"
    outdir.mkdir(parents=True, exist_ok=True)
    blas_env = _worker_blas_env(jobs)

    # Self-contained manifest: rerunning it reproduces every byte of results.
    with open(outdir / "manifest.txt", "w") as f:
        f.write("command = reproduce\n")
        f.write(f"etas = {','.join(f'{e:g}' for e in etas)}\n")
        f.write(f"seeds = {','.join(str(s) for s in seeds)}\n")
        f.write(f"variants = {','.join(variants)}\n")
        f.write(f"noise = {noise_kind}\n")
        f.write(f"jobs = {jobs}\n")
        # A comment, so a rerun from this manifest does not read it back.
        threads = " ".join(f"{k}={v}" for k, v in blas_env.items()) or "unset"
        f.write(f"# BLAS threads: {threads}\n")
        defaults = {
            k: str(v)
            for k, v in dataclasses.asdict(TrainConfig()).items()
            if k not in ("variant", "seed")
        }
        defaults.update(base_values)
        for k, v in sorted(defaults.items()):
            f.write(f"{k} = {v}\n")
        base_values = defaults

    cells = [
        (variant, eta, seed, noise_kind, base_values, str(outdir),
         abs(eta - DYNAMICS_ETA) < 1e-9)
        for eta in etas
        for variant in variants
        for seed in seeds
    ]
    outcomes = []
    # Spawned, not forked: BLAS sizes its pool when numpy loads, which a forked
    # worker inherits from this process; a spawned one loads it under `added`.
    added = {k: v for k, v in blas_env.items() if k not in os.environ}
    os.environ.update(added)
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            # pool.map yields in cell order as results arrive; with jobs == 1
            # the builtin map runs each cell here and no worker process starts.
            mapped = (pool.map if jobs > 1 else map)(run_cell, cells)
            for (variant, eta, seed, *_), outcome in zip(cells, mapped):
                outcomes.append(outcome)
                print(f"finished {variant} eta={eta:g} seed={seed}", flush=True)
    finally:
        for k in added:
            del os.environ[k]

    failures = [o["failed"] for o in outcomes if "failed" in o]
    results = [o["result"] for o in outcomes if "result" in o]
    dynamics = [row for o in outcomes for row in o["dynamics"]]

    metrics.write_results(outdir / "results.csv", results)
    meds = metrics.cell_medians(results)
    with open(outdir / "summary.csv", "w") as f:
        f.write("variant,noise,eta,median_mae,median_controllability\n")
        for key in sorted(meds):
            m, c = meds[key]
            f.write(f"{key[0]},{key[1]},{key[2]:g},{m:.6f},{c:.6f}\n")
    with open(outdir / "mae_delta.csv", "w") as f:
        f.write("eta,mae_vanilla,mae_pc_rdc,delta\n")
        for eta in etas:
            kv = ("vanilla", noise_kind, eta)
            kp = ("pc_rdc", noise_kind, eta)
            if kv in meds and kp in meds:
                f.write(
                    f"{eta:g},{meds[kv][0]:.6f},{meds[kp][0]:.6f},"
                    f"{meds[kv][0] - meds[kp][0]:.6f}\n"
                )
    if dynamics:
        with open(outdir / "dynamics.csv", "w") as f:
            f.write("variant,seed,iter,controllability\n")
            for variant, seed, iteration, acc in sorted(dynamics):
                f.write(f"{variant},{seed},{iteration},{acc:.6f}\n")
        series: dict[str, list[tuple[float, float]]] = {}
        for variant, seed, iteration, acc in sorted(dynamics):
            series.setdefault(f"{variant}_s{seed}", []).append((iteration, acc))
        svg.curves_svg(outdir / "dynamics.svg", series)

    for fail in failures:
        print(f"FAILED CELL: {fail}", file=sys.stderr)

    ok = _check_deltas(meds, etas, noise_kind)
    print(f"wrote results to {outdir}")
    if failures or not ok:
        return 2
    return 0


def _check_deltas(meds, etas, noise_kind) -> bool:
    """Relative claims: the full method beats the baseline on MAE, by a clear
    margin at the highest noise level; and on controllability at eta = 0.4."""
    ok = True
    for eta in etas:
        kv = ("vanilla", noise_kind, eta)
        kp = ("pc_rdc", noise_kind, eta)
        if kv not in meds or kp not in meds:
            continue
        delta = meds[kv][0] - meds[kp][0]
        need = 0.15 if abs(eta - 0.8) < 1e-9 else 0.0
        status = "ok" if delta >= need else "FAIL"
        print(f"eta={eta:g}: MAE vanilla {meds[kv][0]:.4f} pc_rdc {meds[kp][0]:.4f} "
              f"delta {delta:+.4f} (need >= {need:g}) {status}")
        ok = ok and delta >= need
    kv = ("vanilla", noise_kind, DYNAMICS_ETA)
    kp = ("pc_rdc", noise_kind, DYNAMICS_ETA)
    if kv in meds and kp in meds:
        gap = meds[kp][1] - meds[kv][1]
        status = "ok" if gap >= 0.10 else "FAIL"
        print(f"eta={DYNAMICS_ETA:g}: controllability pc_rdc {meds[kp][1]:.4f} "
              f"vanilla {meds[kv][1]:.4f} gap {gap:+.4f} (need >= 0.10) {status}")
        ok = ok and gap >= 0.10
    return ok


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

    r = sub.add_parser("reproduce", help="run the full toy-benchmark sweep")
    r.add_argument("--out")
    r.add_argument("--config")
    r.add_argument("--set", action="append", metavar="KEY=VALUE")
    r.add_argument("--etas")
    r.add_argument("--seeds")
    r.add_argument("--variants")
    r.add_argument("--noise", choices=tuple(NOISE_KINDS), default="sym")
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
