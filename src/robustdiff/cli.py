"""Command-line interface: gen-data, train, sample, eval, reproduce.

Configuration is a flat key=value text file; command-line flags override file
values. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path
from statistics import median

import numpy as np

from . import data as data_mod
from . import diffusion, metrics, pseudo, svg, trainer
from .trainer import TrainConfig, TrainingDiverged

DEFAULT_ETAS = (0.2, 0.4, 0.6, 0.8)
DEFAULT_SEEDS = (0, 1, 2)
DYNAMICS_ETA = 0.4
DYNAMICS_EVERY = 500


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


def build_train_config(values: dict[str, str]) -> TrainConfig:
    kwargs = {}
    for name, fobj in TrainConfig.__dataclass_fields__.items():
        if name not in values:
            continue
        raw = values[name]
        if fobj.type == "str" or name == "variant":
            kwargs[name] = raw
        elif fobj.type == "int":
            kwargs[name] = int(raw)
        else:
            kwargs[name] = float(raw)
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
        spec = data_mod.NoiseSpec(
            kind="symmetric" if args.noise == "sym" else "asymmetric",
            eta=args.eta,
            seed=args.seed + 1,
        )
        samples = data_mod.inject_noise(samples, spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    data_mod.save_dataset(out, samples)
    flips = sum(1 for s in samples if s.noisy_class != s.clean_class)
    print(f"wrote {len(samples)} samples to {out}")
    print(f"classes 4 x {args.n_per_class}, flipped {flips} ({flips / len(samples):.3f})")
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


def sample_per_class(
    net, config: TrainConfig, per_class: int, seed: int, w=None, prototypes=None
):
    """Per-class samples, conditioned on the class prototype vectors.

    `prototypes` holds one condition row per class: the identity (one-hot)
    for the vanilla variant, the learned per-label pseudo-condition means for
    the pseudo-condition variants. Defaults to one-hot when absent.
    """
    guidance = config.guidance_w if w is None else w
    schedule = config.schedule()
    if prototypes is None:
        prototypes = np.eye(config.cond_dim)
    out = {}
    for c in range(config.cond_dim):
        out[c] = diffusion.heun_sample(
            diffusion.guided(net, prototypes[c], guidance),
            net.x_dim,
            schedule,
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
    if not (ckpt_dir / "model.ckpt").exists():
        print(f"no checkpoint at {ckpt_dir}", file=sys.stderr)
        return 2
    net, config, ckpt = trainer.load_checkpoint(ckpt_dir)
    if config.variant != "vanilla" and ckpt.prototypes is None:
        # A diverged run saves no prototypes; one-hot rows are not the
        # conditions a pseudo-condition variant was trained on.
        print(
            f"{ckpt_dir} is a {config.variant} checkpoint without prototypes.txt "
            "(did training diverge?); not sampling it",
            file=sys.stderr,
        )
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
    pts = data_mod.points(samples)
    clean = data_mod.clean_labels(samples)
    n_classes = int(clean.max()) + 1
    clf = metrics.fit_centroids(pts, clean, n_classes)
    maes = []
    for c in sorted(per_class):
        ref = pts[clean == c]
        maes.append(metrics.mae(per_class[c], ref))
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
    spec = data_mod.NoiseSpec(
        kind="symmetric" if noise_kind == "sym" else "asymmetric",
        eta=eta,
        seed=seeds["noise"],
    )
    samples = data_mod.inject_noise(samples, spec)
    values = dict(base_values)
    values["variant"] = variant
    values["seed"] = str(seeds["train"])
    config = build_train_config(values)
    per_class_n = int(base_values.get("per_class_samples", "1000"))

    cell_dir = Path(outdir) / "cells" / f"{variant}_{noise_kind}{eta:g}_s{seed}"
    cell_dir.mkdir(parents=True, exist_ok=True)

    clean_pts = data_mod.points(samples)
    clean_lbl = data_mod.clean_labels(samples)
    clf = metrics.fit_centroids(clean_pts, clean_lbl, config.cond_dim)

    noisy_lbl = data_mod.noisy_labels(samples)
    dyn_rows = []

    def snapshot(iteration, net, table):
        if variant == "vanilla":
            protos = np.eye(config.cond_dim)
        else:
            protos = trainer.class_prototypes(
                table, noisy_lbl, config.cond_dim, config.proto_floor
            )
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


def cmd_reproduce(args) -> int:
    if args.manifest:
        manifest = parse_config_file(args.manifest)
        etas = [float(v) for v in manifest["etas"].split(",")]
        seeds = [int(v) for v in manifest["seeds"].split(",")]
        variants = manifest["variants"].split(",")
        noise_kind = manifest.get("noise", "sym")
        base_values = {
            k: v
            for k, v in manifest.items()
            if k not in ("command", "etas", "seeds", "variants", "noise", "jobs")
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
    outdir = Path(args.out) if args.out else out_root() / "reproduce"
    outdir.mkdir(parents=True, exist_ok=True)

    # Self-contained manifest: rerunning it reproduces every byte of results.
    with open(outdir / "manifest.txt", "w") as f:
        f.write("command = reproduce\n")
        f.write(f"etas = {','.join(f'{e:g}' for e in etas)}\n")
        f.write(f"seeds = {','.join(str(s) for s in seeds)}\n")
        f.write(f"variants = {','.join(variants)}\n")
        f.write(f"noise = {noise_kind}\n")
        f.write(f"jobs = {jobs}\n")
        defaults = {
            k: str(v)
            for k, v in asdict(TrainConfig()).items()
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
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        # pool.map yields in cell order as results arrive; with jobs == 1 the
        # builtin map runs each cell here and no worker process starts.
        mapped = (pool.map if jobs > 1 else map)(run_cell, cells)
        for (variant, eta, seed, *_), outcome in zip(cells, mapped):
            outcomes.append(outcome)
            print(f"finished {variant} eta={eta:g} seed={seed}", flush=True)

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
    g.add_argument("--noise", choices=("sym", "asym"), default="sym")
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
    r.add_argument("--noise", choices=("sym", "asym"), default="sym")
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
