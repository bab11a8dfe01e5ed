"""robustdiff benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload pc_rdc_cell --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ./src (nothing
is installed). BLAS threads are left as the caller's environment sets them;
the setting found is printed with every result.

Workloads (why each exists is in perfbench/README.md):
  pc_rdc_cell   one reproduce cell of the paper's method (pc_rdc, sym eta=0.4)
  vanilla_cell  the same cell for the vanilla baseline
  sample_eval   load a pc_rdc checkpoint trained at set-up, then sample + score

One unit of work is a whole cell (data -> train -> save -> load -> sample ->
eval) or, for sample_eval, load -> prototypes -> sample -> eval. A run repeats
units until --seconds would be exceeded (at least one) and reports medians.

--trace 0 prints the end-to-end metrics. --trace 1 spends the first half of
the time on untraced units (per-iteration timings) and the second half on
traced units (per-layer self times), and reports the per-layer metrics plus
the tracing overhead, traced minus untraced wall time per unit.

Every run checks its outputs: finite parameters and samples, a bitwise
checkpoint round trip, controllability above a per-workload floor, and equal
digests across the units of the run. A unit that raises (TrainingDiverged,
NonFiniteError, anything else) counts as failed and the run goes on; an
exception in warm-up or set-up ends the run as one failed attempt. The
last line of stdout is the JSON result; the lines before it give the
environment (commit, Python, numpy, BLAS, thread variables, nproc) and the
SHA-256 digest of the final parameters and the generated samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from statistics import median

import numpy as np

ETA = 0.4  # symmetric label noise: the controllability gate of `reproduce`
SETUP_RUNS = 3
SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; run.setup_child(*sys.argv[2:])"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
LAYERS = ("cli", "trainer", "rdc", "pseudo", "network", "nn_core", "diffusion", "metrics", "data")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    variant: str
    train_iters: int  # cells train inside every unit; sample_eval once per set-up
    early_stop_iters: int
    train_in_unit: bool
    min_controllability: float  # chance is 0.25 for 4 classes
    n_per_class: int = 2000
    per_class: int = 1000  # samples per class, 4 classes
    batch_size: int = 512
    num_steps: int = 18  # Heun grid: 35 NFE, times 2 CFG branches


# Short runs: pc_rdc at eta=0.4 gives controllability ~0.97 after 1000
# iterations (500 of them phase 1) and ~0.94 after 600 (200 in phase 1), so a
# change that breaks the math still shows. vanilla at eta=0.4 sits near 0.45.
WORKLOADS = {
    "pc_rdc_cell": Workload("pc_rdc", 1000, 500, True, 0.6),
    "vanilla_cell": Workload("vanilla", 1000, 500, True, 0.35),
    "sample_eval": Workload("pc_rdc", 600, 200, False, 0.6),
}


def import_package():
    """Import robustdiff from ./src; exit 2 when the checkout has no source."""
    if not (SRC / "robustdiff" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import robustdiff

    if Path(robustdiff.__file__).resolve().parent != SRC / "robustdiff":
        print(f"perfbench: robustdiff imported from {robustdiff.__file__}", file=sys.stderr)
        sys.exit(2)
    from robustdiff import cli, data, diffusion, metrics, network, nn_core, pseudo, rdc, trainer

    return {
        "cli": cli, "trainer": trainer, "rdc": rdc, "pseudo": pseudo, "network": network,
        "nn_core": nn_core, "diffusion": diffusion, "metrics": metrics, "data": data,
    }


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas = "unknown"
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def git_commit() -> str:
    """HEAD from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------------
# set-up and units
# ---------------------------------------------------------------------------


class Bench:
    """Warm-up, set-up and units of one workload at one seed."""

    def __init__(self, mods, wl: Workload, seed: int, scratch: Path):
        self.m = mods
        self.wl = wl
        self.seed = seed
        self.seeds = mods["cli"]._cell_seeds(seed, ETA)
        self.scratch = scratch
        self.config = mods["trainer"].TrainConfig(
            variant=wl.variant,
            total_iters=wl.train_iters,
            early_stop_iters=wl.early_stop_iters,
            batch_size=wl.batch_size,
            num_steps=wl.num_steps,
            seed=self.seeds["train"],
        )
        self.samples = None
        self.ckpt_dir = None

    def make_data(self):
        data = self.m["data"]
        samples = data.make_toy_dataset(self.wl.n_per_class, self.seeds["data"])
        spec = data.NoiseSpec(kind="symmetric", eta=ETA, seed=self.seeds["noise"])
        return data.inject_noise(samples, spec)

    def warmup(self) -> None:
        """A short training of the workload's variant plus one full sample +
        eval. Untimed in the measuring process: a fresh process runs its first
        couple of seconds of numpy work up to 1.5x slower, which would
        otherwise land on the first unit of every run. A cell's set-up times
        it in a fresh interpreter."""
        trainer, cli = self.m["trainer"], self.m["cli"]
        samples = self.make_data()
        config = replace(self.config, total_iters=100, early_stop_iters=50)
        ckpt = trainer.train(config, samples)
        net = self.m["network"].ScoreNetwork(ckpt.params, sigma_data=config.sigma_data)
        per_class = cli.sample_per_class(
            net, config, self.wl.per_class, self.seeds["eval"], None, ckpt.prototypes
        )
        cli.evaluate_samples(samples, per_class)

    def make_checkpoint(self, ckpt_dir: Path) -> None:
        """sample_eval's set-up: train on the workload's data and save the
        checkpoint its units load."""
        ckpt = self.m["trainer"].train(self.config, self.make_data())
        self.m["trainer"].save_checkpoint(ckpt_dir, ckpt, self.config)

    def setup(self) -> float:
        """One set-up, timed: a fresh interpreter imports the package and runs
        the warm-up (cells) or makes the checkpoint (sample_eval). A fresh
        process keeps import and first-call costs in the timed set-up; the
        parent's own warm-up is untimed."""
        ckpt_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(Path(__file__).resolve().parent),
             json.dumps(asdict(self.wl)), str(self.seed), str(ckpt_dir)],
            cwd=ROOT, check=True,
        )
        elapsed = time.perf_counter() - t0
        if self.wl.train_in_unit:
            shutil.rmtree(ckpt_dir)
        else:
            if self.ckpt_dir is not None:
                shutil.rmtree(self.ckpt_dir)
            self.ckpt_dir = ckpt_dir
            self.samples = self.make_data()
        return elapsed

    def unit(self) -> dict:
        trainer, cli = self.m["trainer"], self.m["cli"]
        stamps: list[float] = []
        problems: list[str] = []
        t0 = time.perf_counter()
        if self.wl.train_in_unit:
            samples = self.make_data()
            ckpt = trainer.train(
                self.config, samples, snapshot_every=1,
                snapshot_cb=lambda *_: stamps.append(time.perf_counter()),
            )
            ckpt_dir = Path(tempfile.mkdtemp(dir=self.scratch))
            trainer.save_checkpoint(ckpt_dir, ckpt, self.config)
            net, config, loaded = trainer.load_checkpoint(ckpt_dir)
            if not np.array_equal(loaded.params.values, ckpt.params.values):
                problems.append("checkpoint round trip changed the parameters")
            protos = loaded.prototypes
        else:
            samples, ckpt_dir = self.samples, self.ckpt_dir
            net, config, loaded = trainer.load_checkpoint(ckpt_dir)
            protos = trainer.class_prototypes(
                loaded.pseudo, self.m["data"].noisy_labels(samples),
                config.cond_dim, config.proto_floor,
            )
        ckpt_bytes = sum(p.stat().st_size for p in ckpt_dir.iterdir())
        t1 = time.perf_counter()
        per_class = cli.sample_per_class(
            net, config, self.wl.per_class, self.seeds["eval"], None, protos
        )
        t2 = time.perf_counter()
        mae, ctrl = cli.evaluate_samples(samples, per_class)
        t3 = time.perf_counter()
        if self.wl.train_in_unit:
            shutil.rmtree(ckpt_dir)

        pts = np.concatenate([per_class[c] for c in sorted(per_class)])
        if not np.all(np.isfinite(net.params.values)):
            problems.append("non-finite parameters")
        if not np.all(np.isfinite(pts)):
            problems.append("non-finite samples")
        if not ctrl >= self.wl.min_controllability:
            problems.append(f"controllability {ctrl:.3f} below {self.wl.min_controllability}")
        digest = hashlib.sha256(net.params.values.tobytes() + pts.tobytes()).hexdigest()
        return {
            "wall_s": t3 - t0,
            "sample_s": t2 - t1,
            "eval_s": t3 - t2,
            "points": len(pts),
            "mae": mae,
            "controllability": ctrl,
            "digest": digest,
            "checkpoint_bytes": ckpt_bytes,
            "iter_s": np.diff(stamps).tolist(),  # iteration i+1 of the loop
            "problems": problems,
        }


def setup_child(wl_json: str, seed: str, ckpt_dir: str) -> None:
    """Body of one timed set-up, run in a fresh interpreter by Bench.setup."""
    wl = Workload(**json.loads(wl_json))
    bench = Bench(import_package(), wl, int(seed), Path(ckpt_dir))
    if wl.train_in_unit:
        bench.warmup()
    else:
        bench.make_checkpoint(Path(ckpt_dir))


def measure(bench: Bench, seconds: float) -> tuple[list[dict], int]:
    """Repeat units while the next one, at the mean pace so far, still fits."""
    units, attempted = [], 0
    start = time.perf_counter()
    while True:
        attempted += 1
        try:
            units.append(bench.unit())
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / attempted > seconds:
            return units, attempted


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def iteration_stats(units: list[dict], wl: Workload) -> dict:
    """Per-iteration times from the snapshot hook, split at the phase boundary.
    The first iteration has no earlier stamp and is not counted."""
    phase1, dsm = [], []
    for u in units:
        for i, dt in enumerate(u["iter_s"], start=1):
            in_phase1 = wl.variant != "vanilla" and i < wl.early_stop_iters
            (phase1 if in_phase1 else dsm).append(dt * 1e3)
    n_iters = len(phase1) + len(dsm)
    return {
        "trainer.train_iters_per_s": n_iters / (sum(phase1) + sum(dsm)) * 1e3 if n_iters else 0.0,
        "trainer.phase1_iter_ms_p50": quantile(phase1, 0.5),
        "trainer.phase1_iter_ms_p95": quantile(phase1, 0.95),
        "trainer.dsm_iter_ms_p50": quantile(dsm, 0.5),
        "trainer.dsm_iter_ms_p99": quantile(dsm, 0.99),
    }


def stage_stats(units: list[dict]) -> dict:
    """Sampling rate and scoring time of the untraced units."""
    return {
        "cli.sample_per_class.points_per_s": median(u["points"] / u["sample_s"] for u in units),
        "cli.evaluate_samples.s": median(u["eval_s"] for u in units),
    }


def span_stats(spans, n_units: int, metric_names) -> dict:
    """Per-layer metrics from spans: `<layer>.<fn>[.<phase>].ms` is the p50
    self time per call, `.total_ms` the p50 time including child spans,
    `.calls` the calls per unit, `.rows` the p50 rows per call. A function
    the workload never calls reads 0."""
    by_name: dict[tuple, list] = {}
    for s in spans:
        by_name.setdefault((s.name, ""), []).append(s)
        if s.phase:
            by_name.setdefault((s.name, s.phase), []).append(s)
    out = {}
    for metric in metric_names:
        base, kind = metric.rsplit(".", 1)
        name, phase = base, ""
        if base.endswith((".phase1", ".dsm")):
            name, phase = base.rsplit(".", 1)
        group = by_name.get((name, phase), [])
        if kind == "ms":
            out[metric] = quantile([s.self_s * 1e3 for s in group], 0.5)
        elif kind == "total_ms":
            out[metric] = quantile([(s.end - s.start) * 1e3 for s in group], 0.5)
        elif kind == "calls":
            out[metric] = len(group) / n_units
        elif kind == "rows":
            out[metric] = quantile([s.rows for s in group], 0.5)
    return out


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_units(units: list[dict]) -> list[str]:
    problems = []
    if not units:
        problems.append("no unit completed")
    if len({u["digest"] for u in units}) > 1:
        problems.append("units of one run gave different digests")
    for u in units:
        problems.extend(u["problems"])
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = load_spec()
    mods = import_package()
    wl = WORKLOADS[args.workload]
    env = environment()
    print("env " + json.dumps(env), flush=True)

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    bench = Bench(mods, wl, args.seed, scratch)
    try:
        bench.warmup()
        setup_s = median(bench.setup() for _ in range(SETUP_RUNS))
        if args.trace:
            from tracer import Tracer

            plain, attempted = measure(bench, args.seconds / 2)
            with Tracer([mods[name] for name in LAYERS]) as tracer:
                traced, attempted_traced = measure(bench, args.seconds / 2)
            attempted += attempted_traced
            units = plain + traced
        else:
            units, attempted = measure(bench, args.seconds)
    except Exception:
        # Units catch their own failures; warm-up and set-up train too, and
        # a failure there is reported as one failed attempt.
        traceback.print_exc()
        print("check failed: warm-up or set-up raised", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(scratch)  # holds every checkpoint the run wrote

    problems = check_units(units)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if units:
        u = units[-1]  # a traced unit when --trace 1
        print(f"digest {u['digest']} mae {u['mae']:.6f} controllability "
              f"{u['controllability']:.6f} units {len(units)}", flush=True)

    values: dict[str, float] = {}
    if units and args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        if plain:
            values.update(iteration_stats(plain, wl))
            values.update(stage_stats(plain))
        values.update(span_stats(tracer.spans, max(len(traced), 1), names))
        values["trainer.checkpoint_bytes"] = float(units[0]["checkpoint_bytes"])
        values["cli.evaluate_samples.mae"] = units[0]["mae"]
        if plain and traced:
            values["trace.wall_s"] = median(u["wall_s"] for u in traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - median(
                u["wall_s"] for u in plain
            )
        tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
        metric_specs = spec["per_layer"]
    elif units:
        values = {
            "setup_s": setup_s,
            "wall_s": median(u["wall_s"] for u in units),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "controllability": units[0]["controllability"],
        }
        metric_specs = spec["end_to_end"]
    else:
        metric_specs = []

    metrics = {}
    for m in metric_specs:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:34s} {values[m['name']]:14.6g} {m['unit']}")
    missing = [m["name"] for m in metric_specs if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - len(units),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if units else 1


if __name__ == "__main__":
    sys.exit(main())
