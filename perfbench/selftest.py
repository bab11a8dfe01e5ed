"""Self-test of the benchmark harness on a tiny configuration (a few seconds).

    python3 perfbench/selftest.py

Checks that tracing disturbs neither the math nor the RNG stream (a traced
and an untraced unit give identical digests, for a cell and for
sample_eval), that every wrapped attribute is restored afterwards, also when
the traced code raises, and that span self times add up to the root spans.
Exits 0 when every check passes.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run
from tracer import Tracer, public_callables

TINY = dict(n_per_class=30, per_class=20, batch_size=16, num_steps=4,
            min_controllability=0.0)


def attribute_snapshot(modules) -> dict:
    snap = {}
    for mod in modules:
        for owner, attr, _ in public_callables(mod):
            snap[(id(owner), attr)] = vars(owner)[attr]
    return snap


def check(cond: bool, what: str, failures: list) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    mods = run.import_package()
    layers = [mods[name] for name in run.LAYERS]
    failures: list[str] = []
    before = attribute_snapshot(layers)
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        for label, wl in (
            ("cell", run.Workload("pc_rdc", 20, 10, True, **TINY)),
            ("sample_eval", run.Workload("pc_rdc", 20, 10, False, **TINY)),
        ):
            bench = run.Bench(mods, wl, seed=0, scratch=scratch)
            if not wl.train_in_unit:
                bench.ckpt_dir = Path(tempfile.mkdtemp(dir=scratch))
                bench.make_checkpoint(bench.ckpt_dir)
                bench.samples = bench.make_data()
            plain = bench.unit()
            with Tracer(layers) as tracer:
                traced = bench.unit()
            check(plain["digest"] == traced["digest"], f"{label}: traced digest equals untraced", failures)
            check(not plain["problems"] and not traced["problems"], f"{label}: unit checks pass", failures)
            spans = tracer.spans
            names = {s.name for s in spans}
            want = {"diffusion.denoise", "cli.sample_per_class", "metrics.mae", "trainer.load_checkpoint"}
            if wl.train_in_unit:
                want |= {"rdc.estimate_pseudo_var", "network.cond_var", "nn_core.backward", "pseudo.ensemble_update"}
                phases = {s.phase for s in spans if s.name == "trainer.loss_step"}
                check(phases == {"phase1", "dsm"}, f"{label}: loss_step spans tagged with both phases", failures)
            check(want <= names, f"{label}: spans cover {sorted(want)}", failures)
            rows = {s.rows for s in spans if s.name == "diffusion.denoise"}
            check(rows == {wl.per_class}, f"{label}: denoise rows per call = {wl.per_class}", failures)
            roots = sum(s.end - s.start for s in spans if s.parent == -1)
            selfs = sum(s.self_s for s in spans)
            check(abs(roots - selfs) <= 1e-6 * len(spans) + 1e-9 and min(s.self_s for s in spans) > -1e-6,
                  f"{label}: self times sum to root span time", failures)
        try:
            with Tracer(layers):
                raise RuntimeError("raised inside the traced block")
        except RuntimeError:
            pass
    finally:
        shutil.rmtree(scratch)
    after = attribute_snapshot(layers)
    changed = [k for k in before if before[k] is not after.get(k)]
    check(not changed and before.keys() == after.keys(), "every wrapped attribute restored", failures)
    print("selftest " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
