"""Run every workload untraced and traced, and print all metrics by name and unit.

    python3 perfbench/report.py [--seed 0]

Every workload in BENCHMARK.json runs for its `run_seconds`. Each run is a
fresh `perfbench/run.py` process, so peak memory and set-up are per workload. For each workload this prints the end-to-end metrics of
the untraced run, the per-layer metrics of the traced run, the tracing
overhead (traced minus untraced wall time per unit) and whether both runs
produced the same digest. Exits 0 when every run is correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result JSON, info lines by first word) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}, {}
    info = {line.split(" ", 1)[0]: line for line in lines[:-1] if not line.startswith(" ")}
    return json.loads(lines[-1]), info


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    ok = True
    env_printed = False
    for workload in (w["name"] for w in spec["workloads"]):
        plain, plain_info = run_once(workload, args.seed, spec["run_seconds"], 0)
        traced, traced_info = run_once(workload, args.seed, spec["run_seconds"], 1)
        if not env_printed and "env" in plain_info:
            print(plain_info["env"])
            env_printed = True
        print(f"\n== {workload} (seed {args.seed})")
        for label, res in (("untraced", plain), ("traced", traced)):
            print(f"{label}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            ok = ok and res["correct"] and res["failed"] == 0
        print(plain_info.get("digest", "digest missing"))
        digests = [info["digest"].split()[1] for info in (plain_info, traced_info) if "digest" in info]
        same = len(digests) == 2 and digests[0] == digests[1]
        print(f"traced digest equals untraced: {same}")
        ok = ok and same
        for m in spec["end_to_end"] + spec["per_layer"]:
            res = plain if "bound" in m else traced
            if m["name"] in res["metrics"]:
                print(f"  {m['name']:40s} {res['metrics'][m['name']]['value']:14.6g} {m['unit']}")
        overhead = traced["metrics"].get("trace.overhead_s", {}).get("value")
        if overhead is not None:
            wall = traced["metrics"]["trace.wall_s"]["value"]
            print(f"tracing overhead: {overhead:+.3f} s per unit "
                  f"({overhead / (wall - overhead):+.1%} of untraced)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
