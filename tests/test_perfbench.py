"""The benchmark harness runs against the package: a change under src/ that
breaks its contract (names, signatures, digests of traced runs) fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_harness_selftest_passes():
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest ok"


# Bench.warmup, the one caller of ScoreNetwork(..., sigma_data=...), for a
# cell of each variant at selftest's tiny sizes.
WARMUP = """
import run, selftest
mods = run.import_package()
for variant in ("pc_rdc", "vanilla"):
    wl = run.Workload(variant, 20, 10, True, **selftest.TINY)
    run.Bench(mods, wl, seed=0, scratch=run.OUT).warmup()
print("warmup ok")
"""


def test_harness_warmup_runs():
    out = subprocess.run([sys.executable, "-c", WARMUP], cwd=ROOT / "perfbench",
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "warmup ok"
