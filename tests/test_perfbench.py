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
