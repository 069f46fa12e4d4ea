"""The benchmark's self-test: every workload runs at n=4 and every hook it
installs on dpgmarch names a function that still exists."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    result = subprocess.run([sys.executable, "perfbench/run.py", "--self-test"], cwd=ROOT,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
