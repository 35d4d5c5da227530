"""The benchmark still runs against the current package, at tiny sizes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the self-test writes only under the git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
