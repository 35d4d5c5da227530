"""The benchmark still runs against the current package, at tiny sizes."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import dirgraphopt

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the self-test writes only under the git-ignored .bench_out/
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout


#: traced names that no package function carries any more; the tracer skips
#: a missing name without a word, so a name may leave this set but not join it
STALE_TRACED = {
    "digraph": {"tau_eps", "contraction_norm"},
    "algorithms": {"dextra_init", "addopt_init", "gradient_push_init"},
}


def test_every_traced_name_is_a_package_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for table in (tracing.TRACED, tracing.PHASE):
        for layer, names in table.items():
            module = getattr(dirgraphopt, layer)
            missing = {n for n in names if not callable(getattr(module, n, None))}
            assert missing <= STALE_TRACED.get(layer, set()), (layer, missing)
