"""Golden outputs of the engines: each case runs ``cli.main`` in its own
directory, and its exit code, the sha256 of its stdout and stderr, and the
sha256 of every CSV it wrote must match ``golden_traces.json``.

The digests hold for the numpy and scipy versions recorded in the manifest.
On any other build the test compares, per CSV, the row count and, for trace
CSVs, the last ``k`` and the final residual (rtol 1e-12), and warns that
this fallback is in use.

A change that moves an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden_traces.py`` and lists every
changed case.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from dirgraphopt import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_traces.json"
CONFIGS = HERE.parent / "configs"

#: config files that a case writes into its directory before it runs
CASE_CONFIGS = {
    "n200.ini": """
[graph]
source = random
nodes = 200
extra_edges = 800
seed = 1

[objective]
kind = logistic
reg = 20.0
seed = 1

[run]
algorithms = addopt, dextra, gp
alpha = 0.01
iters = 200

[output]
dir = out
prefix = n200
""",
    "fig1_alpha50.ini": """
[graph]
source = fig1

[objective]
kind = logistic

[run]
algorithms = addopt, dextra, gp
alpha = 50
iters = 300

[output]
dir = out
prefix = fig1_alpha50
""",
}

RUN = ["run", "--graph", "fig1"]

CASES = {
    "compare_fig1": ["compare", "--config", str(CONFIGS / "compare_fig1.ini")],
    "stepsize_fig1": ["sweep", "--config", str(CONFIGS / "stepsize_fig1.ini")],
    "sparsity_chain": ["sparsity", "--config", str(CONFIGS / "sparsity_chain.ini")],
    "run_addopt": RUN + ["--alg", "addopt", "--alpha", "0.08"],
    "run_dextra": RUN + ["--alg", "dextra", "--alpha", "0.2"],
    "run_gp_inv_sqrt": RUN + ["--alg", "gp", "--alpha", "1/sqrt(k)"],
    "run_gp_blowup": RUN + ["--alg", "gp", "--alpha", "30", "--iters", "300", "--seed", "4"],
    "run_dextra_diverged": RUN + ["--alg", "dextra", "--alpha", "50"],
    "run_addopt_diverged": RUN + ["--alg", "addopt", "--alpha", "50"],
    "run_dextra_p1_z0_theta": RUN + [
        "--alg", "dextra", "--alpha", "0.2", "--p", "1", "--z0", "0.5", "--theta", "0.3",
    ],
    "run_addopt_stop_tol": RUN + ["--alg", "addopt", "--alpha", "0.08", "--stop-tol", "1e-9"],
    "run_dextra_iters0": RUN + ["--alg", "dextra", "--alpha", "0.2", "--iters", "0"],
    "compare_n200_logistic": ["compare", "--config", "n200.ini"],
    "compare_fig1_alpha50": ["compare", "--config", "fig1_alpha50.ini"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict:
    """Run case ``name`` in ``workdir``; its exit code, output digests and CSVs."""
    argv = CASES[name]
    if argv[-1] in CASE_CONFIGS:
        (workdir / argv[-1]).write_text(CASE_CONFIGS[argv[-1]], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(workdir.rglob("*.csv")):
        data = path.read_bytes()
        header, *rows = csv.reader(io.StringIO(data.decode("utf-8")))
        entry = {"sha256": _sha256(data), "rows": len(rows)}
        if "k" in header and rows:
            entry["k"] = int(rows[-1][header.index("k")])
            entry["residual"] = float(rows[-1][header.index("residual")])
        files[path.relative_to(workdir).as_posix()] = entry
    return {
        "exit": code,
        "stdout": _sha256(out.getvalue().encode("utf-8")),
        "stderr": _sha256(err.getvalue().encode("utf-8")),
        "files": files,
    }


def _builds() -> tuple[dict, bool]:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    same = (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    return manifest, same


def test_manifest_lists_every_case():
    manifest, _ = _builds()
    assert sorted(manifest["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_reproduces_its_recorded_outputs(name, tmp_path):
    manifest, same_build = _builds()
    want, got = manifest["cases"][name], run_case(name, tmp_path)
    if same_build:
        assert got == want
        return
    warnings.warn(
        f"numpy {np.__version__} / scipy {scipy.__version__} differ from the "
        f"manifest's {manifest['numpy']} / {manifest['scipy']}: comparing row "
        "counts, k and final residuals (rtol 1e-12) instead of digests"
    )
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    for path, entry in want["files"].items():
        have = got["files"][path]
        assert (have["rows"], have.get("k")) == (entry["rows"], entry.get("k")), path
        if "residual" in entry:
            assert have["residual"] == pytest.approx(entry["residual"], rel=1e-12), path


if __name__ == "__main__":
    import tempfile

    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(case, Path(tmp))
    MANIFEST.write_text(
        json.dumps(
            {"numpy": np.__version__, "scipy": scipy.__version__, "cases": cases},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {MANIFEST} ({len(cases)} cases)")
