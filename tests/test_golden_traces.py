"""Golden outputs of the CLI: each case runs ``cli.main`` in its own
directory, and its exit code, the sha256 of its stdout and stderr, and the
sha256 of every CSV it wrote must match ``golden_traces.json``.  The cases
cover the engines, the certificate (``analyze``, ``graph spectrum``) and the
reference solve (``data solve``).

The digests hold for the numpy and scipy versions recorded in the manifest.
On any other build the test compares, per CSV, the row count and, for trace
CSVs, the last ``k`` and the final residual (rtol 1e-12), and warns that
this fallback is in use.

A change that moves an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden_traces.py``, which first prints
the name of every case whose exit code or digests differ from the committed
manifest (or ``no case changed``), and lists those cases.
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

from dirgraphopt import cli, digraph

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "golden_traces.json"
CONFIGS = HERE.parent / "configs"

#: input files that a case writes into its directory before it runs: the
#: text of the file, or a function that writes it to the path it is given
CASE_FILES = {
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
    "quadratic_stop_tol.ini": """
[graph]
source = fig1

[objective]
kind = quadratic
dim = 3
seed = 0

[run]
algorithms = addopt, dextra, gp
alpha = 0.2
iters = 2000
stop_tol = 1e-10

[output]
dir = out
prefix = quadratic_stop_tol
""",
    "quadratic_p1.ini": """
[graph]
source = fig1

[objective]
kind = quadratic
dim = 1
seed = 2

[run]
algorithms = addopt, dextra, gp
alpha = 0.2
iters = 500

[output]
dir = out
prefix = quadratic_p1
""",
    "n40.graph": lambda path: digraph.save_graph(digraph.random_digraph(40, 160, 3), path),
    # three agents holding 3, 1 and 2 examples
    "unequal.csv": """agent,label,f1,f2
0,1,0.5,-1.0
0,-1,1.5,0.25
0,1,-0.75,0.4
1,-1,-0.3,0.8
2,1,1.25,-0.6
2,-1,0.2,1.1
""",
}

RUN = ["run", "--graph", "fig1"]
ANALYZE_FIG1 = ["analyze", "--graph", "fig1", "--l", "1.43", "--s", "0.1"]

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
    "compare_quadratic_stop_tol": ["compare", "--config", "quadratic_stop_tol.ini"],
    "compare_quadratic_p1": ["compare", "--config", "quadratic_p1.ini"],
    "analyze_fig1_sweep": ANALYZE_FIG1 + ["--sweep", "0.001:0.01:20"],
    "analyze_fig1_default_grid": ANALYZE_FIG1,
    "analyze_fig1_alpha": ANALYZE_FIG1 + ["--alpha", "0.001"],
    "spectrum_fig1": ["graph", "spectrum", "fig1"],
    "spectrum_fig1_slack_overshoot": ["graph", "spectrum", "fig1", "--slack", "1e-12"],
    "spectrum_n40": ["graph", "spectrum", "n40.graph"],
    "analyze_n40_slack": [
        "analyze", "--graph", "n40.graph", "--l", "2", "--s", "0.3", "--slack", "0.01",
    ],
    "data_solve_unequal_counts": ["data", "solve", "--data", "unequal.csv"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, workdir: Path) -> dict:
    """Run case ``name`` in ``workdir``; its exit code, output digests and CSVs."""
    argv = CASES[name]
    inputs = [arg for arg in argv if arg in CASE_FILES]
    for arg in inputs:
        source = CASE_FILES[arg]
        if callable(source):
            source(workdir / arg)
        else:
            (workdir / arg).write_text(source, encoding="utf-8")
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
        if path.name in inputs:
            continue
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
    old = {}
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"]
    changed = sorted(c for c in {*cases, *old} if cases.get(c) != old.get(c))
    print("\n".join(f"changed: {c}" for c in changed) or "no case changed")
    MANIFEST.write_text(
        json.dumps(
            {"numpy": np.__version__, "scipy": scipy.__version__, "cases": cases},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {MANIFEST} ({len(cases)} cases)")
