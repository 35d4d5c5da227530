"""Golden outputs of the CLI: each case runs ``cli.main`` in its own
directory, and its exit code, the sha256 of its stdout and stderr, and the
sha256 of every CSV it wrote must match ``golden_traces.json``.  The cases
cover the engines, the certificate (``analyze``, ``graph spectrum``) and the
reference solve (``data solve``).

The digests hold for the numpy and scipy versions recorded in the manifest.
On any other build the test warns that this fallback is in use and
compares instead: the exit code; per CSV, the row count and, for trace
CSVs, the last ``k`` and the final residual (rtol 1e-12); and the numbers
the case printed to stdout that :func:`stdout_numbers` parses (``alpha_bar``,
the ``alpha,rho`` rows, ``sigma``, ``pi``, ``z_star``, ``f_star``) at
relative tolerance ``STDOUT_RTOL``, so the cases that write no CSV
(``analyze``, ``graph spectrum``, ``data solve``) check their certificate
and reference solve too; a diverged ``run``, which writes neither, records
the iteration of its stderr line ``error: iterate diverged at iteration K``
as ``diverged_at``.

A change that moves an output on purpose regenerates the manifest with
``PYTHONPATH=src python tests/test_golden_traces.py``, which first prints
the name of every case whose exit code or digests differ from the committed
manifest (or ``no case changed``), and lists those cases.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import re
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


#: ``name = v1,v2,...`` stdout lines (``# `` prefix allowed) whose numbers the
#: manifest records for the other-build fallback
STDOUT_KEYS = ("alpha_bar", "sigma", "pi", "z_star", "f_star")
#: relative tolerance of the fallback on those numbers.  The certificate and
#: the reference solve move by about 1e-14 relative between builds (BLAS
#: summation order); a real change moves them by far more.
STDOUT_RTOL = 1e-10
#: the stderr line of a run that left the overflow guard
DIVERGED = re.compile(r"^error: iterate diverged at iteration (\d+)$", re.MULTILINE)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_numbers(text: str) -> dict[str, list[float]]:
    """The numbers of every ``STDOUT_KEYS`` line in ``text``, and the
    ``alpha`` and ``rho`` columns of an ``alpha,rho`` table."""
    numbers = {}
    lines = text.splitlines()
    for line in lines:
        key, sep, value = line.removeprefix("# ").partition(" = ")
        if sep and key in STDOUT_KEYS:
            numbers[key] = [float(v) for v in value.split(",")]
    if "alpha,rho" in lines:
        rows = [line.split(",") for line in lines[lines.index("alpha,rho") + 1:]]
        numbers["alpha"] = [float(a) for a, _ in rows]
        numbers["rho"] = [float(r) for _, r in rows]
    return numbers


def output_numbers(stdout: str, stderr: str) -> dict[str, list[float]]:
    """:func:`stdout_numbers`, plus the iteration ``diverged_at`` of a
    ``DIVERGED`` line in ``stderr``."""
    numbers = stdout_numbers(stdout)
    diverged = DIVERGED.search(stderr)
    if diverged:
        numbers["diverged_at"] = [float(diverged.group(1))]
    return numbers


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
        "numbers": output_numbers(out.getvalue(), err.getvalue()),
    }


def _digests(entry: dict | None) -> dict | None:
    """A case's exit code and digests: what the regenerator calls a change."""
    return entry and {key: value for key, value in entry.items() if key != "numbers"}


def _builds() -> tuple[dict, bool]:
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    same = (manifest["numpy"], manifest["scipy"]) == (np.__version__, scipy.__version__)
    return manifest, same


def test_manifest_lists_every_case():
    manifest, _ = _builds()
    assert sorted(manifest["cases"]) == sorted(CASES)


def assert_matches_on_another_build(want: dict, got: dict) -> None:
    """The fallback comparison of a case's outputs ``got`` with the manifest's ``want``."""
    assert got["exit"] == want["exit"]
    assert sorted(got["files"]) == sorted(want["files"])
    for path, entry in want["files"].items():
        have = got["files"][path]
        assert (have["rows"], have.get("k")) == (entry["rows"], entry.get("k")), path
        if "residual" in entry:
            assert have["residual"] == pytest.approx(entry["residual"], rel=1e-12), path
    assert sorted(got["numbers"]) == sorted(want["numbers"])
    for key, values in want["numbers"].items():
        assert got["numbers"][key] == pytest.approx(values, rel=STDOUT_RTOL), key


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
        "counts, k and final residuals (rtol 1e-12) and stdout numbers "
        f"(rtol {STDOUT_RTOL:g}) instead of digests"
    )
    assert_matches_on_another_build(want, got)


def test_every_case_without_a_csv_records_its_stdout_numbers():
    manifest, _ = _builds()
    quiet = [name for name, argv in CASES.items() if argv[0] in ("analyze", "graph", "data")]
    assert len(quiet) == 8
    assert not any(manifest["cases"][name]["files"] for name in quiet)
    # the slack-overshoot case exits 2 before it prints anything
    assert [name for name in quiet if not manifest["cases"][name]["numbers"]] == [
        "spectrum_fig1_slack_overshoot"
    ]


def test_fallback_catches_a_moved_divergence_step(tmp_path):
    manifest, _ = _builds()
    diverged = [name for name, case in manifest["cases"].items() if case["exit"] == 1
                and not case["files"]]
    assert sorted(diverged) == ["run_addopt_diverged", "run_dextra_diverged"]
    for name in diverged:
        assert list(manifest["cases"][name]["numbers"]) == ["diverged_at"]
    want = manifest["cases"]["run_addopt_diverged"]
    got = run_case("run_addopt_diverged", tmp_path)
    assert_matches_on_another_build(want, got)
    for shift in (-1, 1):
        moved = copy.deepcopy(got)
        moved["numbers"]["diverged_at"][0] += shift
        with pytest.raises(AssertionError, match="diverged_at"):
            assert_matches_on_another_build(want, moved)


def test_fallback_catches_a_moved_certificate(tmp_path):
    manifest, _ = _builds()
    want = manifest["cases"]["analyze_fig1_alpha"]
    got = run_case("analyze_fig1_alpha", tmp_path)
    assert sorted(got["numbers"]) == ["alpha", "alpha_bar", "rho"]
    assert_matches_on_another_build(want, got)
    for key in got["numbers"]:
        moved = copy.deepcopy(got)
        moved["numbers"][key][-1] *= 1 + 100 * STDOUT_RTOL
        with pytest.raises(AssertionError, match=key):
            assert_matches_on_another_build(want, moved)


if __name__ == "__main__":
    import tempfile

    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(case, Path(tmp))
    old = {}
    if MANIFEST.exists():
        old = json.loads(MANIFEST.read_text(encoding="utf-8"))["cases"]
    changed = sorted(
        c for c in {*cases, *old} if _digests(cases.get(c)) != _digests(old.get(c))
    )
    print("\n".join(f"changed: {c}" for c in changed) or "no case changed")
    MANIFEST.write_text(
        json.dumps(
            {"numpy": np.__version__, "scipy": scipy.__version__, "cases": cases},
            indent=1, sort_keys=True,
        ) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {MANIFEST} ({len(cases)} cases)")
