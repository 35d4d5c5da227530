"""Command-line interface: subcommands, output formats and exit codes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirgraphopt import digraph
from dirgraphopt.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# graph subcommand
# ---------------------------------------------------------------------------


def test_graph_check_builtin(capsys):
    code, out, _ = run_cli(capsys, "graph", "check", "fig1")
    assert code == 0
    assert "nodes = 10" in out
    assert "edges = 25" in out
    assert "strongly_connected = True" in out


def test_graph_check_rejects_weakly_connected_file(capsys, tmp_path):
    path = tmp_path / "oneway.txt"
    path.write_text("2\n0 1\n")
    code, out, _ = run_cli(capsys, "graph", "check", str(path))
    assert code == 1
    assert "strongly_connected = False" in out


def test_graph_unknown_name_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "graph", "check", "no-such-graph")
    assert code == 2
    assert "error:" in err


def test_graph_spectrum_prints_constants(capsys):
    code, out, _ = run_cli(capsys, "graph", "spectrum", "fig1")
    assert code == 0
    values = {}
    for line in out.splitlines():
        key, _, rest = line.partition(" = ")
        values[key] = rest
    assert 0.0 < float(values["sigma"]) < 1.0
    assert float(values["tau"]) > 0 and float(values["eps"]) > 0
    pi = np.array([float(v) for v in values["pi"].split(",")])
    assert pi.shape == (10,) and abs(pi.sum() - 1.0) < 1e-10 and np.all(pi > 0)


def test_graph_spectrum_on_40_node_random_file(capsys, tmp_path):
    path = tmp_path / "random40.txt"
    digraph.save_graph(digraph.random_digraph(40, 160, 1), path)
    code, out, err = run_cli(capsys, "graph", "spectrum", str(path))
    assert code == 0, err
    sigma = float(out.split("sigma = ")[1].splitlines()[0])
    assert 0.0 < sigma < 1.0


# ---------------------------------------------------------------------------
# data subcommand
# ---------------------------------------------------------------------------


def test_data_gen_and_solve_roundtrip(capsys, tmp_path):
    out_csv = tmp_path / "data.csv"
    code, out, _ = run_cli(
        capsys, "data", "gen", "--n", "4", "--m", "5", "--p", "2",
        "--seed", "3", "--out", str(out_csv),
    )
    assert code == 0 and f"wrote {out_csv}" in out
    assert out_csv.read_text().splitlines()[0] == "agent,label,f1,f2"

    code, out, _ = run_cli(capsys, "data", "solve", "--data", str(out_csv))
    assert code == 0
    lines = dict(
        line.partition(" = ")[::2] for line in out.splitlines()
    )
    z_star = [float(v) for v in lines["z_star"].split(",")]
    assert len(z_star) == 2
    assert lines["converged"] == "True"
    assert float(lines["residual_norm"]) < 1e-9


def test_data_solve_unequal_example_counts_is_pinned(capsys, tmp_path):
    # two agents holding 2 and 1 examples; the output was recorded before the
    # gradients were batched and must not move by a bit
    path = tmp_path / "two.csv"
    path.write_text("agent,label,f1,f2\n0,1,0.5,-1.0\n0,-1,1.5,0.25\n1,1,-0.3,0.8\n")
    code, out, _ = run_cli(capsys, "data", "solve", "--data", str(path))
    assert code == 0
    assert out == (
        "z_star = -0.4100451141082118,-0.18508381987683745\n"
        "f_star = 1.926295923860157\n"
        "residual_norm = 6.189334170187779e-13\n"
        "converged = True\n"
    )


@pytest.mark.parametrize("row, message", [
    ("0,-1,1.5", "line 3: expected 4 fields, got 3"),
    ("0,-1,x,0.25", "line 3: could not convert string to float: 'x'"),
])
def test_data_solve_bad_row_names_file_and_line(capsys, tmp_path, row, message):
    path = tmp_path / "d.csv"
    path.write_text(f"agent,label,f1,f2\n0,1,0.5,-1.0\n{row}\n")
    code, out, err = run_cli(capsys, "data", "solve", "--data", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path} {message}\n"


def test_data_solve_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n1,2\n")
    code, _, err = run_cli(capsys, "data", "solve", "--data", str(bad))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# run subcommand
# ---------------------------------------------------------------------------


def test_run_writes_trace(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.05", "--iters", "100", "--out", str(out_csv),
    )
    assert code == 0
    assert "101 records" in out
    header = out_csv.read_text().splitlines()[0]
    assert header == "k,residual,consensus_err,tracking_err,gap"
    assert len(out_csv.read_text().splitlines()) == 102


def test_run_stop_tol_short_circuits(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.08", "--seed", "7", "--iters", "500",
        "--stop-tol", "1e-8", "--out", str(out_csv),
    )
    assert code == 0
    records = len(out_csv.read_text().splitlines()) - 1
    assert records < 501


def test_run_baseline_with_diminishing_steps(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, out, _ = run_cli(
        capsys, "run", "--alg", "gp", "--graph", "fig1",
        "--alpha", "1/sqrt(k)", "--iters", "50", "--out", str(out_csv),
    )
    assert code == 0 and out_csv.exists()


def test_run_rejects_schedule_for_tracked_engine(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "1/sqrt(k)", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2 and "constant step" in err


def test_run_divergence_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "run", "--alg", "dextra", "--graph", "fig1",
        "--alpha", "0.02", "--iters", "8000", "--out", str(tmp_path / "t.csv"),
    )
    assert code == 1
    assert "diverged at iteration" in err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "alg, alpha, iters, seed, residual",
    [
        # blows up too slowly for the overflow guard
        ("gp", "30", "300", "4", "1.283e+114"),
        # stalls above its starting distance
        ("addopt", "0.3", "3000", "0", "1.893e+00"),
    ],
)
def test_run_ending_farther_than_it_started_exits_1(
    capsys, tmp_path, alg, alpha, iters, seed, residual
):
    out_csv = tmp_path / "t.csv"
    code, out, err = run_cli(
        capsys, "run", "--alg", alg, "--graph", "fig1", "--alpha", alpha,
        "--iters", iters, "--seed", seed, "--out", str(out_csv),
    )
    assert code == 1
    records = int(iters) + 1
    assert out == f"wrote {out_csv} ({records} records, final residual {residual})\n"
    assert err.startswith(f"error: final residual {residual} is above 1")
    assert len(out_csv.read_text().splitlines()) == records + 1


def test_run_rejects_a_negative_iteration_count(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, _, err = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.04", "--iters", "-3", "--out", str(out_csv),
    )
    assert code == 2 and "error:" in err and "-3" in err
    assert not out_csv.exists()


def test_run_zero_iterations_writes_the_start_record(capsys, tmp_path):
    out_csv = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.04", "--iters", "0", "--out", str(out_csv),
    )
    assert code == 0 and "1 records" in out
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,1.0,")


def test_run_with_explicit_dataset_checks_agent_count(capsys, tmp_path):
    data_csv = tmp_path / "data.csv"
    run_cli(capsys, "data", "gen", "--n", "4", "--out", str(data_csv))
    code, _, err = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.05", "--data", str(data_csv),
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 2 and "4 agents" in err


def test_run_with_matching_dataset_and_z0(capsys, tmp_path):
    data_csv = tmp_path / "data.csv"
    run_cli(capsys, "data", "gen", "--n", "10", "--out", str(data_csv))
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", "0.05", "--iters", "50", "--data", str(data_csv),
        "--z0", "0.5", "--out", str(out_csv),
    )
    assert code == 0 and out_csv.exists()


def test_run_on_graph_file(capsys, tmp_path):
    g_path = tmp_path / "ring.txt"
    digraph.save_graph(digraph.ring_digraph(5), g_path)
    code, _, _ = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", str(g_path),
        "--alpha", "0.02", "--iters", "50", "--m", "3", "--p", "2",
        "--out", str(tmp_path / "t.csv"),
    )
    assert code == 0


# ---------------------------------------------------------------------------
# analyze subcommand
# ---------------------------------------------------------------------------


def parse_analyze(out: str):
    lines = out.splitlines()
    assert lines[0].startswith("# alpha_bar = ")
    bound = float(lines[0].split(" = ")[1])
    assert lines[1] == "alpha,rho"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    return bound, rows


def test_analyze_single_alpha(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "1.0",
        "--alpha", "0.001",
    )
    assert code == 0
    bound, rows = parse_analyze(out)
    assert bound > 0 and len(rows) == 1
    assert rows[0][0] == 0.001 and 0 < rows[0][1] < 2


def test_analyze_sweep_grid(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "0.5",
        "--sweep", "0.001:0.01:7",
    )
    assert code == 0
    _, rows = parse_analyze(out)
    assert len(rows) == 7
    alphas = [r[0] for r in rows]
    assert alphas == sorted(alphas)


def test_analyze_default_grid_spans_certified_range(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "1.0",
    )
    assert code == 0
    bound, rows = parse_analyze(out)
    assert len(rows) == 20
    assert rows[-1][0] == pytest.approx(bound)
    # strictly inside the certified range every point contracts; the grid's
    # final point sits on the bound itself, where the radius reaches one
    # exactly unless the coarse 1/(n*l) cap was the binding constraint
    assert all(rho < 1.0 for _, rho in rows[:-1])
    assert rows[-1][1] <= 1.0 + 1e-9


def test_analyze_node_count_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "1.0",
        "--n", "12",
    )
    assert code == 2 and "does not match" in err


def test_analyze_one_node_graph_applies_the_cap(capsys, tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\n")
    code, out, err = run_cli(
        capsys, "analyze", "--graph", str(path), "--l", "1", "--s", "1",
    )
    assert code == 0 and err == ""
    bound, rows = parse_analyze(out)
    assert bound == 1.0  # the 1/(n l) cap
    assert len(rows) == 20 and all(0.0 <= rho < 1.0 for _, rho in rows)


# ---------------------------------------------------------------------------
# config-driven studies
# ---------------------------------------------------------------------------


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_compare_study_cli(capsys, tmp_path):
    cfg = write_config(tmp_path, "cmp.ini", f"""
[objective]
kind = quadratic
dim = 3

[run]
algorithms = addopt
alpha = 0.2
iters = 150

[output]
dir = {tmp_path / "out"}
prefix = cmp
""")
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 0
    assert "addopt:" in out and "diverged=False" in out
    assert (tmp_path / "out" / "cmp_summary.csv").exists()


def test_compare_study_cli_divergence_exit(capsys, tmp_path):
    cfg = write_config(tmp_path, "cmp.ini", f"""
[objective]
kind = quadratic

[run]
algorithms = addopt
alpha = 50.0
iters = 3000

[output]
dir = {tmp_path / "out"}
""")
    code, out, _ = run_cli(capsys, "compare", "--config", cfg)
    assert code == 1 and "diverged=True" in out


def test_sweep_study_cli(capsys, tmp_path):
    cfg = write_config(tmp_path, "sweep.ini", f"""
[objective]
kind = logistic
examples = 2
dim = 2

[run]
alpha = 0.001:0.004:4
iters = 80

[output]
dir = {tmp_path / "out"}
""")
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    assert "alpha_bar = " in out and "rows = 4" in out
    assert (tmp_path / "out" / "study_stepsize.csv").exists()


def test_sweep_study_cli_reports_both_argmins(capsys, tmp_path):
    cfg = write_config(tmp_path, "sweep.ini", f"""
[objective]
kind = logistic
examples = 2
dim = 2

[run]
alpha = 0.001:0.004:4
iters = 80

[output]
dir = {tmp_path / "out"}
""")
    code, out, _ = run_cli(capsys, "sweep", "--config", cfg)
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    assert lines["argmin rho"].startswith("alpha=")
    assert lines["argmin residual"].startswith("alpha=0.004 ")


def test_sparsity_study_cli(capsys, tmp_path):
    cfg = write_config(tmp_path, "sp.ini", f"""
[graph]
source = random
nodes = 6

[objective]
kind = quadratic
dim = 2

[run]
alpha = 0.05
iters = 1200

[sparsity]
chain_extra = 0, 6

[output]
dir = {tmp_path / "out"}
""")
    code, out, _ = run_cli(capsys, "sparsity", "--config", cfg)
    assert code == 0
    assert "chain0" in out and "chain1" in out
    assert (tmp_path / "out" / "study_sparsity.csv").exists()


def test_study_config_rejects_a_negative_iteration_count(capsys, tmp_path):
    cfg = write_config(tmp_path, "neg.ini", f"""
[run]
algorithms = addopt
alpha = 0.04
iters = -3

[output]
dir = {tmp_path}
""")
    code, _, err = run_cli(capsys, "compare", "--config", cfg)
    assert code == 2 and "iters must be non-negative, got -3" in err
    assert not list(tmp_path.glob("*.csv"))


def test_missing_config_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "compare", "--config", str(tmp_path / "aint.ini")
    )
    assert code == 2 and "error:" in err


def test_cli_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "dirgraphopt.cli", "graph", "check", "fig1"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "strongly_connected = True" in proc.stdout


def test_sparsity_divergence_names_the_lane(capsys, tmp_path):
    cfg = write_config(tmp_path, "sp.ini", f"""
[objective]
kind = quadratic
dim = 3

[run]
alpha = 5.0
iters = 300

[output]
dir = {tmp_path / "out"}
""")
    code, _, err = run_cli(capsys, "sparsity", "--config", cfg)
    assert code == 1
    assert err == "error: chain0 seed 0: iterate diverged at iteration 197\n"
    assert not (tmp_path / "out" / "study_sparsity.csv").exists()


@pytest.mark.parametrize("spec, message", [
    ("1:2", "sweep spec must be lo:hi:steps, got '1:2'"),
    ("0.5:0.1:3", "sweep range '0.5:0.1:3' is empty or inverted"),
])
def test_analyze_sweep_spec_errors_match_the_config(capsys, spec, message):
    code, out, err = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "1.0",
        "--sweep", spec,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("spec, message", [
    ("0.1:x:3", "sweep spec '0.1:x:3': 'x' is not a number"),
    ("0.1:1:2.5", "sweep spec '0.1:1:2.5': steps '2.5' is not an integer"),
])
def test_analyze_sweep_spec_errors_name_the_spec(capsys, spec, message):
    code, out, err = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "1.0",
        "--sweep", spec,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("alpha, message", [
    ("nan", "step size 'nan' must be finite and non-negative"),
    ("-1", "step size '-1' must be finite and non-negative"),
    ("0.1:0.2:3", "--alpha needs a constant step, got '0.1:0.2:3'"),
])
def test_analyze_rejects_a_bad_single_step(capsys, alpha, message):
    code, out, err = run_cli(
        capsys, "analyze", "--graph", "fig1", "--l", "1.0", "--s", "0.1",
        "--alpha", alpha,
    )
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("alpha", ["-0.05", "nan", "inf"])
def test_run_rejects_negative_or_non_finite_step(capsys, tmp_path, alpha):
    out_csv = tmp_path / "trace.csv"
    code, out, err = run_cli(
        capsys, "run", "--alg", "addopt", "--graph", "fig1",
        "--alpha", alpha, "--iters", "20", "--out", str(out_csv),
    )
    assert code == 2 and out == ""
    assert err == f"error: step size '{alpha}' must be finite and non-negative\n"
    assert not out_csv.exists()


def test_run_accepts_spaced_diminishing_rule(capsys, tmp_path):
    out_csv = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "run", "--alg", "gp", "--graph", "fig1",
        "--alpha", "1/ sqrt(k)", "--iters", "20", "--out", str(out_csv),
    )
    assert code == 0 and out_csv.exists()


def test_shipped_configs_run_and_reproduce(capsys, tmp_path, monkeypatch):
    configs = Path(__file__).resolve().parent.parent / "configs"
    studies = {
        "compare_fig1": ("compare", ["addopt", "dextra", "gradient_push", "summary"]),
        "stepsize_fig1": ("sweep", ["stepsize"]),
        "sparsity_chain": ("sparsity", ["sparsity"]),
    }
    outputs = []
    for run in ("first", "second"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        for name, (study, suffixes) in studies.items():
            code, _, err = run_cli(capsys, study, "--config", str(configs / f"{name}.ini"))
            assert code == 0, err
            assert sorted(p.name for p in Path("out").glob(f"{name}_*.csv")) == [
                f"{name}_{suffix}.csv" for suffix in suffixes
            ]
        outputs.append({p.name: p.read_bytes() for p in Path("out").glob("*.csv")})
    assert outputs[0] == outputs[1]
