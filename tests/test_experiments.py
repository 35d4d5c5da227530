"""Config parsing and the three experiment drivers."""

from __future__ import annotations

import csv
import dataclasses
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

from dirgraphopt import algorithms, analysis, cli, digraph, objectives
from dirgraphopt.experiments import (
    ConfigError,
    ExperimentConfig,
    _summarize,
    build_objectives,
    cmd_compare,
    cmd_sparsity_study,
    cmd_stepsize_study,
    load_config,
    parse_alpha,
    prepare,
    resolve_graph,
)


def make_config(tmp_path: Path, **overrides) -> ExperimentConfig:
    base = dict(
        graph=("builtin", "fig1"),
        algorithms=("addopt",),
        alpha=0.05,
        objective="quadratic",
        reg=1.0,
        seed=0,
        seeds=(),
        n_examples=10,
        dim=3,
        iters=200,
        stop_tol=0.0,
        theta=0.5,
        slack=None,
        out_dir=tmp_path,
        prefix="study",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

FULL_INI = """
[graph]
source = random
nodes = 8
extra_edges = 5
seed = 3

[objective]
kind = quadratic
reg = 0.5      # inline comment
seed = 11
examples = 4
dim = 2

[run]
algorithms = addopt, dextra
alpha = 0.07
iters = 321
stop_tol = 1e-8
theta = 0.4
slack = 0.02

[sparsity]
chain_extra = 0, 5, 10
seeds = 1, 2
strict_nesting = yes

[output]
dir = {out}
prefix = demo
"""


def test_load_config_full_roundtrip(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_INI.format(out=tmp_path / "results"))
    cfg = load_config(path)
    assert cfg.graph == ("random", 8, 5, 3)
    assert cfg.algorithms == ("addopt", "dextra")
    assert cfg.alpha == 0.07
    assert cfg.objective == "quadratic"
    assert cfg.reg == 0.5
    assert cfg.seed == 11
    assert cfg.n_examples == 4 and cfg.dim == 2
    assert cfg.iters == 321 and cfg.stop_tol == 1e-8 and cfg.theta == 0.4
    assert cfg.slack == 0.02
    assert cfg.seeds == (1, 2)
    assert cfg.chain_extra == (0, 5, 10)
    assert cfg.strict_nesting is True
    assert cfg.out_dir == tmp_path / "results"
    assert cfg.prefix == "demo"
    assert cfg.sweep is None


def test_load_config_defaults(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text("[run]\nalpha = 0.1\n")
    cfg = load_config(path)
    assert cfg.graph == ("builtin", "fig1")
    assert cfg.algorithms == ("addopt",)
    assert cfg.objective == "logistic"
    assert cfg.reg == 1.0 and cfg.seed == 0
    assert cfg.iters == 500 and cfg.stop_tol == 0.0 and cfg.theta == 0.5
    assert cfg.slack is None  # "auto"
    assert cfg.out_dir == Path(".") and cfg.prefix == "study"
    assert cfg.seeds == () and cfg.chain_extra == ()
    assert cfg.strict_nesting is False and cfg.graph_files == ()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_load_config_bad_algorithm(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nalgorithms = addopt, sgd\n")
    with pytest.raises(ConfigError, match="unknown algorithm"):
        load_config(path)


def test_load_config_duplicate_algorithms(tmp_path):
    path = tmp_path / "dup.ini"
    path.write_text("[run]\nalgorithms = addopt, addopt\n")
    with pytest.raises(ConfigError, match="duplicates"):
        load_config(path)


def test_config_rejects_a_negative_iteration_count(tmp_path):
    with pytest.raises(ConfigError, match="non-negative, got -1"):
        make_config(tmp_path, iters=-1)
    assert make_config(tmp_path, iters=0).iters == 0


def test_load_config_alpha_forms(tmp_path):
    for text, expected in (
        ("0.25", 0.25),
        ("1/sqrt(k)", "1/sqrt(k)"),
        ("0.1:0.5:5", ("sweep", 0.1, 0.5, 5)),
    ):
        path = tmp_path / "a.ini"
        path.write_text(f"[run]\nalpha = {text}\n")
        assert load_config(path).alpha == expected
    sweep_cfg = load_config(path)
    assert sweep_cfg.sweep == (0.1, 0.5, 5)


def test_load_config_alpha_errors(tmp_path):
    for text, msg in (
        ("huge", "cannot parse"),
        ("0.1:0.5", "lo:hi:steps"),
        ("0.5:0.1:5", "empty or inverted"),
        ("0:0.5:5", "empty or inverted"),
    ):
        path = tmp_path / "a.ini"
        path.write_text(f"[run]\nalpha = {text}\n")
        with pytest.raises(ConfigError, match=msg):
            load_config(path)


@pytest.mark.parametrize("spec, message", [
    ("0.1:x:3", "sweep spec '0.1:x:3': 'x' is not a number"),
    ("lo:1:3", "sweep spec 'lo:1:3': 'lo' is not a number"),
    ("0.1:inf:3", "sweep spec '0.1:inf:3': 'inf' is not finite"),
    ("0.1:1:2.5", "sweep spec '0.1:1:2.5': steps '2.5' is not an integer"),
    ("0.1:1:", "sweep spec '0.1:1:': steps '' is not an integer"),
    ("-0.05", "step size '-0.05' must be finite and non-negative"),
    ("nan", "step size 'nan' must be finite and non-negative"),
    ("inf", "step size 'inf' must be finite and non-negative"),
])
def test_parse_alpha_errors_name_the_spec(tmp_path, spec, message):
    with pytest.raises(ConfigError) as info:
        parse_alpha(spec)
    assert str(info.value) == message
    path = tmp_path / "a.ini"
    path.write_text(f"[run]\nalpha = {spec}\n")
    with pytest.raises(ConfigError, match="must be finite|not a number|not finite|not an integer"):
        load_config(path)


def test_parse_alpha_keeps_a_zero_step():
    assert parse_alpha("0") == 0.0
    assert parse_alpha(" 0.0 ") == 0.0


def test_load_config_graph_file_checked(tmp_path):
    g_path = tmp_path / "g.txt"
    digraph.save_graph(digraph.ring_digraph(4), g_path)
    path = tmp_path / "c.ini"
    path.write_text(f"[graph]\nsource = file:{g_path}\n[run]\nalpha = 0.1\n")
    cfg = load_config(path)
    assert cfg.graph == ("file", str(g_path))
    assert resolve_graph(cfg) == digraph.ring_digraph(4)

    path.write_text(f"[graph]\nsource = file:{tmp_path / 'missing.txt'}\n")
    with pytest.raises(ConfigError, match="graph file not found"):
        load_config(path)


def test_load_config_numeric_slack(tmp_path):
    path = tmp_path / "c.ini"
    path.write_text("[run]\nslack = 0.05\n")
    assert load_config(path).slack == 0.05


def test_load_config_sparsity_graph_files(tmp_path):
    g1, g2 = tmp_path / "a.txt", tmp_path / "b.txt"
    digraph.save_graph(digraph.ring_digraph(4), g1)
    digraph.save_graph(digraph.complete_digraph(4), g2)
    path = tmp_path / "c.ini"
    path.write_text(f"[sparsity]\ngraphs = {g1}, {g2}\n[run]\nalpha = 0.1\n")
    assert load_config(path).graph_files == (str(g1), str(g2))

    path.write_text(f"[sparsity]\ngraphs = {tmp_path / 'no.txt'}\n")
    with pytest.raises(ConfigError, match="graph file not found"):
        load_config(path)


def test_resolve_graph_variants(tmp_path):
    assert resolve_graph(make_config(tmp_path)).n == 10
    rnd = make_config(tmp_path, graph=("random", 6, 4, 2))
    g = resolve_graph(rnd)
    assert g == digraph.random_digraph(6, 4, 2)


def test_build_objectives_variants(tmp_path):
    logi = make_config(tmp_path, objective="logistic", n_examples=4, dim=2)
    objs = build_objectives(logi, 5)
    assert len(objs) == 5 and objs[0].dim == 2
    quad = make_config(tmp_path, objective="quadratic", dim=3)
    qobjs = build_objectives(quad, 4)
    assert len(qobjs) == 4 and qobjs[0].lipschitz == 1.0
    # a seed override changes the data
    other = build_objectives(quad, 4, seed=1)
    assert not np.allclose(qobjs[0].center, other[0].center)


# ---------------------------------------------------------------------------
# comparison driver
# ---------------------------------------------------------------------------


def test_compare_rejects_sweep(tmp_path):
    cfg = make_config(tmp_path, alpha=("sweep", 0.1, 0.5, 5))
    with pytest.raises(ConfigError, match="single step size"):
        cmd_compare(cfg)


def test_compare_zero_iterations_keeps_initial_residual(tmp_path):
    cfg = make_config(tmp_path, iters=0)
    summary = cmd_compare(cfg)["addopt"]
    assert summary.iterations == 0
    assert summary.final_residual == 1.0
    assert np.isnan(summary.slope)
    rows = read_csv(tmp_path / "study_summary.csv")
    assert rows[0] == [
        "algorithm", "alpha", "iterations", "final_residual", "slope", "r2",
        "diverged",
    ]
    assert len(rows) == 2 and rows[1][3] == "1.0"


def test_compare_writes_trace_per_algorithm(tmp_path):
    cfg = make_config(
        tmp_path, algorithms=("addopt", "dextra", "gp"), alpha=0.2, iters=300,
    )
    summaries = cmd_compare(cfg)
    for name in ("addopt", "dextra", "gradient_push"):
        assert (tmp_path / f"study_{name}.csv").exists()
        assert name in summaries
    assert not any(s.diverged for s in summaries.values())
    # tracked engines converge linearly; the baseline trails far behind
    assert summaries["addopt"].final_residual < 1e-8
    assert summaries["dextra"].final_residual < 1e-6
    assert summaries["gradient_push"].final_residual > 1e-3


def test_compare_flags_a_lane_that_ends_above_residual_one_as_diverged(tmp_path):
    # gradient-push drifts from z* on this one-dimensional quadratic, too
    # slowly to trip the overflow guard; run exits 1 on such a lane
    cfg = make_config(tmp_path, algorithms=("gp",), dim=1, seed=2, alpha=0.2, iters=500)
    summary = cmd_compare(cfg)["gradient_push"]
    assert summary.final_residual > 1.0 and summary.diverged
    assert summary.iterations == 500
    assert read_csv(tmp_path / "study_summary.csv")[1][-1] == "1"


def test_compare_baseline_always_uses_diminishing_steps(tmp_path):
    cfg = make_config(tmp_path, algorithms=("gp",), alpha=0.3, iters=5)
    assert cmd_compare(cfg)["gradient_push"].alpha_label == "1/sqrt(k)"


def test_compare_flags_divergence_and_truncates_trace(tmp_path):
    cfg = make_config(tmp_path, alpha=50.0, iters=3000)
    summary = cmd_compare(cfg)["addopt"]
    assert summary.diverged
    rows = read_csv(tmp_path / "study_summary.csv")
    assert rows[1][-1] == "1"
    # the written trace stops just before the overflow guard tripped
    trace_rows = read_csv(tmp_path / "study_addopt.csv")
    assert len(trace_rows) - 2 == summary.iterations
    assert all(np.isfinite(float(r[1])) for r in trace_rows[1:])


def test_compare_is_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cmd_compare(make_config(out, iters=50, objective="logistic"))
    for name in ("study_addopt.csv", "study_summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# ---------------------------------------------------------------------------
# step-size study driver
# ---------------------------------------------------------------------------


def stepsize_config(tmp_path, **overrides):
    base = dict(
        alpha=("sweep", 0.001, 0.004, 6),
        objective="logistic",
        n_examples=2,
        dim=2,
        iters=100,
    )
    base.update(overrides)
    return make_config(tmp_path, **base)


def test_stepsize_study_requires_sweep(tmp_path):
    with pytest.raises(ConfigError, match="lo:hi:steps"):
        cmd_stepsize_study(make_config(tmp_path, alpha=0.1))


def test_stepsize_study_table_and_csv(tmp_path):
    cfg = stepsize_config(tmp_path)
    alpha_bar, table = cmd_stepsize_study(cfg)
    assert alpha_bar > 0
    alphas = [row.alpha for row in table]
    assert alphas == sorted(alphas) and len(alphas) == 6
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    rows = read_csv(tmp_path / "study_stepsize.csv")
    assert rows[0] == ["alpha", "rho", "converged", "residual_100"]
    assert len(rows) == 7
    for row in rows[1:]:
        float(row[0]), float(row[1]), float(row[3])
        assert row[2] in ("0", "1")


def test_stepsize_study_flags_divergent_grid_points(tmp_path):
    # push the grid across the practical stability edge
    cfg = make_config(
        tmp_path, alpha=("sweep", 0.1, 1.0, 10), objective="logistic",
        n_examples=2, dim=2, seed=7, iters=200,
    )
    _, table = cmd_stepsize_study(cfg)
    flags = [row.converged for row in table]
    assert flags[0] and not all(flags)
    # once diverged, the recorded residual is infinite
    for row in table:
        if not row.converged:
            assert not np.isfinite(row.residual) or row.residual >= 1.0


def test_prepare_rejects_objectives_that_miss_agents_before_solving(monkeypatch):
    solves = []
    solve = objectives.centralized_solve

    def counting(objs):
        solves.append(objs)
        return solve(objs)

    monkeypatch.setattr(objectives, "centralized_solve", counting)
    objs = objectives.logistic_objective(objectives.generate_dataset(4, 10, 3, seed=0))
    with pytest.raises(ValueError, match="cover 4 agents but the graph has 10 nodes"):
        prepare(digraph.builtin_graph("fig1"), objs)
    assert solves == []


def test_each_study_stacks_its_problem_once(tmp_path, monkeypatch):
    # the reference solve and every lane share the one stacked problem that
    # experiments.prepare builds for the (graph, seed) pair
    stacks = []
    stack_logistic = objectives._stack_logistic

    def counting(agents):
        stacks.append(len(agents))
        return stack_logistic(agents)

    monkeypatch.setattr(objectives, "_stack_logistic", counting)
    configs = Path(__file__).resolve().parent.parent / "configs"
    sweep = dataclasses.replace(load_config(configs / "stepsize_fig1.ini"), out_dir=tmp_path)
    assert len(cmd_stepsize_study(sweep)[1]) == 10
    assert stacks == [10]
    stacks.clear()
    cmd_compare(make_config(
        tmp_path, algorithms=("addopt", "dextra", "gp"), objective="logistic", iters=50
    ))
    assert stacks == [10]


def test_each_command_solves_pi_once_per_weight_matrix(tmp_path, monkeypatch, capsys):
    # the weights own their stationary vector: the recorder, the certificate
    # and the push-sum extremes all read ``weights.pi``, solved on first read
    solves = []
    perron_limit = digraph.perron_limit

    def counting(w):
        solves.append(w.n)
        return perron_limit(w)

    monkeypatch.setattr(digraph, "perron_limit", counting)
    configs = Path(__file__).resolve().parent.parent / "configs"
    sweep = dataclasses.replace(load_config(configs / "stepsize_fig1.ini"), out_dir=tmp_path)
    cmd_stepsize_study(sweep)
    assert solves == [10]
    solves.clear()
    assert cli.main(["analyze", "--graph", "fig1", "--l", "1.43", "--s", "0.1"]) == 0
    assert solves == [10]
    solves.clear()
    cmd_compare(make_config(tmp_path, algorithms=("addopt", "dextra", "gp"), iters=20))
    assert solves == [10]
    solves.clear()
    inst = prepare(digraph.builtin_graph("fig1"), build_objectives(sweep, 10))
    assert solves == []
    assert [f.name for f in dataclasses.fields(algorithms.Instance)] == [
        "weights", "problem", "optimum"
    ]
    assert "perron_limit" not in inspect.getsource(analysis)
    assert not inst.weights.pi.flags.writeable
    assert solves == [10]


# ---------------------------------------------------------------------------
# sparsity study driver
# ---------------------------------------------------------------------------


def test_sparsity_study_builds_each_graphs_weights_once(tmp_path, monkeypatch):
    # the weights depend on the graph only, so the five data seeds of each of
    # the three chain graphs share one weight matrix and one pi solve
    calls = {"uniform_weights": 0, "perron_limit": 0}
    for name in calls:
        original = getattr(digraph, name)

        def counting(w, name=name, original=original):
            calls[name] += 1
            return original(w)

        monkeypatch.setattr(digraph, name, counting)
    configs = Path(__file__).resolve().parent.parent / "configs"
    cfg = dataclasses.replace(load_config(configs / "sparsity_chain.ini"), out_dir=tmp_path)
    assert len(cmd_sparsity_study(cfg)) == 15
    assert calls == {"uniform_weights": 3, "perron_limit": 3}


def test_sparsity_study_requires_constant_alpha(tmp_path):
    with pytest.raises(ConfigError, match="constant step size"):
        cmd_sparsity_study(make_config(tmp_path, alpha=("sweep", 0.1, 0.5, 3)))
    with pytest.raises(ConfigError, match="constant step size"):
        cmd_sparsity_study(make_config(tmp_path, alpha="1/sqrt(k)"))


def test_sparsity_identical_graphs_identical_slopes(tmp_path):
    g_path = tmp_path / "ring.txt"
    digraph.save_graph(digraph.ring_digraph(4), g_path)
    cfg = make_config(
        tmp_path, alpha=0.05, dim=2, iters=1500,
        graph_files=(str(g_path), str(g_path)),
    )
    a, b = cmd_sparsity_study(cfg)
    assert a.slope == pytest.approx(b.slope, abs=1e-12)
    assert a.edge_count == b.edge_count == 4


def test_sparsity_strict_nesting_rejects_disjoint_chains(tmp_path):
    fwd, rev = tmp_path / "fwd.txt", tmp_path / "rev.txt"
    digraph.save_graph(digraph.ring_digraph(4), fwd)
    digraph.save_graph(
        digraph.Digraph(4, [((v + 1) % 4, v) for v in range(4)]), rev
    )
    cfg = make_config(
        tmp_path, alpha=0.05, dim=2, iters=1500,
        graph_files=(str(fwd), str(rev)), strict_nesting=True,
    )
    with pytest.raises(ConfigError, match="not nested"):
        cmd_sparsity_study(cfg)
    relaxed = make_config(
        tmp_path, alpha=0.05, dim=2, iters=1500,
        graph_files=(str(fwd), str(rev)), strict_nesting=False,
    )
    assert [row.label for row in cmd_sparsity_study(relaxed)] == ["fwd.txt", "rev.txt"]


def test_sparsity_chain_takes_node_count_from_graph_file(tmp_path):
    g_path = tmp_path / "g20.txt"
    digraph.save_graph(digraph.ring_digraph(20), g_path)
    cfg = make_config(
        tmp_path, graph=("file", str(g_path)), alpha=0.1, dim=2, iters=300,
        chain_extra=(60, 120),
    )
    rows = cmd_sparsity_study(cfg)
    # a 20-node cycle plus the extra edges, not a 10-node chain
    assert [row.edge_count for row in rows] == [80, 140]


def test_sparsity_complete_graph_is_weakly_fastest(tmp_path):
    cfg = make_config(
        tmp_path, graph=("random", 6, 0, 0), alpha=0.03, dim=3, iters=1500,
        seeds=(0, 1, 2), chain_extra=(0, 12, 24), strict_nesting=True,
    )
    rows = cmd_sparsity_study(cfg)
    assert len(rows) == 9
    means = {}
    for row in rows:
        means.setdefault(row.label, []).append(row.slope)
    mean = {label: np.mean(v) for label, v in means.items()}
    # chain2 is the complete digraph: at least as fast as every sparser stage
    # up to the study's 5% tolerance
    for label in ("chain0", "chain1"):
        assert mean["chain2"] <= mean[label] + 0.05 * abs(mean[label])
    rows = read_csv(tmp_path / "study_sparsity.csv")
    assert rows[0] == ["graph", "edges", "seed", "slope"]
    assert len(rows) == 10


def test_sparsity_fit_window_miss_names_the_run(tmp_path):
    # at this step the residual stays above 1e-1 for the whole budget
    cfg = make_config(tmp_path, alpha=0.0005, iters=300, seeds=(0, 1))
    with pytest.raises(ConfigError) as info:
        cmd_sparsity_study(cfg)
    message = str(info.value)
    for part in ("chain0 seed 0", "(1e-12, 1e-1]", "300 iterations"):
        assert part in message
    assert not (tmp_path / "study_sparsity.csv").exists()


# ---------------------------------------------------------------------------
# engine names
# ---------------------------------------------------------------------------


def test_config_engine_names_are_canonical(tmp_path):
    assert make_config(tmp_path, algorithms=("gp", "addopt")).algorithms == (
        "gradient_push", "addopt",
    )
    with pytest.raises(ConfigError, match="unknown algorithm 'sgd'"):
        make_config(tmp_path, algorithms=("addopt", "sgd"))
    with pytest.raises(ConfigError, match="duplicates"):
        make_config(tmp_path, algorithms=("gradient_push", "gp"))
    path = tmp_path / "alias.ini"
    path.write_text("[run]\nalgorithms = gp, gradient_push\n")
    with pytest.raises(ConfigError, match="duplicates"):
        load_config(path)


# ---------------------------------------------------------------------------
# config keys and values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text, message", [
    ("[run]\niter = 20\n", "unknown key run.iter"),
    ("[objective]\nalgorithms = dextra\n", "unknown key objective.algorithms"),
    ("[runs]\niters = 20\n", r"unknown section \[runs\]"),
    ("[DEFAULT]\nseed = 3\n", r"unknown section \[DEFAULT\]"),
    ("[run]\nseeds = 1, 2\n", "unknown key run.seeds"),
])
def test_load_config_rejects_unknown_sections_and_keys(tmp_path, text, message):
    path = tmp_path / "typo.ini"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


@pytest.mark.parametrize("text, message", [
    ("[objective]\nexamples = x\n", "objective.examples: invalid literal for int()"),
    ("[objective]\nreg = heavy\n", "objective.reg: could not convert"),
    ("[graph]\nsource = random\nnodes = ten\n", "graph.nodes: invalid literal"),
    ("[run]\niters = 1e3\n", "run.iters: invalid literal"),
    ("[run]\nslack = tight\n", "run.slack: could not convert"),
    ("[run]\nalpha = fast\n", "run.alpha: cannot parse step size 'fast'"),
    ("[run]\nalgorithms =\n", "run.algorithms: the algorithm list is empty"),
    ("[run]\nalgorithms = , \n", "run.algorithms: the algorithm list is empty"),
    ("[graph]\nsource = fig1\nnodes = 50\n",
     "graph.nodes: only read when source = random, got source = fig1"),
    ("[graph]\nextra_edges = 5\n", "graph.extra_edges: only read when source = random"),
    ("[graph]\nsource = fig1\nseed = 3\n", "graph.seed: only read when source = random"),
    ("[sparsity]\nseeds = 1, two\n", "sparsity.seeds: invalid literal"),
    ("[sparsity]\nstrict_nesting = maybe\n",
     "sparsity.strict_nesting: expected true or false, got 'maybe'"),
])
def test_load_config_malformed_value_names_its_key(tmp_path, text, message):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value).startswith(message)


def test_shipped_configs_use_only_known_keys():
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini")):
        load_config(path)


@pytest.mark.parametrize("algs", [("dextra",), ("addopt", "gp")])
def test_stepsize_study_runs_addopt_only(tmp_path, algs):
    cfg = make_config(tmp_path, alpha=("sweep", 0.1, 0.2, 3), algorithms=algs)
    with pytest.raises(ConfigError, match="the stepsize study runs addopt only"):
        cmd_stepsize_study(cfg)
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("algs", [("dextra",), ("addopt", "gp")])
def test_sparsity_study_runs_addopt_only(tmp_path, algs):
    cfg = make_config(tmp_path, alpha=0.05, algorithms=algs)
    with pytest.raises(ConfigError, match="the sparsity study runs addopt only"):
        cmd_sparsity_study(cfg)
    assert not list(tmp_path.glob("*.csv"))


def test_config_rejects_a_stop_tolerance_outside_zero_to_infinity(tmp_path):
    for stop_tol in (float("nan"), -1.0, float("inf")):
        with pytest.raises(ConfigError, match="run.stop_tol must be finite"):
            make_config(tmp_path, stop_tol=stop_tol)


@pytest.mark.parametrize("head", [[1.0, 1.0], [0.5, 0.5, 0.5]])
def test_summary_reports_no_fit_from_too_few_or_equal_residuals(head):
    # the residual leaves the fit window (1e-12, 1] after a flat start
    residual = np.array(head + [2.0, 6.0])
    trace = algorithms.Trace(
        algorithm="gradient_push", alpha_label="1/sqrt(k)", ks=np.arange(len(residual)),
        residual=residual, consensus_err=np.zeros(len(residual)),
        tracking_err=np.full(len(residual), np.nan), gap=np.zeros(len(residual)),
    )
    summary = _summarize(trace)
    assert math.isnan(summary.slope) and math.isnan(summary.r2)
    assert summary.final_residual == 6.0 and not summary.diverged
