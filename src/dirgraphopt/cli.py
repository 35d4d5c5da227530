"""Command-line front end.

Subcommands::

    dirgraphopt graph check FILE          validate a graph file
    dirgraphopt graph spectrum FILE       mixing-matrix constants
    dirgraphopt data gen ...              synthetic dataset CSV
    dirgraphopt data solve ...            centralized reference solve
    dirgraphopt run ...                   single algorithm run -> trace CSV
    dirgraphopt analyze ...               step-size ceiling and rho(G) table
    dirgraphopt compare --config FILE     multi-algorithm comparison
    dirgraphopt sweep --config FILE       step-size study
    dirgraphopt sparsity --config FILE    graph-density study

Exit status is 0 only when every requested run completed without
divergence; a diverged run exits 1, and so does a ``run`` or ``compare``
lane whose final residual is above 1 (it ended farther from ``z*`` than it
started, after writing its trace; ``compare`` marks the lane ``diverged``)
and a command whose reference solve did not converge (with an ``error:``
line, before any output but ``data solve``'s result lines); config and
usage errors exit 2.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import algorithms, analysis, digraph, experiments, objectives

__all__ = ["main", "build_parser"]


def _load_graph_arg(spec: str) -> digraph.Digraph:
    """A graph argument is either a file path or a builtin name."""
    from pathlib import Path

    if Path(spec).exists():
        return digraph.load_graph(spec)
    return digraph.builtin_graph(spec)


def _cmd_graph(args) -> int:
    g = _load_graph_arg(args.graph)
    if args.action == "check":
        sc = digraph.is_strongly_connected(g)
        print(f"nodes = {g.n}")
        print(f"edges = {g.edge_count}")
        print(f"strongly_connected = {sc}")
        return 0 if sc else 1
    w = digraph.uniform_weights(g)
    spec = digraph.spectral_data(w, args.slack)
    print(f"tau = {spec.tau!r}")
    print(f"eps = {spec.eps!r}")
    print(f"sigma = {spec.sigma!r}")
    print("pi = " + ",".join(repr(float(v)) for v in spec.pi))
    return 0


def _cmd_data(args) -> int:
    if args.action == "gen":
        data = objectives.generate_dataset(
            args.n, args.m, args.p, args.seed, reg=args.reg
        )
        objectives.save_dataset_csv(data, args.out)
        print(f"wrote {args.out}")
        return 0
    if args.data is None:
        raise experiments.ConfigError("data solve needs --data FILE")
    data = objectives.load_dataset_csv(args.data, reg=args.reg)
    objs = objectives.logistic_objective(data)
    opt = objectives.centralized_solve(objs)
    print("z_star = " + ",".join(repr(float(v)) for v in opt.z_star))
    print(f"f_star = {opt.f_star!r}")
    print(f"residual_norm = {opt.residual_norm!r}")
    print(f"converged = {opt.converged}")
    if not opt.converged:
        raise objectives.UnconvergedSolveError(opt)
    return 0


def _cmd_run(args) -> int:
    g = _load_graph_arg(args.graph)
    if args.data:
        data = objectives.load_dataset_csv(args.data, reg=args.reg)
    else:
        data = objectives.generate_dataset(g.n, args.m, args.p, args.seed, reg=args.reg)
    objs = objectives.logistic_objective(data)
    alpha = experiments.parse_alpha(args.alpha)
    if isinstance(alpha, tuple):
        raise experiments.ConfigError("run needs a single step size, not a sweep")
    inst = experiments.prepare(g, objs)
    z0 = None if args.z0 is None else np.full((g.n, data.dim), args.z0)
    trace = algorithms.run(
        args.alg, inst, alpha, args.iters, args.stop_tol, theta=args.theta, z0=z0
    )
    algorithms.write_trace_csv(trace, args.out)
    print(f"wrote {args.out} ({trace.records} records, final residual "
          f"{trace.final_residual:.3e})")
    if trace.final_residual > 1.0:
        print(f"error: final residual {trace.final_residual:.3e} is above 1: the "
              "run ended farther from z* than it started", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    sweep = experiments.parse_alpha(args.sweep) if args.sweep else None
    if sweep is not None and not isinstance(sweep, tuple):
        raise experiments.ConfigError(f"--sweep needs lo:hi:steps, got {args.sweep!r}")
    alpha = experiments.parse_alpha(args.alpha) if args.alpha is not None else None
    if alpha is not None and not isinstance(alpha, float):
        raise experiments.ConfigError(f"--alpha needs a constant step, got {args.alpha!r}")
    w = digraph.uniform_weights(_load_graph_arg(args.graph))
    profile = analysis.build_profile(w, args.l, args.s, args.slack)
    bound = analysis.alpha_upper_bound(profile)
    print(f"# alpha_bar = {bound!r}")
    if sweep:
        grid = np.linspace(*sweep[1:])
    elif alpha is not None:
        grid = [alpha]
    else:
        grid = np.linspace(bound / 20.0, bound, 20)
    print("alpha,rho")
    for a in grid:
        rho = analysis.spectral_radius(analysis.build_G(profile, float(a)))
        print(f"{float(a)!r},{rho!r}")
    return 0


def _cmd_study(args) -> int:
    cfg = experiments.load_config(args.config)
    if args.study == "compare":
        summaries = experiments.cmd_compare(cfg)
        for name, s in summaries.items():
            print(
                f"{name}: iters={s.iterations} final={s.final_residual:.3e} "
                f"slope={s.slope:.4f} diverged={s.diverged}"
            )
        return 1 if any(s.diverged for s in summaries.values()) else 0
    if args.study == "sweep":
        alpha_bar, rows = experiments.cmd_stepsize_study(cfg)
        print(f"alpha_bar = {alpha_bar!r}")
        best_rho = min(rows, key=lambda r: r.rho)
        print(f"argmin rho: alpha={best_rho.alpha!r} rho={best_rho.rho!r}")
        converged = [r for r in rows if r.converged]
        if converged:
            best_run = min(converged, key=lambda r: r.residual)
            print(f"argmin residual: alpha={best_run.alpha!r} "
                  f"residual={best_run.residual!r}")
        else:
            print("argmin residual: no grid point converged")
        print(f"rows = {len(rows)}")
        return 0
    for row in experiments.cmd_sparsity_study(cfg):
        print(f"{row.label} edges={row.edge_count} seed={row.seed} slope={row.slope:.5f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirgraphopt",
        description="decentralized optimization over directed graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_graph = sub.add_parser("graph", help="inspect a graph file or builtin")
    p_graph.add_argument("action", choices=("check", "spectrum"))
    p_graph.add_argument("graph", help="graph file path or builtin name")
    p_graph.add_argument("--slack", type=float, default=None)
    p_graph.set_defaults(fn=_cmd_graph)

    p_data = sub.add_parser("data", help="generate or solve a dataset")
    p_data.add_argument("action", choices=("gen", "solve"))
    p_data.add_argument("--n", type=int, default=10, help="agents")
    p_data.add_argument("--m", type=int, default=10, help="examples per agent")
    p_data.add_argument("--p", type=int, default=3, help="feature dimension")
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--reg", type=float, default=1.0)
    p_data.add_argument("--out", default="dataset.csv")
    p_data.add_argument("--data", help="dataset CSV (for solve)")
    p_data.set_defaults(fn=_cmd_data)

    p_run = sub.add_parser("run", help="run one algorithm, write a trace CSV")
    p_run.add_argument("--alg", required=True, choices=sorted(algorithms.ALGORITHMS))
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--alpha", required=True,
                       help="constant step size, or 1/sqrt(k) for gp")
    p_run.add_argument("--iters", type=int, default=500)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--stop-tol", type=float, default=0.0)
    p_run.add_argument("--theta", type=float, default=0.5)
    p_run.add_argument("--reg", type=float, default=1.0)
    p_run.add_argument("--m", type=int, default=10)
    p_run.add_argument("--p", type=int, default=3)
    p_run.add_argument("--data", help="dataset CSV instead of generated data")
    p_run.add_argument("--z0", type=float, default=None,
                       help="constant fill for the start state (default zeros)")
    p_run.add_argument("--out", default="trace.csv")
    p_run.set_defaults(fn=_cmd_run)

    p_an = sub.add_parser("analyze", help="step-size ceiling and rho(G) table")
    p_an.add_argument("--graph", required=True)
    p_an.add_argument("--l", type=float, required=True)
    p_an.add_argument("--s", type=float, required=True)
    p_an.add_argument("--alpha", default=None, help="constant step size")
    p_an.add_argument("--sweep", help="lo:hi:steps")
    p_an.add_argument("--slack", type=float, default=None)
    p_an.set_defaults(fn=_cmd_analyze)

    for study in ("compare", "sweep", "sparsity"):
        p = sub.add_parser(study, help=f"{study} study from a config file")
        p.add_argument("--config", required=True)
        p.set_defaults(fn=_cmd_study, study=study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (algorithms.DivergenceError, objectives.UnconvergedSolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (experiments.ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
