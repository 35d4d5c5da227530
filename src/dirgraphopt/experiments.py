"""Config-driven experiment drivers: algorithm comparison, step-size study,
sparsity study.

Configs are flat key-value text files with INI-style sections (parsed by
:mod:`configparser`).  Outputs are plain CSV files; every driver is
deterministic, so re-running a config reproduces its outputs byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import algorithms, analysis, digraph, objectives

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceSummary",
    "StepsizeRow",
    "SparsityRow",
    "ComparisonReport",
    "load_config",
    "parse_alpha",
    "cmd_compare",
    "cmd_stepsize_study",
    "cmd_sparsity_study",
]

class ConfigError(ValueError):
    """A config file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description.

    ``graph`` is one of ``("builtin", name)``, ``("file", path)`` or
    ``("random", n, extra_edges, seed)``; ``alpha`` is a constant, the
    string ``"1/sqrt(k)"``, or ``("sweep", lo, hi, steps)``.  ``algorithms``
    holds canonical engine names: construction resolves aliases and rejects
    unknown or repeated engines.
    """

    graph: tuple
    algorithms: tuple[str, ...]
    alpha: object
    objective: str
    reg: float
    seed: int
    seeds: tuple[int, ...]
    n_examples: int
    dim: int
    iters: int
    stop_tol: float
    theta: float
    slack: float | None
    out_dir: Path
    prefix: str
    chain_extra: tuple[int, ...] = ()
    strict_nesting: bool = False
    graph_files: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = tuple(algorithms._ALIASES.get(a, a) for a in self.algorithms)
        for a, name in zip(self.algorithms, names):
            if name not in algorithms._ENGINES:
                raise ConfigError(f"unknown algorithm {a!r}")
        if len(set(names)) != len(names):
            raise ConfigError(f"algorithm list has duplicates: {self.algorithms}")
        if self.iters < 0:
            raise ConfigError(f"iters must be non-negative, got {self.iters}")
        object.__setattr__(self, "algorithms", names)

    @property
    def sweep(self) -> tuple[float, float, int] | None:
        if isinstance(self.alpha, tuple) and self.alpha[0] == "sweep":
            return self.alpha[1:]
        return None


def _spec_number(part: str, spec: str) -> float:
    try:
        value = float(part)
    except ValueError:
        raise ConfigError(f"sweep spec {spec!r}: {part!r} is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"sweep spec {spec!r}: {part!r} is not finite")
    return value


def parse_alpha(text: str):
    """Parse a step-size spec: a constant, ``1/sqrt(k)`` or ``lo:hi:steps``.

    A constant must be finite and non-negative (zero runs pure consensus);
    a sweep needs finite ``0 < lo <= hi`` and an integer ``steps >= 1``.
    Anything else raises :class:`ConfigError` naming the spec.
    """
    text = text.strip()
    if text.replace(" ", "") == "1/sqrt(k)":
        return "1/sqrt(k)"
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"sweep spec must be lo:hi:steps, got {text!r}")
        lo, hi = _spec_number(parts[0], text), _spec_number(parts[1], text)
        try:
            steps = int(parts[2])
        except ValueError:
            raise ConfigError(
                f"sweep spec {text!r}: steps {parts[2]!r} is not an integer"
            ) from None
        if steps < 1 or not 0 < lo <= hi:
            raise ConfigError(f"sweep range {text!r} is empty or inverted")
        return ("sweep", lo, hi, steps)
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"cannot parse step size {text!r}") from None
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"step size {text!r} must be finite and non-negative")
    return value


def _parse_graph(section) -> tuple:
    source = section.get("source", "fig1").strip()
    if source == "random":
        return (
            "random",
            section.getint("nodes", 10),
            section.getint("extra_edges", 10),
            section.getint("seed", 0),
        )
    if source.startswith("file:"):
        return ("file", source[len("file:"):].strip())
    return ("builtin", source)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    graph_sec = parser["graph"] if parser.has_section("graph") else {}
    obj_sec = parser["objective"] if parser.has_section("objective") else {}
    run_sec = parser["run"] if parser.has_section("run") else {}
    out_sec = parser["output"] if parser.has_section("output") else {}
    sparsity_sec = parser["sparsity"] if parser.has_section("sparsity") else {}

    graph = _parse_graph(graph_sec)
    if graph[0] == "file" and not Path(graph[1]).exists():
        raise ConfigError(f"graph file not found: {graph[1]}")

    objective = str(obj_sec.get("kind", "logistic")).strip()
    if objective not in ("logistic", "quadratic"):
        raise ConfigError(f"objective kind must be logistic or quadratic, got {objective!r}")

    algs = tuple(
        a.strip() for a in str(run_sec.get("algorithms", "addopt")).split(",") if a.strip()
    )

    seeds_text = str(sparsity_sec.get("seeds", run_sec.get("seeds", ""))).strip()
    seeds = tuple(int(v) for v in seeds_text.split(",") if v.strip()) if seeds_text else ()

    chain_text = str(sparsity_sec.get("chain_extra", "")).strip()
    chain = tuple(int(v) for v in chain_text.split(",") if v.strip()) if chain_text else ()

    files_text = str(sparsity_sec.get("graphs", "")).strip()
    graph_files = tuple(v.strip() for v in files_text.split(",") if v.strip())
    for f in graph_files:
        if not Path(f).exists():
            raise ConfigError(f"graph file not found: {f}")

    return ExperimentConfig(
        graph=graph,
        algorithms=algs,
        alpha=parse_alpha(str(run_sec.get("alpha", "0.1"))),
        objective=objective,
        reg=float(obj_sec.get("reg", 1.0)),
        seed=int(obj_sec.get("seed", 0)),
        seeds=seeds,
        n_examples=int(obj_sec.get("examples", 10)),
        dim=int(obj_sec.get("dim", 3)),
        iters=int(run_sec.get("iters", 500)),
        stop_tol=float(run_sec.get("stop_tol", 0.0)),
        theta=float(run_sec.get("theta", 0.5)),
        slack=(
            None
            if str(run_sec.get("slack", "auto")).strip() == "auto"
            else float(run_sec.get("slack"))
        ),
        out_dir=Path(out_sec.get("dir", ".")),
        prefix=str(out_sec.get("prefix", "study")),
        chain_extra=chain,
        strict_nesting=str(sparsity_sec.get("strict_nesting", "false")).lower()
        in ("1", "true", "yes"),
        graph_files=graph_files,
    )


def resolve_graph(cfg: ExperimentConfig) -> digraph.Digraph:
    kind = cfg.graph[0]
    if kind == "builtin":
        return digraph.builtin_graph(cfg.graph[1])
    if kind == "file":
        return digraph.load_graph(cfg.graph[1])
    _, n, extra, seed = cfg.graph
    return digraph.random_digraph(n, extra, seed)


def build_objectives(cfg: ExperimentConfig, n: int, seed: int | None = None):
    """Instantiate the per-agent objectives described by ``cfg`` for ``n`` agents."""
    seed = cfg.seed if seed is None else seed
    if cfg.objective == "logistic":
        data = objectives.generate_dataset(
            n, cfg.n_examples, cfg.dim, seed, reg=cfg.reg
        )
        return objectives.logistic_objective(data)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((n, cfg.dim))
    return tuple(
        objectives.quadratic_objective(centers[i], np.ones(cfg.dim))
        for i in range(n)
    )


@dataclass(frozen=True)
class TraceSummary:
    algorithm: str
    alpha_label: str
    iterations: int
    final_residual: float
    slope: float
    r2: float
    diverged: bool


@dataclass(frozen=True)
class StepsizeRow:
    alpha: float
    rho: float
    converged: bool
    residual_200: float


@dataclass(frozen=True)
class SparsityRow:
    label: str
    edge_count: int
    seed: int
    slope: float


@dataclass
class ComparisonReport:
    """Shared result container for the three experiment drivers."""

    summaries: dict[str, TraceSummary] = field(default_factory=dict)
    alpha_bar: float | None = None
    stepsize_table: list[StepsizeRow] = field(default_factory=list)
    sparsity_rows: list[SparsityRow] = field(default_factory=list)

    @property
    def any_diverged(self) -> bool:
        return any(s.diverged for s in self.summaries.values())


def _summarize(trace: algorithms.Trace, diverged: bool = False) -> TraceSummary:
    try:
        fit = analysis.residual_slope(trace)
        slope, r2 = fit.slope, fit.r2
    except ValueError:
        slope, r2 = float("nan"), float("nan")
    return TraceSummary(
        algorithm=trace.algorithm,
        alpha_label=trace.alpha_label,
        iterations=trace.iterations,
        final_residual=trace.final_residual,
        slope=slope,
        r2=r2,
        diverged=diverged,
    )


def _prepare(cfg: ExperimentConfig, graph: digraph.Digraph, seed: int) -> tuple:
    """Mixing weights, objectives, reference optimum ``z*`` and stationary
    vector ``pi`` of one (graph, data seed) pair."""
    weights = digraph.uniform_weights(graph)
    objs = build_objectives(cfg, graph.n, seed=seed)
    opt = objectives.centralized_solve(objs)
    return weights, objs, opt.z_star, digraph.perron_limit(weights)


def _run_lanes(
    cfg: ExperimentConfig, prepared: tuple, lanes, stop_tol: float
) -> Iterator[tuple[algorithms.Trace, bool]]:
    """Run each ``(algorithm, alpha)`` lane on ``prepared``, in order, and
    yield ``(trace, diverged)``; a diverged lane's trace ends at its last
    finite iterate."""
    weights, objs, z_star, pi = prepared
    for name, alpha in lanes:
        try:
            trace, diverged = algorithms.run(
                name, weights, objs, alpha, cfg.iters, stop_tol,
                theta=cfg.theta, z_star=z_star, pi=pi,
            ), False
        except algorithms.DivergenceError as exc:
            trace, diverged = exc.trace, True
        yield trace, diverged


def _out_path(cfg: ExperimentConfig, suffix: str) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / f"{cfg.prefix}_{suffix}.csv"


def _write_csv(cfg: ExperimentConfig, suffix: str, header: list, rows) -> None:
    with open(_out_path(cfg, suffix), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_compare(cfg: ExperimentConfig) -> ComparisonReport:
    """Run each configured algorithm once; write per-algorithm traces + a summary.

    The tracked engines use the configured constant step size.  Plain
    gradient-push always runs with the diminishing rule ``1/sqrt(k)``: with a
    constant step it stalls at a bias floor instead of converging, so the
    diminishing rule is the only meaningful baseline in a comparison.
    """
    if cfg.sweep is not None:
        raise ConfigError("compare needs a single step size, not a sweep")
    prepared = _prepare(cfg, resolve_graph(cfg), cfg.seed)
    lanes = [
        (name, "1/sqrt(k)" if name == "gradient_push" else cfg.alpha)
        for name in cfg.algorithms
    ]
    report = ComparisonReport()
    for trace, diverged in _run_lanes(cfg, prepared, lanes, cfg.stop_tol):
        algorithms.write_trace_csv(trace, _out_path(cfg, trace.algorithm))
        report.summaries[trace.algorithm] = _summarize(trace, diverged)
    _write_csv(
        cfg, "summary",
        ["algorithm", "alpha", "iterations", "final_residual", "slope", "r2", "diverged"],
        (
            [s.algorithm, s.alpha_label, s.iterations,
             repr(s.final_residual), repr(s.slope), repr(s.r2), int(s.diverged)]
            for s in report.summaries.values()
        ),
    )
    return report


def cmd_stepsize_study(cfg: ExperimentConfig) -> ComparisonReport:
    """Sweep constant step sizes for the tracked engine.

    Per grid point: the recursion radius ``rho(G(alpha))``, a convergence
    flag, and the residual after the configured iteration count (200 by
    convention).  Rows are written in increasing alpha order.  The graph is
    certified before any grid point runs.
    """
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("stepsize study needs alpha = lo:hi:steps")
    grid = [float(alpha) for alpha in np.linspace(*sweep)]
    prepared = _prepare(cfg, resolve_graph(cfg), cfg.seed)
    weights, objs, _, _ = prepared
    l, s = objectives.network_constants(objs)
    profile = analysis.build_profile(weights, l, s, cfg.slack)

    rows = []
    lanes = [("addopt", alpha) for alpha in grid]
    for alpha, (trace, diverged) in zip(grid, _run_lanes(cfg, prepared, lanes, 0.0)):
        residual = float("inf") if diverged else trace.final_residual
        rows.append(StepsizeRow(
            alpha=alpha,
            rho=analysis.spectral_radius(analysis.build_G(profile, alpha)),
            converged=bool(np.isfinite(residual) and residual < 1.0),
            residual_200=residual,
        ))
    _write_csv(
        cfg, "stepsize", ["alpha", "rho", "converged", f"residual_{cfg.iters}"],
        ([repr(r.alpha), repr(r.rho), int(r.converged), repr(r.residual_200)] for r in rows),
    )
    return ComparisonReport(
        alpha_bar=analysis.alpha_upper_bound(profile), stepsize_table=rows
    )


def _sparsity_graphs(cfg: ExperimentConfig) -> list[tuple[str, digraph.Digraph]]:
    if cfg.graph_files:
        graphs = [(Path(f).name, digraph.load_graph(f)) for f in cfg.graph_files]
    else:
        chain = cfg.chain_extra or (0, 20, 60)
        nodes = resolve_graph(cfg).n
        graphs = [
            (f"chain{idx}", g)
            for idx, g in enumerate(digraph.nested_chain(nodes, chain, cfg.seed))
        ]
    if cfg.strict_nesting:
        for (_, a), (_, b) in zip(graphs, graphs[1:]):
            if a.n != b.n or not set(a.edges) <= set(b.edges):
                raise ConfigError("sparsity chain is not nested")
    return graphs


def cmd_sparsity_study(cfg: ExperimentConfig) -> ComparisonReport:
    """Fit per-graph decay slopes across a chain of increasingly dense graphs.

    Each graph is run with every configured data seed at the fixed step
    size; the per-run slope comes from the standard fit window (residual in
    (1e-12, 1e-1]).  A run that diverges raises ``DivergenceError``, and one
    with fewer than two residuals in the window raises ``ConfigError``; both
    name the graph and the seed, and no CSV is written.
    """
    if not isinstance(cfg.alpha, float):
        raise ConfigError("sparsity study needs a constant step size")
    seeds = cfg.seeds or (cfg.seed,)
    rows: list[SparsityRow] = []
    for label, g in _sparsity_graphs(cfg):
        for seed in seeds:
            lane = [("addopt", cfg.alpha)]
            [(trace, diverged)] = _run_lanes(cfg, _prepare(cfg, g, seed), lane, 0.0)
            if diverged:
                k = trace.iterations + 1
                raise algorithms.DivergenceError(
                    k, f"{label} seed {seed}: iterate diverged at iteration {k}"
                )
            try:
                slope = analysis.residual_slope(trace, lo=1e-12, hi=1e-1).slope
            except ValueError:
                raise ConfigError(
                    f"{label} seed {seed}: fewer than two residuals in the fit "
                    f"window (1e-12, 1e-1] within {cfg.iters} iterations"
                ) from None
            rows.append(
                SparsityRow(label=label, edge_count=g.edge_count, seed=seed, slope=slope)
            )
    _write_csv(
        cfg, "sparsity", ["graph", "edges", "seed", "slope"],
        ([r.label, r.edge_count, r.seed, repr(r.slope)] for r in rows),
    )
    return ComparisonReport(sparsity_rows=rows)
