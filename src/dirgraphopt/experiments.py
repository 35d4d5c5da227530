"""Config-driven experiment drivers: algorithm comparison, step-size study,
sparsity study.

Configs are flat key-value text files with INI-style sections (parsed by
:mod:`configparser`).  Every command that runs an engine sets its problem up
through :func:`prepare`.  Each study writes plain CSV files and returns its
own rows; every driver is deterministic, so re-running a config reproduces
its outputs byte for byte.
"""

from __future__ import annotations

import configparser
import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import algorithms, analysis, digraph, objectives

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "TraceSummary",
    "StepsizeRow",
    "SparsityRow",
    "load_config",
    "parse_alpha",
    "prepare",
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
        for a in self.algorithms:
            if a not in algorithms.ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}")
        names = tuple(algorithms.ALGORITHMS[a] for a in self.algorithms)
        if len(set(names)) != len(names):
            raise ConfigError(f"algorithm list has duplicates: {self.algorithms}")
        if self.iters < 0:
            raise ConfigError(f"iters must be non-negative, got {self.iters}")
        if not 0.0 <= self.stop_tol < math.inf:
            raise ConfigError(
                f"run.stop_tol must be finite and non-negative, got {self.stop_tol}"
            )
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


#: the keys that each config section accepts
_KEYS = {
    "graph": {"source", "nodes", "extra_edges", "seed"},
    "objective": {"kind", "examples", "dim", "reg", "seed"},
    "run": {"algorithms", "alpha", "iters", "stop_tol", "theta", "slack"},
    "output": {"dir", "prefix"},
    "sparsity": {"chain_extra", "seeds", "graphs", "strict_nesting"},
}


def _names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _algorithms(text: str) -> tuple[str, ...]:
    names = _names(text)
    if not names:
        raise ValueError("the algorithm list is empty")
    return names


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in _names(text))


def _flag(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected true or false, got {text!r}")
    return value in ("1", "true", "yes")


def _slack(text: str) -> float | None:
    return None if text.strip() == "auto" else float(text)


def load_config(path) -> ExperimentConfig:
    """Parse a config file.  An unknown section or key, a value that does
    not parse, an empty algorithm list, or a ``[graph]`` key that the source
    does not read (``nodes``, ``extra_edges`` and ``seed`` need
    ``source = random``) raises :class:`ConfigError` naming ``section.key``."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _KEYS[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")

    def get(key: str, convert, default):
        """``convert`` of the value of ``section.key``, or ``default``."""
        section, option = key.split(".")
        if not parser.has_option(section, option):
            return default
        try:
            return convert(parser.get(section, option))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from None

    source = get("graph.source", str.strip, "fig1")
    if source == "random":
        graph = ("random", get("graph.nodes", int, 10),
                 get("graph.extra_edges", int, 10), get("graph.seed", int, 0))
    elif source.startswith("file:"):
        graph = ("file", source[len("file:"):].strip())
        if not Path(graph[1]).exists():
            raise ConfigError(f"graph file not found: {graph[1]}")
    else:
        graph = ("builtin", source)
    for key in ("nodes", "extra_edges", "seed"):
        if source != "random" and parser.has_option("graph", key):
            raise ConfigError(
                f"graph.{key}: only read when source = random, got source = {source}"
            )

    objective = get("objective.kind", str.strip, "logistic")
    if objective not in ("logistic", "quadratic"):
        raise ConfigError(f"objective kind must be logistic or quadratic, got {objective!r}")

    graph_files = get("sparsity.graphs", _names, ())
    for f in graph_files:
        if not Path(f).exists():
            raise ConfigError(f"graph file not found: {f}")

    return ExperimentConfig(
        graph=graph,
        algorithms=get("run.algorithms", _algorithms, ("addopt",)),
        alpha=get("run.alpha", parse_alpha, 0.1),
        objective=objective,
        reg=get("objective.reg", float, 1.0),
        seed=get("objective.seed", int, 0),
        seeds=get("sparsity.seeds", _ints, ()),
        n_examples=get("objective.examples", int, 10),
        dim=get("objective.dim", int, 3),
        iters=get("run.iters", int, 500),
        stop_tol=get("run.stop_tol", float, 0.0),
        theta=get("run.theta", float, 0.5),
        slack=get("run.slack", _slack, None),
        out_dir=Path(get("output.dir", str, ".")),
        prefix=get("output.prefix", str, "study"),
        chain_extra=get("sparsity.chain_extra", _ints, ()),
        strict_nesting=get("sparsity.strict_nesting", _flag, False),
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
        objectives.Quadratic(centers[i], np.ones(cfg.dim))
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
    residual: float


@dataclass(frozen=True)
class SparsityRow:
    label: str
    edge_count: int
    seed: int
    slope: float


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


def prepare(graph: digraph.Digraph, objs) -> algorithms.Instance:
    """The :class:`~dirgraphopt.algorithms.Instance` of ``graph`` and ``objs``,
    stacked once here; its weights solve ``weights.pi`` on first read.

    Raises ``ValueError`` naming both counts when ``objs`` does not hold one
    objective per node of ``graph``, before any solve, and
    ``UnconvergedSolveError`` when the reference solve does not converge.
    """
    return _instance(digraph.uniform_weights(graph), objs)


def _instance(weights: digraph.WeightMatrix, objs) -> algorithms.Instance:
    """:func:`prepare` on built weights, which share one ``pi`` solve."""
    problem = objectives.stack(objs)
    if problem.n != weights.n:
        raise ValueError(
            f"the objectives cover {problem.n} agents but the graph has {weights.n} nodes"
        )
    optimum = objectives.reference_optimum(problem)
    return algorithms.Instance(weights, problem, optimum)


def _run_lanes(
    cfg: ExperimentConfig, inst: algorithms.Instance, lanes, stop_tol: float
) -> Iterator[tuple[algorithms.Trace, bool]]:
    """Run each ``(algorithm, alpha)`` lane on ``inst``, in order, and yield
    ``(trace, diverged)``; a diverged lane's trace ends at its last finite
    iterate."""
    for name, alpha in lanes:
        try:
            trace, diverged = algorithms.run(
                name, inst, alpha, cfg.iters, stop_tol, theta=cfg.theta
            ), False
        except algorithms.DivergenceError as exc:
            trace, diverged = exc.trace, True
        yield trace, diverged


def _addopt_only(cfg: ExperimentConfig, study: str) -> None:
    if cfg.algorithms != ("addopt",):
        raise ConfigError(
            f"the {study} study runs addopt only, got algorithms = "
            f"{', '.join(cfg.algorithms)}"
        )


def _out_path(cfg: ExperimentConfig, suffix: str) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return cfg.out_dir / f"{cfg.prefix}_{suffix}.csv"


def _write_csv(cfg: ExperimentConfig, suffix: str, header: list, rows) -> None:
    with open(_out_path(cfg, suffix), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_compare(cfg: ExperimentConfig) -> dict[str, TraceSummary]:
    """Run each configured algorithm once; write per-algorithm traces + a summary,
    and return the summaries by engine name, in the configured order.

    The tracked engines use the configured constant step size.  Plain
    gradient-push always runs with the diminishing rule ``1/sqrt(k)``: with a
    constant step it stalls at a bias floor instead of converging, so the
    diminishing rule is the only meaningful baseline in a comparison.  A
    lane is ``diverged`` when it left the overflow guard or, by ``run``'s
    rule, ended with its final residual above 1.
    """
    if cfg.sweep is not None:
        raise ConfigError("compare needs a single step size, not a sweep")
    graph = resolve_graph(cfg)
    inst = prepare(graph, build_objectives(cfg, graph.n))
    lanes = [
        (name, "1/sqrt(k)" if name == "gradient_push" else cfg.alpha)
        for name in cfg.algorithms
    ]
    summaries = {}
    for trace, diverged in _run_lanes(cfg, inst, lanes, cfg.stop_tol):
        algorithms.write_trace_csv(trace, _out_path(cfg, trace.algorithm))
        diverged = diverged or trace.final_residual > 1.0
        summaries[trace.algorithm] = _summarize(trace, diverged)
    _write_csv(
        cfg, "summary",
        ["algorithm", "alpha", "iterations", "final_residual", "slope", "r2", "diverged"],
        (
            [s.algorithm, s.alpha_label, s.iterations,
             repr(s.final_residual), repr(s.slope), repr(s.r2), int(s.diverged)]
            for s in summaries.values()
        ),
    )
    return summaries


def cmd_stepsize_study(cfg: ExperimentConfig) -> tuple[float, list[StepsizeRow]]:
    """Sweep constant step sizes for the tracked engine.

    Per grid point: the recursion radius ``rho(G(alpha))``, a convergence
    flag, and the residual after the configured iteration count (200 by
    convention).  Rows are written in increasing alpha order.  The graph is
    certified before any grid point runs.  ``algorithms`` must be ``addopt``.
    Returns the certified ceiling ``alpha_bar`` and the rows.
    """
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("stepsize study needs alpha = lo:hi:steps")
    _addopt_only(cfg, "stepsize")
    grid = [float(alpha) for alpha in np.linspace(*sweep)]
    graph = resolve_graph(cfg)
    inst = prepare(graph, build_objectives(cfg, graph.n))
    l, s = objectives.network_constants(inst.problem.agents)
    profile = analysis.build_profile(inst.weights, l, s, cfg.slack)

    rows = []
    lanes = [("addopt", alpha) for alpha in grid]
    for alpha, (trace, diverged) in zip(grid, _run_lanes(cfg, inst, lanes, 0.0)):
        residual = float("inf") if diverged else trace.final_residual
        rows.append(StepsizeRow(
            alpha=alpha,
            rho=analysis.spectral_radius(analysis.build_G(profile, alpha)),
            converged=bool(np.isfinite(residual) and residual < 1.0),
            residual=residual,
        ))
    _write_csv(
        cfg, "stepsize", ["alpha", "rho", "converged", f"residual_{cfg.iters}"],
        ([repr(r.alpha), repr(r.rho), int(r.converged), repr(r.residual)] for r in rows),
    )
    return analysis.alpha_upper_bound(profile), rows


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


def cmd_sparsity_study(cfg: ExperimentConfig) -> list[SparsityRow]:
    """Fit per-graph decay slopes across a chain of increasingly dense graphs,
    and return one row per (graph, seed) run, in run order.

    Each graph is run with every configured data seed at the fixed step
    size; the per-run slope comes from the standard fit window (residual in
    (1e-12, 1e-1]).  A run that diverges raises ``DivergenceError``, and one
    with fewer than three residuals, or a flat residual, in the window raises
    ``ConfigError``; both name the graph and the seed, and no CSV is written.
    ``algorithms`` must be ``addopt``.
    """
    if not isinstance(cfg.alpha, float):
        raise ConfigError("sparsity study needs a constant step size")
    _addopt_only(cfg, "sparsity")
    seeds = cfg.seeds or (cfg.seed,)
    rows: list[SparsityRow] = []
    for label, g in _sparsity_graphs(cfg):
        weights = digraph.uniform_weights(g)
        for seed in seeds:
            inst = _instance(weights, build_objectives(cfg, g.n, seed))
            [(trace, diverged)] = _run_lanes(cfg, inst, [("addopt", cfg.alpha)], 0.0)
            if diverged:
                k = trace.iterations + 1
                raise algorithms.DivergenceError(
                    k, f"{label} seed {seed}: iterate diverged at iteration {k}"
                )
            try:
                slope = analysis.residual_slope(trace, hi=1e-1).slope
            except ValueError:
                raise ConfigError(
                    f"{label} seed {seed}: fewer than three residuals, or a flat residual, "
                    f"in the fit window (1e-12, 1e-1] within {cfg.iters} iterations"
                ) from None
            rows.append(
                SparsityRow(label=label, edge_count=g.edge_count, seed=seed, slope=slope)
            )
    _write_csv(
        cfg, "sparsity", ["graph", "edges", "seed", "slope"],
        ([r.label, r.edge_count, r.seed, repr(r.slope)] for r in rows),
    )
    return rows
