"""The benchmark's workloads, one repetition of each, and the correctness gate.

A repetition writes the workload's study configs as INI files, runs them
through ``experiments.load_config`` and the study driver exactly as
``dirgraphopt compare|sweep --config`` would, and then checks the outputs.
All workloads are closed-loop and single-process: one repetition starts
only after the previous one has finished, with no worker threads.
"""

from __future__ import annotations

import csv
import math
import shutil
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.optimize

from dirgraphopt import algorithms, analysis, digraph, experiments, objectives

from tracing import END, NAME, OUTCOME, PHASE, START, TRACED, Tracer

#: the independent reference must agree with ``centralized_solve``'s z* to
#: ``REFERENCE_RTOL * max(1, |z*|)``; both solvers are far tighter than this
REFERENCE_RTOL = 1e-6

EXAMPLES, DIM = 10, 3

#: (block, vector) mat-vecs per iteration, from each engine's update rule:
#: addopt mixes x, y and the tracker w; dextra mixes x, y and the previous x
#: through the corrector; gradient-push mixes x and y
MATVECS = {"addopt": (2, 1), "dextra": (2, 1), "gradient_push": (1, 1)}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``nodes=None`` is the built-in 10-node ``fig1`` graph; otherwise a
    ``random_digraph(nodes, extra_edges, seed)``.  ``runs`` lists the
    ``(algorithms, alpha)`` pair of each ``cmd_compare`` call; ``sweep`` is the
    ``lo:hi:steps`` grid of a ``cmd_stepsize_study`` call instead.
    """

    name: str
    reg: float
    iters: int
    residual_target: float
    nodes: int | None = None
    extra_edges: int = 0
    runs: tuple = ()
    sweep: tuple | None = None
    certify: bool = False

    @property
    def n(self) -> int:
        return 10 if self.nodes is None else self.nodes


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-compare",
            reg=1.0,
            iters=2500,
            # dextra's stable window starts far above addopt's step on this
            # problem, so each tracked engine gets its own compare call
            runs=((("addopt", "gp"), 0.04), (("dextra",), 0.2)),
            residual_target=1e-8,
        ),
        Workload(
            name="fig1-sweep",
            reg=1.0,
            iters=600,
            sweep=(0.05, 8.0, 40),
            residual_target=1e-3,
        ),
        Workload(
            name="n200-scale",
            reg=20.0,
            iters=800,
            nodes=200,
            # at this density the spectral certification (a known defect,
            # see ``known_defect``) failed on each of seeds 1-10; at 1600
            # extra edges it failed on 2 of them
            extra_edges=800,
            # larger steps settle into a non-converging cycle on some of
            # these random graphs (0.015 on about one in a hundred)
            runs=((("addopt",), 0.01),),
            certify=True,
            residual_target=1e-2,
        ),
    )
}

#: reduced sizes for the warm-up repetition and the benchmark self-test
_TINY = {
    "fig1-compare": dict(iters=40, residual_target=1.0),
    "fig1-sweep": dict(iters=40, sweep=(0.05, 6.0, 4), residual_target=1.0),
    "n200-scale": dict(nodes=40, extra_edges=80, iters=40, residual_target=1.0),
}


def tiny(w: Workload) -> Workload:
    return replace(w, **_TINY[w.name])


@dataclass
class Failure:
    op: str
    reason: str
    error: str = ""
    #: ``SVD did not converge`` from ``digraph.spectral_data``, a known
    #: defect of the package on random graphs; counted in ``ops_failed_frac``
    #: and reported, but not as an unexpected failure of the run
    known: bool = False


@dataclass
class Rep:
    """Spans and checked outcome of one repetition."""

    seed: int
    out_dir: Path
    #: config file of each study call, in call order
    calls: list[Path]
    #: this repetition's slice of ``Tracer.spans``, which starts at ``offset``
    spans: list = field(default_factory=list)
    offset: int = 0
    ops: int = 0
    failures: list[Failure] = field(default_factory=list)

    def root(self):
        return self.spans[0]


# ---------------------------------------------------------------------------
# running one repetition
# ---------------------------------------------------------------------------


def _write_config(w: Workload, seed: int, out_dir: Path, prefix: str, algs, alpha) -> Path:
    if w.nodes is None:
        graph = "source = fig1\n"
    else:
        graph = (
            f"source = random\nnodes = {w.nodes}\n"
            f"extra_edges = {w.extra_edges}\nseed = {seed}\n"
        )
    text = (
        f"[graph]\n{graph}\n"
        f"[objective]\nkind = logistic\nexamples = {EXAMPLES}\ndim = {DIM}\n"
        f"reg = {w.reg!r}\nseed = {seed}\n\n"
        f"[run]\nalgorithms = {', '.join(algs)}\nalpha = {alpha}\n"
        f"iters = {w.iters}\n\n"
        f"[output]\ndir = {out_dir}\nprefix = {prefix}\n"
    )
    path = out_dir / f"{prefix}.ini"
    path.write_text(text, encoding="utf-8")
    return path


def _calls(w: Workload, seed: int, out_dir: Path) -> list[tuple[str, Path]]:
    if w.sweep is not None:
        lo, hi, steps = w.sweep
        return [("sweep", _write_config(w, seed, out_dir, "sweep", ("addopt",), f"{lo}:{hi}:{steps}"))]
    return [
        ("compare", _write_config(w, seed, out_dir, f"compare{i}", algs, alpha))
        for i, (algs, alpha) in enumerate(w.runs)
    ]


def _certify(cfg) -> None:
    """Spectral certification of the workload's graph: the step-size analysis
    a user runs before trusting a constant step."""
    graph = experiments.resolve_graph(cfg)
    weights = digraph.uniform_weights(graph)
    l, s = objectives.network_constants(experiments.build_objectives(cfg, graph.n))
    analysis.build_profile(weights, l, s)  # validates sigma < 1


def run_rep(w: Workload, seed: int, tracer: Tracer, out_root: Path, traced: bool) -> Rep:
    """Run one repetition on the inputs of ``seed``; raises on unexpected errors."""
    out_dir = out_root / "rep"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    calls = _calls(w, seed, out_dir)
    rep = Rep(seed=seed, out_dir=out_dir, calls=[ini for _, ini in calls],
              offset=len(tracer.spans))
    with tracer.patched(TRACED if traced else PHASE):
        with tracer.span("bench.workload"):
            if w.certify:
                with tracer.span("bench.certify") as span:
                    try:
                        _certify(experiments.load_config(calls[0][1]))
                    except Exception as exc:  # counted below as a failed op
                        span[OUTCOME] = exc
            for kind, ini in calls:
                with tracer.span("bench.call"):
                    cfg = experiments.load_config(ini)
                    if kind == "sweep":
                        experiments.cmd_stepsize_study(cfg)
                    else:
                        experiments.cmd_compare(cfg)
    rep.spans = tracer.spans[rep.offset:]
    return rep


# ---------------------------------------------------------------------------
# end-to-end numbers of one repetition
# ---------------------------------------------------------------------------


def _dur(span) -> float:
    return span[END] - span[START]


def iterations(span) -> int:
    """Engine iterations executed by one ``algorithms.run`` call."""
    out = span[OUTCOME]
    if isinstance(out, algorithms.DivergenceError):
        return int(out.iteration)
    if isinstance(out, algorithms.Trace):
        return out.iterations
    return 0


def phases(rep: Rep, n: int) -> dict[str, float]:
    """``setup_s``, ``solve_s``, ``wall_s`` and the agent-iteration count.

    Set-up is the certification step plus, for each study call, the time
    from its start to its first engine run.
    """
    setup = sum(_dur(s) for s in rep.spans if s[NAME] == "bench.certify")
    for call, children in split_calls(rep.spans):
        first_run = next((s for s in children if s[NAME] == "algorithms.run"), None)
        setup += (first_run[START] if first_run else call[END]) - call[START]
    runs = [s for s in rep.spans if s[NAME] == "algorithms.run"]
    return {
        "setup_s": setup,
        "solve_s": sum(_dur(s) for s in runs),
        "wall_s": _dur(rep.root()),
        "agent_iters": n * sum(iterations(s) for s in runs),
    }


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


class Gate:
    """Checks one repetition's outputs; caches the independent references."""

    def __init__(self) -> None:
        self._refs: dict[tuple, np.ndarray] = {}

    def reference(self, w: Workload, seed: int, ini: Path) -> np.ndarray:
        """Minimizer of the summed objective by ``scipy.optimize`` L-BFGS-B."""
        key = (w.n, w.reg, seed)
        if key not in self._refs:
            objs = tuple(experiments.build_objectives(experiments.load_config(ini), w.n))
            res = scipy.optimize.minimize(
                lambda z: objectives.total_value(objs, z),
                np.zeros(DIM),
                jac=lambda z: objectives.total_gradient(objs, z),
                method="L-BFGS-B",
                options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10_000},
            )
            self._refs[key] = res.x
        return self._refs[key]

    def check(self, w: Workload, rep: Rep) -> None:
        fails = rep.failures
        op_count = 0

        def op(name: str, ok: bool, reason: str, error: str = "", known: bool = False):
            nonlocal op_count
            op_count += 1
            if not ok:
                fails.append(Failure(name, f"instance {rep.seed}: {reason}", error, known))

        by_call = [children for _, children in split_calls(rep.spans)]
        for span in rep.spans:
            if span[NAME] == "bench.certify":
                exc = span[OUTCOME]
                op("certify", exc is None, "spectral certification failed",
                   _error_text(exc), known=known_defect(exc))
        z_ref = self.reference(w, rep.seed, rep.calls[0])
        for ini, spans in zip(rep.calls, by_call):
            prefix = ini.stem
            solves = [s for s in spans if s[NAME] == "objectives.centralized_solve"]
            for s in solves:
                opt = s[OUTCOME]
                err = float(np.linalg.norm(opt.z_star - z_ref))
                tol = REFERENCE_RTOL * max(1.0, float(np.linalg.norm(z_ref)))
                op("reference", bool(opt.converged) and err <= tol,
                   f"centralized_solve converged={opt.converged}, "
                   f"|z* - z_scipy| = {err:.3e} (tolerance {tol:.1e})")
            runs = [s for s in spans if s[NAME] == "algorithms.run"]
            if prefix == "sweep":
                self._check_sweep(w, rep.out_dir / f"{prefix}_stepsize.csv", runs, op)
            else:
                self._check_compare(w, rep.out_dir, prefix, runs, op)
        rep.ops = op_count

    def _check_compare(self, w, out_dir, prefix, runs, op) -> None:
        final: dict[str, algorithms.Trace] = {}
        for s in runs:
            if isinstance(s[OUTCOME], algorithms.Trace):
                final[s[OUTCOME].algorithm] = s[OUTCOME]
        summary = _read_rows(out_dir / f"{prefix}_summary.csv")
        op(f"{prefix}_summary.csv", summary is not None and len(summary) == len(final) + 1
           and len(final) > 0,
           f"summary has {None if summary is None else len(summary) - 1} rows "
           f"for {len(final)} engines")
        summary_by_alg = {row[0]: row for row in (summary or [])[1:]}
        for alg, trace in final.items():
            rows = _read_rows(out_dir / f"{prefix}_{alg}.csv")
            row = summary_by_alg.get(alg)
            ok = (
                rows is not None
                and len(rows) == trace.records + 1
                and row is not None
                and float(row[3]) == trace.final_residual
            )
            reason = f"{alg}: trace CSV rows / summary do not match the run"
            if ok and alg == "addopt":
                ok = trace.final_residual <= w.residual_target
                reason = (f"addopt final residual {trace.final_residual:.3e} "
                          f"above target {w.residual_target:.1e}")
            elif ok and alg == "gradient_push":
                ok = trace.final_residual < 1.0
                reason = f"gradient-push residual {trace.final_residual:.3e} did not decrease"
            elif ok and alg == "dextra":
                # dextra's stable window moves with the data, so its residual
                # is not gated; its trace must be finite unless flagged diverged
                ok = row[6] == "1" or bool(np.all(np.isfinite(trace.residual)))
                reason = "dextra trace has non-finite values but is not flagged diverged"
            op(f"lane:{prefix}:{alg}", ok, reason)

    def _check_sweep(self, w, path, runs, op) -> None:
        lo, hi, steps = w.sweep
        rows = _read_rows(path)
        op(path.name, rows is not None and len(rows) == steps + 1,
           f"study CSV has {None if rows is None else len(rows) - 1} rows, expected {steps}")
        if rows is None:
            return
        data = rows[1:]
        grid = np.linspace(lo, hi, steps)
        per_lane = len(runs) == len(data)
        for i, row in enumerate(data):
            alpha, rho, conv, res = float(row[0]), float(row[1]), row[2], float(row[3])
            ok = (
                i < len(grid) and alpha == float(grid[i])
                and math.isfinite(rho) and rho > 0
                and conv == ("1" if math.isfinite(res) and res < 1.0 else "0")
            )
            reason = f"row {i}: alpha/rho/converged columns inconsistent"
            if ok and per_lane:
                out = runs[i][OUTCOME]
                expected = (math.inf if isinstance(out, algorithms.DivergenceError)
                            else out.final_residual)
                ok = res == expected
                reason = f"row {i}: residual {res!r} differs from its run ({expected!r})"
            if ok and i == 0:
                ok = res <= w.residual_target
                reason = (f"smallest step {alpha} residual {res:.3e} above "
                          f"target {w.residual_target:.1e}")
            op(f"lane:{i}", ok, reason)


def split_calls(spans) -> list[tuple[list, list]]:
    """Each ``bench.call`` span with the spans recorded inside it.

    Certification spans precede every call, so a call owns all spans that
    follow it up to the next call.
    """
    groups: list[tuple[list, list]] = []
    for s in spans:
        if s[NAME] == "bench.call":
            groups.append((s, []))
        elif groups:
            groups[-1][1].append(s)
    return groups


def _read_rows(path: Path):
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    except OSError:
        return None


def known_defect(exc) -> bool:
    """Whether ``exc`` is the package's known ``SVD did not converge`` error,
    raised from inside ``digraph.spectral_data``."""
    if not (isinstance(exc, np.linalg.LinAlgError) and "SVD did not converge" in str(exc)):
        return False
    return any(frame.f_code.co_name == "spectral_data"
               and frame.f_globals.get("__name__") == digraph.__name__
               for frame, _ in traceback.walk_tb(exc.__traceback__))


def _error_text(exc) -> str:
    if exc is None:
        return ""
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()
