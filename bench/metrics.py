"""Metric names, units and their computation from recorded repetitions.

End-to-end metrics come from untraced repetitions (see ``end_to_end``).  Per-layer
metrics come from traced repetitions: times are medians over them, counts
are those of the first, and since every repetition of a run has the seed's
inputs, counts repeat exactly.  Flop and byte counts are computed from
array shapes, not measured.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

from dirgraphopt import algorithms

from tracing import ARGS, END, LAYERS, NAME, OUTCOME, START, self_times
from workloads import DIM, EXAMPLES, MATVECS, Rep, Workload, iterations

#: the benchmark's definition: workloads and metric names, units and bounds
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit of ``kind`` (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


#: per-layer numbers of functions that some workloads never call; they read
#: 0 there, so they are reported in the run's detail file and table only
DETAIL_ONLY = {
    "digraph.spectral_data_s": "s",
    "algorithms.dextra_step_us.p50": "us",
    "algorithms.dextra_step_us.p99": "us",
    "algorithms.gradient_push_step_us.p50": "us",
    "algorithms.gradient_push_step_us.p99": "us",
    "algorithms.write_trace_csv_s": "s",
    "analysis.build_profile_s": "s",
    "analysis.push_sum_extremes_s": "s",
    "analysis.rho_G_us": "us",
    "analysis.residual_slope_us": "us",
}

#: units whose per-run value is the first traced repetition's, not a median
EXACT_UNITS = frozenset({"count", "flop", "bytes", "ratio"})


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(w: Workload, rep: Rep) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer numbers of one traced repetition, plus a per-function table."""
    spans = rep.spans
    own = self_times(spans, rep.offset)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    durations: dict[str, list[float]] = defaultdict(list)
    table: dict[str, dict] = {}
    for s, self_s in zip(spans, own):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += self_s
        durations[name].append(s[END] - s[START])
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
        row["calls"] += 1
        row["total_s"] += s[END] - s[START]
        row["self_s"] += self_s
        row["failed"] += isinstance(s[OUTCOME], BaseException)

    def total(name):
        return sum(durations.get(name, ()))

    def us(name, q):
        return percentile(durations.get(name, []), q) * 1e6

    n, p = w.n, DIM
    runs = [(s, self_s) for s, self_s in zip(spans, own) if s[NAME] == "algorithms.run"]
    iters = sum(iterations(s) for s, _ in runs)
    flops = nbytes = 0
    for s, _ in runs:
        algorithm = _algorithm(s)
        blocks, vectors = MATVECS.get(algorithm, (0, 0))
        k = iterations(s)
        flops += k * (blocks * 2 * n * n * p + vectors * 2 * n * n)
        nbytes += k * 8 * (blocks * (n * n + 2 * n * p) + vectors * (n * n + 2 * n))
    solves = [s[OUTCOME] for s in spans
              if s[NAME] == "objectives.centralized_solve" and s[OUTCOME] is not None
              and not isinstance(s[OUTCOME], BaseException)]
    grad_calls = len(durations.get("objectives.stacked_gradient", ()))
    csvs = {path.name: path.stat().st_size for path in rep.out_dir.glob("*.csv")}
    lanes = [s[END] - s[START] for s, _ in runs]
    out.update({
        "objectives.stacked_gradient_us": us("objectives.stacked_gradient", 50),
        "objectives.stacked_gradient.calls": grad_calls,
        # logistic gradient per agent: two (m x p) products, m-sized sigmoid
        # and weighting, p-sized ridge term
        "objectives.stacked_gradient.flops": grad_calls * n * (4 * EXAMPLES * p + 3 * EXAMPLES + 2 * p),
        "objectives.centralized_solve_s": total("objectives.centralized_solve"),
        "objectives.centralized_solve.iters": sum(o.iterations for o in solves),
        "objectives.centralized_solve.converged": (
            sum(bool(o.converged) for o in solves) / len(solves) if solves else 0.0),
        "objectives.generate_dataset_s": total("objectives.generate_dataset"),
        "digraph.uniform_weights_s": total("digraph.uniform_weights"),
        "digraph.perron_limit_s": total("digraph.perron_limit"),
        "digraph.spectral_data.calls": len(durations.get("digraph.spectral_data", ())),
        "digraph.spectral_data.failed": table.get("digraph.spectral_data", {}).get("failed", 0),
        "algorithms.addopt_step_us.p50": us("algorithms.addopt_step", 50),
        "algorithms.addopt_step_us.p99": us("algorithms.addopt_step", 99),
        "algorithms.dextra_step.calls": len(durations.get("algorithms.dextra_step", ())),
        "algorithms.gradient_push_step.calls": len(durations.get("algorithms.gradient_push_step", ())),
        "algorithms.mix.flops": flops,
        "algorithms.mix.bytes": nbytes,
        "algorithms.run_self_us_per_iter": (
            sum(self_s for _, self_s in runs) / iters * 1e6 if iters else 0.0),
        "algorithms.iters": iters,
        "algorithms.diverged_lanes": sum(
            isinstance(s[OUTCOME], algorithms.DivergenceError) for s, _ in runs),
        "algorithms.trace_bytes": sum(
            size for name, size in csvs.items()
            if not name.endswith(("_summary.csv", "_stepsize.csv"))),
        "analysis.build_profile.calls": len(durations.get("analysis.build_profile", ())),
        "analysis.rho_G.calls": len(durations.get("analysis.spectral_radius", ())),
        "experiments.lanes": len(lanes),
        "experiments.lane_s.p50": percentile(lanes, 50),
        "experiments.lane_s.p99": percentile(lanes, 99),
        "experiments.csv_bytes": sum(csvs.values()),
        "digraph.spectral_data_s": total("digraph.spectral_data"),
        "algorithms.dextra_step_us.p50": us("algorithms.dextra_step", 50),
        "algorithms.dextra_step_us.p99": us("algorithms.dextra_step", 99),
        "algorithms.gradient_push_step_us.p50": us("algorithms.gradient_push_step", 50),
        "algorithms.gradient_push_step_us.p99": us("algorithms.gradient_push_step", 99),
        "algorithms.write_trace_csv_s": total("algorithms.write_trace_csv"),
        "analysis.build_profile_s": total("analysis.build_profile"),
        "analysis.push_sum_extremes_s": total("analysis.push_sum_extremes"),
        "analysis.rho_G_us": us("analysis.spectral_radius", 50),
        "analysis.residual_slope_us": us("analysis.residual_slope", 50),
    })
    return out, table


def _algorithm(run_span) -> str:
    out = run_span[OUTCOME]
    if isinstance(out, algorithms.Trace):
        return out.algorithm
    return run_span[ARGS][0]  # a diverged run: the name it was called with


def end_to_end(phases: list[dict], peak_rss_mb: float) -> dict[str, float]:
    """Run-level end-to-end values from untraced repetitions.

    ``setup_s`` is the median over the repetitions.  The other times are
    means, and the rate is total agent iterations over total engine time.
    On a shared 2-core virtual machine, throughput switches between states
    1.3-2x apart, each lasting from about a second to over a minute, and
    the share of repetitions in each state changes from run to run.  A median jumps between the states as
    that share crosses one half; a mean moves in proportion to it, so its
    run-to-run spread is smaller.
    """
    solve = sum(ph["solve_s"] for ph in phases)
    return {
        "setup_s": median([ph["setup_s"] for ph in phases]),
        "solve_s": solve / len(phases),
        "wall_s": sum(ph["wall_s"] for ph in phases) / len(phases),
        "agent_iters_per_s": sum(ph["agent_iters"] for ph in phases) / solve if solve else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(traced: list[dict]) -> dict[str, float]:
    """Run-level value of every per-layer metric from traced repetitions."""
    out = {}
    for name, unit in {**units("per_layer"), **DETAIL_ONLY}.items():
        values = [m[name] for m in traced if name in m]
        if not values:
            continue
        out[name] = values[0] if unit in EXACT_UNITS else median(values)
    return out
