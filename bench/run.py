"""Benchmark of the dirgraphopt simulator; run it from the repository root.

    python3 bench/run.py --workload fig1-compare --seed 1 --seconds 20 --trace 0

Repeats one workload (see ``workloads.WORKLOADS``) for about ``--seconds``
seconds after a small warm-up, checks every repetition's outputs, and prints
as its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` repetitions alternate untraced and traced on the same inputs,
and the metrics are the per-layer ones plus the tracing overhead.  Lines
before the result describe the environment, every failed check, and (traced)
a per-function table.  Full details, and the spans of a traced run, go to
``.bench_out/<workload>/``.

Every repetition of a run uses the graph and data of ``--seed``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: seed kept out of tuning; a claimed gain is confirmed on it last
HELD_OUT_SEED = 9001

#: repetitions (pairs when traced) a run makes even past ``--seconds``,
#: unless that would exceed ``CAP`` times ``--seconds``
MIN_REPS = {False: 3, True: 1}
CAP = 3.0


def pin_environment() -> None:
    """Single-threaded BLAS and the package's serial sweep; call before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("DIRGRAPH_OPT_THREADS", None)


def import_package():
    """Import ``dirgraphopt`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "dirgraphopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no dirgraphopt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dirgraphopt

    if Path(dirgraphopt.__file__).resolve().parent != SRC / "dirgraphopt":
        raise SystemExit(f"error: imported dirgraphopt from {dirgraphopt.__file__}")
    return dirgraphopt


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the build-info layout varies across numpy versions
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        **{v: os.environ.get(v) for v in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DIRGRAPH_OPT_THREADS")},
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload for about ``seconds``; return the result and details."""
    import dirgraphopt
    import metrics
    import workloads
    from tracing import Tracer

    w = workloads.WORKLOADS[name]
    if scale == "tiny":
        w = workloads.tiny(w)
    tracer = Tracer(dirgraphopt)
    out_root = OUT / name
    gate = workloads.Gate()
    failures: list = []
    attempted = 0
    untraced, traced, pairs, layer_rows, tables = [], [], [], [], []

    def attempt(with_trace: bool):
        nonlocal attempted
        offset = len(tracer.spans)
        try:
            rep = workloads.run_rep(w, seed, tracer, out_root, with_trace)
            gate.check(w, rep)
        except Exception:
            attempted += 1
            failures.append(workloads.Failure(
                "workload", f"repetition on seed {seed} raised", traceback.format_exc()))
            del tracer.spans[offset:]
            return None
        attempted += rep.ops
        failures.extend(rep.failures)
        return rep

    tracer.rep = -1
    try:  # warm-up: imports, lazy set-up and caches; not timed or counted
        workloads.run_rep(workloads.tiny(w), seed, tracer, out_root, trace)
    except Exception:
        print("# warm-up raised:\n" + traceback.format_exc(), file=sys.stderr)
    del tracer.spans[:]

    start = time.perf_counter()
    i = 0
    while True:
        pair = []
        for with_trace in (False, True) if trace else (False,):
            tracer.rep = 2 * i + with_trace
            rep = attempt(with_trace)
            if rep is None:
                continue
            phases = workloads.phases(rep, w.n)
            pair.append(phases)
            if with_trace:
                layer, table = metrics.layer_metrics(w, rep)
                traced.append(phases)
                layer_rows.append(layer)
                tables.append(table)
                tracer.release(rep.offset)
            else:
                untraced.append(phases)
                # untraced spans only delimit phases; keeping them, with the
                # arrays they hold, would grow the peak RSS with each repetition
                del tracer.spans[rep.offset:]
            # a kept exception's traceback ties up the frames and arrays of
            # the calls it passed through; free them before the next one
            gc.collect()
        if len(pair) == 2:
            pairs.append(pair)
        i += 1
        elapsed = time.perf_counter() - start
        projected = elapsed * (i + 1) / i
        if (i >= MIN_REPS[trace] and projected > seconds) or projected > CAP * seconds:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not f.known for f in failures)
    succeeded = untraced and (traced or not trace)
    if trace:
        values = metrics.per_layer(layer_rows)
        overheads = [t["wall_s"] - u["wall_s"] for u, t in pairs]
        if overheads:
            values["trace.overhead_s"] = metrics.median(overheads)
        values["ops_failed_frac"] = len(failures) / max(attempted, 1)
        wanted = metrics.units("per_layer")
    else:
        values = metrics.end_to_end(untraced, peak_rss_mb) if succeeded else {}
        wanted = metrics.units("end_to_end")
    result = {
        "correct": bool(succeeded) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items() if k in values},
    }
    detail_units = dict(metrics.DETAIL_ONLY)
    return {
        "result": result,
        "succeeded": bool(succeeded),
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "repetitions": {"untraced": untraced, "traced": traced},
        "detail": {k: {"value": v, "unit": detail_units[k]}
                   for k, v in values.items() if k in detail_units},
        "functions": tables[0] if tables else {},
        "failures": [vars(f) for f in failures],
        "known_failed": len(failures) - failed,
        "env": environment(seed),
        "tracer": tracer,
    }


def report(res: dict) -> None:
    """Human-readable lines before the result line; details to .bench_out."""
    out_dir = OUT / res["workload"]
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = res.pop("tracer")
    stem = f"seed{res['seed']}-trace{res['trace']}"
    if res["trace"]:
        tracer.write_csv(out_dir / f"spans-{stem}.csv")
    (out_dir / f"result-{stem}.json").write_text(json.dumps(res, indent=1, default=str))
    print("# env " + json.dumps(res["env"]))
    reps = res["repetitions"]
    print(f"# {res['workload']}: {len(reps['untraced'])} untraced and "
          f"{len(reps['traced'])} traced repetitions in {res['elapsed_s']:.1f} s")
    for f in res["failures"]:
        kind = "known failure" if f["known"] else "FAILED"
        error = f" | {f['error'].strip().splitlines()[-1]}" if f["error"] else ""
        print(f"# {kind}: {f['op']}: {f['reason']}{error}")
    # the result line's keys are fixed, so the count of known failures,
    # which is not in its ``failed``, goes on the line before it
    print("# failures " + json.dumps({"failed": res["result"]["failed"],
                                      "known": res["known_failed"]}))
    if res["trace"]:
        print(f"# {'function (first traced repetition)':42s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for fname, row in sorted(res["functions"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"# {fname:42s} {row['calls']:7d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
        for key, m in {**res["detail"], **res["result"]["metrics"]}.items():
            print(f"# {key} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    pin_environment()
    import_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 10**12 or args.seconds <= 0:
        parser.error("need 0 <= --seed < 1e12 and --seconds > 0")
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(res)
    if not res["succeeded"]:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
