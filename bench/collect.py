"""Run the benchmark over several seeds and workloads and summarize the spread.

    python3 bench/collect.py --seeds 1-10 --out .bench_out/A.jsonl
    python3 bench/collect.py --seeds 1-10 --root ../parent --out P.jsonl \\
        --root . --out C.jsonl

Each run is ``python3 bench/run.py`` in its checkout; its result line is
appended to the matching ``--out`` file as one JSON record.  With two
checkouts, each seed runs on both, alternating which goes first.  Runs are
untraced and last ``run_seconds`` from ``BENCHMARK.json``.  The summary
gives, per workload and end-to-end metric, the median, the quartiles and
the interquartile spread as a share of the median, against the metric's
bound in ``BENCHMARK.json``.  Exit status 1 if a run failed or a spread
reached its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "root": str(root), "exit": proc.returncode,
              "elapsed_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr"] = proc.stderr[-2000:]
    for key, prefix in (("env", "# env "), ("failures", "# failures ")):
        found = [ln for ln in lines if ln.startswith(prefix)]
        if found:
            record[key] = json.loads(found[0][len(prefix):])
    return record


def values_by_workload(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for rec in records:
        res = rec.get("result")
        if not res:
            continue
        per = out.setdefault(rec["workload"], {})
        for name, m in res["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return out


def summarize(records: list[dict], bench: dict) -> bool:
    """Print the spread table; True when every spread is within its bound."""
    ok = True
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for rec in records:
        res = rec.get("result")
        if rec["exit"] != 0 or not res or not res["correct"]:
            ok = False
            print(f"FAILED run: {rec['workload']} seed {rec['seed']} exit {rec['exit']}"
                  f" {rec.get('stderr', '')[-300:]}")
    print(f"{'workload':14s} {'metric':18s} {'runs':>4s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for workload, per in values_by_workload(records).items():
        for name, values in per.items():
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread >= bound:
                    flag, ok = "OVER", False
                elif spread >= bound / 3:
                    flag = "wide"
            print(f"{workload:14s} {name:18s} {len(values):4d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.3f} {bound if bound is not None else '':>6} {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--root", action="append", type=Path, default=None,
                        help="checkout to run in (repeat for two; default: this one)")
    parser.add_argument("--out", action="append", type=Path, required=True,
                        help="JSON-lines file per --root")
    args = parser.parse_args(argv)
    roots = [r.resolve() for r in (args.root or [HERE.parent])]
    if len(roots) != len(args.out) or len(roots) > 2:
        parser.error("give one --out per --root, at most two")
    bench = load_benchmark(roots[-1])
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    records: list[list[dict]] = [[] for _ in roots]
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = list(range(len(roots)))
            if i % 2:
                order.reverse()
            for k in order:
                rec = run_once(roots[k], workload, seed, seconds)
                records[k].append(rec)
                args.out[k].parent.mkdir(parents=True, exist_ok=True)
                with open(args.out[k], "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(rec) + "\n")
                print(f"{roots[k].name}: {workload} seed {seed}: exit {rec['exit']} "
                      f"in {rec['elapsed_s']:.1f} s", flush=True)
    ok = True
    for root, recs in zip(roots, records):
        print(f"\n== {root}")
        ok &= summarize(recs, bench)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
