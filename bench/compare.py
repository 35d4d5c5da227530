"""Compare two result sets of the benchmark, per workload and end-to-end metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Inputs are the JSON-lines files written by ``collect.py``.  Runs are paired
by workload and seed.  For each metric the table gives each side's median
and quartiles, the pairs the change won (ties count for neither side) and a
verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ, in its favour, by more than the parent's interquartile spread;
* ``no worse``: the change's median is not worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``, and the parent's spread is
  within that bound (or every change run beats every parent run);
* ``unresolved``: the parent's spread is wider than the bound;
* ``worse``: the change's median is worse by more than the bound.

A gain does not count when the change fails more operations than the
parent, or fails a larger share of them with the known certification
defect; such rows are marked.  A workload fails outright, with no
verdicts, when a run on either side has no result or is not correct, or
when the two sides did not run the same seeds.  Exit status 1 on any
``worse``, ``unresolved`` or failed workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from collect import load_benchmark, quartiles

HERE = Path(__file__).resolve().parent


def load(path: Path) -> dict[tuple[str, int], dict]:
    """Every record of ``path`` by (workload, seed), the last one winning."""
    return {(rec["workload"], rec["seed"]): rec
            for rec in map(json.loads, path.read_text().splitlines())}


def problems(workload: str, parent: dict, change: dict) -> list[str]:
    """Why ``workload``'s runs cannot be compared; empty when they can."""
    out = []
    seeds = {side: {s for w, s in runs if w == workload}
             for side, runs in (("parent", parent), ("change", change))}
    for side, other in (("parent", "change"), ("change", "parent")):
        missing = sorted(seeds[other] - seeds[side])
        if missing:
            out.append(f"{side} lacks seeds {missing}")
    for side, runs in (("parent", parent), ("change", change)):
        for s in sorted(seeds[side]):
            rec = runs[(workload, s)]
            res = rec.get("result")
            if rec.get("exit") != 0 or not res or not res["correct"]:
                out.append(f"{side} seed {s}: exit {rec.get('exit')}, "
                           f"correct {res and res['correct']}")
    return out


def known_share(runs: list[dict]) -> float:
    """Share of attempted operations that hit the known certification defect."""
    known = sum(rec.get("failures", {}).get("known", 0) for rec in runs)
    return known / max(sum(rec["result"]["attempted"] for rec in runs), 1)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, int, int]:
    """Verdict for parent values ``a`` and change values ``b`` (paired)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    pairs = len(a)
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma)
    if wins >= 0.9 * pairs and gain > qa3 - qa1:
        return "improved", wins, pairs
    if (qa3 - qa1) > bound * abs(ma):
        all_better = min(sign * y for y in b) > max(sign * x for x in a)
        return ("no worse" if all_better else "unresolved"), wins, pairs
    if -gain > bound * abs(ma):
        return "worse", wins, pairs
    return "no worse", wins, pairs


def _quartiles(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    bench = load_benchmark(HERE.parent)
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':14s} {'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'won':>6s}  verdict")
    worst = 0
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        found = problems(workload, parent, change)
        if found:
            worst = 1
            print(f"{workload:14s} FAILED: " + "; ".join(found))
            continue
        seeds = sorted(s for w, s in parent if w == workload)
        runs_a = [parent[(workload, s)] for s in seeds]
        runs_b = [change[(workload, s)] for s in seeds]
        more_failed = (
            sum(r["result"]["failed"] for r in runs_b) > sum(r["result"]["failed"] for r in runs_a)
            or known_share(runs_b) > known_share(runs_a))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            b = [r["result"]["metrics"][name]["value"] for r in runs_b]
            result, wins, pairs = verdict(a, b, metric["better"], metric["bound"])
            if result == "improved" and more_failed:
                result = "improved, but more failed operations"
            worst = max(worst, result in ("worse", "unresolved"))
            print(f"{workload:14s} {name:18s} {_quartiles(a):>34s} {_quartiles(b):>34s} "
                  f"{wins:>2d}/{pairs:<3d}  {result}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
