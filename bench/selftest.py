"""Self-test of the benchmark at tiny sizes (not part of the test suite).

    python3 bench/selftest.py

Runs every workload once untraced and once traced at reduced sizes and
checks that the result line has the contract's shape, that every metric in
``BENCHMARK.json`` is emitted with its unit, that the traced run reports a
self time for every layer and every number of ``metrics.DETAIL_ONLY``,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

def check(ok: bool, message: str, problems: list[str]) -> None:
    if not ok:
        problems.append(message)


def check_result(res: dict, bench: dict, trace: bool, problems: list[str]) -> None:
    import metrics
    from tracing import LAYERS

    name = f"{res['workload']} trace={int(trace)}"
    result = res["result"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{name}: result keys {sorted(result)}", problems)
    check(result["correct"] is True, f"{name}: not correct: {res['failures']}", problems)
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{name}: attempted {result['attempted']!r}", problems)
    check(isinstance(result["failed"], int), f"{name}: failed {result['failed']!r}", problems)
    json.loads(json.dumps(result, allow_nan=False))
    listed = bench["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    check([m["name"] for m in listed] == list(emitted),
          f"{name}: metrics {sorted(set(emitted) ^ {m['name'] for m in listed})} "
          "differ from BENCHMARK.json", problems)
    for m in listed:
        got = emitted.get(m["name"])
        if got is None:
            continue
        check(got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}", problems)
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{name}: {m['name']} = {value!r}", problems)
        if not trace:
            check(value > 0, f"{name}: {m['name']} = {value!r} is not positive", problems)
    if trace:
        for layer in LAYERS:
            value = emitted.get(f"{layer}.self_s", {}).get("value", 0)
            check(value > 0, f"{name}: no self time for layer {layer}", problems)
        for key, unit in metrics.DETAIL_ONLY.items():
            check(res["detail"].get(key, {}).get("unit") == unit,
                  f"{name}: {key} not reported with unit {unit}", problems)


def check_bare_directory(problems: list[str]) -> None:
    """Without the package source the benchmark must fail without a result."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "fig1-compare", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}",
              problems)


def main() -> int:
    run.pin_environment()
    run.import_package()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for w in bench["workloads"]:
        for trace in (False, True):
            res = run.measure(w["name"], seed=1, seconds=0.1, trace=trace, scale="tiny")
            res.pop("tracer")
            check_result(res, bench, trace, problems)
    run.OUT.mkdir(exist_ok=True)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
