"""Seconds-long self-test of the benchmark harness.

Usage (from the repository root): ``python3 perfbench/selftest.py``

It runs the ``smoke`` workload (n=20, 50 rounds) through every path of
``run.py``: untraced with set-up timing, traced, and the digest check.
It then checks that a deliberately altered history counts as a failure,
that tracing tolerates a missing function, and that the benchmark fails
without printing a result when the program is not there. Exits non-zero
on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types

from child import Tracer
from run import WORK, layer_metrics
from workloads import BENCH_DIR, ROOT

RUN = os.path.join(BENCH_DIR, "run.py")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}

    code, lines = bench("--workload", "smoke", "--seconds", "1", "--trace", "0")
    result = result_of(lines)
    check(code == 0 and result["correct"] and result["failed"] == 0,
          "untraced smoke run reproduces every reference digest")
    check(set(result["metrics"]) == end_to_end, "untraced run reports every end-to-end metric")
    check(result["metrics"]["setup_s"]["value"] > 0, "set-up time is measured")

    code, lines = bench("--workload", "smoke", "--seconds", "1", "--trace", "1")
    result = result_of(lines)
    check(code == 0 and result["correct"], "traced smoke run reproduces every reference digest")
    check(set(result["metrics"]) == layers, "traced run reports every per-layer metric")
    check(result["metrics"]["engine.rounds.amdiscnt"]["value"] == 50,
          "engine.rounds matches the smoke horizon")

    code, lines = bench("--workload", "smoke", "--seconds", "0", "--trace", "0",
                        "--alter-first-history")
    result = result_of(lines)
    check(code != 0 and not result["correct"] and result["failed"] >= 1,
          "an altered history is counted as a failed run")

    namespace = types.SimpleNamespace(build_plan=lambda *a: None)
    tracer = Tracer()
    tracer.install({"engine": namespace})
    check("engine.DistanceCache" in tracer.absent and "experiment.emit_tables" in tracer.absent,
          "tracing lists missing functions as absent instead of failing")
    metrics = layer_metrics({"runs": [], "trace": tracer.report()})
    check("protocols.distance_cache_ms" not in metrics,
          "metrics of absent functions are left out")

    bare = os.path.join(WORK, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, lines = bench("--workload", "smoke", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    check(code != 0 and not any(line.startswith("{") for line in lines),
          "without the program the benchmark fails and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
