"""Benchmark of the amdiscnt simulator: one battery per workload, timed end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload table1_battery --seed 42 --seconds 40 --trace 0

Each repetition runs the workload's battery as its own process through
``amdiscnt.experiment.main`` and checks every history and output file
against ``reference.json``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced batteries and reports the
per-layer metrics. The last line of standard output is one JSON object.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import (
    BENCH_DIR,
    DEFAULT_SEED,
    PROTOCOLS,
    REFERENCE_PATH,
    ROOT,
    SRC,
    WORKLOADS,
    config_text,
    file_digests,
    load_reference,
    run_seeds,
    seed_base,
    verify,
)

CHILD = os.path.join(BENCH_DIR, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_REPS = 3
SETUPS_PER_REP = 1
CHILD_TIMEOUT_S = 60.0  # a battery takes seconds; a hung one must not outlast the run
RUN_LIMIT_S = 100.0  # no repetition starts if it would likely end after this
# Direct children of run_simulation; with its self time they make up its total.
SIMULATION_CHILDREN = ("model.validate_config", "deployment.deploy", "protocols.DistanceCache",
                       "protocols.elect", "protocols.build_plan", "engine.run_round")


def calibrate() -> float:
    """Seconds for a fixed stdlib-only loop; recorded to show host drift, never used to scale."""
    start = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i % 997] = table.get(i % 997, 0) + acc
    return time.perf_counter() - start


def run_child(config: str, out_dir: str, report_path: str, *, trace: bool = False,
              alter: bool = False) -> dict:
    """Run one battery in its own process; return its report, wall time and peak RSS."""
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [sys.executable, CHILD, "--config", config, "--out", out_dir, "--report", report_path]
    if trace:
        cmd.append("--trace")
    if alter:
        cmd.append("--alter-first-history")
    start = time.perf_counter()
    # A fixed hash seed keeps string hashing, and with it dict layout, the same in every battery.
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, env={**os.environ, "PYTHONHASHSEED": "0"})
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = {"exit": proc.returncode}
    if proc.returncode == 0:
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        report["outputs"] = file_digests(out_dir)
    report["wall_s"] = elapsed - report.get("hash_s", 0.0)
    report["maxrss_kb"] = usage.ru_maxrss
    return report


class Session:
    """One benchmark invocation: a workload, a seed base and a scratch directory."""

    def __init__(self, workload_name: str, seed: int, alter: bool = False):
        self.workload = WORKLOADS[workload_name]
        self.base = seed_base(seed)
        self.reference = load_reference()
        self.alter = alter
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.dir = os.path.join(WORK, f"{workload_name}-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.configs = {}
        for setup in (False, True):
            path = os.path.join(self.dir, "setup.ini" if setup else "battery.ini")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(config_text(self.workload, self.base, setup=setup))
            self.configs[setup] = path
        histories = self.reference["workloads"][workload_name]["histories"]
        self.rounds = {p: sum(histories[f"{p}:{s}"]["rounds"]
                              for s in run_seeds(self.workload, self.base))
                       for p in PROTOCOLS}

    def battery(self, *, setup: bool = False, trace: bool = False) -> dict:
        report = run_child(self.configs[setup], os.path.join(self.dir, "out"),
                           os.path.join(self.dir, "report.json"), trace=trace,
                           alter=self.alter and not setup)
        attempted, failed, problems = verify(report, self.reference, self.workload, self.base,
                                             setup=setup)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        return report

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def measure(session: Session, seconds: float, trace: bool) -> dict:
    """Repeat batteries until ``seconds`` have passed; return raw samples."""
    session.battery(setup=True)  # warm-up: bytecode compiled, files cached; checked, not timed
    samples: dict[str, list] = {"calib_s": [], "setup_s": [], "wall_s": [], "rss_mb": [],
                                "traced_wall_s": [], "traces": []}
    start = time.perf_counter()
    longest = 0.0
    samples["calib_s"].append(calibrate())
    while True:
        rep_start = time.perf_counter()
        if not trace:
            for _ in range(SETUPS_PER_REP):
                samples["setup_s"].append(session.battery(setup=True)["wall_s"])
        plain = session.battery()
        samples["wall_s"].append(plain["wall_s"])
        samples["rss_mb"].append(plain["maxrss_kb"] / 1024.0)
        if trace:
            traced = session.battery(trace=True)
            samples["traced_wall_s"].append(traced["wall_s"])
            samples["traces"].append(traced)
        samples["calib_s"].append(calibrate())
        now = time.perf_counter()
        longest = max(longest, now - rep_start)
        reps = len(samples["wall_s"])
        if now - start >= seconds and reps >= (2 if trace else MIN_REPS):
            break
        if now - start + longest > RUN_LIMIT_S:
            break
    return samples


def end_to_end(session: Session, samples: dict) -> dict:
    total_rounds = sum(session.rounds.values())
    return {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "rounds_per_s": (statistics.median(total_rounds / w for w in samples["wall_s"]), "1/s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["rss_mb"]), "MB"),
    }


def layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced battery. Metrics of absent functions are left out."""
    trace = report.get("trace")
    if trace is None:
        return {}
    spans = {(s["name"], s["protocol"]): s for s in trace["spans"]}
    counts = {(c["name"], c["protocol"]): c["calls"] for c in trace["counts"]}
    span_names = {name for name, _ in spans}
    count_names = {name for name, _ in counts}
    rounds = {p: 0 for p in PROTOCOLS}
    alive = {p: 0 for p in PROTOCOLS}
    node_rounds = {p: 0 for p in PROTOCOLS}
    for run in report.get("runs", []):
        rounds[run["protocol"]] += run["rounds"]
        alive[run["protocol"]] += run["alive_node_rounds"]
        node_rounds[run["protocol"]] += run["n_nodes"] * run["rounds"]

    def total(name, protocol="*", field="total_s"):
        return sum(s[field] for (n, p), s in spans.items()
                   if n == name and (protocol == "*" or p == protocol))

    def calls(name):
        return sum(s["calls"] for (n, _), s in spans.items() if n == name)

    metrics: dict[str, tuple[float, str]] = {}
    per_round = (("protocols.plan_us_per_round", "protocols.build_plan", "total_s"),
                 ("engine.round_us_per_round", "engine.run_round", "total_s"),
                 ("protocols.elect_us_per_round", "protocols.elect", "total_s"),
                 ("engine.loop_self_us_per_round", "engine.run_simulation", "self_s"))
    for p in PROTOCOLS:
        if not rounds[p]:
            continue
        for metric, span, field in per_round:
            if span in span_names:
                metrics[f"{metric}.{p}"] = (total(span, p, field) / rounds[p] * 1e6, "us")
        if "energy.tx_cost" in count_names:
            metrics[f"energy.tx_cost_calls_per_round.{p}"] = (
                counts.get(("energy.tx_cost", p), 0) / rounds[p], "count")
        metrics[f"engine.alive_share.{p}"] = (alive[p] / node_rounds[p], "ratio")
        metrics[f"engine.rounds.{p}"] = (rounds[p], "count")
        if "stats.aggregate_runs" in span_names:
            metrics[f"stats.aggregate_ms.{p}"] = (total("stats.aggregate_runs", p) * 1e3, "ms")
    all_rounds = sum(rounds.values())
    if "protocols.select_relay" in count_names and all_rounds:
        relay_calls = sum(c for (n, _), c in counts.items() if n == "protocols.select_relay")
        metrics["protocols.select_relay_calls_per_round"] = (relay_calls / all_rounds, "count")
    for metric, span in (("deployment.deploy_ms", "deployment.deploy"),
                         ("protocols.distance_cache_ms", "protocols.DistanceCache")):
        if calls(span):
            metrics[metric] = (total(span) / calls(span) * 1e3, "ms")
    for metric, span in (("experiment.emit_ms", "experiment.emit_tables"),
                         ("experiment.build_spec_ms", "experiment.build_spec"),
                         ("model.validate_ms", "model.validate_config")):
        if span in span_names:
            metrics[metric] = (total(span) * 1e3, "ms")
    return metrics


def simulation_coverage(report: dict) -> float | None:
    """Share of traced run_simulation time covered by its child spans plus its self time."""
    spans = report.get("trace", {}).get("spans", [])
    sim = [s for s in spans if s["name"] == "engine.run_simulation"]
    if not sim:
        return None
    covered = sum(s["self_s"] for s in sim) + sum(
        s["total_s"] for s in spans
        if s["name"] in SIMULATION_CHILDREN and s["protocol"] is not None)
    return covered / sum(s["total_s"] for s in sim)


def per_layer(samples: dict) -> dict:
    per_rep = [layer_metrics(report) for report in samples["traces"]]
    metrics = {}
    for name in sorted(set().union(*per_rep)):
        measured = [m[name] for m in per_rep if name in m]
        metrics[name] = (statistics.median(value for value, _ in measured), measured[0][1])
    metrics["trace_overhead_pct"] = (
        (statistics.median(samples["traced_wall_s"]) / statistics.median(samples["wall_s"])
         - 1.0) * 100.0, "%")
    metrics["host.calib_ms"] = (statistics.median(samples["calib_s"]) * 1e3, "ms")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="amdiscnt simulator benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"selects the seed base (default {DEFAULT_SEED}); see README.md")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to keep repeating batteries")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--alter-first-history", action="store_true",
                        help="self-test: report one deliberately altered history")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "amdiscnt", "__init__.py")):
        print(f"error: no amdiscnt package under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(REFERENCE_PATH):
        print(f"error: missing {REFERENCE_PATH}; run record.py", file=sys.stderr)
        return 2

    session = Session(args.workload, args.seed, alter=args.alter_first_history)
    try:
        samples = measure(session, args.seconds, bool(args.trace))
    finally:
        session.close()

    metrics = per_layer(samples) if args.trace else end_to_end(session, samples)
    print(f"workload {args.workload}  seed base {session.base}  "
          f"repetitions {len(samples['wall_s'])}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    calib = [round(c * 1e3, 2) for c in samples["calib_s"]]
    print(f"  host calibration ms (before the first repetition and after each): {calib}")
    print(f"  wall_s per repetition: {[round(w, 4) for w in samples['wall_s']]}")
    if args.trace:
        coverage = [simulation_coverage(r) for r in samples["traces"]]
        print(f"  traced run_simulation time covered by layer spans + loop self: {coverage}")
        absent = sorted(set().union(*(r.get("trace", {}).get("absent", [])
                                      for r in samples["traces"])))
        if absent:
            print(f"  absent (not traced): {absent}")
    print(f"  failed_share {session.failed}/{session.attempted}")
    for problem in sorted(set(session.problems))[:20]:
        print(f"  FAILED: {problem}")

    correct = session.failed == 0 and session.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
