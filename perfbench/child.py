"""Run one battery through ``amdiscnt.experiment.main`` and report on it.

Usage: ``python3 child.py --config PATH --out DIR --report PATH [--trace]``

The battery runs in this process exactly as the ``amdiscnt`` command
would run it. One wrapper around ``run_simulation`` digests each run's
per-round history as it returns; the time spent hashing is reported so
the caller can take it out of the wall time. With ``--trace``, the public
functions of every layer are wrapped by name as well (see ``Tracer``).
A function that no longer exists is listed as absent, never fatal.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import struct
import sys
import time
from collections import defaultdict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ROUND_FIELDS = ("round_index", "alive", "dead", "packets_sent_to_bs", "packets_received_by_bs",
                "ch_count", "mean_delay", "total_residual_energy", "energy_spent")
_ROUND = struct.Struct("<6q3d")
_MILESTONES = ("first_node_death", "half_nodes_death", "last_node_death")


def history_digest(result) -> tuple[str, int, int]:
    """SHA-256 of a run's per-round history and milestones.

    Returns ``(hex digest, rounds, alive node-rounds)``. Only the fields
    named in ``ROUND_FIELDS`` enter the digest, so new fields added to the
    round record later leave it unchanged.
    """
    h = hashlib.sha256()
    alive = 0
    rounds = 0
    for m in result.per_round:
        values = [getattr(m, f) for f in ROUND_FIELDS]
        h.update(_ROUND.pack(*values))
        alive += values[1]
        rounds += 1
    h.update(repr([getattr(result, f) for f in _MILESTONES]).encode())
    return h.hexdigest(), rounds, alive


class HistoryHook:
    """Digest every finished run; optionally alter one history first."""

    def __init__(self, alter_first: bool = False):
        self.runs: list[dict] = []
        self.hash_s = 0.0
        self.alter_first = alter_first

    def wrap(self, fn):
        def run_simulation(config, kind, *args, **kwargs):
            result = fn(config, kind, *args, **kwargs)
            start = time.perf_counter()
            digested = result
            if self.alter_first and not self.runs and result.per_round:
                digested = _altered(result)
            digest, rounds, alive = history_digest(digested)
            self.runs.append({"protocol": result.protocol, "seed": config.seed,
                              "n_nodes": config.n_nodes, "rounds": rounds,
                              "alive_node_rounds": alive, "sha256": digest})
            self.hash_s += time.perf_counter() - start
            return result
        return run_simulation


def _altered(result):
    """A copy of ``result`` whose first round reports one more alive node."""
    first = dataclasses.replace(result.per_round[0], alive=result.per_round[0].alive + 1)
    return dataclasses.replace(result, per_round=(first,) + tuple(result.per_round[1:]))


# (module, attribute, span name) wrapped with a timer. A layer's time is the
# span's total; self time is the total minus the spans nested inside it.
SPANS = (
    ("experiment", "build_spec", "experiment.build_spec"),
    ("experiment", "run_simulation", "engine.run_simulation"),
    ("experiment", "aggregate_runs", "stats.aggregate_runs"),
    ("experiment", "emit_tables", "experiment.emit_tables"),
    ("experiment", "validate_config", "model.validate_config"),
    ("engine", "validate_config", "model.validate_config"),
    ("engine", "deploy", "deployment.deploy"),
    ("engine", "DistanceCache", "protocols.DistanceCache"),
    ("engine", "elect_chs_amdiscnt", "protocols.elect"),
    ("engine", "elect_chs_leach", "protocols.elect"),
    ("engine", "elect_chs_deec", "protocols.elect"),
    ("engine", "build_plan", "protocols.build_plan"),
    ("engine", "run_round", "engine.run_round"),
)
# (module, attribute, counter name) wrapped with a call counter only.
COUNTERS = (
    ("engine", "tx_cost", "energy.tx_cost"),
    ("protocols", "tx_cost", "energy.tx_cost"),
    ("protocols", "select_relay", "protocols.select_relay"),
)


class Tracer:
    """Span timers and call counters installed on module attributes by name.

    Spans and counts are attributed to the protocol of the enclosing
    ``run_simulation`` call, or of the runs handed to ``aggregate_runs``.
    """

    def __init__(self):
        self.protocol: str | None = None
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts: dict[str, list[int]] = {}
        self.count_by_protocol = defaultdict(int)
        self.absent: list[str] = []
        self._stack = [0.0]

    def install(self, modules: dict) -> None:
        for module_name, attr, span in SPANS:
            self._patch(modules, module_name, attr, lambda fn, s=span: self._span(s, fn))
        for module_name, attr, counter in COUNTERS:
            self._patch(modules, module_name, attr,
                        lambda fn, c=counter: self._counter(c, fn))

    def _patch(self, modules, module_name, attr, make) -> None:
        module = modules.get(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module_name}.{attr}")
            return
        wrapped = make(fn)
        if attr == "run_simulation":
            wrapped = self._simulation(wrapped)
        elif attr == "aggregate_runs":
            wrapped = self._aggregation(wrapped)
        setattr(module, attr, wrapped)

    def _span(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                key = (name, self.protocol)
                self.total[key] += elapsed
                self.self_time[key] += elapsed - nested
                self.calls[key] += 1
        return span

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return counted

    def _simulation(self, fn):
        def run_simulation(config, kind, *args, **kwargs):
            self.protocol = getattr(kind, "name", str(kind))
            before = {name: cell[0] for name, cell in self.counts.items()}
            try:
                return fn(config, kind, *args, **kwargs)
            finally:
                for name, cell in self.counts.items():
                    self.count_by_protocol[(name, self.protocol)] += cell[0] - before[name]
                self.protocol = None
        return run_simulation

    def _aggregation(self, fn):
        def aggregate_runs(results, *args, **kwargs):
            self.protocol = getattr(results[0], "protocol", None) if results else None
            try:
                return fn(results, *args, **kwargs)
            finally:
                self.protocol = None
        return aggregate_runs

    def report(self) -> dict:
        return {
            "spans": [{"name": n, "protocol": p, "total_s": self.total[(n, p)],
                       "self_s": self.self_time[(n, p)], "calls": self.calls[(n, p)]}
                      for n, p in self.total],
            "counts": [{"name": n, "protocol": p, "calls": c}
                       for (n, p), c in self.count_by_protocol.items()],
            "absent": self.absent,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--alter-first-history", action="store_true",
                        help="self-test: digest a deliberately altered first history")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    from amdiscnt import engine, experiment, protocols

    hook = HistoryHook(alter_first=args.alter_first_history)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install({"engine": engine, "experiment": experiment, "protocols": protocols})
    experiment.run_simulation = hook.wrap(experiment.run_simulation)
    code = experiment.main(["--config", args.config, "--out", args.out])
    report = {"exit": code, "runs": hook.runs, "hash_s": hook.hash_s}
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
