"""Workload definitions, seed mapping and reference checking for the benchmark.

A workload is a battery: one invocation of the ``amdiscnt`` command line
entry point on a generated configuration file. The configuration is made
from the workload's fixed settings plus a list of run seeds derived from
the benchmark's ``--seed`` argument, so the program receives only the
generated file.

Reference digests (``reference.json``, written by ``record.py``) hold a
SHA-256 of every (workload, protocol, run seed) per-round history and of
every output file of every battery in the seed pool. A battery run is
checked against them run by run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

# Seed bases with recorded references are POOL_START .. POOL_START + POOL_SIZE - 1.
# ``--seed n`` selects base POOL_START + n % POOL_SIZE, so the default 42 is base 42.
POOL_START = 32
POOL_SIZE = 32
DEFAULT_SEED = 42
PROTOCOLS = ("amdiscnt", "leach", "deec")


@dataclass(frozen=True)
class Workload:
    name: str
    settings: dict[str, str]
    seeds_per_battery: int


# Why each workload exists is in README.md. Horizons sit below the shortest
# amdiscnt and leach lifetime in the seed pool, so every seed base simulates
# nearly the same number of rounds and the seed alone does not move the timings.
WORKLOADS = {w.name: w for w in (
    Workload("table1_battery", {"network.max_rounds": "2400"}, 1),
    Workload("dense_n400", {"network.n_nodes": "400", "network.max_rounds": "150"}, 1),
    Workload("smoke", {"network.n_nodes": "20", "network.max_rounds": "50"}, 1),
)}


def seed_base(seed: int) -> int:
    """Map the benchmark's ``--seed`` onto a seed base with recorded references."""
    return POOL_START + seed % POOL_SIZE


def run_seeds(workload: Workload, base: int) -> list[int]:
    return [base + i for i in range(workload.seeds_per_battery)]


def config_text(workload: Workload, base: int, setup: bool = False) -> str:
    """INI text for one battery; ``setup`` sets ``network.max_rounds = 0``."""
    settings = dict(workload.settings)
    if setup:
        settings["network.max_rounds"] = "0"
    settings["experiment.protocols"] = ",".join(PROTOCOLS)
    settings["experiment.seeds"] = ",".join(str(s) for s in run_seeds(workload, base))
    sections: dict[str, list[str]] = {}
    for key, value in settings.items():
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(f"{name} = {value}")
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(entries)
        lines.append("")
    return "\n".join(lines)


def file_digests(out_dir: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def verify(report: dict, reference: dict, workload: Workload, base: int,
           setup: bool = False) -> tuple[int, int, list[str]]:
    """Check one battery against the reference.

    ``report`` is what ``child.py`` wrote plus ``outputs`` (file digests).
    Every (protocol, seed) run of the battery is one attempt. A run fails
    when the battery exited non-zero, when its history digest or round
    count differs from the reference, or when any output file differs.
    Returns ``(attempted, failed, problems)``.
    """
    expected_runs = [(p, s) for p in PROTOCOLS for s in run_seeds(workload, base)]
    ref = reference["workloads"][workload.name]
    problems: list[str] = []
    outputs_ok = True
    if report.get("exit") != 0:
        problems.append(f"battery exited with {report.get('exit')}")
        outputs_ok = False
    else:
        want = ref["setup_outputs" if setup else "outputs"][str(base)]
        got = report.get("outputs", {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append(f"output {name} differs from the reference")
                outputs_ok = False
    runs = {(r["protocol"], r["seed"]): r for r in report.get("runs", [])}
    failed = 0
    for protocol, seed in expected_runs:
        run = runs.get((protocol, seed))
        want = ref["histories"].get(f"{protocol}:{seed}")
        if setup:
            ok = run is not None and run["rounds"] == 0
        else:
            ok = (run is not None and want is not None and run["sha256"] == want["sha256"]
                  and run["rounds"] == want["rounds"])
            if not ok:
                problems.append(f"history {protocol}:{seed} differs from the reference")
        if not (ok and outputs_ok):
            failed += 1
    return len(expected_runs), failed, problems
