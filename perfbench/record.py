"""Record the reference digests that every benchmark run is checked against.

Usage (from the repository root):

    python3 perfbench/record.py [WORKLOAD ...]

For every workload and every seed base of the pool it runs the battery
and its ``max_rounds = 0`` set-up variant once, then writes the SHA-256
of each (protocol, run seed) history and of each output file to
``reference.json``. A run seed shared by two batteries must digest the
same in both. Re-record only when a change is meant to alter outputs,
and say which outputs changed and why.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

from run import WORK, run_child
from workloads import (
    POOL_SIZE,
    POOL_START,
    REFERENCE_PATH,
    WORKLOADS,
    config_text,
    load_reference,
)


def record_battery(name: str, base: int, setup: bool) -> tuple[str, int, bool, dict]:
    job = os.path.join(WORK, f"record-{name}-{base}-{int(setup)}")
    os.makedirs(job, exist_ok=True)
    try:
        config = os.path.join(job, "config.ini")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(config_text(WORKLOADS[name], base, setup=setup))
        report = run_child(config, os.path.join(job, "out"), os.path.join(job, "report.json"))
    finally:
        shutil.rmtree(job, ignore_errors=True)
    if report["exit"] != 0:
        raise RuntimeError(f"{name} base {base} setup={setup} exited with {report['exit']}")
    return name, base, setup, report


def main() -> int:
    parser = argparse.ArgumentParser(description="record benchmark reference digests")
    parser.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = parser.parse_args()

    reference = (load_reference() if os.path.exists(REFERENCE_PATH)
                 else {"pool": [POOL_START, POOL_START + POOL_SIZE - 1], "workloads": {}})
    tasks = [(name, base, setup) for name in args.workloads
             for base in range(POOL_START, POOL_START + POOL_SIZE) for setup in (False, True)]
    entries = {name: {"histories": {}, "outputs": {}, "setup_outputs": {}}
               for name in args.workloads}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, base, setup, report in pool.map(lambda t: record_battery(*t), tasks):
            entry = entries[name]
            entry["setup_outputs" if setup else "outputs"][str(base)] = report["outputs"]
            if setup:
                continue
            for run in report["runs"]:
                key = f"{run['protocol']}:{run['seed']}"
                value = {"rounds": run["rounds"], "sha256": run["sha256"]}
                if entry["histories"].setdefault(key, value) != value:
                    raise RuntimeError(f"{name} {key} digested differently in two batteries")
            print(f"recorded {name} base {base}", flush=True)
    for entry in entries.values():
        entry["histories"] = dict(sorted(entry["histories"].items()))
    reference["workloads"].update(entries)
    reference["workloads"] = dict(sorted(reference["workloads"].items()))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
