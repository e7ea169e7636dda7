"""End-to-end acceptance battery.

Ten numbered checks cover the benchmark scenario orderings, exact
bookkeeping rules, the statistics layer, reproducibility of the command
line front end, and a straight-line re-derivation of the round
accounting. Each check records one PASS/FAIL line; the verdicts replay
in an "acceptance criteria" section after the run.
"""

import dataclasses
import hashlib
import math
import time
from random import Random

import pytest

import conftest

from amdiscnt.deployment import assign_initial_energy, deploy
from amdiscnt.engine import run_round, run_simulation
from amdiscnt.experiment import main
from amdiscnt.model import (
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    RadioParams,
    crossover_distance,
    rx_cost,
    tx_cost,
)
from amdiscnt.protocols import DistanceCache, build_plan, elect_chs_amdiscnt
from amdiscnt.stats import confidence_interval, population_stddev

SEEDS = (42, 43, 44, 45, 46)
PROTOCOLS = ("amdiscnt", "leach", "deec")

TABLE2 = NetworkConfig(
    geometry=Geometry(r_inner=25.0, r_outer=40.0),
    heterogeneity=HeterogeneitySpec(mode="two_level", e0=0.8, m=0.2, alpha=1.0),
)


def _report(criterion, ok, detail):
    line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _run_battery(config):
    start = time.perf_counter()
    results = {
        name: [run_simulation(dataclasses.replace(config, seed=seed), name)
               for seed in SEEDS]
        for name in PROTOCOLS
    }
    return results, time.perf_counter() - start


@pytest.fixture(scope="session")
def battery_table1():
    return _run_battery(NetworkConfig())


@pytest.fixture(scope="session")
def battery_table2():
    return _run_battery(TABLE2)


def _mean_fnd(runs):
    horizon = runs[0].config.max_rounds
    return math.fsum(
        float(r.first_node_death if r.first_node_death is not None else horizon)
        for r in runs) / len(runs)


def _mean_received(runs):
    return math.fsum(float(r.cumulative_received) for r in runs) / len(runs)


# C1 and C10 check mean milestones over seeds 42-46 only. The README's table of which
# claims are reproduced shows that first death against deec holds on these seeds, not
# in general: over seeds 0-99 amdiscnt's first death came later on about half of them.
def test_c01_stability_ordering_and_runtime(battery_table1):
    results, elapsed = battery_table1
    fnd = {name: _mean_fnd(runs) for name, runs in results.items()}
    ok = fnd["amdiscnt"] > fnd["deec"] > fnd["leach"] and elapsed < 60.0
    _report("C1", ok,
            f"mean first-death round amdiscnt={fnd['amdiscnt']:.1f} > "
            f"deec={fnd['deec']:.1f} > leach={fnd['leach']:.1f}; "
            f"15 runs took {elapsed:.1f}s (budget 60s)")


def test_c02_head_count_tracks_populated_sectors():
    checked = 0
    ok = True
    for seed in SEEDS:
        config = dataclasses.replace(NetworkConfig(), seed=seed)
        rng = Random(config.seed)
        nodes = deploy(config, rng)
        links = DistanceCache(nodes, config.radio)
        outer = [i for i, n in enumerate(nodes) if not n.region.is_inner]
        energy = [n.initial_energy for n in nodes]  # a node is alive while its entry is not 0
        first_outer_death_seen = False
        for round_index in range(config.max_rounds):
            if not any(energy):
                break
            populated = {nodes[i].region.sector for i in outer if energy[i]}
            if not first_outer_death_seen and not all(energy[i] for i in outer):
                first_outer_death_seen = True
            alive = [i for i in range(len(nodes)) if energy[i]]
            chs = elect_chs_amdiscnt(energy, links.wedges)
            plan = build_plan(alive, energy, chs, "amdiscnt", links)
            metrics = run_round(round_index, energy, alive, plan, config, rng, links)
            checked += 1
            if metrics.ch_count != len(populated):
                ok = False
            if not first_outer_death_seen and metrics.ch_count != 8:
                ok = False
    _report("C2", ok,
            f"head count equals populated outer sectors on every one of "
            f"{checked} rounds across {len(SEEDS)} seeds (exact)")


def test_c03_throughput_highest_for_sector_protocol(battery_table1):
    results, _ = battery_table1
    received = {name: _mean_received(runs) for name, runs in results.items()}
    ok = (received["amdiscnt"] > received["leach"]
          and received["amdiscnt"] > received["deec"])
    _report("C3", ok,
            f"mean packets delivered amdiscnt={received['amdiscnt']:.0f}, "
            f"leach={received['leach']:.0f}, deec={received['deec']:.0f}")


def test_c04_energy_conservation(battery_table1, battery_table2):
    rounds_checked = 0
    ok = True
    for battery, base in ((battery_table1, NetworkConfig()), (battery_table2, TABLE2)):
        results, _ = battery
        for runs in results.values():
            for run in runs:
                config = run.config
                previous = math.fsum(n.initial_energy
                                     for n in deploy(config, Random(config.seed)))
                for m in run.per_round:
                    spent = previous - m.total_residual_energy
                    if not math.isclose(spent, m.energy_spent, rel_tol=1e-9, abs_tol=1e-12):
                        ok = False
                    previous = m.total_residual_energy
                    rounds_checked += 1
    _report("C4", ok,
            f"residual-energy drop matches the charge ledger at 1e-9 relative "
            f"on all {rounds_checked} rounds of 30 runs")


def test_c05_radio_unit_checks():
    radio = RadioParams()
    d0 = crossover_distance(radio)
    continuity = abs(tx_cost(4000, d0, radio)
                     - 4000 * (radio.e_elec + radio.e_fs * d0 * d0))
    ok = (tx_cost(4000, 50.0, radio) == pytest.approx(3.0e-4, rel=1e-12)
          and tx_cost(4000, 100.0, radio) == pytest.approx(7.2e-4, rel=1e-12)
          and rx_cost(4000, radio) == pytest.approx(2.0e-4, rel=1e-12)
          and d0 == pytest.approx(87.7058, abs=5e-5)
          and continuity <= 1e-12 * tx_cost(4000, d0, radio))
    _report("C5", ok,
            f"tx(4000,50)=3.0e-4, tx(4000,100)=7.2e-4, rx(4000)=2.0e-4, "
            f"crossover {d0:.4f} m, continuous there within 1e-12 relative")


def test_c06_tiered_energy_totals_exact():
    two = HeterogeneitySpec(mode="two_level", e0=0.5, m=0.2, alpha=1.0)
    three = HeterogeneitySpec(mode="three_level", e0=0.5, m=0.2, m0=0.5, alpha=2.0, beta=3.0)
    total_two = math.fsum(n.initial_energy
                          for n in deploy(NetworkConfig(heterogeneity=two), Random(1)))
    total_three = math.fsum(n.initial_energy
                            for n in deploy(NetworkConfig(heterogeneity=three), Random(1)))
    sampled_two = math.fsum(assign_initial_energy(100, two, Random(5)))
    sampled_three = math.fsum(assign_initial_energy(100, three, Random(5)))
    ok = (total_two == 60.0 and sampled_two == 60.0
          and total_three == 85.0 and sampled_three == 85.0)
    _report("C6", ok,
            f"two-tier deployment total {total_two} J == 60 J and three-tier "
            f"{total_three} J == 85 J, bit-exact")


def test_c07_statistics_oracle_and_affine_property():
    lo, hi = confidence_interval([2.0, 4.0, 6.0], 0.95)
    ok = (abs(lo - 2.1522) <= 1e-3 and abs(hi - 5.8478) <= 1e-3
          and population_stddev([2.0, 4.0, 6.0]) == pytest.approx(
              math.sqrt(8.0 / 3.0), rel=1e-12)
          and population_stddev([5.0, 5.0, 5.0]) == 0.0
          and population_stddev([3.7]) == 0.0)
    rng = Random(99)
    for _ in range(1000):
        values = [rng.uniform(-20, 20) for _ in range(rng.randint(2, 7))]
        shift = rng.uniform(-10, 10)
        scale = rng.uniform(0.1, 5.0)
        base_lo, base_hi = confidence_interval(values, 0.95)
        s_lo, s_hi = confidence_interval([v + shift for v in values], 0.95)
        k_lo, k_hi = confidence_interval([v * scale for v in values], 0.95)
        if not (math.isclose(s_lo, base_lo + shift, rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(s_hi, base_hi + shift, rel_tol=1e-9, abs_tol=1e-9)
                and math.isclose(k_hi - k_lo, (base_hi - base_lo) * scale,
                                 rel_tol=1e-9, abs_tol=1e-12)):
            ok = False
    _report("C7", ok,
            f"interval fixture ({lo:.4f}, {hi:.4f}) within 1e-3 of (2.1522, 5.8478); "
            f"spread fixtures exact; affine equivariance held on 1000 sample sets")


# SHA-256 of each file the default 5-seed CLI battery writes
CLI_BATTERY_SHA256 = {
    "amdiscnt.csv": "5c6aaee1aa0c93db95a8d9bae8b1661657c0f9d651250cfe2f77e60db980fc1f",
    "leach.csv": "512e220b2d8decd661ac80e64ed427bd9c739a0ef260808aeab8f012480ea8bf",
    "deec.csv": "7a51fe09386b9b7ea9c71e863ce1de8d2c8592c03392795874c2bd16659f5c45",
    "summary.csv": "fdb7e3261991be35dc8642482efca4a0e4285ae78693fff17345f06e4eff406c",
    "meta": "ae79e648f660975873bfc73d691d2f410ac4ac0867f1925fc7edda1a8b86a128",
}


def test_c08_cli_battery_is_byte_identical(tmp_path):
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    code_a = main(["--out", str(out_a)])
    code_b = main(["--out", str(out_b)])
    names = ["amdiscnt.csv", "leach.csv", "deec.csv", "summary.csv", "meta"]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    pinned = {n: hashlib.sha256((out_a / n).read_bytes()).hexdigest()
              for n in names} == CLI_BATTERY_SHA256
    ok = code_a == 0 and code_b == 0 and identical and pinned
    _report("C8", ok,
            f"two executions with identical flags wrote byte-identical "
            f"{len(names)} files, each with its pinned SHA-256")


def test_c09_small_instance_reference_replay():
    import sys
    import os
    sys.path.insert(0, os.path.dirname(__file__))
    from reference_engine import replay_rounds

    config = NetworkConfig(n_nodes=9, max_rounds=3)
    engine = run_simulation(config, "amdiscnt")
    nodes = deploy(config, Random(config.seed))
    reference = replay_rounds(nodes, config, 3)
    fields = ("round_index", "alive", "dead", "packets_sent_to_bs",
              "packets_received_by_bs", "ch_count", "mean_delay",
              "total_residual_energy", "energy_spent")
    ok = len(engine.per_round) == len(reference) == 3 and all(
        getattr(m, f) == r[f]
        for m, r in zip(engine.per_round, reference) for f in fields)
    _report("C9", ok,
            "straight-line replay reproduces all 9 metric fields of all 3 "
            "rounds bit-exactly on the 9-node instance")


# as for C1: the first-death ordering against deec holds on seeds 42-46, not in general
# (see the README's table of which claims are reproduced)
def test_c10_alternate_parameter_set_keeps_orderings(battery_table2):
    results, _ = battery_table2
    fnd = {name: _mean_fnd(runs) for name, runs in results.items()}
    received = {name: _mean_received(runs) for name, runs in results.items()}
    ok = (fnd["amdiscnt"] > fnd["deec"] > fnd["leach"]
          and received["amdiscnt"] > received["leach"]
          and received["amdiscnt"] > received["deec"])
    _report("C10", ok,
            f"0.8 J / 25 m / 40 m scenario keeps both orderings: first-death "
            f"amdiscnt={fnd['amdiscnt']:.1f} > deec={fnd['deec']:.1f} > "
            f"leach={fnd['leach']:.1f}; delivered amdiscnt={received['amdiscnt']:.0f} "
            f"highest")
