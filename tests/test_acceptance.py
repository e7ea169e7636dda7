"""End-to-end acceptance battery.

Ten numbered checks cover the benchmark scenario orderings, exact
bookkeeping rules, the statistics layer, reproducibility of the command
line front end, and a straight-line re-derivation of the round
accounting. Each check records one PASS/FAIL line; the verdicts replay
in an "acceptance criteria" section after the run.
"""

import copy
import dataclasses
import math
import time
from random import Random

import pytest

import conftest

from amdiscnt.deployment import assign_initial_energy, deploy
from amdiscnt.energy import crossover_distance, rx_cost, tx_cost
from amdiscnt.engine import run_round, run_simulation
from amdiscnt.experiment import main
from amdiscnt.model import (
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    RadioParams,
)
from amdiscnt.protocols import DistanceCache, ProtocolKind, build_plan, elect_chs_amdiscnt
from amdiscnt.stats import confidence_interval, population_stddev

SEEDS = (42, 43, 44, 45, 46)
PROTOCOLS = ("amdiscnt", "leach", "deec")

TABLE2 = NetworkConfig(
    geometry=Geometry(r_inner=25.0, r_outer=40.0),
    heterogeneity=HeterogeneitySpec.two_level(0.8, 0.2, 1.0),
)


def _report(criterion, ok, detail):
    line = f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.CRITERION_LINES.append(line)
    print(line)
    assert ok, line


def _run_battery(config):
    start = time.perf_counter()
    results = {
        name: [run_simulation(dataclasses.replace(config, seed=seed), ProtocolKind(name))
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
        nodes = list(deploy(config, rng).nodes)
        links = DistanceCache(nodes, config.radio)
        outer = [n for n in nodes if not n.region.is_inner]
        first_outer_death_seen = False
        for round_index in range(config.max_rounds):
            if not any(n.alive for n in nodes):
                break
            populated = {n.region.sector for n in outer if n.alive}
            if not first_outer_death_seen and any(not n.alive for n in outer):
                first_outer_death_seen = True
            alive = [n for n in nodes if n.alive]
            chs = elect_chs_amdiscnt(alive)
            plan = build_plan(nodes, alive, chs, ProtocolKind("amdiscnt"), links, round_index)
            metrics = run_round(nodes, plan, config, rng, links)
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
                previous = deploy(config, Random(config.seed)).total_initial_energy
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
    two = HeterogeneitySpec.two_level(0.5, 0.2, 1.0)
    three = HeterogeneitySpec.three_level(0.5, 0.2, 0.5, 2.0, 3.0)
    total_two = deploy(NetworkConfig(heterogeneity=two),
                       Random(1)).total_initial_energy
    total_three = deploy(NetworkConfig(heterogeneity=three),
                         Random(1)).total_initial_energy
    sampled_two = math.fsum(e for e, _ in assign_initial_energy(100, two, Random(5)))
    sampled_three = math.fsum(e for e, _ in assign_initial_energy(100, three, Random(5)))
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


def test_c08_cli_battery_is_byte_identical(tmp_path):
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    code_a = main(["--out", str(out_a)])
    code_b = main(["--out", str(out_b)])
    names = ["amdiscnt.csv", "leach.csv", "deec.csv", "summary.csv", "meta"]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    ok = code_a == 0 and code_b == 0 and identical
    _report("C8", ok,
            f"two executions with identical flags wrote byte-identical "
            f"{len(names)} files")


def test_c09_small_instance_reference_replay():
    import sys
    import os
    sys.path.insert(0, os.path.dirname(__file__))
    from reference_engine import replay_rounds

    config = NetworkConfig(n_nodes=9, max_rounds=3)
    engine = run_simulation(config, ProtocolKind("amdiscnt"))
    nodes = copy.deepcopy(list(deploy(config, Random(config.seed)).nodes))
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
