import dataclasses
import math
from random import Random

import pytest

from amdiscnt.energy import aggregation_cost, rx_cost, tx_cost
from amdiscnt.engine import run_round, run_simulation
from amdiscnt.model import (
    ConfigurationError,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    Position,
    RegionId,
)
from amdiscnt.protocols import BS_ID, DistanceCache, ProtocolKind, build_plan

AMDISCNT = ProtocolKind("amdiscnt")


def small_config(**overrides) -> NetworkConfig:
    base = dict(n_nodes=9, max_rounds=100,
                heterogeneity=HeterogeneitySpec.homogeneous(0.003))
    base.update(overrides)
    return NetworkConfig(**base)


def test_first_round_census_default_scenario():
    res = run_simulation(NetworkConfig(max_rounds=1), AMDISCNT)
    m = res.per_round[0]
    # 11 inner readings plus 8 sector aggregates reach the sink
    assert m.alive == 100
    assert m.dead == 0
    assert m.ch_count == 8
    assert m.packets_sent_to_bs == 19
    assert m.packets_received_by_bs == 19
    assert m.mean_delay == pytest.approx(27.0 / 19.0, rel=1e-12)
    assert m.total_residual_energy < 60.0
    assert m.energy_spent > 0.0


def test_invalid_config_raises_before_running():
    with pytest.raises(ConfigurationError):
        run_simulation(NetworkConfig(n_nodes=3), AMDISCNT)


def test_zero_round_run():
    res = run_simulation(NetworkConfig(max_rounds=0), AMDISCNT)
    assert res.per_round == ()
    assert res.first_node_death is None
    assert res.half_nodes_death is None
    assert res.last_node_death is None
    assert res.cumulative_sent == 0


def test_simulation_is_deterministic():
    config = NetworkConfig(max_rounds=60)
    a = run_simulation(config, AMDISCNT)
    b = run_simulation(config, AMDISCNT)
    assert a == b
    c = run_simulation(dataclasses.replace(config, seed=43), AMDISCNT)
    assert c != a


def test_residual_energy_never_increases():
    res = run_simulation(small_config(), AMDISCNT)
    totals = [m.total_residual_energy for m in res.per_round]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert all(m.total_residual_energy >= 0.0 for m in res.per_round)


def test_energy_conservation_round_by_round():
    config = small_config()
    res = run_simulation(config, AMDISCNT)
    from amdiscnt.deployment import deploy
    start = deploy(config, Random(config.seed)).total_initial_energy
    previous = start
    for m in res.per_round:
        drop = previous - m.total_residual_energy
        assert drop == pytest.approx(m.energy_spent, rel=1e-9, abs=1e-15)
        previous = m.total_residual_energy


def test_milestones_ordered_and_run_stops_at_last_death():
    res = run_simulation(small_config(), AMDISCNT)
    assert res.first_node_death is not None
    assert res.first_node_death <= res.half_nodes_death <= res.last_node_death
    assert res.rounds == res.last_node_death
    assert res.per_round[-1].alive == 0


def test_lossless_links_deliver_every_bs_transmission():
    res = run_simulation(small_config(), AMDISCNT)
    for m in res.per_round:
        assert m.packets_received_by_bs == m.packets_sent_to_bs


def test_total_loss_receives_nothing():
    res = run_simulation(small_config(link_drop_probability=1.0, max_rounds=5), AMDISCNT)
    assert res.cumulative_sent > 0
    assert res.cumulative_received == 0


def test_partial_loss_bounded_by_sent():
    config = small_config(link_drop_probability=0.3)
    res = run_simulation(config, AMDISCNT)
    assert 0 < res.cumulative_received < res.cumulative_sent


def test_baselines_run_to_completion():
    for name in ("leach", "deec"):
        res = run_simulation(small_config(), ProtocolKind(name))
        assert res.last_node_death is not None
        assert res.per_round[-1].alive == 0


def _one_round(nodes, ch_set, config):
    links = DistanceCache(nodes, config.radio)
    alive = [node for node in nodes if node.alive]
    plan = build_plan(nodes, alive, ch_set, AMDISCNT, links)
    return plan, run_round(nodes, plan, config, Random(0), links)


def _direct_sender(residual):
    node = Node(id=0, position=Position(10.0, 0.0), region=RegionId(),
                initial_energy=residual, residual_energy=residual)
    _, metrics = _one_round([node], set(), NetworkConfig())
    return node, metrics


def test_exact_budget_sends_then_dies():
    cost = tx_cost(4000, 10.0, NetworkConfig().radio)
    node, metrics = _direct_sender(cost)
    assert metrics.packets_sent_to_bs == 1
    assert metrics.packets_received_by_bs == 1
    assert not node.alive
    assert node.residual_energy == 0.0
    assert metrics.energy_spent == cost


def test_insufficient_budget_loses_packet_and_drains_node():
    cost = tx_cost(4000, 10.0, NetworkConfig().radio)
    node, metrics = _direct_sender(cost / 2.0)
    assert metrics.packets_sent_to_bs == 0
    assert not node.alive
    assert node.residual_energy == 0.0
    assert metrics.energy_spent == cost / 2.0


def test_all_idle_round_spends_nothing():
    node = Node(id=0, position=Position(10.0, 0.0), region=RegionId(),
                initial_energy=0.5, residual_energy=0.0, alive=False)
    plan, metrics = _one_round([node], set(), NetworkConfig())
    assert metrics.energy_spent == 0.0
    assert metrics.packets_sent_to_bs == 0
    assert metrics.alive == 0
    assert metrics.mean_delay == 0.0


def test_dead_cluster_head_loses_member_traffic():
    # member pays its transmission but the dead head never receives
    ch = Node(id=0, position=Position(30.0, 0.0), region=RegionId(0),
              initial_energy=0.5, residual_energy=0.0, alive=False)
    member = Node(id=1, position=Position(25.0, 0.0), region=RegionId(0),
                  initial_energy=0.5, residual_energy=0.5)
    plan, metrics = _one_round([ch, member], {0}, NetworkConfig())
    assert plan.members == [(1, 0)]
    assert metrics.packets_sent_to_bs == 0
    assert member.residual_energy < 0.5
    assert ch.residual_energy == 0.0


def test_relayed_aggregate_pays_both_legs():
    # past the crossover the head's aggregate goes through the inner node,
    # which also sends its own reading
    relay = Node(id=0, position=Position(20.0, 0.0), region=RegionId(),
                 initial_energy=0.5, residual_energy=0.5)
    ch = Node(id=1, position=Position(100.0, 0.0), region=RegionId(0),
              initial_energy=0.5, residual_energy=0.5)
    radio = NetworkConfig().radio
    plan, metrics = _one_round([relay, ch], {1}, NetworkConfig())
    assert plan.routes == [(1, (0, BS_ID))]
    assert plan.direct == [0]
    assert metrics.packets_sent_to_bs == metrics.packets_received_by_bs == 2
    assert metrics.mean_delay == 1.5
    assert ch.residual_energy == 0.5 - aggregation_cost(4000, 1, radio) - tx_cost(4000, 80.0, radio)
    assert relay.residual_energy == 0.5 - rx_cost(4000, radio) - tx_cost(4000, 20.0, radio) \
        - tx_cost(4000, 20.0, radio)
