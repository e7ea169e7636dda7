import copy
import dataclasses
import math
import weakref
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as reference
from amdiscnt import engine
from amdiscnt.deployment import deploy
from amdiscnt.energy import aggregation_cost, rx_cost, tx_cost
from amdiscnt.engine import run_round, run_simulation
from amdiscnt.model import (
    DEPLOYMENT_MODES,
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    Position,
    RadioParams,
    RegionId,
)
from amdiscnt.protocols import (
    PROTOCOL_NAMES,
    DistanceCache,
    ProtocolKind,
    TransmissionPlan,
    build_plan,
)

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
    return plan, run_round(nodes, alive, plan, config, Random(0), links)


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
    assert plan.routes == [(1, 0)]
    assert plan.direct == [0]
    assert metrics.packets_sent_to_bs == metrics.packets_received_by_bs == 2
    assert metrics.mean_delay == 1.5
    assert ch.residual_energy == 0.5 - aggregation_cost(4000, 1, radio) - tx_cost(4000, 80.0, radio)
    assert relay.residual_energy == 0.5 - rx_cost(4000, radio) - tx_cost(4000, 20.0, radio) \
        - tx_cost(4000, 20.0, radio)


# The boundary round: an inner relay that also sends its own reading, an
# outer head past the crossover with three members (one dead from the
# start) and an inner direct sender.
RELAY, HEAD, MEMBER, DEAD, OTHER_MEMBER, DIRECT = range(6)


@pytest.mark.parametrize("drop", [0.0, 0.3], ids=["loss-free", "lossy"])
@pytest.mark.parametrize("toward", [None, 0.0, math.inf], ids=["exact", "below", "above"])
@pytest.mark.parametrize("site", ["member_tx", "head_rx", "relay_rx", "direct_tx"])
def test_charge_boundary_matches_reference_round(site, toward, drop):
    """The budget at each inline charge's cost, and at a phase 2 charge's,
    or one float step either side of it: run_round spends, kills and draws
    as the straight-line round, and counts each death once."""
    radio = NetworkConfig().radio
    bits = radio.packet_bits
    nodes = [Node(RELAY, Position(15.0, 5.0), RegionId(), 0.5, 0.5),
             Node(HEAD, Position(100.0, 10.0), RegionId(0), 0.5, 0.5),
             Node(MEMBER, Position(95.0, 20.0), RegionId(0), 0.5, 0.5),
             Node(DEAD, Position(90.0, 5.0), RegionId(0), 0.5, 0.0, alive=False),
             Node(OTHER_MEMBER, Position(110.0, 15.0), RegionId(0), 0.5, 0.5),
             Node(DIRECT, Position(5.0, 10.0), RegionId(), 0.5, 0.5)]
    member_link = nodes[MEMBER].position.distance_to(nodes[HEAD].position)
    node_id, cost = {"member_tx": (MEMBER, tx_cost(bits, member_link, radio)),
                     "head_rx": (HEAD, rx_cost(bits, radio)),
                     "relay_rx": (RELAY, rx_cost(bits, radio)),
                     "direct_tx": (DIRECT, tx_cost(bits, nodes[DIRECT].position.radius(), radio)),
                     }[site]
    budget = cost if toward is None else math.nextafter(cost, toward)
    nodes[node_id].residual_energy = budget
    twins = copy.deepcopy(nodes)
    members = {MEMBER: HEAD, DEAD: HEAD, OTHER_MEMBER: HEAD}
    direct = [RELAY, DIRECT]
    plan = TransmissionPlan(sorted(members.items()), [(HEAD, RELAY)], direct)
    config = NetworkConfig(link_drop_probability=drop)
    alive = [node for node in nodes if node.alive]
    # seed 7 keeps the packets into the head and the relay and drops two others
    rng = Random(7)
    metrics = run_round(nodes, alive, plan, config, rng, DistanceCache(nodes, radio))
    reference_rng = Random(7)
    expected = reference.replay_round(twins, members, {HEAD: [RELAY, None]}, direct,
                                      config, reference_rng)
    assert {field: getattr(metrics, field) for field in expected} == expected
    assert [(n.residual_energy, n.alive) for n in nodes] == \
        [(n.residual_energy, n.alive) for n in twins]
    assert rng.getstate() == reference_rng.getstate()
    assert metrics.alive == sum(n.alive for n in nodes)
    assert nodes[node_id].residual_energy < budget  # the site was reached
    if toward != math.inf:  # a step above leaves a remainder a later charge may drain
        assert not nodes[node_id].alive


delay_models = st.just(DelayModel()) | st.builds(DelayModel, st.just("distance"),
                                                 st.floats(0.5, 5.0), st.floats(0.0, 2.0))


@st.composite
def hand_built_rounds(draw):
    """A few placed nodes, one round of transmissions for them, a lossy or
    loss-free config and a seed. Budgets include dead nodes and exact
    costs, so nodes die on the spot in every phase."""
    radio = NetworkConfig().radio
    bits = radio.packet_bits
    n = draw(st.integers(min_value=2, max_value=12))
    nodes = []
    for i in range(n):
        inner = draw(st.booleans())
        radius = draw(st.floats(0.5, 20.0) if inner else st.floats(20.0, 150.0))
        angle = draw(st.floats(0.0, 2 * math.pi, exclude_max=True))
        region = RegionId() if inner else RegionId(min(int(angle // (math.pi / 4)), 7))
        nodes.append(Node(id=i, position=Position(radius * math.cos(angle),
                                                  radius * math.sin(angle)),
                          region=region, initial_energy=0.5, residual_energy=0.5))
    inner_ids = [node.id for node in nodes if node.region.is_inner]
    outer_ids = [node.id for node in nodes if not node.region.is_inner]
    heads = sorted(draw(st.sets(st.sampled_from(outer_ids))) if outer_ids else set())
    members = {}
    for i in outer_ids:
        if i not in heads:
            head = draw(st.sampled_from([None] + heads))
            if head is not None:
                members[i] = head
    routes = {h: draw(st.sampled_from([None] + inner_ids)) for h in heads}
    direct = [i for i in inner_ids if draw(st.booleans())]
    for node in nodes:
        link = members.get(node.id, routes.get(node.id))
        budgets = [0.0, tx_cost(bits, node.position.radius(), radio), rx_cost(bits, radio),
                   aggregation_cost(bits, 1, radio), aggregation_cost(bits, 2, radio),
                   rx_cost(bits, radio) + aggregation_cost(bits, 2, radio)]
        if link is not None:
            budgets.append(tx_cost(bits, node.position.distance_to(nodes[link].position), radio))
        energy = draw(st.sampled_from(budgets) | st.floats(1e-6, 2e-3))
        node.residual_energy = energy
        node.alive = energy > 0.0  # a dead node holds exactly 0.0
    drop = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
    delay = draw(delay_models)
    config = NetworkConfig(link_drop_probability=drop, delay=delay)
    return nodes, members, routes, direct, config, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=400)
@given(case=hand_built_rounds())
def test_run_round_matches_reference_round(case):
    """run_round spends, delivers and draws exactly as the straight-line
    round, whose explicit liveness checks are the engine's first rule."""
    nodes, members, routes, direct, config, seed = case
    twins = copy.deepcopy(nodes)
    alive = [node for node in nodes if node.alive]
    plan = TransmissionPlan(sorted(members.items()), sorted(routes.items()), direct)
    rng = Random(seed)
    metrics = run_round(nodes, alive, plan, config, rng, DistanceCache(nodes, config.radio))
    hops = {h: [None] if relay is None else [relay, None] for h, relay in routes.items()}
    reference_rng = Random(seed)
    expected = reference.replay_round(twins, members, hops, direct, config, reference_rng)
    assert {field: getattr(metrics, field) for field in expected} == expected
    assert [(n.residual_energy, n.alive) for n in nodes] == \
        [(n.residual_energy, n.alive) for n in twins]
    assert rng.getstate() == reference_rng.getstate()


@st.composite
def small_configs(draw):
    """Small fields in every energy mode, lossy or loss-free, with either
    delay mode; batteries are low enough that nodes die within 50 rounds."""
    e0 = draw(st.floats(0.001, 0.02))
    heterogeneity = draw(st.sampled_from([
        HeterogeneitySpec.homogeneous(e0),
        HeterogeneitySpec.two_level(e0, 0.2, 1.0),
        HeterogeneitySpec.three_level(e0, 0.3, 0.5, 1.5, 2.0),
        HeterogeneitySpec.multi_level(e0, 2.0),
    ]))
    return NetworkConfig(
        n_nodes=draw(st.integers(9, 30)),
        # the wide field puts heads past the radio crossover, where amdiscnt relays
        geometry=draw(st.sampled_from([Geometry(), Geometry(120.0, 150.0)])),
        heterogeneity=heterogeneity,
        max_rounds=50,
        seed=draw(st.integers(0, 2**32 - 1)),
        deployment_mode=draw(st.sampled_from(DEPLOYMENT_MODES)),
        link_drop_probability=draw(st.sampled_from([0.0, 0.2, 1.0]) | st.floats(0.0, 1.0)),
        delay=draw(delay_models),
    )


@settings(deadline=None, max_examples=60)
@given(config=small_configs(), name=st.sampled_from(PROTOCOL_NAMES))
def test_ledger_equals_residual_drop_property(config, name):
    previous = deploy(config, Random(config.seed)).total_initial_energy
    for m in run_simulation(config, ProtocolKind(name)).per_round:
        drop = previous - m.total_residual_energy
        assert drop == pytest.approx(m.energy_spent, rel=1e-9, abs=1e-15)
        previous = m.total_residual_energy


def _check_run_against_replay(config, kind):
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Random", lambda seed: made.append(Random(seed)) or made[-1])
        result = run_simulation(config, kind)
    rng = Random(config.seed)
    nodes = list(deploy(config, rng).nodes)
    rounds, milestones = reference.replay_run(nodes, config, kind.name, kind.p_opt, rng)
    assert [dataclasses.asdict(m) for m in result.per_round] == rounds
    assert (result.first_node_death, result.half_nodes_death,
            result.last_node_death) == milestones
    assert made[0].getstate() == rng.getstate()


@settings(deadline=None, max_examples=60)
@given(config=small_configs(), name=st.sampled_from(["leach", "deec"]),
       p_opt=st.sampled_from([0.1, 0.2]) | st.floats(0.05, 0.5))
def test_baseline_run_matches_reference_replay(config, name, p_opt):
    """A whole leach or deec run equals the straight-line replay: reference
    election, brute-force nearest head and reference round, draw for draw."""
    _check_run_against_replay(config, ProtocolKind(name, p_opt))


@settings(deadline=None, max_examples=60)
@given(config=small_configs())
def test_amdiscnt_run_matches_reference_replay(config):
    """A whole amdiscnt run, lossy and delayed included, equals the
    straight-line replay: reference sector election and roles,
    brute-force relay choice and reference round, draw for draw."""
    _check_run_against_replay(config, AMDISCNT)


@pytest.fixture
def builds(monkeypatch):
    """Empty the link-table memo and record the radio of every table built."""
    monkeypatch.setattr(engine, "_last_table", None)
    made = []

    def counting(nodes, radio):
        made.append(radio)
        return DistanceCache(nodes, radio)

    monkeypatch.setattr(engine, "DistanceCache", counting)
    return made


def test_protocols_on_one_placement_build_one_table(builds):
    config = small_config(max_rounds=20)
    for name in PROTOCOL_NAMES:
        run_simulation(config, ProtocolKind(name))
    assert builds == [config.radio]


@pytest.mark.parametrize("change", [
    {"radio": RadioParams(packet_bits=2000)},
    {"geometry": Geometry(25.0, 40.0)},
    {"seed": 43},
    {"n_nodes": 10},
], ids=["packet_bits", "geometry", "seed", "n_nodes"])
def test_other_placement_or_radio_builds_a_fresh_table(builds, monkeypatch, change):
    config = small_config(max_rounds=30)
    changed = dataclasses.replace(config, **change)
    run_simulation(config, ProtocolKind("leach"))
    after = run_simulation(changed, ProtocolKind("leach"))
    assert builds == [config.radio, changed.radio]
    monkeypatch.setattr(engine, "_last_table", None)
    assert run_simulation(changed, ProtocolKind("leach")) == after


def test_region_change_alone_builds_a_fresh_table(builds):
    radio = RadioParams()

    def nodes(far_region):
        return [Node(0, Position(10.0, 0.0), RegionId(), 0.5, 0.5),
                Node(1, Position(30.0, 0.0), far_region, 0.5, 0.5)]

    first = engine._link_table(nodes(RegionId(0)), radio)
    assert engine._link_table(nodes(RegionId(0)), radio) is first
    assert engine._link_table(nodes(RegionId()), radio).inner == [0, 1]
    assert builds == [radio, radio]


def test_old_table_is_freed_before_the_next_is_built(builds, monkeypatch):
    config = small_config(max_rounds=1)
    run_simulation(config, AMDISCNT)
    old = weakref.ref(engine._last_table[1])
    old_alive_at_build = []

    def watching(nodes, radio):
        old_alive_at_build.append(old() is not None)
        return DistanceCache(nodes, radio)

    monkeypatch.setattr(engine, "DistanceCache", watching)
    run_simulation(dataclasses.replace(config, seed=43), AMDISCNT)
    assert old_alive_at_build == [False]


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_reused_table_gives_the_fresh_history(builds, monkeypatch, name):
    # lossy, distance-delayed and wide enough that amdiscnt heads relay
    config = NetworkConfig(n_nodes=40, geometry=Geometry(120.0, 150.0), max_rounds=300,
                           heterogeneity=HeterogeneitySpec.two_level(0.05, 0.2, 1.0), seed=8,
                           link_drop_probability=0.1,
                           delay=DelayModel(mode="distance", speed=3.0, per_hop=0.25))
    for other in PROTOCOL_NAMES:  # the table gains relay and neighbour orders on the way
        if other != name:
            run_simulation(config, ProtocolKind(other))
    reused = run_simulation(config, ProtocolKind(name))
    assert len(builds) == 1
    monkeypatch.setattr(engine, "_last_table", None)
    assert run_simulation(config, ProtocolKind(name)) == reused
    assert len(builds) == 2
