import dataclasses
import math
import pickle
import weakref
from array import array
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as reference
from amdiscnt import engine
from amdiscnt.deployment import deploy
from amdiscnt.engine import place, run_round, run_simulation
from amdiscnt.experiment import ExperimentSpec, run_experiment
from amdiscnt.model import (
    DEPLOYMENT_MODES,
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    RadioParams,
    RegionId,
    aggregation_cost,
    rx_cost,
    tx_cost,
)
from amdiscnt.protocols import (
    PROTOCOL_NAMES,
    DistanceCache,
    build_plan,
)

AMDISCNT = "amdiscnt"


def small_config(**overrides) -> NetworkConfig:
    base = dict(n_nodes=9, max_rounds=100,
                heterogeneity=HeterogeneitySpec(mode="homogeneous", e0=0.003))
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
    assert len(res.per_round) == 0
    assert res.first_node_death is None
    assert res.half_nodes_death is None
    assert res.last_node_death is None
    assert res.cumulative_sent == 0


def test_history_pickles_as_columns_and_reads_as_its_records(monkeypatch):
    config = small_config(max_rounds=5000, link_drop_probability=0.2,
                          delay=DelayModel(mode="distance", speed=3.0, per_hop=0.25))
    records = []

    def recording(*args):
        records.append(run_round(*args))
        return records[-1]

    monkeypatch.setattr(engine, "run_round", recording)
    result = run_simulation(config, AMDISCNT)
    n = len(records)
    assert result.last_node_death == n > 2
    data = pickle.dumps(result)
    assert b"RoundMetrics" not in data
    assert pickle.loads(data) == result
    history = result.per_round
    assert len(history) == n
    assert list(history) == records
    assert [history[i] for i in range(n)] == records
    assert [history[i - n] for i in range(n)] == records
    assert history[1:-1] == tuple(records[1:-1])
    assert history[::-3] == tuple(records[::-3])
    with pytest.raises(IndexError):
        history[n]
    assert history.column("mean_delay").tolist() == [m.mean_delay for m in records]
    assert result.cumulative_received == sum(m.packets_received_by_bs for m in records)


def test_changing_a_column_copy_leaves_the_history_as_it_was():
    result = run_simulation(small_config(max_rounds=3), AMDISCNT)
    history = result.per_round
    records = list(history)
    assert len(records) == 3
    column = history.column("round_index")
    column.append(9)
    column[0] = 7
    assert type(column) is array
    assert len(history) == 3
    assert list(history) == records
    assert [history[i] for i in range(3)] == records
    assert history.column("round_index").tolist() == [0, 1, 2]
    with pytest.raises(IndexError):
        history[3]


def test_a_history_equals_only_a_history():
    history = run_simulation(small_config(max_rounds=3), AMDISCNT).per_round
    records = list(history)
    assert history.__eq__(records) is NotImplemented
    assert history != records and history != tuple(records)
    assert history == run_simulation(small_config(max_rounds=3), AMDISCNT).per_round


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
    start = math.fsum(n.initial_energy for n in deploy(config, Random(config.seed)))
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
        res = run_simulation(small_config(), name)
        assert res.last_node_death is not None
        assert res.per_round[-1].alive == 0


def _one_round(nodes, energy, ch_set, config):
    links = DistanceCache(nodes, config.radio)
    alive = [i for i in range(len(nodes)) if energy[i]]
    plan = build_plan(alive, energy, ch_set, AMDISCNT, links)
    return plan, run_round(0, energy, alive, plan, config, Random(0), links)


def _direct_sender(residual):
    node = Node(position=(10.0, 0.0), region=RegionId(), initial_energy=residual)
    energy = [residual]
    _, metrics = _one_round([node], energy, set(), NetworkConfig())
    return energy, metrics


def test_exact_budget_sends_then_dies():
    cost = tx_cost(4000, 10.0, NetworkConfig().radio)
    energy, metrics = _direct_sender(cost)
    assert metrics.packets_sent_to_bs == 1
    assert metrics.packets_received_by_bs == 1
    assert (metrics.alive, metrics.dead) == (0, 1)
    assert energy == [0.0]
    assert metrics.energy_spent == cost


def test_insufficient_budget_loses_packet_and_drains_node():
    cost = tx_cost(4000, 10.0, NetworkConfig().radio)
    energy, metrics = _direct_sender(cost / 2.0)
    assert metrics.packets_sent_to_bs == 0
    assert (metrics.alive, metrics.dead) == (0, 1)
    assert energy == [0.0]
    assert metrics.energy_spent == cost / 2.0


def test_all_idle_round_spends_nothing():
    node = Node(position=(10.0, 0.0), region=RegionId(), initial_energy=0.5)
    plan, metrics = _one_round([node], [0.0], set(), NetworkConfig())
    assert metrics.energy_spent == 0.0
    assert metrics.packets_sent_to_bs == 0
    assert metrics.alive == 0
    assert metrics.mean_delay == 0.0


def test_dead_cluster_head_loses_member_traffic():
    # member pays its transmission but the dead head never receives
    ch = Node(position=(30.0, 0.0), region=RegionId(0), initial_energy=0.5)  # id 0
    member = Node(position=(25.0, 0.0), region=RegionId(0), initial_energy=0.5)  # id 1
    energy = [0.0, 0.5]
    (members, _, _), metrics = _one_round([ch, member], energy, {0}, NetworkConfig())
    assert members == [(1, 0)]
    assert metrics.packets_sent_to_bs == 0
    assert energy[1] < 0.5
    assert energy[0] == 0.0


def test_relayed_aggregate_pays_both_legs():
    # past the crossover the head's aggregate goes through the inner node,
    # which also sends its own reading
    relay = Node(position=(20.0, 0.0), region=RegionId(), initial_energy=0.5)  # id 0
    ch = Node(position=(100.0, 0.0), region=RegionId(0), initial_energy=0.5)  # id 1
    radio = NetworkConfig().radio
    energy = [0.5, 0.5]
    (_, routes, direct), metrics = _one_round([relay, ch], energy, {1}, NetworkConfig())
    assert routes == [(1, 0)]
    assert direct == [0]
    assert metrics.packets_sent_to_bs == metrics.packets_received_by_bs == 2
    assert metrics.mean_delay == 1.5
    assert energy[1] == 0.5 - aggregation_cost(4000, 1, radio) - tx_cost(4000, 80.0, radio)
    assert energy[0] == 0.5 - rx_cost(4000, radio) - tx_cost(4000, 20.0, radio) \
        - tx_cost(4000, 20.0, radio)


def _as_records(energy):
    """Each entry with the liveness it stands for: alive while not 0.0, and
    a dead entry holds +0.0, never -0.0."""
    assert all(math.copysign(1.0, e) == 1.0 for e in energy)
    return [(e, e != 0.0) for e in energy]


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
    # listed in id order: RELAY, HEAD, MEMBER, DEAD, OTHER_MEMBER, DIRECT
    nodes = [Node((15.0, 5.0), RegionId(), 0.5),
             Node((100.0, 10.0), RegionId(0), 0.5),
             Node((95.0, 20.0), RegionId(0), 0.5),
             Node((90.0, 5.0), RegionId(0), 0.5),
             Node((110.0, 15.0), RegionId(0), 0.5),
             Node((5.0, 10.0), RegionId(), 0.5)]
    energy = [0.0 if i == DEAD else 0.5 for i in range(len(nodes))]
    member_link = reference.distance(nodes[MEMBER].position, nodes[HEAD].position)
    node_id, cost = {"member_tx": (MEMBER, tx_cost(bits, member_link, radio)),
                     "head_rx": (HEAD, rx_cost(bits, radio)),
                     "relay_rx": (RELAY, rx_cost(bits, radio)),
                     "direct_tx": (DIRECT, tx_cost(bits, math.hypot(*nodes[DIRECT].position), radio)),
                     }[site]
    budget = cost if toward is None else math.nextafter(cost, toward)
    energy[node_id] = budget
    twins = reference.sensors(nodes, energy)
    members = {MEMBER: HEAD, DEAD: HEAD, OTHER_MEMBER: HEAD}
    direct = [RELAY, DIRECT]
    plan = sorted(members.items()), [(HEAD, RELAY)], direct
    config = NetworkConfig(link_drop_probability=drop)
    alive = [i for i in range(len(nodes)) if energy[i]]
    # seed 7 keeps the packets into the head and the relay and drops two others
    rng = Random(7)
    metrics = run_round(0, energy, alive, plan, config, rng, DistanceCache(nodes, radio))
    reference_rng = Random(7)
    expected = reference.replay_round(twins, members, {HEAD: [RELAY, None]}, direct,
                                      config, reference_rng)
    assert {field: getattr(metrics, field) for field in expected} == expected
    assert _as_records(energy) == [(n.residual_energy, n.alive) for n in twins]
    assert rng.getstate() == reference_rng.getstate()
    assert metrics.alive == sum(map(bool, energy))
    assert energy[node_id] < budget  # the site was reached
    if toward != math.inf:  # a step above leaves a remainder a later charge may drain
        assert energy[node_id] == 0.0
        assert not twins[node_id].alive


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
        nodes.append(Node(position=(radius * math.cos(angle), radius * math.sin(angle)),
                          region=region, initial_energy=0.5))
    inner_ids = [i for i, node in enumerate(nodes) if node.region.is_inner]
    outer_ids = [i for i, node in enumerate(nodes) if not node.region.is_inner]
    heads = sorted(draw(st.sets(st.sampled_from(outer_ids))) if outer_ids else set())
    members = {}
    for i in outer_ids:
        if i not in heads:
            head = draw(st.sampled_from([None] + heads))
            if head is not None:
                members[i] = head
    routes = {h: draw(st.sampled_from([None] + inner_ids)) for h in heads}
    direct = [i for i in inner_ids if draw(st.booleans())]
    energy = []  # a dead node holds exactly 0.0
    for i, node in enumerate(nodes):
        link = members.get(i, routes.get(i))
        budgets = [0.0, tx_cost(bits, math.hypot(*node.position), radio), rx_cost(bits, radio),
                   aggregation_cost(bits, 1, radio), aggregation_cost(bits, 2, radio),
                   rx_cost(bits, radio) + aggregation_cost(bits, 2, radio)]
        if link is not None:
            link_length = reference.distance(node.position, nodes[link].position)
            budgets.append(tx_cost(bits, link_length, radio))
        energy.append(draw(st.sampled_from(budgets) | st.floats(1e-6, 2e-3)))
    drop = draw(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0))
    delay = draw(delay_models)
    config = NetworkConfig(link_drop_probability=drop, delay=delay)
    return nodes, energy, members, routes, direct, config, draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=400)
@given(case=hand_built_rounds())
def test_run_round_matches_reference_round(case):
    """run_round spends, delivers and draws exactly as the straight-line
    round, whose explicit liveness checks are the engine's first rule."""
    nodes, energy, members, routes, direct, config, seed = case
    twins = reference.sensors(nodes, energy)
    alive = [i for i in range(len(nodes)) if energy[i]]
    plan = sorted(members.items()), sorted(routes.items()), direct
    rng = Random(seed)
    metrics = run_round(0, energy, alive, plan, config, rng, DistanceCache(nodes, config.radio))
    hops = {h: [None] if relay is None else [relay, None] for h, relay in routes.items()}
    reference_rng = Random(seed)
    expected = reference.replay_round(twins, members, hops, direct, config, reference_rng)
    assert {field: getattr(metrics, field) for field in expected} == expected
    assert _as_records(energy) == [(n.residual_energy, n.alive) for n in twins]
    assert rng.getstate() == reference_rng.getstate()


@st.composite
def small_configs(draw):
    """Small fields in every energy mode, lossy or loss-free, with either
    delay mode; batteries are low enough that nodes die within 50 rounds."""
    e0 = draw(st.floats(0.001, 0.02))
    heterogeneity = draw(st.sampled_from([
        HeterogeneitySpec(mode="homogeneous", e0=e0),
        HeterogeneitySpec(mode="two_level", e0=e0, m=0.2, alpha=1.0),
        HeterogeneitySpec(mode="three_level", e0=e0, m=0.3, m0=0.5, alpha=1.5, beta=2.0),
        HeterogeneitySpec(mode="multi_level", e0=e0, alpha_max=2.0),
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
    previous = math.fsum(n.initial_energy for n in deploy(config, Random(config.seed)))
    for m in run_simulation(config, name).per_round:
        drop = previous - m.total_residual_energy
        assert drop == pytest.approx(m.energy_spent, rel=1e-9, abs=1e-15)
        previous = m.total_residual_energy


# a round's energy_spent is one math.fsum over its charges; fsum rounds the exact
# sum once, so charges kept in per-category lists and chained give the same float
@settings(max_examples=300)
@given(charges=st.lists(st.tuples(st.floats(0.0, 1e300, exclude_min=True),
                                  st.integers(0, 6))))
def test_fsum_of_charges_split_by_category_is_unchanged(charges):
    categories = [[] for _ in range(7)]
    for charge, kind in charges:
        categories[kind].append(charge)
    assert math.fsum(c for category in categories for c in category) == \
        math.fsum(charge for charge, _ in charges)


def _check_run_against_replay(config, kind):
    made = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "Random", lambda *seed: made.append(Random(*seed)) or made[-1])
        result = run_simulation(config, kind)
    rng = Random(config.seed)
    nodes = deploy(config, rng)
    rounds, milestones = reference.replay_run(nodes, config, kind, config.p_opt, rng)
    assert [dataclasses.asdict(m) for m in result.per_round] == rounds
    assert (result.first_node_death, result.half_nodes_death,
            result.last_node_death) == milestones
    assert made[-1].getstate() == rng.getstate()  # the run's own generator


@settings(deadline=None, max_examples=60)
@given(config=small_configs(), name=st.sampled_from(["leach", "deec"]),
       p_opt=st.sampled_from([0.1, 0.2]) | st.floats(0.05, 0.5))
def test_baseline_run_matches_reference_replay(config, name, p_opt):
    """A whole leach or deec run equals the straight-line replay: reference
    election, brute-force nearest head and reference round, draw for draw."""
    _check_run_against_replay(dataclasses.replace(config, p_opt=p_opt), name)


# the alive mean is near alpha * e0, so a draining normal node's p_i
# falls below 1 / DBL_MAX and 1 / p_i overflows; its epoch then outlasts the run
@pytest.mark.parametrize("alpha", [1e305, 1e307])
def test_deec_runs_to_horizon_when_inverse_probability_overflows(alpha):
    config = NetworkConfig(heterogeneity=HeterogeneitySpec(
        mode="two_level", e0=0.5, m=0.2, alpha=alpha))
    result = run_simulation(config, "deec")
    assert result.rounds == config.max_rounds
    assert result.first_node_death == 2233
    for m in result.per_round:
        assert all(map(math.isfinite, (m.mean_delay, m.total_residual_energy, m.energy_spent)))


def test_deec_with_overflowing_inverse_probability_matches_reference_replay():
    config = small_config(n_nodes=30, max_rounds=200,
                          heterogeneity=HeterogeneitySpec(
                              mode="two_level", e0=0.02, m=0.2, alpha=1e307))
    _check_run_against_replay(config, "deec")


# below about 5.6e-309, 1 / p_opt overflows; leach's one epoch then outlasts the run
def test_leach_with_overflowing_inverse_p_opt_runs_to_horizon_as_the_replay():
    config = NetworkConfig(n_nodes=20, max_rounds=30, p_opt=1e-310)
    kind = "leach"
    result = run_simulation(config, kind)
    assert result.rounds == config.max_rounds
    assert all(m.ch_count == 0 for m in result.per_round)  # a draw under 1e-310 is 0.0
    _check_run_against_replay(config, kind)


@settings(deadline=None, max_examples=60)
@given(config=small_configs())
def test_amdiscnt_run_matches_reference_replay(config):
    """A whole amdiscnt run, lossy and delayed included, equals the
    straight-line replay: reference sector election and roles,
    brute-force relay choice and reference round, draw for draw."""
    _check_run_against_replay(config, AMDISCNT)


@pytest.fixture
def placed(monkeypatch):
    """Count the engine's deployments and link-table builds."""
    calls = {"deploy": 0, "DistanceCache": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(engine, "deploy", counting("deploy", deploy))
    monkeypatch.setattr(engine, "DistanceCache", counting("DistanceCache", DistanceCache))
    return calls


def test_protocols_on_one_placement_build_one_table(placed):
    protocols = PROTOCOL_NAMES
    run_experiment(ExperimentSpec(small_config(max_rounds=20), protocols, (42,)))
    assert placed == {"deploy": 1, "DistanceCache": 1}


def test_each_run_of_a_many_seed_experiment_places_its_own_field(placed):
    protocols = PROTOCOL_NAMES
    run_experiment(ExperimentSpec(small_config(max_rounds=20), protocols, (42, 43, 44)))
    assert placed == {"deploy": 9, "DistanceCache": 9}


@pytest.mark.parametrize("change", [
    {"radio": RadioParams(packet_bits=2000)},
    {"geometry": Geometry(25.0, 40.0)},
    {"seed": 43},
    {"n_nodes": 10},
], ids=["packet_bits", "geometry", "seed", "n_nodes"])
def test_other_placement_or_radio_builds_a_fresh_table(placed, change):
    config = small_config(max_rounds=30)
    changed = dataclasses.replace(config, **change)
    run_simulation(config, "leach")
    after = run_simulation(changed, "leach")
    assert placed == {"deploy": 2, "DistanceCache": 2}
    assert run_simulation(changed, "leach") == after  # nothing carries over


def test_old_table_is_freed_before_the_next_is_built(monkeypatch):
    built = []
    old_alive_at_build = []

    def watching(nodes, radio):
        old_alive_at_build.extend(ref() is not None for ref in built[-1:])
        links = DistanceCache(nodes, radio)
        built.append(weakref.ref(links))
        return links

    monkeypatch.setattr(engine, "DistanceCache", watching)
    run_experiment(ExperimentSpec(small_config(max_rounds=5), (AMDISCNT, "leach"),
                                  (42, 43)))
    assert old_alive_at_build == [False, False, False]


def test_run_on_a_placement_still_validates_its_config():
    config = small_config(max_rounds=5)
    with pytest.raises(ConfigurationError):
        run_simulation(dataclasses.replace(config, max_rounds=-1), AMDISCNT, place(config))


@pytest.mark.parametrize("change, named", [
    ({"seed": 43}, "seed"),
    ({"n_nodes": 10}, "n_nodes"),
    ({"radio": RadioParams(packet_bits=2000)}, "radio"),
    ({"max_rounds": 7}, "max_rounds"),
    ({"seed": 43, "n_nodes": 10}, "n_nodes, seed"),
    ({"p_opt": 0.2}, "p_opt"),
], ids=["seed", "n_nodes", "packet_bits", "max_rounds", "n_nodes_and_seed", "p_opt"])
def test_run_on_a_placement_from_another_config_names_each_field(monkeypatch, change, named):
    config = small_config(max_rounds=5)
    placement = place(dataclasses.replace(config, **change))
    rounds = []
    monkeypatch.setattr(engine, "run_round", lambda *args: rounds.append(args))
    with pytest.raises(ConfigurationError, match=f"placement's in {named}$"):
        run_simulation(config, "leach", placement)
    assert rounds == []


@pytest.mark.parametrize("name", PROTOCOL_NAMES)
def test_reused_table_gives_the_fresh_history(name):
    # lossy, distance-delayed and wide enough that amdiscnt heads relay
    config = NetworkConfig(n_nodes=40, geometry=Geometry(120.0, 150.0), max_rounds=300,
                           heterogeneity=HeterogeneitySpec(
                               mode="two_level", e0=0.05, m=0.2, alpha=1.0),
                           seed=8, link_drop_probability=0.1,
                           delay=DelayModel(mode="distance", speed=3.0, per_hop=0.25))
    placement = place(config)
    # the others kill nodes in their own runs and add relay and neighbour orders to the table
    others = [run_simulation(config, other, placement)
              for other in PROTOCOL_NAMES if other != name]
    assert any(result.first_node_death is not None for result in others)
    assert run_simulation(config, name, placement) == \
        run_simulation(config, name)


def test_a_placement_is_a_value_its_runs_only_read():
    # runs to total death, so every battery would be drained if a run wrote to its nodes
    config = small_config(max_rounds=5000, link_drop_probability=0.1)
    placement = place(config)
    kinds = PROTOCOL_NAMES
    histories = [run_simulation(config, kind, placement) for kind in kinds]
    assert all(result.last_node_death is not None for result in histories)
    assert placement.nodes == place(config).nodes
    copied = pickle.loads(pickle.dumps(placement))
    assert all(point is node.position for point, node in zip(copied.links.points, copied.nodes))
    assert [run_simulation(config, kind, copied) for kind in kinds] == histories


def test_inner_nodes_spend_only_their_own_direct_send_on_the_default_field(monkeypatch):
    """Why "even consumption" does not reproduce: on the default field no
    head relays, so an inner node never heads, joins or relays, and each
    round it pays exactly its own send to the base station."""
    config = NetworkConfig()
    placement = place(config)
    tx_to_bs = placement.links.tx_to_bs
    inner = [i for i, node in enumerate(placement.nodes) if node.region.is_inner]
    execute = engine.run_round
    inner_node_rounds = []

    def checking(round_index, energy, alive, plan, *args):
        before = energy[:]
        metrics = execute(round_index, energy, alive, plan, *args)
        _, routes, _ = plan
        assert [relay for _, relay in routes if relay is not None] == []
        survivors = [i for i in inner if energy[i]]
        assert [energy[i] for i in survivors] == [before[i] - tx_to_bs[i] for i in survivors]
        inner_node_rounds.append(len(survivors))
        return metrics

    monkeypatch.setattr(engine, "run_round", checking)
    result = run_simulation(config, AMDISCNT, placement)
    assert len(inner_node_rounds) == result.rounds
    assert result.last_node_death is not None or result.rounds == config.max_rounds
    assert sum(inner_node_rounds) > 0
