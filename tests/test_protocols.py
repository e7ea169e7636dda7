import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as reference
from amdiscnt.energy import tx_cost
from amdiscnt.engine import run_simulation
from amdiscnt.model import NetworkConfig, Node, Position, RadioParams, RegionId
from amdiscnt.protocols import (
    BS_ID,
    DistanceCache,
    ProtocolKind,
    build_plan,
    elect_chs_amdiscnt,
    elect_chs_deec,
    elect_chs_leach,
    leach_threshold,
    select_relay,
)

RADIO = RadioParams()


def make_node(node_id, x, y, sector=None, energy=0.5, alive=True):
    region = RegionId(sector)
    return Node(id=node_id, position=Position(x, y), region=region,
                initial_energy=energy, residual_energy=energy, alive=alive)


def ring_position(sector, radius=30.0):
    theta = (sector + 0.5) * math.pi / 4
    return radius * math.cos(theta), radius * math.sin(theta)


def outer_ring(energies_by_sector):
    """One node per (sector, energy) pair, ids assigned in listing order."""
    nodes = []
    for sector, energies in energies_by_sector.items():
        for energy in energies:
            x, y = ring_position(sector)
            nodes.append(make_node(len(nodes), x, y, sector=sector, energy=energy))
    return nodes


class TestSectorElection:
    def test_one_head_per_sector(self):
        nodes = outer_ring({s: [0.1 * (s + 1), 0.2 * (s + 1)] for s in range(8)})
        chs = elect_chs_amdiscnt(nodes)
        assert len(chs) == 8
        by_id = {n.id: n for n in nodes}
        assert {by_id[c].region.sector for c in chs} == set(range(8))

    def test_picks_max_residual(self):
        nodes = outer_ring({0: [0.3, 0.9, 0.5]})
        assert elect_chs_amdiscnt(nodes) == {1}

    def test_dead_sector_gives_seven_heads(self):
        nodes = outer_ring({s: [0.5] for s in range(8)})
        nodes[4].alive = False
        assert len(elect_chs_amdiscnt(nodes)) == 7

    def test_tie_goes_to_lower_id(self):
        nodes = outer_ring({0: [0.5, 0.5, 0.5]})
        assert elect_chs_amdiscnt(nodes) == {0}

    def test_scaling_residuals_keeps_winners(self):
        nodes = outer_ring({s: [0.2 + 0.01 * i for i in range(3)] for s in range(8)})
        before = elect_chs_amdiscnt(nodes)
        for node in nodes:
            node.residual_energy *= 2.0
        assert elect_chs_amdiscnt(nodes) == before

    def test_inner_nodes_never_elected(self):
        nodes = [make_node(0, 5.0, 0.0, energy=9.0)] + outer_ring({0: [0.1]})
        # ids shift: rebuild with explicit ids
        nodes = [make_node(0, 5.0, 0.0, energy=9.0),
                 make_node(1, 25.0, 0.0, sector=0, energy=0.1)]
        assert elect_chs_amdiscnt(nodes) == {1}


class TestRotatingElection:
    def test_threshold_at_epoch_start(self):
        assert leach_threshold(0, 0.1) == pytest.approx(0.1, rel=1e-12)

    def test_threshold_at_epoch_end(self):
        assert leach_threshold(9, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_every_node_serves_once_per_epoch(self):
        nodes = outer_ring({s: [0.5, 0.5] for s in range(8)})
        history = {}
        seen = []
        for round_index in range(10):
            elected = elect_chs_leach(nodes, round_index, 0.1, Random(round_index), history)
            assert not (set(seen) & elected)
            seen.extend(sorted(elected))
        assert sorted(seen) == [n.id for n in nodes]

    def test_dead_nodes_skipped(self):
        nodes = outer_ring({0: [0.5, 0.5]})
        nodes[0].alive = False
        for round_index in range(10):
            elected = elect_chs_leach(nodes, round_index, 0.1, Random(7), {})
            assert 0 not in elected


class TestEnergyAwareElection:
    # the formula is inlined in elect_chs_deec; the reference keeps it as a function
    def test_probability_equal_energies_is_p_opt(self):
        assert reference.deec_probability(0.5, 0.5, 0.1) == 0.1

    def test_probability_scales_with_residual(self):
        # residuals [2, 0.5, 0.5, 1] -> average 1 -> first node at 0.2
        assert reference.deec_probability(2.0, 1.0, 0.1) == 0.2

    def test_probability_capped_at_one(self):
        assert reference.deec_probability(100.0, 1.0, 0.1) == 1.0

    def test_every_node_serves_once_per_epoch_at_equal_energy(self):
        nodes = outer_ring({s: [0.5, 0.5] for s in range(8)})
        history = {}
        seen = []
        for round_index in range(10):
            elected = elect_chs_deec(nodes, round_index, 0.1, Random(round_index), history)
            assert not (set(seen) & elected)
            seen.extend(sorted(elected))
        assert sorted(seen) == [n.id for n in nodes]

    def test_no_alive_nodes_returns_empty(self):
        nodes = outer_ring({0: [0.5]})
        nodes[0].alive = False
        assert elect_chs_deec(nodes, 0, 0.1, Random(1), {}) == set()


# a few shared energy levels make exact ties (and exact averages) common
_energies = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]),
                      st.floats(min_value=1e-6, max_value=2.0))


@st.composite
def election_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    energies = draw(st.lists(_energies, min_size=n, max_size=n))
    alive = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    history = draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, 300), max_size=n))
    round_index = draw(st.integers(0, 300))
    p_opt = draw(st.floats(min_value=0.001, max_value=0.999))
    seed = draw(st.integers(0, 2**32 - 1))
    return energies, alive, history, round_index, p_opt, seed


@pytest.mark.parametrize("name", ["leach", "deec"])
@settings(deadline=None, max_examples=150)
@given(inputs=election_inputs())
def test_elections_match_reference(name, inputs):
    energies, alive, history, round_index, p_opt, seed = inputs
    nodes = [make_node(i, 30.0, 0.0, sector=0, energy=e, alive=a)
             for i, (e, a) in enumerate(zip(energies, alive))]
    elect = {"leach": elect_chs_leach, "deec": elect_chs_deec}[name]
    elect_reference = {"leach": reference.elect_chs_leach, "deec": reference.elect_chs_deec}[name]
    # the engine passes only the alive nodes; every node list must give the same draws
    calls = [(elect_reference, nodes), (elect, nodes),
             (elect, [node for node in nodes if node.alive])]
    outcomes = []
    for fn, listed in calls:
        rng = Random(seed)
        own_history = dict(history)
        # consecutive rounds, so each round's elections feed the next one's history
        elected = [fn(listed, r, p_opt, rng, own_history)
                   for r in range(round_index, round_index + 3)]
        outcomes.append((elected, own_history, rng.getstate()))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def relay_of(nodes, ch_id=0):
    return select_relay(ch_id, nodes, DistanceCache(nodes, RADIO))


def plan_of(nodes, ch_set, name):
    alive = [node for node in nodes if node.alive]
    return build_plan(nodes, alive, ch_set, ProtocolKind(name), DistanceCache(nodes, RADIO))


def random_field(seed, n=40, r_inner=40.0, r_outer=150.0):
    """Nodes scattered over a field wide enough that some heads relay,
    with about a quarter of them dead."""
    rng = Random(seed)
    nodes = []
    for i in range(n):
        radius = rng.uniform(0.0, r_outer)
        theta = rng.uniform(0.0, 2 * math.pi)
        sector = None if radius < r_inner else int(theta // (math.pi / 4))
        nodes.append(make_node(i, radius * math.cos(theta), radius * math.sin(theta),
                               sector=sector, alive=rng.random() >= 0.25))
    return nodes


def brute_force_relay(ch, nodes):
    """Strict-< scan of the alive inner nodes in id order, as routing was
    defined before the link table: direct unless a relay is strictly cheaper."""
    bits = RADIO.packet_bits
    best_id, best_cost = None, math.inf
    for node in nodes:
        if not node.alive or not node.region.is_inner or node.id == ch.id:
            continue
        cost = (tx_cost(bits, ch.position.distance_to(node.position), RADIO)
                + tx_cost(bits, node.position.radius(), RADIO))
        if cost < best_cost:
            best_id, best_cost = node.id, cost
    if best_id is None or tx_cost(bits, ch.position.radius(), RADIO) <= best_cost:
        return (BS_ID,)
    return (best_id, BS_ID)


class TestRelaySelection:
    def test_no_alive_inner_node_means_direct(self):
        ch = make_node(0, 30.0, 0.0, sector=0)
        dead_inner = make_node(1, 5.0, 0.0, alive=False)
        assert relay_of([ch, dead_inner]) == (BS_ID,)

    def test_short_haul_relay_loses_to_direct(self):
        # below the crossover the second electronics charge outweighs the
        # amplifier saving: tx(30) = 2.36e-4 < tx(25) + tx(5) = 4.26e-4
        ch = make_node(0, 30.0, 0.0, sector=0)
        inner = make_node(1, 5.0, 0.0)
        assert relay_of([ch, inner]) == (BS_ID,)

    def test_long_haul_relay_wins_past_crossover(self):
        # tx(100) = 7.2e-4 (multipath) > tx(80) + tx(20) = 6.72e-4
        ch = make_node(0, 100.0, 0.0, sector=0)
        inner = make_node(1, 20.0, 0.0)
        assert relay_of([ch, inner]) == (1, BS_ID)

    def test_equal_cost_relays_pick_lower_id(self):
        # mirror images of each other, so the two relayed costs are
        # bitwise equal and the id breaks the tie
        ch = make_node(0, 100.0, 0.0, sector=0)
        a = make_node(1, 20.0, 1.0)
        b = make_node(2, 20.0, -1.0)
        assert relay_of([ch, a, b]) == brute_force_relay(ch, [ch, a, b]) == (1, BS_ID)
        a.alive = False
        assert relay_of([ch, a, b]) == brute_force_relay(ch, [ch, a, b]) == (2, BS_ID)

    def test_distance_cache_agrees_with_brute_force(self):
        relayed = 0
        for seed in range(30):
            nodes = random_field(seed)
            links = DistanceCache(nodes, RADIO)
            rng = Random(seed)
            # relay orders are built once and must stay right as nodes die
            for _ in range(3):
                for ch in nodes:
                    if ch.region.is_inner:
                        continue
                    route = select_relay(ch.id, nodes, links)
                    assert route == brute_force_relay(ch, nodes)
                    relayed += len(route) == 2
                for node in nodes:
                    if rng.random() < 0.2:
                        node.alive = False
        assert relayed > 0

    def test_table_distances_match_positions_bitwise(self):
        nodes = random_field(5)
        links = DistanceCache(nodes, RADIO)
        for a in nodes:
            assert links.to_bs[a.id] == a.position.radius()
            assert links.tx_to_bs[a.id] == tx_cost(RADIO.packet_bits, a.position.radius(), RADIO)
            for b in nodes:
                assert links.rows[a.id][b.id] == a.position.distance_to(b.position)


class TestPlans:
    def network(self):
        return [
            make_node(0, 5.0, 0.0),                      # inner
            make_node(1, 25.0, 2.0, sector=0, energy=0.4),
            make_node(2, 30.0, 1.0, sector=0, energy=0.6),
            make_node(3, *ring_position(1), sector=1, energy=0.5),
            make_node(4, *ring_position(2), sector=2, energy=0.5, alive=False),
        ]

    def test_sector_plan_census(self):
        nodes = self.network()
        chs = elect_chs_amdiscnt(nodes)
        assert chs == {2, 3}
        plan = plan_of(nodes, chs, "amdiscnt")
        assert plan.members == [(1, 2)]
        assert [ch_id for ch_id, _ in plan.routes] == [2, 3]
        assert all(route[-1] == BS_ID for _, route in plan.routes)
        assert plan.direct == [0]
        assert plan.ch_count == 2

    def test_sector_without_head_idles_members(self):
        nodes = self.network()
        plan = plan_of(nodes, {2}, "amdiscnt")
        assert plan.members == [(1, 2)]
        assert [ch_id for ch_id, _ in plan.routes] == [2]
        assert plan.direct == [0]

    def test_baseline_members_join_nearest_head(self):
        nodes = [
            make_node(0, 30.0, 0.0, sector=0),
            make_node(1, -30.0, 0.0, sector=3),
            make_node(2, 28.0, 5.0, sector=0),
        ]
        plan = plan_of(nodes, {0, 1}, "leach")
        assert plan.members == [(2, 0)]
        assert plan.routes == [(0, (BS_ID,)), (1, (BS_ID,))]
        assert plan.direct == []

    def test_baseline_tied_distance_prefers_lower_id(self):
        nodes = [
            make_node(0, 30.0, 0.0, sector=0),
            make_node(1, -30.0, 0.0, sector=3),
            make_node(2, 0.0, 30.0, sector=2),
        ]
        plan = plan_of(nodes, {0, 1}, "leach")
        assert plan.members == [(2, 0)]

    def test_baseline_nearest_head_agrees_with_brute_force(self):
        for seed in range(30):
            nodes = random_field(seed)
            links = DistanceCache(nodes, RADIO)
            rng = Random(seed)
            # one table serves every round: fresh heads each round, nodes dying between
            for _ in range(4):
                alive = [node for node in nodes if node.alive]
                heads = set(rng.sample([node.id for node in alive], 1 + len(alive) // 5))
                plan = build_plan(nodes, alive, heads, ProtocolKind("deec"), links)
                expected = []
                for node in nodes:
                    if node.alive and node.id not in heads:
                        key = lambda h: (node.position.distance_to(nodes[h].position), h)
                        expected.append((node.id, min(heads, key=key)))
                assert plan.members == expected
                assert plan.routes == [(h, (BS_ID,)) for h in sorted(heads)]
                assert plan.direct == []
                for node in nodes:
                    if rng.random() < 0.15:
                        node.alive = False

    def test_neighbour_orders_sort_by_distance_then_id(self):
        # ids 1 and 2 are mirror images about the x axis, so every node on
        # that axis sees them at bitwise-equal distances
        nodes = [make_node(0, 100.0, 0.0, sector=0), make_node(1, 20.0, 1.0),
                 make_node(2, 20.0, -1.0)] + random_field(3)[3:]
        links = DistanceCache(nodes, RADIO)
        orders = links.neighbour_orders()
        assert links.rows[0][1] == links.rows[0][2]
        first = orders[0].index(1)
        assert orders[0][first + 1] == 2
        for i, order in enumerate(orders):
            row = links.rows[i]
            assert list(order) == sorted(range(len(nodes)), key=lambda j: (row[j], j))
        assert links.neighbour_orders() is orders

    def test_mirror_tie_goes_to_lower_head_id(self):
        nodes = [make_node(0, 100.0, 0.0, sector=0), make_node(1, 20.0, 1.0),
                 make_node(2, 20.0, -1.0)]
        assert plan_of(nodes, {1, 2}, "leach").members == [(0, 1)]
        assert plan_of(nodes, {2}, "leach").members == [(0, 2), (1, 2)]

    def test_amdiscnt_never_builds_neighbour_orders(self, monkeypatch):
        def refuse(self):
            raise AssertionError("neighbour orders built")

        monkeypatch.setattr(DistanceCache, "neighbour_orders", refuse)
        config = NetworkConfig(n_nodes=30, max_rounds=50)
        assert run_simulation(config, ProtocolKind("amdiscnt")).rounds == 50
        assert run_simulation(NetworkConfig(max_rounds=0), ProtocolKind("leach")).rounds == 0
        with pytest.raises(AssertionError, match="neighbour orders"):
            run_simulation(config, ProtocolKind("leach"))

    def test_baseline_no_heads_falls_back_to_direct(self):
        nodes = self.network()
        plan = plan_of(nodes, set(), "deec")
        assert plan.direct == [node.id for node in nodes if node.alive]
        assert plan.members == []
        assert plan.routes == []


class TestProtocolKind:
    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError):
            ProtocolKind("gossip")

    def test_rejects_bad_p_opt(self):
        with pytest.raises(ValueError):
            ProtocolKind("leach", p_opt=0.0)

    def test_distance_cache_rejects_gapped_ids(self):
        nodes = [make_node(0, 1.0, 0.0), make_node(2, 2.0, 0.0)]
        with pytest.raises(ValueError):
            DistanceCache(nodes, RADIO)
