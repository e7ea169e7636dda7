import gc
import math
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as reference
from amdiscnt import engine
from amdiscnt.engine import place, run_round, run_simulation
from amdiscnt.experiment import ExperimentSpec
from amdiscnt.model import (
    ConfigurationError,
    NetworkConfig,
    Node,
    RadioParams,
    RegionId,
    tx_cost,
)
from amdiscnt.protocols import (
    DistanceCache,
    build_plan,
    elect_chs_amdiscnt,
    elect_chs_deec,
    elect_chs_leach,
    select_relay,
)

RADIO = RadioParams()


def make_node(x, y, sector=None, energy=0.5):
    return Node(position=(x, y), region=RegionId(sector), initial_energy=energy)


def full(nodes):
    """Every node's full battery, by id: the energy list a run starts from."""
    return [node.initial_energy for node in nodes]


def wedges_of(nodes):
    """Each outer wedge's node ids in ascending order, by sector, as the link table holds them."""
    return [[i for i, node in enumerate(nodes) if node.region.sector == sector]
            for sector in range(8)]


def alive_ids(energy):
    """The ids a run lists as alive: those whose battery is not empty, in order."""
    return [i for i, e in enumerate(energy) if e]


def ring_position(sector, radius=30.0):
    theta = (sector + 0.5) * math.pi / 4
    return radius * math.cos(theta), radius * math.sin(theta)


def outer_ring(energies_by_sector):
    """One node per (sector, energy) pair, listed (so numbered) in that order."""
    nodes = []
    for sector, energies in energies_by_sector.items():
        for energy in energies:
            nodes.append(make_node(*ring_position(sector), sector=sector, energy=energy))
    return nodes


def elect_all(nodes, energy=None):
    """The sector election, every node of ``nodes`` at full battery by default."""
    energy = full(nodes) if energy is None else energy
    return elect_chs_amdiscnt(energy, wedges_of(nodes))


class TestSectorElection:
    def test_one_head_per_sector(self):
        nodes = outer_ring({s: [0.1 * (s + 1), 0.2 * (s + 1)] for s in range(8)})
        chs = elect_all(nodes)
        assert chs == {2 * s + 1 for s in range(8)}  # each wedge's second, larger battery
        assert {nodes[c].region.sector for c in chs} == set(range(8))

    def test_picks_max_residual(self):
        nodes = outer_ring({0: [0.3, 0.9, 0.5]})
        assert elect_all(nodes) == {1}

    def test_dead_sector_gives_seven_heads(self):
        nodes = outer_ring({s: [0.5] for s in range(8)})
        energy = full(nodes)
        energy[4] = 0.0  # a dead node holds 0.0, so its wedge has no head
        assert elect_all(nodes, energy) == {0, 1, 2, 3, 5, 6, 7}

    def test_tie_goes_to_lower_id(self):
        nodes = outer_ring({0: [0.5, 0.5, 0.5]})
        assert elect_all(nodes) == {0}

    def test_scaling_residuals_keeps_winners(self):
        nodes = outer_ring({s: [0.2 + 0.01 * i for i in range(3)] for s in range(8)})
        before = elect_all(nodes)
        assert elect_all(nodes, [2.0 * e for e in full(nodes)]) == before

    def test_inner_nodes_never_elected(self):
        nodes = [make_node(5.0, 0.0, energy=9.0), make_node(25.0, 0.0, sector=0, energy=0.1)]
        assert elect_all(nodes) == {1}


class TestRotatingElection:
    def test_threshold_at_epoch_start(self):
        assert reference.leach_threshold(0, 0.1) == pytest.approx(0.1, rel=1e-12)

    def test_threshold_at_epoch_end(self):
        assert reference.leach_threshold(9, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_every_node_serves_once_per_epoch(self):
        alive = list(range(16))  # two nodes in each of the eight wedges
        history = [-1] * 16  # no node has served yet
        seen = []
        for round_index in range(10):
            elected = elect_chs_leach(alive, round_index, 0.1, Random(round_index), history)
            assert not (set(seen) & elected)
            seen.extend(sorted(elected))
        assert sorted(seen) == alive

    def test_dead_nodes_skipped(self):
        alive = [1]  # of two nodes, node 0 is dead, so not listed
        for round_index in range(10):
            elected = elect_chs_leach(alive, round_index, 0.1, Random(7), [-1, -1])
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
        energy = full(outer_ring({s: [0.5, 0.5] for s in range(8)}))
        alive = list(range(16))
        history = [-1] * 16
        seen = []
        for round_index in range(10):
            elected = elect_chs_deec(alive, energy, round_index, 0.1, Random(round_index),
                                     history)
            assert not (set(seen) & elected)
            seen.extend(sorted(elected))
        assert sorted(seen) == alive

    def test_no_alive_nodes_returns_empty(self):
        assert elect_chs_deec([], [], 0, 0.1, Random(1), []) == set()

    def test_probability_underflowing_to_zero_skips_the_node_without_a_draw(self):
        # node 1's p_opt * residual / average underflows to 0.0, whose epoch 1 / 0.0
        # has no value; node 0's is 2e-300, so its draw elects nobody
        rng, history = Random(3), [-1, -1]
        assert elect_chs_deec([0, 1], [1.0, 1e-300], 0, 1e-300, rng, history) == set()
        expected = Random(3)
        expected.random()  # node 0's draw, the only one
        assert rng.random() == expected.random()
        assert history == [-1, -1]


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
    nodes = [make_node(30.0, 0.0, sector=0, energy=e) for e in energies]
    energy = [e if a else 0.0 for e, a in zip(energies, alive)]  # a dead node holds 0.0

    def elect(listed, *rest):
        if name == "leach":
            return elect_chs_leach(listed, *rest)
        return elect_chs_deec(listed, energy, *rest)

    elect_reference = {"leach": reference.elect_chs_leach, "deec": reference.elect_chs_deec}[name]
    # the reference skips dead nodes itself; the engine passes only the alive ones. The
    # reference keeps its history as a dict, the engine as a list by id with -1 for a node
    # never elected; every drawn round is >= 0, so each form maps one to one to the other
    as_list = [history.get(i, -1) for i in range(len(energies))]
    calls = [(elect_reference, reference.sensors(nodes, energy), dict(history), dict),
             (elect, alive_ids(energy), as_list,
              lambda rows: {i: r for i, r in enumerate(rows) if r >= 0})]
    outcomes = []
    for fn, listed, own_history, as_dict in calls:
        rng = Random(seed)
        # consecutive rounds, so each round's elections feed the next one's history
        elected = [fn(listed, r, p_opt, rng, own_history)
                   for r in range(round_index, round_index + 3)]
        outcomes.append((elected, as_dict(own_history), rng.getstate()))
    assert outcomes[1] == outcomes[0]


def relay_of(nodes, energy=None, ch_id=0):
    return select_relay(ch_id, full(nodes) if energy is None else energy,
                        DistanceCache(nodes, RADIO))


def plan_of(nodes, ch_set, name, energy=None):
    energy = full(nodes) if energy is None else energy
    return build_plan(alive_ids(energy), energy, ch_set, name,
                      DistanceCache(nodes, RADIO))


def random_field(seed, n=40, r_inner=40.0, r_outer=150.0):
    """Nodes scattered over a field wide enough that some heads relay, and
    their energies by id, with about a quarter of them dead (0.0)."""
    rng = Random(seed)
    nodes = []
    energy = []
    for _ in range(n):
        radius = rng.uniform(0.0, r_outer)
        theta = rng.uniform(0.0, 2 * math.pi)
        sector = None if radius < r_inner else int(theta // (math.pi / 4))
        nodes.append(make_node(radius * math.cos(theta), radius * math.sin(theta),
                               sector=sector))
        energy.append(0.5 if rng.random() >= 0.25 else 0.0)
    return nodes, energy


def brute_force_relay(ch_id, nodes, energy):
    """Strict-< scan of the alive inner nodes in id order, as routing was
    defined before the link table: direct unless a relay is strictly cheaper."""
    bits = RADIO.packet_bits
    ch = nodes[ch_id]
    best_id, best_cost = None, math.inf
    for i, node in enumerate(nodes):
        if not energy[i] or not node.region.is_inner or i == ch_id:
            continue
        cost = (tx_cost(bits, reference.distance(ch.position, node.position), RADIO)
                + tx_cost(bits, math.hypot(*node.position), RADIO))
        if cost < best_cost:
            best_id, best_cost = i, cost
    if best_id is None or tx_cost(bits, math.hypot(*ch.position), RADIO) <= best_cost:
        return None
    return best_id


class TestRelaySelection:
    def test_no_alive_inner_node_means_direct(self):
        ch = make_node(30.0, 0.0, sector=0)
        dead_inner = make_node(5.0, 0.0)
        assert relay_of([ch, dead_inner], [0.5, 0.0]) is None

    def test_short_haul_relay_loses_to_direct(self):
        # below the crossover the second electronics charge outweighs the
        # amplifier saving: tx(30) = 2.36e-4 < tx(25) + tx(5) = 4.26e-4
        ch = make_node(30.0, 0.0, sector=0)
        inner = make_node(5.0, 0.0)
        assert relay_of([ch, inner]) is None

    def test_long_haul_relay_wins_past_crossover(self):
        # tx(100) = 7.2e-4 (multipath) > tx(80) + tx(20) = 6.72e-4
        ch = make_node(100.0, 0.0, sector=0)
        inner = make_node(20.0, 0.0)
        assert relay_of([ch, inner]) == 1

    def test_equal_cost_relays_pick_lower_id(self):
        # mirror images of each other, so the two relayed costs are
        # bitwise equal and the id breaks the tie
        nodes = [make_node(100.0, 0.0, sector=0), make_node(20.0, 1.0), make_node(20.0, -1.0)]
        energy = [0.5, 0.5, 0.5]
        assert relay_of(nodes, energy) == brute_force_relay(0, nodes, energy) == 1
        energy[1] = 0.0
        assert relay_of(nodes, energy) == brute_force_relay(0, nodes, energy) == 2

    def test_distance_cache_agrees_with_brute_force(self):
        relayed = 0
        for seed in range(30):
            nodes, energy = random_field(seed)
            links = DistanceCache(nodes, RADIO)
            rng = Random(seed)
            # relay orders are built once and must stay right as nodes die
            for _ in range(3):
                for ch_id, ch in enumerate(nodes):
                    if ch.region.is_inner:
                        continue
                    relay = select_relay(ch_id, energy, links)
                    assert relay == brute_force_relay(ch_id, nodes, energy)
                    relayed += relay is not None
                for i in range(len(nodes)):
                    if rng.random() < 0.2:
                        energy[i] = 0.0
        assert relayed > 0

    def test_table_distances_match_positions_bitwise(self):
        nodes, _ = random_field(5)
        links = DistanceCache(nodes, RADIO)
        for i, a in enumerate(nodes):
            assert links.to_bs[i] == math.hypot(*a.position)
            assert links.tx_to_bs[i] == tx_cost(RADIO.packet_bits, math.hypot(*a.position), RADIO)
            for j, b in enumerate(nodes):
                d = math.dist(links.points[i], links.points[j])
                assert d == reference.distance(a.position, b.position)

    def test_link_table_holds_one_point_per_node(self):
        for n in (9, 100, 400):
            placement = place(NetworkConfig(n_nodes=n))
            links = placement.links
            # the node's own tuple, not a copy: one (x, y) per node is held
            assert len(links.points) == n
            assert all(point is node.position
                       for point, node in zip(links.points, placement.nodes))
            assert links.sectors == [node.region.sector for node in placement.nodes]
            assert links.inner == [i for i, sector in enumerate(links.sectors) if sector is None]
            assert [list(ids) for ids in links.wedges] == [
                [i for i, sector in enumerate(links.sectors) if sector == w] for w in range(8)]
            assert len(links.to_bs) == len(links.tx_to_bs) == n

    def test_link_table_grows_linearly_with_the_node_count(self):
        retained = {}
        for n in (400, 1000, 2000, 4000):
            nodes = place(NetworkConfig(n_nodes=n)).nodes
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                links = DistanceCache(nodes, RADIO)
                gc.collect()
                retained[n] = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert len(links.points) == n
        # a per-node row of 400 two-byte ids alone would take 320 KB
        assert retained[400] < 100_000
        # CPython shares one object per int below 257, so a ratio taken from 400
        # nodes reads a list of ids as super-linear. Every id added past 1000 is
        # its own object, so a linear table grows twice as much from 2000 to 4000
        # nodes as from 1000 to 2000 (here 1.08 times that); a per-node row of
        # length n makes it four times as much
        assert retained[4000] - retained[2000] < 1.25 * 2 * (retained[2000] - retained[1000])


@st.composite
def mirrored_fields(draw):
    """Nodes anywhere around the sink, each possibly joined by mirror images of itself."""
    coordinate = st.floats(-150.0, 150.0, allow_nan=False)
    points = []
    for x, y in draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=12)):
        points.append((x, y))
        points += draw(st.lists(st.sampled_from([(-x, y), (x, -y), (-x, -y)]), max_size=3))
    return [make_node(x, y) for x, y in points]


@settings(deadline=None, max_examples=100)
@given(nodes=mirrored_fields())
def test_link_distances_are_symmetric_hypot(nodes):
    # a link's length is the same from either end, and ties between mirror images are exact
    links = DistanceCache(nodes, RADIO)
    orders = links.neighbour_orders()
    for i, a in enumerate(nodes):
        row = []
        for j, b in enumerate(nodes):
            d = math.hypot(a.position[0] - b.position[0], a.position[1] - b.position[1])
            assert math.dist(links.points[i], links.points[j]) == d
            assert math.dist(links.points[j], links.points[i]) == d
            row.append(d)
        assert list(orders[i]) == sorted(range(len(nodes)), key=lambda j: (row[j], j))


class TestPlans:
    def network(self):
        """Five nodes and their energies by id; node 4 is dead."""
        nodes = [
            make_node(5.0, 0.0),                      # 0: inner
            make_node(25.0, 2.0, sector=0, energy=0.4),
            make_node(30.0, 1.0, sector=0, energy=0.6),
            make_node(*ring_position(1), sector=1, energy=0.5),
            make_node(*ring_position(2), sector=2, energy=0.5),
        ]
        energy = full(nodes)
        energy[4] = 0.0
        return nodes, energy

    def test_sector_plan_census(self):
        nodes, energy = self.network()
        links = DistanceCache(nodes, RADIO)
        alive = [0, 1, 2, 3]  # a plain list of ints: node 4 is dead
        chs = elect_chs_amdiscnt(energy, links.wedges)
        assert chs == {2, 3}  # node 4's wedge holds only a dead node
        plan = build_plan(alive, energy, chs, "amdiscnt", links)
        assert plan == plan_of(nodes, chs, "amdiscnt", energy)
        members, routes, direct = plan
        assert members == [(1, 2)]
        assert [ch_id for ch_id, _ in routes] == [2, 3]
        assert all(relay is None for _, relay in routes)  # short hauls go direct
        assert direct == [0]

    def test_sector_without_head_idles_members(self):
        nodes, energy = self.network()
        members, routes, direct = plan_of(nodes, {2}, "amdiscnt", energy)
        assert members == [(1, 2)]
        assert [ch_id for ch_id, _ in routes] == [2]
        assert direct == [0]

    def test_baseline_members_join_nearest_head(self):
        nodes = [
            make_node(30.0, 0.0, sector=0),
            make_node(-30.0, 0.0, sector=3),
            make_node(28.0, 5.0, sector=0),
        ]
        plan = build_plan([0, 1, 2], full(nodes), {0, 1}, "leach",
                          DistanceCache(nodes, RADIO))
        assert plan == ([(2, 0)], [(0, None), (1, None)], [])

    def test_baseline_tied_distance_prefers_lower_id(self):
        nodes = [
            make_node(30.0, 0.0, sector=0),
            make_node(-30.0, 0.0, sector=3),
            make_node(0.0, 30.0, sector=2),
        ]
        members, _, _ = plan_of(nodes, {0, 1}, "leach")
        assert members == [(2, 0)]

    def test_baseline_nearest_head_agrees_with_brute_force(self):
        for seed in range(30):
            nodes, energy = random_field(seed)
            links = DistanceCache(nodes, RADIO)
            rng = Random(seed)
            # one table serves every round: fresh heads each round, nodes dying between
            for _ in range(4):
                alive = alive_ids(energy)
                heads = set(rng.sample(alive, 1 + len(alive) // 5))
                plan = build_plan(alive, energy, heads, "deec", links)
                expected = []
                for i, node in enumerate(nodes):
                    if energy[i] and i not in heads:
                        key = lambda h: (reference.distance(node.position, nodes[h].position), h)
                        expected.append((i, min(heads, key=key)))
                assert plan == (expected, [(h, None) for h in sorted(heads)], [])
                for i in range(len(nodes)):
                    if rng.random() < 0.15:
                        energy[i] = 0.0

    def test_neighbour_orders_sort_by_distance_then_id(self):
        # ids 1 and 2 are mirror images about the x axis, so every node on
        # that axis sees them at bitwise-equal distances
        nodes = [make_node(100.0, 0.0, sector=0), make_node(20.0, 1.0),
                 make_node(20.0, -1.0)] + random_field(3)[0][3:]
        links = DistanceCache(nodes, RADIO)
        orders = links.neighbour_orders()
        assert reference.distance(nodes[0].position, nodes[1].position) == \
            reference.distance(nodes[0].position, nodes[2].position)
        first = orders[0].index(1)
        assert orders[0][first + 1] == 2
        for i, order in enumerate(orders):
            row = [reference.distance(nodes[i].position, b.position) for b in nodes]
            assert list(order) == sorted(range(len(nodes)), key=lambda j: (row[j], j))
        assert links.neighbour_orders() is orders

    def test_mirror_tie_goes_to_lower_head_id(self):
        nodes = [make_node(100.0, 0.0, sector=0), make_node(20.0, 1.0),
                 make_node(20.0, -1.0)]
        assert plan_of(nodes, {1, 2}, "leach")[0] == [(0, 1)]
        assert plan_of(nodes, {2}, "leach")[0] == [(0, 2), (1, 2)]

    def test_amdiscnt_never_builds_neighbour_orders(self, monkeypatch):
        def refuse(self):
            raise AssertionError("neighbour orders built")

        monkeypatch.setattr(DistanceCache, "neighbour_orders", refuse)
        config = NetworkConfig(n_nodes=30, max_rounds=50)
        assert run_simulation(config, "amdiscnt").rounds == 50
        assert run_simulation(NetworkConfig(max_rounds=0), "leach").rounds == 0
        with pytest.raises(AssertionError, match="neighbour orders"):
            run_simulation(config, "leach")

    def test_baseline_no_heads_falls_back_to_direct(self):
        nodes, energy = self.network()
        assert plan_of(nodes, set(), "deec", energy) == ([], [], [0, 1, 2, 3])


# grid coordinates make equal distances common; mirrored and copied points force them
_coordinates = st.one_of(st.sampled_from([-12.5, 0.0, 12.5, 40.0]),
                         st.floats(min_value=-150.0, max_value=150.0))
_mirrors = [lambda x, y: (x, y), lambda x, y: (x, -y), lambda x, y: (-x, y),
            lambda x, y: (-x, -y)]


@st.composite
def tied_baseline_rounds(draw):
    """A 2-40 node field with co-located nodes, mirror-image pairs and dead
    nodes, and one round's heads: none, one, or many of the alive nodes."""
    n = draw(st.integers(min_value=2, max_value=40))
    points = [(draw(_coordinates), draw(_coordinates))]
    while len(points) < n:
        # a fresh point, or a co-located copy or a mirror image of an earlier one
        source = draw(st.sampled_from(points))
        points.append(draw(st.one_of(st.tuples(_coordinates, _coordinates),
                                     st.sampled_from(_mirrors).map(lambda f: f(*source)))))
    # about a quarter dead
    alive = draw(st.lists(st.sampled_from([True, True, True, False]), min_size=n, max_size=n))
    nodes = [make_node(x, y) for x, y in points]
    energy = [0.5 if a else 0.0 for a in alive]
    living = alive_ids(energy)
    count = draw(st.sampled_from(["many", "one", "none"]))
    if count == "none" or not living:
        heads = set()
    elif count == "one":
        heads = {draw(st.sampled_from(living))}
    else:
        heads = set(draw(st.lists(st.sampled_from(living), min_size=min(2, len(living)),
                                  unique=True)))
    return nodes, energy, heads


@settings(deadline=None, max_examples=200)
@given(case=tied_baseline_rounds(), name=st.sampled_from(["leach", "deec"]))
def test_baseline_plan_matches_brute_force_with_ties(case, name):
    nodes, energy, heads = case
    ch_set = set(heads)
    alive = alive_ids(energy)
    members, routes, direct = build_plan(alive, energy, ch_set, name,
                                         DistanceCache(nodes, RADIO))
    assert ch_set == heads

    def nearest(i):
        x, y = nodes[i].position
        return min(heads, key=lambda h: (math.hypot(x - nodes[h].position[0],
                                                    y - nodes[h].position[1]), h))

    if heads:
        assert members == [(i, nearest(i)) for i in alive if i not in heads]
        assert direct == []
    else:
        assert members == []
        assert direct == alive
    assert routes == [(h, None) for h in sorted(heads)]


# a few shared battery levels make exact ties common, and 0.0 is a dead node
_batteries = st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(min_value=1e-6, max_value=0.5))


@st.composite
def sector_rounds(draw):
    """1-24 nodes, each drawn inner or in a random wedge, so ids are not
    grouped by region and some wedges are empty; their batteries, with
    ties and dead nodes; and a lossy config and seed for one round."""
    nodes = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        inner = draw(st.booleans())
        # outer heads out to 150 m sit past the crossover, so some relay
        radius = draw(st.floats(0.5, 40.0) if inner else st.floats(40.0, 150.0))
        sector = draw(st.integers(0, 7))
        angle = (sector + draw(st.floats(0.01, 0.99))) * math.pi / 4
        nodes.append(make_node(radius * math.cos(angle), radius * math.sin(angle),
                               sector=None if inner else sector))
    energy = draw(st.lists(_batteries, min_size=len(nodes), max_size=len(nodes)))
    drop = draw(st.floats(min_value=0.01, max_value=1.0))
    return nodes, energy, NetworkConfig(link_drop_probability=drop), draw(st.integers(0, 2**32 - 1))


@settings(deadline=None, max_examples=200)
@given(case=sector_rounds())
def test_sector_election_and_plan_match_reference(case):
    nodes, energy, config, seed = case
    links = DistanceCache(nodes, RADIO)
    alive = alive_ids(energy)
    chs = elect_chs_amdiscnt(energy, links.wedges)
    plan = build_plan(alive, energy, chs, "amdiscnt", links)
    sensors = reference.sensors(nodes, energy)
    members, routes, direct = reference._sector_plan(sensors, RADIO)
    assert chs == set(routes)
    assert plan == (list(members.items()),  # the reference walks ids in order
                    [(h, routes[h][0]) for h in sorted(routes)],  # first hop, or None
                    direct)
    # a lossy round draws once per paid transmission, in member id order
    rng, reference_rng = Random(seed), Random(seed)
    metrics = run_round(0, energy, alive, plan, config, rng, links)
    expected = reference.replay_round(sensors, members, routes, direct, config, reference_rng)
    assert {field: getattr(metrics, field) for field in expected} == expected
    assert energy == [sensor.residual_energy for sensor in sensors]
    assert rng.getstate() == reference_rng.getstate()


class TestProtocolNames:
    """A protocol is its name; the run and the experiment spec refuse any other value."""

    def test_run_simulation_refuses_other_values_before_placing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("placed or validated before the protocol was checked")

        monkeypatch.setattr(engine, "place", refuse)
        monkeypatch.setattr(engine, "validate_config", refuse)
        leftover = type("Kind", (), {"name": "leach"})()
        for protocol in ("gossip", "Leach", "", 1, leftover):
            with pytest.raises(ConfigurationError, match="unknown protocol .*amdiscnt"):
                run_simulation(NetworkConfig(max_rounds=1), protocol)

    def test_experiment_spec_refuses_bad_protocol_lists(self):
        for protocols in (("amdiscnt", "gossip"), ["leach"], ()):
            with pytest.raises(ConfigurationError, match=r"^experiment\.protocols"):
                ExperimentSpec(NetworkConfig(), protocols, (1,))
