"""Deterministic round engine.

Each round runs three phases in fixed id order: members transmit to their
cluster heads, heads aggregate and send to the base station, straight or
through one inner relay, then direct senders transmit to the base station.
Every energy charge is attempted against the node's remaining budget: a
node that cannot cover a cost spends what it has, dies, and the packet
involved is lost; a node left at exactly zero completes the action first
and then dies. That charge is the only liveness rule: a dead node holds
exactly ``+0.0`` and every validated cost is strictly positive, so
charging a dead node fails before any draw and adds ``0.0`` to the ledger.
All randomness comes from the single ``Random(seed)`` owned by the run:
deployment draws the placement and any energy tiers from it, the
``leach`` and ``deec`` elections draw once per eligible node each round,
and a lossy link draws once per paid transmission; ``amdiscnt`` on
loss-free links draws nothing after deployment. Equal seeds therefore
give byte-identical histories. The link table holds no randomness, so
consecutive runs on one placement share it (see :func:`_link_table`).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from random import Random

from .deployment import deploy
from .energy import aggregation_cost, crossover_distance, rx_cost, tx_cost
from .model import ConfigurationError, NetworkConfig, Node, RadioParams, validate_config
from .protocols import (
    DistanceCache,
    ProtocolKind,
    TransmissionPlan,
    build_plan,
    elect_chs_amdiscnt,
    elect_chs_deec,
    elect_chs_leach,
)


@dataclass(frozen=True, slots=True)
class RoundMetrics:
    round_index: int
    alive: int
    dead: int
    packets_sent_to_bs: int
    packets_received_by_bs: int
    ch_count: int
    mean_delay: float
    total_residual_energy: float
    energy_spent: float


@dataclass(frozen=True)
class SimulationResult:
    """Full per-round history of one seeded run.

    Milestones are counted in completed rounds (first round is 1) and are
    ``None`` when the event never happened within the horizon.
    """

    config: NetworkConfig
    protocol: str
    per_round: tuple[RoundMetrics, ...]
    first_node_death: int | None
    half_nodes_death: int | None
    last_node_death: int | None

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    @property
    def cumulative_sent(self) -> int:
        return sum(m.packets_sent_to_bs for m in self.per_round)

    @property
    def cumulative_received(self) -> int:
        return sum(m.packets_received_by_bs for m in self.per_round)


def _charge(node: Node, amount: float, ledger: list[float]) -> bool:
    """Debit ``amount`` if the node can cover it.

    Covering the cost exactly still completes the action; the node dies
    afterwards. An uncoverable cost drains the node, kills it, and fails.
    """
    if amount <= node.residual_energy:
        node.residual_energy -= amount
        ledger.append(amount)
        if node.residual_energy == 0.0:
            node.alive = False
        return True
    ledger.append(node.residual_energy)
    node.residual_energy = 0.0
    node.alive = False
    return False


def run_round(nodes: list[Node], alive: list[Node], plan: TransmissionPlan,
              config: NetworkConfig, rng: Random, links: DistanceCache) -> RoundMetrics:
    """Execute one transmission round, mutating node energies in place.

    ``nodes`` is indexed by id and ``links`` is its table for ``config.radio``.
    ``alive`` holds every node alive at the start of the round; the census
    is taken over it, since every other node holds exactly 0.0.
    """
    radio = config.radio
    bits = radio.packet_bits
    rx = rx_cost(bits, radio)
    crossover = crossover_distance(radio)
    e_elec, e_fs, e_mp = radio.e_elec, radio.e_fs, radio.e_mp
    drop_p = config.link_drop_probability
    lossy = drop_p > 0.0  # a loss-free run never draws from the RNG
    link_delay = config.delay.link_delay
    rows = links.rows
    to_bs = links.to_bs
    tx_to_bs = links.tx_to_bs

    ledger: list[float] = []
    delivered_delays: list[float] = []
    sent = 0
    received = 0
    arrivals = [0] * len(nodes)
    longest = [0.0] * len(nodes)  # each head's longest delivered member link

    # phase 1: members transmit to their cluster heads
    for member_id, ch_id in plan.members:
        d = rows[member_id][ch_id]
        # tx_cost's expression with the radio constants hoisted out of the loop
        cost = bits * (e_elec + e_fs * d * d) if d < crossover else bits * (e_elec + e_mp * d ** 4)
        if not _charge(nodes[member_id], cost, ledger):
            continue
        if lossy and rng.random() < drop_p:
            continue
        if not _charge(nodes[ch_id], rx, ledger):
            continue
        arrivals[ch_id] += 1
        if d > longest[ch_id]:
            longest[ch_id] = d

    # phase 2: cluster heads aggregate, then send straight or through one relay
    for ch_id, relay_id in plan.routes:
        signals = arrivals[ch_id] + 1  # members plus the head's own reading
        if not _charge(nodes[ch_id], aggregation_cost(bits, signals, radio), ledger):
            continue
        # link_delay never decreases with distance, so the longest link gives the max
        packet_delay = link_delay(longest[ch_id]) if signals > 1 else 0.0
        sender_id = ch_id
        if relay_id is not None:
            d = rows[ch_id][relay_id]
            if not _charge(nodes[ch_id], tx_cost(bits, d, radio), ledger):
                continue
            if lossy and rng.random() < drop_p:
                continue
            if not _charge(nodes[relay_id], rx, ledger):
                continue
            packet_delay += link_delay(d)
            sender_id = relay_id
        if not _charge(nodes[sender_id], tx_to_bs[sender_id], ledger):
            continue
        sent += 1
        if not lossy or rng.random() >= drop_p:
            received += 1
            delivered_delays.append(packet_delay + link_delay(to_bs[sender_id]))

    # phase 3: direct senders transmit their own readings
    for node_id in plan.direct:
        if not _charge(nodes[node_id], tx_to_bs[node_id], ledger):
            continue
        sent += 1
        if not lossy or rng.random() >= drop_p:
            received += 1
            delivered_delays.append(link_delay(to_bs[node_id]))

    survivors = sum(map(attrgetter("alive"), alive))
    mean_delay = math.fsum(delivered_delays) / len(delivered_delays) if delivered_delays else 0.0
    return RoundMetrics(
        round_index=plan.round_index,
        alive=survivors,
        dead=len(nodes) - survivors,
        packets_sent_to_bs=sent,
        packets_received_by_bs=received,
        ch_count=plan.ch_count,
        mean_delay=mean_delay,
        total_residual_energy=math.fsum(map(attrgetter("residual_energy"), alive)),
        energy_spent=math.fsum(ledger),
    )


def _elect(alive: list[Node], kind: ProtocolKind, round_index: int, rng: Random,
           history: dict[int, int]) -> set[int]:
    if kind.name == "amdiscnt":
        return elect_chs_amdiscnt(alive)
    if kind.name == "leach":
        return elect_chs_leach(alive, round_index, kind.p_opt, rng, history)
    return elect_chs_deec(alive, round_index, kind.p_opt, rng, history)


# The last link table built, with its key; see _link_table.
_last_table: tuple[tuple, DistanceCache] | None = None


def _link_table(nodes: list[Node], radio: RadioParams) -> DistanceCache:
    """The link table of ``nodes`` under ``radio``, reused across runs.

    One entry is kept, keyed by the radio and every node's position and
    region, which is all the table reads. Consecutive runs on one
    placement, such as the protocols of one seed, share it; any other key
    drops the stored table before the new one is built, so two tables
    never live at once.
    """
    global _last_table
    # plain values, so the key keeps no object of an earlier placement alive
    coordinates = array("d", [v for node in nodes for v in (node.position.x, node.position.y)])
    key = (radio, coordinates, tuple(node.region.sector for node in nodes))
    entry = _last_table  # one read, in case another thread replaces it meanwhile
    if entry is not None and entry[0] == key:
        return entry[1]
    entry = _last_table = None  # free the old table before the new one is built
    links = DistanceCache(nodes, radio)
    _last_table = key, links
    return links


def run_simulation(config: NetworkConfig, kind: ProtocolKind) -> SimulationResult:
    """Deploy the network and run rounds until the horizon or total death."""
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = Random(config.seed)
    placement = deploy(config, rng)
    nodes = list(placement.nodes)
    links = _link_table(nodes, config.radio)
    history: dict[int, int] = {}
    n = len(nodes)
    is_alive = attrgetter("alive")
    alive = list(filter(is_alive, nodes))  # in id order; elections and plans walk only these

    per_round: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    for round_index in range(config.max_rounds):
        ch_set = _elect(alive, kind, round_index, rng, history)
        plan = build_plan(nodes, alive, ch_set, kind, links, round_index)
        metrics = run_round(nodes, alive, plan, config, rng, links)
        per_round.append(metrics)
        if metrics.alive < len(alive):  # someone died this round
            alive = list(filter(is_alive, alive))
        completed = round_index + 1
        if fnd is None and metrics.dead >= 1:
            fnd = completed
        if hnd is None and 2 * metrics.dead >= n:
            hnd = completed
        if metrics.dead == n:  # every node is dead, so no later round can act
            lnd = completed
            break
    return SimulationResult(
        config=config,
        protocol=kind.name,
        per_round=tuple(per_round),
        first_node_death=fnd,
        half_nodes_death=hnd,
        last_node_death=lnd,
    )
