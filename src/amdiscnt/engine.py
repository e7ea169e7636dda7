"""Deterministic round engine.

Each round runs three phases in fixed id order: members transmit to their
cluster heads, heads aggregate and forward along their routes (paying
relay receive costs on the way), then direct senders transmit to the base
station. Every energy charge is attempted against the node's remaining
budget: a node that cannot cover a cost spends what it has, dies, and the
packet involved is lost; a node left at exactly zero completes the action
first and then dies. All randomness comes from the single ``Random``
instance owned by the run, and it is consulted only when a lossy link is
configured, so equal seeds give byte-identical histories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from random import Random

from .deployment import deploy
from .energy import aggregation_cost, crossover_distance, rx_cost, tx_cost
from .model import ConfigurationError, NetworkConfig, Node, validate_config
from .protocols import (
    BS_ID,
    DistanceCache,
    ProtocolKind,
    TransmissionPlan,
    build_plan,
    elect_chs_amdiscnt,
    elect_chs_deec,
    elect_chs_leach,
)


@dataclass(frozen=True)
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


def run_round(nodes: list[Node], plan: TransmissionPlan, config: NetworkConfig,
              rng: Random, links: DistanceCache) -> RoundMetrics:
    """Execute one transmission round, mutating node energies in place.

    ``nodes`` is indexed by id and ``links`` is its table for ``config.radio``.
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
        member = nodes[member_id]
        if not member.alive:
            continue
        d = rows[member_id][ch_id]
        # tx_cost's expression with the radio constants hoisted out of the loop
        cost = bits * (e_elec + e_fs * d * d) if d < crossover else bits * (e_elec + e_mp * d ** 4)
        if not _charge(member, cost, ledger):
            continue
        if lossy and rng.random() < drop_p:
            continue
        ch = nodes[ch_id]
        if not ch.alive:
            continue
        if not _charge(ch, rx, ledger):
            continue
        arrivals[ch_id] += 1
        if d > longest[ch_id]:
            longest[ch_id] = d

    # phase 2: cluster heads aggregate and forward along their routes
    for ch_id, route in plan.routes:
        ch = nodes[ch_id]
        if not ch.alive:
            continue
        signals = arrivals[ch_id] + 1  # members plus the head's own reading
        if not _charge(ch, aggregation_cost(bits, signals, radio), ledger):
            continue
        # link_delay never decreases with distance, so the longest link gives the max
        packet_delay = link_delay(longest[ch_id]) if signals > 1 else 0.0
        sender = ch
        for hop in route:
            if not sender.alive:
                break
            if hop == BS_ID:
                d = to_bs[sender.id]
                if not _charge(sender, tx_to_bs[sender.id], ledger):
                    break
                sent += 1
                if not lossy or rng.random() >= drop_p:
                    received += 1
                    delivered_delays.append(packet_delay + link_delay(d))
                break
            d = rows[sender.id][hop]
            if not _charge(sender, tx_cost(bits, d, radio), ledger):
                break
            if lossy and rng.random() < drop_p:
                break
            relay = nodes[hop]
            if not relay.alive:
                break
            if not _charge(relay, rx, ledger):
                break
            packet_delay += link_delay(d)
            sender = relay

    # phase 3: direct senders transmit their own readings
    for node_id in plan.direct:
        node = nodes[node_id]
        if not node.alive:
            continue
        if not _charge(node, tx_to_bs[node_id], ledger):
            continue
        sent += 1
        if not lossy or rng.random() >= drop_p:
            received += 1
            delivered_delays.append(link_delay(to_bs[node_id]))

    alive = sum(map(attrgetter("alive"), nodes))
    mean_delay = math.fsum(delivered_delays) / len(delivered_delays) if delivered_delays else 0.0
    return RoundMetrics(
        round_index=plan.round_index,
        alive=alive,
        dead=len(nodes) - alive,
        packets_sent_to_bs=sent,
        packets_received_by_bs=received,
        ch_count=plan.ch_count,
        mean_delay=mean_delay,
        total_residual_energy=math.fsum(map(attrgetter("residual_energy"), nodes)),
        energy_spent=math.fsum(ledger),
    )


def _elect(nodes: list[Node], kind: ProtocolKind, round_index: int, rng: Random,
           history: dict[int, int]) -> set[int]:
    if kind.name == "amdiscnt":
        return elect_chs_amdiscnt(nodes)
    if kind.name == "leach":
        return elect_chs_leach(nodes, round_index, kind.p_opt, rng, history)
    return elect_chs_deec(nodes, round_index, kind.p_opt, rng, history)


def run_simulation(config: NetworkConfig, kind: ProtocolKind) -> SimulationResult:
    """Deploy the network and run rounds until the horizon or total death."""
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = Random(config.seed)
    placement = deploy(config, rng)
    nodes = list(placement.nodes)
    links = DistanceCache(nodes, config.radio)
    history: dict[int, int] = {}
    n = len(nodes)

    per_round: list[RoundMetrics] = []
    fnd = hnd = lnd = None
    for round_index in range(config.max_rounds):
        ch_set = _elect(nodes, kind, round_index, rng, history)
        plan = build_plan(nodes, ch_set, kind, links, round_index)
        metrics = run_round(nodes, plan, config, rng, links)
        per_round.append(metrics)
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
