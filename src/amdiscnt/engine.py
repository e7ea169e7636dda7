"""Deterministic round engine.

Each round runs three phases in fixed id order: members transmit to their
cluster heads, heads aggregate and send to the base station, straight or
through one inner relay, then direct senders transmit to the base station.
A run keeps each node's battery in one list, by id. Every charge is
attempted against the node's remaining budget: a node that cannot cover
a cost spends what it has, dies, and the packet involved is lost; a node
left at exactly zero completes the action first and then dies. A cost
below the budget, the common case, is debited inline; only
:func:`_charge` kills, and the round counts the deaths it records. A
node is alive while its entry is non-zero: a dead one holds ``+0.0``, and
every validated cost is positive, so charging it fails and adds ``0.0``.
All randomness comes from the single ``Random(seed)`` owned by the run:
deployment draws the placement and any energy tiers from it, the
``leach`` and ``deec`` elections draw once per eligible node each round,
and a lossy link draws once per paid transmission; ``amdiscnt`` on
loss-free links draws nothing after deployment. Equal seeds therefore
give byte-identical histories. :func:`place` deploys a seed's field once
and saves the generator's state after deployment; every run on that
:class:`Placement` starts its own full batteries, restores that state and
reads its link table, which holds no randomness, so it is bit-exact with a
fresh run. A run writes to none of its placement's nodes.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, fields
from operator import attrgetter
from random import Random

from .deployment import deploy
from .model import (
    ConfigurationError,
    NetworkConfig,
    Node,
    aggregation_cost,
    crossover_distance,
    rx_cost,
    tx_cost,
    validate_config,
)
from .protocols import (
    PROTOCOL_NAMES,
    DistanceCache,
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


_FIELDS = RoundMetrics.__match_args__  # the nine fields, in constructor order
_record = attrgetter(*_FIELDS)


class RoundHistory(Sequence):
    """One run's rounds as nine typed columns: a read-only sequence of
    :class:`RoundMetrics`, each record built on access."""

    __slots__ = ("_columns",)

    def __init__(self, records=()):
        self._columns = tuple(map(array, "qqqqqqddd"))  # six counts, three floats
        for m in records:
            any(map(array.append, self._columns, _record(m)))

    def column(self, name: str) -> array:
        """A copy of field ``name`` for every round."""
        return self._columns[_FIELDS.index(name)][:]

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(RoundMetrics, *[c[i] for c in self._columns]))
        return RoundMetrics(*[c[i] for c in self._columns])

    def __iter__(self):
        return map(RoundMetrics, *self._columns)

    def __eq__(self, other):
        if isinstance(other, RoundHistory):
            return self._columns == other._columns
        return NotImplemented


@dataclass(frozen=True)
class SimulationResult:
    """Full per-round history of one seeded run.

    Milestones are counted in completed rounds (first round is 1) and are
    ``None`` when the event never happened within the horizon.
    """

    config: NetworkConfig
    protocol: str
    per_round: RoundHistory
    first_node_death: int | None
    half_nodes_death: int | None
    last_node_death: int | None

    @property
    def rounds(self) -> int:
        return len(self.per_round)

    @property
    def cumulative_sent(self) -> int:
        return sum(self.per_round.column("packets_sent_to_bs"))

    @property
    def cumulative_received(self) -> int:
        return sum(self.per_round.column("packets_received_by_bs"))


def _charge(energy: list[float], node_id: int, amount: float, ledger: list[float],
            deaths: list[int]) -> bool:
    """Debit ``amount``: the charge rule at its boundary, and whole for phase 2.

    An exact cover completes the action and kills the node; a larger cost
    drains it, kills it and fails. A node killed is appended to ``deaths``
    once, since a dead node is never alive to be killed again.
    """
    left = energy[node_id]
    if amount < left:
        energy[node_id] = left - amount
        ledger.append(amount)
        return True
    if left:
        deaths.append(node_id)
    energy[node_id] = 0.0
    ledger.append(left)  # all of it: the cost when it covers exactly, else the drain
    return amount == left


def run_round(round_index: int, energy: list[float], alive: list[int], plan: tuple,
              config: NetworkConfig, rng: Random, links: DistanceCache) -> RoundMetrics:
    """Execute round ``round_index``'s ``plan``, the ``(members, routes,
    direct)`` lists of :func:`build_plan`, debiting ``energy`` (by id) in place.

    ``links`` is the nodes' table for ``config.radio``. ``alive`` holds
    exactly the ids alive at the start of the round. A dead node holds
    ``+0.0``, so ``math.fsum(energy)`` is the residual sum over the living.
    """
    members, routes, direct = plan
    radio = config.radio
    bits = radio.packet_bits
    rx = rx_cost(bits, radio)
    crossover = crossover_distance(radio)
    e_elec, e_fs, e_mp = radio.e_elec, radio.e_fs, radio.e_mp
    drop_p = config.link_drop_probability
    lossy = drop_p > 0.0  # a loss-free run never draws from the RNG
    delay = config.delay  # a link of length d takes hop + d / speed, and d / inf == 0.0
    hop, speed = (1.0, math.inf) if delay.mode == "hops" else (delay.per_hop, delay.speed)
    dist = math.dist
    points = links.points
    to_bs = links.to_bs
    tx_to_bs = links.tx_to_bs

    ledger: list[float] = []
    spend = ledger.append
    deaths: list[int] = []
    delivered_delays: list[float] = []
    sent = 0
    arrivals = [0] * len(energy)
    longest = [0.0] * len(energy)  # each head's longest delivered member link

    # phases 1 and 3 debit a cost below the budget inline: x - y != 0 for x != y
    # phase 1: members transmit to their cluster heads
    for member_id, ch_id in members:
        d = dist(points[member_id], points[ch_id])
        # tx_cost's expression with the radio constants hoisted out of the loop
        cost = bits * (e_elec + e_fs * d * d) if d < crossover else bits * (e_elec + e_mp * d ** 4)
        left = energy[member_id]
        if cost < left:
            energy[member_id] = left - cost
            spend(cost)
        elif not _charge(energy, member_id, cost, ledger, deaths):
            continue
        if lossy and rng.random() < drop_p:
            continue
        left = energy[ch_id]
        if rx < left:
            energy[ch_id] = left - rx
            spend(rx)
        elif not _charge(energy, ch_id, rx, ledger, deaths):
            continue
        arrivals[ch_id] += 1
        if d > longest[ch_id]:
            longest[ch_id] = d

    # phase 2: cluster heads aggregate, then send straight or through one relay
    for ch_id, relay_id in routes:
        signals = arrivals[ch_id] + 1  # members plus the head's own reading
        if not _charge(energy, ch_id, aggregation_cost(bits, signals, radio), ledger, deaths):
            continue
        # a link's delay never decreases with distance, so the longest link gives the max
        packet_delay = hop + longest[ch_id] / speed if signals > 1 else 0.0
        sender_id = ch_id
        if relay_id is not None:
            d = dist(points[ch_id], points[relay_id])
            if not _charge(energy, ch_id, tx_cost(bits, d, radio), ledger, deaths):
                continue
            if lossy and rng.random() < drop_p:
                continue
            if not _charge(energy, relay_id, rx, ledger, deaths):
                continue
            packet_delay += hop + d / speed
            sender_id = relay_id
        if not _charge(energy, sender_id, tx_to_bs[sender_id], ledger, deaths):
            continue
        sent += 1
        if not lossy or rng.random() >= drop_p:
            delivered_delays.append(packet_delay + (hop + to_bs[sender_id] / speed))

    # phase 3: direct senders transmit their own readings
    for node_id in direct:
        cost = tx_to_bs[node_id]
        left = energy[node_id]
        if cost < left:
            energy[node_id] = left - cost
            spend(cost)
        elif not _charge(energy, node_id, cost, ledger, deaths):
            continue
        sent += 1
        if not lossy or rng.random() >= drop_p:
            delivered_delays.append(hop + to_bs[node_id] / speed)

    survivors = len(alive) - len(deaths)
    received = len(delivered_delays)
    mean_delay = math.fsum(delivered_delays) / received if received else 0.0
    return RoundMetrics(round_index, survivors, len(energy) - survivors, sent, received,
                        len(routes), mean_delay, math.fsum(energy), math.fsum(ledger))


@dataclass(frozen=True)
class Placement:
    """A seed's validated config, its deployed nodes (a node's id is its
    index), the generator state right after deployment, and the nodes'
    link table, which shares each node's position tuple."""

    config: NetworkConfig
    nodes: list[Node]
    rng_state: tuple
    links: DistanceCache


def place(config: NetworkConfig) -> Placement:
    """Validate ``config`` and deploy its field from ``Random(config.seed)``."""
    problems = validate_config(config)
    if problems:
        raise ConfigurationError("; ".join(problems))
    rng = Random(config.seed)
    nodes = deploy(config, rng)
    return Placement(config, nodes, rng.getstate(), DistanceCache(nodes, config.radio))


def run_simulation(config: NetworkConfig, protocol: str,
                   placement: Placement | None = None) -> SimulationResult:
    """Run ``protocol``, one of ``PROTOCOL_NAMES``, on ``placement``, which
    must be placed from ``config`` (a fresh one by default), until the
    horizon or total death."""
    if protocol not in PROTOCOL_NAMES:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOL_NAMES}")
    if placement is None:
        placement = place(config)
    elif placement.config != config:
        differ = [f.name for f in fields(config)
                  if getattr(config, f.name) != getattr(placement.config, f.name)]
        raise ConfigurationError(f"config differs from the placement's in {', '.join(differ)}")
    nodes = placement.nodes
    energy = [node.initial_energy for node in nodes]  # the run's own batteries, by id
    rng = Random()
    rng.setstate(placement.rng_state)
    links = placement.links
    wedges = links.wedges  # amdiscnt's wedge rows, a wedge dropped once all its ids are dead
    n = len(nodes)
    history = [-1] * n  # each id's last election round, -1 before its first
    alive = list(range(n))  # ids in order; elections and plans walk only the alive nodes

    per_round = RoundHistory()
    columns = per_round._columns
    for round_index in range(config.max_rounds):
        if protocol == "amdiscnt":
            ch_set = elect_chs_amdiscnt(energy, wedges)
        elif protocol == "leach":
            ch_set = elect_chs_leach(alive, round_index, config.p_opt, rng, history)
        else:
            ch_set = elect_chs_deec(alive, energy, round_index, config.p_opt, rng, history)
        plan = build_plan(alive, energy, ch_set, protocol, links)
        metrics = run_round(round_index, energy, alive, plan, config, rng, links)
        any(map(array.append, columns, _record(metrics)))  # C-level, no Python frame
        if metrics.alive < len(alive):  # someone died this round
            alive = [i for i in alive if energy[i]]
            wedges = [ids for ids in wedges if any(map(energy.__getitem__, ids))]
        if metrics.dead == n:  # every node is dead, so no later round can act
            break
    # dead never decreases, so each milestone is the first round whose count reaches it
    dead = per_round.column("dead")
    fnd, hnd, lnd = (bisect_left(dead, count) + 1 if dead and dead[-1] >= count else None
                     for count in (1, (n + 1) // 2, n))
    return SimulationResult(
        config=config,
        protocol=protocol,
        per_round=per_round,
        first_node_death=fnd,
        half_nodes_death=hnd,
        last_node_death=lnd,
    )
