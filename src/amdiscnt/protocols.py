"""Per-round role assignment and routing for the three protocols.

``amdiscnt`` elects the highest-energy alive node of each outer wedge as
that wedge's cluster head; inner nodes talk straight to the base station
and may relay cluster aggregates. ``leach`` rotates cluster headship with
the classic random threshold; ``deec`` weights that threshold by each
node's residual energy relative to the alive-network average. Members in
the baselines join the nearest head anywhere on the field.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from random import Random

from .energy import tx_cost
from .model import Node, RadioParams

BS_ID = -1  # sentinel terminating every route
DIRECT_ROUTE = (BS_ID,)

PROTOCOL_NAMES = ("amdiscnt", "leach", "deec")

_is_alive = attrgetter("alive")
_residual = attrgetter("residual_energy")


@dataclass(frozen=True)
class ProtocolKind:
    name: str
    p_opt: float = 0.1

    def __post_init__(self):
        if self.name not in PROTOCOL_NAMES:
            raise ValueError(f"unknown protocol {self.name!r}; expected one of {PROTOCOL_NAMES}")
        if not 0.0 < self.p_opt < 1.0:
            raise ValueError(f"p_opt must lie in (0, 1), got {self.p_opt}")


@dataclass(frozen=True)
class TransmissionPlan:
    """One round's transmissions, in the order the engine makes them.

    ``members`` pairs each member with its cluster head, in member id
    order. ``routes`` pairs each cluster head, in id order, with the hops
    its aggregate takes after leaving it, always ending with
    :data:`BS_ID`. ``direct`` lists, in id order, the nodes that send
    their own reading straight to the base station; an inner node that
    relays an aggregate also sends its own packet there. Alive nodes in
    none of the lists idle for the round.
    """

    members: list[tuple[int, int]]
    routes: list[tuple[int, tuple[int, ...]]]
    direct: list[int]
    round_index: int = 0

    @property
    def ch_count(self) -> int:
        return len(self.routes)


class DistanceCache:
    """Link table of one fixed placement.

    Holds the pairwise distances (``rows[a][b]``), each node's distance
    and transmit cost to the base station, and each cluster head's relay
    order: the inner nodes whose two-leg cost to the base station is
    strictly below the head's direct cost, sorted by (cost, id). A relay
    order is built the first time its node heads a cluster. The
    neighbour orders list, for each node, every node id sorted by
    (distance from it, id), as compact ``array`` rows; they are built
    all at once, the first time a baseline plan asks for them, so runs
    that never join members to the nearest head never pay for them.
    ``nodes`` must be listed by id, 0..n-1 (deployment order).
    """

    def __init__(self, nodes: list[Node], radio: RadioParams):
        if [node.id for node in nodes] != list(range(len(nodes))):
            raise ValueError("node ids must be 0..n-1 in list order")
        self.radio = radio
        xs = [node.position.x for node in nodes]
        ys = [node.position.y for node in nodes]
        self.to_bs = list(map(math.hypot, xs, ys))
        self.tx_to_bs = [tx_cost(radio.packet_bits, d, radio) for d in self.to_bs]
        self.inner = [node.id for node in nodes if node.region.is_inner]
        # hypot(-u, -v) == hypot(u, v) exactly, so each distance is computed once
        rows: list[list[float]] = []
        for i, (x, y) in enumerate(zip(xs, ys)):
            row = [other[i] for other in rows]
            row.append(0.0)
            row += map(math.hypot, [x - xj for xj in xs[i + 1:]], [y - yj for yj in ys[i + 1:]])
            rows.append(row)
        self.rows = rows
        self._relay_orders: list[list[int] | None] = [None] * len(nodes)
        self._neighbour_orders: list[array] | None = None

    def relay_order(self, ch_id: int) -> list[int]:
        """Inner nodes cheaper than going direct, by (two-leg cost, id)."""
        order = self._relay_orders[ch_id]
        if order is None:
            bits = self.radio.packet_bits
            row = self.rows[ch_id]
            direct = self.tx_to_bs[ch_id]
            costs = sorted((tx_cost(bits, row[i], self.radio) + self.tx_to_bs[i], i)
                           for i in self.inner)
            order = [i for cost, i in costs if cost < direct]
            self._relay_orders[ch_id] = order
        return order

    def neighbour_orders(self) -> list[array]:
        """Every node id by (distance, id), one row per node."""
        orders = self._neighbour_orders
        if orders is None:
            ids = range(len(self.rows))
            # sorted is stable, so equal distances keep ascending id
            orders = [array("H", sorted(ids, key=row.__getitem__)) for row in self.rows]
            self._neighbour_orders = orders
        return orders


def elect_chs_amdiscnt(nodes: list[Node]) -> set[int]:
    """Pick the alive node with the most residual energy in each outer
    wedge; ties go to the lower id. ``nodes`` is in id order (the engine
    passes only the alive ones). Needs no randomness."""
    best: dict[int, Node] = {}
    for node in nodes:
        sector = node.region.sector
        if sector is None or not node.alive:
            continue
        current = best.get(sector)
        if (current is None
                or node.residual_energy > current.residual_energy
                or (node.residual_energy == current.residual_energy and node.id < current.id)):
            best[sector] = node
    return {node.id for node in best.values()}


def leach_threshold(round_index: int, p_opt: float) -> float:
    """Election threshold at a given position inside the rotation epoch."""
    epoch = int(1.0 / p_opt)
    return p_opt / (1.0 - p_opt * (round_index % epoch))


def elect_chs_leach(nodes: list[Node], round_index: int, p_opt: float, rng: Random,
                    history: dict[int, int] | None = None) -> set[int]:
    """Classic rotating election.

    Each alive node that has not served during the current epoch draws a
    uniform number, in id order, and elects itself when the draw falls
    under the epoch threshold. ``history`` (node id -> last election
    round) carries the rotation state between rounds and is updated in
    place.
    """
    if history is None:
        history = {}
    epoch = int(1.0 / p_opt)
    epoch_start = round_index - (round_index % epoch)
    threshold = leach_threshold(round_index, p_opt)
    draw = rng.random
    last_election = history.get
    elected = set()
    for node in nodes:
        if not node.alive:
            continue
        last = last_election(node.id)
        if last is not None and last >= epoch_start:
            continue
        if draw() < threshold:
            elected.add(node.id)
            history[node.id] = round_index
    return elected


def elect_chs_deec(nodes: list[Node], round_index: int, p_opt: float, rng: Random,
                   history: dict[int, int] | None = None) -> set[int]:
    """Energy-weighted rotating election.

    Like the classic rotation, but each node's probability
    ``min(1, p_opt * residual / average)`` (and therefore its personal
    epoch length) scales with residual energy over the exact mean
    residual energy of the alive nodes this round.
    """
    if history is None:
        history = {}
    alive = list(filter(_is_alive, nodes))
    if not alive:
        return set()
    average = math.fsum(map(_residual, alive)) / len(alive)
    draw = rng.random
    last_election = history.get
    elected = set()
    for node in alive:
        x = p_opt * node.residual_energy / average
        p_i = x if x < 1.0 else 1.0
        if p_i <= 0.0:
            continue
        epoch = int(1.0 / p_i)  # at least 1, since p_i <= 1
        position = round_index % epoch
        last = last_election(node.id)
        if last is not None and last >= round_index - position:
            continue
        if draw() < p_i / (1.0 - p_i * position):
            elected.add(node.id)
            history[node.id] = round_index
    return elected


def select_relay(ch_id: int, nodes: list[Node], links: DistanceCache) -> tuple[int, ...]:
    """Route a cluster head's aggregate toward the base station.

    The relay is the alive inner node with the lowest two-leg radio cost
    (lowest id on a cost tie). Direct transmission is kept whenever it
    costs no more than that, and when no inner node is alive.
    """
    for relay in links.relay_order(ch_id):
        if nodes[relay].alive:
            return (relay, BS_ID)
    return DIRECT_ROUTE


def build_plan(nodes: list[Node], alive: list[Node], ch_set: set[int], kind: ProtocolKind,
               links: DistanceCache, round_index: int = 0) -> TransmissionPlan:
    """Assign every alive node its transmissions for the round.

    ``amdiscnt``: inner alive nodes send directly; outer alive non-heads
    join their own wedge's head and idle when the wedge has none this
    round; heads route via :func:`select_relay`. Baselines: every alive
    non-head joins the nearest head (lower id on a distance tie) and heads
    go single-hop to the base station; with no heads at all, everyone
    falls back to direct transmission. ``nodes`` is indexed by id;
    ``alive`` lists exactly its alive nodes, in id order.
    """
    members: list[tuple[int, int]] = []
    direct: list[int] = []
    heads = sorted(ch_set)

    if kind.name == "amdiscnt":
        sector_ch = {nodes[ch_id].region.sector: ch_id for ch_id in ch_set}
        for node in alive:
            if node.id in ch_set:
                continue
            sector = node.region.sector
            if sector is None:
                direct.append(node.id)
            elif sector in sector_ch:
                members.append((node.id, sector_ch[sector]))
        routes = [(ch_id, select_relay(ch_id, nodes, links)) for ch_id in heads]
        return TransmissionPlan(members, routes, direct, round_index)

    if not heads:
        direct = [node.id for node in alive]
    else:
        orders = links.neighbour_orders()
        mask = bytearray(len(nodes))
        for ch_id in heads:
            mask[ch_id] = 1
        is_head = mask.__getitem__
        # each member takes the first head in its own (distance, id) order
        members = [(node.id, next(filter(is_head, orders[node.id])))
                   for node in alive if not mask[node.id]]
    return TransmissionPlan(members, [(ch_id, DIRECT_ROUTE) for ch_id in heads], direct,
                            round_index)
