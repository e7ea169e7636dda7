"""Per-round role assignment and routing for the three protocols.

``amdiscnt`` elects the highest-energy alive node of each outer wedge, from
the link table's ``wedges`` id rows, as that wedge's cluster head; inner
nodes talk straight to the base station and may relay cluster aggregates.
``leach`` rotates cluster headship with the classic random threshold;
``deec`` weights that threshold by each node's residual energy relative to
the alive-network average. Members in the baselines join the nearest head
anywhere on the field.
"""

from __future__ import annotations

import math
from array import array
from random import Random

from .model import N_SECTORS, Node, RadioParams, tx_cost

PROTOCOL_NAMES = ("amdiscnt", "leach", "deec")


class DistanceCache:
    """Link table of one fixed placement; a node's id is its index in ``nodes``.

    Holds each node's ``(x, y)`` position as ``points``, the node's own
    tuple, by id, and its wedge as ``sectors`` (``None`` for the inner
    disk); ``inner`` lists the inner disk's ids, and ``wedges`` holds each
    wedge's ids as a compact ``array`` row, by sector, all in ascending
    order. A link's length is ``math.dist(points[a], points[b])``, computed
    when needed from the absolute coordinate differences, so it is the
    same from either end and bit-equal to ``math.hypot``. It also
    holds each node's distance and transmit cost to the base station, and
    each cluster head's relay order: the inner nodes whose two-leg cost to
    the base station is strictly below the head's direct cost, sorted by
    (cost, id), built the first time its node heads a cluster. The
    neighbour orders list, for each node, every node id sorted by
    (distance from it, id), as compact ``array`` rows; they are built all
    at once, the first time a baseline plan asks for them, so runs that
    never join members to the nearest head never pay for them.
    """

    def __init__(self, nodes: list[Node], radio: RadioParams):
        self.radio = radio
        self.points = [node.position for node in nodes]
        self.sectors = [node.region.sector for node in nodes]
        self.to_bs = [math.hypot(x, y) for x, y in self.points]
        self.tx_to_bs = [tx_cost(radio.packet_bits, d, radio) for d in self.to_bs]
        self.inner = [i for i, sector in enumerate(self.sectors) if sector is None]
        self.wedges = [array("H", [i for i, sector in enumerate(self.sectors) if sector == wedge])
                       for wedge in range(N_SECTORS)]
        self._relay_orders: list[list[int] | None] = [None] * len(nodes)
        self._neighbour_orders: list[array] | None = None

    def relay_order(self, ch_id: int) -> list[int]:
        """Inner nodes cheaper than going direct, by (two-leg cost, id)."""
        order = self._relay_orders[ch_id]
        if order is None:
            bits = self.radio.packet_bits
            here = self.points[ch_id]
            direct = self.tx_to_bs[ch_id]
            costs = sorted((tx_cost(bits, math.dist(here, self.points[i]), self.radio)
                            + self.tx_to_bs[i], i) for i in self.inner)
            order = [i for cost, i in costs if cost < direct]
            self._relay_orders[ch_id] = order
        return order

    def neighbour_orders(self) -> list[array]:
        """Every node id by (distance, id), one row per node."""
        orders = self._neighbour_orders
        if orders is None:
            points = self.points
            ids = range(len(points))
            # sorted is stable, so equal distances keep ascending id
            orders = [array("H", sorted(ids, key=[math.dist(p, q) for q in points].__getitem__))
                      for p in points]
            self._neighbour_orders = orders
        return orders


def elect_chs_amdiscnt(energy: list[float], wedges: list[array]) -> set[int]:
    """Pick the node with the most residual ``energy`` (by id) in each of
    ``wedges`` (ids in ascending order); ties go to the lower id, and a
    wedge whose nodes are all dead (``0.0``) has no head. Needs no
    randomness."""
    # max keeps the first of equal maxima, so on a tie the lower id wins
    winners = (max(ids, key=energy.__getitem__) for ids in wedges if ids)
    return {i for i in winners if energy[i]}


def elect_chs_leach(alive: list[int], round_index: int, p_opt: float, rng: Random,
                    history: list[int]) -> set[int]:
    """Classic rotating election.

    Each node of ``alive`` (the alive ids, in order) that has not
    served during the current epoch draws a uniform number and elects
    itself when the draw falls under the epoch threshold. ``history``
    (each id's last election round, by id, ``-1`` before its first)
    carries the rotation state between rounds and is updated in place.
    """
    try:
        epoch = int(1.0 / p_opt)
    except OverflowError:  # 1 / p_opt is inf: an epoch longer than any run
        epoch = round_index + 1
    epoch_start = round_index - (round_index % epoch)
    threshold = p_opt / (1.0 - p_opt * (round_index - epoch_start))
    draw = rng.random
    elected = set()
    for i in alive:
        if history[i] >= epoch_start:
            continue
        if draw() < threshold:
            elected.add(i)
            history[i] = round_index
    return elected


def elect_chs_deec(alive: list[int], energy: list[float], round_index: int, p_opt: float,
                   rng: Random, history: list[int]) -> set[int]:
    """Energy-weighted rotating election.

    Like the classic rotation, but each node's probability
    ``min(1, p_opt * residual / average)`` (and therefore its personal
    epoch length) scales with residual ``energy`` (by id, ``0.0`` when
    dead) over its exact mean over ``alive``, the alive ids in order.
    """
    if not alive:
        return set()
    average = math.fsum(energy) / len(alive)
    draw = rng.random
    elected = set()
    for i in alive:
        x = p_opt * energy[i] / average
        p_i = x if x < 1.0 else 1.0
        if p_i <= 0.0:
            continue
        try:
            epoch = int(1.0 / p_i)  # at least 1, since p_i <= 1
        except OverflowError:  # 1 / p_i is inf: an epoch longer than any run
            epoch = round_index + 1
        position = round_index % epoch
        if history[i] >= round_index - position:
            continue
        if draw() < p_i / (1.0 - p_i * position):
            elected.add(i)
            history[i] = round_index
    return elected


def select_relay(ch_id: int, energy: list[float], links: DistanceCache) -> int | None:
    """Pick the inner node that relays a cluster head's aggregate.

    The relay is the inner node alive in ``energy`` (non-zero by id) with
    the lowest two-leg radio cost (lowest id on a cost tie). ``None`` (send
    direct) is kept whenever direct costs no more, or no inner node lives.
    """
    for relay in links.relay_order(ch_id):
        if energy[relay]:
            return relay
    return None


def build_plan(alive: list[int], energy: list[float], ch_set: set[int], protocol: str,
               links: DistanceCache) -> tuple[list, list, list]:
    """Assign every alive node its transmissions for the round.

    Returns ``(members, routes, direct)``, the round's transmissions in
    the order the engine makes them, every node named by its id.
    ``members`` pairs each member with its cluster head, in member id
    order. ``routes`` pairs each cluster head, in id order, with the inner
    node that relays its aggregate to the base station, or ``None`` when
    the head sends it there itself. ``direct`` lists, in id order, the
    nodes that send their own reading straight to the base station; an
    inner node that relays an aggregate also sends its own packet there.
    Alive nodes in none of the lists idle for the round.

    ``amdiscnt``: inner alive nodes send directly; outer alive non-heads
    join their own wedge's head and idle when the wedge has none this
    round; heads route via :func:`select_relay`. Baselines: every alive
    non-head joins the nearest head (lower id on a distance tie) and heads
    go single-hop to the base station; with no heads at all, everyone
    falls back to direct transmission. ``alive`` lists exactly the alive
    ids, in order; ``energy`` is by id, ``0.0`` when dead.
    """
    heads = sorted(ch_set)

    if protocol == "amdiscnt":
        wedges, sectors = links.wedges, links.sectors
        # sorted puts members in id order, and with them the draws of lossy links
        members = sorted((i, h) for h in heads for i in wedges[sectors[h]]
                         if i != h and energy[i])
        direct = [i for i in links.inner if energy[i]]
        routes = [(ch_id, select_relay(ch_id, energy, links)) for ch_id in heads]
        return members, routes, direct

    if not heads:
        return [], [], list(alive)
    orders = links.neighbour_orders()
    is_head = ch_set.__contains__
    # each member takes the first head in its own (distance, id) order
    members = [(i, next(filter(is_head, orders[i]))) for i in alive if i not in ch_set]
    return members, [(ch_id, None) for ch_id in heads], []
