"""Straight-line re-derivation of the per-round accounting.

Replays the deterministic sector-clustering protocol on an already
deployed node list with everything written out inline: election, role
assignment, relay choice, and every energy charge. No engine code is
imported; only the shared domain containers are touched.
:func:`replay_rounds` runs the whole loss-free, unit-per-hop protocol;
:func:`replay_round` executes one round of given transmissions, with
lossy links and either delay mode, and checks liveness explicitly before
every charge; :func:`replay_run` runs any of the three protocols from
first round to last out of the pieces here, with relays chosen and
members joined to the nearest head by brute force.

The rotating ``leach`` and ``deec`` elections are kept here as first
written, one plain loop each with the probability formula as its own
function, so that the engine's elections can be checked against them
draw for draw.
"""

from __future__ import annotations

import math
from random import Random

from amdiscnt.model import Node


def _tx(bits, d, radio):
    if d < math.sqrt(radio.e_fs / radio.e_mp):
        return bits * (radio.e_elec + radio.e_fs * d * d)
    return bits * (radio.e_elec + radio.e_mp * d ** 4)


def _rx(bits, radio):
    return bits * radio.e_elec


def _charge(node, amount, ledger):
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


def _sector_plan(nodes, radio):
    """One round of the sector-clustering protocol's roles and routes.

    Elects the strongest alive node of each outer wedge (lower id on a
    tie), sends inner alive non-heads direct, joins outer ones to their
    wedge's head, and routes each head through the alive inner node of
    lowest two-leg cost (lower id on a tie) when that is strictly
    cheaper than going direct. ``nodes`` is sorted by id. Returns the
    ``members``, ``routes`` and ``direct`` of :func:`replay_round`.
    """
    bits = radio.packet_bits
    heads = {}
    for node in nodes:
        if node.alive and not node.region.is_inner:
            cur = heads.get(node.region.sector)
            if cur is None or node.residual_energy > cur.residual_energy:
                heads[node.region.sector] = node
    ch_ids = {n.id for n in heads.values()}

    members = {}   # member id -> head id
    routes = {}    # head id -> hop list ending in None (the sink)
    direct = []
    for node in nodes:
        if not node.alive or node.id in ch_ids:
            continue
        if node.region.is_inner:
            direct.append(node.id)
        else:
            members[node.id] = heads[node.region.sector].id
    for ch in sorted(ch_ids):
        ch_node = next(n for n in nodes if n.id == ch)
        d_direct = math.hypot(ch_node.position.x, ch_node.position.y)
        best = None
        best_cost = math.inf
        for cand in nodes:
            if not cand.alive or not cand.region.is_inner or cand.id == ch:
                continue
            d1 = math.hypot(ch_node.position.x - cand.position.x,
                            ch_node.position.y - cand.position.y)
            d2 = math.hypot(cand.position.x, cand.position.y)
            cost = _tx(bits, d1, radio) + _tx(bits, d2, radio)
            if cost < best_cost:
                best_cost = cost
                best = cand.id
        if best is None or _tx(bits, d_direct, radio) <= best_cost:
            routes[ch] = [None]
        else:
            routes[ch] = [best, None]
    return members, routes, direct


def replay_rounds(nodes, config, n_rounds):
    """Run ``n_rounds`` of the sector-clustering protocol, loss-free.

    Returns one dict of metric fields per round, mutating the given
    nodes in place.
    """
    assert config.link_drop_probability == 0.0
    assert config.delay.mode == "hops"
    nodes = sorted(nodes, key=lambda n: n.id)
    out = []
    for round_index in range(n_rounds):
        if not any(n.alive for n in nodes):
            break
        members, routes, direct = _sector_plan(nodes, config.radio)
        out.append({"round_index": round_index,
                    **replay_round(nodes, members, routes, direct, config, None)})
    return out


def _link_delay(d, delay):
    if delay.mode == "hops":
        return 1.0
    return delay.per_hop + d / delay.speed


def replay_round(nodes, members, routes, direct, config, rng):
    """Execute one round of given transmissions and return its metrics.

    ``members`` maps member id to head id, ``routes`` maps head id to its
    hop list ending in ``None`` (the sink), and ``direct`` lists the
    nodes that send their own reading to the sink. Each phase walks its
    ids in ascending order. With lossy links, one draw from ``rng`` is
    made after each paid transmission, in the engine's order; loss-free
    links never draw. Mutates the given nodes in place.
    """
    radio = config.radio
    bits = radio.packet_bits
    drop_p = config.link_drop_probability
    by_id = {n.id: n for n in nodes}
    ledger = []
    delays = []
    sent = received = 0
    arrived = {}
    member_delay = {}

    for mid in sorted(members):
        member = by_id[mid]
        if not member.alive:
            continue
        ch = by_id[members[mid]]
        d = math.hypot(member.position.x - ch.position.x,
                       member.position.y - ch.position.y)
        if not _charge(member, _tx(bits, d, radio), ledger):
            continue
        if drop_p > 0.0 and rng.random() < drop_p:
            continue
        if not ch.alive:
            continue
        if not _charge(ch, _rx(bits, radio), ledger):
            continue
        arrived[ch.id] = arrived.get(ch.id, 0) + 1
        member_delay[ch.id] = max(member_delay.get(ch.id, 0.0), _link_delay(d, config.delay))

    for ch_id in sorted(routes):
        ch = by_id[ch_id]
        if not ch.alive:
            continue
        fused = arrived.get(ch_id, 0) + 1
        if not _charge(ch, bits * radio.e_da * fused, ledger):
            continue
        packet_delay = member_delay.get(ch_id, 0.0)
        sender = ch
        for hop in routes[ch_id]:
            if not sender.alive:
                break
            if hop is None:
                d = math.hypot(sender.position.x, sender.position.y)
                if not _charge(sender, _tx(bits, d, radio), ledger):
                    break
                sent += 1
                if drop_p == 0.0 or rng.random() >= drop_p:
                    received += 1
                    delays.append(packet_delay + _link_delay(d, config.delay))
                break
            d = math.hypot(sender.position.x - by_id[hop].position.x,
                           sender.position.y - by_id[hop].position.y)
            if not _charge(sender, _tx(bits, d, radio), ledger):
                break
            if drop_p > 0.0 and rng.random() < drop_p:
                break
            relay = by_id[hop]
            if not relay.alive:
                break
            if not _charge(relay, _rx(bits, radio), ledger):
                break
            packet_delay += _link_delay(d, config.delay)
            sender = relay

    for node_id in sorted(direct):
        node = by_id[node_id]
        if not node.alive:
            continue
        d = math.hypot(node.position.x, node.position.y)
        if not _charge(node, _tx(bits, d, radio), ledger):
            continue
        sent += 1
        if drop_p == 0.0 or rng.random() >= drop_p:
            received += 1
            delays.append(_link_delay(d, config.delay))

    alive = sum(1 for n in nodes if n.alive)
    return {
        "alive": alive,
        "dead": len(nodes) - alive,
        "packets_sent_to_bs": sent,
        "packets_received_by_bs": received,
        "ch_count": len(routes),
        "mean_delay": math.fsum(delays) / len(delays) if delays else 0.0,
        "total_residual_energy": math.fsum(n.residual_energy for n in nodes),
        "energy_spent": math.fsum(ledger),
    }


def leach_threshold(round_index: int, p_opt: float) -> float:
    """Election threshold at a given position inside the rotation epoch."""
    epoch = int(1.0 / p_opt)
    return p_opt / (1.0 - p_opt * (round_index % epoch))


def elect_chs_leach(nodes: list[Node], round_index: int, p_opt: float, rng: Random,
                    history: dict[int, int] | None = None) -> set[int]:
    """Classic rotating election.

    Each alive node that has not served during the current epoch draws a
    uniform number and elects itself when the draw falls under the epoch
    threshold. ``history`` (node id -> last election round) carries the
    rotation state between rounds and is updated in place.
    """
    if history is None:
        history = {}
    epoch = int(1.0 / p_opt)
    epoch_start = round_index - (round_index % epoch)
    threshold = leach_threshold(round_index, p_opt)
    elected = set()
    for node in nodes:
        if not node.alive:
            continue
        last = history.get(node.id)
        if last is not None and last >= epoch_start:
            continue
        if rng.random() < threshold:
            elected.add(node.id)
            history[node.id] = round_index
    return elected


def deec_probability(residual: float, average: float, p_opt: float) -> float:
    """Election probability scaled by the node's share of the average
    residual energy, capped at 1."""
    return min(1.0, p_opt * residual / average)


def elect_chs_deec(nodes: list[Node], round_index: int, p_opt: float, rng: Random,
                   history: dict[int, int] | None = None) -> set[int]:
    """Energy-weighted rotating election.

    Like the classic rotation, but each node's probability (and therefore
    its personal epoch length) scales with residual energy over the exact
    mean residual energy of the alive nodes this round.
    """
    if history is None:
        history = {}
    alive = [node for node in nodes if node.alive]
    if not alive:
        return set()
    average = math.fsum(node.residual_energy for node in alive) / len(alive)
    elected = set()
    for node in alive:
        p_i = deec_probability(node.residual_energy, average, p_opt)
        if p_i <= 0.0:
            continue
        epoch = max(1, int(1.0 / p_i))
        epoch_start = round_index - (round_index % epoch)
        last = history.get(node.id)
        if last is not None and last >= epoch_start:
            continue
        threshold = p_i / (1.0 - p_i * (round_index % epoch))
        if rng.random() < threshold:
            elected.add(node.id)
            history[node.id] = round_index
    return elected


def _nearest_head_plan(nodes, heads):
    """Join every alive non-head to the head at the smallest ``math.hypot``
    distance (lower id on a tie) and send every head straight to the
    sink; everyone goes direct when no head is elected."""
    members = {}
    direct = []
    for node in nodes:
        if not node.alive or node.id in heads:
            continue
        if not heads:
            direct.append(node.id)
            continue
        members[node.id] = min(heads, key=lambda h: (
            math.hypot(node.position.x - nodes[h].position.x,
                       node.position.y - nodes[h].position.y), h))
    return members, {h: [None] for h in heads}, direct


def replay_run(nodes, config, protocol, p_opt, rng):
    """Run one protocol on deployed nodes until the horizon or total death.

    ``rng`` is the run's generator just after deployment. Each round
    plans ``amdiscnt`` with :func:`_sector_plan` (``p_opt`` unused), or
    elects ``leach``/``deec`` heads with the loops above and joins
    members by :func:`_nearest_head_plan`, then executes the round with
    :func:`replay_round`. Returns the per-round metric dicts (with
    ``round_index``) and the first, half and last death milestones in
    completed rounds.
    """
    nodes = sorted(nodes, key=lambda n: n.id)
    history = {}
    out = []
    milestones = [None, None, None]
    for round_index in range(config.max_rounds):
        if protocol == "amdiscnt":
            members, routes, direct = _sector_plan(nodes, config.radio)
        else:
            elect = {"leach": elect_chs_leach, "deec": elect_chs_deec}[protocol]
            heads = sorted(elect(nodes, round_index, p_opt, rng, history))
            members, routes, direct = _nearest_head_plan(nodes, heads)
        metrics = replay_round(nodes, members, routes, direct, config, rng)
        out.append({"round_index": round_index, **metrics})
        dead = metrics["dead"]
        for i, reached in enumerate((dead >= 1, 2 * dead >= len(nodes), dead == len(nodes))):
            if milestones[i] is None and reached:
                milestones[i] = round_index + 1
        if dead == len(nodes):
            break
    return out, tuple(milestones)
