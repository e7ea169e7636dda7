"""A closed-form wedge budget predicts amdiscnt's first death.

amdiscnt heads each outer wedge with its richest node, so the headship
rotates and the wedge drains as a unit. Its first death then falls close
to where the wedge's energy runs out. For each wedge the budget is
B = E / S, from the placement alone:

- E is the wedge's total initial energy;
- S is the wedge's spend per round, averaged over which of its k nodes
  heads it. With head h, that spend is every other node's send to h and
  h's receipt of it, plus the aggregation of k signals, plus h's send to
  the base station.

The prediction is the smallest B over the wedges. It assumes that every
head sends straight to the base station and that no inner node dies
first; the test checks both on the default field, where every link is
free-space and a relay's second leg costs more than it saves, and each
inner node's own budget is about 2300 rounds.
"""

import math

import pytest

from amdiscnt.engine import place, run_simulation
from amdiscnt.model import NetworkConfig, aggregation_cost, rx_cost, tx_cost


def predicted_first_death(placement) -> float:
    """The smallest wedge budget E / S of ``placement``, in rounds."""
    links, radio = placement.links, placement.config.radio
    bits, points = radio.packet_bits, links.points
    rx = rx_cost(bits, radio)
    budgets = []
    for ids in links.wedges:
        k = len(ids)
        energy = math.fsum(placement.nodes[i].initial_energy for i in ids)
        spends = [math.fsum(tx_cost(bits, math.dist(points[i], points[h]), radio) + rx
                            for i in ids if i != h)
                  + aggregation_cost(bits, k, radio) + links.tx_to_bs[h] for h in ids]
        budgets.append(energy / (math.fsum(spends) / k))
    return min(budgets)


# Measured on the default field, seeds 0-9: the budget exceeds the simulated first
# death by +0.012% to +0.284% (mean +0.158%), never less. Rotation levels a wedge
# only to within a round's spend, so one of its nodes runs dry a little before the
# wedge's total does. Seeds whose poorest wedge dies at 1214-1224 and at 1327-1333
# rounds both fall inside the bound.
@pytest.mark.parametrize("seed", range(10))
def test_wedge_budget_predicts_the_first_death(seed):
    placement = place(NetworkConfig(seed=seed, max_rounds=1500))
    predicted = predicted_first_death(placement)
    first_death = run_simulation(placement.config, "amdiscnt", placement).first_node_death
    error = (predicted - first_death) / first_death
    assert 0.0 <= error <= 0.005, (predicted, first_death)
    links = placement.links
    assert not any(links.relay_order(h) for ids in links.wedges for h in ids)
    assert min(placement.nodes[i].initial_energy / links.tx_to_bs[i]
               for i in links.inner) > predicted
