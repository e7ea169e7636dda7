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
first; the test checks both on the default two-level field and under
homogeneous and three-level batteries, where every link is free-space
and a relay's second leg costs more than it saves, and the poorest
inner node's own budget is 2315-2361 rounds.
"""

import math

import pytest

from amdiscnt.engine import place, run_simulation
from amdiscnt.model import (
    HeterogeneitySpec,
    NetworkConfig,
    aggregation_cost,
    rx_cost,
    tx_cost,
)

# the default field's two-level batteries, and two more energy models
ENERGY_MODELS = {
    "two_level": NetworkConfig().heterogeneity,
    "homogeneous": HeterogeneitySpec(mode="homogeneous", e0=0.5),
    "three_level": HeterogeneitySpec(mode="three_level", e0=0.5, m=0.2, m0=0.5,
                                     alpha=1.0, beta=2.0),
}


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


# Measured, seeds 0-9, the budget exceeds the simulated first death, never less, by
#   two-level (the default field): +0.012% to +0.284% (mean +0.158%), deaths 1214-1333;
#   homogeneous, e0 = 0.5: +0.052% to +0.216% (mean +0.140%), deaths 1210-1217;
#   three-level, m = 0.2, m0 = 0.5, alpha = 1, beta = 2: +0.007% to +0.284% (mean
#   +0.133%), deaths 1214-1423.
# Rotation levels a wedge only to within a round's spend, so one of its nodes runs dry
# a little before the wedge's total does. max_rounds = 1500 covers the latest death.
@pytest.mark.parametrize("model, seed", [
    pytest.param(model, seed, id=str(seed) if model == "two_level" else f"{model}-{seed}")
    for model in ENERGY_MODELS for seed in range(10)])
def test_wedge_budget_predicts_the_first_death(model, seed):
    placement = place(NetworkConfig(seed=seed, max_rounds=1500,
                                    heterogeneity=ENERGY_MODELS[model]))
    predicted = predicted_first_death(placement)
    first_death = run_simulation(placement.config, "amdiscnt", placement).first_node_death
    error = (predicted - first_death) / first_death
    assert 0.0 <= error <= 0.005, (predicted, first_death)
    links = placement.links
    assert not any(links.relay_order(h) for ids in links.wedges for h in ids)
    assert min(placement.nodes[i].initial_energy / links.tx_to_bs[i]
               for i in links.inner) > predicted
