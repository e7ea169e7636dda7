"""Pinned history digests over the option space.

Each case runs all three protocols on a small field and hashes the nine
``RoundMetrics`` fields of every round plus the three milestones. The
digests were recorded before the nearest-head orders and the fused member
phase went in, so any rewrite of the plans or of the round engine must
reproduce every history bit for bit, including the lossy-link, ``distance``
delay and relay paths that the loss-free benchmark workloads never take.
"""

import hashlib
import struct

import pytest

from amdiscnt.engine import run_simulation
from amdiscnt.model import DelayModel, Geometry, HeterogeneitySpec, NetworkConfig
from amdiscnt.protocols import PROTOCOL_NAMES, ProtocolKind

ROUND = struct.Struct("<6q3d")
LOW = HeterogeneitySpec(mode="two_level", e0=0.03, m=0.2, alpha=1.0)
DISTANCE = DelayModel(mode="distance", speed=3.0, per_hop=0.25)

CASES = {
    "lossy": NetworkConfig(n_nodes=30, heterogeneity=LOW, max_rounds=120, seed=3,
                           link_drop_probability=0.2),
    "distance_delay": NetworkConfig(n_nodes=30, heterogeneity=LOW, max_rounds=400, seed=4,
                                    delay=DISTANCE),
    "three_level": NetworkConfig(
        n_nodes=30, max_rounds=400, seed=5,
        heterogeneity=HeterogeneitySpec(
            mode="three_level", e0=0.03, m=0.3, m0=0.5, alpha=1.5, beta=2.0)),
    "multi_level": NetworkConfig(n_nodes=30, max_rounds=400, seed=6,
                                 heterogeneity=HeterogeneitySpec(
                                     mode="multi_level", e0=0.03, alpha_max=2.0)),
    "uniform_radius": NetworkConfig(n_nodes=30, heterogeneity=LOW, max_rounds=400, seed=7,
                                    deployment_mode="uniform_radius"),
    # past the radio crossover, so far heads route through inner relays
    "wide_relay": NetworkConfig(n_nodes=40, geometry=Geometry(120.0, 150.0), max_rounds=300,
                                heterogeneity=HeterogeneitySpec(
                                    mode="two_level", e0=0.05, m=0.2, alpha=1.0),
                                seed=8, link_drop_probability=0.1, delay=DISTANCE),
    "wide_lossless": NetworkConfig(n_nodes=40, geometry=Geometry(120.0, 150.0), max_rounds=300,
                                   heterogeneity=HeterogeneitySpec(
                                       mode="two_level", e0=0.05, m=0.2, alpha=1.0),
                                   seed=9),
}

DIGESTS = {
    ('distance_delay', 'amdiscnt'): "f07002f1e5de65862c3b73dc7232d33139efe6d5e1ae851bf5467450970c77e3",
    ('distance_delay', 'leach'): "05bc2dc9709502d349880645cac541cc9341e6c054cde380077b3ef720f1a5f7",
    ('distance_delay', 'deec'): "a93ecbb9f815b655f3bdb39887439123d8726a6c901ef4018a459fdba1e156b4",
    ('lossy', 'amdiscnt'): "daf29b0c7316fbc5b3c2c43eeec854d9aa130b2076bd900147c61c123b208626",
    ('lossy', 'leach'): "ecb5296ffee7bce85876144c3195436af06d742789c0c2aca03004af681fa79c",
    ('lossy', 'deec'): "b8d436748510ec4721077f5de68b7b39b26dbabc4cd46d3c5f3592e643379ba7",
    ('multi_level', 'amdiscnt'): "979bff2a48676a11a2dc05b0bf9a0350e6d7e790e55bc621e66a69145183f9ad",
    ('multi_level', 'leach'): "d9fbf2f19d0dcad6102d013d9b201211e92ea2c4c78eacd3ee86deaaae1d63ba",
    ('multi_level', 'deec'): "32122d60c95999c722f0e8bcdec540e28f2048d701dd89c4ed752be29cf4eb60",
    ('three_level', 'amdiscnt'): "61815ff918d3f8a3307dfba790523699855ceda12675a92904690b23f40be433",
    ('three_level', 'leach'): "210994ee60d3dde6fc04c40e2da389622e13f7565e4a2456ab7271a55ca947e6",
    ('three_level', 'deec'): "4722e22463c695120be8aeaf0d7c04db5872c8fa4cddb9befabbaaeca6b80e3c",
    ('uniform_radius', 'amdiscnt'): "4b7915d7cccc21125a4477b7b1c11d6e3984b41c9741c02e77977ce78f365aed",
    ('uniform_radius', 'leach'): "d86f789c46e99568f63b7d0beff124e0a619fa01f727df3645de0aa3a1e3f790",
    ('uniform_radius', 'deec'): "ac4c19e74bc7b4c3c19e1b0e9e07f17f2978190547d8d2e610969846ef8ad959",
    ('wide_lossless', 'amdiscnt'): "00f37c1d9718dbf131119748f14002e3f82715f8603a865125fd6434c294fc6b",
    ('wide_lossless', 'leach'): "fb87233c49aa5154e3522f69512025212503aa8db1b8e900e4a19836b1083056",
    ('wide_lossless', 'deec'): "ee03bef7a193271138ee20785891339efe52e23f8182fefbb0ac8e1a39b9a74f",
    ('wide_relay', 'amdiscnt'): "b0591af89e65412cf3140aef604058a3f4d28304d610ea2018bda66b9f26782a",
    ('wide_relay', 'leach'): "f017aa55ab8a9b4cd9640289e3c7b35e4744367b99b9e35574d2fb5d950638ef",
    ('wide_relay', 'deec'): "b70d164d53154b7b7251070005e8eccb223e87f263ac57f9d3e1f4617b4546ac",
}


def history_digest(result) -> str:
    h = hashlib.sha256()
    for m in result.per_round:
        h.update(ROUND.pack(m.round_index, m.alive, m.dead, m.packets_sent_to_bs,
                            m.packets_received_by_bs, m.ch_count, m.mean_delay,
                            m.total_residual_energy, m.energy_spent))
    h.update(repr([result.first_node_death, result.half_nodes_death,
                   result.last_node_death]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_history_matches_recorded_digest(case, protocol):
    result = run_simulation(CASES[case], ProtocolKind(protocol))
    assert history_digest(result) == DIGESTS[case, protocol]
