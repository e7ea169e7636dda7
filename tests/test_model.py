import dataclasses
import math
import sys
from array import array
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_engine import distance, tier_fractions
from test_golden_histories import history_digest

from amdiscnt.deployment import deploy
from amdiscnt.engine import place, run_round, run_simulation
from amdiscnt.model import (
    MAX_NODES,
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    RadioParams,
    RegionId,
    round_half_up,
    validate_config,
)
from amdiscnt.protocols import PROTOCOL_NAMES, DistanceCache


def test_default_config_is_valid():
    assert validate_config(NetworkConfig()) == []


def test_position_distances():
    p = (3.0, 4.0)
    assert math.hypot(*p) == 5.0
    assert distance(p, (0.0, 0.0)) == 5.0
    assert distance(p, (3.0, 4.0)) == 0.0


def test_region_id_forms():
    inner = RegionId()
    assert inner.is_inner
    assert str(inner) == "inner"
    outer = RegionId(3)
    assert not outer.is_inner
    assert str(outer) == "outer3"
    with pytest.raises(ValueError):
        RegionId(8)
    with pytest.raises(ValueError):
        RegionId(-1)


def test_node_is_a_frozen_record_of_three_fields():
    node = Node((1.0, 2.0), RegionId(), 0.5)
    assert [f.name for f in dataclasses.fields(Node)] == ["position", "region", "initial_energy"]
    assert Node.__slots__ == ("position", "region", "initial_energy")
    for name, value in (("position", (0.0, 0.0)), ("region", RegionId(1)),
                        ("initial_energy", 0.0)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, value)
    assert node == Node((1.0, 2.0), RegionId(), 0.5)


def test_geometry_annulus_width():
    assert Geometry(20.0, 35.0).annulus_width == 15.0


def test_delay_model_modes():
    # one direct sender, the round's only delivered packet: hops counts its one link
    # however long, distance charges per_hop + d / speed for its 10 m
    for delay, position, expected in (
            (DelayModel(), (123.0, 0.0), 1.0),
            (DelayModel(mode="distance", speed=2.0, per_hop=0.5), (6.0, 8.0), 5.5)):
        nodes = [Node(position, RegionId(), 10.0)]
        config = NetworkConfig(delay=delay)
        metrics = run_round(0, [10.0], [0], ([], [], [0]), config,
                            Random(0), DistanceCache(nodes, config.radio))
        assert metrics.packets_received_by_bs == 1
        assert metrics.mean_delay == expected


def test_inverted_radii_rejected():
    config = NetworkConfig(geometry=Geometry(r_inner=35.0, r_outer=20.0))
    problems = validate_config(config)
    assert any("r_inner" in p for p in problems)


def test_out_of_range_drop_probability_rejected():
    config = NetworkConfig(link_drop_probability=1.5)
    problems = validate_config(config)
    assert any("link_drop_probability" in p for p in problems)


def test_too_few_nodes_rejected():
    problems = validate_config(NetworkConfig(n_nodes=8))
    assert any("n_nodes" in p for p in problems)


def test_invalid_config_still_constructible_and_all_problems_reported():
    config = NetworkConfig(
        n_nodes=4,
        geometry=Geometry(r_inner=-1.0, r_outer=-2.0),
        heterogeneity=HeterogeneitySpec(mode="nonsense", e0=-1.0),
        deployment_mode="bogus",
        delay=DelayModel(mode="wrong"),
        inner_fraction=0.0,
        link_drop_probability=2.0,
        max_rounds=-1,
    )
    problems = validate_config(config)
    assert len(problems) >= 7


def test_nan_radius_rejected():
    problems = validate_config(NetworkConfig(geometry=Geometry(r_inner=math.nan)))
    assert any("finite" in p for p in problems)


# each of these finite values overflowed in place() or in a run before validation bounded them
@pytest.mark.parametrize("fields, config", [
    (["geometry.r_outer"], NetworkConfig(geometry=Geometry(20.0, 1e90))),
    (["radio.packet_bits"], NetworkConfig(radio=RadioParams(packet_bits=10**400))),
    (["heterogeneity.e0", "heterogeneity.alpha"],
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="two_level", e0=1e308, m=0.2, alpha=1.0))),
    (["heterogeneity.e0", "heterogeneity.alpha_max"],
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="multi_level", e0=0.5, alpha_max=1e308))),
    (["delay.per_hop", "delay.speed"],
     NetworkConfig(delay=DelayModel(mode="distance", per_hop=1e308))),
    (["delay.per_hop", "delay.speed"],
     NetworkConfig(delay=DelayModel(mode="distance", speed=5e-324))),
])
def test_overflowing_value_rejected_by_name(fields, config):
    problems = validate_config(config)
    assert len(problems) == 1
    assert all(field in problems[0] for field in fields)
    assert "must be finite" in problems[0]
    with pytest.raises(ConfigurationError):
        place(config)


_NEAR_LIMIT = dict(n_nodes=30, max_rounds=20, seed=11)


# digests recorded before the overflow bounds went into validation
@pytest.mark.parametrize("config, digests", [
    (NetworkConfig(geometry=Geometry(20.0, 1e70), **_NEAR_LIMIT),
     ("337ab907134e2bf0918e6c248ec3b2a19e845c548e8d18f64a506ad222682bb5",
      "431e8c1bbc0e7f5f120d8537d79a2a9d6524ef36d5eda344e4d7ae183ea9fd71",
      "431e8c1bbc0e7f5f120d8537d79a2a9d6524ef36d5eda344e4d7ae183ea9fd71")),
    (NetworkConfig(radio=RadioParams(packet_bits=10**300), **_NEAR_LIMIT),
     ("a7658c2ff3faf36e43917660449476c44c3c7937ce69085173662f071b8a950d",
      "431e8c1bbc0e7f5f120d8537d79a2a9d6524ef36d5eda344e4d7ae183ea9fd71",
      "431e8c1bbc0e7f5f120d8537d79a2a9d6524ef36d5eda344e4d7ae183ea9fd71")),
    (NetworkConfig(heterogeneity=HeterogeneitySpec(
        mode="two_level", e0=1e305, m=0.2, alpha=1.0), **_NEAR_LIMIT),
     ("c5990d3f25f37f4b8e2d83ffd87a7e300255b088e5d75485c76bf40ffb56e4ff",
      "388587a0fdf06ce71f166b97b3753b92f6b617a3fd1cb58409438d37ede4a89a",
      "991bbb2d896c0553b1d9b88b38fa2b2c997d494a2306623d3dffce395f689a98")),
])
def test_large_finite_values_still_run_with_recorded_histories(config, digests):
    assert validate_config(config) == []
    for name, digest in zip(PROTOCOL_NAMES, digests):
        assert history_digest(run_simulation(config, name)) == digest


def test_exact_energy_bound_runs_a_total_near_the_float_limit():
    # 80 batteries of 1e306 and 20 of 2e306: 1.2e308, finite, though
    # n_nodes times the largest battery is not
    config = NetworkConfig(heterogeneity=HeterogeneitySpec(
        mode="two_level", e0=1e306, m=0.2, alpha=1.0),
                           max_rounds=20)
    assert validate_config(config) == []
    for name in PROTOCOL_NAMES:
        result = run_simulation(config, name)
        assert result.rounds == 20
        for m in result.per_round:
            assert all(map(math.isfinite, (m.mean_delay, m.total_residual_energy, m.energy_spent)))


DBL_MAX = sys.float_info.max
_ratios = (st.just(0.0) | st.floats(-20.0, 20.0).map(lambda x: 2.0 ** x)
           | st.floats(0.0, 40.0).map(lambda k: DBL_MAX * 2.0 ** -k))


@settings(deadline=None, max_examples=200)
@given(mode=st.sampled_from(["homogeneous", "two_level", "three_level"]),
       n_nodes=st.integers(9, 60), seed=st.integers(0, 2**32 - 1),
       e0=st.floats(0.0, 40.0).map(lambda k: DBL_MAX * 2.0 ** -k),
       m=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       m0=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), alpha=_ratios, beta=_ratios)
def test_discrete_energy_accepted_exactly_when_deploy_total_is_finite(
        mode, n_nodes, seed, e0, m, m0, alpha, beta):
    config = NetworkConfig(n_nodes=n_nodes, heterogeneity=HeterogeneitySpec(
        mode=mode, e0=e0, m=m, m0=m0, alpha=alpha, beta=beta))
    try:
        deployed = math.isfinite(math.fsum(n.initial_energy for n in deploy(config, Random(seed))))
    except OverflowError:  # fsum's intermediate overflow
        deployed = False
    assert (validate_config(config) == []) == deployed


def fraction_energy_overflows(config):
    """The oracle: deploy's tier counts and batteries, summed as Fractions."""
    n, het = config.n_nodes, config.heterogeneity
    m, m0, alpha, beta = tier_fractions(het)
    n_upper, n_super = round_half_up(m * n), round_half_up(m * m0 * n)
    tiers = [(n - n_upper, het.e0), (n_upper - n_super, het.e0 * (1.0 + alpha)),
             (n_super, het.e0 * (1.0 + (alpha + beta)))]
    try:
        return not math.isfinite(float(sum(k * Fraction(e) for k, e in tiers if k)))
    except OverflowError:  # an infinite battery, or a sum too large for a float
        return True


@settings(deadline=None, max_examples=300)
# totals within an ulp of the float limit, where summing rounded products
# would overflow a finite total (66 nodes) or keep an overflowing one (87)
@example(mode="two_level", n_nodes=87, e0=1.5769238025108033e+306, m=0.1, m0=0.0,
         alpha=3.0, beta=0.0)
@example(mode="two_level", n_nodes=66, e0=1.8158516513760765e+306, m=0.5, m0=0.0,
         alpha=1.0, beta=0.0)
# past the node limit: the largest float, and one past every float
@example(mode="two_level", n_nodes=int(DBL_MAX), e0=0.5, m=0.2, m0=0.0, alpha=1.0, beta=0.0)
@example(mode="two_level", n_nodes=10**400, e0=0.5, m=0.2, m0=0.0, alpha=1.0, beta=0.0)
@given(mode=st.sampled_from(["homogeneous", "two_level", "three_level"]),
       n_nodes=st.integers(1, 400).flatmap(lambda digits: st.integers(9, 10 ** digits)),
       e0=st.floats(5e-324, DBL_MAX) | st.floats(0.0, 60.0).map(lambda k: DBL_MAX * 2.0 ** -k),
       m=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       m0=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), alpha=_ratios, beta=_ratios)
def test_discrete_energy_rejected_exactly_when_the_fraction_sum_overflows(
        mode, n_nodes, e0, m, m0, alpha, beta):
    config = NetworkConfig(n_nodes=n_nodes, heterogeneity=HeterogeneitySpec(
        mode=mode, e0=e0, m=m, m0=m0, alpha=alpha, beta=beta))
    problems = validate_config(config)
    if n_nodes > MAX_NODES:
        assert problems == [f"n_nodes must be at most {MAX_NODES}, so that node ids fit in "
                            f"16 bits, got a {(n_nodes - 1).bit_length()}-bit largest id"]
        return
    if fraction_energy_overflows(config):
        assert len(problems) == 1
        assert problems[0].startswith("total initial energy of n_nodes batteries")
        assert problems[0].endswith(" must be finite")
    else:
        assert problems == []


def test_node_limit_is_the_neighbour_orders_id_width():
    # DistanceCache.neighbour_orders stores node ids as array("H"); no run is started
    array("H", [MAX_NODES - 1])
    with pytest.raises(OverflowError):
        array("H", [MAX_NODES])
    assert validate_config(NetworkConfig(n_nodes=MAX_NODES)) == []
    assert validate_config(NetworkConfig(n_nodes=MAX_NODES + 1)) == [
        f"n_nodes must be at most {MAX_NODES}, so that node ids fit in 16 bits, "
        f"got a 17-bit largest id"]


@pytest.mark.parametrize("n_nodes, inner_fraction, counts", [
    (9, 0.5, "inner=5, sectors=[1, 1, 1, 1, 0, 0, 0, 0]"),
    (9, 0.01, "inner=0, sectors=[2, 1, 1, 1, 1, 1, 1, 1]"),
])
def test_empty_region_rejected_by_name(n_nodes, inner_fraction, counts):
    config = NetworkConfig(n_nodes=n_nodes, inner_fraction=inner_fraction)
    assert validate_config(config) == [
        f"n_nodes = {n_nodes} with inner_fraction = {inner_fraction} leaves a region empty "
        f"({counts})"]
    with pytest.raises(ConfigurationError, match="leaves a region empty"):
        place(config)


@pytest.mark.parametrize("field, config", [
    ("heterogeneity.e0",
     NetworkConfig(heterogeneity=HeterogeneitySpec(
         mode="two_level", e0=math.inf, m=0.2, alpha=1.0))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec(
         mode="two_level", e0=0.5, m=0.2, alpha=math.nan))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec(
         mode="two_level", e0=0.5, m=0.2, alpha=math.inf))),
    ("heterogeneity.beta",
     NetworkConfig(heterogeneity=HeterogeneitySpec(
         mode="three_level", e0=0.5, m=0.2, m0=0.5, alpha=1.0, beta=math.nan))),
    ("heterogeneity.alpha_max",
     NetworkConfig(heterogeneity=HeterogeneitySpec(
         mode="multi_level", e0=0.5, alpha_max=math.nan))),
    ("delay.per_hop", NetworkConfig(delay=DelayModel(mode="distance", per_hop=math.nan))),
    ("delay.speed", NetworkConfig(delay=DelayModel(mode="distance", speed=math.inf))),
    ("radio.e_elec", NetworkConfig(radio=RadioParams(e_elec=math.inf))),
    ("radio.e_da", NetworkConfig(radio=RadioParams(e_da=math.nan))),
    # finite values outside a field's range; the crossover's message names both constants
    ("radio.e_elec", NetworkConfig(radio=RadioParams(e_elec=0.0))),
    ("radio.e_fs", NetworkConfig(radio=RadioParams(e_fs=-1e-12))),
    ("radio.e_mp", NetworkConfig(radio=RadioParams(e_mp=0.0))),
    ("radio.e_da", NetworkConfig(radio=RadioParams(e_da=-5e-9))),
    ("radio.packet_bits", NetworkConfig(radio=RadioParams(packet_bits=0))),
    ("radio.packet_bits", NetworkConfig(radio=RadioParams(packet_bits=-4000))),
    ("radio.e_fs",
     NetworkConfig(radio=RadioParams(e_fs=1e300, e_mp=1e-300))),  # the ratio overflows
    ("radio.e_fs",
     NetworkConfig(radio=RadioParams(e_fs=1e-300, e_mp=1e300))),  # the ratio underflows
    ("heterogeneity.m",
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="two_level", e0=0.5, m=1.5, alpha=1.0))),
    ("heterogeneity.m",
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="two_level", e0=0.5, m=math.nan,
                                                   alpha=1.0))),
    ("heterogeneity.m0",
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="three_level", e0=0.5, m=0.2, m0=-0.1,
                                                   alpha=1.0, beta=0.5))),
])
def test_non_finite_value_rejected_by_name(field, config):
    problems = validate_config(config)
    assert len(problems) == 1
    assert problems[0].startswith(field + " ")


@pytest.mark.parametrize("field, config", [
    ("n_nodes", NetworkConfig(n_nodes=100.5)),
    ("n_nodes", NetworkConfig(n_nodes=True)),
    ("max_rounds", NetworkConfig(max_rounds=2.5)),
    ("max_rounds", NetworkConfig(max_rounds="10")),
    ("seed", NetworkConfig(seed=1.5)),
    ("radio.packet_bits", NetworkConfig(radio=RadioParams(packet_bits=4000.5))),
])
def test_non_integer_value_rejected_by_name(field, config):
    problems = validate_config(config)
    assert len(problems) == 1
    assert problems[0].startswith(field + " must be an integer")


@pytest.mark.parametrize("field, config", [
    ("geometry.r_inner", NetworkConfig(geometry=Geometry(r_inner="20"))),
    ("link_drop_probability", NetworkConfig(link_drop_probability="0.1")),
    ("inner_fraction", NetworkConfig(inner_fraction=None)),
    ("radio.e_elec", NetworkConfig(radio=RadioParams(e_elec="5e-8"))),
    ("heterogeneity.m",
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="two_level", e0=0.5, m="0.2", alpha=1.0))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec(mode="two_level", e0=0.5, m=0.2, alpha=True))),
    ("delay.speed", NetworkConfig(delay=DelayModel(mode="distance", speed="1"))),
])
def test_non_number_value_rejected_by_name(field, config):
    problems = validate_config(config)
    assert len(problems) == 1
    assert problems[0].startswith(field + " must be a number")


# a non-number fails the type check, and a number outside (0, 1) the range check
@pytest.mark.parametrize("p_opt", [0.0, 1.5, math.nan, "0.1", None, [0.1]])
def test_p_opt_rejected_by_name(p_opt):
    rule = "must lie in (0, 1)" if isinstance(p_opt, float) else "must be a number"
    assert validate_config(NetworkConfig(p_opt=p_opt)) == [f"p_opt {rule}, got {p_opt!r}"]


def test_int_in_float_field_is_valid():
    config = NetworkConfig(geometry=Geometry(20, 35), link_drop_probability=0,
                           heterogeneity=HeterogeneitySpec(mode="two_level", e0=1, m=0, alpha=2),
                           delay=DelayModel(mode="distance", speed=3, per_hop=1))
    assert validate_config(config) == []


@pytest.mark.parametrize("field, expected, value", [
    ("geometry", "Geometry", None),
    ("radio", "RadioParams", "x"),
    ("radio", "RadioParams", Geometry()),
    ("heterogeneity", "HeterogeneitySpec", "two_level"),
    ("delay", "DelayModel", 3),
])
def test_nested_value_of_wrong_class_rejected_by_name(field, expected, value):
    config = NetworkConfig(**{field: value})
    assert validate_config(config) == [f"{field} must be a {expected}, got {value!r}"]
