import math

import pytest

from amdiscnt.model import (
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Position,
    RadioParams,
    RegionId,
    validate_config,
)


def test_default_config_is_valid():
    assert validate_config(NetworkConfig()) == []


def test_position_distances():
    p = Position(3.0, 4.0)
    assert p.radius() == 5.0
    assert p.distance_to(Position(0.0, 0.0)) == 5.0
    assert p.distance_to(Position(3.0, 4.0)) == 0.0


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


def test_geometry_annulus_width():
    assert Geometry(20.0, 35.0).annulus_width == 15.0


def test_delay_model_modes():
    assert DelayModel().link_delay(123.0) == 1.0
    d = DelayModel(mode="distance", speed=2.0, per_hop=0.5)
    assert d.link_delay(10.0) == 5.5


def test_heterogeneity_constructors():
    assert HeterogeneitySpec.homogeneous(0.5).mode == "homogeneous"
    two = HeterogeneitySpec.two_level(0.5, 0.2, 1.0)
    assert (two.mode, two.m, two.alpha) == ("two_level", 0.2, 1.0)
    three = HeterogeneitySpec.three_level(0.5, 0.2, 0.5, 2.0, 3.0)
    assert (three.m0, three.beta) == (0.5, 3.0)
    multi = HeterogeneitySpec.multi_level(0.5, 1.0)
    assert multi.alpha_max == 1.0


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


@pytest.mark.parametrize("field, config", [
    ("heterogeneity.e0",
     NetworkConfig(heterogeneity=HeterogeneitySpec.two_level(math.inf, 0.2, 1.0))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec.two_level(0.5, 0.2, math.nan))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec.two_level(0.5, 0.2, math.inf))),
    ("heterogeneity.beta",
     NetworkConfig(heterogeneity=HeterogeneitySpec.three_level(0.5, 0.2, 0.5, 1.0, math.nan))),
    ("heterogeneity.alpha_max",
     NetworkConfig(heterogeneity=HeterogeneitySpec.multi_level(0.5, math.nan))),
    ("delay.per_hop", NetworkConfig(delay=DelayModel(mode="distance", per_hop=math.nan))),
    ("delay.speed", NetworkConfig(delay=DelayModel(mode="distance", speed=math.inf))),
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
     NetworkConfig(heterogeneity=HeterogeneitySpec.two_level(0.5, "0.2", 1.0))),
    ("heterogeneity.alpha",
     NetworkConfig(heterogeneity=HeterogeneitySpec.two_level(0.5, 0.2, True))),
    ("delay.speed", NetworkConfig(delay=DelayModel(mode="distance", speed="1"))),
])
def test_non_number_value_rejected_by_name(field, config):
    problems = validate_config(config)
    assert len(problems) == 1
    assert problems[0].startswith(field + " must be a number")


def test_int_in_float_field_is_valid():
    config = NetworkConfig(geometry=Geometry(20, 35), link_drop_probability=0,
                           heterogeneity=HeterogeneitySpec.two_level(1, 0, 2),
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
