import math
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import theoretical_total_energy

from amdiscnt.deployment import (
    OutOfFieldError,
    assign_initial_energy,
    deploy,
    region_node_counts,
    region_of,
    sample_inner_position,
    sample_outer_position,
)
from amdiscnt.model import (
    DEPLOYMENT_MODES,
    INNER,
    N_SECTORS,
    ConfigurationError,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    RegionId,
)

GEO = Geometry()


def test_region_of_inner_point():
    assert region_of((10.0, 0.0), GEO).is_inner


def test_region_of_sector_at_sixty_degrees():
    p = (30.0 * math.cos(math.pi / 3), 30.0 * math.sin(math.pi / 3))
    assert region_of(p, GEO) == RegionId(1)


def test_region_of_sector_zero_on_positive_axis():
    assert region_of((30.0, 0.0), GEO) == RegionId(0)


def test_region_of_negative_angle_wraps():
    assert region_of((0.0, -30.0), GEO) == RegionId(6)


def test_region_of_boundaries():
    assert region_of((20.0, 0.0), GEO).is_inner
    assert not region_of((35.0, 0.0), GEO).is_inner
    with pytest.raises(OutOfFieldError):
        region_of((35.1, 0.0), GEO)


def test_inner_sampling_uniform_area_fraction():
    rng = Random(7)
    n = 10_000
    inside = 0
    for _ in range(n):
        p = sample_inner_position(rng, GEO, "uniform_area")
        r = math.hypot(*p)
        assert 0.0 < r <= GEO.r_inner
        if r <= 10.0:
            inside += 1
    # area ratio (10/20)^2
    assert inside / n == pytest.approx(0.25, abs=0.02)


def test_inner_sampling_uniform_radius_fraction():
    rng = Random(7)
    n = 10_000
    inside = sum(
        1 for _ in range(n)
        if math.hypot(*sample_inner_position(rng, GEO, "uniform_radius")) <= 10.0)
    assert inside / n == pytest.approx(0.5, abs=0.02)


def test_outer_sampling_stays_in_sector_and_band():
    rng = Random(11)
    for sector in range(8):
        for _ in range(200):
            p = sample_outer_position(rng, GEO, sector, "uniform_area")
            assert GEO.r_inner < math.hypot(*p) <= GEO.r_outer
            assert region_of(p, GEO) == RegionId(sector)


def test_outer_sampling_uniform_area_radial_fraction():
    rng = Random(13)
    n = 10_000
    inside = sum(
        1 for _ in range(n)
        if math.hypot(*sample_outer_position(rng, GEO, 0, "uniform_area")) <= 28.0)
    expected = (28.0 ** 2 - 20.0 ** 2) / (35.0 ** 2 - 20.0 ** 2)
    assert inside / n == pytest.approx(expected, abs=0.02)


def test_region_node_counts_hundred():
    inner, sectors = region_node_counts(100, 1.0 / 9.0)
    assert inner == 11
    assert sectors == [12, 11, 11, 11, 11, 11, 11, 11]
    assert inner + sum(sectors) == 100


def test_region_node_counts_nine():
    inner, sectors = region_node_counts(9, 1.0 / 9.0)
    assert inner == 1
    assert sectors == [1] * 8


def test_deploy_eight_nodes_degenerate():
    config = NetworkConfig(n_nodes=9, inner_fraction=0.2)
    # 2 inner and 7 outer leaves one empty wedge
    with pytest.raises(ConfigurationError):
        deploy(config, Random(1))


def test_two_level_total_energy_exact():
    spec = HeterogeneitySpec(mode="two_level", e0=0.5, m=0.2, alpha=1.0)
    energies = assign_initial_energy(100, spec, Random(3))
    assert math.fsum(energies) == 60.0
    assert theoretical_total_energy(100, spec) == 60.0
    assert sum(1 for e in energies if e == 0.5 * (1.0 + 1.0)) == 20  # alpha 1.0


def test_three_level_total_energy_exact():
    spec = HeterogeneitySpec(mode="three_level", e0=0.5, m=0.2, m0=0.5, alpha=2.0, beta=3.0)
    energies = assign_initial_energy(100, spec, Random(3))
    # the realised sum is exact; the closed-form float evaluation is 1 ulp off 85
    assert math.fsum(energies) == 85.0
    assert theoretical_total_energy(100, spec) == pytest.approx(85.0, rel=1e-12)
    assert sum(1 for e in energies if e == 0.5 * (1.0 + 5.0)) == 10  # alpha + beta
    assert sum(1 for e in energies if e == 0.5 * (1.0 + 2.0)) == 10  # alpha


def test_multi_level_mean_total_matches_expectation():
    spec = HeterogeneitySpec(mode="multi_level", e0=0.5, alpha_max=1.0)
    totals = [
        math.fsum(assign_initial_energy(100, spec, Random(seed)))
        for seed in range(1000)
    ]
    assert math.fsum(totals) / len(totals) == pytest.approx(75.0, abs=1.0)
    assert theoretical_total_energy(100, spec) == 75.0
    assert all(0.5 < e <= 1.0 for e in assign_initial_energy(100, spec, Random(5)))


# the fields each mode does not read; setting them must change nothing
_IGNORED = {"homogeneous": ("m", "m0", "alpha", "beta", "alpha_max"),
            "two_level": ("m0", "beta", "alpha_max"),
            "three_level": ("alpha_max",),
            "multi_level": ("m", "m0", "alpha", "beta")}
_fraction = st.floats(0.0, 1.0)
_ratio = st.floats(0.0, 1e6)


@settings(max_examples=200)
@given(mode=st.sampled_from(sorted(_IGNORED)), count=st.integers(0, 300),
       seed=st.integers(0, 2**32 - 1), e0=st.floats(1e-6, 1e6),
       used=st.tuples(_fraction, _fraction, _ratio, _ratio, _ratio),
       ignored=st.tuples(_fraction, _fraction, _ratio, _ratio, _ratio))
def test_fields_a_mode_ignores_change_nothing(mode, count, seed, e0, used, ignored):
    fields = dict(zip(("m", "m0", "alpha", "beta", "alpha_max"), used))
    spec = HeterogeneitySpec(mode=mode, e0=e0, **fields)
    noisy = HeterogeneitySpec(mode=mode, e0=e0, **{
        **fields, **{f: v for f, v in zip(fields, ignored) if f in _IGNORED[mode]}})
    rng, noisy_rng = Random(seed), Random(seed)
    assert assign_initial_energy(count, noisy, noisy_rng) == \
        assign_initial_energy(count, spec, rng)
    assert noisy_rng.getstate() == rng.getstate()
    assert theoretical_total_energy(count, noisy) == theoretical_total_energy(count, spec)


def test_homogeneous_draws_nothing():
    rng = Random(7)
    state = rng.getstate()
    spec = HeterogeneitySpec(mode="homogeneous", e0=0.25, m=0.5, m0=0.5, alpha=2.0, beta=3.0)
    assert assign_initial_energy(50, spec, rng) == [0.25] * 50
    assert rng.getstate() == state
    assert theoretical_total_energy(50, spec) == 12.5


def test_unknown_mode_raises_from_both_energy_functions():
    spec = HeterogeneitySpec(mode="four_level", e0=0.5, m=0.2, alpha=1.0)
    with pytest.raises(ValueError):
        assign_initial_energy(10, spec, Random(1))
    with pytest.raises(ValueError):
        theoretical_total_energy(10, spec)


def test_deploy_census_and_region_consistency():
    config = NetworkConfig()
    nodes = deploy(config, Random(42))
    counts = Counter(node.region for node in nodes)
    assert len(nodes) == 100
    assert counts[RegionId()] == 11
    assert counts[RegionId(0)] == 12
    for sector in range(1, 8):
        assert counts[RegionId(sector)] == 11
    for node in nodes:
        assert node.region == region_of(node.position, config.geometry)
        assert node.initial_energy > 0.0  # a run starts every node alive, at this battery
        assert type(node.position) is tuple and list(map(type, node.position)) == [float, float]


def test_deploy_deterministic():
    config = NetworkConfig()
    a = deploy(config, Random(42))
    b = deploy(config, Random(42))
    assert a == b
    c = deploy(config, Random(43))
    assert a != c


def test_deploy_total_matches_two_level_closed_form():
    config = NetworkConfig()
    nodes = deploy(config, Random(9))
    assert math.fsum(node.initial_energy for node in nodes) == 60.0


@st.composite
def deployments(draw):
    r_inner = draw(st.floats(min_value=0.01, max_value=1e4))
    # a ring at least 1% wide, or any wider radius down to the next float
    geometry = Geometry(r_inner, draw(st.one_of(
        st.floats(min_value=1.01, max_value=100.0).map(lambda ratio: r_inner * ratio),
        st.floats(min_value=r_inner, max_value=2e4, exclude_min=True))))
    n = draw(st.integers(9, 300))
    # a fraction that leaves every region populated, or any in (0, 1)
    fraction = draw(st.one_of(
        st.integers(1, n - N_SECTORS).map(lambda inner: inner / n),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)))
    return NetworkConfig(n_nodes=n, geometry=geometry, inner_fraction=fraction,
                         deployment_mode=draw(st.sampled_from(DEPLOYMENT_MODES)))


@settings(deadline=None, max_examples=150)
@given(config=deployments(), seed=st.integers(0, 2**64))
def test_every_node_lies_in_its_intended_region(config, seed):
    inner, sectors = region_node_counts(config.n_nodes, config.inner_fraction)
    if inner <= 0 or min(sectors) <= 0:
        with pytest.raises(ConfigurationError):
            deploy(config, Random(seed))
        return
    geo = config.geometry
    try:
        nodes = deploy(config, Random(seed))
    except ConfigurationError:
        # a node is lost to rounding about once in 1e16 * width / r_outer draws
        assert geo.r_outer - geo.r_inner < 1e-9 * geo.r_outer
        return
    # placement goes inner region first, then sectors 0..7
    intended = [INNER] * inner
    for sector in range(N_SECTORS):
        intended += [RegionId(sector)] * sectors[sector]
    assert [node.region for node in nodes] == intended
    for node in nodes:
        assert node.region == region_of(node.position, geo)
        r = math.hypot(*node.position)
        if node.region.is_inner:
            assert 0.0 < r <= geo.r_inner
        else:
            assert geo.r_inner < r <= geo.r_outer
    expected_counts = {INNER: inner, **{RegionId(s): sectors[s] for s in range(N_SECTORS)}}
    assert Counter(node.region for node in nodes) == expected_counts


def test_annulus_too_thin_for_rounding_is_rejected_by_name():
    # one float step wide: most outer draws round onto r_inner or past r_outer
    config = NetworkConfig(n_nodes=16, inner_fraction=0.5,
                           geometry=Geometry(4913.0, math.nextafter(4913.0, math.inf)))
    with pytest.raises(ConfigurationError, match="too thin"):
        deploy(config, Random(0))
