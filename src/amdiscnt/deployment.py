"""Field construction: region lookup, node placement, and initial energies.

The field is a disk of radius ``r_outer`` around the base station. Nodes
inside ``r_inner`` form the inner region; the annulus between the radii is
cut into eight 45-degree wedges. Placement draws the angle first and the
radial variate second, so a fixed seed reproduces positions bit-exactly.

Two radial laws are supported: ``uniform_area`` spreads nodes with uniform
density over their region, ``uniform_radius`` draws the radius itself
uniformly (which concentrates nodes toward the centre of the region).
"""

from __future__ import annotations

import math
from random import Random

from .model import (
    INNER,
    N_SECTORS,
    SECTOR_ANGLE,
    ConfigurationError,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    Node,
    RegionId,
    region_node_counts,
)

TWO_PI = 2.0 * math.pi


class OutOfFieldError(ValueError):
    """A position outside the outer circle has no region."""


def region_of(position: tuple[float, float], geometry: Geometry) -> RegionId:
    """Map an ``(x, y)`` position, the base station at the origin, to its region.

    Raises :class:`OutOfFieldError` beyond ``r_outer``. An angle that lands
    exactly on the full-circle boundary wraps to sector 0.
    """
    x, y = position
    r = math.hypot(x, y)
    if r > geometry.r_outer:
        raise OutOfFieldError(
            f"position at radius {r:.6g} lies outside the field radius {geometry.r_outer:.6g}")
    if r <= geometry.r_inner:
        return INNER
    theta = math.atan2(y, x) % TWO_PI
    sector = int(theta // SECTOR_ANGLE) % N_SECTORS
    return RegionId(sector)


def sample_inner_position(rng: Random, geometry: Geometry,
                          mode: str = "uniform_area") -> tuple[float, float]:
    """Draw an ``(x, y)`` position in the inner disk; the radius is never exactly 0."""
    theta = rng.random() * TWO_PI
    u = 1.0 - rng.random()  # (0, 1]
    if mode == "uniform_radius":
        r = u * geometry.r_inner
    else:
        r = geometry.r_inner * math.sqrt(u)
    return r * math.cos(theta), r * math.sin(theta)


def sample_outer_position(rng: Random, geometry: Geometry, sector: int,
                          mode: str = "uniform_area") -> tuple[float, float]:
    """Draw an ``(x, y)`` position in one outer wedge, strictly outside the inner disk."""
    if not 0 <= sector < N_SECTORS:
        raise ValueError(f"sector must be in [0, {N_SECTORS - 1}], got {sector}")
    theta = (sector + rng.random()) * SECTOR_ANGLE
    u = 1.0 - rng.random()  # (0, 1]
    if mode == "uniform_radius":
        r = geometry.r_inner + u * geometry.annulus_width
    else:
        r = math.sqrt(geometry.r_inner ** 2 + u * (geometry.r_outer ** 2 - geometry.r_inner ** 2))
    return r * math.cos(theta), r * math.sin(theta)


def assign_initial_energy(count: int, spec: HeterogeneitySpec, rng: Random) -> list[float]:
    """Return the initial energy per node index.

    A node's battery is ``e0 * (1 + scale)`` for its extra-energy ratio
    ``scale``. Discrete modes sample their upper tier from the node
    indices; its first ``m * m0 * count`` are super nodes, stacking
    ``beta`` on ``alpha``, so the realised total matches the closed form.
    """
    if spec.mode == "multi_level":
        scales = [(1.0 - rng.random()) * spec.alpha_max for _ in range(count)]  # (0, alpha_max]
    else:
        n_upper, n_super, alpha, beta = spec.tiers(count)
        chosen = rng.sample(range(count), n_upper)  # k = 0 draws nothing
        scales = [0.0] * count
        for rank, i in enumerate(chosen):
            scales[i] = alpha + beta if rank < n_super else alpha
    return [spec.e0 * (1.0 + scale) for scale in scales]


def deploy(config: NetworkConfig, rng: Random) -> list[Node]:
    """Build the initial network's nodes; a node's id is its index in the list.

    Nodes are placed inner region first, then sectors 0..7; energies are
    drawn afterwards in one block. Raises :class:`ConfigurationError`,
    as validation would, when any region would receive no node, or when
    a node drawn for a region rounds outside it.
    """
    inner_count, sector_counts = region_node_counts(config.n_nodes, config.inner_fraction)
    if inner_count <= 0 or any(c <= 0 for c in sector_counts):
        raise ConfigurationError(
            f"{config.n_nodes} nodes with inner fraction {config.inner_fraction:.4g} "
            f"leave at least one region empty (inner={inner_count}, sectors={sector_counts})")

    geometry, mode = config.geometry, config.deployment_mode
    placed = [(INNER, sample_inner_position(rng, geometry, mode)) for _ in range(inner_count)]
    for sector in range(N_SECTORS):
        placed += [(RegionId(sector), sample_outer_position(rng, geometry, sector, mode))
                   for _ in range(sector_counts[sector])]
    for region, pos in placed:
        # in an annulus a few float steps wide, rounding can carry a drawn radius out of it
        if math.hypot(*pos) > geometry.r_outer or region_of(pos, geometry) != region:
            raise ConfigurationError(
                f"a node drawn in {region} rounds out of it: {geometry} is too thin a ring")

    energies = assign_initial_energy(config.n_nodes, config.heterogeneity, rng)
    return [Node(pos, region, e) for (region, pos), e in zip(placed, energies)]
