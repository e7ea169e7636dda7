"""Domain types for the circular-field sensor network simulator.

All types are plain value objects. Range checking is centralised in
:func:`validate_config` so that an invalid configuration can still be
constructed, inspected, and reported on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

N_SECTORS = 8
SECTOR_ANGLE = math.pi / 4  # angular width of one outer wedge

HETEROGENEITY_MODES = ("homogeneous", "two_level", "three_level", "multi_level")
DEPLOYMENT_MODES = ("uniform_area", "uniform_radius")
DELAY_MODES = ("hops", "distance")


class ConfigurationError(ValueError):
    """Raised when a simulation is started from an invalid configuration."""


@dataclass(frozen=True)
class Position:
    """A point in the plane; the base station sits at the origin."""

    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def radius(self) -> float:
        """Distance to the base station."""
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class RegionId:
    """Either the inner disk (``sector is None``) or one of 8 outer wedges."""

    sector: int | None = None

    def __post_init__(self):
        if self.sector is not None and not 0 <= self.sector < N_SECTORS:
            raise ValueError(f"sector must be in [0, {N_SECTORS - 1}], got {self.sector}")

    @property
    def is_inner(self) -> bool:
        return self.sector is None

    def __str__(self):
        return "inner" if self.is_inner else f"outer{self.sector}"


INNER = RegionId()
OUTER = tuple(RegionId(s) for s in range(N_SECTORS))


@dataclass(frozen=True)
class Geometry:
    """Two concentric circles around the base station."""

    r_inner: float = 20.0
    r_outer: float = 35.0

    @property
    def annulus_width(self) -> float:
        return self.r_outer - self.r_inner


@dataclass(frozen=True)
class RadioParams:
    """First-order radio constants plus the data packet size in bits."""

    e_elec: float = 50e-9       # J/bit, transceiver electronics
    e_fs: float = 10e-12        # J/bit/m^2, free-space amplifier
    e_mp: float = 0.0013e-12    # J/bit/m^4, multipath amplifier
    e_da: float = 5e-9          # J/bit/signal, aggregation
    packet_bits: int = 4000


@dataclass(frozen=True)
class HeterogeneitySpec:
    """Initial-energy tiers.

    ``e0`` is the energy of a normal node. In ``two_level`` mode a fraction
    ``m`` of nodes carry ``alpha`` times extra energy. In ``three_level``
    mode a fraction ``m0`` of those are super nodes with ``beta`` extra on
    top. In ``multi_level`` mode every node draws its own extra-energy
    ratio uniformly from (0, alpha_max].
    """

    mode: str = "homogeneous"
    e0: float = 0.5
    m: float = 0.0
    m0: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    alpha_max: float = 0.0

    @classmethod
    def homogeneous(cls, e0: float) -> "HeterogeneitySpec":
        return cls(mode="homogeneous", e0=e0)

    @classmethod
    def two_level(cls, e0: float, m: float, alpha: float) -> "HeterogeneitySpec":
        return cls(mode="two_level", e0=e0, m=m, alpha=alpha)

    @classmethod
    def three_level(cls, e0: float, m: float, m0: float, alpha: float,
                    beta: float) -> "HeterogeneitySpec":
        return cls(mode="three_level", e0=e0, m=m, m0=m0, alpha=alpha, beta=beta)

    @classmethod
    def multi_level(cls, e0: float, alpha_max: float) -> "HeterogeneitySpec":
        return cls(mode="multi_level", e0=e0, alpha_max=alpha_max)


@dataclass
class Node:
    """One sensor. Only the engine mutates ``residual_energy``/``alive``."""

    id: int
    position: Position
    region: RegionId
    initial_energy: float
    residual_energy: float
    alive: bool = True
    tier_scale: float = 0.0  # extra-energy ratio granted at deployment


@dataclass(frozen=True)
class DelayModel:
    """Per-hop latency model.

    ``hops`` counts one unit per hop. ``distance`` charges
    ``per_hop + d / speed`` for a hop of length ``d``.
    """

    mode: str = "hops"
    speed: float = 1.0
    per_hop: float = 0.0

    def link_delay(self, distance: float) -> float:
        if self.mode == "hops":
            return 1.0
        return self.per_hop + distance / self.speed


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a single simulation run needs; defaults give the standard
    benchmark scenario (100 two-level nodes on a 20 m / 35 m field)."""

    n_nodes: int = 100
    geometry: Geometry = Geometry()
    radio: RadioParams = RadioParams()
    heterogeneity: HeterogeneitySpec = HeterogeneitySpec.two_level(0.5, 0.2, 1.0)
    max_rounds: int = 5000
    seed: int = 42
    deployment_mode: str = "uniform_area"
    inner_fraction: float = 1.0 / 9.0
    link_drop_probability: float = 0.0
    delay: DelayModel = DelayModel()


def _type_problems(obj, prefix: str = "") -> list[str]:
    """Name every numeric field of ``obj`` whose value lacks its default's type.

    A nested field must hold its default's class, and is then walked. An
    ``int`` field takes an ``int``; a ``float`` field takes an ``int`` or
    a ``float``. ``bool`` is an ``int`` subclass, but ``True`` nodes or
    rounds is a mistake, so it is refused in both.
    """
    problems: list[str] = []
    for field in dataclasses.fields(obj):
        name, value, default = prefix + field.name, getattr(obj, field.name), field.default
        if dataclasses.is_dataclass(default):
            if isinstance(value, type(default)):
                problems.extend(_type_problems(value, name + "."))
            else:
                problems.append(f"{name} must be a {type(default).__name__}, got {value!r}")
        elif isinstance(default, (int, float)):
            allowed = int if isinstance(default, int) else (int, float)
            if isinstance(value, bool) or not isinstance(value, allowed):
                expected = "an integer" if allowed is int else "a number"
                problems.append(f"{name} must be {expected}, got {value!r}")
    return problems


def validate_config(config: NetworkConfig) -> list[str]:
    """Return a description of every violated invariant; empty when valid.

    A numeric field of the wrong type is reported alone, before any range
    check compares it.
    """
    problems = _type_problems(config)
    if problems:
        return problems
    geo = config.geometry
    radio = config.radio
    het = config.heterogeneity

    if config.n_nodes < N_SECTORS + 1:
        problems.append(
            f"n_nodes must be at least {N_SECTORS + 1} (one per region), got {config.n_nodes}")
    if not (math.isfinite(geo.r_inner) and math.isfinite(geo.r_outer)):
        problems.append("geometry radii must be finite")
    elif not 0 < geo.r_inner < geo.r_outer:
        problems.append(
            f"geometry requires 0 < r_inner < r_outer, got r_inner={geo.r_inner}, "
            f"r_outer={geo.r_outer}")

    for name in ("e_elec", "e_fs", "e_mp", "e_da"):
        value = getattr(radio, name)
        if not (math.isfinite(value) and value > 0):
            problems.append(f"radio.{name} must be strictly positive, got {value}")
    if radio.packet_bits <= 0:
        problems.append(f"radio.packet_bits must be strictly positive, got {radio.packet_bits}")
    if radio.e_fs > 0 and radio.e_mp > 0:
        d0 = math.sqrt(radio.e_fs / radio.e_mp)
        if not (math.isfinite(d0) and d0 > 0):
            problems.append("radio crossover distance sqrt(e_fs/e_mp) must be finite and positive")

    if het.mode not in HETEROGENEITY_MODES:
        problems.append(f"unknown heterogeneity mode {het.mode!r}")
    if not (math.isfinite(het.e0) and het.e0 > 0):
        problems.append(f"heterogeneity.e0 must be finite and positive, got {het.e0}")
    for name in ("m", "m0"):
        value = getattr(het, name)
        if not 0 <= value <= 1:
            problems.append(f"heterogeneity.{name} must lie in [0, 1], got {value}")
    for name in ("alpha", "beta", "alpha_max"):
        value = getattr(het, name)
        if not (math.isfinite(value) and value >= 0):
            problems.append(f"heterogeneity.{name} must be finite and non-negative, got {value}")

    if config.max_rounds < 0:
        problems.append(f"max_rounds must be non-negative, got {config.max_rounds}")
    if config.deployment_mode not in DEPLOYMENT_MODES:
        problems.append(f"unknown deployment_mode {config.deployment_mode!r}")
    if not 0 < config.inner_fraction < 1:
        problems.append(
            f"inner_fraction must lie in (0, 1), got {config.inner_fraction}")
    if not 0 <= config.link_drop_probability <= 1:
        problems.append(
            f"link_drop_probability must lie in [0, 1], got {config.link_drop_probability}")

    if config.delay.mode not in DELAY_MODES:
        problems.append(f"unknown delay mode {config.delay.mode!r}")
    elif config.delay.mode == "distance":
        speed, per_hop = config.delay.speed, config.delay.per_hop
        if not (math.isfinite(speed) and speed > 0):
            problems.append(f"delay.speed must be finite and positive, got {speed}")
        if not (math.isfinite(per_hop) and per_hop >= 0):
            problems.append(f"delay.per_hop must be finite and non-negative, got {per_hop}")

    return problems
