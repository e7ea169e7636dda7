"""Domain types for the circular-field sensor network simulator, and the
first-order radio model that prices each transmission from ``RadioParams``.

All types are plain value objects. Range checking is centralised in
:func:`validate_config` so that an invalid configuration can still be
constructed, inspected, and reported on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

N_SECTORS = 8
MAX_NODES = 1 << 16  # ids 0..MAX_NODES-1 fit the array("H") rows of DistanceCache.neighbour_orders
SECTOR_ANGLE = math.pi / 4  # angular width of one outer wedge

HETEROGENEITY_MODES = ("homogeneous", "two_level", "three_level", "multi_level")
DEPLOYMENT_MODES = ("uniform_area", "uniform_radius")
DELAY_MODES = ("hops", "distance")


class ConfigurationError(ValueError):
    """Raised when a simulation is started from an invalid configuration."""


def round_half_up(x: float) -> int:
    """The rounding of every node count: nearest integer, halves up."""
    return math.floor(x + 0.5)


def region_node_counts(n_nodes: int, inner_fraction: float) -> tuple[int, list[int]]:
    """Split the node budget: the inner region takes its rounded share and
    the rest spreads as evenly as possible over the sectors, any leftover
    going one per sector starting at sector 0."""
    inner = round_half_up(inner_fraction * n_nodes)
    base, leftover = divmod(n_nodes - inner, N_SECTORS)
    sectors = [base + 1 if s < leftover else base for s in range(N_SECTORS)]
    return inner, sectors


@dataclass(frozen=True, slots=True)
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


def crossover_distance(radio: RadioParams) -> float:
    """Distance at which the free-space and multipath amplifier terms meet."""
    return math.sqrt(radio.e_fs / radio.e_mp)


def tx_cost(bits: int, distance: float, radio: RadioParams) -> float:
    """Energy to transmit ``bits`` over ``distance`` metres."""
    if distance < crossover_distance(radio):
        return bits * (radio.e_elec + radio.e_fs * distance * distance)
    return bits * (radio.e_elec + radio.e_mp * distance ** 4)


def rx_cost(bits: int, radio: RadioParams) -> float:
    """Energy to receive ``bits``."""
    return bits * radio.e_elec


def aggregation_cost(bits: int, signal_count: int, radio: RadioParams) -> float:
    """Energy for a cluster head to fuse ``signal_count`` incoming signals
    (its own packet included) of ``bits`` each."""
    return bits * radio.e_da * signal_count


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

    def tiers(self, n: int) -> tuple[int, int, float, float]:
        """A discrete mode's ``(n_upper, n_super, alpha, beta)`` for ``n`` nodes:
        ``n_upper`` batteries carry ``alpha`` extra and ``n_super`` of them
        ``beta`` on top; a tier the mode lacks has no nodes and ratio ``0.0``."""
        if self.mode == "homogeneous":
            return 0, 0, 0.0, 0.0
        if self.mode == "two_level":
            return round_half_up(self.m * n), 0, self.alpha, 0.0
        if self.mode == "three_level":
            return (round_half_up(self.m * n), round_half_up(self.m * self.m0 * n),
                    self.alpha, self.beta)
        raise ValueError(f"{self.mode!r} is not a discrete heterogeneity mode")


@dataclass(frozen=True, slots=True)
class Node:
    """One sensor as deployed: its ``(x, y)`` position, the base station
    at the origin, its region and its full battery. A node's id is its
    index in the deployed list; a run keeps its battery levels apart, in
    a list by id that starts at each ``initial_energy``."""

    position: tuple[float, float]
    region: RegionId
    initial_energy: float


@dataclass(frozen=True)
class DelayModel:
    """Per-hop latency model.

    ``hops`` counts one unit per hop. ``distance`` charges
    ``per_hop + d / speed`` for a hop of length ``d``.
    """

    mode: str = "hops"
    speed: float = 1.0
    per_hop: float = 0.0


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a single simulation run needs; defaults give the standard
    benchmark scenario (100 two-level nodes on a 20 m / 35 m field)."""

    n_nodes: int = 100
    geometry: Geometry = Geometry()
    radio: RadioParams = RadioParams()
    heterogeneity: HeterogeneitySpec = HeterogeneitySpec(
        mode="two_level", e0=0.5, m=0.2, alpha=1.0)
    max_rounds: int = 5000
    seed: int = 42
    deployment_mode: str = "uniform_area"
    inner_fraction: float = 1.0 / 9.0
    link_drop_probability: float = 0.0
    delay: DelayModel = DelayModel()
    p_opt: float = 0.1  # the baselines' head fraction; amdiscnt elects one head per wedge


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


def validate_config(config: NetworkConfig, runs: int = 1) -> list[str]:
    """Return a description of every violated invariant; empty when valid.

    A numeric field of the wrong type is reported alone, before any range
    check compares it. ``runs`` is the number of seeds whose runs are
    aggregated together: the energy and delay sums that aggregation takes
    over them must be finite too.
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
    elif config.n_nodes > MAX_NODES:
        problems.append(f"n_nodes must be at most {MAX_NODES}, so that node ids fit in 16 bits, "
                        f"got a {(config.n_nodes - 1).bit_length()}-bit largest id")
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
        d0 = crossover_distance(radio)
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
    elif N_SECTORS + 1 <= config.n_nodes <= MAX_NODES:
        inner, sectors = region_node_counts(config.n_nodes, config.inner_fraction)
        if inner <= 0 or min(sectors) <= 0:
            problems.append(
                f"n_nodes = {config.n_nodes} with inner_fraction = {config.inner_fraction} "
                f"leaves a region empty (inner={inner}, sectors={sectors})")
    if not 0 < config.p_opt < 1:
        problems.append(f"p_opt must lie in (0, 1), got {config.p_opt}")
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

    if not problems:
        problems.extend(_overflow_problems(config, runs))
    return problems


def _overflow_problems(config: NetworkConfig, runs: int) -> list[str]:
    """Name the fields of an otherwise valid config whose worst link cost,
    total initial energy or largest round delay is not a finite float, or
    whose total initial energy or largest packet delay, squared, is not
    once aggregation sums it over ``runs`` seeds: every deviation from a
    round's mean is at most that bound, and one seed's is exactly 0."""
    def bound(compute) -> float:
        try:
            return float(compute())
        except OverflowError:  # a float power, an infinite battery, or an int too large
            return math.inf

    problems = []
    n, radio, het, delay = config.n_nodes, config.radio, config.heterogeneity, config.delay
    r_outer = config.geometry.r_outer
    over_runs = f", squared and summed over {runs} seeds,"
    if not math.isfinite(bound(lambda: 2 * tx_cost(radio.packet_bits, 2 * r_outer, radio))):
        problems.append("worst link cost 2 * tx_cost(radio.packet_bits, 2 * geometry.r_outer) "
                        "must be finite")
    if het.mode == "multi_level":  # drawn ratios: bound every battery by the largest
        extra = ("alpha_max",)
        energy = bound(lambda: n * het.e0 * (1.0 + het.alpha_max))
    else:  # deploy's tier counts and batteries, one per node, correctly rounded by its fsum
        n_upper, n_super, alpha, beta = het.tiers(n)
        extra = ("alpha", "beta")[:(n_upper > 0) + (n_super > 0)]  # ratios of tiers with nodes
        batteries = ([het.e0] * (n - n_upper) + [het.e0 * (1.0 + alpha)] * (n_upper - n_super)
                     + [het.e0 * (1.0 + (alpha + beta))] * n_super)
        energy = bound(lambda: math.fsum(batteries))
    terms = "".join(f" + heterogeneity.{f}" for f in extra)
    factor = f" * (1{terms})" if extra else ""
    energy_text = f"total initial energy of n_nodes batteries of at most heterogeneity.e0{factor}"
    if not math.isfinite(energy):
        problems.append(f"{energy_text} must be finite")
    elif runs > 1 and not math.isfinite(runs * energy * energy):  # each residual is at most it
        problems.append(f"{energy_text}{over_runs} must be finite")
    if delay.mode == "distance":
        # a packet crosses at most 3 links of at most 2 * r_outer and a round delivers at
        # most n packets; a round's mean delay is at most one packet's
        hop = delay.per_hop + 2 * r_outer / delay.speed
        delay_text = "3 * (delay.per_hop + 2 * geometry.r_outer / delay.speed)"
        if not math.isfinite(bound(lambda: n * 3 * hop)):
            problems.append(f"largest round delay n_nodes * {delay_text} must be finite")
        elif runs > 1 and not math.isfinite(runs * (3 * hop) * (3 * hop)):
            problems.append(f"largest packet delay {delay_text}{over_runs} must be finite")
    return problems
