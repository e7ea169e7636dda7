"""Domain types for the circular-field sensor network simulator, and the
first-order radio model that prices each transmission from ``RadioParams``.

All types are plain value objects. Each field a config file sets
declares its default, its file key and its rule once, where it is
defined; :func:`validate_config` walks those declarations, so that an
invalid configuration can still be constructed, inspected, and reported on.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

N_SECTORS = 8
MAX_NODES = 1 << 16  # ids 0..MAX_NODES-1 fit the array("H") rows of DistanceCache.neighbour_orders
SECTOR_ANGLE = math.pi / 4  # angular width of one outer wedge

HETEROGENEITY_MODES = ("homogeneous", "two_level", "three_level", "multi_level")
DEPLOYMENT_MODES = ("uniform_area", "uniform_radius")
DELAY_MODES = ("hops", "distance")


class ConfigurationError(ValueError):
    """Raised when a simulation is started from an invalid configuration."""


# A field's rule: what its value must be, and the test of it. Each test compares the
# value exactly, so an int of any size is compared, never converted to a float.
POSITIVE = ("must be finite and positive", lambda v: 0 < v <= sys.float_info.max)
NON_NEGATIVE = ("must be finite and non-negative", lambda v: 0 <= v <= sys.float_info.max)
NATURAL = ("must be non-negative", lambda v: v >= 0)
UNIT = ("must lie in [0, 1]", lambda v: 0 <= v <= 1)
OPEN_UNIT = ("must lie in (0, 1)", lambda v: 0 < v < 1)


def one_of(modes: tuple[str, ...]) -> tuple:
    """The rule that a value is one of ``modes``."""
    return f"must be one of {modes}", lambda v: v in modes


def keyed(default, key: str, rule: tuple | None = None):
    """A field holding ``default``, set by the config file key ``key``, whose value
    :func:`validate_config` checks by ``rule``."""
    return dataclasses.field(default=default, metadata={"key": key, "rule": rule})


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

    r_inner: float = keyed(20.0, "network.r_inner", POSITIVE)
    r_outer: float = keyed(35.0, "network.r_outer", POSITIVE)

    @property
    def annulus_width(self) -> float:
        return self.r_outer - self.r_inner


@dataclass(frozen=True)
class RadioParams:
    """First-order radio constants plus the data packet size in bits."""

    e_elec: float = keyed(50e-9, "radio.e_elec", POSITIVE)     # J/bit, transceiver electronics
    e_fs: float = keyed(10e-12, "radio.e_fs", POSITIVE)        # J/bit/m^2, free-space amplifier
    e_mp: float = keyed(0.0013e-12, "radio.e_mp", POSITIVE)    # J/bit/m^4, multipath amplifier
    e_da: float = keyed(5e-9, "radio.e_da", POSITIVE)          # J/bit/signal, aggregation
    packet_bits: int = keyed(4000, "radio.packet_bits", POSITIVE)


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

    mode: str = keyed("homogeneous", "energy.mode", one_of(HETEROGENEITY_MODES))
    e0: float = keyed(0.5, "energy.e0", POSITIVE)
    m: float = keyed(0.0, "energy.m", UNIT)
    m0: float = keyed(0.0, "energy.m0", UNIT)
    alpha: float = keyed(0.0, "energy.alpha", NON_NEGATIVE)
    beta: float = keyed(0.0, "energy.beta", NON_NEGATIVE)
    alpha_max: float = keyed(0.0, "energy.alpha_max", NON_NEGATIVE)

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
    ``per_hop + d / speed`` for a hop of length ``d``, and only that mode
    checks ``speed`` and ``per_hop``.
    """

    mode: str = keyed("hops", "delay.mode", one_of(DELAY_MODES))
    speed: float = keyed(1.0, "delay.speed")
    per_hop: float = keyed(0.0, "delay.per_hop")


@dataclass(frozen=True)
class NetworkConfig:
    """Everything a single simulation run needs; defaults give the standard
    benchmark scenario (100 two-level nodes on a 20 m / 35 m field)."""

    n_nodes: int = keyed(100, "network.n_nodes")
    geometry: Geometry = Geometry()
    radio: RadioParams = RadioParams()
    heterogeneity: HeterogeneitySpec = HeterogeneitySpec(
        mode="two_level", e0=0.5, m=0.2, alpha=1.0)
    max_rounds: int = keyed(5000, "network.max_rounds", NATURAL)
    seed: int = 42  # run seeds come from the experiment's seed list, not from a key
    deployment_mode: str = keyed("uniform_area", "network.deployment", one_of(DEPLOYMENT_MODES))
    inner_fraction: float = keyed(1.0 / 9.0, "network.inner_fraction", OPEN_UNIT)
    link_drop_probability: float = keyed(0.0, "network.link_drop_probability", UNIT)
    delay: DelayModel = DelayModel()
    # the baselines' head fraction; amdiscnt elects one head per wedge
    p_opt: float = keyed(0.1, "experiment.p_opt", OPEN_UNIT)


def config_fields(obj, prefix: str = ""):
    """Yield ``(dotted name, field, value)`` for each leaf field of dataclass ``obj``;
    a field whose value is of its dataclass default's class is walked in its place."""
    for field in dataclasses.fields(obj):
        name, value = prefix + field.name, getattr(obj, field.name)
        if dataclasses.is_dataclass(field.default) and isinstance(value, type(field.default)):
            yield from config_fields(value, name + ".")
        else:
            yield name, field, value


def _field_problems(config: NetworkConfig) -> tuple[list[str], dict[str, str]]:
    """Name every field of ``config`` whose value lacks its default's type, and by
    dotted name every other field whose value breaks its declared rule.

    A nested field must hold its default's class. An ``int`` field takes an
    ``int``; a ``float`` field takes an ``int`` or a ``float``. ``bool`` is an
    ``int`` subclass, but ``True`` nodes or rounds is a mistake, so it is
    refused in both.
    """
    types: list[str] = []
    broken: dict[str, str] = {}
    for name, field, value in config_fields(config):
        default, rule = field.default, field.metadata.get("rule")
        allowed = int if isinstance(default, int) else (int, float)
        if dataclasses.is_dataclass(default):
            types.append(f"{name} must be a {type(default).__name__}, got {value!r}")
        elif isinstance(default, (int, float)) and (
                isinstance(value, bool) or not isinstance(value, allowed)):
            expected = "an integer" if allowed is int else "a number"
            types.append(f"{name} must be {expected}, got {value!r}")
        elif rule and not rule[1](value):
            broken[name] = f"{name} {rule[0]}, got {value!r}"
    return types, broken


def validate_config(config: NetworkConfig, runs: int = 1) -> list[str]:
    """Return a description of every violated invariant; empty when valid.

    A field of the wrong type is reported alone, before any rule tests it.
    Each check across fields runs only when the rules of the fields it reads
    hold. ``runs`` is the number of seeds whose runs are aggregated
    together: the energy and delay sums that aggregation takes over them
    must be finite too.
    """
    types, broken = _field_problems(config)
    if types:
        return types
    problems = list(broken.values())
    geo = config.geometry

    if config.n_nodes < N_SECTORS + 1:
        problems.append(
            f"n_nodes must be at least {N_SECTORS + 1} (one per region), got {config.n_nodes}")
    elif config.n_nodes > MAX_NODES:
        problems.append(f"n_nodes must be at most {MAX_NODES}, so that node ids fit in 16 bits, "
                        f"got a {(config.n_nodes - 1).bit_length()}-bit largest id")
    elif "inner_fraction" not in broken:
        inner, sectors = region_node_counts(config.n_nodes, config.inner_fraction)
        if inner <= 0 or min(sectors) <= 0:
            problems.append(
                f"n_nodes = {config.n_nodes} with inner_fraction = {config.inner_fraction} "
                f"leaves a region empty (inner={inner}, sectors={sectors})")
    if not broken.keys() & {"geometry.r_inner", "geometry.r_outer"} and geo.r_inner >= geo.r_outer:
        problems.append(
            f"geometry requires 0 < r_inner < r_outer, got r_inner={geo.r_inner}, "
            f"r_outer={geo.r_outer}")
    if not broken.keys() & {"radio.e_fs", "radio.e_mp"}:
        d0 = crossover_distance(config.radio)
        if not (math.isfinite(d0) and d0 > 0):
            problems.append("radio.e_fs and radio.e_mp must give a finite and positive "
                            f"crossover distance sqrt(e_fs/e_mp), got {d0}")
    if config.delay.mode == "distance":
        for name, (text, test) in (("speed", POSITIVE), ("per_hop", NON_NEGATIVE)):
            if not test(value := getattr(config.delay, name)):
                problems.append(f"delay.{name} {text}, got {value!r}")

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
        energy = bound(lambda: math.fsum(
            [het.e0] * (n - n_upper) + [het.e0 * (1.0 + alpha)] * (n_upper - n_super)
            + [het.e0 * (1.0 + (alpha + beta))] * n_super))
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
        hop = bound(lambda: delay.per_hop + 2 * r_outer / delay.speed)
        delay_text = "3 * (delay.per_hop + 2 * geometry.r_outer / delay.speed)"
        if not math.isfinite(bound(lambda: n * 3 * hop)):
            problems.append(f"largest round delay n_nodes * {delay_text} must be finite")
        elif runs > 1 and not math.isfinite(runs * (3 * hop) * (3 * hop)):
            problems.append(f"largest packet delay {delay_text}{over_runs} must be finite")
    return problems
