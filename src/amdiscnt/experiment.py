"""Batch experiment runner and command line front end.

An experiment is a network configuration plus a protocol list, a seed
list, and a confidence level. Configuration files are sectioned
key-value text (INI syntax); every key has a default, so an empty file
describes the standard benchmark scenario. The runner executes every
(protocol, seed) pair, aggregates per protocol, and writes one CSV
series per protocol plus ``summary.csv`` and a ``meta`` key-value file.
Floats are serialised with ``repr`` so files round-trip exactly and
repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import os
import sys
from dataclasses import dataclass

from .engine import run_simulation
from .model import (
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    RadioParams,
    validate_config,
)
from .protocols import PROTOCOL_NAMES, ProtocolKind
from .stats import METRIC_NAMES, MilestoneSummary, MultiRunStats, aggregate_runs

_SCHEMA: dict[str, tuple[str, ...]] = {
    "network": ("n_nodes", "r_inner", "r_outer", "max_rounds", "seed", "deployment",
                "inner_fraction", "link_drop_probability"),
    "radio": ("e_elec", "e_fs", "e_mp", "e_da", "packet_bits"),
    "energy": ("mode", "e0", "m", "m0", "alpha", "beta", "alpha_max"),
    "delay": ("mode", "speed", "per_hop"),
    "experiment": ("protocols", "runs", "base_seed", "seeds", "confidence", "p_opt"),
}

PRESETS: dict[str, dict[str, str]] = {
    "table1": {},
    "table2": {
        "network.n_nodes": "100",
        "network.r_inner": "25.0",
        "network.r_outer": "40.0",
        "energy.e0": "0.8",
    },
}

SUMMARY_HEADER = ("protocol", "fnd_mean", "hnd_mean", "lnd_mean", "sent_mean", "received_mean")


@dataclass(frozen=True)
class ExperimentSpec:
    network: NetworkConfig
    protocols: tuple[ProtocolKind, ...]
    seeds: tuple[int, ...]
    confidence: float = 0.95


def read_settings(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse sectioned key-value text into flat ``section.key`` settings.

    Unknown sections or keys are rejected by name; syntax errors carry
    the parser's line numbers.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(str(exc)) from exc
    settings: dict[str, str] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(
                f"unknown section [{section}]; expected one of {sorted(_SCHEMA)}")
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(_SCHEMA[section])}")
            settings[f"{section}.{key}"] = value.strip()
    return settings


def _to_int(settings: dict[str, str], key: str, default: int) -> int:
    raw = settings.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {raw!r}") from None


def _to_float(settings: dict[str, str], key: str, default: float) -> float:
    raw = settings.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigurationError(f"{key}: expected a number, got {raw!r}") from None


def _split_list(raw: str, key: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",")]
    if any(not part for part in parts):
        raise ConfigurationError(f"{key}: empty entry in list {raw!r}")
    return parts


def build_spec(settings: dict[str, str]) -> ExperimentSpec:
    """Turn flat settings into a validated experiment description."""
    network = NetworkConfig(
        n_nodes=_to_int(settings, "network.n_nodes", 100),
        geometry=Geometry(
            r_inner=_to_float(settings, "network.r_inner", 20.0),
            r_outer=_to_float(settings, "network.r_outer", 35.0),
        ),
        radio=RadioParams(
            e_elec=_to_float(settings, "radio.e_elec", 50e-9),
            e_fs=_to_float(settings, "radio.e_fs", 10e-12),
            e_mp=_to_float(settings, "radio.e_mp", 0.0013e-12),
            e_da=_to_float(settings, "radio.e_da", 5e-9),
            packet_bits=_to_int(settings, "radio.packet_bits", 4000),
        ),
        heterogeneity=HeterogeneitySpec(
            mode=settings.get("energy.mode", "two_level"),
            e0=_to_float(settings, "energy.e0", 0.5),
            m=_to_float(settings, "energy.m", 0.2),
            m0=_to_float(settings, "energy.m0", 0.0),
            alpha=_to_float(settings, "energy.alpha", 1.0),
            beta=_to_float(settings, "energy.beta", 0.0),
            alpha_max=_to_float(settings, "energy.alpha_max", 0.0),
        ),
        max_rounds=_to_int(settings, "network.max_rounds", 5000),
        seed=_to_int(settings, "network.seed", 42),
        deployment_mode=settings.get("network.deployment", "uniform_area"),
        inner_fraction=_to_float(settings, "network.inner_fraction", 1.0 / 9.0),
        link_drop_probability=_to_float(settings, "network.link_drop_probability", 0.0),
        delay=DelayModel(
            mode=settings.get("delay.mode", "hops"),
            speed=_to_float(settings, "delay.speed", 1.0),
            per_hop=_to_float(settings, "delay.per_hop", 0.0),
        ),
    )
    problems = validate_config(network)
    if problems:
        raise ConfigurationError("; ".join(problems))

    p_opt = _to_float(settings, "experiment.p_opt", 0.1)
    names = _split_list(settings.get("experiment.protocols", ",".join(PROTOCOL_NAMES)),
                        "experiment.protocols")
    if len(set(names)) != len(names):
        raise ConfigurationError(f"experiment.protocols lists a protocol twice: {names}")
    try:
        protocols = tuple(ProtocolKind(name, p_opt) for name in names)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None

    if "experiment.seeds" in settings:
        if "experiment.runs" in settings or "experiment.base_seed" in settings:
            raise ConfigurationError(
                "give either experiment.seeds or experiment.runs/base_seed, not both")
        try:
            seeds = tuple(int(part) for part in
                          _split_list(settings["experiment.seeds"], "experiment.seeds"))
        except ValueError:
            raise ConfigurationError(
                f"experiment.seeds: expected integers, got {settings['experiment.seeds']!r}"
            ) from None
    else:
        runs = _to_int(settings, "experiment.runs", 5)
        if runs < 1:
            raise ConfigurationError(f"experiment.runs must be at least 1, got {runs}")
        base_seed = _to_int(settings, "experiment.base_seed", 42)
        seeds = tuple(base_seed + i for i in range(runs))

    confidence = _to_float(settings, "experiment.confidence", 0.95)
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"experiment.confidence must lie in (0, 1), got {confidence}")
    return ExperimentSpec(network=network, protocols=protocols, seeds=seeds,
                          confidence=confidence)


def _read_config_file(path: str) -> dict[str, str]:
    """Read one configuration file into flat ``section.key`` settings."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return read_settings(text, source=path)


def parse_config(path: str) -> ExperimentSpec:
    """Read and validate one experiment configuration file."""
    return build_spec(_read_config_file(path))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(spec: ExperimentSpec) -> str:
    """Serialise a spec so that :func:`build_spec` reproduces it exactly."""
    p_opts = {kind.p_opt for kind in spec.protocols}
    if len(p_opts) > 1:
        raise ValueError("the config format carries a single p_opt for all protocols")
    net = spec.network
    lines = [
        "[network]",
        f"n_nodes = {net.n_nodes}",
        f"r_inner = {_fmt(net.geometry.r_inner)}",
        f"r_outer = {_fmt(net.geometry.r_outer)}",
        f"max_rounds = {net.max_rounds}",
        f"seed = {net.seed}",
        f"deployment = {net.deployment_mode}",
        f"inner_fraction = {_fmt(net.inner_fraction)}",
        f"link_drop_probability = {_fmt(net.link_drop_probability)}",
        "",
        "[radio]",
        f"e_elec = {_fmt(net.radio.e_elec)}",
        f"e_fs = {_fmt(net.radio.e_fs)}",
        f"e_mp = {_fmt(net.radio.e_mp)}",
        f"e_da = {_fmt(net.radio.e_da)}",
        f"packet_bits = {net.radio.packet_bits}",
        "",
        "[energy]",
        f"mode = {net.heterogeneity.mode}",
        f"e0 = {_fmt(net.heterogeneity.e0)}",
        f"m = {_fmt(net.heterogeneity.m)}",
        f"m0 = {_fmt(net.heterogeneity.m0)}",
        f"alpha = {_fmt(net.heterogeneity.alpha)}",
        f"beta = {_fmt(net.heterogeneity.beta)}",
        f"alpha_max = {_fmt(net.heterogeneity.alpha_max)}",
        "",
        "[delay]",
        f"mode = {net.delay.mode}",
        f"speed = {_fmt(net.delay.speed)}",
        f"per_hop = {_fmt(net.delay.per_hop)}",
        "",
        "[experiment]",
        f"protocols = {','.join(kind.name for kind in spec.protocols)}",
        f"seeds = {','.join(str(seed) for seed in spec.seeds)}",
        f"confidence = {_fmt(spec.confidence)}",
        f"p_opt = {_fmt(spec.protocols[0].p_opt)}",
        "",
    ]
    return "\n".join(lines)


def run_experiment(config: NetworkConfig, protocols: list[ProtocolKind],
                   seeds: list[int], confidence: float = 0.95) -> dict[str, MultiRunStats]:
    """Run every (protocol, seed) pair and aggregate per protocol.

    Each seed gets its own deployment; results are keyed by protocol
    name in request order.
    """
    if not protocols:
        raise ValueError("run_experiment needs at least one protocol")
    if not seeds:
        raise ValueError("run_experiment needs at least one seed")
    if len({kind.name for kind in protocols}) != len(protocols):
        raise ValueError("protocol list contains duplicates")
    stats: dict[str, MultiRunStats] = {}
    for kind in protocols:
        runs = [run_simulation(dataclasses.replace(config, seed=seed), kind)
                for seed in seeds]
        stats[kind.name] = aggregate_runs(runs, confidence)
    return stats


def _series_header() -> list[str]:
    header = ["round"]
    for name in METRIC_NAMES:
        header.extend((f"{name}_mean", f"{name}_lo", f"{name}_hi"))
    return header


def emit_tables(stats: dict[str, MultiRunStats], out_dir: str, *,
                seeds: tuple[int, ...], config: NetworkConfig) -> list[str]:
    """Write per-protocol series, the milestone summary, and the meta file.

    Returns the list of paths written. Output contains nothing
    volatile (no timestamps), so identical inputs give identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest: list[str] = []

    def _open(name: str):
        path = os.path.join(out_dir, name)
        manifest.append(path)
        try:
            return open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc

    for name, bundle in stats.items():
        with _open(f"{name}.csv") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(_series_header())
            for round_index in range(bundle.rounds):
                row: list[str] = [str(round_index)]
                for metric in METRIC_NAMES:
                    mean = bundle.per_round_mean[metric][round_index]
                    lo, hi = bundle.per_round_ci[metric][round_index]
                    row.extend((repr(mean), repr(lo), repr(hi)))
                writer.writerow(row)

    with _open("summary.csv") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER)
        for name, bundle in stats.items():
            m = bundle.milestones
            writer.writerow([name, repr(m.fnd_mean), repr(m.hnd_mean), repr(m.lnd_mean),
                             repr(m.sent_total_mean), repr(m.received_total_mean)])

    first = next(iter(stats.values()))
    with _open("meta") as handle:
        handle.write(f"protocols = {','.join(stats)}\n")
        handle.write(f"seeds = {','.join(str(seed) for seed in seeds)}\n")
        handle.write(f"runs = {len(seeds)}\n")
        handle.write(f"confidence = {repr(first.confidence)}\n")
        handle.write(f"delay_mode = {config.delay.mode}\n")
        handle.write(f"deployment_mode = {config.deployment_mode}\n")
        handle.write(f"max_rounds = {config.max_rounds}\n")
        handle.write("ci_formula = mean +/- z(alpha/2) * sigma / sqrt(n), "
                     "sigma with the population normaliser (divide by n)\n")
        handle.write("milestone_convention = completed rounds starting at 1; "
                     "milestones never reached enter means at the horizon\n")
        handle.write("delay_convention = slowest member link plus forwarding links, "
                     "averaged over packets delivered in the round\n")
    return manifest


def read_tables(out_dir: str) -> dict[str, MultiRunStats]:
    """Rebuild per-protocol stats from an output directory, exactly."""
    meta: dict[str, str] = {}
    with open(os.path.join(out_dir, "meta"), "r", encoding="utf-8") as handle:
        for line in handle:
            key, _, value = line.partition(" = ")
            meta[key.strip()] = value.rstrip("\n")
    protocols = meta["protocols"].split(",")
    runs = int(meta["runs"])
    confidence = float(meta["confidence"])

    milestones: dict[str, MilestoneSummary] = {}
    with open(os.path.join(out_dir, "summary.csv"), "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != SUMMARY_HEADER:
            raise ValueError(f"unexpected summary header {header}")
        for row in reader:
            milestones[row[0]] = MilestoneSummary(*(float(cell) for cell in row[1:]))

    stats: dict[str, MultiRunStats] = {}
    for name in protocols:
        means: dict[str, list[float]] = {metric: [] for metric in METRIC_NAMES}
        cis: dict[str, list[tuple[float, float]]] = {metric: [] for metric in METRIC_NAMES}
        with open(os.path.join(out_dir, f"{name}.csv"), "r", encoding="utf-8",
                  newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            if header != _series_header():
                raise ValueError(f"unexpected series header in {name}.csv")
            rounds = 0
            for row in reader:
                rounds += 1
                for i, metric in enumerate(METRIC_NAMES):
                    base = 1 + 3 * i
                    means[metric].append(float(row[base]))
                    cis[metric].append((float(row[base + 1]), float(row[base + 2])))
        stats[name] = MultiRunStats(
            runs=runs,
            rounds=rounds,
            confidence=confidence,
            per_round_mean={metric: tuple(v) for metric, v in means.items()},
            per_round_ci={metric: tuple(v) for metric, v in cis.items()},
            milestones=milestones[name],
        )
    return stats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amdiscnt",
        description="Run round-based sensor-network simulations and write metric tables.")
    parser.add_argument("--config", metavar="PATH", help="experiment configuration file")
    parser.add_argument("--protocols", metavar="LIST",
                        help="comma-separated protocol names "
                             f"(default {','.join(PROTOCOL_NAMES)})")
    parser.add_argument("--seeds", metavar="LIST", help="comma-separated run seeds")
    parser.add_argument("--runs", metavar="N", type=int,
                        help="number of runs per protocol (default 5)")
    parser.add_argument("--base-seed", metavar="S", type=int,
                        help="first seed; run i uses S+i (default 42)")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default: results)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set applied before the config file")
    parser.add_argument("--confidence", metavar="LEVEL", type=float,
                        help="confidence level for the interval bands (default 0.95)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seeds is not None and (args.runs is not None or args.base_seed is not None):
        parser.error("--seeds cannot be combined with --runs/--base-seed")

    settings: dict[str, str] = {}
    try:
        if args.preset:
            settings.update(PRESETS[args.preset])
        if args.config:
            settings.update(_read_config_file(args.config))
        if args.protocols is not None:
            settings["experiment.protocols"] = args.protocols
        if args.seeds is not None:
            settings["experiment.seeds"] = args.seeds
            settings.pop("experiment.runs", None)
            settings.pop("experiment.base_seed", None)
        if args.runs is not None or args.base_seed is not None:
            settings.pop("experiment.seeds", None)
            if args.runs is not None:
                settings["experiment.runs"] = str(args.runs)
            if args.base_seed is not None:
                settings["experiment.base_seed"] = str(args.base_seed)
        if args.confidence is not None:
            settings["experiment.confidence"] = repr(args.confidence)
        spec = build_spec(settings)
        stats = run_experiment(spec.network, list(spec.protocols), list(spec.seeds),
                               spec.confidence)
        manifest = emit_tables(stats, args.out, seeds=spec.seeds, config=spec.network)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in manifest:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
