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
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, itemgetter

from .engine import run_simulation
from .model import ConfigurationError, NetworkConfig, validate_config
from .protocols import PROTOCOL_NAMES, ProtocolKind
from .stats import METRIC_NAMES, MilestoneSummary, MultiRunStats, aggregate_runs

# One row per network, radio, energy and delay key, in file order: the
# file key and the NetworkConfig attribute it sets. Each key's default, and
# so the type its text is parsed as, is read from NetworkConfig().
NETWORK_KEYS: tuple[tuple[str, str], ...] = (
    ("network.n_nodes", "n_nodes"),
    ("network.r_inner", "geometry.r_inner"),
    ("network.r_outer", "geometry.r_outer"),
    ("network.max_rounds", "max_rounds"),
    ("network.deployment", "deployment_mode"),
    ("network.inner_fraction", "inner_fraction"),
    ("network.link_drop_probability", "link_drop_probability"),
    ("radio.e_elec", "radio.e_elec"),
    ("radio.e_fs", "radio.e_fs"),
    ("radio.e_mp", "radio.e_mp"),
    ("radio.e_da", "radio.e_da"),
    ("radio.packet_bits", "radio.packet_bits"),
    ("energy.mode", "heterogeneity.mode"),
    ("energy.e0", "heterogeneity.e0"),
    ("energy.m", "heterogeneity.m"),
    ("energy.m0", "heterogeneity.m0"),
    ("energy.alpha", "heterogeneity.alpha"),
    ("energy.beta", "heterogeneity.beta"),
    ("energy.alpha_max", "heterogeneity.alpha_max"),
    ("delay.mode", "delay.mode"),
    ("delay.speed", "delay.speed"),
    ("delay.per_hop", "delay.per_hop"),
)

# Every file key with its default, in file order. The experiment keys are
# parsed by hand in build_spec; ``seeds`` has no default because
# ``runs``/``base_seed`` stand in for it.
DEFAULTS: dict[str, object] = {
    **{key: attrgetter(path)(NetworkConfig()) for key, path in NETWORK_KEYS},
    "experiment.protocols": ",".join(PROTOCOL_NAMES),
    "experiment.runs": 5,
    "experiment.base_seed": 42,
    "experiment.seeds": None,
    "experiment.confidence": 0.95,
    "experiment.p_opt": 0.1,
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
    confidence: float = DEFAULTS["experiment.confidence"]


def read_settings(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse sectioned key-value text into flat ``section.key`` settings.

    Unknown sections or keys are rejected by name; syntax errors carry
    the parser's line numbers. ``;`` and ``#`` start a comment, on a line
    of its own or after a value.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigurationError(str(exc)) from exc
    sections = {key.partition(".")[0] for key in DEFAULTS}
    settings: dict[str, str] = {}
    for section in parser.sections():
        if section not in sections:
            raise ConfigurationError(
                f"unknown section [{section}]; expected one of {sorted(sections)}")
        for key, value in parser.items(section):
            if f"{section}.{key}" not in DEFAULTS:
                known = sorted(k.partition(".")[2] for k in DEFAULTS
                               if k.startswith(section + "."))
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]; expected one of {known}")
            settings[f"{section}.{key}"] = value.strip()
    return settings


def _parse(settings: dict[str, str], key: str):
    """Return ``key``'s value parsed as the type of its default, or the default."""
    default = DEFAULTS[key]
    raw = settings.get(key)
    if raw is None:
        return default
    try:
        return type(default)(raw)
    except ValueError:
        expected = "an integer" if isinstance(default, int) else "a number"
        raise ConfigurationError(f"{key}: expected {expected}, got {raw!r}") from None


def _replace_path(obj, path: str, value):
    """Return a copy of dataclass ``obj`` with the dotted attribute ``path`` set."""
    name, _, rest = path.partition(".")
    if rest:
        value = _replace_path(getattr(obj, name), rest, value)
    return dataclasses.replace(obj, **{name: value})


def _split_list(raw: str, key: str) -> list[str]:
    parts = [part.strip() for part in raw.split(",")]
    if any(not part for part in parts):
        raise ConfigurationError(f"{key}: empty entry in list {raw!r}")
    return parts


def build_spec(settings: dict[str, str]) -> ExperimentSpec:
    """Turn flat settings into a validated experiment description."""
    network = NetworkConfig()
    for key, path in NETWORK_KEYS:
        network = _replace_path(network, path, _parse(settings, key))
    problems = validate_config(network)
    if problems:
        raise ConfigurationError("; ".join(problems))

    p_opt = _parse(settings, "experiment.p_opt")
    names = _split_list(_parse(settings, "experiment.protocols"), "experiment.protocols")
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
        runs = _parse(settings, "experiment.runs")
        if runs < 1:
            raise ConfigurationError(f"experiment.runs must be at least 1, got {runs}")
        base_seed = _parse(settings, "experiment.base_seed")
        seeds = tuple(base_seed + i for i in range(runs))

    confidence = _parse(settings, "experiment.confidence")
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
    lines = []
    for section, rows in groupby(NETWORK_KEYS, key=lambda row: row[0].partition(".")[0]):
        lines.append(f"[{section}]")
        lines.extend(f"{key.partition('.')[2]} = {_fmt(attrgetter(path)(spec.network))}"
                     for key, path in rows)
        lines.append("")
    lines += [
        "[experiment]",
        f"protocols = {','.join(kind.name for kind in spec.protocols)}",
        f"seeds = {','.join(str(seed) for seed in spec.seeds)}",
        f"confidence = {_fmt(spec.confidence)}",
        f"p_opt = {_fmt(spec.protocols[0].p_opt)}",
        "",
    ]
    return "\n".join(lines)


def run_experiment(config: NetworkConfig, protocols: list[ProtocolKind],
                   seeds: list[int],
                   confidence: float = DEFAULTS["experiment.confidence"]
                   ) -> dict[str, MultiRunStats]:
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


_lo, _hi = itemgetter(0), itemgetter(1)


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
        columns: list[Iterable] = [range(bundle.rounds)]
        for metric in METRIC_NAMES:
            ci = bundle.per_round_ci[metric]
            columns += (bundle.per_round_mean[metric], map(_lo, ci), map(_hi, ci))
        with _open(f"{name}.csv") as handle:
            # no cell holds a comma, quote or newline, so csv.writer would quote nothing
            handle.write(",".join(_series_header()) + "\n")
            handle.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))

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
                             f"(default {DEFAULTS['experiment.protocols']})")
    parser.add_argument("--seeds", metavar="LIST", help="comma-separated run seeds")
    parser.add_argument("--runs", metavar="N", type=int,
                        help="number of runs per protocol "
                             f"(default {DEFAULTS['experiment.runs']})")
    parser.add_argument("--base-seed", metavar="S", type=int,
                        help="first seed; run i uses S+i "
                             f"(default {DEFAULTS['experiment.base_seed']})")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default: results)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set applied before the config file")
    parser.add_argument("--confidence", metavar="LEVEL", type=float,
                        help="confidence level for the interval bands "
                             f"(default {DEFAULTS['experiment.confidence']})")
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
