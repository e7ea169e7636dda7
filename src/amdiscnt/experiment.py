"""Batch experiment runner and command line front end.

An experiment is a network configuration plus a protocol list, a seed
list, and a confidence level. Configuration files are sectioned
key-value text (INI syntax); every key has a default, so an empty file
describes the standard benchmark scenario. The runner is one stream of
``(protocol name, MultiRunStats)`` pairs: it runs each protocol's seeds
and yields their aggregate before the next protocol runs. The writer
takes that stream and writes each protocol's CSV series as its pair
arrives, so only one protocol's bands are ever held, then
``summary.csv`` and last a ``meta`` key-value file, so a directory
without ``meta`` is incomplete. Floats are serialised with ``repr`` so
files round-trip exactly and repeated invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import os
import sys
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter

from .engine import place, run_simulation
from .model import ConfigurationError, NetworkConfig, config_fields, validate_config
from .protocols import PROTOCOL_NAMES
from .stats import SERIES_HEADER, SUMMARY_HEADER, MultiRunStats, aggregate_runs

# Each network, radio, energy and delay key and p_opt, as its NetworkConfig field
# declares it, in declaration order: the file key and the attribute it sets. Each key's
# default, and so the type its text is parsed as, is read from NetworkConfig().
NETWORK_KEYS: tuple[tuple[str, str], ...] = tuple(
    (field.metadata["key"], path) for path, field, _ in config_fields(NetworkConfig())
    if "key" in field.metadata)

# Every file key with its default. The other experiment keys are parsed
# by hand in build_spec; ``seeds`` has no default because
# ``runs``/``base_seed`` stand in for it.
DEFAULTS: dict[str, object] = {
    **{key: attrgetter(path)(NetworkConfig()) for key, path in NETWORK_KEYS},
    "experiment.protocols": ",".join(PROTOCOL_NAMES),
    "experiment.runs": 5,
    "experiment.base_seed": 42,
    "experiment.seeds": None,
    "experiment.confidence": 0.95,
}

# One row per experiment flag: the key it sets, its metavar and its help.
# Its text is parsed as the file's is; its help shows the key's DEFAULTS entry.
FLAGS: tuple[tuple[str, str, str], ...] = (
    ("experiment.protocols", "LIST", "comma-separated protocol names"),
    ("experiment.seeds", "LIST", "comma-separated run seeds"),
    ("experiment.runs", "N", "number of runs per protocol"),
    ("experiment.base_seed", "S", "first seed; run i uses S+i"),
    ("experiment.confidence", "LEVEL", "confidence level for the interval bands"),
)

PRESETS: dict[str, dict[str, str]] = {
    "table1": {},
    "table2": {
        "network.n_nodes": "100",
        "network.r_inner": "25.0",
        "network.r_outer": "40.0",
        "energy.e0": "0.8",
    },
}


@dataclass(frozen=True)
class ExperimentSpec:
    """A runnable experiment: it states every rule on what may run, so a bad one fails
    here, before any run, with a ``ConfigurationError`` naming each broken rule's key."""

    network: NetworkConfig
    protocols: tuple[str, ...]
    seeds: tuple[int, ...]
    confidence: float = DEFAULTS["experiment.confidence"]

    def __post_init__(self):
        problems = []
        if not isinstance(self.protocols, tuple):
            problems.append("experiment.protocols: expected a tuple of protocol names, "
                            f"got {self.protocols!r}")
        elif not self.protocols:
            problems.append("experiment.protocols: an experiment needs at least one protocol")
        else:
            unknown = [name for name in self.protocols if name not in PROTOCOL_NAMES]
            if unknown:
                problems.append(f"experiment.protocols: unknown protocol {unknown[0]!r}; "
                                f"expected one of {PROTOCOL_NAMES}")
            elif len(set(self.protocols)) != len(self.protocols):
                problems.append(
                    f"experiment.protocols lists a protocol twice: {list(self.protocols)}")
        if not isinstance(self.seeds, tuple):
            problems.append(f"experiment.seeds: expected a tuple of integers, got {self.seeds!r}")
        elif not self.seeds:
            problems.append("experiment.seeds: an experiment needs at least one seed")
        elif any(isinstance(s, bool) or not isinstance(s, int) for s in self.seeds):
            problems.append(f"experiment.seeds: expected integers, got {list(self.seeds)!r}")
        else:  # Random(s) and Random(-s) draw the same stream
            ordered = sorted(self.seeds, key=abs)
            twins = [f"{a} and {b}" for a, b in zip(ordered, ordered[1:]) if abs(a) == abs(b)]
            if twins:
                problems.append("experiment.seeds lists a seed twice (s and -s seed the same "
                                f"stream): {', '.join(twins)}")
        if not (isinstance(self.confidence, (int, float)) and 0.0 < self.confidence < 1.0):
            problems.append(f"experiment.confidence must lie in (0, 1), got {self.confidence!r}")
        if not isinstance(self.network, NetworkConfig):
            problems.append(f"network: expected a NetworkConfig, got {self.network!r}")
        else:
            runs = len(self.seeds) if isinstance(self.seeds, tuple) else 1
            problems += validate_config(self.network, runs=runs)
        if problems:
            raise ConfigurationError("; ".join(problems))


def read_settings(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse sectioned key-value text into flat ``section.key`` settings.

    Unknown sections or keys are rejected by name; syntax errors carry
    the parser's line numbers. ``;`` and ``#`` start a comment, on a line
    of its own or after a value.
    """
    # no header names the empty section, so [DEFAULT] is an ordinary (unknown) one
    parser = configparser.ConfigParser(interpolation=None, strict=True, default_section="",
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
    """Turn flat settings into an experiment description, which checks itself."""
    network = NetworkConfig()
    for key, path in NETWORK_KEYS:
        network = _replace_path(network, path, _parse(settings, key))
    protocols = tuple(_split_list(_parse(settings, "experiment.protocols"),
                                  "experiment.protocols"))

    if "experiment.seeds" in settings:
        if "experiment.runs" in settings or "experiment.base_seed" in settings:
            raise ConfigurationError(
                "give either experiment.seeds or experiment.runs/base_seed, not both")
        parts = _split_list(settings["experiment.seeds"], "experiment.seeds")
        try:
            seeds = tuple(map(int, parts))
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
    return ExperimentSpec(network=network, protocols=protocols, seeds=seeds,
                          confidence=_parse(settings, "experiment.confidence"))


def _read_config_file(path: str) -> dict[str, str]:
    """Read one configuration file into flat ``section.key`` settings."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return read_settings(text, source=path)


def stream_experiment(spec: ExperimentSpec) -> Iterator[tuple[str, MultiRunStats]]:
    """Return the stream of ``(protocol name, MultiRunStats)`` pairs of a
    checked experiment, in request order.

    The stream is protocol-major: it runs one protocol's seeds when the
    next pair is asked for, and each protocol's histories are freed once
    aggregated, so only one protocol's histories are ever held. Each run
    deploys its own seed's field, except that a single seed's field is
    placed once and shared by all the protocols: holding every seed's
    placement would hold each seed's n**2 neighbour orders once a
    baseline has built them.
    """
    configs = [dataclasses.replace(spec.network, seed=seed) for seed in spec.seeds]
    shared = place(configs[0]) if len(configs) == 1 else None
    return ((name, aggregate_runs([run_simulation(run_config, name, shared)
                                   for run_config in configs], spec.confidence))
            for name in spec.protocols)


def run_experiment(spec: ExperimentSpec) -> dict[str, MultiRunStats]:
    """Run every (protocol, seed) pair and aggregate per protocol: the
    :func:`stream_experiment` stream collected into a dict keyed by
    protocol name in request order."""
    return dict(stream_experiment(spec))


def emit_tables(stats: Iterable[tuple[str, MultiRunStats]], out_dir: str,
                spec: ExperimentSpec) -> list[str]:
    """Write per-protocol series, the milestone summary, and the meta file.

    ``stats`` is an iterable of ``(protocol name, MultiRunStats)`` pairs
    of ``spec``, such as a :func:`run_experiment` dict's ``items()`` or a
    :func:`stream_experiment` stream. Each ``<name>.csv`` is written as
    its pair arrives, and only the names and summary means are kept.
    ``summary.csv`` follows, and ``meta`` is written last. Opening the
    first file makes the directory and deletes an old ``meta``: a stream
    failing before that touches nothing, and a directory without ``meta``
    is incomplete even after a failed rewrite. Returns the paths written.
    Output has nothing volatile (no timestamps), so equal inputs give equal bytes.
    """
    manifest: list[str] = []

    def _open(name: str):
        if not manifest:
            os.makedirs(out_dir, exist_ok=True)
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, "meta"))
        path = os.path.join(out_dir, name)
        manifest.append(path)
        try:
            return open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc

    summary: dict[str, list[float]] = {}
    for name, bundle in stats:
        columns = [range(bundle.rounds), *(bundle.series[key] for key in SERIES_HEADER[1:])]
        with _open(f"{name}.csv") as handle:
            # no cell holds a comma, quote or newline, so csv.writer would quote nothing
            handle.write(",".join(SERIES_HEADER) + "\n")
            handle.writelines(",".join(map(repr, row)) + "\n" for row in zip(*columns))
        summary[name] = [getattr(bundle, key) for key in SUMMARY_HEADER[1:]]
        del bundle, columns  # free these bands before the stream makes the next protocol's
    if not summary:
        raise ValueError("emit_tables needs at least one protocol")

    with _open("summary.csv") as handle:
        handle.write(",".join(SUMMARY_HEADER) + "\n")
        handle.writelines(",".join([name, *map(repr, means)]) + "\n"
                          for name, means in summary.items())

    with _open("meta") as handle:
        handle.write(f"protocols = {','.join(summary)}\n")
        handle.write(f"seeds = {','.join(str(seed) for seed in spec.seeds)}\n")
        handle.write(f"runs = {len(spec.seeds)}\n")
        handle.write(f"confidence = {repr(spec.confidence)}\n")
        handle.write(f"delay_mode = {spec.network.delay.mode}\n")
        handle.write(f"deployment_mode = {spec.network.deployment_mode}\n")
        handle.write(f"max_rounds = {spec.network.max_rounds}\n")
        handle.write("ci_formula = mean +/- z(alpha/2) * sigma / sqrt(n), "
                     "sigma with the population normaliser (divide by n)\n")
        handle.write("milestone_convention = completed rounds starting at 1; "
                     "milestones never reached enter means at the horizon\n")
        handle.write("delay_convention = slowest member link plus forwarding links, "
                     "averaged over packets delivered in the round\n")
    return manifest


def read_tables(out_dir: str) -> dict[str, MultiRunStats]:
    """Rebuild per-protocol stats from an output directory, exactly: the inverse
    of :func:`emit_tables`, whose cells hold no comma, so each line splits on ``,``."""

    def rows(name: str, sep: str = ",", width: int = 0) -> list[list[str]]:
        """``name``'s lines split on ``sep``, each into ``width`` cells or the first line's."""
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as handle:
            table = [line.rstrip("\n").split(sep, width - 1) for line in handle]
        cells = (width or len(table[0])) if table else 0
        for number, row in enumerate(table, 1):
            if len(row) != cells:
                raise ValueError(f"{name} line {number} splits on {sep!r} into {len(row)} cells, "
                                 f"not {cells}")
        return table

    meta = dict(rows("meta", " = ", 2))
    if missing := [key for key in ("protocols", "runs", "confidence") if key not in meta]:
        raise ValueError(f"meta has no line for {', '.join(missing)}")
    protocols = meta["protocols"].split(",")
    header, *summary = rows("summary.csv")
    if tuple(header) != SUMMARY_HEADER:
        raise ValueError(f"unexpected summary header {header}")
    if (names := [row[0] for row in summary]) != protocols:
        raise ValueError(f"summary.csv has rows for {names}, but meta lists {protocols}")
    stats: dict[str, MultiRunStats] = {}
    for name, *means in summary:
        header, *lines = rows(f"{name}.csv")
        if tuple(header) != SERIES_HEADER:
            raise ValueError(f"unexpected series header in {name}.csv")
        _, *columns = zip(header, *lines, strict=True)
        stats[name] = MultiRunStats(
            runs=int(meta["runs"]), rounds=len(lines), confidence=float(meta["confidence"]),
            series={key: array("d", map(float, cells)) for key, *cells in columns},
            **dict(zip(SUMMARY_HEADER[1:], map(float, means), strict=True)))
    return stats


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amdiscnt",
        description="Run round-based sensor-network simulations and write metric tables.")
    parser.add_argument("--config", metavar="PATH", help="experiment configuration file")
    parser.add_argument("--out", metavar="DIR", default="results",
                        help="output directory (default: results)")
    parser.add_argument("--preset", choices=sorted(PRESETS),
                        help="named parameter set applied before the config file")
    for key, metavar, text in FLAGS:
        default = DEFAULTS[key]
        parser.add_argument("--" + key.partition(".")[2].replace("_", "-"), metavar=metavar,
                            help=text if default is None else f"{text} (default {default})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {key: value for key, *_ in FLAGS
             if (value := getattr(args, key.partition(".")[2])) is not None}
    settings: dict[str, str] = {}
    try:
        if args.preset:
            settings.update(PRESETS[args.preset])
        if args.config:
            settings.update(_read_config_file(args.config))
        # a seed flag replaces the file's other way of giving seeds: --seeds
        # drops runs and base_seed, --runs or --base-seed drops seeds; flags
        # of both kinds are all kept, for build_spec to refuse
        if "experiment.seeds" in flags:
            settings.pop("experiment.runs", None)
            settings.pop("experiment.base_seed", None)
        elif flags.keys() & {"experiment.runs", "experiment.base_seed"}:
            settings.pop("experiment.seeds", None)
        settings.update(flags)
        spec = build_spec(settings)
        manifest = emit_tables(stream_experiment(spec), args.out, spec)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    for path in manifest:
        print(path)
    return 0
