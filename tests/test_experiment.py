import csv
import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import weakref
from operator import attrgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amdiscnt import engine, experiment
from amdiscnt.experiment import (
    NETWORK_KEYS,
    PRESETS,
    SERIES_HEADER,
    SUMMARY_HEADER,
    ExperimentSpec,
    build_spec,
    emit_tables,
    main,
    read_settings,
    read_tables,
    run_experiment,
    stream_experiment,
)
from amdiscnt.model import (
    DELAY_MODES,
    DEPLOYMENT_MODES,
    HETEROGENEITY_MODES,
    ConfigurationError,
    DelayModel,
    Geometry,
    HeterogeneitySpec,
    NetworkConfig,
    RadioParams,
    validate_config,
)
from amdiscnt.protocols import PROTOCOL_NAMES
from amdiscnt.stats import MultiRunStats


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(spec: ExperimentSpec) -> str:
    """Serialise a spec so that :func:`build_spec` reproduces it exactly."""
    sections: dict[str, list[str]] = {}
    for key, path in NETWORK_KEYS:
        section, _, name = key.partition(".")
        sections.setdefault(section, []).append(
            f"{name} = {_fmt(attrgetter(path)(spec.network))}")
    sections.setdefault("experiment", []).extend([
        f"protocols = {','.join(spec.protocols)}",
        f"seeds = {','.join(str(seed) for seed in spec.seeds)}",
        f"confidence = {_fmt(spec.confidence)}",
    ])
    return "".join(f"[{section}]\n" + "".join(row + "\n" for row in rows) + "\n"
                   for section, rows in sections.items())


def test_empty_settings_give_benchmark_defaults():
    spec = build_spec({})
    assert spec.network == NetworkConfig()
    assert spec.protocols == ("amdiscnt", "leach", "deec")
    assert spec.seeds == (42, 43, 44, 45, 46)
    assert spec.confidence == 0.95


def test_empty_file_parses_to_defaults(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("")
    assert build_spec(read_settings(path.read_text(), str(path))) == build_spec({})


def test_table2_preset_overrides():
    spec = build_spec(dict(PRESETS["table2"]))
    assert spec.network.geometry.r_inner == 25.0
    assert spec.network.geometry.r_outer == 40.0
    assert spec.network.heterogeneity.e0 == 0.8
    assert spec.network.n_nodes == 100


def test_config_file_overrides_preset():
    settings = dict(PRESETS["table2"])
    settings.update(read_settings("[energy]\ne0 = 0.6\n"))
    spec = build_spec(settings)
    assert spec.network.heterogeneity.e0 == 0.6
    assert spec.network.geometry.r_inner == 25.0


def test_unknown_key_rejected_by_name():
    with pytest.raises(ConfigurationError, match="voltage"):
        read_settings("[network]\nvoltage = 9\n")


def test_network_seed_is_not_a_file_key():
    # run seeds come from the experiment section; a network seed would be ignored
    with pytest.raises(ConfigurationError, match="'seed'"):
        read_settings("[network]\nseed = 7\n")


def test_unknown_section_rejected_by_name():
    with pytest.raises(ConfigurationError, match="antenna"):
        read_settings("[antenna]\ngain = 3\n")


# as configparser's default section, [DEFAULT] alone is ignored and its keys leak into [network]
_DEFAULT_SECTION_TEXTS = ("[DEFAULT]\nbogus = 1\n", "[DEFAULT]\nn_nodes = 50\n",
                          "[DEFAULT]\nn_nodes = 50\n[network]\nmax_rounds = 5\n")


@pytest.mark.parametrize("text", _DEFAULT_SECTION_TEXTS)
def test_default_section_rejected_by_name(text):
    with pytest.raises(ConfigurationError, match=r"unknown section \[DEFAULT\]"):
        read_settings(text)


@pytest.mark.parametrize("text", _DEFAULT_SECTION_TEXTS)
def test_main_rejects_a_default_section(tmp_path, capsys, text):
    config = tmp_path / "default.ini"
    config.write_text(text)
    assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert "[DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_syntax_error_reports_line():
    with pytest.raises(ConfigurationError, match="line"):
        read_settings("[network]\nnot a key value pair\n")


def test_bad_number_rejected_with_key():
    with pytest.raises(ConfigurationError, match="network.n_nodes"):
        build_spec({"network.n_nodes": "many"})


@pytest.mark.parametrize("key, raw", [
    ("experiment.protocols", "amdiscnt,,leach"),
    ("experiment.protocols", "leach,"),
    ("experiment.protocols", " "),
    ("experiment.seeds", "1,,2"),
], ids=["amdiscnt,,leach", "leach,", " ", "seeds 1,,2"])
def test_empty_list_entry_rejected_by_key(key, raw):
    with pytest.raises(ConfigurationError) as info:
        build_spec({key: raw})
    assert str(info.value) == f"{key}: empty entry in list {raw!r}"


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_runs_below_one_rejected_by_key(runs):
    with pytest.raises(ConfigurationError,
                       match=f"experiment.runs must be at least 1, got {runs}"):
        build_spec({"experiment.runs": runs})


def test_validation_problems_surface():
    with pytest.raises(ConfigurationError, match="r_inner"):
        build_spec({"network.r_inner": "50.0", "network.r_outer": "10.0"})


def test_seeds_and_runs_conflict_in_file():
    with pytest.raises(ConfigurationError, match="not both"):
        build_spec({"experiment.seeds": "1,2", "experiment.runs": "3"})


def test_duplicate_seeds_rejected_by_name():
    # one placement run twice would count as two runs with a zero-width band
    with pytest.raises(ConfigurationError, match="experiment.seeds lists a seed twice"):
        build_spec({"experiment.seeds": "1, 2, 1"})


def test_opposite_seeds_rejected_by_name():
    # Random(s) and Random(-s) draw the same stream: two runs would be one run counted twice
    with pytest.raises(ConfigurationError, match="experiment.seeds lists a seed twice") as raised:
        build_spec({"experiment.seeds": "3,-3"})
    assert "3 and -3" in str(raised.value)


def test_explicit_seed_list():
    spec = build_spec({"experiment.seeds": "7, 8, 11"})
    assert spec.seeds == (7, 8, 11)


def test_config_round_trip_exact():
    spec = build_spec({
        "network.n_nodes": "45",
        "network.r_inner": "22.5",
        "network.inner_fraction": "0.2",
        "energy.mode": "three_level",
        "energy.m0": "0.5",
        "energy.beta": "3.0",
        "delay.mode": "distance",
        "delay.speed": "250.0",
        "experiment.protocols": "amdiscnt,deec",
        "experiment.seeds": "1,2,3",
        "experiment.confidence": "0.9",
        "experiment.p_opt": "0.2",
    })
    assert build_spec(read_settings(write_config(spec))) == spec


def _positive(high):
    return st.floats(min_value=0.0, max_value=high, exclude_min=True)


def _non_negative(high):
    return st.floats(min_value=0.0, max_value=high)


def _open_unit():
    return st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def valid_specs(draw):
    r_inner = draw(_positive(1e4))
    network = NetworkConfig(
        n_nodes=draw(st.integers(9, 10**6)),
        geometry=Geometry(r_inner, draw(st.floats(min_value=r_inner, max_value=2e4,
                                                  exclude_min=True))),
        radio=RadioParams(*(draw(st.floats(1e-20, 1.0)) for _ in range(4)),
                          packet_bits=draw(st.integers(1, 10**9))),
        heterogeneity=HeterogeneitySpec(
            draw(st.sampled_from(HETEROGENEITY_MODES)), draw(_positive(1e6)),
            draw(_non_negative(1.0)), draw(_non_negative(1.0)),
            *(draw(_non_negative(1e6)) for _ in range(3))),
        max_rounds=draw(st.integers(0, 10**9)),
        deployment_mode=draw(st.sampled_from(DEPLOYMENT_MODES)),
        inner_fraction=draw(_open_unit()),
        link_drop_probability=draw(_non_negative(1.0)),
        delay=DelayModel(draw(st.sampled_from(DELAY_MODES)), draw(_positive(1e9)),
                         draw(_non_negative(1e9))),
        p_opt=draw(_open_unit()),
    )
    names = draw(st.lists(st.sampled_from(PROTOCOL_NAMES), min_size=1, unique=True))
    # s and -s seed the same stream, so they count as one seed
    seeds = draw(st.lists(st.integers(-2**63, 2**63), min_size=1, max_size=6, unique_by=abs))
    assume(validate_config(network, runs=len(seeds)) == [])
    return ExperimentSpec(
        network=network,
        protocols=tuple(names),
        seeds=tuple(seeds),
        confidence=draw(_open_unit()),
    )


@settings(deadline=None, max_examples=60)
@given(valid_specs())
def test_config_round_trip_property(spec):
    assert build_spec(read_settings(write_config(spec))) == spec


def small_settings(extra=None):
    settings = {"network.max_rounds": "30", "experiment.runs": "2"}
    if extra:
        settings.update(extra)
    return settings


def test_single_pair_means_equal_raw_run():
    spec = build_spec(small_settings({"experiment.protocols": "amdiscnt",
                                      "experiment.runs": "1"}))
    stats = run_experiment(spec)
    from amdiscnt.engine import run_simulation
    raw = run_simulation(spec.network, spec.protocols[0])
    bundle = stats["amdiscnt"]
    for i, m in enumerate(raw.per_round):
        assert bundle.series["alive_mean"][i] == float(m.alive)
        assert bundle.series["energy_mean"][i] == m.total_residual_energy
        assert (bundle.series["energy_lo"][i], bundle.series["energy_hi"][i]) == \
            (m.total_residual_energy,) * 2


def test_histories_are_freed_before_the_next_protocol_runs(monkeypatch):
    simulate = experiment.run_simulation
    made: dict[str, list[weakref.ref]] = {}
    first_alive_at_switch = []

    def recording(config, kind, *args):
        if kind == "leach" and "leach" not in made:
            first_alive_at_switch.extend(ref() is not None for ref in made["amdiscnt"])
        result = simulate(config, kind, *args)
        made.setdefault(kind, []).append(weakref.ref(result))
        return result

    monkeypatch.setattr(experiment, "run_simulation", recording)
    stats = run_experiment(ExperimentSpec(NetworkConfig(n_nodes=20, max_rounds=5),
                                          ("amdiscnt", "leach"),
                                          (1, 2)))
    assert first_alive_at_switch == [False, False]
    assert stats["leach"].runs == 2


def test_bands_are_freed_once_written(monkeypatch, tmp_path):
    simulate, aggregate = experiment.run_simulation, experiment.aggregate_runs
    made: list[list[weakref.ref]] = []  # per protocol: its stats and every band column
    earlier_alive = []

    def recording_aggregate(results, *args):
        stats = aggregate(results, *args)
        made.append([weakref.ref(stats)] + [weakref.ref(column)
                                            for column in stats.series.values()])
        return stats

    def recording_simulate(config, kind, *args):
        earlier_alive.extend(any(ref() is not None for ref in refs) for refs in made)
        return simulate(config, kind, *args)

    monkeypatch.setattr(experiment, "aggregate_runs", recording_aggregate)
    monkeypatch.setattr(experiment, "run_simulation", recording_simulate)
    config = tmp_path / "small.ini"
    config.write_text("[network]\nn_nodes = 20\nmax_rounds = 5\n")
    assert main(["--config", str(config), "--seeds", "1,2", "--out", str(tmp_path / "o")]) == 0
    assert len(made) == 3
    # leach's two runs each see amdiscnt's stats, deec's two runs see both earlier ones
    assert earlier_alive == [False] * 6


# 1.2e308 J in all per run
BIG_TWO_LEVEL = HeterogeneitySpec(mode="two_level", e0=1e306, m=0.2, alpha=1.0)


@pytest.mark.parametrize("network, runs, fields", [
    (NetworkConfig(heterogeneity=BIG_TWO_LEVEL), 5,
     ("heterogeneity.e0", "heterogeneity.alpha")),
    (NetworkConfig(heterogeneity=HeterogeneitySpec(mode="homogeneous", e0=1e305)), 20,
     ("heterogeneity.e0",)),
    # a round of 9 packets stays finite; 20 seeds' mean delays may not
    (NetworkConfig(n_nodes=9, delay=DelayModel("distance", 3.0, sys.float_info.max / 40)), 20,
     ("delay.per_hop", "delay.speed")),
    # each sum is finite, but aggregation's squared deviations from the mean overflowed:
    # leach and deec raised OverflowError on the first, all three protocols on the second
    (NetworkConfig(delay=DelayModel("distance", 1.0, 1e160)), 5,
     ("delay.per_hop", "delay.speed")),
    (NetworkConfig(heterogeneity=HeterogeneitySpec(
        mode="multi_level", e0=1e160, alpha_max=1.0)), 5,
     ("heterogeneity.e0", "heterogeneity.alpha_max")),
    # equal totals on every seed made these deviations 0, but no bound can tell
    (NetworkConfig(heterogeneity=HeterogeneitySpec(
        mode="two_level", e0=1e200, m=0.2, alpha=1.0)), 5,
     ("heterogeneity.e0", "heterogeneity.alpha")),
])
def test_sums_over_the_seeds_that_overflow_are_rejected_before_any_run(monkeypatch, network,
                                                                        runs, fields):
    calls = []
    monkeypatch.setattr(experiment, "run_simulation", lambda *args: calls.append(args))
    kinds = PROTOCOL_NAMES
    assert validate_config(network) == []  # one seed keeps the one-run rule
    ExperimentSpec(network, kinds, (0,))
    with pytest.raises(ConfigurationError, match=f"summed over {runs} seeds") as raised:
        ExperimentSpec(network, kinds, tuple(range(runs)))
    assert all(field in str(raised.value) for field in fields)
    assert calls == []


def test_main_rejects_an_overflowing_seed_sum_before_any_run(monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(experiment, "run_simulation", lambda *args: calls.append(args))
    config = tmp_path / "big.ini"
    for text in ("[energy]\nmode = two_level\ne0 = 1e306\nm = 0.2\nalpha = 1.0\n",
                 "[delay]\nmode = distance\nper_hop = 1e160\n",
                 "[energy]\nmode = multi_level\ne0 = 1e160\nalpha_max = 1.0\n"):
        config.write_text(text)
        assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "summed over 5 seeds" in err
        assert calls == []
        assert not (tmp_path / "o").exists()


def test_run_experiment_rejects_empty_inputs():
    config = NetworkConfig()
    with pytest.raises(ValueError):
        ExperimentSpec(config, (), (1,))
    with pytest.raises(ValueError):
        ExperimentSpec(config, ("leach",), ())


def test_run_experiment_rejects_duplicates():
    config = NetworkConfig()
    with pytest.raises(ValueError, match="protocol"):
        ExperimentSpec(config, ("leach", "leach"), (1,))
    with pytest.raises(ValueError, match="seed"):
        ExperimentSpec(config, ("leach",), (1, 1))


@pytest.mark.parametrize("seeds, confidence", [
    ([1, 2], 1.0), ([1, 2], float("nan")), ([1, 2], "0.9"),
    ([1, 2.5], 0.95), ([1, "3"], 0.95), ([3, -3], 0.95),
], ids=["confidence-1", "confidence-nan", "confidence-text", "seed-2.5", "seed-text",
        "seeds-3,-3"])
def test_every_input_is_checked_before_any_run(monkeypatch, seeds, confidence):
    calls = []
    monkeypatch.setattr(experiment, "run_simulation", lambda *args: calls.append(args))
    kinds = ("leach", "amdiscnt")
    with pytest.raises(ConfigurationError, match="experiment.(seeds|confidence)"):
        ExperimentSpec(NetworkConfig(), kinds, tuple(seeds), confidence)
    assert calls == []


@pytest.mark.parametrize("network, protocols, seeds, key", [
    (NetworkConfig(), "amdiscnt", (1,), "experiment.protocols"),
    (NetworkConfig(), ["leach"], (1,), "experiment.protocols"),
    (None, ("leach",), (1,), "network"),
    (NetworkConfig(), ("leach",), 42, "experiment.seeds"),
    (NetworkConfig(), ("leach",), [1, 2], "experiment.seeds"),
], ids=["protocol-name", "protocol-list", "network-none", "seeds-int", "seeds-list"])
def test_wrongly_typed_inputs_are_rejected_by_key(monkeypatch, network, protocols, seeds, key):
    calls = []
    monkeypatch.setattr(experiment, "run_simulation", lambda *args: calls.append(args))
    with pytest.raises(ConfigurationError, match=rf"(^|; ){re.escape(key)}: expected"):
        ExperimentSpec(network, protocols, seeds)
    assert calls == []


def test_a_failed_rewrite_leaves_no_meta(tmp_path):
    network = NetworkConfig(n_nodes=20, max_rounds=5)
    kinds = ("amdiscnt", "leach")
    first, second = ExperimentSpec(network, kinds, (1,)), ExperimentSpec(network, kinds, (2,))
    emit_tables(stream_experiment(first), str(tmp_path), first)
    assert "seeds = 1\n" in (tmp_path / "meta").read_text()

    def failing_after_the_first_pair(stream):
        yield next(stream)
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        emit_tables(failing_after_the_first_pair(stream_experiment(second)), str(tmp_path),
                    second)
    assert not (tmp_path / "meta").exists()
    with pytest.raises(FileNotFoundError):
        read_tables(str(tmp_path))


def small_battery() -> ExperimentSpec:
    return ExperimentSpec(NetworkConfig(n_nodes=20, max_rounds=5), ("amdiscnt",), (1,))


def test_emit_names_the_file_it_cannot_open(tmp_path):
    spec = small_battery()
    (tmp_path / "amdiscnt.csv").mkdir()
    path = re.escape(str(tmp_path / "amdiscnt.csv"))
    with pytest.raises(OSError, match=f"^failed writing {path}: "):
        emit_tables(stream_experiment(spec), str(tmp_path), spec)
    assert sorted(os.listdir(tmp_path)) == ["amdiscnt.csv"]


def test_emit_needs_at_least_one_pair(tmp_path):
    out = tmp_path / "o"
    with pytest.raises(ValueError, match="emit_tables needs at least one protocol"):
        emit_tables([], str(out), small_battery())
    assert not out.exists()


def test_emit_census_and_round_trip(tmp_path):
    spec = build_spec(small_settings())
    stats = run_experiment(spec)
    out = tmp_path / "tables"
    manifest = emit_tables(stats.items(), str(out), spec)
    names = sorted(os.path.basename(p) for p in manifest)
    assert names == ["amdiscnt.csv", "deec.csv", "leach.csv", "meta", "summary.csv"]
    assert read_tables(str(out)) == stats


def test_summary_columns_name_the_stats_fields():
    # after "protocol", summary.csv's columns are MultiRunStats' last five fields, by name;
    # after "round", each <name>.csv's columns are its series keys, in order
    assert [field.name for field in dataclasses.fields(MultiRunStats)] == [
        "runs", "rounds", "confidence", "series", *SUMMARY_HEADER[1:]]
    stats = run_experiment(small_battery())
    assert all(tuple(bundle.series) == SERIES_HEADER[1:] for bundle in stats.values())


@pytest.mark.parametrize("name, message", [
    ("summary.csv", r"unexpected summary header \['protocol', 'fnd_avg'"),
    ("amdiscnt.csv", "unexpected series header in amdiscnt.csv"),
])
def test_read_tables_refuses_an_unexpected_header(tmp_path, name, message):
    spec = small_battery()
    emit_tables(stream_experiment(spec), str(tmp_path), spec)
    path = tmp_path / name
    header, _, rows = path.read_text().partition("\n")
    path.write_text(header.replace("_mean", "_avg", 1) + "\n" + rows)
    with pytest.raises(ValueError, match=message):
        read_tables(str(tmp_path))


def test_read_tables_refuses_a_summary_row_with_an_extra_cell(tmp_path):
    spec = small_battery()
    emit_tables(stream_experiment(spec), str(tmp_path), spec)
    path = tmp_path / "summary.csv"
    header, _, rows = path.read_text().partition("\n")
    first, _, rest = rows.partition("\n")
    path.write_text(header + "\n" + first + ",0.0\n" + rest)
    with pytest.raises(ValueError, match="longer than argument 1"):
        read_tables(str(tmp_path))


def test_read_tables_names_a_protocol_missing_from_the_summary(tmp_path):
    spec = ExperimentSpec(NetworkConfig(n_nodes=20, max_rounds=5), ("amdiscnt", "leach"), (1,))
    emit_tables(stream_experiment(spec), str(tmp_path), spec)
    path = tmp_path / "summary.csv"
    lines = path.read_text().splitlines(keepends=True)
    assert lines[2].startswith("leach,")
    path.write_text("".join(lines[:2]))
    with pytest.raises(ValueError, match="^summary.csv has no row for protocol 'leach'$"):
        read_tables(str(tmp_path))


@st.composite
def short_batteries(draw):
    """Small fields on small batteries, so nodes die and milestones fall inside the horizon."""
    network = NetworkConfig(
        n_nodes=draw(st.integers(9, 30)),
        heterogeneity=HeterogeneitySpec(mode="multi_level", e0=draw(st.floats(2e-4, 0.02)),
                                        alpha_max=draw(_non_negative(3.0))),
        max_rounds=draw(st.integers(0, 40)),
        link_drop_probability=draw(_non_negative(0.5)),
        delay=DelayModel(draw(st.sampled_from(DELAY_MODES)), draw(st.floats(1.0, 1e3)),
                         draw(_non_negative(1.0))),
    )
    seeds = draw(st.lists(st.integers(-2**63, 2**63), min_size=1, max_size=3, unique_by=abs))
    confidence = draw(st.one_of(st.sampled_from([0.5, 0.9, 0.95, 0.99]), _open_unit()))
    return ExperimentSpec(network, PROTOCOL_NAMES,
                          tuple(seeds), confidence)


@settings(deadline=None, max_examples=40)
@given(spec=short_batteries())
def test_emit_read_round_trip_property(spec):
    stats = run_experiment(spec)
    with tempfile.TemporaryDirectory() as out:
        emit_tables(stats.items(), out, spec)
        assert read_tables(out) == stats


def test_summary_rows_follow_request_order(tmp_path):
    spec = build_spec(small_settings({"experiment.protocols": "deec,leach"}))
    stats = run_experiment(spec)
    emit_tables(stats.items(), str(tmp_path), spec)
    with open(tmp_path / "summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [r[0] for r in rows[1:]] == ["deec", "leach"]


def test_round_zero_alive_equals_population(tmp_path):
    spec = build_spec(small_settings())
    stats = run_experiment(spec)
    emit_tables(stats.items(), str(tmp_path), spec)
    for name in ("amdiscnt", "leach", "deec"):
        with open(tmp_path / f"{name}.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[1][0] == "0"
        assert float(rows[1][1]) == 100.0


def write_small_config(tmp_path, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text("[network]\nmax_rounds = 30\n\n[experiment]\nruns = 2\n" + extra)
    return str(path)


def test_main_writes_manifest_and_reruns_identically(tmp_path, capsys):
    config = write_small_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--config", config, "--out", str(out_a)]) == 0
    assert main(["--config", config, "--out", str(out_b)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out_a / "summary.csv") in printed
    for name in ("amdiscnt.csv", "leach.csv", "deec.csv", "summary.csv", "meta"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_main_flag_overrides(tmp_path):
    config = write_small_config(tmp_path)
    out = tmp_path / "flags"
    code = main(["--config", config, "--out", str(out),
                 "--protocols", "leach", "--seeds", "5,6", "--confidence", "0.9"])
    assert code == 0
    meta = (out / "meta").read_text()
    assert "protocols = leach\n" in meta
    assert "seeds = 5,6\n" in meta
    assert "confidence = 0.9\n" in meta
    assert not (out / "amdiscnt.csv").exists()


def test_main_runs_and_base_seed(tmp_path):
    out = tmp_path / "seeded"
    code = main(["--config", write_small_config(tmp_path), "--out", str(out),
                 "--protocols", "leach", "--runs", "3", "--base-seed", "100"])
    assert code == 0
    assert "seeds = 100,101,102\n" in (out / "meta").read_text()


def test_main_applies_a_preset_before_the_config_file(tmp_path):
    config = tmp_path / "short.ini"
    config.write_text("[network]\nmax_rounds = 5\n")
    out = tmp_path / "preset"
    assert main(["--preset", "table2", "--config", str(config), "--out", str(out),
                 "--protocols", "amdiscnt", "--runs", "1"]) == 0
    settings = {"network.max_rounds": "5", "experiment.protocols": "amdiscnt",
                "experiment.runs": "1"}
    written = read_tables(str(out))
    assert written == run_experiment(build_spec({**PRESETS["table2"], **settings}))
    assert written != run_experiment(build_spec(settings))


SEED_CONFLICT = "error: give either experiment.seeds or experiment.runs/base_seed, not both\n"


def test_main_seed_flags_conflict(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["--seeds", "1,2", "--runs", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == SEED_CONFLICT
    assert not out.exists()


# a flag's text goes through the file's parse, so its error names the key
@pytest.mark.parametrize("flag, value, expected", [
    ("runs", "abc", "an integer"), ("base-seed", "1.5", "an integer"),
    ("confidence", "high", "a number"), ("seeds", "1,x", "integers"),
])
def test_main_rejects_a_flag_that_does_not_parse_by_key(tmp_path, capsys, flag, value,
                                                         expected):
    out = tmp_path / "o"
    assert main([f"--{flag}", value, "--out", str(out)]) == 1
    key = "experiment." + flag.replace("-", "_")
    assert capsys.readouterr().err == f"error: {key}: expected {expected}, got {value!r}\n"
    assert not out.exists()


# [experiment] entries of a config file, and command-line flags, as key -> text
PRECEDENCE_FILES = [{}, {"seeds": "3,4"}, {"runs": "3"}, {"base_seed": "10"},
                    {"runs": "3", "base_seed": "10"}, {"protocols": "leach", "confidence": "0.9"}]
PRECEDENCE_FLAGS = [{}, {"seeds": "7,8"}, {"runs": "2"}, {"base_seed": "20"},
                    {"runs": "2", "base_seed": "20"}, {"protocols": "deec"},
                    {"confidence": "0.8"}]


def _main_argv(tmp_path, file: dict, flags: dict) -> list[str]:
    """``main``'s arguments for a config file of ``file`` entries and ``flags``."""
    config = tmp_path / "exp.ini"
    config.write_text("[experiment]\n" + "".join(f"{k} = {v}\n" for k, v in file.items()))
    argv = ["--config", str(config), "--out", str(tmp_path / "o")]
    for key, value in flags.items():
        argv += ["--" + key.replace("_", "-"), value]
    return argv


def _main_spec(monkeypatch, tmp_path, file: dict, flags: dict):
    """Run ``main`` on ``file`` and ``flags`` and return what it would
    have run and written: (protocol names, seeds, confidence)."""
    captured = []

    def fake_stream(spec):
        captured.append((list(spec.protocols), spec.seeds, spec.confidence))
        return iter(())

    def fake_emit(stream, out, spec):
        assert list(stream) == [] and spec.seeds == captured[0][1]
        return []

    monkeypatch.setattr(experiment, "stream_experiment", fake_stream)
    monkeypatch.setattr(experiment, "emit_tables", fake_emit)
    assert main(_main_argv(tmp_path, file, flags)) == 0
    return captured[0]


@pytest.mark.parametrize("flags", PRECEDENCE_FLAGS, ids=lambda f: "+".join(f) or "no-flag")
@pytest.mark.parametrize("file", PRECEDENCE_FILES, ids=lambda f: "+".join(f) or "no-key")
def test_main_flags_override_the_file_by_the_seed_rule(monkeypatch, tmp_path, file, flags):
    names, seeds, confidence = _main_spec(monkeypatch, tmp_path, file, flags)
    if "seeds" in flags:  # --seeds drops the file's runs and base_seed
        expected = (7, 8)
    elif "seeds" in file and "runs" not in flags and "base_seed" not in flags:
        expected = (3, 4)
    else:  # --runs or --base-seed drops the file's seeds; a file base_seed survives --runs
        runs = int(flags.get("runs", file.get("runs", 5)))
        base = int(flags.get("base_seed", file.get("base_seed", 42)))
        expected = tuple(range(base, base + runs))
    assert seeds == expected
    assert names == flags.get("protocols", file.get("protocols", "amdiscnt,leach,deec")).split(",")
    assert confidence == float(flags.get("confidence", file.get("confidence", 0.95)))


@pytest.mark.parametrize("flags", [{"seeds": "1,2", "runs": "3"},
                                   {"seeds": "1,2", "base_seed": "3"}], ids="+".join)
@pytest.mark.parametrize("file", PRECEDENCE_FILES, ids=lambda f: "+".join(f) or "no-key")
def test_main_rejects_seeds_with_runs_or_base_seed_flags(tmp_path, capsys, file, flags):
    assert main(_main_argv(tmp_path, file, flags)) == 1
    assert capsys.readouterr().err == SEED_CONFLICT
    assert not (tmp_path / "o").exists()


def test_main_runs_leach_with_overflowing_inverse_p_opt(tmp_path):
    # deec runs it and amdiscnt ignores p_opt, so the config stays valid
    config = tmp_path / "tiny.ini"
    config.write_text("[network]\nn_nodes = 20\nmax_rounds = 30\n\n"
                      "[experiment]\nseeds = 1\np_opt = 1e-310\n")
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == ["amdiscnt.csv", "deec.csv", "leach.csv", "meta",
                                       "summary.csv"]


def count_validate_config(monkeypatch, module) -> list:
    """The argument tuples of every ``module.validate_config`` call from now on."""
    check, calls = module.validate_config, []

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(module, "validate_config", counting)
    return calls


def test_main_checks_the_experiment_once(monkeypatch, tmp_path):
    calls = count_validate_config(monkeypatch, experiment)
    config = tmp_path / "small.ini"
    config.write_text("[network]\nn_nodes = 20\nmax_rounds = 5\n")
    assert main(["--config", str(config), "--runs", "2", "--protocols", "amdiscnt,leach",
                 "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_one_seed_battery_validates_its_network_once_in_the_engine(monkeypatch, tmp_path):
    # place validates the shared field's config; the three runs on it do not again
    calls = count_validate_config(monkeypatch, engine)
    config = tmp_path / "small.ini"
    config.write_text("[network]\nn_nodes = 20\nmax_rounds = 5\n")
    assert main(["--config", str(config), "--runs", "1", "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_main_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[network]\nn_nodes = 3\n")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "n_nodes" in capsys.readouterr().err


def test_main_rejects_an_empty_region_before_any_file_is_touched(tmp_path, capsys):
    # validation rejects the config before any run; without it, two seeds would
    # place each run's field inside the stream emit_tables consumes, and only a
    # failure before the first table leaves the old directory as it was
    bad, small = tmp_path / "bad.ini", tmp_path / "small.ini"
    bad.write_text("[network]\nn_nodes = 9\ninner_fraction = 0.5\n")
    small.write_text("[network]\nn_nodes = 20\nmax_rounds = 5\n")
    out = tmp_path / "o"
    battery = ["--runs", "2", "--protocols", "amdiscnt", "--out", str(out), "--config"]
    assert main([*battery, str(bad)]) == 1
    assert "n_nodes = 9 with inner_fraction = 0.5 leaves a region empty" in (
        capsys.readouterr().err)
    assert not out.exists()
    assert main([*battery, str(small)]) == 0
    meta = (out / "meta").read_text()
    assert main([*battery, str(bad)]) == 1
    assert (out / "meta").read_text() == meta


def test_a_battery_loads_no_module_it_does_not_use(tmp_path):
    # pytest and Hypothesis load these here, so the battery runs in its own interpreter
    unused = ("csv", "decimal", "fractions", "numbers", "statistics")
    config = tmp_path / "small.ini"
    config.write_text("[network]\nn_nodes = 20\nmax_rounds = 20\n")
    argv = ["--runs", "1", "--config", str(config), "--out", str(tmp_path / "o")]
    script = ("import sys\nfrom amdiscnt.experiment import main\n"
              f"status = main({argv!r})\n"
              f"print(status, sorted(set({unused!r}) & set(sys.modules)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"


def test_main_rejects_duplicate_seeds(tmp_path, capsys):
    assert main(["--seeds", "1,1", "--out", str(tmp_path / "o")]) == 1
    assert "experiment.seeds" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_rejects_runs_that_reach_a_seed_and_its_negation(tmp_path, capsys):
    # seeds -2..2 hold -2 and 2, and -1 and 1
    assert main(["--runs", "5", "--base-seed", "-2", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "-2 and 2" in err
    assert not (tmp_path / "o").exists()


def test_main_rejects_unknown_protocol(tmp_path, capsys):
    assert main(["--protocols", "gossip", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "gossip" in err and "experiment.protocols" in err
    config = tmp_path / "p_opt.ini"
    for p_opt in ("1.5", "nan"):
        config.write_text(f"[experiment]\np_opt = {p_opt}\n")
        assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: p_opt must lie in (0, 1), got {p_opt}\n"
    assert not (tmp_path / "o").exists()


def test_main_reports_running_out_of_memory(monkeypatch, tmp_path, capsys):
    # a field too large for the baselines' neighbour orders fails this way
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(experiment, "run_simulation", exhausted)
    assert main(["--runs", "1", "--protocols", "leach", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: MemoryError\n"
    assert not (tmp_path / "o").exists()


def test_main_missing_config_file(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "nope.ini" in capsys.readouterr().err
