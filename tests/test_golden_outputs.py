"""Pinned digests of the five files the command line writes.

The battery is small but takes every emission path that matters: two
seeds whose nodes all die inside the horizon (so runs of different
lengths are padded, and every band's ``lo`` and ``hi`` differ), lossy
links and ``distance`` delay. The digests were recorded before the
tables were written as a stream, so any rewrite of aggregation or
emission must reproduce these bytes exactly.
"""

import hashlib

from amdiscnt.experiment import main

CONFIG = """\
[network]
n_nodes = 30
max_rounds = 300
link_drop_probability = 0.2

[energy]
mode = two_level
e0 = 0.03
m = 0.2
alpha = 1.0

[delay]
mode = distance
speed = 3.0
per_hop = 0.25

[experiment]
seeds = 3,4
"""

DIGESTS = {
    "amdiscnt.csv": "027b39819c2eb4cd3dbc2e2740aec28a5d3ad68dc1ebba184108cda7e292c45f",
    "leach.csv": "19e1bc812c5d86e3eaa6d5d557206f9533ba894c53e13a495c9f4d4a27df75c2",
    "deec.csv": "2ac2eb60d6586660ca4c50f15c07d998001e90839994c7e2c2780516833bac4c",
    "summary.csv": "09c3c803791c586bd4b837cce3bcda0c6788354f857f71669b07d19ccb702c9e",
    "meta": "edc532f109bb7af7c2d4d7721dc679a107ef29897ae317acf20605b4c5b1c11a",
}


def test_cli_battery_writes_pinned_bytes(tmp_path, capsys):
    config = tmp_path / "battery.ini"
    config.write_text(CONFIG)
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in DIGESTS]
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
    assert digests == DIGESTS
