"""The README against the code: its configuration block against the key
table, and its library examples, which must run."""

import re
from pathlib import Path

from amdiscnt.experiment import DEFAULTS, build_spec, read_settings

README = Path(__file__).resolve().parent.parent / "README.md"


def _ini_block() -> str:
    return README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]


def test_readme_defaults_equal_code_defaults():
    assert build_spec(read_settings(_ini_block())) == build_spec({})


def test_readme_lists_every_key():
    keys, section = set(), None
    for line in _ini_block().splitlines():
        header = re.fullmatch(r"\[(\w+)\]", line.strip())
        if header:
            section = header[1]
            continue
        entry = re.match(r";?\s*(\w+)\s*=", line)  # counts the commented-out `; seeds = ...`
        if entry:
            keys.add(f"{section}.{entry[1]}")
    assert keys == set(DEFAULTS)


def test_readme_python_blocks_run(capsys):
    blocks = [block.split("```", 1)[0]
              for block in README.read_text(encoding="utf-8").split("```python\n")[1:]]
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out  # the first block prints its run
