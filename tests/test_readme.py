"""The README's library example runs as written, and its option table
matches the command line's."""

import re
from pathlib import Path

from midnightq.cli import _COMMANDS, _OPTIONS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, "README.md ## Library", "exec"), {})


def flag(key):
    return "--" + key.replace("_", "-")


def test_option_table_matches_cli():
    # Each command's row of the "Command | Reads" table, with the flags the
    # sentence after it says every command accepts, is exactly the set of
    # flags cli._OPTIONS accepts for that command, plus --config.
    text = README.read_text()
    table = text.split("| Command | Reads |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    every = re.search(r"((?:`--[\w-]+`(?:, | and ))+`--[\w-]+`) are accepted by every", text)
    every = set(every.group(1).replace(" and ", ", ").replace("`", "").split(", "))
    listed = {}
    for row in table.splitlines():
        commands, reads = row.strip("|").split("|")
        for command in re.findall(r"`([\w-]+)`", commands):
            assert command not in listed
            listed[command] = set(reads.strip(" `").split())
    assert set(listed) == set(_COMMANDS)
    for command, reads in listed.items():
        accepted = {flag(key) for key, (*_, commands) in _OPTIONS.items() if command in commands}
        assert not reads & every, command
        assert reads | every == accepted | {"--config"}, command
