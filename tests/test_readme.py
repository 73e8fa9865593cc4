"""The README's command lines and library example run as written, its
option table matches the command line's, and its node count matches the
projection's."""

import re
import shlex
from pathlib import Path

import pytest

from midnightq import projection
from midnightq.cli import _COMMANDS, _OPTIONS, main

README = Path(__file__).resolve().parents[1] / "README.md"


def command_lines():
    """Each ``midnightq ...`` line of the "Command line" section, as argv."""
    section = README.read_text().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```\n(.*?)```", section, flags=re.S)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("midnightq ")]


@pytest.mark.parametrize("argv", command_lines(), ids=lambda argv: argv[0])
def test_command_line_example_runs(argv, tmp_path, capsys):
    # Each --out goes into tmp_path; without one the output is stdout.
    argv = list(argv)
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0, argv
    stdout = capsys.readouterr().out
    output = Path(argv[at]).read_text() if "--out" in argv else stdout
    assert output.strip(), argv


def test_command_lines_show_every_command():
    assert sorted(argv[0] for argv in command_lines()) == sorted(_COMMANDS)


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


def test_node_count_matches_projection():
    # Each "q = a m + b" of the README, the memory table's row among them, is
    # the node count the Gram assembly makes: _ORDER nodes on each of m
    # elements and on 2 _REACH_SD tail panels.
    text = README.read_text()
    row = re.search(r"^\| `projection`.*$", text, flags=re.M).group(0)
    assert re.search(r"q = \d+ m \+ \d+ quadrature nodes", row)
    counts = re.findall(r"q = (\d+) m \+ (\d+)", text)
    assert len(counts) == 2
    for a, b in counts:
        assert (int(a), int(b)) == (projection._ORDER, 2 * projection._REACH_SD * projection._ORDER)
