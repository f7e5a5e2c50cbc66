"""Every `$ primegaps ...` example in README.md prints what the README shows.

Each ```sh block runs in order in a fresh directory, so an example may
read a file an earlier one in its block wrote.  The lines after a
command, up to the next command or blank line, are its expected output;
a trailing `| head -N` keeps the first N printed lines.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from primegaps.cli import main

README = Path(__file__).parents[1] / "README.md"
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```$", re.M | re.S)


def _examples(block: str) -> list[tuple[str, list[str]]]:
    """(command, expected lines) for each `$ primegaps` line of a block."""
    examples = []
    for line in block.splitlines():
        if line.startswith("$ "):
            examples.append((line[2:], []))
        elif line and examples:
            examples[-1][1].append(line)
    return [(cmd, want) for cmd, want in examples if cmd.startswith("primegaps ")]


BLOCKS = [
    examples
    for examples in map(_examples, _SH_BLOCK.findall(README.read_text(encoding="utf-8")))
    if examples
]


def test_readme_has_examples():
    assert sum(len(block) for block in BLOCKS) >= 9


@pytest.mark.parametrize(
    "block", BLOCKS, ids=lambda block: "+".join(cmd.split()[1] for cmd, _ in block)
)
def test_readme_example_output(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for command, want in block:
        argv = shlex.split(command)[1:]
        head = None
        if "|" in argv:
            pipe = argv.index("|")
            assert argv[pipe + 1 : pipe + 2] == ["head"], command
            head = int(argv[pipe + 2].lstrip("-n"))
            argv = argv[:pipe]
        assert main(argv) == 0, command
        got = capsys.readouterr().out.splitlines()
        assert got[:head] == want, command
