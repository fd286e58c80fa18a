"""README's shell examples run: each `$ supercong ...` line of a sh block
prints the lines shown after it, up to a `...` line; one that shows no
output exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from supercong.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, lines shown after it) for every `$ supercong` line."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ supercong "):
                first, *shown = chunk.splitlines()
                examples.append((first[2:], shown))
    return examples


EXAMPLES = _examples()


def test_readme_shows_every_subcommand():
    shown = {shlex.split(line, comments=True)[1] for line, _ in EXAMPLES}
    assert shown == {"verify", "eval", "represent", "identities", "list"}


@pytest.mark.parametrize("line, shown", EXAMPLES, ids=[line for line, _ in EXAMPLES])
def test_readme_example_prints_what_it_shows(capsys, line, shown):
    code = main(shlex.split(line, comments=True)[1:])
    captured = capsys.readouterr()
    printed = (captured.out + captured.err).splitlines()
    if not shown:
        assert code == 0, captured.err
    elif "..." in shown:
        cut = shown.index("...")
        assert printed[:cut] == shown[:cut]
    else:
        assert printed == shown
