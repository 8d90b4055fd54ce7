"""README.md's examples run as written: the CLI block and the library quick start."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from dqdcycle import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(section: str, language: str) -> str:
    """The first ```language block after the ``section`` heading."""
    start = README.index(f"\n{section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)
    assert match is not None, (section, language)
    return match.group(1)


def cli_examples() -> list[str]:
    """Each ``dqdcycle ...`` command of the CLI section, continuation lines joined."""
    text = fenced_block("## CLI", "sh").replace("\\\n", " ")
    return [" ".join(line.split()) for line in text.splitlines() if line.startswith("dqdcycle ")]


def test_the_cli_section_has_an_example_of_each_subcommand():
    commands = {shlex.split(line)[1] for line in cli_examples()}
    assert commands == {"spectrum", "cycle", "classify", "sweep", "verify"}


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_exits_zero(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(shlex.split(line)[1:]) == 0, line
    assert out.getvalue()


def test_library_quick_start_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(fenced_block("## Library quick start", "python"), {})
    assert len(out.getvalue().splitlines()) == 3  # the ledger line and rho2's two rows
