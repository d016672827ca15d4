"""The README's library tour runs, each value it shows is the real one, its
size limits are the package's, and its command line is the parser's."""

import argparse
import re
import shlex
from pathlib import Path

from auctionkit.cli import build_parser
from auctionkit.valuations import LIMITS

from test_cli_golden import CASES

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> list[str]:
    """The lines of the first python block after the tour's heading."""
    text = README.read_text().split("## Library tour", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_tour_shows_each_value():
    namespace: dict = {}
    shown = 0
    for line in _tour():
        code, _, comment = line.partition("  #")
        if not code.strip() or code.lstrip().startswith("#"):
            continue
        if not comment:
            exec(code, namespace)
            continue
        assert repr(eval(code, namespace)) == comment.strip(), line
        shown += 1
    assert shown >= 10


def test_size_limits_section_lists_the_table():
    """Each row of the section's table names one entry of LIMITS and its
    value, and every entry has a row."""
    section = README.read_text().split("## Size limits", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| `")]
    listed = {entry.strip().strip("`"): int(limit.split()[0].replace(",", ""))
              for entry, limit in rows}
    assert len(listed) == len(rows)
    assert listed == LIMITS


def _command_line() -> tuple[str, list[str]]:
    """The prose of the "Command line" section and the lines of its sh
    block."""
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    prose, block = section.split("```sh\n", 1)
    return prose, block.split("```", 1)[0].splitlines()


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def test_command_line_names_the_subcommands_and_formats():
    prose, _ = _command_line()
    listed = prose.split(" exposes", 1)[1].split(".\n", 1)[0]
    assert re.findall(r"`([\w-]+)`", listed) == list(_subcommands())
    formats = re.search(r"`--format` takes (.*?)\.", prose, re.S).group(1)
    for sub in _subcommands().values():
        choices, = [action.choices for action in sub._actions
                    if action.dest == "format"]
        assert re.findall(r"`(\w+)`", formats) == choices


def test_command_line_examples_parse():
    _, lines = _command_line()
    examples = [shlex.split(line) for line in lines if line.strip()]
    for argv in examples:
        assert argv[0] == "auctionkit"
        assert build_parser().parse_args(argv[1:]).command == argv[1]
    assert {argv[1] for argv in examples} == set(_subcommands())


def test_every_subcommand_has_a_golden_case():
    assert set(_subcommands()) <= {argv[0] for argv in CASES.values()}
