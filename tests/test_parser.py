"""The table-built CLI parser against the seven hand-written ``add_parser``
blocks it replaced (tests/oracles.py): the same help text, the same
namespaces on the README's CLI lines and the same usage errors.  Comparing
two parsers, not fixed text, holds on every Python's argparse."""

import argparse

import pytest

from halinkit.cli import build_parser

from oracles import build_parser_by_blocks
from test_readme import cli_examples

USAGE_ERRORS = [
    ["greedy", "--family", "cycle", "--n", "6"],  # no --base
    ["limit-sim", "--family", "comb", "--depth", "6"],  # no --k
    ["aut", "--family", "nosuch"],
    ["nosuch"],
]


@pytest.fixture(scope="module")
def parsers():
    return build_parser(), build_parser_by_blocks()


def subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_help_matches_blocks(parsers):
    table, blocks = parsers
    assert table.format_help() == blocks.format_help()
    assert list(subparsers(table)) == list(subparsers(blocks))
    for name, p in subparsers(table).items():
        assert p.format_help() == subparsers(blocks)[name].format_help()


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_readme_lines_parse_alike(parsers, argv):
    table, blocks = parsers
    assert table.parse_args(argv) == blocks.parse_args(argv)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_alike(parsers, capsys, argv):
    outcomes = []
    for parser in parsers:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        outcomes.append((exc.value.code, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 2 and outcomes[0][1].startswith("usage: halinkit")
