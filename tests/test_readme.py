"""The README's CLI examples run as written and exit 0, and its Python
example runs as a doctest."""

import doctest
import os
import re
import shlex

import pytest

from halinkit.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")


def cli_examples():
    """Each ``halinkit ...`` command of the README's ``sh`` blocks, with
    backslash continuations joined and trailing comments dropped."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["halinkit"]:
                commands.append(argv[1:])
    return commands


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 7


@pytest.mark.parametrize("argv", cli_examples(), ids=lambda a: " ".join(a))
def test_readme_cli_example_exits_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("{") and f'"command":"{argv[0]}"' in out


def test_readme_python_example_runs_as_a_doctest():
    """The example imports through the package's lazy exports."""
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    runner, report = doctest.DocTestRunner(), []
    for i, block in enumerate(blocks):
        runner.run(doctest.DocTestParser().get_doctest(
            block, {}, f"README.md python block {i}", README, 0),
            out=report.append)
    assert runner.failures == 0, "".join(report)
    assert runner.tries >= 4
