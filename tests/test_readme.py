"""The command-line examples in README.md print what the README shows.

Each example is a line "$ weightings <args>" followed by its output, up to
a blank line or the end of the code block.  The examples run in-process from
the repository root, where their fixture paths resolve.
"""

import shlex
from pathlib import Path

import pytest

from weightings.cli import main

ROOT = Path(__file__).resolve().parent.parent

# A rejected subbundle check prints its verdict and exits 1.
_EXIT_CODES = {"check-q --file fixtures/antisymmetric_relation.prob": 1}


def _examples() -> list[tuple[str, str]]:
    """(arguments, expected stdout) of each README example."""
    examples = []
    current = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ weightings "):
            current = [line.removeprefix("$ weightings "), ""]
            examples.append(current)
        elif current is not None and line.strip() and line != "```":
            current[1] += line + "\n"
        else:
            current = None
    return [tuple(example) for example in examples]


def test_readme_has_examples():
    assert len(_examples()) >= 5


@pytest.mark.parametrize("args, expected", _examples(),
                         ids=[args for args, _ in _examples()])
def test_readme_example(args, expected, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(shlex.split(args))
    assert (code, capsys.readouterr().out) == (_EXIT_CODES.get(args, 0),
                                               expected)
