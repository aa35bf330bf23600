"""The README's CLI examples: each `zipk0 ...` line of the shell block under
"## CLI" runs through cli.main, with the outcome that the README states."""

from __future__ import annotations

import json
import pathlib
import shlex

import pytest

from zipk0.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# The examples whose outcome the README states: the exit code, the words of
# the example's comment that state it, and values the JSON report must hold.
# Every other example exits 0.
STATED = {
    "zipk0 validate --group PGL2": (3, "fundamental group has torsion Z/2", {}),
    "zipk0 k0 --group SL2 --mu 1 --p 3": (0, "free of rank 6", {"rank": 6, "torsion": []}),
    "zipk0 k0 --group Gm --p 5": (
        0,
        "the variables are y1 = e^{-1} and y2 = e^{1}, the basis y1*y2 - 1, y1^2 - y2^2, "
        "y2^3 - y1, and the module free of rank 4",
        {"rank": 4, "torsion": [], "generator_weights": [[-1], [1]],
         "basis": ["y1*y2 - 1", "y1^2 - y2^2", "y2^3 - y1"]},
    ),
}


def cli_examples() -> dict[str, str]:
    """{command line: its comment} for each `zipk0` line of the first shell
    block after "## CLI".  A command's comment is its own trailing one, after
    the comment lines above it up to the last blank line."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, comment = {}, []
    for line in block.splitlines():
        if not line.strip():
            comment = []
        elif line.startswith("#"):
            comment.append(line.lstrip("#"))
        else:
            command, _, trailing = line.partition("#")
            examples[" ".join(command.split())] = " ".join(" ".join(comment + [trailing]).split())
    return examples


EXAMPLES = cli_examples()


def test_every_stated_outcome_is_an_example():
    assert set(STATED) <= set(EXAMPLES)
    assert all(command.startswith("zipk0 ") for command in EXAMPLES)


@pytest.mark.parametrize("command", list(EXAMPLES))
def test_readme_cli_example(capsys, command):
    code, words, values = STATED.get(command, (0, "", {}))
    assert words in EXAMPLES[command]
    assert main(shlex.split(command)[1:]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == "" and words in err
        return
    assert err == ""
    if values:
        report = json.loads(out)
        got = {**report["module"], **report["groebner"], **report["presentation"]}
        assert {key: got[key] for key in values} == values
