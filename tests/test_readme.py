"""The README's examples, run as written.

Each `$ twkit ...` line of a shell block runs through twkit.cli.main,
pipes included, and its output must be the lines the README prints
under it.  Where those lines hold a `...`, the lines before it must
open the output and the lines after it must follow in order.  The
Library block is executed.
"""

import io
import pathlib
import shlex
import sys

import pytest

from twkit.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    """The bodies of the README's fenced blocks in language lang."""
    parts = README.read_text(encoding="utf-8").split("```")
    return [p[len(lang) + 1:] for p in parts[1::2] if p.startswith(lang + "\n")]


def shell_examples():
    """[(command text, expected lines)] with shell variables
    substituted; an assignment like doc='...' sets one and is no
    example of its own."""
    examples = []
    variables = {}
    for block in _blocks("sh"):
        lines = block.splitlines()
        n = 0
        while n < len(lines):
            if not lines[n].startswith("$ "):
                n += 1
                continue
            command = lines[n][2:]
            n += 1
            while True:
                try:
                    words = shlex.split(command)
                    break
                except ValueError:  # a quote still open: the command goes on
                    command += "\n" + lines[n]
                    n += 1
            expected = []
            while n < len(lines) and lines[n] and not lines[n].startswith("$ "):
                expected.append(lines[n])
                n += 1
            if len(words) == 1 and "=" in words[0]:
                name, value = words[0].split("=", 1)
                variables[name] = value
                continue
            for name, value in variables.items():
                command = command.replace('"$%s"' % name, shlex.quote(value))
            examples.append((command, expected))
    return examples


EXAMPLES = shell_examples()


def test_every_example_is_found():
    assert [command.split()[1] for command, _ in EXAMPLES] == ["decompose", "pages", "twobraid", "link", "verify"]


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c.split()[1] for c, _ in EXAMPLES])
def test_shell_example(capsys, monkeypatch, command, expected):
    stdin = ""
    for stage in command.split(" | "):
        argv = shlex.split(stage)
        assert argv[0] == "twkit"
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(argv[1:])
        stdin, err = capsys.readouterr()
        assert (code, err) == (0, ""), stage
    got = stdin.splitlines()
    if "..." not in expected:
        assert got == expected
        return
    # the lines before "..." open the output; those after it follow, in order
    cut = expected.index("...")
    head, tail = expected[:cut], expected[cut + 1:]
    assert head and got[:cut] == head
    rest = iter(got[cut:])
    assert all(line in rest for line in tail), tail


def test_library_block(capsys):
    (block,) = _blocks("python")
    exec(compile(block, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
