"""README's library quick start runs as written and gives the results its
comments state, and each command-line error example exits as it says, so
the docs cannot drift from the library."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from stochsub.cli import run

from conftest import CONFIG_DIR

README = Path(__file__).resolve().parents[1] / "README.md"

# "`[VAR=value ]argv` on `name.json` exits N with `error: ...`", or "on the
# config `{...}`" with the config's JSON text
ERROR_EXAMPLE = re.compile(r"`(?P<command>[^`]+)` on (?:the config )?`(?P<config>[^`]+)`"
                           r" exits (?P<code>\d) with `(?P<err>error: [^`]+)`")


def section(title: str) -> str:
    """The text of one `## ` section of README."""
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def quick_start() -> str:
    """The python block of README's "Library quick start" section."""
    return section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]


def command_line_text() -> str:
    """README's "Command line" section with every run of whitespace one space,
    so that a code span may break across lines."""
    return " ".join(section("Command line").split())


def test_library_quick_start():
    code = quick_start()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the lines whose comment states a result, in order
    kernel, rows, value, bb, residual = (eval(line.split("#")[0], namespace)
                                         for line in code.splitlines() if "#" in line)
    assert type(kernel) is Fraction and kernel == Fraction(1, 2)
    assert rows == ((1, 2), (1, 0))
    assert {type(x) for row in rows for x in row} == {Fraction}
    assert value == 2.0
    assert abs(bb - 1 / 21) <= 1e-12
    assert residual <= 1e-12


def test_every_error_example_parses():
    text = command_line_text()
    examples = len(list(ERROR_EXAMPLE.finditer(text)))
    assert examples == len(re.findall(r"exits \d with `error: ", text)) > 0


@pytest.mark.parametrize("example", [m.groupdict() for m in
                                     ERROR_EXAMPLE.finditer(command_line_text())],
                         ids=lambda e: f"{e['command']} on {e['config']}")
def test_command_line_error_example(capsys, monkeypatch, tmp_path, example):
    monkeypatch.delenv("STOCHSUB_GUARD_LIMIT", raising=False)
    argv = shlex.split(example["command"])
    while "=" in argv[0]:  # an environment assignment before the subcommand
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    config = example["config"]
    if config.endswith(".json"):
        path = CONFIG_DIR / config
    else:
        path = tmp_path / "config.json"
        path.write_text(config)
    code = run([*argv, "--config", str(path)])
    assert code == int(example["code"])
    assert capsys.readouterr().err == example["err"] + "\n"
