"""README's library quick start runs as written and gives the results its
comments state, so the docs cannot drift from the library."""

from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block of README's "Library quick start" section."""
    section = README.read_text().split("## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
