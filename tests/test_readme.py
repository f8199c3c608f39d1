"""The README's Python examples run as written: each ```python block is executed in a
fresh namespace, so a renamed function or a changed signature fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS, f"no ```python block in {README.name}"


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    code = compile(BLOCKS[index], f"{README.name}[python block {index}]", "exec")
    exec(code, {"__name__": "__readme__"})
