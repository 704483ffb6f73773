"""The README's library example runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(markdown: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", markdown, re.M | re.S)


def test_readme_python_example_runs(monkeypatch, capsys):
    blocks = python_blocks((ROOT / "README.md").read_text())
    assert blocks, "README.md has no python example"
    monkeypatch.chdir(ROOT)  # the example opens programs/fib.mim
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert "[(10000, 0), (30000, 1)" in capsys.readouterr().out
