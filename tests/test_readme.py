"""The library example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    delta1, delta2 = map(float, capsys.readouterr().out.split())
    assert 0.0 < delta2 < 1.0 and delta1 > 0.0
