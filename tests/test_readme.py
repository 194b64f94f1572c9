"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name}: library example", "exec"), {})
    cost_line, bound_line, gaps_line = capsys.readouterr().out.splitlines()
    assert cost_line.endswith(" True")
    assert bound_line.startswith("contraction bound: ")
    assert gaps_line.startswith("[") and gaps_line.count(",") == 3
