"""The README's library example runs as written."""

import re
from pathlib import Path

from heatctrl import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name}: library example", "exec"), {})
    cost_line, bound_line, gaps_line = capsys.readouterr().out.splitlines()
    assert cost_line.endswith(" True")
    assert bound_line.startswith("contraction bound: ")
    assert gaps_line.startswith("[") and gaps_line.count(",") == 3


def test_config_example_holds_every_key_and_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("### Config format", 1)[1]
    text = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    documented = {(name, key) for name, entries in cli.parse_config_text(text).items()
                  for key in entries}
    assert documented == set(cli._KEYS)
    path = tmp_path / "readme.cfg"
    path.write_text(text, encoding="utf-8")
    config = cli.load_config(path)
    assert (config.nx, config.gamma1, config.alphas[-1]) == (16, ("left",), 1e4)
    assert config.z_d_spec == "bump:0.7,0.5,0.15,1.0"
