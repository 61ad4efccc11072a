"""The README's Python API example runs as written."""

import ast
from pathlib import Path

from conftest import grid_network, network_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_example() -> str:
    section = README.read_text().split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "grid.uai").write_text(network_text(grid_network(4, 5, 0)))
    (tmp_path / "grid.evid").write_text("2\n0 1\n19 0\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(_api_example(), str(README), "exec"), {})
    m_prime, evidence, row7, totals = capsys.readouterr().out.splitlines()
    lo, hi = ast.literal_eval(evidence)
    assert 0.0 <= lo <= hi <= 1.0
    assert len(ast.literal_eval(row7)) == 2
    assert int(m_prime) > 0  # h < M: the bounder closes the rest
    assert len(totals.split()) == 3
