"""The README's Python API example runs as written."""

import ast
from pathlib import Path

import pytest

from beliefbounds.exact import bucket_eliminate_pe

from conftest import grid_network, network_text

README = Path(__file__).resolve().parents[1] / "README.md"


def _api_examples() -> list[str]:
    """The Python blocks of the API section, in order."""
    section = README.read_text().split("## Python API", 1)[1].split("\n## ", 1)[0]
    return [block.split("```", 1)[0] for block in section.split("```python\n")[1:]]


def _write_inputs(tmp_path, monkeypatch):
    (tmp_path / "grid.uai").write_text(network_text(grid_network(4, 5, 0)))
    (tmp_path / "grid.evid").write_text("2\n0 1\n19 0\n")
    monkeypatch.chdir(tmp_path)


def test_python_api_example_runs(tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path, monkeypatch)
    exec(compile(_api_examples()[0], str(README), "exec"), {})
    m_prime, evidence, row7, totals = capsys.readouterr().out.splitlines()
    lo, hi = ast.literal_eval(evidence)
    assert 0.0 <= lo <= hi <= 1.0
    assert len(ast.literal_eval(row7)) == 2
    assert int(m_prime) > 0  # h < M: the bounder closes the rest
    assert len(totals.split()) == 3


def test_batched_eliminate_example_runs(tmp_path, monkeypatch, capsys):
    # continues the first example's session
    _write_inputs(tmp_path, monkeypatch)
    first, batched = _api_examples()[:2]
    scope: dict = {}
    exec(compile(first, str(README), "exec"), scope)
    capsys.readouterr()
    exec(compile(batched, str(README), "exec"), scope)
    h = scope["active"].h
    assert capsys.readouterr().out.strip() == f"({h},) ({h}, 2)"


def test_eliminate_marginals_example_runs(tmp_path, monkeypatch, capsys):
    # continues the first example's session
    _write_inputs(tmp_path, monkeypatch)
    first, _, marginals = _api_examples()
    scope: dict = {}
    exec(compile(first, str(README), "exec"), scope)
    capsys.readouterr()
    exec(compile(marginals, str(README), "exec"), scope)
    pe, posterior = capsys.readouterr().out.strip().split(" ", 1)
    bn, e = scope["bn"], scope["e"]
    assert float(pe) == pytest.approx(bucket_eliminate_pe(bn, e), rel=1e-12)
    want = [bucket_eliminate_pe(bn, {**e, 7: x}) / float(pe) for x in range(bn.cards[7])]
    assert ast.literal_eval(posterior) == pytest.approx(want, rel=1e-12)
