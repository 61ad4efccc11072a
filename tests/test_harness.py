"""Metrics, canonical serialization, report files, pipeline, and CLI."""

import csv
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beliefbounds
from beliefbounds.cli import main as cli_main
from beliefbounds.engine import BoundsReport, run_engine
from beliefbounds.exact import ZeroEvidenceError, enumerate_oracle
from beliefbounds.harness import (
    ExperimentConfig,
    MetricsSummary,
    coverage_pct,
    csv_rows,
    dumps_canonical,
    mean_interval,
    midpoint_error,
    run_experiment,
    summarize,
    write_csv,
)
from beliefbounds.model import parse_network

from conftest import grid_network, network_text, random_network, reference_render

_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(),
    st.text(max_size=5),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        # int keys are sorted as strings, next to str keys
        st.dictionaries(st.integers(-20, 20) | st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=20,
)

DIAMOND_SRC = """BAYES
4
2 2 2 2
4
1 0
2 0 1
2 0 2
3 1 2 3

2
 0.65 0.35
4
 0.8 0.2 0.3 0.7
4
 0.45 0.55 0.9 0.1
8
 0.7 0.3 0.25 0.75 0.5 0.5 0.05 0.95
"""


def _report(marginals, s=0.5, r=0.1):
    return BoundsReport(
        method="bf",
        h=1,
        m=2,
        m_prime=1,
        s=s,
        r=r,
        i_h=r / (s + r),
        evidence=(s, s + r),
        marginals=marginals,
        bc_marginals=marginals,
        bc_evidence=(s, s + r),
        clamp_events=0,
        degenerate=(),
        invocations=1,
        timings={},
    )


@pytest.fixture()
def diamond_file(tmp_path):
    path = tmp_path / "diamond.uai"
    path.write_text(DIAMOND_SRC)
    return str(path)


@pytest.fixture()
def evidence_file(tmp_path):
    path = tmp_path / "diamond.evid"
    path.write_text("1\n3 1\n")
    return str(path)


class TestMetrics:
    def test_mean_interval_arithmetic(self):
        rep = _report({0: ((0.2, 0.6),), 1: ((0.4, 0.8),)})
        assert mean_interval(rep) == pytest.approx(0.4)
        with pytest.raises(ValueError, match="no marginal"):
            mean_interval(_report({}))

    def test_midpoint_error_arithmetic(self):
        rep = _report({0: ((0.2, 0.6), (0.4, 0.8))})
        exact = {0: np.array([0.5, 0.5])}
        # midpoints 0.4 and 0.6, both off by 0.1
        assert midpoint_error(rep, exact) == pytest.approx(0.1)
        with pytest.raises(ValueError, match="missing exact"):
            midpoint_error(rep, {})

    def test_midpoint_error_bounded_by_half_width_when_sound(self):
        bn = parse_network(DIAMOND_SRC)
        e = {3: 1}
        pe, post = enumerate_oracle(bn, e)
        for h in (0, 1, 2):
            rep = run_engine(bn, e, h=h)
            err = midpoint_error(rep, post)
            assert err <= mean_interval(rep) / 2.0 + 1e-12

    def test_coverage_percentages(self):
        assert coverage_pct(types.SimpleNamespace(s=0.0), 0.25) == 0.0
        assert coverage_pct(types.SimpleNamespace(s=0.25), 0.25) == 100.0
        assert coverage_pct(types.SimpleNamespace(s=0.1), 0.25) == pytest.approx(40.0)
        # tiny numeric overshoot stays clamped
        assert coverage_pct(types.SimpleNamespace(s=0.25 + 1e-12), 0.25) == 100.0
        with pytest.raises(ZeroEvidenceError):
            coverage_pct(types.SimpleNamespace(s=0.1), 0.0)

    def test_coverage_monotone_in_h(self):
        bn = parse_network(DIAMOND_SRC)
        e = {3: 1}
        pe, _ = enumerate_oracle(bn, e)
        covs = [coverage_pct(run_engine(bn, e, h=h), pe) for h in (0, 1, 2)]
        assert covs[0] == 0.0
        assert covs == sorted(covs)
        assert covs[-1] == pytest.approx(100.0, abs=1e-6)

    def test_summarize_bundles_everything(self):
        bn = parse_network(DIAMOND_SRC)
        e = {3: 1}
        pe, post = enumerate_oracle(bn, e)
        rep = run_engine(bn, e, h=1)
        m = summarize(rep, post, pe)
        assert isinstance(m, MetricsSummary)
        assert m.h == 1 and m.m_prime == rep.m_prime
        assert m.mean_interval == mean_interval(rep)
        assert m.midpoint_error == midpoint_error(rep, post)
        assert m.coverage_pct == coverage_pct(rep, pe)
        none = summarize(rep)
        assert none.midpoint_error is None and none.coverage_pct is None


class TestCanonicalJson:
    def test_key_order_is_canonical(self):
        a = {"b": 1, "a": [1.5, {"z": True, "y": None}]}
        b = {"a": [1.5, {"y": None, "z": True}], "b": 1}
        assert dumps_canonical(a) == dumps_canonical(b)

    def test_layout_golden(self):
        assert dumps_canonical({"x": [1, 2]}) == '{\n  "x": [\n    1,\n    2\n  ]\n}\n'
        assert dumps_canonical({}) == "{}\n"

    def test_floats_roundtrip_exactly(self):
        values = [0.1, 1 / 3, 2**-52, 5e-324, 1e308, 0.30000000000000004]
        text = dumps_canonical(values)
        assert json.loads(text) == values

    def test_numpy_scalars_and_unknown_types(self):
        assert dumps_canonical(np.float64(0.5)) == "0.5\n"
        assert dumps_canonical(np.int64(3)) == "3\n"
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_canonical(object())

    @settings(max_examples=300, deadline=None)
    @given(value=_json_values)
    def test_same_text_as_the_concatenating_renderer(self, value):
        try:
            want = reference_render(value) + "\n"
        except TypeError:  # keys 1 and "1" collide and their values do not order
            with pytest.raises(TypeError):
                dumps_canonical(value)
            return
        assert dumps_canonical(value) == want

    def test_is_valid_json(self):
        bn = parse_network(DIAMOND_SRC)
        rep = run_engine(bn, {3: 1}, h=1)
        from beliefbounds.harness import report_payload

        payload = report_payload(rep, {"any": "config"})
        parsed = json.loads(dumps_canonical(payload))
        assert parsed["evidence"] == list(rep.evidence)


class TestCsv:
    def test_rows_roundtrip_bit_exact(self, tmp_path):
        bn = parse_network(DIAMOND_SRC)
        e = {3: 1}
        pe, post = enumerate_oracle(bn, e)
        rep = run_engine(bn, e, h=1)
        path = tmp_path / "out.csv"
        write_csv(path, rep, post)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "variable", "value", "lower", "upper", "width", "exact", "method",
        ]
        body = rows[1:]
        n_main = sum(1 for r in body if r[6] == rep.method)
        n_bc = sum(1 for r in body if r[6] == "bc")
        assert n_main == n_bc == sum(len(t) for t in rep.marginals.values())
        for r in body:
            var, val = int(r[0]), int(r[1])
            table = rep.marginals if r[6] == rep.method else rep.bc_marginals
            lo, hi = table[var][val]
            assert float(r[2]) == lo and float(r[3]) == hi
            assert float(r[4]) == hi - lo
            assert float(r[5]) == pytest.approx(float(post[var][val]), abs=0)

    def test_exact_column_absent_without_reference(self):
        bn = parse_network(DIAMOND_SRC)
        rep = run_engine(bn, {3: 1}, h=1)
        for row in csv_rows(rep, None):
            assert row[5] == ""


class TestRunExperiment:
    def test_saturated_run_is_exact(self, diamond_file, evidence_file):
        cfg = ExperimentConfig(
            network=diamond_file, evidence=evidence_file, h=2, plugin="bf"
        )
        payload = run_experiment(cfg)
        (run,) = payload["runs"]
        assert run["m_prime"] == 0 and run["r"] == 0.0
        assert payload["summary"][0]["coverage_pct"] == pytest.approx(100.0)
        for rows in run["marginals"].values():
            for lo, hi in rows:
                assert hi - lo <= 1e-9
        assert run["exact_pe"] == pytest.approx(run["evidence"][0], abs=1e-12)

    def test_sweep_summary_is_monotone(self, diamond_file, evidence_file):
        cfg = ExperimentConfig(
            network=diamond_file, evidence=evidence_file, sweep_h=(0, 1, 2)
        )
        payload = run_experiment(cfg)
        ihs = [row["i_h"] for row in payload["summary"]]
        assert ihs == sorted(ihs, reverse=True)
        widths = [row["mean_interval"] for row in payload["summary"]]
        assert all(b <= a + 1e-12 for a, b in zip(widths, widths[1:]))

    def test_chain_plugin_no_looser_than_prior_plugin(self, diamond_file, evidence_file):
        def widths(plugin):
            cfg = ExperimentConfig(
                network=diamond_file, evidence=evidence_file, h=1, plugin=plugin,
                k=64, iters=2,
            )
            (run,) = run_experiment(cfg)["runs"]
            return {
                var: rows for var, rows in run["marginals"].items()
            }, tuple(run["evidence"])

        bf_m, bf_e = widths("bf")
        ab_m, ab_e = widths("abdp")
        assert bf_e[0] - 1e-15 <= ab_e[0] and ab_e[1] <= bf_e[1] + 1e-15
        for var in bf_m:
            for (bl, bh), (al, ah) in zip(bf_m[var], ab_m[var]):
                assert al >= bl - 1e-15 and ah <= bh + 1e-15

    def test_json_and_csv_outputs(self, diamond_file, evidence_file, tmp_path):
        out_json = tmp_path / "report.json"
        out_csv = tmp_path / "report.csv"
        cfg = ExperimentConfig(
            network=diamond_file,
            evidence=evidence_file,
            sweep_h=(1, 2),
            out_json=str(out_json),
            out_csv=str(out_csv),
        )
        payload = run_experiment(cfg)
        on_disk = json.loads(out_json.read_text())
        on_disk.pop("timings")
        trimmed = json.loads(dumps_canonical(payload))
        trimmed.pop("timings")
        assert on_disk == trimmed
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        # CSV carries the last h of the sweep
        last = payload["runs"][-1]
        assert float(rows[1][2]) == last["marginals"][rows[1][0]][0][0]

    def test_reruns_are_byte_identical(self, diamond_file, evidence_file):
        cfg = dict(
            network=diamond_file, evidence=evidence_file, sweep_h=(0, 1, 2),
            plugin="abdp", k=64, iters=2,
        )
        texts = []
        for _ in range(3):
            payload = run_experiment(ExperimentConfig(**cfg))
            payload.pop("timings")
            texts.append(dumps_canonical(payload))
        assert texts[0] == texts[1] == texts[2]

    def test_failures_leave_no_files(self, diamond_file, tmp_path):
        out_json = tmp_path / "x.json"
        out_csv = tmp_path / "x.csv"
        cfg = ExperimentConfig(
            network=diamond_file,
            h=99,  # exceeds M
            out_json=str(out_json),
            out_csv=str(out_csv),
        )
        with pytest.raises(ValueError, match="exceeds"):
            run_experiment(cfg)
        assert not out_json.exists() and not out_csv.exists()

    def test_config_validation(self, diamond_file):
        with pytest.raises(ValueError, match="required"):
            run_experiment(ExperimentConfig(network=diamond_file))
        with pytest.raises(ValueError, match="invalid h"):
            run_experiment(ExperimentConfig(network=diamond_file, h=-1))
        with pytest.raises(ValueError, match="cutset kind"):
            run_experiment(
                ExperimentConfig(network=diamond_file, h=1, cutset="maximal")
            )
        with pytest.raises(ValueError, match="oracle mode"):
            run_experiment(
                ExperimentConfig(network=diamond_file, h=1, oracle="always")
            )
        knobs = (("k", -1), ("iters", 0), ("iters", -3), ("sweeps", -1), ("w", 0))
        for knob, value in knobs:
            with pytest.raises(ValueError, match=f"{knob} must be at least"):
                run_experiment(ExperimentConfig(network=diamond_file, h=1, **{knob: value}))
        (run,) = run_experiment(ExperimentConfig(network=diamond_file, h=1, sweeps=0))["runs"]
        assert run["h"] == 1

    def test_oracle_modes(self, tmp_path, diamond_file):
        # "off" never computes references; "auto" degrades quietly on
        # impossible evidence; "on" insists and re-raises.
        cfg_off = ExperimentConfig(network=diamond_file, h=1, oracle="off")
        (run,) = run_experiment(cfg_off)["runs"]
        assert "exact_pe" not in run

        impossible = tmp_path / "dead.uai"
        impossible.write_text(
            "BAYES\n2\n2 2\n2\n1 0\n2 0 1\n\n2\n 1 0\n4\n 0.5 0.5 0.5 0.5\n"
        )
        evid = tmp_path / "dead.evid"
        evid.write_text("1\n0 1\n")
        auto = ExperimentConfig(
            network=str(impossible), evidence=str(evid), h=1, oracle="auto"
        )
        (run,) = run_experiment(auto)["runs"]
        assert "exact_pe" not in run
        strict = ExperimentConfig(
            network=str(impossible), evidence=str(evid), h=1, oracle="on"
        )
        with pytest.raises(ZeroEvidenceError):
            run_experiment(strict)

    def test_random_networks_roundtrip_through_files(self, rng, tmp_path):
        bn = random_network(rng, n=6)
        path = tmp_path / "rand.uai"
        path.write_text(network_text(bn))
        cfg = ExperimentConfig(network=str(path), h=0)
        payload = run_experiment(cfg)
        lo, hi = payload["runs"][0]["evidence"]
        assert lo - 1e-12 <= 1.0 <= hi + 1e-12  # empty evidence: P(e) = 1


class TestCli:
    def test_bounds_subcommand(self, diamond_file, evidence_file, capsys):
        rc = cli_main(
            ["bounds", "--network", diamond_file, "--evidence", evidence_file, "--h", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "method=bf" in out and "P(e) in [" in out
        assert "var 0:" in out

    def test_pe_subcommand(self, diamond_file, evidence_file, capsys):
        rc = cli_main(
            ["pe", "--network", diamond_file, "--evidence", evidence_file, "--h", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("P(e) in [")
        assert "exact P(e) = " in out

    def test_compare_subcommand(self, diamond_file, evidence_file, capsys):
        rc = cli_main(
            [
                "compare", "--network", diamond_file, "--evidence", evidence_file,
                "--sweep-h", "0,1,2", "--plugin", "abdp", "--k", "64",
            ]
        )
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].lstrip().startswith("h")
        assert len(out) == 4

    def test_error_reporting(self, diamond_file, capsys):
        rc = cli_main(["bounds", "--network", diamond_file])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:")

    def test_trailing_evidence_token_rejected(self, diamond_file, tmp_path, capsys):
        evid = tmp_path / "extra.evid"
        evid.write_text("1\n3 1\n0 0\n")
        rc = cli_main(["bounds", "--network", diamond_file, "--evidence", str(evid), "--h", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: line 3: unexpected token '0'")
        assert len(captured.err.splitlines()) == 1

    def test_non_finite_cpt_entry_rejected(self, tmp_path, capsys):
        net = tmp_path / "nan.uai"
        net.write_text(DIAMOND_SRC.replace("0.65 0.35", "nan nan"))
        rc = cli_main(["bounds", "--network", str(net), "--h", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: CPT for variable 0: entries not finite\n"

    def test_negative_evidence_count_rejected(self, diamond_file, tmp_path, capsys):
        evid = tmp_path / "negative.evid"
        evid.write_text("-1\n")
        rc = cli_main(["pe", "--network", diamond_file, "--evidence", str(evid), "--h", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: evidence pair count -1 < 0\n"

    def test_w_below_one_rejected_whatever_the_cutset_kind(self, diamond_file, capsys):
        for kind in ("loop", "w"):
            rc = cli_main(
                ["pe", "--network", diamond_file, "--h", "1", "--cutset", kind, "--w", "0"]
            )
            captured = capsys.readouterr()
            assert rc == 2
            assert captured.out == ""
            assert captured.err == "error: w must be at least 1, got 0\n"

    def test_h_and_sweep_h_together_rejected(self, diamond_file, capsys):
        rc = cli_main(
            ["bounds", "--network", diamond_file, "--h", "1", "--sweep-h", "2"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1

    def test_runtime_needs_no_scipy(self, tmp_path):
        net = tmp_path / "grid.uai"
        net.write_text(network_text(grid_network(3, 3, 0)))
        evid = tmp_path / "grid.evid"
        evid.write_text("2\n4 1\n8 0\n")
        src = str(Path(beliefbounds.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # importing scipy (or any submodule) fails once its entry is None
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from beliefbounds.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        for plugin in ("bf", "abdp"):
            proc = subprocess.run(
                [
                    sys.executable, "-c", code, "compare",
                    "--network", str(net), "--evidence", str(evid),
                    "--sweep-h", "0,1,2", "--plugin", plugin, "--oracle", "on",
                ],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert len(proc.stdout.splitlines()) == 4

    def test_file_outputs(self, diamond_file, tmp_path, capsys):
        out_json = tmp_path / "cli.json"
        out_csv = tmp_path / "cli.csv"
        rc = cli_main(
            [
                "pe", "--network", diamond_file, "--h", "1",
                "--out-json", str(out_json), "--out-csv", str(out_csv),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        assert json.loads(out_json.read_text())["runs"]
        assert out_csv.read_text().startswith("variable,value,")
