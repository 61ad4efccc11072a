"""Experiment harness: summary metrics, deterministic report files, pipelines.

JSON output is rendered by a canonical serializer (sorted keys, floats with 17
significant digits) so identical configurations produce byte-identical
payloads; wall-clock measurements live in one top-level "timings" subtree that
consumers strip before comparing. CSV rows carry the same 17-digit decimals,
which round-trip to the exact binary doubles.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .engine import BoundsReport, compute_report, prepare_inputs, select_and_bound
from .exact import ScopeCapError, ZeroEvidenceError, bucket_eliminate_marginals
from .model import parse_evidence, parse_network


@dataclass
class MetricsSummary:
    """Aggregates of one report: mean width, midpoint error, covered mass."""

    mean_interval: float
    midpoint_error: float | None
    coverage_pct: float | None
    h: int
    m_prime: int


def mean_interval(report: BoundsReport) -> float:
    """Mean U - L over every (variable, value) marginal interval."""
    widths = [u - l for rows in report.marginals.values() for (l, u) in rows]
    if not widths:
        raise ValueError("report has no marginal intervals")
    return math.fsum(widths) / len(widths)


def midpoint_error(report: BoundsReport, exact: dict) -> float:
    """Mean |P(x|e) - (U+L)/2| against exact posterior tables."""
    errs = []
    for var, rows in report.marginals.items():
        if var not in exact:
            raise ValueError(f"missing exact reference for variable {var}")
        table = exact[var]
        for value, (l, u) in enumerate(rows):
            errs.append(abs(float(table[value]) - (l + u) / 2.0))
    if not errs:
        raise ValueError("report has no marginal intervals")
    return math.fsum(errs) / len(errs)


def coverage_pct(report: BoundsReport, exact_pe: float) -> float:
    """Share of P(e) mass covered exactly by the active tuples, in percent."""
    if exact_pe <= 0.0:
        raise ZeroEvidenceError("P(e) = 0; coverage undefined")
    s = float(report.s)
    return min(100.0, max(0.0, 100.0 * s / exact_pe))


def summarize(
    report: BoundsReport,
    exact_marginals: dict | None = None,
    exact_pe: float | None = None,
) -> MetricsSummary:
    return MetricsSummary(
        mean_interval=mean_interval(report),
        midpoint_error=(
            midpoint_error(report, exact_marginals)
            if exact_marginals is not None
            else None
        ),
        coverage_pct=(
            coverage_pct(report, exact_pe) if exact_pe is not None else None
        ),
        h=report.h,
        m_prime=report.m_prime,
    )


# ---------------------------------------------------------------------------
# canonical serialization

def _render(obj, indent: int, out: list[str]) -> None:
    """Append the canonical text of ``obj`` to ``out``."""
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, float):
        out.append(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        if not obj:
            out.append("{}" if keyed else "[]")
            return
        pad = "\n" + "  " * indent
        opener = "{" if keyed else "["
        for k, v in sorted((str(k), v) for k, v in obj.items()) if keyed else enumerate(obj):
            out.append(f"{opener}{pad}  {json.dumps(k)}: " if keyed else f"{opener}{pad}  ")
            _render(v, indent + 1, out)
            opener = ","
        out.append(pad + ("}" if keyed else "]"))
    else:
        try:
            _render(float(obj), indent, out)  # numpy scalars
        except (TypeError, ValueError):
            raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, '.17g' floats, stable layout."""
    out: list[str] = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def report_payload(
    report: BoundsReport,
    config: dict,
    metrics: MetricsSummary | None = None,
    exact_pe: float | None = None,
    exact_marginals: dict | None = None,
) -> dict:
    """Plain-dict form of one run; timing data is kept out (see payload root)."""
    out = {
        "method": report.method,
        "h": report.h,
        "m": report.m,
        "m_prime": report.m_prime,
        "s": report.s,
        "r": report.r,
        "i_h": report.i_h,
        "evidence": list(report.evidence),
        "marginals": {
            str(var): [list(iv) for iv in rows]
            for var, rows in report.marginals.items()
        },
        "counters": {
            "invocations": report.invocations,
            "clamp_events": report.clamp_events,
            "degenerate": [list(q) for q in report.degenerate],
        },
        "bc_marginals": {
            str(var): [list(iv) for iv in rows]
            for var, rows in report.bc_marginals.items()
        },
        "bc_evidence": list(report.bc_evidence),
    }
    if metrics is not None:
        out["metrics"] = {
            "mean_interval": metrics.mean_interval,
            "midpoint_error": metrics.midpoint_error,
            "coverage_pct": metrics.coverage_pct,
        }
    if exact_pe is not None:
        out["exact_pe"] = exact_pe
    if exact_marginals is not None:
        out["exact_marginals"] = {
            str(var): [float(p) for p in table]
            for var, table in exact_marginals.items()
        }
    return out


def csv_rows(report: BoundsReport, exact_marginals: dict | None = None):
    """Rows (variable, value, lower, upper, width, exact, method): the main
    method's intervals first, then the baseline's."""
    rows = []

    def block(marginals, method):
        for var in sorted(marginals):
            for value, (l, u) in enumerate(marginals[var]):
                exact = ""
                if exact_marginals is not None and var in exact_marginals:
                    exact = format(float(exact_marginals[var][value]), ".17g")
                rows.append(
                    (
                        str(var),
                        str(value),
                        format(l, ".17g"),
                        format(u, ".17g"),
                        format(u - l, ".17g"),
                        exact,
                        method,
                    )
                )

    block(report.marginals, report.method)
    block(report.bc_marginals, "bc")
    return rows


def write_csv(path, report: BoundsReport, exact_marginals: dict | None = None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variable", "value", "lower", "upper", "width", "exact", "method"]
        )
        writer.writerows(csv_rows(report, exact_marginals))


# ---------------------------------------------------------------------------
# experiment pipeline

@dataclass
class ExperimentConfig:
    network: str
    evidence: str | None = None
    cutset: str = "loop"
    w: int = 1
    h: int | None = None
    sweep_h: tuple[int, ...] | None = None
    plugin: str = "bf"
    k: int = 2**10
    sweeps: int = 32
    iters: int = 50
    seed: int = 0
    out_json: str | None = None
    out_csv: str | None = None
    oracle: str = "auto"

    def echo(self) -> dict:
        """Every setting but the output paths, in field order."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if not f.name.startswith("out_")}
        out["network"] = os.path.basename(self.network)
        out["evidence"] = os.path.basename(self.evidence) if self.evidence else None
        out["sweep_h"] = list(self.sweep_h) if self.sweep_h else None
        return out


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Full pipeline: parse, select, bound, assemble, summarize, write files.

    Returns the JSON payload as a dict. Any failure removes files this run
    created before re-raising, so downstream tooling never sees torn output.
    """
    created: list[str] = []
    try:
        bn = parse_network(Path(cfg.network).read_text())
        e = parse_evidence(Path(cfg.evidence).read_text()) if cfg.evidence else {}

        if cfg.sweep_h and cfg.h is not None:
            raise ValueError("give one of h / sweep_h, not both")
        if not cfg.sweep_h and cfg.h is None:
            raise ValueError("one of h / sweep_h is required")
        hs = list(cfg.sweep_h) if cfg.sweep_h else [cfg.h]
        if any(x < 0 for x in hs):
            raise ValueError(f"invalid h values {hs}")
        if cfg.oracle not in ("on", "off", "auto"):
            raise ValueError(f"unknown oracle mode {cfg.oracle!r}")

        active_full, bounder, select_time = select_and_bound(
            bn, e, max(hs), plugin=cfg.plugin, cutset_kind=cfg.cutset, w=cfg.w,
            sweeps=cfg.sweeps, seed=cfg.seed, k=cfg.k, iters=cfg.iters,
        )

        exact_pe = exact_marginals = None
        if cfg.oracle != "off":
            try:
                exact_pe, exact_marginals = bucket_eliminate_marginals(bn, e)
            except (ScopeCapError, ZeroEvidenceError):
                if cfg.oracle == "on":
                    raise

        echo = cfg.echo()
        runs = []
        summary = []
        timing_rows = []
        last_report = None
        for h in hs:
            report = compute_report(
                prepare_inputs(bn, e, active_full.prefix(h), bounder)
            )
            metrics = summarize(report, exact_marginals, exact_pe)
            runs.append(
                report_payload(report, echo, metrics, exact_pe, exact_marginals)
            )
            summary.append(
                {
                    "h": h,
                    "m_prime": report.m_prime,
                    "i_h": report.i_h,
                    "s": report.s,
                    "r": report.r,
                    "mean_interval": metrics.mean_interval,
                    "midpoint_error": metrics.midpoint_error,
                    "coverage_pct": metrics.coverage_pct,
                    "evidence_lower": report.evidence[0],
                    "evidence_upper": report.evidence[1],
                }
            )
            timing_rows.append({"h": h, **report.timings})
            last_report = report

        payload = {
            "config": echo,
            "runs": runs,
            "summary": summary,
            "timings": {"selection": select_time, "runs": timing_rows},
        }
        if cfg.out_json:
            text = dumps_canonical(payload)
            with open(cfg.out_json, "w") as fh:
                created.append(cfg.out_json)
                fh.write(text)
        if cfg.out_csv:
            created.append(cfg.out_csv)
            write_csv(cfg.out_csv, last_report, exact_marginals)
        return payload
    except BaseException:
        for path in created:
            try:
                os.remove(path)
            except OSError:
                pass
        raise
