"""Command-line front end.

Subcommands: ``bounds`` prints posterior marginal intervals, ``pe`` prints the
evidence-probability interval, ``compare`` sweeps h and prints the anytime
intervals next to the prior-remainder baseline. All write the same JSON/CSV
reports via --out-json / --out-csv.
"""

from __future__ import annotations

import argparse
import math
import sys

from .harness import ExperimentConfig, run_experiment


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network file (UAI format)")
    p.add_argument("--evidence", help="evidence file (count, then var value pairs)")
    p.add_argument("--cutset", choices=("loop", "w"), default="loop")
    p.add_argument("--w", type=int, default=1, help="width target for --cutset w")
    p.add_argument("--h", type=int, help="number of exactly-evaluated tuples")
    p.add_argument(
        "--sweep-h", dest="sweep_h", help="comma-separated list of h values"
    )
    p.add_argument("--plugin", choices=("bf", "abdp"), default="bf")
    p.add_argument("--k", type=int, default=2**10, help="boundary state-space cap")
    p.add_argument("--sweeps", type=int, default=32, help="tuple-selection sweeps")
    p.add_argument("--iters", type=int, default=50, help="propagation iterations")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-json", dest="out_json")
    p.add_argument("--out-csv", dest="out_csv")
    p.add_argument("--oracle", choices=("on", "off", "auto"), default="auto")


def _config(args) -> ExperimentConfig:
    sweep = None
    if args.sweep_h:
        sweep = tuple(int(tok) for tok in args.sweep_h.split(",") if tok.strip())
    return ExperimentConfig(
        network=args.network,
        evidence=args.evidence,
        cutset=args.cutset,
        w=args.w,
        h=args.h,
        sweep_h=sweep,
        plugin=args.plugin,
        k=args.k,
        sweeps=args.sweeps,
        iters=args.iters,
        seed=args.seed,
        out_json=args.out_json,
        out_csv=args.out_csv,
        oracle=args.oracle,
    )


def _mean_width(marginals: dict) -> float:
    widths = [u - l for rows in marginals.values() for (l, u) in rows]
    return math.fsum(widths) / len(widths) if widths else 0.0


def _print_bounds(payload: dict) -> None:
    run = payload["runs"][-1]
    print(
        f"method={run['method']} h={run['h']}/{run['m']} partials={run['m_prime']}"
        f" coverage_S={run['s']:.6g} remainder_R={run['r']:.6g} width_cap={run['i_h']:.6g}"
    )
    for var in sorted(run["marginals"], key=int):
        rows = run["marginals"][var]
        cells = "  ".join(
            f"{value}:[{l:.6f}, {u:.6f}]" for value, (l, u) in enumerate(rows)
        )
        print(f"  var {var}: {cells}")
    lo, hi = run["evidence"]
    print(f"  P(e) in [{lo:.8g}, {hi:.8g}]")
    metrics = run.get("metrics")
    if metrics:
        parts = [f"mean_interval={metrics['mean_interval']:.6g}"]
        if metrics.get("midpoint_error") is not None:
            parts.append(f"midpoint_error={metrics['midpoint_error']:.6g}")
        if metrics.get("coverage_pct") is not None:
            parts.append(f"coverage={metrics['coverage_pct']:.4g}%")
        print("  " + " ".join(parts))


def _print_pe(payload: dict) -> None:
    run = payload["runs"][-1]
    lo, hi = run["evidence"]
    print(
        f"P(e) in [{format(lo, '.17g')}, {format(hi, '.17g')}]"
        f"  (h={run['h']}, S={run['s']:.6g}, R={run['r']:.6g})"
    )
    if run.get("exact_pe") is not None:
        print(f"exact P(e) = {format(run['exact_pe'], '.17g')}")


def _print_compare(payload: dict) -> None:
    print("      h   M'        I_h   mean-width   bc-width   coverage%")
    for run, row in zip(payload["runs"], payload["summary"]):
        atb = _mean_width(run["marginals"])
        bc = _mean_width(run.get("bc_marginals", {}))
        cov = row["coverage_pct"]
        cov_s = f"{cov:10.4f}" if cov is not None else "         -"
        print(
            f"{row['h']:7d} {row['m_prime']:4d} {row['i_h']:10.6f}"
            f" {atb:12.6f} {bc:10.6f} {cov_s}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="beliefbounds",
        description="Anytime lower/upper bounds on Bayesian-network posteriors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("bounds", "posterior marginal intervals"),
        ("pe", "interval on the probability of evidence"),
        ("compare", "anytime bounds vs the prior-remainder baseline over h"),
    ):
        _add_common(sub.add_parser(name, help=desc))

    args = parser.parse_args(argv)
    try:
        payload = run_experiment(_config(args))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "bounds":
        _print_bounds(payload)
    elif args.command == "pe":
        _print_pe(payload)
    else:
        _print_compare(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
