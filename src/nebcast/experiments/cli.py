"""Command line front end.

Two subcommands: ``simulate`` resolves a scenario config, runs it, and
writes broadcasts.csv plus summary.json into --out; ``audit`` runs the
fault-free delivery invariants at a chosen network size and prints one
line per check. Exit codes: 0 success, 1 failed audit check, 2 bad
configuration or unwritable output, 3 run truncated.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigurationError
from .config import PROFILES, SCENARIOS, build_config, load_config_file, parse_set_overrides
from .scenarios import emit_results, run_scenario

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_CONFIG = 2
EXIT_TRUNCATED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nebcast",
        description="Discrete-event simulator for Kademlia broadcast with neighbor evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write result files")
    sim.add_argument("--config", help="YAML scenario config file")
    sim.add_argument("--profile", choices=sorted(PROFILES), help="named preset to start from")
    sim.add_argument("--scenario", choices=SCENARIOS, help="scenario, unless the config names one")
    sim.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key, e.g. --set network.n_nodes=500 (repeatable)",
    )
    sim.add_argument("--out", required=True, help="output directory for broadcasts.csv / summary.json")

    audit = sub.add_parser("audit", help="check fault-free delivery invariants")
    audit.add_argument("--n", type=int, required=True, help="network size")
    audit.add_argument("--seed", type=int, default=1)
    return parser


def _report_checks(bundle: dict) -> int:
    """Print one line per audit check in ``bundle``; return how many failed, also told on stderr."""
    checks = bundle.get("checks", [])
    for check in checks:
        print(f"[{'ok' if check['passed'] else 'FAIL'}] {check['name']}: {check['detail']}")
    failed = sum(not check["passed"] for check in checks)
    if failed:
        print(f"error: {failed} of {len(checks)} audit checks failed", file=sys.stderr)
    return failed


def _cmd_simulate(args) -> int:
    file_values = load_config_file(args.config) if args.config else None
    overrides = parse_set_overrides(args.sets)
    cfg = build_config(
        scenario=args.scenario,
        profile=args.profile,
        file_values=file_values,
        overrides=overrides,
    )
    # an unusable --out fails before the grid runs, not after
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write results to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"scenario {cfg.scenario}: n={cfg.n_nodes} seed={cfg.seed} repeats={cfg.repeats}")
    bundle = run_scenario(cfg)
    try:
        csv_path, json_path = emit_results(bundle, args.out)
    except OSError as exc:
        print(f"error: cannot write results to {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for cell in bundle["cells"]:
        tag = f"{cell['variant']} beta={cell['beta']}"
        p50 = cell["latency"]["p50_us"]
        p50_text = "n/a" if p50 is None else f"{p50} us"
        print(
            f"  {tag}: coverage {cell['coverage_pct']:.4f}%"
            f" p50 {p50_text}"
            f" ({cell['latency']['incomplete']} incomplete)"
        )
    print(f"wrote {csv_path} and {json_path}")
    failed = _report_checks(bundle)
    if any(cell["truncated"] for cell in bundle["cells"]):
        print("warning: at least one run hit the horizon before draining", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_AUDIT_FAILED if failed else EXIT_OK


def _cmd_audit(args) -> int:
    cfg = build_config(
        scenario="faultfree_audit",
        overrides={"n_nodes": args.n, "seed": args.seed},
    )
    bundle = run_scenario(cfg)
    if _report_checks(bundle):
        return EXIT_AUDIT_FAILED
    print(f"all {len(bundle['checks'])} checks passed at n={args.n}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_audit(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
