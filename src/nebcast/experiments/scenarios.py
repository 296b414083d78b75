"""The experiment families and result serialization.

``run_scenario`` expands a ScenarioConfig into a grid of RunSpecs, executes
them, and folds the outcomes into one bundle: per-broadcast rows for
the CSV, aggregated per-cell statistics for the summary JSON. Row and
cell order follow the configured variant/redundancy/repeat order, so a
bundle serializes to identical bytes on every rerun of the same
(config, seed).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import fields, replace
from pathlib import Path

from ..metrics import coverage_percent, honest_coverage_percent, latency, online_unreceived_percent
from ..netsim import NetworkConfig
from .config import ScenarioConfig, config_as_dict
from .runner import RunResult, RunSpec, broadcast_count, execute_run

CSV_HEADER = ("seq", "initiator", "variant", "beta", "latency_us", "complete", "received")


def _percentile(sorted_values: list[int], q: float) -> int | None:
    """Nearest-rank percentile of pre-sorted data."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]


def _spec_for(cfg: ScenarioConfig, variant: str, redundancy: int, repeat: int, **extra) -> RunSpec:
    return RunSpec(
        **{f.name: getattr(cfg, f.name) for f in fields(NetworkConfig)},
        variant=variant,
        redundancy=redundancy,
        rounds_per_node=cfg.rounds_per_node,
        interval_us=cfg.interval_ms * 1000,
        seed=cfg.seed,
        repeat=repeat,
        disturbance=cfg.disturbance,
        disturbance_period_us=cfg.disturbance_period_s * 1_000_000,
        refuse_withholds_confirms=cfg.refuse_withholds_confirmations,
        horizon_us=None if cfg.horizon_s is None else cfg.horizon_s * 1_000_000,
        **extra,
    )


def _per_repeat(results: list[RunResult], field: str) -> list[int]:
    """One run's records summed on ``field``, for each run."""
    return [sum(getattr(rec, field) for rec in r.recs) for r in results]


def _cell(cfg: ScenarioConfig, variant: str, redundancy: int, results: list[RunResult]) -> dict:
    rounds = broadcast_count(results[0].spec)
    coverage = coverage_percent(_per_repeat(results, "received_count"), rounds, cfg.n_nodes)
    honest_cov = None
    if cfg.disturbance == "refuse_half":
        honest_cov = honest_coverage_percent(
            _per_repeat(results, "honest_received"),
            rounds,
            [r.honest_nodes for r in results],
        )
    online_unreceived = online_unreceived_percent(
        _per_repeat(results, "online_received"),
        _per_repeat(results, "online_count"),
    )
    spans = [latency(rec) for r in results for rec in r.recs]
    latencies = sorted(span for span in spans if span is not None)
    incomplete = len(spans) - len(latencies)
    return {
        "variant": variant,
        "beta": redundancy,
        "disturbance": cfg.disturbance,
        "repeats": len(results),
        "broadcasts_per_repeat": rounds,
        "coverage_pct": round(coverage, 4),
        "unreceived_pct": round(100.0 - coverage, 4),
        "online_unreceived_pct": None
        if online_unreceived is None
        else round(online_unreceived, 4),
        "honest_coverage_pct": None if honest_cov is None else round(honest_cov, 4),
        "latency": {
            "complete": len(latencies),
            "incomplete": incomplete,
            "p50_us": _percentile(latencies, 50),
            "p90_us": _percentile(latencies, 90),
            "p99_us": _percentile(latencies, 99),
        },
        "transmissions": {
            "data": sum(r.data_sends for r in results),
            "confirmation": sum(r.confirm_sends for r in results),
            "confirmation_bytes": cfg.confirm_msg_bytes
            * sum(r.confirm_sends for r in results),
            "dropped_offline": sum(r.dropped_offline for r in results),
        },
        "truncated": any(r.truncated for r in results),
    }


def _rows(variant: str, redundancy: int, results: list[RunResult]) -> list[tuple]:
    out = []
    for repeat_index, result in enumerate(results):
        base = repeat_index * broadcast_count(result.spec)
        for seq, initiator, lat, complete, received in result.rows:
            out.append((base + seq, initiator, variant, redundancy, lat, complete, received))
    return out


def _grid(cfg: ScenarioConfig, variants, redundancies, **extra):
    """Run the full (variant, redundancy, repeat) grid of a scenario.

    Returns the summary cells, the CSV rows, and each cell's runs.
    """
    cells = []
    rows = []
    runs = []
    for variant in variants:
        for redundancy in redundancies:
            results = [
                execute_run(_spec_for(cfg, variant, redundancy, repeat, **extra))
                for repeat in range(cfg.repeats)
            ]
            cells.append(_cell(cfg, variant, redundancy, results))
            rows.extend(_rows(variant, redundancy, results))
            runs.append(results)
    return cells, rows, runs


def _bundle(cfg: ScenarioConfig, cells: list[dict], rows: list[tuple], **metadata) -> dict:
    meta = {
        "initiator_counts_self": True,
        "times": "microseconds",
        "percentile_method": "nearest-rank",
        "coverage_denominator": "broadcasts * repeats * n_nodes",
        "online_unreceived_denominator": "sum over broadcasts of nodes online at its start",
        "honest_coverage_denominator": "broadcasts * sum(honest nodes per repeat)",
    }
    meta.update(metadata)
    return {
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config": config_as_dict(cfg),
        "metadata": meta,
        "cells": cells,
        "rows": rows,
    }


def _audit_checks(cfg: ScenarioConfig, runs: list[list[RunResult]]) -> list[dict]:
    """Delivery invariants of a fault-free grid, per (variant, beta) cell.

    Every broadcast completes, coverage is exactly 100%, and at beta=1
    each broadcast costs exactly n_nodes - 1 data transmissions (for the
    baseline, with zero duplicate deliveries on top).
    """
    checks = []
    for results in runs:
        variant, beta = results[0].spec.variant, results[0].spec.redundancy
        label = f"{variant} beta={beta}"
        complete = sum(rec.complete for r in results for rec in r.recs)
        total = sum(len(r.recs) for r in results)
        checks.append(
            {
                "name": f"all broadcasts complete [{label}]",
                "passed": complete == total,
                "detail": f"{complete}/{total} complete",
            }
        )
        cov = coverage_percent(
            _per_repeat(results, "received_count"),
            broadcast_count(results[0].spec),
            cfg.n_nodes,
        )
        checks.append(
            {
                "name": f"coverage is 100% [{label}]",
                "passed": cov == 100.0,
                "detail": f"coverage {cov:.4f}%",
            }
        )
        if beta != 1:
            continue
        expected = cfg.n_nodes - 1
        counts = [c for r in results for c in r.per_hash_sends.values()]
        off_target = sum(1 for c in counts if c != expected)
        checks.append(
            {
                "name": f"data transmissions per broadcast = N-1 [{label}]",
                "passed": off_target == 0 and len(counts) == total,
                "detail": f"{off_target} broadcasts off target of {expected}",
            }
        )
        if variant == "baseline":
            dups = sum(r.duplicates for r in results)
            checks.append(
                {
                    "name": f"zero duplicate deliveries [{label}]",
                    "passed": dups == 0,
                    "detail": f"{dups} duplicates",
                }
            )
    return checks


def run_scenario(cfg: ScenarioConfig) -> dict:
    """Run a scenario's grid and fold it into one bundle.

    The gossip sweep runs over fanouts instead of betas and adds one
    flooding check cell: fanout n_nodes - 1 (met by every degree) over
    a reduced broadcast count, since one pass suffices to show the 100%
    limit. Gossip pushes over each node's routing table, which the
    fault-free sweep never refills after the bootstrap. The fault-free
    audit adds the checks of ``_audit_checks``.
    """
    if cfg.scenario == "gossip_sweep":
        cells, rows, _ = _grid(cfg, ("gossip",), cfg.fanouts)
        if cfg.flood_check_broadcasts > 0:
            flood_cells, flood_rows, _ = _grid(
                replace(cfg, repeats=1),
                ("gossip",),
                (cfg.n_nodes - 1,),
                total_broadcasts=cfg.flood_check_broadcasts,
            )
            flood_cells[0]["flooding"] = True
            cells += flood_cells
            rows += flood_rows
        return _bundle(cfg, cells, rows, gossip_graph="bootstrap-routing-tables")
    audit = cfg.scenario == "faultfree_audit"
    cells, rows, runs = _grid(cfg, cfg.variants, cfg.betas, count_per_hash=audit)
    bundle = _bundle(cfg, cells, rows)
    if audit:
        bundle["checks"] = _audit_checks(cfg, runs)
    return bundle


def emit_results(bundle: dict, out_dir: str | Path) -> tuple[Path, Path]:
    """Write broadcasts.csv and summary.json; byte-stable per (config, seed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "broadcasts.csv"
    json_path = out / "summary.json"

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for seq, initiator, variant, beta, lat, complete, received in bundle["rows"]:
            writer.writerow(
                (
                    seq,
                    initiator,
                    variant,
                    beta,
                    "" if lat is None else lat,
                    "true" if complete else "false",
                    received,
                )
            )

    summary = {key: bundle[key] for key in bundle if key != "rows"}
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
