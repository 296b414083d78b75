"""Correctness checks on the outputs of one workload round.

Every check is recomputed here from the run's own outputs or from a
property the broadcast method must have; none compares against a stored
copy of earlier output. Each function returns a list of problems, empty
when the check passes, so a caller can count and print them.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class SimRun:
    """What one simulation run did, read off its engine and tracker."""

    variant: str
    beta: int
    n_nodes: int
    data_bytes: int
    confirm_bytes: int
    data_sends: int
    confirm_sends: int
    dropped_offline: int
    accepted: int
    duplicates: int
    initiations: int
    skipped: int
    disturbances: int
    truncated: bool
    # one entry per scheduled broadcast, in schedule order
    received: list[int] = field(default_factory=list)
    online_received: list[int] = field(default_factory=list)
    online_count: list[int] = field(default_factory=list)
    start_us: list[int] = field(default_factory=list)
    # time of the last first receipt, None for a skipped broadcast
    last_us: list[int | None] = field(default_factory=list)
    # time from its broadcast's start to every first receipt, in receipt order
    delays_us: list[int] = field(default_factory=list)

    @property
    def deliveries(self) -> int:
        return self.accepted + self.duplicates + self.dropped_offline

    @property
    def events(self) -> int:
        """Deliveries, initiations and disturbances the event loop handled."""
        return self.deliveries + self.initiations + self.disturbances


def nearest_rank(sorted_values: list, q: float):
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    if not sorted_values:
        return None
    rank = math.ceil(len(sorted_values) * q / 100.0)
    return sorted_values[max(rank, 1) - 1]


def check_run(run: SimRun, fault_free: bool) -> list[str]:
    """Accounting identities every run obeys, plus the fault-free guarantees."""
    tag = f"{run.variant} beta={run.beta}"
    n = run.n_nodes
    problems = []
    if run.truncated:
        problems.append(f"{tag}: stopped at the horizon")
    sent = run.data_sends + run.confirm_sends
    if run.deliveries != sent:
        problems.append(
            f"{tag}: first receipts {run.accepted} + duplicates {run.duplicates}"
            f" + offline drops {run.dropped_offline} != sends {sent}"
        )
    initiated = run.initiations - run.skipped
    if sum(run.received) != run.accepted + initiated:
        problems.append(
            f"{tag}: total receipts {sum(run.received)} != first receipts {run.accepted}"
            f" + initiated broadcasts {initiated}"
        )
    if len(run.received) != run.initiations:
        problems.append(f"{tag}: {len(run.received)} records for {run.initiations} broadcasts")
    over = sum(1 for r in run.received if r > n)
    if over:
        problems.append(f"{tag}: {over} broadcasts reached more than {n} nodes")
    over_online = sum(1 for got, had in zip(run.online_received, run.online_count) if got > had)
    if over_online:
        problems.append(f"{tag}: {over_online} broadcasts reached more online nodes than were online")
    if run.variant == "baseline" and run.confirm_sends:
        problems.append(f"{tag}: the baseline sent {run.confirm_sends} confirmations")
    if not fault_free:
        return problems
    short = sum(1 for r in run.received if r != n)
    if short or run.skipped:
        problems.append(f"{tag}: {short} of {len(run.received)} broadcasts missed a node")
    if run.beta == 1:
        # Each of the N-1 other nodes needs one data send to first receive
        # a complete broadcast, so a total of exactly (N-1) per broadcast
        # leaves every broadcast at exactly N-1.
        expected = (n - 1) * run.initiations
        if run.data_sends != expected:
            problems.append(f"{tag}: {run.data_sends} data sends, expected (N-1) x B = {expected}")
        if run.variant == "baseline" and run.duplicates:
            problems.append(f"{tag}: {run.duplicates} duplicate deliveries")
    return problems


def read_broadcasts_csv(path: str | Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            {
                "seq": int(row["seq"]),
                "variant": row["variant"],
                "beta": int(row["beta"]),
                "latency_us": None if row["latency_us"] == "" else int(row["latency_us"]),
                "complete": row["complete"] == "true",
                "received": int(row["received"]),
            }
            for row in csv.DictReader(fh)
        ]


def check_rows(rows: list[dict], runs: list[SimRun]) -> list[str]:
    """Rows of one (variant, beta) cell against the runs that produced them.

    A row's receipt count must match the tracker's, and a complete
    broadcast's latency must equal the span from its start to the last
    first receipt the tracker saw.
    """
    problems = []
    expected = [
        (r.received[i], r.start_us[i], r.last_us[i]) for r in runs for i in range(len(r.received))
    ]
    if len(rows) != len(expected):
        return [f"{len(rows)} rows for {len(expected)} broadcasts"]
    for row, (received, start, last) in zip(rows, expected):
        tag = f"{row['variant']} beta={row['beta']} seq {row['seq']}"
        if row["received"] != received:
            problems.append(f"{tag}: row says {row['received']} receipts, tracker {received}")
        if row["complete"] != (received == runs[0].n_nodes):
            problems.append(f"{tag}: complete flag disagrees with {received} receipts")
        if row["complete"] and row["latency_us"] != last - start:
            problems.append(f"{tag}: latency {row['latency_us']} us, receipts span {last - start} us")
        if not row["complete"] and row["latency_us"] is not None:
            problems.append(f"{tag}: latency given for an incomplete broadcast")
    return problems


def check_cell(cell: dict, rows: list[dict], runs: list[SimRun], n_nodes: int) -> list[str]:
    """One summary cell recomputed from its broadcasts.csv rows and run counters."""
    tag = f"cell {cell['variant']} beta={cell['beta']}"
    problems = []
    per_repeat = cell["broadcasts_per_repeat"]
    repeats = cell["repeats"]
    if len(rows) != per_repeat * repeats:
        problems.append(f"{tag}: {len(rows)} rows, expected {per_repeat} x {repeats}")
    coverage = 100.0 * sum(row["received"] for row in rows) / (per_repeat * repeats * n_nodes)
    if round(coverage, 4) != cell["coverage_pct"]:
        problems.append(f"{tag}: coverage {cell['coverage_pct']}, rows give {round(coverage, 4)}")
    latencies = sorted(row["latency_us"] for row in rows if row["latency_us"] is not None)
    lat = cell["latency"]
    if lat["complete"] != len(latencies) or lat["incomplete"] != len(rows) - len(latencies):
        problems.append(f"{tag}: complete/incomplete counts disagree with the rows")
    for q in (50, 90, 99):
        mine = nearest_rank(latencies, q)
        if lat[f"p{q}_us"] != mine:
            problems.append(f"{tag}: p{q} {lat[f'p{q}_us']} us, rows give {mine} us")
    sends = cell["transmissions"]
    for key, value in (
        ("data", sum(r.data_sends for r in runs)),
        ("confirmation", sum(r.confirm_sends for r in runs)),
        ("dropped_offline", sum(r.dropped_offline for r in runs)),
    ):
        if sends[key] != value:
            problems.append(f"{tag}: transmissions.{key} {sends[key]}, engine counted {value}")
    population = sum(sum(r.online_count) for r in runs)
    if population and cell["online_unreceived_pct"] is not None:
        reached = sum(sum(r.online_received) for r in runs)
        mine = round(100.0 - 100.0 * reached / population, 4)
        if cell["online_unreceived_pct"] != mine:
            problems.append(f"{tag}: online_unreceived_pct {cell['online_unreceived_pct']}, runs give {mine}")
    return problems


def _prefix_len(a: int, b: int, width: int) -> int:
    """Shared leading bits of two ids, counted on their bit strings."""
    sa, sb = format(a, f"0{width}b"), format(b, f"0{width}b")
    n = 0
    while n < width and sa[n] == sb[n]:
        n += 1
    return n


def check_overlay(tables: list[tuple[int, list[list[int]]]], width: int, capacity: int) -> list[str]:
    """Bootstrap overlay invariants.

    ``tables`` holds, per node, its id and the peer ids of each bucket in
    index order. Every entry of bucket i shares exactly i leading bits
    with its owner, no bucket is over capacity, no node holds itself,
    and a bucket is empty only when no node's id falls in its range.
    """
    problems = []
    ids = sorted(owner for owner, _ in tables)
    for owner, buckets in tables:
        for i, peers in enumerate(buckets):
            if len(peers) > capacity:
                problems.append(f"node {owner:#x} bucket {i}: {len(peers)} > capacity {capacity}")
            for peer in peers:
                if peer == owner:
                    problems.append(f"node {owner:#x} holds itself")
                elif _prefix_len(owner, peer, width) != i:
                    problems.append(f"node {owner:#x} bucket {i}: misfiled peer {peer:#x}")
            if peers:
                continue
            # ids sharing exactly i bits: the owner's first i bits, bit i
            # flipped, anything below
            span = width - i - 1
            lo = (owner ^ (1 << span)) >> span << span
            if bisect_left(ids, lo + (1 << span)) > bisect_left(ids, lo):
                problems.append(f"node {owner:#x} bucket {i}: empty though ids exist in its range")
    return problems
