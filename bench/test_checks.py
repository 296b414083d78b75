"""Each check passes on real output and rejects one deliberate corruption.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import copy
import json

import pytest

from checks import check_cell, check_overlay, check_rows, check_run, nearest_rank, read_broadcasts_csv
from instrument import Patches, Probe
from nebcast.netsim import NetworkConfig, bootstrap_topology
from nebcast.seeding import stream
from workloads import Workload, run_round

SMALL = {
    "n_nodes": 48,
    "address_bits": 10,
    "bucket_capacity": 7,
    "data_msg_bytes": 128,
    "confirm_msg_bytes": 20,
    "betas": (1, 2),
    "fanouts": (1,),
    "interval_ms": 50,
    "rounds_per_node": 1,
    "repeats": 1,
    "variants": ("baseline", "ne"),
    "disturbance": "none",
    "disturbance_period_s": 60,
    "refuse_withholds_confirmations": False,
    "flood_check_broadcasts": 0,
    "horizon_s": None,
}


def _round(tmp_path, scenario, fault_free, **pins):
    workload = Workload(
        name="small",
        fault_free=fault_free,
        scenario=scenario,
        pins={**SMALL, **pins},
    )
    probe = Probe()
    probe.check_overlays = True
    patches = Patches()
    probe.install(patches)
    try:
        return run_round(workload, 3, tmp_path, probe), probe.runs
    finally:
        patches.restore()


@pytest.fixture(scope="module")
def faultfree(tmp_path_factory):
    out = tmp_path_factory.mktemp("faultfree")
    rnd, runs = _round(out, "latency", True)
    assert rnd.problems == []
    return runs, out


def _cell_inputs(all_runs, out, variant, beta):
    summary = json.loads((out / "summary.json").read_text())
    cell = next(c for c in summary["cells"] if (c["variant"], c["beta"]) == (variant, beta))
    rows = [r for r in read_broadcasts_csv(out / "broadcasts.csv") if (r["variant"], r["beta"]) == (variant, beta)]
    runs = [r for r in all_runs if (r.variant, r.beta) == (variant, beta)]
    return cell, rows, runs


def test_nearest_rank():
    assert nearest_rank([], 50) is None
    assert nearest_rank([7], 99) == 7
    assert nearest_rank([1, 2, 3, 4], 50) == 2
    assert nearest_rank([1, 2, 3, 4], 51) == 3
    assert nearest_rank(list(range(1, 101)), 99) == 99


def test_real_rounds_pass(faultfree, tmp_path):
    runs, _ = faultfree
    assert len(runs) == 4
    churn, churn_runs = _round(
        tmp_path, "coverage_offline", False,
        betas=(2,), disturbance="churn_periodic", disturbance_period_s=1, rounds_per_node=2,
    )
    assert churn.problems == []
    assert any(r.dropped_offline for r in churn_runs)
    assert sum(r.disturbances for r in churn_runs) >= 4


def test_dropped_receipt_is_rejected(faultfree):
    rnd, out = faultfree
    cell, rows, runs = _cell_inputs(rnd, out, "ne", 2)
    assert check_run(runs[0], True) == [] and check_rows(rows, runs) == []
    bad = copy.deepcopy(runs[0])
    bad.received[5] -= 1
    assert check_run(bad, True)
    assert check_run(bad, False)
    assert check_rows(rows, [bad])
    bad_rows = copy.deepcopy(rows)
    bad_rows[5]["received"] -= 1
    assert check_cell(cell, bad_rows, runs, SMALL["n_nodes"])


def test_extra_data_send_is_rejected(faultfree):
    rnd, out = faultfree
    for beta in (1, 2):
        cell, rows, runs = _cell_inputs(rnd, out, "baseline", beta)
        assert check_cell(cell, rows, runs, SMALL["n_nodes"]) == []
        bad = copy.deepcopy(runs[0])
        bad.data_sends += 1
        assert check_run(bad, False)
        assert check_cell(cell, rows, [bad], SMALL["n_nodes"])
    # with the accounting rebalanced, beta=1's N-1 rule still sees the extra send
    cell, rows, runs = _cell_inputs(rnd, out, "baseline", 1)
    bad = copy.deepcopy(runs[0])
    bad.data_sends += 1
    bad.duplicates += 1
    assert check_run(bad, False) == []
    assert any("data sends" in p for p in check_run(bad, True))


def test_shifted_percentile_is_rejected(faultfree):
    rnd, out = faultfree
    cell, rows, runs = _cell_inputs(rnd, out, "baseline", 2)
    latencies = sorted(r["latency_us"] for r in rows)
    p50 = cell["latency"]["p50_us"]
    shifted = copy.deepcopy(cell)
    shifted["latency"]["p50_us"] = next(v for v in latencies if v > p50)
    assert check_cell(cell, rows, runs, SMALL["n_nodes"]) == []
    assert check_cell(shifted, rows, runs, SMALL["n_nodes"])


def test_misfiled_bucket_entry_is_rejected():
    net = NetworkConfig(n_nodes=64, address_bits=10, bucket_capacity=7)
    nodes, _ = bootstrap_topology(net, stream(5, "topology", 0), True)
    tables = [(n.id, [[e.peer for e in b.entries] for b in n.table.buckets]) for n in nodes]
    assert check_overlay(tables, 10, 7) == []
    owner, buckets = tables[0]
    i = next(k for k, peers in enumerate(buckets) if peers)

    def problems_with(corrupted, capacity=7):
        return check_overlay([(owner, corrupted)] + tables[1:], 10, capacity)

    misfiled = [list(peers) for peers in buckets]
    misfiled[i + 1].append(misfiled[i][0])
    assert any("misfiled" in p for p in problems_with(misfiled))
    emptied = [[] if k == i else peers for k, peers in enumerate(buckets)]
    assert any("empty" in p for p in problems_with(emptied))
    with_self = [peers + [owner] if k == i else peers for k, peers in enumerate(buckets)]
    assert any("itself" in p for p in problems_with(with_self))
    widest = max(len(peers) for peers in buckets)
    assert any("capacity" in p for p in problems_with(buckets, widest - 1))
