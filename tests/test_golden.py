"""Golden pin: SHA-256 digests of fixed small runs.

Every output case runs at N=64 with one round per node and seed 1, and
its ``summary.json`` and ``broadcasts.csv`` must hash to the digests in
``tests/golden/digests.json``. Those files hold no engine counters, so
each run case (N=48, one per variant and disturbance) also pins the
digest of its counters, per-hash sends and tracker records in
``tests/golden/run_digests.json``. A change that alters how random
numbers are consumed changes these digests on purpose and re-pins them
in the same change, saying why; any other digest change is a bug.

Those cases stay at N<=64, where no bucket's id range is large enough
for ``random.sample`` to take its set-based branch. The overlay case
pins one N=2000 overlay, where the shallow buckets do: its node ids,
profiles and every bucket's (peer, score) entries in order, as
bootstrapped and again after three churn disturbances have refilled
the returners' tables, in ``tests/golden/overlay_digests.json``.

Three larger runs (``SCALE_CASES``, N=1000 and N=2000) are pinned in
``run_digests.json`` too; ``tests/test_reference.py`` checks each of
them against the reference engine and against its pin.

To print the digests of the current code as JSON, keyed by the file
that pins them, the overlay and scale digests included (to re-pin after
a deliberate change of the draws):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from nebcast.experiments.config import SCENARIO_DISTURBANCES, build_config
from nebcast.experiments.runner import DISTURBANCES, RunResult, RunSpec, execute_run
from nebcast.experiments.scenarios import emit_results, run_scenario
from nebcast.netsim import NetworkConfig, apply_disturbance, bootstrap_topology
from nebcast.seeding import stream

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
RUN_DIGESTS = Path(__file__).parent / "golden" / "run_digests.json"
OVERLAY_DIGESTS = Path(__file__).parent / "golden" / "overlay_digests.json"

BASE = {"n_nodes": "64", "rounds_per_node": "1", "seed": "1"}

CASES = {
    "latency": ("latency", {}),
    "coverage_offline": ("coverage_offline", {}),
    "coverage_refuse": ("coverage_refuse", {}),
    "gossip_sweep": ("gossip_sweep", {}),
    "faultfree_audit": ("faultfree_audit", {}),
    # at the 60 s default period a 64-broadcast run ends before a second
    # disturbance, which would make this case a copy of churn_once
    "coverage_offline_periodic": (
        "coverage_offline",
        {"disturbance": "churn_periodic", "disturbance_period_s": "1"},
    ),
    # the launches run to 3.15 s, so a 2 s horizon cuts the runs short,
    # some with sends still held for the disturbance at 3 s
    "coverage_offline_truncated": (
        "coverage_offline",
        {"disturbance": "churn_periodic", "disturbance_period_s": "1", "horizon_s": "2"},
    ),
}


def case_digests(name: str, out_dir: Path) -> dict[str, str]:
    scenario, overrides = CASES[name]
    cfg = build_config(scenario=scenario, overrides={**BASE, **overrides})
    paths = emit_results(run_scenario(cfg), out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


# 96 launches 50 ms apart at β=2; churn_periodic disturbs once a second
RUN_CASES = {
    f"{variant}-{disturbance}": RunSpec(
        n_nodes=48,
        variant=variant,
        redundancy=2,
        rounds_per_node=2,
        interval_us=50_000,
        seed=1,
        disturbance=disturbance,
        disturbance_period_us=1_000_000,
        count_per_hash=True,
    )
    for variant in ("baseline", "ne", "gossip")
    for disturbance in DISTURBANCES
}


# runs at scale: capacity-bound shallow buckets, seconds-long uplink
# queues and, under churn, sends held across many disturbances
SCALE_CASES = {
    # 2,738 holds of a send for a disturbance
    "scale-ne-churn_periodic": RunSpec(
        n_nodes=1000, variant="ne", redundancy=2, rounds_per_node=1, total_broadcasts=300,
        interval_us=50_000, seed=1, disturbance="churn_periodic",
        disturbance_period_us=3_000_000, count_per_hash=True,
    ),
    # 15,733 holds, many of one send held again across disturbances
    "scale-baseline-churn_periodic": RunSpec(
        n_nodes=1000, variant="baseline", redundancy=2, rounds_per_node=1, total_broadcasts=300,
        interval_us=2_000, seed=2, disturbance="churn_periodic",
        disturbance_period_us=100_000, count_per_hash=True,
    ),
    # the launches run to 9.95 s: the 6 s horizon cuts the run short
    "scale-ne-refuse_half": RunSpec(
        n_nodes=2000, variant="ne", redundancy=3, rounds_per_node=1, total_broadcasts=200,
        interval_us=50_000, seed=3, disturbance="refuse_half", refuse_withholds_confirms=True,
        horizon_us=6_000_000, count_per_hash=True,
    ),
    # gossip pushes from every initiator and receiver, through churn
    "scale-gossip-churn_periodic": RunSpec(
        n_nodes=1000, variant="gossip", redundancy=3, rounds_per_node=1, total_broadcasts=300,
        interval_us=50_000, seed=4, disturbance="churn_periodic",
        disturbance_period_us=3_000_000, count_per_hash=True,
    ),
    "scale-ne-churn_once": RunSpec(
        n_nodes=1000, variant="ne", redundancy=2, rounds_per_node=1, total_broadcasts=300,
        interval_us=50_000, seed=5, disturbance="churn_once", count_per_hash=True,
    ),
    # fault free at β=1: every broadcast reaches everyone exactly once
    "scale-baseline-none": RunSpec(
        n_nodes=2000, variant="baseline", redundancy=1, rounds_per_node=1, total_broadcasts=100,
        interval_us=50_000, seed=6, count_per_hash=True,
    ),
}


def run_digest(result: RunResult) -> str:
    """Digest of one run's counters, per-hash data sends and tracker records."""
    body = {
        "counters": [
            result.honest_nodes, result.data_sends, result.confirm_sends,
            result.dropped_offline, result.duplicates, result.truncated,
        ],
        "per_hash_sends": sorted(result.per_hash_sends.items()),
        "recs": [
            [
                rec.seq, rec.initiator, rec.received_count, rec.honest_received,
                rec.start_us, rec.last_receive_us, rec.online_at_start, rec.online_received,
            ]
            for rec in result.recs
        ],
    }
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def _overlay_digest(nodes, profiles) -> str:
    body = [
        [
            node.id, node.online, profile.region, profile.upstream_bps,
            [[[e.peer, e.score] for e in b.entries] for b in node.table.buckets],
        ]
        for node, profile in zip(nodes, profiles)
    ]
    return hashlib.sha256(json.dumps(body).encode()).hexdigest()


def overlay_digests() -> dict[str, str]:
    """Digests of the N=2000 seed-1 overlay, bootstrapped and after three churn rounds.

    The streams are the ones ``execute_run`` gives repeat 0 of seed 1.
    """
    nodes, profiles = bootstrap_topology(NetworkConfig(n_nodes=2000), stream(1, "topology", 0))
    digests = {"n2000-seed1": _overlay_digest(nodes, profiles)}
    disturb_rng = stream(1, "disturb", 0)
    for _ in range(3):
        apply_disturbance(nodes, disturb_rng, profiles)
    digests["n2000-seed1-churn3"] = _overlay_digest(nodes, profiles)
    return digests


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert case_digests(name, tmp_path) == pinned[name]


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_run_counters_match_golden_digests(name):
    pinned = json.loads(RUN_DIGESTS.read_text(encoding="utf-8"))
    assert run_digest(execute_run(RUN_CASES[name])) == pinned[name]


def test_wide_overlay_matches_golden_digests():
    pinned = json.loads(OVERLAY_DIGESTS.read_text(encoding="utf-8"))
    assert overlay_digests() == pinned


def test_golden_cases_are_all_pinned():
    assert sorted(json.loads(DIGESTS.read_text(encoding="utf-8"))) == sorted(CASES)
    pinned_runs = json.loads(RUN_DIGESTS.read_text(encoding="utf-8"))
    assert sorted(pinned_runs) == sorted([*RUN_CASES, *SCALE_CASES])


def test_every_scenario_and_disturbance_has_a_golden_case():
    # a scenario, or a disturbance it accepts, cannot land unpinned
    pinned = set()
    for scenario, overrides in CASES.values():
        cfg = build_config(scenario=scenario, overrides={**BASE, **overrides})
        pinned.add((cfg.scenario, cfg.disturbance))
    accepted = {(s, d) for s, allowed in SCENARIO_DISTURBANCES.items() for d in allowed}
    assert pinned == accepted


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: case_digests(name, Path(tmp) / name) for name in sorted(CASES)}
    cases = {**RUN_CASES, **SCALE_CASES}
    runs = {name: run_digest(execute_run(cases[name])) for name in sorted(cases)}
    pins = {DIGESTS.name: digests, RUN_DIGESTS.name: runs, OVERLAY_DIGESTS.name: overlay_digests()}
    json.dump(pins, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
