"""Metrics tests: delivery records, latency, coverage arithmetic.

The coverage checks substitute small hand-computed cases into the
formulas and then probe the algebraic properties (bounds, permutation
invariance, denominator scaling) with seeded random tallies.
"""

from __future__ import annotations

import random

import pytest

from nebcast.errors import ConfigurationError
from nebcast.experiments.config import build_config
from nebcast.experiments.runner import RunSpec, execute_run
from nebcast.experiments.scenarios import run_scenario
from nebcast.metrics import (
    BroadcastTracker,
    coverage_percent,
    honest_coverage_percent,
    latency,
    online_unreceived_percent,
)


def test_record_initiate_then_receives():
    tracker = BroadcastTracker(n_nodes=3)
    tracker.initiate(7, initiator=0, t=100)
    rec = tracker.recs[0]
    assert rec.start_us == 100
    assert rec.received_count == 1 and not rec.complete  # the initiator's own receipt
    tracker.receive(7, 2_000, honest=True, node=1)
    assert rec.last_receive_us is None
    assert latency(rec) is None
    tracker.receive(7, 12_000_000, honest=True, node=2)
    assert rec.complete
    assert rec.last_receive_us == 12_000_000
    assert latency(rec) == 12_000_000 - 100


def test_tracker_rejects_overcount():
    tracker = BroadcastTracker(n_nodes=2)
    tracker.initiate(7, initiator=0, t=5)
    tracker.receive(7, 6, honest=True, node=1)
    with pytest.raises(AssertionError):
        tracker.receive(7, 7, honest=True, node=1)
    skipped = BroadcastTracker(n_nodes=1)
    skipped.initiate_skipped(8, initiator=0, t=5)
    skipped.receive(8, 6, honest=True, node=0)
    with pytest.raises(AssertionError):
        skipped.receive(8, 7, honest=True, node=0)


def test_latency_incomplete_is_none():
    tracker = BroadcastTracker(n_nodes=3)
    tracker.initiate(7, initiator=0, t=50)
    tracker.receive(7, 60, honest=True, node=1)
    assert tracker.recs[0].start_us == 50
    assert latency(tracker.recs[0]) is None


def test_tracker_counts_initiator_at_start():
    tracker = BroadcastTracker(n_nodes=1)
    tracker.initiate(7, initiator=0, t=40)
    rec = tracker.recs[0]
    assert rec.complete
    assert latency(rec) == 0  # a single-node network finishes instantly
    assert tracker.received_total() == 1
    assert tracker.honest_received_total() == 1


def test_tracker_skipped_initiation_keeps_zero_record():
    tracker = BroadcastTracker(n_nodes=4)
    tracker.initiate_skipped(7, initiator=2, t=40)
    rec = tracker.recs[0]
    assert rec.received_count == 0
    assert rec.start_us == 40
    assert latency(rec) is None
    assert tracker.received_total() == 0


def test_tracker_receive_flows_into_the_right_record():
    tracker = BroadcastTracker(n_nodes=3)
    tracker.initiate(7, initiator=0, t=0)
    tracker.initiate(8, initiator=1, t=10, honest=False)
    tracker.receive(7, 500, honest=True, node=1)
    tracker.receive(8, 600, honest=False, node=0)
    tracker.receive(7, 700, honest=False, node=2)
    assert [rec.received_count for rec in tracker.recs] == [3, 2]
    assert [rec.honest_received for rec in tracker.recs] == [2, 0]
    assert tracker.recs[0].complete and not tracker.recs[1].complete


def test_coverage_single_round_example():
    # one broadcast, four nodes, two receipts: exactly half covered
    assert coverage_percent([2], rounds=1, n_nodes=4) == 50.0


def test_coverage_aggregates_repeats():
    # 5 repeats of 1 round in a 100-node network, 80 receipts each
    assert coverage_percent([80] * 5, rounds=1, n_nodes=100) == 80.0
    assert coverage_percent([0, 0], rounds=3, n_nodes=10) == 0.0


def test_coverage_validation():
    with pytest.raises(ConfigurationError):
        coverage_percent([], rounds=1, n_nodes=10)
    with pytest.raises(ConfigurationError):
        coverage_percent([5], rounds=0, n_nodes=10)
    with pytest.raises(ConfigurationError):
        coverage_percent([5], rounds=1, n_nodes=0)


def test_coverage_bounds_and_permutation_invariance():
    rng = random.Random(71)
    for _ in range(200):
        repeats = rng.randrange(1, 6)
        rounds = rng.randrange(1, 20)
        n = rng.randrange(1, 50)
        totals = [rng.randrange(0, rounds * n + 1) for _ in range(repeats)]
        value = coverage_percent(totals, rounds, n)
        assert 0.0 <= value <= 100.0
        shuffled = totals[:]
        rng.shuffle(shuffled)
        assert coverage_percent(shuffled, rounds, n) == value


def test_honest_coverage_examples():
    # 400 honest receipts out of 1 round x 500 honest nodes
    assert honest_coverage_percent([400], rounds=1, honest_counts=[500]) == 80.0
    assert honest_coverage_percent([100, 100], rounds=2, honest_counts=[50, 50]) == 100.0


def test_honest_coverage_validation():
    with pytest.raises(ConfigurationError):
        honest_coverage_percent([5], rounds=1, honest_counts=[])
    with pytest.raises(ConfigurationError):
        honest_coverage_percent([5, 5], rounds=1, honest_counts=[10])
    with pytest.raises(ConfigurationError):
        honest_coverage_percent([5], rounds=0, honest_counts=[10])
    with pytest.raises(ConfigurationError):
        honest_coverage_percent([5], rounds=1, honest_counts=[0])


def test_honest_denominator_never_understates():
    # against the same honest-receipt tallies, shrinking the population
    # to the honest subset can only raise the percentage
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randrange(2, 60)
        honest = rng.randrange(1, n + 1)
        rounds = rng.randrange(1, 10)
        repeats = rng.randrange(1, 4)
        totals = [rng.randrange(0, rounds * honest + 1) for _ in range(repeats)]
        full = coverage_percent(totals, rounds, n)
        restricted = honest_coverage_percent(totals, rounds, [honest] * repeats)
        assert restricted >= full


def test_online_population_counts_the_initiator():
    # nodes 0 and 2 of 4 are online when node 2 starts a broadcast
    tracker = BroadcastTracker(n_nodes=4)
    tracker.initiate(7, initiator=2, t=0, online=0b0101)
    rec = tracker.recs[0]
    assert rec.online_count == 2
    assert rec.online_received == 1
    tracker.receive(7, 300, honest=True, node=0)
    assert rec.online_received == 2
    assert tracker.online_population_total() == 2
    assert tracker.online_received_total() == 2
    assert online_unreceived_percent([2], [2]) == 0.0


def test_online_population_ignores_a_node_back_mid_broadcast():
    # node 1 was offline at the start and came back before the copy arrived
    tracker = BroadcastTracker(n_nodes=3)
    tracker.initiate(7, initiator=0, t=0, online=0b101)
    tracker.receive(7, 400, honest=True, node=1)
    rec = tracker.recs[0]
    assert rec.received_count == 2
    assert rec.online_received == 1
    assert rec.online_count == 2
    # node 2 was online at the start and never got it: half unreceived
    assert online_unreceived_percent(
        [tracker.online_received_total()], [tracker.online_population_total()]
    ) == 50.0


def test_online_population_of_a_skipped_broadcast_is_empty():
    tracker = BroadcastTracker(n_nodes=4)
    tracker.initiate_skipped(7, initiator=1, t=0)
    assert tracker.online_population_total() == 0
    assert online_unreceived_percent([0], [0]) is None


def test_online_unreceived_validation():
    with pytest.raises(ConfigurationError):
        online_unreceived_percent([1, 2], [3])
    assert online_unreceived_percent([3, 1], [4, 4]) == 50.0


def test_online_unreceived_equals_unreceived_without_churn():
    # refusers cut coverage short, but everyone stays online
    cfg = build_config(
        scenario="coverage_refuse",
        overrides={"n_nodes": "32", "rounds_per_node": "1", "repeats": "2", "betas": "1"},
    )
    for cell in run_scenario(cfg)["cells"]:
        assert cell["unreceived_pct"] > 0
        assert cell["online_unreceived_pct"] == cell["unreceived_pct"]


def test_online_receipts_stay_within_online_population_under_churn():
    spec = RunSpec(
        n_nodes=40,
        variant="ne",
        redundancy=2,
        rounds_per_node=3,
        interval_us=50_000,
        seed=5,
        disturbance="churn_periodic",
        disturbance_period_us=2_000_000,
    )
    result = execute_run(spec)
    assert 0 < result.online_population < len(result.rows) * spec.n_nodes
    assert 0 < result.online_received_total <= result.online_population
    # returners pick up broadcasts that started while they were down
    assert result.online_received_total < result.received_total
