"""Routing-table tests: rank weights, score ordering, weighted selection.

Two oracles anchor this module. The selection oracle enumerates every
ordered draw sequence and sums exact probabilities, so the sampling
code is checked against arithmetic, not against itself. The ordering
oracle re-derives the expected bucket order from a plain sort key.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from nebcast.errors import ConfigurationError
from nebcast.routing import (
    Bucket,
    RoutingTable,
    probe_set,
    rank_weights,
    select_relays,
    select_uniform,
)


def _exact_draw_probs(weights: list[int], beta: int) -> dict[tuple[int, ...], float]:
    """Probability of every ordered selection of ``beta`` ranks.

    Straight product of conditional draw probabilities per the
    without-replacement rule: each factor is the rank's weight over the
    weight still unselected.
    """
    probs: dict[tuple[int, ...], float] = {}
    total = sum(weights)
    for order in permutations(range(len(weights)), beta):
        p = 1.0
        remaining = total
        for rank in order:
            p *= weights[rank] / remaining
            remaining -= weights[rank]
        probs[order] = p
    return probs


def _saturated_bucket(capacity: int) -> Bucket:
    bucket = Bucket(capacity)
    for i in range(capacity):
        bucket.entries.append(_entry(peer=100 + i, inserted_at=i))
    return bucket


def _entry(peer: int, score: int = 0, inserted_at: int = 0):
    from nebcast.routing import PeerEntry

    return PeerEntry(peer, score, inserted_at)


def test_rank_weights_capacity_7():
    assert rank_weights(7) == (4, 2, 2, 1, 1, 1, 1)


def test_rank_weights_capacity_15():
    weights = rank_weights(15)
    assert weights == (8, 4, 4, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1)
    assert weights[0] == 8 and weights[14] == 1


def test_rank_weights_small_capacities():
    assert rank_weights(1) == (1,)
    assert rank_weights(3) == (2, 1, 1)


def test_rank_weights_group_sums_equal():
    # every group carries the same total weight, so saturated groups
    # are equally likely to supply the first draw
    for capacity in (3, 7, 15, 31):
        weights = rank_weights(capacity)
        sums = []
        start = 0
        size = 1
        while start < capacity:
            sums.append(sum(weights[start : start + size]))
            start += size
            size *= 2
        assert len(set(sums)) == 1


def test_weight_of_rank_validation():
    # one weight per rank of the bucket, and none beyond its capacity
    weights = rank_weights(7)
    assert weights[0] == 4
    assert len(weights) == 7
    for bad_capacity in (0, 2, 4, 6, 16):
        with pytest.raises(ConfigurationError):
            rank_weights(bad_capacity)


def test_insert_rejects_self_duplicate_and_overflow():
    table = RoutingTable(owner=0, width=4, capacity=3)
    assert not table.insert_peer(0)
    # ids 8..15 all share zero prefix bits with owner 0, so they contend
    # for bucket 0
    assert table.insert_peer(8)
    assert not table.insert_peer(8)
    assert table.insert_peer(9)
    assert table.insert_peer(10)
    assert not table.insert_peer(11)
    assert 11 not in table
    assert len(table) == 3


def test_remove_and_reinsert_drops_score():
    # a peer leaves a table only when churn clears the whole table
    table = RoutingTable(owner=0, width=4, capacity=3)
    table.insert_peer(8, now=0)
    table.insert_peer(4, now=1)
    table.add_score(8, 5)
    assert table.entry_for(8).score == 5
    table.clear()
    assert 8 not in table and len(table) == 0
    assert all(not bucket.entries for bucket in table.buckets)
    assert table.insert_peer(8, now=9)
    assert table.entry_for(8).score == 0
    assert table.entry_for(8).inserted_at == 9


def test_add_score_unknown_peer_is_ignored():
    table = RoutingTable(owner=0, width=4, capacity=3)
    assert table.add_score(8) == 0
    assert table.add_score(8, 3) == 0
    assert 8 not in table


def test_add_score_rejects_negative():
    table = RoutingTable(owner=0, width=4, capacity=3)
    table.insert_peer(8)
    with pytest.raises(ConfigurationError):
        table.add_score(8, -1)


def test_bucket_order_invariant_under_random_operations():
    # ordering oracle: after any operation sequence the bucket must read
    # as sorted by score descending, then insertion time ascending
    rng = random.Random(41)
    for trial in range(50):
        table = RoutingTable(owner=0, width=8, capacity=15)
        peers = list(range(128, 256))
        now = 0
        for _ in range(400):
            action = rng.random()
            peer = rng.choice(peers)
            if action < 0.4:
                table.insert_peer(peer, now=now)
                now += 1
            elif action < 0.99:
                table.add_score(peer, rng.randrange(1, 4))
            else:
                table.clear()
            for bucket in table.buckets:
                keys = [(-e.score, e.inserted_at) for e in bucket.entries]
                assert keys == sorted(keys)


def test_scores_snapshot_tracks_entries():
    table = RoutingTable(owner=0, width=4, capacity=7)
    table.insert_peer(8)
    table.insert_peer(4)
    table.add_score(8, 2)
    assert table.scores() == {8: 2, 4: 0}


def test_select_relays_returns_all_without_touching_rng():
    class ExplodingRng:
        def random(self):
            raise AssertionError("rng must not be consumed when beta covers the bucket")

    bucket = _saturated_bucket(7)
    picked = select_relays(bucket, beta=7, rng=ExplodingRng())
    assert [e.peer for e in picked] == [e.peer for e in bucket.entries]
    picked = select_relays(bucket, beta=12, rng=ExplodingRng())
    assert len(picked) == 7


def test_select_relays_empty_bucket():
    assert select_relays(Bucket(7), beta=2, rng=random.Random(1)) == []


def test_select_relays_rejects_bad_beta():
    with pytest.raises(ConfigurationError):
        select_relays(_saturated_bucket(7), beta=0, rng=random.Random(1))


def test_select_relays_no_duplicates_and_within_bucket():
    rng = random.Random(5)
    bucket = _saturated_bucket(15)
    members = {e.peer for e in bucket.entries}
    for beta in (1, 2, 4, 8):
        for _ in range(200):
            picked = [e.peer for e in select_relays(bucket, beta, rng)]
            assert len(picked) == len(set(picked)) == beta
            assert set(picked) <= members


def test_select_relays_first_draw_frequencies():
    # lighter companion of the acceptance check: 20k draws, 3% slack
    rng = random.Random(23)
    bucket = _saturated_bucket(7)
    counts = dict.fromkeys(range(7), 0)
    trials = 20_000
    for _ in range(trials):
        picked = select_relays(bucket, beta=1, rng=rng)
        counts[picked[0].peer - 100] += 1
    weights = rank_weights(7)
    total = sum(weights)
    for rank in range(7):
        expected = weights[rank] / total
        assert abs(counts[rank] / trials - expected) < 0.03


def test_select_relays_pair_frequencies_match_enumeration():
    rng = random.Random(29)
    bucket = _saturated_bucket(3)
    exact = _exact_draw_probs(list(rank_weights(3)), beta=2)
    counts = dict.fromkeys(exact, 0)
    trials = 30_000
    for _ in range(trials):
        picked = tuple(e.peer - 100 for e in select_relays(bucket, beta=2, rng=rng))
        counts[picked] += 1
    for order, p in exact.items():
        assert abs(counts[order] / trials - p) < 0.02


def test_select_relays_unsaturated_bucket_uses_occupied_ranks():
    # 3 entries in a capacity-7 bucket: live weights are 4, 2, 2
    rng = random.Random(31)
    bucket = Bucket(7)
    for i in range(3):
        bucket.entries.append(_entry(peer=100 + i, inserted_at=i))
    counts = dict.fromkeys(range(3), 0)
    trials = 20_000
    for _ in range(trials):
        picked = select_relays(bucket, beta=1, rng=rng)
        counts[picked[0].peer - 100] += 1
    for rank, expected in enumerate((0.5, 0.25, 0.25)):
        assert abs(counts[rank] / trials - expected) < 0.03


def test_select_relays_deterministic_for_fixed_seed():
    bucket = _saturated_bucket(15)
    a = [e.peer for _ in range(50) for e in select_relays(bucket, 3, random.Random(77))]
    b = [e.peer for _ in range(50) for e in select_relays(bucket, 3, random.Random(77))]
    assert a == b


def test_select_uniform_covers_and_bounds():
    rng = random.Random(9)
    bucket = _saturated_bucket(7)
    picked = select_uniform(bucket, beta=7, rng=rng)
    assert len(picked) == 7
    picked = select_uniform(bucket, beta=3, rng=rng)
    assert len(picked) == 3
    with pytest.raises(ConfigurationError):
        select_uniform(bucket, beta=0, rng=rng)


def test_select_uniform_is_unbiased_enough():
    rng = random.Random(15)
    bucket = _saturated_bucket(7)
    counts = dict.fromkeys(range(7), 0)
    trials = 14_000
    for _ in range(trials):
        counts[select_uniform(bucket, 1, rng)[0].peer - 100] += 1
    for rank in range(7):
        assert abs(counts[rank] / trials - 1 / 7) < 0.03


def test_probe_set_partition():
    bucket = _saturated_bucket(7)
    rng = random.Random(3)
    for beta in (1, 2, 5, 7):
        relays = select_relays(bucket, beta, rng)
        probes = probe_set(bucket, relays)
        relay_ids = {e.peer for e in relays}
        probe_ids = {e.peer for e in probes}
        assert relay_ids.isdisjoint(probe_ids)
        assert relay_ids | probe_ids == {e.peer for e in bucket.entries}
        assert len(relays) + len(probes) == len(bucket)


def test_probe_set_whole_bucket_selected():
    bucket = _saturated_bucket(3)
    assert probe_set(bucket, list(bucket.entries)) == []
    probes = probe_set(bucket, [])
    assert [e.peer for e in probes] == [e.peer for e in bucket.entries]
