"""Routing-table tests: rank weights, score ordering, table layout, weighted selection.

Two oracles anchor this module. The selection oracle enumerates every
ordered draw sequence and sums exact probabilities, so the sampling
code is checked against arithmetic, not against itself. The ordering
oracle re-derives each bucket's full peer order with a stable sort by
score.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import permutations

from nebcast.netsim import NetworkConfig, bootstrap_topology
from nebcast.routing import (
    Bucket,
    RoutingTable,
    probe_set,
    rank_weights,
    select_relays,
    select_uniform,
)
from nebcast.seeding import stream


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


def _bucket(capacity: int, size: int) -> Bucket:
    """A bucket holding ids 100, 101, ... at score 0, in that rank order."""
    peers = [100 + i for i in range(size)]
    bucket = Bucket(capacity, dict.fromkeys(peers, 0))
    bucket.peers += peers
    return bucket


def _saturated_bucket(capacity: int) -> Bucket:
    return _bucket(capacity, capacity)


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
    table.insert_peer(8)
    table.insert_peer(4)
    for _ in range(5):
        table.add_score(8)
    assert table.scores()[8] == 5
    table.clear()
    assert 8 not in table and len(table) == 0
    assert all(not bucket.peers for bucket in table.buckets)
    assert table.insert_peer(8)
    assert table.scores()[8] == 0


def test_add_score_unknown_peer_is_ignored():
    table = RoutingTable(owner=0, width=4, capacity=3)
    table.add_score(8)
    assert 8 not in table
    assert table.scores() == {}


def test_bucket_order_invariant_under_random_operations():
    # ordering oracle: after each operation every bucket reads as a stable
    # sort of its previous order by score, highest first, with a newly
    # filed peer appended at the back
    rng = random.Random(41)
    for trial in range(50):
        table = RoutingTable(owner=0, width=8, capacity=15)
        model: list[list[int]] = [[] for _ in table.buckets]
        for _ in range(400):
            action = rng.random()
            peer = rng.randrange(1, 256)
            index = table.width - peer.bit_length()
            if action < 0.4:
                if table.insert_peer(peer):
                    model[index].append(peer)
                _assert_order(table, model)
            elif action < 0.99:
                for _ in range(rng.randrange(1, 4)):
                    table.add_score(peer)
                    scores = table.scores()
                    model[index].sort(key=lambda p: -scores[p])
                    _assert_order(table, model)
            else:
                table.clear()
                model = [[] for _ in table.buckets]
                _assert_order(table, model)


def _assert_order(table: RoutingTable, model: list[list[int]]) -> None:
    assert [bucket.peers for bucket in table.buckets] == model


def test_equal_scores_keep_the_order_they_were_reached_in():
    table = RoutingTable(owner=0, width=4, capacity=3)
    assert table.insert_peer(8) and table.insert_peer(9)
    table.add_score(9)
    table.add_score(8)
    assert table.buckets[0].peers == [9, 8]


def test_scores_snapshot_tracks_entries():
    table = RoutingTable(owner=0, width=4, capacity=7)
    table.insert_peer(8)
    table.insert_peer(4)
    table.add_score(8)
    table.add_score(8)
    assert table.scores() == {8: 2, 4: 0}


def _assert_layout(table: RoutingTable, filed: list[int]) -> None:
    scores = table.scores()
    assert list(table) == filed
    assert len(table) == sum(len(bucket) for bucket in table.buckets)
    assert {peer for bucket in table.buckets for peer in bucket.peers} == set(table)
    for bucket in table.buckets:
        assert bucket.entries == [(peer, scores[peer]) for peer in bucket.peers]
        ranked = [scores[peer] for peer in bucket.peers]
        assert ranked == sorted(ranked, reverse=True)


def test_table_layout_holds_after_bootstrap_and_scoring():
    # iteration keeps the filing order, which gossip draws from, while
    # scoring reorders the buckets; the shared score dict and the
    # buckets' id lists always hold the same peers
    nodes, _ = bootstrap_topology(NetworkConfig(n_nodes=200), stream(1, "topology", 0))
    filed = {node.id: [peer for b in node.table.buckets for peer in b.peers] for node in nodes}
    for node in nodes:
        _assert_layout(node.table, filed[node.id])
    rng = random.Random(6)
    for _ in range(600):
        table = rng.choice(nodes).table
        table.add_score(rng.choice(filed[table.owner]))
    assert any(set(node.table.scores().values()) != {0} for node in nodes)
    for node in nodes:
        _assert_layout(node.table, filed[node.id])
    entry = next(b for b in nodes[0].table.buckets if b.peers).entries[0]
    assert (entry.peer, entry.score) == entry


def test_an_n2000_overlay_stays_small():
    # ids in flat lists and one score dict per table trace about 15 MiB;
    # an object per bucket entry would take the overlay to about 26 MiB
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        overlay = bootstrap_topology(NetworkConfig(n_nodes=2000), stream(1, "topology", 0))
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert len(overlay[0]) == 2000
    assert traced < 20 * 2**20


def test_select_relays_returns_all_without_touching_rng():
    class ExplodingRng:
        def random(self):
            raise AssertionError("rng must not be consumed when beta covers the bucket")

    bucket = _saturated_bucket(7)
    picked = select_relays(bucket, beta=7, rng=ExplodingRng())
    assert picked == bucket.peers and picked is not bucket.peers
    picked = select_relays(bucket, beta=12, rng=ExplodingRng())
    assert len(picked) == 7


def test_select_relays_empty_bucket():
    assert select_relays(Bucket(7, {}), beta=2, rng=random.Random(1)) == []


def test_select_relays_no_duplicates_and_within_bucket():
    rng = random.Random(5)
    bucket = _saturated_bucket(15)
    members = set(bucket.peers)
    for beta in (1, 2, 4, 8):
        for _ in range(200):
            picked = select_relays(bucket, beta, rng)
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
        counts[picked[0] - 100] += 1
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
        picked = tuple(peer - 100 for peer in select_relays(bucket, beta=2, rng=rng))
        counts[picked] += 1
    for order, p in exact.items():
        assert abs(counts[order] / trials - p) < 0.02


def test_select_relays_unsaturated_bucket_uses_occupied_ranks():
    # 3 peers in a capacity-7 bucket: live weights are 4, 2, 2
    rng = random.Random(31)
    bucket = _bucket(7, 3)
    counts = dict.fromkeys(range(3), 0)
    trials = 20_000
    for _ in range(trials):
        picked = select_relays(bucket, beta=1, rng=rng)
        counts[picked[0] - 100] += 1
    for rank, expected in enumerate((0.5, 0.25, 0.25)):
        assert abs(counts[rank] / trials - expected) < 0.03


def test_select_relays_deterministic_for_fixed_seed():
    bucket = _saturated_bucket(15)
    a = [peer for _ in range(50) for peer in select_relays(bucket, 3, random.Random(77))]
    b = [peer for _ in range(50) for peer in select_relays(bucket, 3, random.Random(77))]
    assert a == b


def test_select_uniform_covers_and_bounds():
    rng = random.Random(9)
    bucket = _saturated_bucket(7)
    picked = select_uniform(bucket, beta=7, rng=rng)
    assert len(picked) == 7
    picked = select_uniform(bucket, beta=3, rng=rng)
    assert len(picked) == 3


def test_select_uniform_is_unbiased_enough():
    rng = random.Random(15)
    bucket = _saturated_bucket(7)
    counts = dict.fromkeys(range(7), 0)
    trials = 14_000
    for _ in range(trials):
        counts[select_uniform(bucket, 1, rng)[0] - 100] += 1
    for rank in range(7):
        assert abs(counts[rank] / trials - 1 / 7) < 0.03


def test_probe_set_partition():
    bucket = _saturated_bucket(7)
    rng = random.Random(3)
    for beta in (1, 2, 5, 7):
        relays = select_relays(bucket, beta, rng)
        probes = probe_set(bucket, relays)
        relay_ids = set(relays)
        probe_ids = set(probes)
        assert relay_ids.isdisjoint(probe_ids)
        assert relay_ids | probe_ids == set(bucket.peers)
        assert len(relays) + len(probes) == len(bucket)


def test_probe_set_whole_bucket_selected():
    bucket = _saturated_bucket(3)
    assert probe_set(bucket, list(bucket.peers)) == []
    assert probe_set(bucket, []) == bucket.peers
