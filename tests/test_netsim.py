"""Network simulation tests: link model, bootstrap, churn, engine audits.

The heavier checks run a real engine with full event logging and then
audit the log against the physical rules (causality, upstream
serialization, offline isolation), so the optimized inline scheduling
in the loop is verified against the documented link model.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappush
from random import Random

import pytest

from nebcast.errors import ConfigurationError
from nebcast.netsim import (
    BANDWIDTH_CLASSES,
    DELAY_US,
    DELIVER,
    REGION_PROPORTIONS,
    BANDWIDTH_PROPORTIONS,
    Engine,
    NetworkConfig,
    NodeNetProfile,
    apply_disturbance,
    assign_refusers,
    bootstrap_topology,
    fill_table,
    fully_reachable,
)
from nebcast.identity import sample_ids
from nebcast.protocol import DATA_BYTES, Message, NodeState
from nebcast.routing import RoutingTable
from nebcast.seeding import stream


def _config(n: int, bits: int = 16, capacity: int = 15) -> NetworkConfig:
    return NetworkConfig(n, address_bits=bits, bucket_capacity=capacity)


def _network(n: int, seed: int = 1, bits: int = 16, capacity: int = 15):
    config = _config(n, bits=bits, capacity=capacity)
    nodes, profiles = bootstrap_topology(config, stream(seed, "topology", 0))
    return nodes, profiles, config


def test_delay_matrix_is_symmetric_with_table_values():
    assert DELAY_US[0][0] == 10_000
    assert DELAY_US[1][1] == 3_000
    assert DELAY_US[2][2] == 7_000
    assert DELAY_US[3][3] == 8_000
    assert DELAY_US[0][1] == 200_000
    for i in range(4):
        for j in range(4):
            assert DELAY_US[i][j] == DELAY_US[j][i]
    assert sum(REGION_PROPORTIONS) == 100
    assert sum(BANDWIDTH_PROPORTIONS) == 100
    assert BANDWIDTH_CLASSES == (512_000, 256_000, 128_000, 64_000)


def _link_engine(specs, payload: int = DATA_BYTES) -> Engine:
    """An engine over hand-placed nodes in a 2-bit id space.

    ``specs`` holds (id, region, upstream bps) per node. Every bucket
    holds one peer, so each send goes to a fixed peer without a draw.
    """
    nodes = []
    for node_id, _, _ in specs:
        table = RoutingTable(node_id, 2, 1)
        for other, _, _ in specs:
            table.insert_peer(other)
        nodes.append(NodeState(node_id, table))
    profiles = [NodeNetProfile(region, bps) for _, region, bps in specs]
    config = NetworkConfig(len(specs), address_bits=2, bucket_capacity=1, data_msg_bytes=payload)
    return Engine(nodes, profiles, config, Random(0), collect_log=True)


def _send_times(engine: Engine) -> list[tuple[int, int]]:
    """(transmission start, arrival) of every logged send, in log order."""
    return [(entry[7], entry[8]) for entry in engine.log if entry[0] == "send"]


def test_transmission_schedule_idle_sender():
    engine = _link_engine([(0, 0, 512_000), (2, 0, 512_000)])
    engine.push_initiate(1000, 0)
    engine.run()
    # 128 bytes at 512 kbit/s hold the upstream for 2 ms
    assert _send_times(engine) == [(1000, 1000 + 2000 + 10_000)]
    assert engine.profiles[0].busy_until == 3000


def test_transmission_schedule_zero_bytes():
    engine = _link_engine([(0, 1, 512_000), (2, 2, 512_000)], payload=0)
    engine.push_initiate(500, 0)
    engine.run()
    assert _send_times(engine) == [(500, 500 + DELAY_US[1][2])]
    assert engine.profiles[0].busy_until == 500


def test_transmission_schedule_serializes_back_to_back():
    # node 0 files 2 in bucket 0 and 1 in bucket 1, so each broadcast
    # sends twice; the second broadcast queues behind the first
    engine = _link_engine([(0, 0, 64_000), (2, 0, 64_000), (1, 0, 64_000)])
    engine.push_initiate(0, 0)
    engine.push_initiate(5000, 0)
    engine.run()
    assert _send_times(engine) == [
        (0, 16_000 + 10_000),
        (16_000, 32_000 + 10_000),
        (32_000, 48_000 + 10_000),
        (48_000, 64_000 + 10_000),
    ]
    assert engine.profiles[0].busy_until == 64_000


def test_transmission_schedule_rounds_up():
    engine = _link_engine([(0, 0, 512_000), (2, 0, 512_000)], payload=1)
    engine.push_initiate(0, 0)
    engine.run()
    # 8 bits at 512 kbps is 15.625 μs, which must not round down
    assert _send_times(engine) == [(0, 16 + 10_000)]
    assert engine.profiles[0].busy_until == 16


def test_network_config_validation():
    _config(1)
    with pytest.raises(ConfigurationError):
        NetworkConfig(0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(17, address_bits=4)


def _assert_filled(table: RoutingTable, all_ids: list[int], capacity: int) -> None:
    """Each bucket holds min(capacity, ids in its range) distinct network ids of that range."""
    width = table.width
    population = Counter(
        width - (table.owner ^ other).bit_length() for other in all_ids if other != table.owner
    )
    members = set(all_ids)
    for i, bucket in enumerate(table.buckets):
        peers = [entry.peer for entry in bucket.entries]
        assert len(peers) == min(capacity, population[i])
        assert len(set(peers)) == len(peers)
        assert table.owner not in peers
        for peer in peers:
            assert peer in members
            assert width - (table.owner ^ peer).bit_length() == i


FILL_CASES = [(2, 16, 15), (64, 16, 15), (1000, 16, 15), (16, 4, 3)]


@pytest.mark.parametrize("n,bits,capacity", FILL_CASES)
def test_bootstrap_fills_every_bucket_to_its_range(n, bits, capacity):
    nodes, _, _ = _network(n, seed=3, bits=bits, capacity=capacity)
    ids = [node.id for node in nodes]
    for node in nodes:
        _assert_filled(node.table, ids, capacity)


@pytest.mark.parametrize("n,bits,capacity", FILL_CASES)
def test_churn_returners_fill_every_bucket_to_its_range(n, bits, capacity):
    nodes, profiles, _ = _network(n, seed=3, bits=bits, capacity=capacity)
    ids = [node.id for node in nodes]
    rng = Random(5)
    returners = 0
    for step in range(1, 9):
        was_online = [node.online for node in nodes]
        apply_disturbance(nodes, rng, "churn", profiles, now=step)
        for before, node in zip(was_online, nodes):
            if node.online and not before:
                returners += 1
                _assert_filled(node.table, ids, capacity)
    assert returners > 0


def _offer_everyone(table: RoutingTable, ids: list[int], rng: Random) -> None:
    """The earlier fill rule, kept as the reference law: offer every other
    id in a uniform shuffle and keep what the buckets accept."""
    candidates = [other for other in ids if other != table.owner]
    rng.shuffle(candidates)
    for peer in candidates:
        table.insert_peer(peer, 0)


def test_fill_has_the_law_of_offering_everyone():
    # an id whose bucket range holds p ids is kept with probability
    # min(capacity, p) / p and ranked first with probability 1 / p under
    # both rules; 8000 trials put one standard deviation at most 0.0056,
    # so 0.025 is about 4.5 of them
    width, capacity, trials, tolerance = 5, 3, 8000, 0.025
    ids = sample_ids(20, width, Random(0))
    owner = ids[0]
    sorted_ids = sorted(ids)
    population = Counter(width - (owner ^ other).bit_length() for other in ids[1:])
    assert max(population.values()) > capacity >= min(population.values())

    def frequencies(fill) -> tuple[Counter, Counter]:
        kept: Counter = Counter()
        first: Counter = Counter()
        for seed in range(trials):
            table = RoutingTable(owner, width, capacity)
            fill(table, Random(seed))
            for bucket in table.buckets:
                kept.update(entry.peer for entry in bucket.entries)
                if bucket.entries:
                    first[bucket.entries[0].peer] += 1
        return kept, first

    sampled = frequencies(lambda table, rng: fill_table(table, sorted_ids, rng, 0))
    offered = frequencies(lambda table, rng: _offer_everyone(table, ids, rng))
    for peer in ids[1:]:
        p = population[width - (owner ^ peer).bit_length()]
        for kept, first in (sampled, offered):
            assert abs(kept[peer] / trials - min(capacity, p) / p) < tolerance
            assert abs(first[peer] / trials - 1 / p) < tolerance


def test_bootstrap_two_nodes_know_each_other():
    nodes, profiles, _ = _network(2, seed=3)
    a, b = nodes
    assert b.id in a.table and a.id in b.table
    assert len(a.table) == len(b.table) == 1
    for profile in profiles:
        assert profile.region in (0, 1, 2, 3)
        assert profile.upstream_bps in BANDWIDTH_CLASSES


def test_bootstrap_is_deterministic():
    first_nodes, first_profiles, _ = _network(64, seed=9)
    second_nodes, second_profiles, _ = _network(64, seed=9)
    assert [n.id for n in first_nodes] == [n.id for n in second_nodes]
    for a, b in zip(first_nodes, second_nodes):
        assert a.table.scores() == b.table.scores()
        for ba, bb in zip(a.table.buckets, b.table.buckets):
            assert [e.peer for e in ba.entries] == [e.peer for e in bb.entries]
    assert [(p.region, p.upstream_bps) for p in first_profiles] == [
        (p.region, p.upstream_bps) for p in second_profiles
    ]


def test_bootstrap_matches_declared_proportions():
    nodes, profiles, _ = _network(2000, seed=5)
    region_counts = [0, 0, 0, 0]
    bw_counts = dict.fromkeys(BANDWIDTH_CLASSES, 0)
    for profile in profiles:
        region_counts[profile.region] += 1
        bw_counts[profile.upstream_bps] += 1
    for share, count in zip(REGION_PROPORTIONS, region_counts):
        assert abs(count / 2000 - share / 100) < 0.04
    for share, bw in zip(BANDWIDTH_PROPORTIONS, BANDWIDTH_CLASSES):
        assert abs(bw_counts[bw] / 2000 - share / 100) < 0.04


def test_bootstrap_need_not_be_symmetric():
    # with tiny buckets rejections are guaranteed, so some edge must be
    # one-directional
    nodes, _, _ = _network(60, seed=2, bits=16, capacity=3)
    by_id = {node.id: node for node in nodes}
    asymmetric = 0
    for node in nodes:
        for peer in list(node.table.scores()):
            if node.id not in by_id[peer].table:
                asymmetric += 1
    assert asymmetric > 0


def test_fully_reachable_on_bootstrap_overlays():
    for seed in (1, 2, 3, 4, 5):
        config = _config(1000)
        nodes, _ = bootstrap_topology(config, stream(seed, "topology", 0))
        assert fully_reachable(nodes, config.address_bits)


def test_fully_reachable_spots_a_hole():
    table = RoutingTable(0, 4, 15)
    holder = NodeState(0, table)
    other = NodeState(8, RoutingTable(8, 4, 15))
    # node 0 never learned about node 8 even though bucket 0's range is
    # populated, so subtree broadcasts from 8's side cannot reach it
    assert not fully_reachable([holder, other], 4)
    table.insert_peer(8)
    other.table.insert_peer(0)
    assert fully_reachable([holder, other], 4)


def test_assign_refusers_marks_exactly_half():
    nodes, _, _ = _network(50, seed=7)
    chosen = assign_refusers(nodes, Random(11))
    assert len(chosen) == 25
    assert sum(node.refuses_relay for node in nodes) == 25


def test_churn_top_serial_always_fails():
    for seed in range(8):
        nodes, profiles, _ = _network(20, seed=4)
        apply_disturbance(nodes, Random(seed), "churn", profiles)
        assert not nodes[-1].online


def test_churn_offline_fraction_near_half():
    total = 0
    trials = 30
    n = 100
    nodes, profiles, _ = _network(n, seed=6)
    for seed in range(trials):
        for node in nodes:
            node.online = True
        apply_disturbance(nodes, Random(seed), "churn", profiles)
        total += sum(not node.online for node in nodes)
    fraction = total / (trials * n)
    assert abs(fraction - (n + 1) / (2 * n)) < 0.05


def _bucket_peers(node: NodeState) -> list[list[int]]:
    return [[entry.peer for entry in bucket.entries] for bucket in node.table.buckets]


def test_churn_clears_casualties_and_rebootstraps_returners():
    nodes, profiles, _ = _network(30, seed=8)
    ids = [node.id for node in nodes]
    nodes[10].tickets.add((1, 2))
    profiles[-1].busy_until = 99_999
    rng = Random(3)
    apply_disturbance(nodes, rng, "churn", profiles, now=60)
    for i, node in enumerate(nodes):
        if not node.online:
            assert len(node.table) == 0
            assert not node.tickets
            assert profiles[i].busy_until == 0
        else:
            _assert_filled(node.table, ids, 15)
    survivors = {i: _bucket_peers(node) for i, node in enumerate(nodes) if node.online}
    was_online = [node.online for node in nodes]
    # returning nodes rebuild full tables at the disturbance time, blind
    # to who is online; survivors keep theirs entry for entry
    apply_disturbance(nodes, rng, "churn", profiles, now=120)
    returners = 0
    for i, node in enumerate(nodes):
        if not node.online:
            assert len(node.table) == 0
        elif was_online[i]:
            assert _bucket_peers(node) == survivors[i]
        else:
            returners += 1
            _assert_filled(node.table, ids, 15)
            for bucket in node.table.buckets:
                assert all(e.score == 0 and e.inserted_at == 120 for e in bucket.entries)
    assert returners > 0


def test_churn_survivors_keep_their_tables():
    nodes, profiles, _ = _network(30, seed=12)
    nodes[0].table.add_score(next(iter(nodes[0].table.scores())), 5)
    before = nodes[0].table.scores()
    # serial 1 fails with probability 1/30; find an rng that spares it
    for seed in range(20):
        rng = Random(seed)
        if rng.random() >= 1 / 30:
            apply_disturbance(nodes, Random(seed), "churn", profiles)
            break
    assert nodes[0].online
    assert nodes[0].table.scores() == before


def test_apply_disturbance_rejects_unknown_mode():
    nodes, profiles, _ = _network(4, seed=1)
    with pytest.raises(ConfigurationError):
        apply_disturbance(nodes, Random(1), "meteor", profiles)


def _run_engine(
    n: int,
    seed: int,
    broadcasts: int,
    interval_us: int = 2_000,
    beta: int = 1,
    ne: bool = False,
    churn_at: list[int] | None = None,
    capacity: int = 15,
):
    config = _config(n, capacity=capacity)
    nodes, profiles = bootstrap_topology(config, stream(seed, "topology", 0))
    engine = Engine(
        nodes,
        profiles,
        config,
        stream(seed, "protocol", 0),
        beta=beta,
        ne_enabled=ne,
        disturb_rng=stream(seed, "disturb", 0),
        collect_log=True,
    )
    for t in churn_at or []:
        engine.push_disturbance(t)
    for j in range(broadcasts):
        engine.push_initiate(j * interval_us, j % n)
    engine.run()
    return engine


def test_empty_queue_runs_to_empty_log():
    nodes, profiles, config = _network(4, seed=1)
    engine = Engine(nodes, profiles, config, Random(1), collect_log=True)
    engine.run()
    assert engine.log == []
    assert engine.now == 0 and not engine.truncated


def test_single_broadcast_eight_nodes_delivers_exactly_once():
    engine = _run_engine(8, seed=21, broadcasts=1)
    accepted = [e for e in engine.log if e[0] == "deliver" and e[5]]
    rejected = [e for e in engine.log if e[0] == "deliver" and not e[5]]
    assert len(accepted) == 7
    assert rejected == []
    assert engine.data_sends == 7
    assert engine.duplicates == 0


def test_engine_replay_is_identical():
    first = _run_engine(40, seed=31, broadcasts=80, beta=2, ne=True, churn_at=[0, 60_000])
    second = _run_engine(40, seed=31, broadcasts=80, beta=2, ne=True, churn_at=[0, 60_000])
    assert first.log == second.log
    assert first.data_sends == second.data_sends
    assert first.confirm_sends == second.confirm_sends


def test_send_log_obeys_link_model():
    engine = _run_engine(24, seed=17, broadcasts=48, beta=2, ne=True)
    profiles = engine.profiles
    idx_of = engine.idx_of
    per_sender: dict[int, list[tuple[int, int]]] = {}
    for entry in engine.log:
        if entry[0] != "send":
            continue
        _, t, sender, dest, _h, size, _confirm, start, arrival, _relay = entry
        prof = profiles[idx_of[sender]]
        tx = (size * 8_000_000 + prof.upstream_bps - 1) // prof.upstream_bps
        hop = DELAY_US[prof.region][profiles[idx_of[dest]].region]
        assert start >= t
        assert arrival == start + tx + hop
        assert arrival >= t + 3_000  # smallest entry in the delay table
        per_sender.setdefault(sender, []).append((start, start + tx))
    assert per_sender
    for intervals in per_sender.values():
        ordered = sorted(intervals)
        for (s1, e1), (s2, _e2) in zip(ordered, ordered[1:]):
            assert s2 >= e1


def test_deliveries_match_send_arrivals():
    engine = _run_engine(16, seed=19, broadcasts=16)
    arrivals = sorted(e[8] for e in engine.log if e[0] == "send")
    deliveries = sorted(e[1] for e in engine.log if e[0] == "deliver")
    assert arrivals == deliveries


def test_offline_nodes_neither_send_nor_accept():
    engine = _run_engine(40, seed=23, broadcasts=120, beta=2, churn_at=[0, 60_000, 120_000])
    offline_since: dict[int, int] = {}
    windows: dict[int, list[tuple[int, float]]] = {}
    for entry in engine.log:
        if entry[0] == "node_offline":
            offline_since[entry[2]] = entry[1]
        elif entry[0] == "node_online":
            windows.setdefault(entry[2], []).append((offline_since.pop(entry[2]), entry[1]))
    for node_id, since in offline_since.items():
        windows.setdefault(node_id, []).append((since, float("inf")))

    def _down(node_id: int, t: int) -> bool:
        return any(lo <= t < hi for lo, hi in windows.get(node_id, ()))

    sends = [e for e in engine.log if e[0] == "send"]
    accepted = [e for e in engine.log if e[0] == "deliver" and e[5]]
    drops = [e for e in engine.log if e[0] == "drop_offline"]
    lost = [e for e in engine.log if e[0] == "queue_lost"]
    assert drops, "churn run should discard some in-flight packets"
    assert lost, "churn run should catch some senders with a queue"
    for entry in sends:
        # neither decided nor put on the wire while the sender is down
        assert not _down(entry[2], entry[1])
        assert not _down(entry[2], entry[7])
    for entry in lost:
        assert _down(entry[2], entry[1])
    for entry in accepted:
        assert not _down(entry[2], entry[1])
    for entry in drops:
        assert _down(entry[2], entry[1])


def test_send_to_offline_peer_is_dropped_on_arrival():
    # senders cannot see liveness: the copy for a dead peer is transmitted
    # like any other, lost on arrival, and the peer keeps its table slot
    nodes, profiles, config = _network(4, seed=27)
    source, down = nodes[0], nodes[1]
    down.online = False
    engine = Engine(nodes, profiles, config, Random(3), beta=4, collect_log=True)
    assert down.id in source.table
    engine.push_initiate(0, 0)
    engine.run()
    to_down = [
        e for e in engine.log if e[0] == "send" and e[2] == source.id and e[3] == down.id
    ]
    assert len(to_down) == 1
    _, t, _, _, h, size, _, start, arrival, _ = to_down[0]
    prof = profiles[0]
    tx = (size * 8_000_000 + prof.upstream_bps - 1) // prof.upstream_bps
    assert t == 0 and start >= t
    assert arrival == start + tx + DELAY_US[prof.region][profiles[1].region]
    assert ("drop_offline", arrival, down.id, h) in engine.log
    assert engine.dropped_offline >= 1
    assert down.id in source.table


def test_every_initiator_slot_is_covered_under_churn():
    engine = _run_engine(30, seed=29, broadcasts=90, churn_at=[0, 60_000])
    initiated = sum(1 for e in engine.log if e[0] == "initiate")
    skipped = sum(1 for e in engine.log if e[0] == "initiate_skipped")
    assert initiated + skipped == 90
    assert skipped == 0  # someone is always online under serial churn


def test_offline_initiator_slot_falls_to_next_online():
    nodes, profiles, config = _network(6, seed=33)
    engine = Engine(nodes, profiles, config, Random(5), collect_log=True)
    nodes[0].online = False
    nodes[1].online = False
    engine.push_initiate(0, 0)
    engine.run()
    starts = [e for e in engine.log if e[0] == "initiate"]
    assert len(starts) == 1
    assert starts[0][2] == nodes[2].id


def test_initiate_skipped_when_everyone_is_down():
    nodes, profiles, config = _network(4, seed=35)
    engine = Engine(nodes, profiles, config, Random(5), collect_log=True)
    for node in nodes:
        node.online = False
    engine.push_initiate(0, 1)
    engine.run()
    assert [e[0] for e in engine.log] == ["initiate_skipped"]
    assert engine.log[0][2] == nodes[1].id


def test_horizon_truncates_and_flags():
    config = _config(16)
    nodes, profiles = bootstrap_topology(config, stream(37, "topology", 0))
    engine = Engine(nodes, profiles, config, stream(37, "protocol", 0))
    engine.push_initiate(0, 0)
    engine.run(horizon_us=1)
    assert engine.truncated
    assert engine.heap


def test_passive_discovery_adopts_live_sender():
    nodes, profiles, config = _network(8, seed=39)
    a, b = nodes[0], nodes[1]
    a.table.clear()
    for other in nodes[2:]:
        a.table.insert_peer(other.id)
    engine = Engine(nodes, profiles, config, Random(7), collect_log=True)
    m = Message(500, DATA_BYTES, b.id, b.id, b.id)
    b.known.add(500)
    heappush(engine.heap, (0, engine.seq, DELIVER, 0, m))
    engine.seq += 1
    engine.run()
    assert b.id in a.table
    assert a.table.entry_for(b.id).score == 1  # adopted, then credited as sender


def test_subtree_scopes_deliver_exactly_once_from_every_source():
    # brute-force the partition property: from any initiator in a
    # fault-free 32-node overlay, each node gets the data exactly once
    config = _config(32)
    base_nodes, _ = bootstrap_topology(config, stream(43, "topology", 0))
    assert fully_reachable(base_nodes, config.address_bits)
    for start in range(32):
        nodes, profiles = bootstrap_topology(config, stream(43, "topology", 0))
        engine = Engine(nodes, profiles, config, Random(start), collect_log=True)
        engine.push_initiate(0, start)
        engine.run()
        receipt_counts: dict[int, int] = {}
        for entry in engine.log:
            if entry[0] == "deliver":
                receipt_counts[entry[2]] = receipt_counts.get(entry[2], 0) + 1
        assert len(receipt_counts) == 31
        assert set(receipt_counts.values()) == {1}
        assert engine.data_sends == 31


def test_relay_field_never_rewritten_downstream():
    engine = _run_engine(32, seed=47, broadcasts=64, beta=2, ne=True)
    source_of: dict[int, int] = {}
    for entry in engine.log:
        if entry[0] == "initiate":
            source_of[entry[3]] = entry[2]
    stamped: dict[int, set[int]] = {}
    downstream: dict[int, set[int]] = {}
    for entry in engine.log:
        if entry[0] != "send":
            continue
        _, _t, sender, dest, h, _size, confirm, _start, _arrival, relay = entry
        if not confirm and sender == source_of[h]:
            stamped.setdefault(h, set()).add(relay)
            assert relay == dest  # the source stamps each copy with its branch
        else:
            downstream.setdefault(h, set()).add(relay)
    assert stamped and downstream
    for h, relays in downstream.items():
        assert relays <= stamped[h]


def test_gossip_transmissions_exceed_tree_cost():
    config = _config(100)
    nodes, profiles = bootstrap_topology(config, stream(51, "topology", 0))
    for node in nodes:
        node.neighbors = [peer for peer in node.table.scores()]
    engine = Engine(nodes, profiles, config, Random(9), gossip_fanout=2, collect_log=False)
    engine.push_initiate(0, 0)
    engine.run()
    assert engine.data_sends > 99
