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

from nebcast import netsim
from nebcast.errors import ConfigurationError
from nebcast.experiments.runner import RunSpec, execute_run
from nebcast.metrics import BroadcastTracker
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
from nebcast.protocol import DATA_BYTES, NodeState
from nebcast.routing import RoutingTable
from nebcast.seeding import stream
from reference_engine import ReferenceEngine, assert_same_run


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


class _ReceiptTracker(BroadcastTracker):
    """A tracker that also lists every first receipt as (hash, node index, time)."""

    def __init__(self, n_nodes: int):
        super().__init__(n_nodes)
        self.receipts: list[tuple[int, int, int]] = []

    def receive(self, msg_hash: int, t: int, honest: bool, node: int) -> None:
        self.receipts.append((msg_hash, node, t))
        super().receive(msg_hash, t, honest, node)


def _link_engine(
    specs,
    payload: int = DATA_BYTES,
    disturb_rng: Random | None = None,
    collect_log: bool = True,
) -> Engine:
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
    return Engine(
        nodes, profiles, config, Random(0), disturb_rng=disturb_rng, collect_log=collect_log
    )


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


@pytest.mark.parametrize("seed,node0_survives", [(5, True), (0, False)], ids=["survives", "fails"])
def test_held_sends_commit_rehold_or_lose_at_disturbances(seed, node0_survives):
    # node 0 (id 0) queues two broadcasts of two 16 ms sends each; the
    # second broadcast's sends would start at 32 ms and 48 ms, past the
    # disturbances at 20 ms and 40 ms. Node 2 (id 1), the last serial,
    # fails at every disturbance, and its second send would start at 21 ms.
    # Both disturbance seeds take node 2 down at 20 ms and keep node 0 up
    # then; seed 0 takes node 0 down at 40 ms, seed 5 does not.
    engine = _link_engine(
        [(0, 0, 64_000), (2, 0, 64_000), (1, 0, 64_000)], disturb_rng=Random(seed)
    )
    engine.push_disturbance(20_000)
    engine.push_disturbance(40_000)
    engine.push_initiate(0, 0)
    engine.push_initiate(1000, 0)
    engine.push_initiate(5000, 2)
    engine.run()
    sends = [
        ("send", 0, 0, 2, 0, DATA_BYTES, False, 0, 26_000, 2),
        ("send", 0, 0, 1, 0, DATA_BYTES, False, 16_000, 42_000, 1),
        ("send", 5000, 1, 2, 2, DATA_BYTES, False, 5000, 31_000, 2),
        # held at 20 ms, committed then: it starts before the next disturbance
        ("send", 1000, 0, 2, 1, DATA_BYTES, False, 32_000, 58_000, 2),
    ]
    # node 2's held send is lost with its queue when it goes down
    lost = [("queue_lost", 20_000, 1, 0, 2)]
    # held at 20 ms and held again for 40 ms, where its sender's fate decides
    if node0_survives:
        sends.append(("send", 1000, 0, 1, 1, DATA_BYTES, False, 48_000, 74_000, 1))
    else:
        lost.append(("queue_lost", 40_000, 0, 1, 1))
    assert [entry for entry in engine.log if entry[0] == "send"] == sends
    assert [entry for entry in engine.log if entry[0] == "queue_lost"] == lost
    assert engine.data_sends == len(sends)
    assert engine.nodes[0].online == node0_survives and not engine.nodes[2].online
    assert engine.disturbances == 2


@pytest.mark.parametrize("variant", ["baseline", "ne"])
def test_each_sender_commits_its_sends_in_uplink_order(variant):
    # 240 launches 20 ms apart at β=2 under churn every 500 ms: uplink
    # queues reach past disturbances, so sends are held, some of them
    # again, and their senders send more at the disturbance's time. A
    # sender's uplink is serial, so its sends must be committed (logged)
    # in the order in which they start.
    spec = RunSpec(
        n_nodes=60, variant=variant, redundancy=2, rounds_per_node=4, interval_us=20_000,
        seed=1, disturbance="churn_periodic", disturbance_period_us=500_000, collect_log=True,
    )
    log = execute_run(spec).log
    assert any(entry[0] == "queue_lost" for entry in log)
    last_start: dict[int, int] = {}
    for entry in log:
        if entry[0] == "send":
            sender, start = entry[2], entry[7]
            assert start >= last_start.get(sender, 0), entry
            last_start[sender] = start


@pytest.mark.parametrize(
    "disturb_at,received", [(12_000, True), (12_001, False)], ids=["lands-at", "lands-before"]
)
def test_copy_to_offline_node_settles_only_before_the_disturbance(disturb_at, received):
    # node 0 sends to node 1 (id 2) at 0 and to node 2 (id 1) at 2 ms;
    # both copies hold the 512 kbit/s upstream for 2 ms and take 10 ms
    # to land. Node 1 is down until the disturbance, and disturbance
    # seed 5 keeps node 0 up and brings node 1 back there; node 2, the
    # last serial, goes down. Without a log a drop can be settled when
    # sent, but only if it lands before the disturbance: the copy that
    # lands exactly at it finds node 1 back online.
    engine = _link_engine(
        [(0, 0, 512_000), (2, 0, 512_000), (1, 0, 512_000)],
        disturb_rng=Random(5),
        collect_log=False,
    )
    engine.tracker = _ReceiptTracker(3)
    engine.nodes[1].online = False
    engine.nodes[1].table.clear()
    engine.push_disturbance(disturb_at)
    engine.push_initiate(0, 0)
    engine.run()
    assert [node.online for node in engine.nodes] == [True, True, False]
    assert engine.accepted == int(received)
    assert engine.dropped_offline == 2 - int(received)
    # (hash, node index, time): the initiator at 0, node 1 at 12 ms if its copy counted
    assert engine.tracker.receipts == [(0, 0, 0)] + [(0, 1, 12_000)] * received


def test_disturbance_needs_a_disturb_rng():
    # the disturbance would otherwise fail mid-run, when it fires
    nodes, profiles, config = _network(4, seed=1)
    engine = Engine(nodes, profiles, config, Random(1))
    with pytest.raises(ConfigurationError, match="disturb_rng"):
        engine.push_disturbance(0)
    assert not engine.heap and not engine.disturb_times and engine.seq == 0


def test_network_config_validation():
    _config(1)
    NetworkConfig(16, address_bits=4, bucket_capacity=1, data_msg_bytes=0, confirm_msg_bytes=0)
    bad = {
        "n_nodes": dict(n_nodes=0),
        "address_bits": dict(n_nodes=17, address_bits=4),
        "bucket_capacity": dict(n_nodes=4, bucket_capacity=6),
        "data_msg_bytes": dict(n_nodes=4, data_msg_bytes=-1),
        "confirm_msg_bytes": dict(n_nodes=4, confirm_msg_bytes=-20),
    }
    for key, kwargs in bad.items():
        with pytest.raises(ConfigurationError) as err:
            NetworkConfig(**kwargs)
        assert key in str(err.value)


def test_negative_message_size_fails_before_the_run():
    # a negative size frees the upstream before the send starts, so
    # copies would arrive before they are sent; a RunSpec is a
    # NetworkConfig, so it rejects the size when it is built
    for key in ("data_msg_bytes", "confirm_msg_bytes"):
        with pytest.raises(ConfigurationError) as err:
            RunSpec(
                n_nodes=16, variant="ne", redundancy=2, rounds_per_node=1,
                interval_us=50_000, seed=1, **{key: -4000},
            )
        assert key in str(err.value)


def _assert_filled(table: RoutingTable, all_ids: list[int], capacity: int) -> None:
    """Each bucket holds min(capacity, ids in its range) distinct network ids of that range."""
    width = table.width
    population = Counter(
        width - (table.owner ^ other).bit_length() for other in all_ids if other != table.owner
    )
    members = set(all_ids)
    for i, bucket in enumerate(table.buckets):
        peers = bucket.peers
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
    for _ in range(8):
        was_online = [node.online for node in nodes]
        apply_disturbance(nodes, rng, profiles)
        for before, node in zip(was_online, nodes):
            if node.online and not before:
                returners += 1
                _assert_filled(node.table, ids, capacity)
    assert returners > 0


def _fill_by_insert(table: RoutingTable, sorted_ids: list[int], rng: Random) -> None:
    """The per-peer fill, kept as the reference: one ``rng.sample`` of
    positions per bucket, each id filed through ``insert_peer``."""
    for i, bucket in enumerate(table.buckets):
        a, b = netsim._bucket_slice(sorted_ids, table.owner, i, table.width)
        for j in rng.sample(range(a, b), min(bucket.capacity, b - a)):
            assert table.insert_peer(sorted_ids[j])


@pytest.mark.parametrize("n,bits,capacity", [(2000, 16, 15), (300, 12, 7), (16, 4, 3)])
def test_fill_table_files_what_the_per_peer_fill_files(n, bits, capacity):
    # at N=2000 the shallow buckets span far more than 85 ids, where
    # random.sample switches to its set-based branch
    ids = sample_ids(n, bits, Random(n))
    sorted_ids = sorted(ids)
    for owner in ids[:40]:
        fast, slow = RoutingTable(owner, bits, capacity), RoutingTable(owner, bits, capacity)
        fast_rng, slow_rng = Random(owner), Random(owner)
        fill_table(fast, sorted_ids, fast_rng)
        _fill_by_insert(slow, sorted_ids, slow_rng)
        assert fast_rng.getstate() == slow_rng.getstate()
        for fb, sb in zip(fast.buckets, slow.buckets):
            assert [(e.peer, e.score) for e in fb.entries] == [(e.peer, e.score) for e in sb.entries]
        assert list(fast) == [peer for b in fast.buckets for peer in b.peers]


def test_fill_table_rejects_a_table_that_is_not_empty():
    ids = sample_ids(20, 6, Random(2))
    table = RoutingTable(ids[0], 6, 3)
    fill_table(table, sorted(ids), Random(1))
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(ConfigurationError, match="empty table"):
        fill_table(table, sorted(ids), rng)
    assert rng.getstate() == state
    table.clear()
    fill_table(table, sorted(ids), rng)
    _assert_filled(table, ids, 3)


def _offer_everyone(table: RoutingTable, ids: list[int], rng: Random) -> None:
    """The earlier fill rule, kept as the reference law: offer every other
    id in a uniform shuffle and keep what the buckets accept."""
    candidates = [other for other in ids if other != table.owner]
    rng.shuffle(candidates)
    for peer in candidates:
        table.insert_peer(peer)


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
                kept.update(bucket.peers)
                if bucket.peers:
                    first[bucket.peers[0]] += 1
        return kept, first

    sampled = frequencies(lambda table, rng: fill_table(table, sorted_ids, rng))
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
            assert ba.peers == bb.peers
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
        apply_disturbance(nodes, Random(seed), profiles)
        assert not nodes[-1].online


def test_churn_offline_fraction_near_half():
    total = 0
    trials = 30
    n = 100
    nodes, profiles, _ = _network(n, seed=6)
    for seed in range(trials):
        for node in nodes:
            node.online = True
        apply_disturbance(nodes, Random(seed), profiles)
        total += sum(not node.online for node in nodes)
    fraction = total / (trials * n)
    assert abs(fraction - (n + 1) / (2 * n)) < 0.05


def _bucket_peers(node: NodeState) -> list[list[int]]:
    return [list(bucket.peers) for bucket in node.table.buckets]


def test_churn_clears_casualties_and_rebootstraps_returners():
    nodes, profiles, _ = _network(30, seed=8)
    ids = [node.id for node in nodes]
    # the last serial always falls; its open tickets are counted as lost
    nodes[-1].tickets[1] = {2, 5}
    nodes[-1].tickets[4] = set()
    profiles[-1].busy_until = 99_999
    rng = Random(3)
    assert apply_disturbance(nodes, rng, profiles) == 2
    for i, node in enumerate(nodes):
        if not node.online:
            assert len(node.table) == 0
            assert not node.tickets
            assert profiles[i].busy_until == 0
        else:
            _assert_filled(node.table, ids, 15)
    survivors = {i: _bucket_peers(node) for i, node in enumerate(nodes) if node.online}
    was_online = [node.online for node in nodes]
    # returning nodes rebuild full tables at score 0, blind to who is
    # online; survivors keep theirs entry for entry
    apply_disturbance(nodes, rng, profiles)
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
                assert all(e.score == 0 for e in bucket.entries)
    assert returners > 0


def test_churn_survivors_keep_their_tables():
    nodes, profiles, _ = _network(30, seed=12)
    peer = next(iter(nodes[0].table.scores()))
    for _ in range(5):
        nodes[0].table.add_score(peer)
    before = nodes[0].table.scores()
    # serial 1 fails with probability 1/30; find an rng that spares it
    for seed in range(20):
        rng = Random(seed)
        if rng.random() >= 1 / 30:
            apply_disturbance(nodes, Random(seed), profiles)
            break
    assert nodes[0].online
    assert nodes[0].table.scores() == before


def _run_engine(*args, horizon_us: int | None = None, **kwargs) -> Engine:
    """A scheduled engine (see ``_scheduled_engine``), drained or stopped at ``horizon_us``."""
    engine = _scheduled_engine(*args, **kwargs)
    engine.run(horizon_us)
    return engine


def _scheduled_engine(
    n: int,
    seed: int,
    broadcasts: int,
    interval_us: int = 2_000,
    beta: int = 1,
    variant: str = "baseline",
    churn_at: list[int] | None = None,
    capacity: int = 15,
    collect_log: bool = True,
    refuse: bool = False,
    gaps: bool = False,
    reference: bool = False,
) -> Engine:
    """An engine over a bootstrapped overlay with its broadcasts and disturbances pushed.

    ``refuse`` makes half the nodes relay refusers. ``gaps`` drops the
    last entry of every bucket after the bootstrap, so that some
    senders are missing from their targets' tables; a filled bucket is
    otherwise full or holds its whole id range. The tracker also lists
    every first receipt, and the engine counts data sends per hash.
    ``reference`` builds a ``ReferenceEngine`` instead, which keeps no
    log.
    """
    config = _config(n, capacity=capacity)
    nodes, profiles = bootstrap_topology(config, stream(seed, "topology", 0))
    if refuse:
        assign_refusers(nodes, stream(seed, "refuse", 0))
    if gaps:
        for node in nodes:
            kept = [peer for bucket in node.table.buckets for peer in bucket.peers[:-1]]
            node.table.clear()
            for peer in kept:
                node.table.insert_peer(peer)
    extra = {} if reference else dict(collect_log=collect_log, count_per_hash=True)
    engine = (ReferenceEngine if reference else Engine)(
        nodes,
        profiles,
        config,
        stream(seed, "protocol", 0),
        variant=variant,
        beta=beta,
        disturb_rng=stream(seed, "disturb", 0),
        tracker=_ReceiptTracker(n),
        **extra,
    )
    for t in churn_at or []:
        engine.push_disturbance(t)
    for j in range(broadcasts):
        engine.push_initiate(j * interval_us, j % n)
    return engine


def _outcome(engine: Engine) -> tuple:
    """Everything a run leaves behind except its log and clock.

    Every first receipt stands for the holders of each hash, which a
    drained run drops as each broadcast retires.
    """
    counters = (
        engine.data_sends, engine.confirm_sends, engine.dropped_offline, engine.accepted,
        engine.duplicates, engine.disturbances, engine.next_hash, engine.seq, engine.truncated,
        engine.tickets_orphaned, engine.tickets_lost,
    )
    recs = [
        (rec.seq, rec.initiator, rec.received_count, rec.honest_received, rec.start_us,
         rec.last_receive_us, rec.online_count, rec.online_received)
        for rec in engine.tracker.recs
    ]
    nodes = [
        (
            node.online, sorted((h, sorted(probes)) for h, probes in node.tickets.items()),
            [[(e.peer, e.score) for e in b.entries] for b in node.table.buckets],
        )
        for node in engine.nodes
    ]
    holders = sorted((h, sorted(held)) for h, held in engine.holders.items())
    return counters, recs, engine.tracker.receipts, holders, nodes


_CHURN = [0, 60_000, 120_000, 180_000]

SETTLE_CASES = {
    "churn-baseline": dict(n=40, seed=23, broadcasts=120, beta=2, churn_at=_CHURN, gaps=True),
    "churn-ne": dict(
        n=40, seed=23, broadcasts=120, beta=2, variant="ne", churn_at=_CHURN, gaps=True
    ),
    "churn-once": dict(n=40, seed=29, broadcasts=90, churn_at=[0]),
    "refuse-half": dict(n=40, seed=31, broadcasts=80, beta=3, refuse=True),
    "fault-free": dict(n=40, seed=37, broadcasts=80, beta=3, variant="ne", gaps=True),
    "gossip": dict(n=40, seed=41, broadcasts=40, beta=2, variant="gossip"),
    "horizon": dict(n=40, seed=23, broadcasts=120, beta=2, churn_at=_CHURN, horizon_us=100_000),
}


def _count_deliveries_pushed(monkeypatch) -> Counter:
    """Count, per heap, the deliveries the engine pushes from now on."""
    queued = Counter()

    def counting_push(heap, event):
        if isinstance(event, tuple) and event[2] == DELIVER:
            queued[id(heap)] += 1
        heappush(heap, event)

    monkeypatch.setattr(netsim, "heappush", counting_push)
    return queued


@pytest.mark.parametrize("case", list(SETTLE_CASES))
def test_settling_deliveries_when_sent_changes_no_outcome(case, monkeypatch):
    # the engine settles decided drops and duplicates when sent; the
    # reference engine puts every copy on its heap and judges it when it
    # lands. Both runs must end in the same counters, sends, records,
    # first receipts, tickets and tables, and the engine must hold what
    # the reference holds for the hashes still in flight.
    # The gaps leave senders missing from their targets' tables, so a
    # duplicate from an unknown sender is settled as well: the rule asks
    # only whether the target holds the hash.
    kwargs = SETTLE_CASES[case]
    queued = _count_deliveries_pushed(monkeypatch)
    settled = _run_engine(**kwargs, collect_log=False)
    reference = _run_engine(**kwargs, reference=True)
    assert_same_run(settled, reference)
    assert settled.tracker.receipts == reference.tracker.receipts
    assert settled.truncated == ("horizon_us" in kwargs)
    # the engine did settle some deliveries: the reference pushes one per send
    assert queued[id(settled.heap)] < reference.data_sends + reference.confirm_sends


def test_a_log_is_complete_and_changes_nothing(monkeypatch):
    # a collected log settles what a run without one settles, and it
    # records one fate for every send: a settled copy's right after its
    # send, stamped with its arrival, a popped copy's when it lands
    kwargs = SETTLE_CASES["churn-ne"]
    queued = _count_deliveries_pushed(monkeypatch)
    logged = _run_engine(**kwargs)
    plain = _run_engine(**kwargs, collect_log=False)
    assert _outcome(logged) == _outcome(plain)
    assert queued[id(logged.heap)] == queued[id(plain.heap)] > 0
    assert not logged.truncated and logged.duplicates and logged.dropped_offline
    # (target, hash, arrival) of each send, and of each fate
    sent = Counter((e[3], e[4], e[8]) for e in logged.log if e[0] == "send")
    fates = Counter((e[2], e[3], e[1]) for e in logged.log if e[0] in ("deliver", "drop_offline"))
    assert sent == fates
    assert sum(fates.values()) == logged.accepted + logged.duplicates + logged.dropped_offline
    # each copy that was not pushed, a drop or a data duplicate, has its
    # fate right after its send
    right_after = sum(
        1 for send, fate in zip(logged.log, logged.log[1:])
        if send[0] == "send" and fate[0] in ("deliver", "drop_offline")
        and (fate[2], fate[3], fate[1]) == (send[3], send[4], send[8])
        and not (fate[0] == "deliver" and (fate[5] or fate[6]))
    )
    assert right_after == sum(sent.values()) - queued[id(logged.heap)] > 0


def test_empty_queue_runs_to_empty_log():
    nodes, profiles, config = _network(4, seed=1)
    engine = Engine(nodes, profiles, config, Random(1), collect_log=True)
    engine.run()
    assert engine.log == []
    assert not engine.truncated


def test_single_broadcast_eight_nodes_delivers_exactly_once():
    engine = _run_engine(8, seed=21, broadcasts=1)
    accepted = [e for e in engine.log if e[0] == "deliver" and e[5]]
    rejected = [e for e in engine.log if e[0] == "deliver" and not e[5]]
    assert len(accepted) == 7
    assert rejected == []
    assert engine.data_sends == 7
    assert engine.duplicates == 0


def test_engine_replay_is_identical():
    first = _run_engine(40, seed=31, broadcasts=80, beta=2, variant="ne", churn_at=[0, 60_000])
    second = _run_engine(40, seed=31, broadcasts=80, beta=2, variant="ne", churn_at=[0, 60_000])
    assert first.log == second.log
    assert first.data_sends == second.data_sends
    assert first.confirm_sends == second.confirm_sends


def test_send_log_obeys_link_model():
    engine = _run_engine(24, seed=17, broadcasts=48, beta=2, variant="ne")
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


def test_engine_keeps_every_online_bucket_saturated_under_churn(monkeypatch):
    # every online node's bucket holds min(capacity, ids in its range)
    # entries after the bootstrap, around each disturbance and at the
    # end, so there is never room to adopt a sender learned from traffic
    def check(nodes):
        ids = [node.id for node in nodes]
        for node in nodes:
            if node.online:
                _assert_filled(node.table, ids, 15)

    checked = []

    def checked_disturbance(nodes, *args, **kwargs):
        check(nodes)
        lost = apply_disturbance(nodes, *args, **kwargs)
        check(nodes)
        checked.append(sum(not node.online for node in nodes))
        return lost

    monkeypatch.setattr(netsim, "apply_disturbance", checked_disturbance)
    for variant in ("baseline", "ne"):
        checked.clear()
        engine = _run_engine(
            40, seed=23, broadcasts=120, beta=2, variant=variant, churn_at=_CHURN,
            collect_log=False,
        )
        check(engine.nodes)
        assert len(checked) == len(_CHURN) and all(checked)
        assert engine.accepted > 0


def _assert_state_is_in_flight(engine: Engine) -> Counter:
    """Holders are kept for exactly the hashes with a copy in flight, tickets only for those.

    Returns the deliveries waiting on the heap and the sends held for a
    disturbance, per hash.
    """
    assert all(len(event) == 5 for event in engine.heap)
    live = Counter(event[4].hash for event in engine.heap if event[2] == DELIVER)
    live.update(sm.hash for _, _, sm, *_ in engine.held)
    assert engine.copies == live
    assert engine.holders.keys() == engine.copies.keys() == live.keys()
    assert all(node.tickets.keys() <= live.keys() for node in engine.nodes)
    return live


@pytest.mark.parametrize("variant", ["baseline", "ne", "gossip"])
def test_nodes_hold_only_broadcasts_in_flight_under_churn(variant, monkeypatch):
    # a hash is retired when its last copy lands, so at every disturbance
    # and at the end the engine keeps holders for exactly the hashes with
    # a copy on the heap, and a drained run leaves no broadcast state
    engine = _scheduled_engine(
        40, seed=23, broadcasts=120, beta=2, variant=variant, churn_at=_CHURN, collect_log=False
    )
    in_flight = []

    def checked_disturbance(*args, **kwargs):
        in_flight.append(len(_assert_state_is_in_flight(engine)))
        return apply_disturbance(*args, **kwargs)

    monkeypatch.setattr(netsim, "apply_disturbance", checked_disturbance)
    engine.run()
    assert not _assert_state_is_in_flight(engine) and not engine.truncated
    assert not engine.holders and not any(node.tickets for node in engine.nodes)
    assert len(in_flight) == len(_CHURN) and all(in_flight[1:])


def test_run_cut_at_the_horizon_keeps_exactly_the_broadcasts_in_flight():
    engine = _run_engine(
        40, seed=37, broadcasts=40, interval_us=50_000, beta=3, variant="ne",
        collect_log=False, horizon_us=1_000_000,
    )
    assert engine.truncated
    live = _assert_state_is_in_flight(engine)
    # some broadcasts finished before the cut and were forgotten
    assert live and len(live) < engine.next_hash
    assert engine.tickets_orphaned > 0


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
    engine = _run_engine(32, seed=47, broadcasts=64, beta=2, variant="ne")
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
    engine = Engine(nodes, profiles, config, Random(9), variant="gossip", beta=2, collect_log=False)
    engine.push_initiate(0, 0)
    engine.run()
    assert engine.data_sends > 99
