"""Deterministic discrete-event network simulation.

Events live in a min-heap keyed by (time in integer μs, insertion
sequence), so equal-time events resolve in a fixed order and a run is
bit-for-bit reproducible from its seeds. The link model is the usual
two-part cost: each sender owns an upstream queue that serializes its
transmissions at its bandwidth (``busy_until`` tracks the queue
horizon), and a region-to-region propagation delay is added on top.
Receive-side bandwidth is unlimited.

Node liveness is all-or-nothing and senders cannot observe it, as
with unacknowledged datagrams: a send to an offline peer leaves the
sender's upstream like any other, is discarded on arrival (counted in
``dropped_offline``), and the peer stays in the sender's table. Only
neighbor evaluation, by scoring who actually delivers, can learn to
route around dead entries. Disturbances re-roll every node's status
at once; survivors keep their tables, casualties lose theirs together
with every queued packet whose transmission had not started yet, and
returning nodes rebuild from scratch the same way the initial
bootstrap did (``fill_table``), blind to who is online.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random
from typing import Sequence

from .errors import ConfigurationError
from .identity import sample_ids
from .metrics import BroadcastTracker
from .protocol import (
    CONFIRM_BYTES,
    DATA_BYTES,
    Message,
    NodeState,
    gossip_handle,
    gossip_initiate,
    handle_message,
    initiate_broadcast,
)
from .routing import RoutingTable

# share of nodes per region, percent
REGION_PROPORTIONS = (30, 10, 40, 20)

# upstream bandwidth classes, bits per second, with their shares in percent
BANDWIDTH_CLASSES = (512_000, 256_000, 128_000, 64_000)
BANDWIDTH_PROPORTIONS = (10, 60, 20, 10)

# symmetric inter-region propagation delay, μs, indexed [region][region]
DELAY_US = (
    (10_000, 200_000, 250_000, 250_000),
    (200_000, 3_000, 100_000, 100_000),
    (250_000, 100_000, 7_000, 200_000),
    (250_000, 100_000, 200_000, 8_000),
)

DEFAULT_BUCKET_CAPACITY = 15

# event kinds, also the order they appear in heap tuples
DELIVER = 0
INITIATE = 1
DISTURB = 2

# "no disturbance pending"; later than any simulated time
_NEVER = 1 << 63


class NodeNetProfile:
    """Where a node sits and how fast it can push bytes out."""

    __slots__ = ("region", "upstream_bps", "busy_until")

    def __init__(self, region: int, upstream_bps: int):
        self.region = region
        self.upstream_bps = upstream_bps
        self.busy_until = 0


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of one simulated network.

    Regions, bandwidth classes and delays are the module constants
    above; a run only sets the sizes.
    """

    n_nodes: int
    address_bits: int = 16
    bucket_capacity: int = DEFAULT_BUCKET_CAPACITY
    data_msg_bytes: int = DATA_BYTES
    confirm_msg_bytes: int = CONFIRM_BYTES

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigurationError(f"need at least one node, got {self.n_nodes}")
        if self.n_nodes > (1 << self.address_bits):
            raise ConfigurationError(
                f"{self.n_nodes} nodes cannot get distinct {self.address_bits}-bit ids"
            )


def _weighted_index(proportions: Sequence[int], draw: float) -> int:
    """Map a unit draw onto percent proportions."""
    acc = 0
    scaled = draw * 100
    for i, share in enumerate(proportions):
        acc += share
        if scaled < acc:
            return i
    return len(proportions) - 1


def bootstrap_topology(
    config: NetworkConfig,
    rng: Random,
    require_full_reach: bool = False,
) -> tuple[list[NodeState], list[NodeNetProfile]]:
    """Build nodes, assign net profiles, and fill routing tables.

    Every node's table is filled by ``fill_table`` in node order. The
    overlay this produces is not symmetric, but a bucket only ends up
    empty when no id in its range exists at all; ``require_full_reach``
    re-checks that before runs that depend on full delivery.
    """
    ids = sample_ids(config.n_nodes, config.address_bits, rng)
    profiles = []
    for _ in range(config.n_nodes):
        region = _weighted_index(REGION_PROPORTIONS, rng.random())
        bw = BANDWIDTH_CLASSES[_weighted_index(BANDWIDTH_PROPORTIONS, rng.random())]
        profiles.append(NodeNetProfile(region, bw))
    sorted_ids = sorted(ids)
    nodes = []
    for node_id in ids:
        table = RoutingTable(node_id, config.address_bits, config.bucket_capacity)
        fill_table(table, sorted_ids, rng, 0)
        nodes.append(NodeState(node_id, table))
    if require_full_reach and not fully_reachable(nodes, config.address_bits):
        raise ConfigurationError("bootstrap left a bucket empty although its id range is populated")
    return nodes, profiles


def _bucket_slice(sorted_ids: list[int], owner: int, index: int, width: int) -> tuple[int, int]:
    """Positions [a, b) in ``sorted_ids`` of the ids bucket ``index`` of ``owner`` covers.

    Those ids share the owner's first ``index`` bits, differ on the
    next one, and are free below it: one contiguous id range.
    """
    span = width - index - 1
    lo = (owner ^ (1 << span)) >> span << span
    return bisect_left(sorted_ids, lo), bisect_left(sorted_ids, lo + (1 << span))


def fill_table(table: RoutingTable, sorted_ids: list[int], rng: Random, now: int) -> None:
    """File into each bucket a uniform ordered sample of its id range.

    Bucket i draws min(capacity, ids in its range) positions with one
    ``rng.sample`` and files them in draw order, stamped ``now``, at
    O(width * (log N + capacity)) per table. Offering every other id in
    a uniform shuffle and keeping what fits has the same law: a bucket
    keeps the first ids of its range in shuffle order, a uniform
    ordered subset of that range.
    """
    owner = table.owner
    width = table.width
    for i, bucket in enumerate(table.buckets):
        a, b = _bucket_slice(sorted_ids, owner, i, width)
        for j in rng.sample(range(a, b), min(bucket.capacity, b - a)):
            table.insert_peer(sorted_ids[j], now)


def fully_reachable(nodes: list[NodeState], width: int) -> bool:
    """True when every bucket that could hold someone does.

    For each node and bucket index i, the ids whose shared prefix with
    the node is exactly i form a contiguous range; an empty bucket is
    only acceptable when that whole range is unpopulated. On an overlay
    filled by ``fill_table`` this always holds, and it is what lets
    subtree broadcasts reach every node.
    """
    sorted_ids = sorted(node.id for node in nodes)
    for node in nodes:
        for i, bucket in enumerate(node.table.buckets):
            if bucket.entries:
                continue
            a, b = _bucket_slice(sorted_ids, node.id, i, width)
            if b > a:
                return False
    return True


def assign_refusers(nodes: list[NodeState], rng: Random) -> set[int]:
    """Mark a uniform half of the nodes (N//2) as relay refusers."""
    chosen = set(rng.sample(range(len(nodes)), len(nodes) // 2))
    for i in chosen:
        nodes[i].refuses_relay = True
    return chosen


def apply_disturbance(
    nodes: list[NodeState],
    rng: Random,
    mode: str,
    profiles: list[NodeNetProfile] | None = None,
    now: int = 0,
    log: list | None = None,
) -> None:
    """Re-roll liveness (churn) or assign refusers, per the mode.

    Churn: node with serial s (1-indexed) fails with probability s/N,
    so roughly half the network drops each time and high serials almost
    always do. Fresh casualties lose their routing table, tickets, and
    outgoing queue (the engine discards the queued packets themselves);
    nodes coming back refill their empty table with ``fill_table`` over
    every id, online or not, drawing from ``rng``. Survivors are
    untouched.
    """
    if mode == "refuse_half":
        assign_refusers(nodes, rng)
        return
    if mode != "churn":
        raise ConfigurationError(f"unknown disturbance mode {mode!r}")
    n = len(nodes)
    sorted_ids = sorted(node.id for node in nodes)
    for i, node in enumerate(nodes):
        fails = rng.random() < (i + 1) / n
        if fails:
            if node.online:
                node.online = False
                node.table.clear()
                node.tickets.clear()
                if profiles is not None:
                    profiles[i].busy_until = 0
                if log is not None:
                    log.append(("node_offline", now, node.id))
        elif not node.online:
            node.online = True
            fill_table(node.table, sorted_ids, rng, now)
            if log is not None:
                log.append(("node_online", now, node.id))


def _online_mask(nodes: list[NodeState]) -> int:
    """Bitmask over node indices, bit i set when node i is online."""
    mask = 0
    for i, node in enumerate(nodes):
        if node.online:
            mask |= 1 << i
    return mask


class Engine:
    """The event loop for one simulation run.

    Owns the heap, the clock, and all transmission bookkeeping; routing
    and protocol decisions stay in the protocol module and come back as
    send intents. ``collect_log=True`` records every event for audits;
    experiment runs leave it off and read the counters instead.

    A transmission is committed (scheduled, counted, logged as
    ``send``) when it is queued, unless it would start at or after the
    next pending disturbance. Such a packet waits until that
    disturbance has fired: if its sender went down, the packet is lost
    with the queue (logged as ``queue_lost``); otherwise it is committed
    as queued, or waits for the disturbance after.
    """

    def __init__(
        self,
        nodes: list[NodeState],
        profiles: list[NodeNetProfile],
        config: NetworkConfig,
        rng: Random,
        beta: int = 1,
        ne_enabled: bool = False,
        gossip_fanout: int | None = None,
        refuse_withholds_confirms: bool = False,
        disturb_rng: Random | None = None,
        tracker: BroadcastTracker | None = None,
        initiate_order: list[int] | None = None,
        collect_log: bool = False,
        count_per_hash: bool = False,
    ):
        if len(nodes) != len(profiles):
            raise ConfigurationError("every node needs exactly one net profile")
        self.nodes = nodes
        self.profiles = profiles
        self.config = config
        self.rng = rng
        self.beta = beta
        self.ne_enabled = ne_enabled
        self.gossip_fanout = gossip_fanout
        self.refuse_withholds = refuse_withholds_confirms
        self.disturb_rng = disturb_rng
        self.tracker = tracker
        self.initiate_order = list(range(len(nodes))) if initiate_order is None else initiate_order
        self.log: list[tuple] | None = [] if collect_log else None
        self.per_hash_sends: dict[int, int] | None = {} if count_per_hash else None
        self.idx_of = {node.id: i for i, node in enumerate(nodes)}
        self.heap: list[tuple] = []
        self.seq = 0
        self.now = 0
        self.next_hash = 0
        self.truncated = False
        self.data_sends = 0
        self.confirm_sends = 0
        self.dropped_offline = 0
        self.accepted = 0
        self.duplicates = 0
        self.disturbances = 0
        # times of disturbances not yet fired (a min-heap), and per sender
        # index the sends queued past the earliest of them
        self.disturb_times: list[int] = []
        self.held: dict[int, list[tuple]] = {}

    def push_initiate(self, t: int, slot: int) -> None:
        """Schedule a broadcast for the node at ``initiate_order[slot % n]``.

        If that node is offline when the event fires, the slot falls to
        the next online node in the order, so a disturbed network still
        emits its full broadcast schedule.
        """
        heappush(self.heap, (t, self.seq, INITIATE, slot, None))
        self.seq += 1

    def push_disturbance(self, t: int) -> None:
        heappush(self.heap, (t, self.seq, DISTURB, 0, None))
        heappush(self.disturb_times, t)
        self.seq += 1

    def _commit(
        self,
        sender: NodeState,
        ti: int,
        sm: Message,
        t: int,
        start: int,
        arrival: int,
        seq: int,
    ) -> None:
        """Schedule one transmission's arrival, count it, and log it."""
        heappush(self.heap, (arrival, seq, DELIVER, ti, sm))
        if sm.is_confirmation:
            self.confirm_sends += 1
        else:
            self.data_sends += 1
            if self.per_hash_sends is not None:
                self.per_hash_sends[sm.hash] = self.per_hash_sends.get(sm.hash, 0) + 1
        if self.log is not None:
            self.log.append(
                (
                    "send", t, sender.id, self.nodes[ti].id, sm.hash,
                    sm.size, sm.is_confirmation, start, arrival, sm.relay,
                )
            )

    def _settle_held(self, now: int) -> None:
        """Resolve held sends once the disturbance at ``now`` has fired."""
        next_disturb = self.disturb_times[0] if self.disturb_times else _NEVER
        still_held: dict[int, list[tuple]] = {}
        for si, queued in self.held.items():
            sender = self.nodes[si]
            if not sender.online:
                if self.log is not None:
                    for _t, ti, sm, _start, _arrival, _seq in queued:
                        self.log.append(("queue_lost", now, sender.id, self.nodes[ti].id, sm.hash))
                continue
            for item in queued:
                if item[3] >= next_disturb:
                    still_held.setdefault(si, []).append(item)
                else:
                    t, ti, sm, start, arrival, seq = item
                    self._commit(sender, ti, sm, t, start, arrival, seq)
        self.held = still_held

    def run(self, horizon_us: int | None = None) -> None:
        """Drain the heap, or stop (flag truncated) past the horizon."""
        heap = self.heap
        dtimes = self.disturb_times
        nodes = self.nodes
        profiles = self.profiles
        idx_of = self.idx_of
        rng = self.rng
        tracker = self.tracker
        log = self.log
        beta = self.beta
        ne = self.ne_enabled
        fanout = self.gossip_fanout
        gossip = fanout is not None
        payload = self.config.data_msg_bytes
        confirm_size = self.config.confirm_msg_bytes
        withholds = self.refuse_withholds
        seq = self.seq
        pop = heappop
        push = heappush
        commit = self._commit
        held = self.held
        next_disturb = dtimes[0] if dtimes else _NEVER
        online_mask = _online_mask(nodes)

        while heap:
            event = pop(heap)
            t = event[0]
            if horizon_us is not None and t > horizon_us:
                push(heap, event)
                self.truncated = True
                break
            self.now = t
            kind = event[2]

            if kind == DELIVER:
                di = event[3]
                m = event[4]
                node = nodes[di]
                if not node.online:
                    self.dropped_offline += 1
                    if log is not None:
                        log.append(("drop_offline", t, node.id, m.hash))
                    continue
                h = m.hash
                was_new = h not in node.known
                if gossip:
                    sends = gossip_handle(node, m, fanout, rng)
                else:
                    sender = m.sender
                    # passive discovery: adopt a live unknown sender if there is room
                    if sender not in node.table._entries:
                        if nodes[idx_of[sender]].online:
                            node.table.insert_peer(sender, t)
                    sends = handle_message(
                        node, m, beta, ne, rng, t,
                        confirm_size, withholds, log,
                    )
                if was_new and h in node.known:
                    self.accepted += 1
                    if tracker is not None:
                        tracker.receive(h, t, not node.refuses_relay, di)
                    if log is not None:
                        log.append(("deliver", t, node.id, h, m.sender, True, m.is_confirmation))
                else:
                    self.duplicates += 1
                    if log is not None:
                        log.append(("deliver", t, node.id, h, m.sender, False, m.is_confirmation))

            elif kind == INITIATE:
                slot = event[3]
                order = self.initiate_order
                count = len(order)
                di = -1
                for step in range(count):
                    candidate = order[(slot + step) % count]
                    if nodes[candidate].online:
                        di = candidate
                        break
                h = self.next_hash
                self.next_hash = h + 1
                if di < 0:
                    scheduled = order[slot % count]
                    if tracker is not None:
                        tracker.initiate_skipped(h, scheduled, t)
                    if log is not None:
                        log.append(("initiate_skipped", t, nodes[scheduled].id, h))
                    continue
                node = nodes[di]
                if tracker is not None:
                    tracker.initiate(h, di, t, not node.refuses_relay, online_mask)
                if log is not None:
                    log.append(("initiate", t, node.id, h))
                if gossip:
                    sends = gossip_initiate(node, payload, fanout, rng, h)
                else:
                    sends = initiate_broadcast(node, payload, beta, ne, rng, t, h, log)

            else:
                heappop(dtimes)
                self.disturbances += 1
                if log is not None:
                    log.append(("disturb", t, self.disturbances))
                apply_disturbance(nodes, self.disturb_rng, "churn", profiles, t, log)
                online_mask = _online_mask(nodes)
                self._settle_held(t)
                held = self.held
                next_disturb = dtimes[0] if dtimes else _NEVER
                continue

            if not sends:
                continue
            # the link model: each send starts when the sender's upstream
            # frees, holds it for ceil(bits / bps) μs, and lands after the
            # delay between the two regions
            prof = profiles[di]
            bps = prof.upstream_bps
            busy = prof.busy_until
            if busy < t:
                busy = t
            srow = DELAY_US[prof.region]
            for dest_id, sm in sends:
                ti = idx_of[dest_id]
                start = busy
                busy = start + (sm.size * 8_000_000 + bps - 1) // bps
                arrival = busy + srow[profiles[ti].region]
                if start >= next_disturb:
                    held.setdefault(di, []).append((t, ti, sm, start, arrival, seq))
                else:
                    commit(node, ti, sm, t, start, arrival, seq)
                seq += 1
            prof.busy_until = busy

        self.seq = seq
