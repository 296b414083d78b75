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
bootstrap did (``fill_table``), blind to who is online. A send queued
to start at or after the next disturbance is held in the engine, off
the heap, under its own sequence number, and that disturbance decides
it before any other event of its time: it is lost with the queue if
its sender went down, held again if it would start at or after the
following disturbance, and committed as queued otherwise. So each
sender's sends are committed in the order they start.

One rule decides a copy's fate, when it is sent and when it lands: it
is dropped if its target is offline, a duplicate if the target already
holds its hash, and new otherwise; only a new copy is a receipt. A
duplicate changes nothing unless it is a confirmation, which goes only
to its broadcast's source, always a holder, to settle its ticket's
vote. No data copy returns to a tree broadcast's source, as relays
forward only into buckets deeper than the one they share with their
sender, and gossip confirms nothing. Tables never learn from traffic:
``fill_table`` leaves every bucket full or holding its whole id range,
and nothing evicts, so there is no room to adopt a sender.

A copy whose fate is fixed when it is sent is settled then and never
enters the heap: it lands before the next pending disturbance and no
later than the horizon, and is a drop or a duplicate data copy. This
is exact: liveness changes only at disturbances, which pop before any
delivery of the same time, and while a copy of a hash is on the heap
the set of nodes holding that hash only grows between disturbances.
Each settled send still takes its sequence number, so every other
event keeps its order.

Per-broadcast state lasts only while its broadcast is in flight. The
engine keeps, per live hash, the nodes that hold it and its copies
(deliveries on the heap and held sends); the initiator keeps its tickets
under the hash. A disturbance leaves holders alone, so a node that
falls and returns while h is in flight still holds h. When an event of
hash h has been handled, its own sends committed, and no copy of h is
left, h is retired: its holders, its count and the initiator's
unsettled tickets for it are dropped, the tickets counted in
``tickets_orphaned``. This is exact too: a copy of h is created only
when h is initiated or a copy of it is handled, holders and tickets
are read only when a copy of h is sent or lands, and a settled copy
never reaches the heap. So a drained run ends with no broadcast state;
a run cut at the horizon keeps exactly the hashes still in flight.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from random import Random
from typing import Sequence

from .errors import ConfigurationError
from .identity import MAX_ADDRESS_BITS, sample_ids
from .metrics import BroadcastTracker
from .protocol import (
    CONFIRM_BYTES,
    DATA_BYTES,
    Message,
    NodeState,
    gossip_handle,
    handle_message,
    initiate_broadcast,
    record_vote,
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

# event kinds, the third field of every heap tuple
DELIVER = 0
INITIATE = 1
DISTURB = 2

# the reasons of the log's score entries, in the order a copy can trigger them
SCORE_NEW_SENDER = "new-message"
SCORE_PROBE_VOTE = "probe-vote"
SCORE_RELAY_VOTE = "relay-vote"

# "no disturbance pending"; later than any simulated time, as the configs
# keep launches before LAUNCH_LIMIT_US, leaving as much again for queues and delays
_NEVER = 1 << 63
LAUNCH_LIMIT_US = 1 << 62


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
    above; a run only sets the sizes, and each error names its key.
    """

    n_nodes: int
    address_bits: int = 16
    bucket_capacity: int = DEFAULT_BUCKET_CAPACITY
    data_msg_bytes: int = DATA_BYTES
    confirm_msg_bytes: int = CONFIRM_BYTES

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be at least 1, got {self.n_nodes}")
        if not isinstance(self.address_bits, int) or not 1 <= self.address_bits <= MAX_ADDRESS_BITS:
            raise ConfigurationError(
                f"address_bits must be an int in [1, {MAX_ADDRESS_BITS}], got {self.address_bits!r}"
            )
        if self.n_nodes > (1 << self.address_bits):
            raise ConfigurationError(
                f"n_nodes={self.n_nodes} cannot get distinct ids of address_bits={self.address_bits}"
            )
        # group sizes 1, 2, 4, ... only tile the rank range when capacity is 2^n - 1
        capacity = self.bucket_capacity
        if not isinstance(capacity, int) or capacity < 1 or capacity & (capacity + 1):
            raise ConfigurationError(f"bucket_capacity must be 2**n - 1 for n >= 1, got {capacity!r}")
        # a negative size would free the upstream before the send started
        for name in ("data_msg_bytes", "confirm_msg_bytes"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be nonnegative, got {getattr(self, name)}")


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
        fill_table(table, sorted_ids, rng)
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


def fill_table(table: RoutingTable, sorted_ids: list[int], rng: Random) -> None:
    """File into each bucket of an empty table a uniform ordered sample of its id range.

    Bucket i draws min(capacity, ids in its range) ids with one
    ``rng.sample`` over its slice of ``sorted_ids`` and files them in
    draw order, at score 0, with one ``RoutingTable.file_peers`` call.
    Each slice copies its bucket's whole range, and a table's ranges
    hold every other id, so a table costs O(width * log N) steps plus
    about N pointer copies: cheap, but quadratic over the overlay.
    Distinct ids of the bucket's own range need none of
    ``insert_peer``'s checks. A bucket whose range is empty is skipped,
    which draws nothing, as a sample of none would. Offering every other
    id in a uniform shuffle and keeping what fits has the same law: a
    bucket keeps the first ids of its range in shuffle order, a uniform
    ordered subset of that range.

    The table must be empty, as a new one is and a fallen node's is once
    cleared; anything else raises ``ConfigurationError``.
    """
    if len(table):
        raise ConfigurationError(
            f"fill_table needs an empty table; node {table.owner:#x} holds {len(table)} peers"
        )
    owner = table.owner
    width = table.width
    for i, bucket in enumerate(table.buckets):
        a, b = _bucket_slice(sorted_ids, owner, i, width)
        if a < b:
            table.file_peers(i, rng.sample(sorted_ids[a:b], min(bucket.capacity, b - a)))


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
            if bucket.peers:
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
    profiles: list[NodeNetProfile],
) -> int:
    """Re-roll every node's liveness (churn); return the open tickets lost.

    Node with serial s (1-indexed) fails with probability s/N, so
    roughly half the network drops each time and serial N always does.
    Fresh casualties lose their routing table, tickets, and outgoing
    queue (the engine discards the queued packets themselves); nodes
    coming back refill their empty table with ``fill_table`` over every
    id, online or not, drawing from ``rng``. Survivors are untouched.
    """
    n = len(nodes)
    sorted_ids = sorted(node.id for node in nodes)
    lost = 0
    for i, node in enumerate(nodes):
        fails = rng.random() < (i + 1) / n
        if fails:
            if node.online:
                node.online = False
                node.table.clear()
                lost += sum(map(len, node.tickets.values()))
                node.tickets.clear()
                profiles[i].busy_until = 0
        elif not node.online:
            node.online = True
            fill_table(node.table, sorted_ids, rng)
    return lost


def _online_mask(nodes: list[NodeState]) -> int:
    """Bitmask over node indices, bit i set when node i is online."""
    mask = 0
    for i, node in enumerate(nodes):
        if node.online:
            mask |= 1 << i
    return mask


class Engine:
    """The event loop for one simulation run.

    Owns simulated time, the heap, the log and all transmission
    bookkeeping; routing and protocol decisions stay in the protocol
    module and come back as send intents. ``tracker`` hears every
    initiation and first receipt; the engine makes one when none is
    given. ``collect_log=True`` also appends each event to ``log`` in
    the order the engine decides it, which is not time order: a settled
    copy's fate (``drop_offline``, or ``deliver`` of a duplicate)
    follows its ``send`` entry at once, stamped with its arrival time,
    and an initiation's ``ticket`` entries follow it in set order. The
    log changes nothing else.

    ``variant`` is the protocol: ``baseline`` (uniform subtree relays),
    ``ne`` (rank-weighted relays with neighbor evaluation) or
    ``gossip`` (push gossip over each node's routing table). ``beta`` is the
    relays per bucket, or the gossip fanout. ``RunSpec`` checks both.

    A transmission is committed (scheduled, counted, logged as
    ``send``) when it is queued, unless it would start at or after the
    next disturbance: then it waits in ``held`` as ``_commit``'s
    arguments until that disturbance decides it (see the module
    docstring; one lost with its queue is logged as ``queue_lost``).

    Committing settles a delivery whose fate is already fixed (see the
    module docstring) by counting it in ``dropped_offline`` or
    ``duplicates`` at once. A popped duplicate skips the protocol unless
    it is a confirmation, which reaches only its source, where
    ``record_vote`` settles its ticket's vote.

    ``holders`` maps each live hash to the indices of the nodes holding
    it (the initiator, then each new copy's target before that copy's
    sends are committed), and ``copies`` to its deliveries on the heap
    and held sends: +1 per push or hold, -1 per pop or decision,
    unchanged when a held send is held again. Once an event or held
    send of hash h is handled and its sends committed (at once, for a
    broadcast that sent nothing), a count of zero retires h (see the
    module docstring), and the initiator's remaining tickets for it are
    counted in ``tickets_orphaned``. A casualty's open tickets are
    counted in ``tickets_lost`` when its disturbance clears them.
    """

    def __init__(
        self,
        nodes: list[NodeState],
        profiles: list[NodeNetProfile],
        config: NetworkConfig,
        rng: Random,
        variant: str = "baseline",
        beta: int = 1,
        refuse_withholds_confirms: bool = False,
        disturb_rng: Random | None = None,
        tracker: BroadcastTracker | None = None,
        initiate_order: list[int] | None = None,
        collect_log: bool = False,
        count_per_hash: bool = False,
    ):
        self.nodes = nodes
        self.profiles = profiles
        self.config = config
        self.rng = rng
        self.beta = beta
        self.ne_enabled = variant == "ne"
        self.gossip = variant == "gossip"
        self.refuse_withholds = refuse_withholds_confirms
        self.disturb_rng = disturb_rng
        self.tracker = BroadcastTracker(len(nodes)) if tracker is None else tracker
        self.initiate_order = list(range(len(nodes))) if initiate_order is None else initiate_order
        self.log: list[tuple] | None = [] if collect_log else None
        self.per_hash_sends: dict[int, int] | None = {} if count_per_hash else None
        self.idx_of = {node.id: i for i, node in enumerate(nodes)}
        self.heap: list[tuple] = []
        # sends waiting for the next disturbance, as _commit's arguments
        self.held: list[tuple] = []
        self.seq = 0
        self.next_hash = 0
        self.truncated = False
        self.data_sends = 0
        self.confirm_sends = 0
        self.dropped_offline = 0
        self.accepted = 0
        self.duplicates = 0
        self.disturbances = 0
        # times of disturbances not yet fired, a min-heap
        self.disturb_times: list[int] = []
        # deliveries landing before this time may be settled when sent
        self.settle_before = -1
        # live hash -> its deliveries on the heap and its held sends
        self.copies: dict[int, int] = {}
        # live hash -> indices of the nodes holding it
        self.holders: dict[int, set[int]] = {}
        self.tickets_orphaned = 0
        self.tickets_lost = 0

    def push_initiate(self, t: int, slot: int) -> None:
        """Schedule a broadcast for the node at ``initiate_order[slot % n]``.

        If that node is offline when the event fires, the slot falls to
        the next online node in the order, so a disturbed network still
        emits its full broadcast schedule.
        """
        heappush(self.heap, (t, self.seq, INITIATE, slot, None))
        self.seq += 1

    def push_disturbance(self, t: int) -> None:
        if self.disturb_rng is None:
            raise ConfigurationError("a disturbance needs the engine's disturb_rng")
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
        """Count and log one transmission; settle its copy if its fate is fixed, else schedule it."""
        h = sm.hash
        if sm.is_confirmation:
            self.confirm_sends += 1
        else:
            self.data_sends += 1
            if self.per_hash_sends is not None:
                self.per_hash_sends[h] = self.per_hash_sends.get(h, 0) + 1
        log = self.log
        if log is not None:
            log.append(
                (
                    "send", t, sender.id, self.nodes[ti].id, h,
                    sm.size, sm.is_confirmation, start, arrival, sm.relay,
                )
            )
        if arrival < self.settle_before:
            target = self.nodes[ti]
            if not target.online:
                self.dropped_offline += 1
                if log is not None:
                    log.append(("drop_offline", arrival, target.id, h))
                return
            if ti in self.holders[h] and not sm.is_confirmation:
                self.duplicates += 1
                if log is not None:
                    log.append(("deliver", arrival, target.id, h, sm.sender, False, False))
                return
        heappush(self.heap, (arrival, seq, DELIVER, ti, sm))
        self.copies[h] += 1

    def _retire(self, h: int, source_id: int) -> None:
        """Drop the state of broadcast ``h``, whose last copy has landed."""
        del self.copies[h]
        del self.holders[h]
        self.tickets_orphaned += len(self.nodes[self.idx_of[source_id]].tickets.pop(h, ()))

    def run(self, horizon_us: int | None = None) -> None:
        """Drain the heap, or stop (flag truncated) past the horizon."""
        heap = self.heap
        held = self.held
        dtimes = self.disturb_times
        nodes = self.nodes
        profiles = self.profiles
        idx_of = self.idx_of
        rng = self.rng
        tracker = self.tracker
        log = self.log
        beta = self.beta
        ne = self.ne_enabled
        gossip = self.gossip
        payload = self.config.data_msg_bytes
        confirm_size = self.config.confirm_msg_bytes
        withholds = self.refuse_withholds
        seq = self.seq
        pop = heappop
        commit = self._commit
        copies = self.copies
        holders = self.holders
        next_disturb = dtimes[0] if dtimes else _NEVER
        online_mask = _online_mask(nodes)
        horizon = _NEVER if horizon_us is None else horizon_us
        self.settle_before = min(next_disturb, horizon + 1)

        while heap:
            event = pop(heap)
            t = event[0]
            if t > horizon:
                heappush(heap, event)
                self.truncated = True
                break
            kind = event[2]

            if kind == DELIVER:
                di = event[3]
                m = event[4]
                h = m.hash
                copies[h] -= 1
                source = m.source
                node = nodes[di]
                sends = ()
                if not node.online:
                    self.dropped_offline += 1
                    if log is not None:
                        log.append(("drop_offline", t, node.id, h))
                elif di in holders[h]:
                    # a confirmation is at its source: settle its ticket's vote, once
                    if m.is_confirmation and record_vote(node, m) and log is not None:
                        log.append(("score", t, node.id, m.sender, SCORE_PROBE_VOTE, h))
                        log.append(("score", t, node.id, m.relay, SCORE_RELAY_VOTE, h))
                    self.duplicates += 1
                    if log is not None:
                        log.append(("deliver", t, node.id, h, m.sender, False, m.is_confirmation))
                else:
                    holders[h].add(di)
                    self.accepted += 1
                    tracker.receive(h, t, not node.refuses_relay, di)
                    if gossip:
                        sends = gossip_handle(node, m, beta, rng)
                    else:
                        if log is not None:
                            log.append(("score", t, node.id, m.sender, SCORE_NEW_SENDER, h))
                        sends = handle_message(node, m, beta, ne, rng, confirm_size, withholds)
                    if log is not None:
                        log.append(("deliver", t, node.id, h, m.sender, True, m.is_confirmation))

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
                    tracker.initiate_skipped(h, scheduled, t)
                    if log is not None:
                        log.append(("initiate_skipped", t, nodes[scheduled].id, h))
                    continue
                node = nodes[di]
                source = node.id
                copies[h] = 0
                holders[h] = {di}
                tracker.initiate(h, di, t, not node.refuses_relay, online_mask)
                if log is not None:
                    log.append(("initiate", t, node.id, h))
                if gossip:
                    sends = gossip_handle(node, Message(h, payload, source, source, source), beta, rng)
                else:
                    sends = initiate_broadcast(node, payload, beta, ne, rng, h)
                    if log is not None:
                        for probe in node.tickets.get(h, ()):
                            log.append(("ticket", t, source, probe, h))

            elif kind == DISTURB:
                heappop(dtimes)
                self.disturbances += 1
                if log is not None:
                    log.append(("disturb", t, self.disturbances))
                self.tickets_lost += apply_disturbance(nodes, self.disturb_rng, profiles)
                was_online = online_mask
                online_mask = _online_mask(nodes)
                if log is not None:
                    for i, node in enumerate(nodes):
                        if (was_online ^ online_mask) >> i & 1:
                            change = "node_online" if online_mask >> i & 1 else "node_offline"
                            log.append((change, t, node.id))
                next_disturb = dtimes[0] if dtimes else _NEVER
                self.settle_before = min(next_disturb, horizon + 1)
                # decide the sends held for this disturbance, in the order they were queued
                waiting = held[:]
                held.clear()
                for entry in waiting:
                    sender, ti, sm, _, start, _, _ = entry
                    if not sender.online:
                        if log is not None:
                            log.append(("queue_lost", t, sender.id, nodes[ti].id, sm.hash))
                    elif start >= next_disturb:
                        held.append(entry)
                        continue
                    else:
                        commit(*entry)
                    h = sm.hash
                    copies[h] -= 1
                    if not copies[h]:
                        self._retire(h, sm.source)
                continue

            if sends:
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
                        held.append((node, ti, sm, t, start, arrival, seq))
                        copies[sm.hash] += 1
                    else:
                        commit(node, ti, sm, t, start, arrival, seq)
                    seq += 1
                prof.busy_until = busy
            if not copies[h]:
                self._retire(h, source)

        self.seq = seq
