"""A naive reference engine, written from the ``netsim`` module docstring.

It has none of ``Engine``'s economies. Every copy is one heap event
that is judged when it lands; each node keeps the set of hashes it has
ever held; nothing is settled when sent and no broadcast is retired.
Held sends are heap events of their own at their disturbance's time,
and they and lost queues follow the documented rules. It shares only
the rules that are tested on their own: the protocol functions,
``bootstrap_topology``, ``apply_disturbance``, ``BroadcastTracker`` and
the seeded streams.

``run_reference`` runs a ``RunSpec`` with the streams ``runner``
documents, and ``assert_same_run`` compares a finished ``Engine`` with a
finished reference.
"""

from __future__ import annotations

from heapq import heappop, heappush

from nebcast.experiments.runner import RunSpec
from nebcast.metrics import BroadcastTracker
from nebcast.netsim import DELAY_US, apply_disturbance, bootstrap_topology
from nebcast.protocol import (
    Message,
    gossip_handle,
    handle_message,
    initiate_broadcast,
    record_vote,
)
from nebcast.seeding import stream

COUNTERS = (
    "data_sends", "confirm_sends", "dropped_offline", "accepted", "duplicates",
    "disturbances", "next_hash", "seq", "truncated",
)


class ReferenceEngine:
    """One event per copy, one known-set per node; takes ``Engine``'s arguments."""

    def __init__(
        self,
        nodes,
        profiles,
        config,
        rng,
        variant="baseline",
        beta=1,
        refuse_withholds_confirms=False,
        disturb_rng=None,
        tracker=None,
        initiate_order=None,
    ):
        self.nodes = nodes
        self.profiles = profiles
        self.config = config
        self.rng = rng
        self.variant = variant
        self.beta = beta
        self.withholds = refuse_withholds_confirms
        self.disturb_rng = disturb_rng
        self.tracker = BroadcastTracker(len(nodes)) if tracker is None else tracker
        self.order = list(range(len(nodes))) if initiate_order is None else initiate_order
        self.index = {node.id: i for i, node in enumerate(nodes)}
        self.known: list[set[int]] = [set() for _ in nodes]
        self.events: list[tuple] = []
        self.pending_disturbances: list[int] = []
        self.per_hash_sends: dict[int, int] = {}
        self.seq = 0
        self.next_hash = 0
        self.truncated = False
        self.data_sends = self.confirm_sends = 0
        self.dropped_offline = self.accepted = self.duplicates = 0
        self.disturbances = self.tickets_lost = 0

    def _push(self, t: int, seq: int, kind: str, payload: tuple) -> None:
        heappush(self.events, (t, seq, kind, payload))

    def _take_seq(self) -> int:
        self.seq += 1
        return self.seq - 1

    def push_initiate(self, t: int, slot: int) -> None:
        self._push(t, self._take_seq(), "initiate", (slot,))

    def push_disturbance(self, t: int) -> None:
        self._push(t, self._take_seq(), "disturb", ())
        self.pending_disturbances.append(t)

    def _next_disturbance(self) -> float:
        return min(self.pending_disturbances, default=float("inf"))

    def _put_on_wire(self, target: int, m, arrival: int, seq: int) -> None:
        if m.is_confirmation:
            self.confirm_sends += 1
        else:
            self.data_sends += 1
            self.per_hash_sends[m.hash] = self.per_hash_sends.get(m.hash, 0) + 1
        self._push(arrival, seq, "deliver", (target, m))

    def _send(self, sender: int, t: int, sends) -> None:
        """Queue each send on the sender's upstream, in order, as the link model says."""
        prof = self.profiles[sender]
        busy = max(prof.busy_until, t)
        for dest_id, m in sends:
            target = self.index[dest_id]
            start = busy
            # the upstream is held for ceil(bits / bps) μs
            busy = start + -(-m.size * 8_000_000 // prof.upstream_bps)
            arrival = busy + DELAY_US[prof.region][self.profiles[target].region]
            seq = self._take_seq()
            next_disturbance = self._next_disturbance()
            if start >= next_disturbance:
                self._push(next_disturbance, seq, "held", (sender, target, m, start, arrival))
            else:
                self._put_on_wire(target, m, arrival, seq)
        prof.busy_until = busy

    def _handle(self, i: int, m):
        node = self.nodes[i]
        if self.variant == "gossip":
            return gossip_handle(node, m, self.beta, self.rng)
        return handle_message(
            node, m, self.beta, self.variant == "ne", self.rng,
            self.config.confirm_msg_bytes, self.withholds,
        )

    def run(self, horizon_us: int | None = None) -> None:
        """Pop events in (time, sequence) order until none is left or one is past the horizon."""
        while self.events:
            event = heappop(self.events)
            t, seq, kind, payload = event
            if horizon_us is not None and t > horizon_us:
                heappush(self.events, event)
                self.truncated = True
                return
            if kind == "deliver":
                i, m = payload
                node = self.nodes[i]
                if not node.online:
                    self.dropped_offline += 1
                elif m.hash in self.known[i]:
                    self.duplicates += 1
                    # only at a tree broadcast's source does a duplicate act: a vote
                    if node.id == m.source and self.variant != "gossip":
                        record_vote(node, m)
                else:
                    self.known[i].add(m.hash)
                    self.accepted += 1
                    self.tracker.receive(m.hash, t, not node.refuses_relay, i)
                    self._send(i, t, self._handle(i, m))
            elif kind == "initiate":
                self._initiate(payload[0], t)
            elif kind == "disturb":
                self.pending_disturbances.remove(t)
                self.disturbances += 1
                self.tickets_lost += apply_disturbance(self.nodes, self.disturb_rng, self.profiles)
            else:
                sender, target, m, start, arrival = payload
                if not self.nodes[sender].online:
                    continue  # lost with its sender's queue
                if start >= self._next_disturbance():
                    self._push(self._next_disturbance(), seq, kind, payload)
                else:
                    self._put_on_wire(target, m, arrival, seq)

    def _initiate(self, slot: int, t: int) -> None:
        """Start a broadcast at the slot's node, or the next online one in the order."""
        h = self.next_hash
        self.next_hash += 1
        n = len(self.order)
        online = [i for i in (self.order[(slot + step) % n] for step in range(n))
                  if self.nodes[i].online]
        if not online:
            self.tracker.initiate_skipped(h, self.order[slot % n], t)
            return
        i = online[0]
        node = self.nodes[i]
        self.known[i].add(h)
        mask = sum(1 << j for j, other in enumerate(self.nodes) if other.online)
        self.tracker.initiate(h, i, t, not node.refuses_relay, mask)
        payload = self.config.data_msg_bytes
        if self.variant == "gossip":
            own = Message(h, payload, node.id, node.id, node.id)
            sends = gossip_handle(node, own, self.beta, self.rng)
        else:
            sends = initiate_broadcast(node, payload, self.beta, self.variant == "ne", self.rng, h)
        self._send(i, t, sends)


def run_reference(spec: RunSpec) -> ReferenceEngine:
    """Run ``spec`` on the reference engine, over the network ``execute_run`` builds for it."""
    n = spec.n_nodes
    nodes, profiles = bootstrap_topology(spec, stream(spec.seed, "topology", spec.repeat))
    disturb_rng = stream(spec.seed, "disturb", spec.repeat)
    if spec.disturbance == "refuse_half":
        for i in disturb_rng.sample(range(n), n // 2):
            nodes[i].refuses_relay = True
    order = list(range(n))
    stream(spec.seed, "schedule", spec.repeat).shuffle(order)
    reference = ReferenceEngine(
        nodes, profiles, spec,
        stream(spec.seed, "protocol", spec.repeat, spec.variant, spec.redundancy),
        spec.variant, spec.redundancy, spec.refuse_withholds_confirms, disturb_rng, None, order,
    )
    total = spec.total_broadcasts or spec.rounds_per_node * n
    if spec.disturbance in ("churn_once", "churn_periodic"):
        reference.push_disturbance(0)
        t = spec.disturbance_period_us
        while spec.disturbance == "churn_periodic" and t <= (total - 1) * spec.interval_us:
            reference.push_disturbance(t)
            t += spec.disturbance_period_us
    for j in range(total):
        reference.push_initiate(j * spec.interval_us, j % n)
    reference.run(spec.horizon_us)
    return reference


def _open_tickets(nodes) -> int:
    return sum(len(probes) for node in nodes for probes in node.tickets.values())


def assert_same_run(engine, reference: ReferenceEngine) -> None:
    """Both ran the same spec: same counters, sends, records, tables and broadcast state.

    The engine must count data sends per hash. It keeps holders and
    tickets only for the hashes still in flight, and those must be what
    the reference holds for them. Every ticket that the engine orphaned
    or lost is one that the reference lost or still holds unsettled.
    """
    assert {c: getattr(engine, c) for c in COUNTERS} == {
        c: getattr(reference, c) for c in COUNTERS
    }
    assert engine.per_hash_sends == reference.per_hash_sends
    assert [
        [getattr(rec, slot) for slot in rec.__slots__] for rec in engine.tracker.recs
    ] == [[getattr(rec, slot) for slot in rec.__slots__] for rec in reference.tracker.recs]

    def tables(nodes):
        return [
            (node.id, node.online, [
                [(e.peer, e.score) for e in bucket.entries]
                for bucket in node.table.buckets
            ])
            for node in nodes
        ]

    assert tables(engine.nodes) == tables(reference.nodes)
    live = engine.holders.keys()
    assert engine.copies.keys() == live
    for h, held in engine.holders.items():
        assert held == {i for i, known in enumerate(reference.known) if h in known}
    for node, ref_node in zip(engine.nodes, reference.nodes):
        assert node.tickets == {h: p for h, p in ref_node.tickets.items() if h in live}
    assert (
        engine.tickets_orphaned + engine.tickets_lost + _open_tickets(engine.nodes)
        == reference.tickets_lost + _open_tickets(reference.nodes)
    )
