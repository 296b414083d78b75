"""The broadcast state machine: initiation, reception, voting, gossip.

A broadcast walks the routing table as a tree: the initiator picks
relays in every bucket, and each receiver only re-relays into buckets
strictly deeper than the one it shares with its sender. With one relay
per bucket the relay scopes partition the address space, so a fault
free broadcast reaches everyone exactly once.

Neighbor evaluation adds accountability on top. Messages carry two
extra fields, the originator (``source``) and the first-hop relay
choice (``relay``), and the bucket members that were *not* selected
become probes: the source keeps a ticket per probe, and when a probe
receives the broadcast through someone else it echoes a small
confirmation back to the source. The first confirmation per ticket
credits both the probe and the relay whose branch fed it, so peers
that actually move messages climb the rankings that future selections
are weighted by.

All operations are pure state transitions: they mutate only the given
node and return send intents ``(destination id, message)`` for the
network layer to schedule, or whether a vote counted. Nothing here
knows the clock, time-of-flight, bandwidth or liveness, writes the
log, or records who holds a hash: the engine does, per broadcast, and
calls in here only for an initiation, a new copy or a confirmation.
"""

from __future__ import annotations

from random import Random

from .routing import RoutingTable, probe_set, select_relays, select_uniform

DATA_BYTES = 128
CONFIRM_BYTES = 20


class Message:
    """One broadcast packet.

    ``hash`` is an opaque token standing in for a content digest; the
    simulator only needs it to be unique per (source, payload, round).
    ``relay`` is set by the source for each first-hop branch and is
    never rewritten downstream. ``sender`` is the immediate sender and
    changes at every hop. Payload content is abstracted to its byte
    length.
    """

    __slots__ = ("hash", "size", "source", "relay", "sender", "is_confirmation")

    def __init__(
        self,
        hash: int,
        size: int,
        source: int,
        relay: int,
        sender: int,
        *,
        is_confirmation: bool = False,
    ):
        self.hash = hash
        self.size = size
        self.source = source
        self.relay = relay
        self.sender = sender
        self.is_confirmation = is_confirmation

    def __repr__(self) -> str:
        kind = "confirm" if self.is_confirmation else "data"
        return (
            f"Message({kind} hash={self.hash} source={self.source:#x}"
            f" relay={self.relay:#x} sender={self.sender:#x})"
        )


class NodeState:
    """Everything one node remembers between events."""

    __slots__ = ("id", "table", "tickets", "refuses_relay", "online")

    def __init__(self, id: int, table: RoutingTable, refuses_relay: bool = False):
        self.id = id
        self.table = table
        # hash of a broadcast this node started -> probes that may still confirm it
        self.tickets: dict[int, set[int]] = {}
        self.refuses_relay = refuses_relay
        self.online = True


def initiate_broadcast(
    node: NodeState,
    payload_size: int,
    beta: int,
    ne_enabled: bool,
    rng: Random,
    msg_hash: int,
) -> list[tuple[int, Message]]:
    """Start a broadcast from ``node`` and return its first-hop sends.

    Buckets are visited in ascending index order and the rng is spent
    in that order, which pins the whole run down given the seed. With
    neighbor evaluation on, selection is rank-weighted and every bucket
    member that lost the draw gets a ticket; with it off, selection is
    uniform and no tickets exist.
    """
    sends: list[tuple[int, Message]] = []
    probes: set[int] = set()
    pick = select_relays if ne_enabled else select_uniform
    for bucket in node.table.buckets:
        if not bucket.entries:
            continue
        relays = pick(bucket, beta, rng)
        for entry in relays:
            m = Message(msg_hash, payload_size, node.id, entry.peer, node.id)
            sends.append((entry.peer, m))
        if ne_enabled:
            for entry in probe_set(bucket, relays):
                probes.add(entry.peer)
    if probes:
        node.tickets[msg_hash] = probes
    return sends


def handle_message(
    node: NodeState,
    m: Message,
    beta: int,
    ne_enabled: bool,
    rng: Random,
    confirm_size: int = CONFIRM_BYTES,
    refuse_withholds_confirms: bool = False,
) -> list[tuple[int, Message]]:
    """Process a new copy of a broadcast and return the send intents it causes.

    The engine calls this only for a hash the receiver does not hold
    yet, which is never at the broadcast's source; it counts any other
    copy as a duplicate, and hands a confirmation, which reaches only
    its source, to ``record_vote``. The steps run in a fixed order:
    scoring of the sender, confirmation toward the source, refusal
    cut-off, and finally subtree relaying into buckets deeper than the
    one shared with the sender.
    """
    h = m.hash
    table = node.table
    table.add_score(m.sender)
    sends: list[tuple[int, Message]] = []
    if (
        ne_enabled
        and m.sender != m.source
        and m.source in table
        and not (node.refuses_relay and refuse_withholds_confirms)
    ):
        confirm = Message(h, confirm_size, m.source, m.relay, node.id, is_confirmation=True)
        sends.append((m.source, confirm))
    if node.refuses_relay:
        return sends
    height = table.width - (node.id ^ m.sender).bit_length() + 1
    buckets = node.table.buckets
    forwarded: Message | None = None
    pick = select_relays if ne_enabled else select_uniform
    for i in range(height, table.width):
        bucket = buckets[i]
        if not bucket.entries:
            continue
        if forwarded is None:
            forwarded = Message(h, m.size, m.source, m.relay, node.id)
        for entry in pick(bucket, beta, rng):
            sends.append((entry.peer, forwarded))
    return sends


def record_vote(node: NodeState, m: Message) -> bool:
    """Settle confirmation ``m`` at its source ``node``; True if it used up a ticket."""
    probes = node.tickets.get(m.hash, ())
    if m.sender not in probes:
        return False
    probes.discard(m.sender)
    node.table.add_score(m.sender)
    node.table.add_score(m.relay)
    return True


def gossip_handle(
    node: NodeState,
    m: Message,
    fanout: int,
    rng: Random,
) -> list[tuple[int, Message]]:
    """Gossip push: send a new hash to ``fanout`` random peers of the node's table.

    The engine calls this for a hash the node does not hold yet and
    counts every other copy as a duplicate. An initiator pushes its own
    broadcast the same way, handed a copy that it sent itself. The
    sender is left out of the candidates, so a receiver's fanout is
    capped at the table's size - 1; an initiator is in none of its own
    buckets, so it loses no one.
    """
    candidates = [peer for peer in node.table if peer != m.sender]
    if fanout < len(candidates):
        candidates = rng.sample(candidates, fanout)
    forwarded = Message(m.hash, m.size, m.source, m.relay, node.id)
    return [(peer, forwarded) for peer in candidates]
