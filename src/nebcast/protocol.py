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
network layer to schedule. Nothing here knows about time-of-flight,
bandwidth, or liveness.
"""

from __future__ import annotations

from random import Random
from typing import NamedTuple

from .errors import ConfigurationError
from .routing import RoutingTable, probe_set, select_relays, select_uniform

DATA_BYTES = 128
CONFIRM_BYTES = 20

# score event reasons, in the order a message can trigger them
SCORE_NEW_SENDER = "new-message"
SCORE_PROBE_VOTE = "probe-vote"
SCORE_RELAY_VOTE = "relay-vote"


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


class Ticket(NamedTuple):
    """A pending vote slot: which probe may confirm which broadcast."""

    message_hash: int
    probe_id: int


class NodeState:
    """Everything one node remembers between events."""

    __slots__ = ("id", "table", "known", "tickets", "refuses_relay", "online", "neighbors")

    def __init__(self, id: int, table: RoutingTable, refuses_relay: bool = False):
        self.id = id
        self.table = table
        self.known: set[int] = set()
        self.tickets: set[Ticket] = set()
        self.refuses_relay = refuses_relay
        self.online = True
        # static adjacency, only used by the gossip baseline
        self.neighbors: list[int] = []


_NO_SENDS: tuple = ()


def initiate_broadcast(
    node: NodeState,
    payload_size: int,
    beta: int,
    ne_enabled: bool,
    rng: Random,
    now: int,
    msg_hash: int,
    events: list | None = None,
) -> list[tuple[int, Message]]:
    """Start a broadcast from ``node`` and return its first-hop sends.

    Buckets are visited in ascending index order and the rng is spent
    in that order, which pins the whole run down given the seed. With
    neighbor evaluation on, selection is rank-weighted and every bucket
    member that lost the draw gets a ticket; with it off, selection is
    uniform and no tickets exist.
    """
    if msg_hash in node.known:
        raise ConfigurationError(f"hash {msg_hash} already initiated or received at this node")
    node.known.add(msg_hash)
    sends: list[tuple[int, Message]] = []
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
                node.tickets.add(Ticket(msg_hash, entry.peer))
                if events is not None:
                    events.append(("ticket", now, node.id, entry.peer, msg_hash))
    return sends


def handle_message(
    node: NodeState,
    m: Message,
    beta: int,
    ne_enabled: bool,
    rng: Random,
    now: int,
    confirm_size: int = CONFIRM_BYTES,
    refuse_withholds_confirms: bool = False,
    events: list | None = None,
):
    """Process one delivered message and return the send intents it causes.

    The steps run in a fixed order: vote settlement when the receiver
    is the message's source, duplicate drop, scoring of the sender,
    confirmation toward the source, refusal cut-off, and finally subtree
    relaying into buckets deeper than the one shared with the sender.

    Score events and consumed tickets are appended to ``events`` when a
    list is supplied; the hot path skips that bookkeeping entirely. A
    duplicate at a non-source node is recognized up front and returns
    without touching anything, which is behaviorally identical to
    running the full sequence.
    """
    h = m.hash
    known = node.known
    if h in known and node.id != m.source:
        return _NO_SENDS
    table = node.table
    if node.id == m.source:
        # only confirmations come back to the source for a hash it owns;
        # settle the vote if this probe still holds a ticket
        ticket = (h, m.sender)
        if ticket in node.tickets:
            node.tickets.discard(ticket)
            table.add_score(m.sender, 1)
            table.add_score(m.relay, 1)
            if events is not None:
                events.append(("score", now, node.id, m.sender, SCORE_PROBE_VOTE, h))
                events.append(("score", now, node.id, m.relay, SCORE_RELAY_VOTE, h))
        return _NO_SENDS
    table.add_score(m.sender, 1)
    known.add(h)
    if events is not None:
        events.append(("score", now, node.id, m.sender, SCORE_NEW_SENDER, h))
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


def gossip_initiate(
    node: NodeState,
    payload_size: int,
    fanout: int,
    rng: Random,
    msg_hash: int,
) -> list[tuple[int, Message]]:
    """Start a gossip round: push to ``fanout`` random neighbors."""
    if fanout < 1:
        raise ConfigurationError(f"fanout must be at least 1, got {fanout}")
    if msg_hash in node.known:
        raise ConfigurationError(f"hash {msg_hash} already initiated or received at this node")
    node.known.add(msg_hash)
    targets = node.neighbors
    if fanout < len(targets):
        targets = rng.sample(targets, fanout)
    m = Message(msg_hash, payload_size, node.id, node.id, node.id)
    return [(peer, m) for peer in targets]


def gossip_handle(
    node: NodeState,
    m: Message,
    fanout: int,
    rng: Random,
) -> list[tuple[int, Message]]:
    """Gossip reception: forward a new hash to random neighbors, drop duplicates.

    The sender is excluded from the candidate set, so the effective
    fanout is capped at degree - 1.
    """
    if fanout < 1:
        raise ConfigurationError(f"fanout must be at least 1, got {fanout}")
    if m.hash in node.known:
        return _NO_SENDS
    node.known.add(m.hash)
    candidates = [peer for peer in node.neighbors if peer != m.sender]
    if fanout < len(candidates):
        candidates = rng.sample(candidates, fanout)
    forwarded = Message(m.hash, m.size, m.source, m.relay, node.id)
    return [(peer, forwarded) for peer in candidates]
