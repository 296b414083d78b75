"""Per-broadcast delivery accounting and the derived statistics.

One ``MessageRec`` tracks one broadcast: when it started, how many
distinct nodes got it, and when the last receipt landed if everyone
did. Coverage aggregates receipts across repeats against a fixed
denominator, so under churn the achievable maximum is the average
online fraction rather than 100.

The unreceived fraction that measures dissemination itself is counted
over the online population instead: each record remembers which nodes
were online when its broadcast started (the initiator among them), and
only receipts by those nodes count toward it. A node that was offline
at the start and came back while the broadcast was still spreading
counts in neither the numerator nor the denominator. Without churn the
two accountings coincide.
"""

from __future__ import annotations

from typing import Sequence


class MessageRec:
    """Delivery record for a single broadcast."""

    __slots__ = (
        "seq",
        "initiator",
        "received_count",
        "honest_received",
        "start_us",
        "last_receive_us",
        "online_at_start",
        "online_count",
        "online_received",
    )

    def __init__(self, seq: int, initiator: int, start_us: int, online_at_start: int):
        self.seq = seq
        self.initiator = initiator
        self.received_count = 0
        self.honest_received = 0
        self.start_us = start_us
        self.last_receive_us: int | None = None
        # bitmask over node indices; bit i set when node i was online at the start
        self.online_at_start = online_at_start
        self.online_count = online_at_start.bit_count()
        self.online_received = 0

    @property
    def complete(self) -> bool:
        return self.last_receive_us is not None

    def __repr__(self) -> str:
        return (
            f"MessageRec(seq={self.seq}, received={self.received_count},"
            f" start={self.start_us}, last={self.last_receive_us})"
        )


def latency(rec: MessageRec) -> int | None:
    """Start-to-last-receipt span in μs, or None while incomplete."""
    if rec.last_receive_us is None:
        return None
    return rec.last_receive_us - rec.start_us


class BroadcastTracker:
    """Collects one MessageRec per scheduled broadcast of a run.

    The initiator is counted as receiving its own broadcast at start.
    A record is complete, its ``last_receive_us`` set, at its
    ``n_nodes``-th receipt. ``initiate`` takes whether the initiator
    relays (``honest``) and the bitmask of node indices online at the
    start (``online``), the initiator among them. A broadcast whose
    initiator is offline at its scheduled slot still gets a record; it
    just stays at zero receipts and, since nobody was online, adds
    nothing to the online population either.
    """

    __slots__ = ("n_nodes", "recs", "_by_hash")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.recs: list[MessageRec] = []
        self._by_hash: dict[int, MessageRec] = {}

    def initiate(self, msg_hash: int, initiator: int, t: int, honest: bool, online: int) -> None:
        self._open(msg_hash, initiator, t, online)
        self.receive(msg_hash, t, honest, initiator)

    def initiate_skipped(self, msg_hash: int, initiator: int, t: int) -> None:
        self._open(msg_hash, initiator, t, 0)

    def _open(self, msg_hash: int, initiator: int, t: int, online: int) -> None:
        rec = MessageRec(len(self.recs), initiator, t, online)
        self.recs.append(rec)
        self._by_hash[msg_hash] = rec

    def receive(self, msg_hash: int, t: int, honest: bool, node: int) -> None:
        """Count the first receipt of a broadcast by node index ``node``.

        Reaching the full population freezes the completion time. The
        engine feeds each node's first receipt of a hash at most once,
        so a count past the population is a harness bug and raises.
        """
        rec = self._by_hash[msg_hash]
        if rec.received_count >= self.n_nodes:
            raise AssertionError(f"broadcast {rec.seq} double-counted beyond {self.n_nodes}")
        rec.received_count += 1
        if rec.received_count == self.n_nodes:
            rec.last_receive_us = t
        if honest:
            rec.honest_received += 1
        if rec.online_at_start >> node & 1:
            rec.online_received += 1


def coverage_percent(received_totals: Sequence[int], rounds: int, n_nodes: int) -> float:
    """Aggregate coverage over repeats, in percent.

    ``received_totals`` holds one summed receipt count per repeat;
    ``rounds`` is the number of broadcasts per repeat. The denominator
    is rounds * repeats * n_nodes, every scheduled broadcast counted
    against the whole population.
    """
    return 100.0 * sum(received_totals) / (rounds * len(received_totals) * n_nodes)


def honest_coverage_percent(
    received_totals: Sequence[int], rounds: int, honest_counts: Sequence[int]
) -> float:
    """Coverage restricted to honest nodes, in percent.

    The numerator must tally receipts by honest nodes only, and the
    denominator scales per-repeat honest populations instead of N, so
    refusing nodes neither help nor hurt the score.
    """
    return 100.0 * sum(received_totals) / (rounds * sum(honest_counts))


def online_unreceived_percent(
    online_received: Sequence[int], online_population: Sequence[int]
) -> float | None:
    """Unreceived fraction over the online population, in percent.

    Both arguments hold one total per repeat: receipts by nodes that
    were online when their broadcast started, and the number of such
    (broadcast, node) pairs. Returns None when nobody was online at any
    broadcast start, where the fraction is undefined.
    """
    population = sum(online_population)
    if population == 0:
        return None
    return 100.0 - 100.0 * sum(online_received) / population
