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

from .errors import ConfigurationError


class MessageRec:
    """Delivery record for a single broadcast."""

    __slots__ = (
        "seq",
        "initiator",
        "full_count",
        "received_count",
        "honest_received",
        "start_us",
        "last_receive_us",
        "online_at_start",
        "online_count",
        "online_received",
    )

    def __init__(
        self, seq: int, initiator: int, full_count: int, online_at_start: int | None = None
    ):
        self.seq = seq
        self.initiator = initiator
        self.full_count = full_count
        self.received_count = 0
        self.honest_received = 0
        self.start_us: int | None = None
        self.last_receive_us: int | None = None
        # bitmask over node indices; bit i set when node i was online at the start
        if online_at_start is None:
            online_at_start = (1 << full_count) - 1
        self.online_at_start = online_at_start
        self.online_count = online_at_start.bit_count()
        self.online_received = 0

    @property
    def complete(self) -> bool:
        return self.received_count == self.full_count

    def __repr__(self) -> str:
        return (
            f"MessageRec(seq={self.seq}, received={self.received_count}/{self.full_count},"
            f" start={self.start_us}, last={self.last_receive_us})"
        )


def latency(rec: MessageRec) -> int | None:
    """Start-to-last-receipt span in μs, or None while incomplete."""
    if rec.last_receive_us is None or rec.start_us is None:
        return None
    return rec.last_receive_us - rec.start_us


class BroadcastTracker:
    """Collects one MessageRec per scheduled broadcast of a run.

    The initiator is counted as receiving its own broadcast at start,
    so full coverage means all ``n_nodes`` receipts. A broadcast whose
    initiator is offline at its scheduled slot still gets a record; it
    just stays at zero receipts and, since nobody was online, adds
    nothing to the online population either.

    ``online`` is the bitmask of node indices online when a broadcast
    starts; left out, everyone counts as online.
    """

    __slots__ = ("n_nodes", "recs", "_by_hash")

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.recs: list[MessageRec] = []
        self._by_hash: dict[int, MessageRec] = {}

    def initiate(
        self,
        msg_hash: int,
        initiator: int,
        t: int,
        honest: bool = True,
        online: int | None = None,
    ) -> None:
        self._open(msg_hash, initiator, t, online)
        self.receive(msg_hash, t, honest, initiator)

    def initiate_skipped(self, msg_hash: int, initiator: int, t: int) -> None:
        self._open(msg_hash, initiator, t, 0)

    def _open(self, msg_hash: int, initiator: int, t: int, online: int | None) -> None:
        rec = MessageRec(len(self.recs), initiator, self.n_nodes, online)
        rec.start_us = t
        self.recs.append(rec)
        self._by_hash[msg_hash] = rec

    def receive(self, msg_hash: int, t: int, honest: bool, node: int) -> None:
        """Count the first receipt of a broadcast by node index ``node``.

        Reaching the full population freezes the completion time. The
        engine feeds each node's first receipt of a hash at most once,
        so a count past the population is a harness bug and raises.
        """
        rec = self._by_hash[msg_hash]
        if rec.received_count >= rec.full_count:
            raise AssertionError(f"broadcast {rec.seq} double-counted beyond {rec.full_count}")
        rec.received_count += 1
        if rec.received_count == rec.full_count:
            rec.last_receive_us = t
        if honest:
            rec.honest_received += 1
        if rec.online_at_start >> node & 1:
            rec.online_received += 1

    def received_total(self) -> int:
        return sum(rec.received_count for rec in self.recs)

    def honest_received_total(self) -> int:
        return sum(rec.honest_received for rec in self.recs)

    def online_received_total(self) -> int:
        return sum(rec.online_received for rec in self.recs)

    def online_population_total(self) -> int:
        return sum(rec.online_count for rec in self.recs)


def coverage_percent(received_totals: Sequence[int], rounds: int, n_nodes: int) -> float:
    """Aggregate coverage over repeats, in percent.

    ``received_totals`` holds one summed receipt count per repeat;
    ``rounds`` is the number of broadcasts per repeat. The denominator
    is rounds * repeats * n_nodes, every scheduled broadcast counted
    against the whole population.
    """
    repeats = len(received_totals)
    if repeats < 1 or rounds < 1 or n_nodes < 1:
        raise ConfigurationError(
            f"coverage needs at least one repeat, round, and node"
            f" (got {repeats} repeats, {rounds} rounds, {n_nodes} nodes)"
        )
    return 100.0 * sum(received_totals) / (rounds * repeats * n_nodes)


def honest_coverage_percent(
    received_totals: Sequence[int], rounds: int, honest_counts: Sequence[int]
) -> float:
    """Coverage restricted to honest nodes, in percent.

    The numerator must tally receipts by honest nodes only, and the
    denominator scales per-repeat honest populations instead of N, so
    refusing nodes neither help nor hurt the score.
    """
    if len(received_totals) != len(honest_counts):
        raise ConfigurationError(
            f"got {len(received_totals)} receipt totals but {len(honest_counts)} honest counts"
        )
    if rounds < 1 or not honest_counts or min(honest_counts) < 1:
        raise ConfigurationError("honest coverage needs rounds >= 1 and honest nodes in every repeat")
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
    if len(online_received) != len(online_population):
        raise ConfigurationError(
            f"got {len(online_received)} receipt totals but {len(online_population)} populations"
        )
    population = sum(online_population)
    if population == 0:
        return None
    return 100.0 - 100.0 * sum(online_received) / population
