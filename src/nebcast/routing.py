"""Scored routing tables and rank-weighted relay selection.

Each bucket keeps its peers sorted by score, highest first, with ties
broken by insertion time (older first). Relay selection treats that
order as a ranking: ranks are folded into groups of doubling size
(rank 0 alone, then ranks 1-2, then 3-6, ...) and each group's weight
halves relative to the one above it. A bucket of capacity 15 therefore
spans four groups with weights 8, 4, 2, 1, so the top peer is eight
times as likely to be drawn first as a bottom one, but nobody is ever
starved outright.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from .errors import ConfigurationError
from .identity import check_id, check_width


def check_capacity(capacity: int, name: str = "bucket capacity") -> None:
    # group sizes 1, 2, 4, ... only tile the rank range when capacity is 2^n - 1
    if not isinstance(capacity, int) or capacity < 1 or capacity & (capacity + 1):
        raise ConfigurationError(f"{name} must be 2**n - 1 for n >= 1, got {capacity!r}")


@lru_cache(maxsize=None)
def rank_weights(capacity: int) -> tuple[int, ...]:
    """Selection weight for every rank of a bucket, rank 0 first."""
    check_capacity(capacity)
    groups = (capacity + 1).bit_length() - 1
    weights = []
    for rank in range(capacity):
        group = (rank + 1).bit_length() - 1
        weights.append(1 << (groups - 1 - group))
    return tuple(weights)


class PeerEntry:
    """One routed peer: its id, accumulated score, and insertion time."""

    __slots__ = ("peer", "score", "inserted_at")

    def __init__(self, peer: int, score: int = 0, inserted_at: int = 0):
        self.peer = peer
        self.score = score
        self.inserted_at = inserted_at

    def __repr__(self) -> str:
        return f"PeerEntry(peer={self.peer:#x}, score={self.score}, inserted_at={self.inserted_at})"


class Bucket:
    """A capacity-bounded peer list kept in rank order."""

    __slots__ = ("capacity", "entries")

    def __init__(self, capacity: int):
        check_capacity(capacity)
        self.capacity = capacity
        self.entries: list[PeerEntry] = []

    def __len__(self) -> int:
        return len(self.entries)


class RoutingTable:
    """All buckets of one node, indexed by shared prefix length.

    Scores only ever grow, and a new peer starts at zero, so a fresh
    entry always belongs at the back of its bucket. ``add_score`` then
    only needs to bubble the touched entry toward the front, which
    keeps the rank order exact without ever re-sorting a whole bucket.
    """

    __slots__ = ("owner", "width", "buckets", "_entries")

    def __init__(self, owner: int, width: int, capacity: int):
        check_width(width)
        check_id(owner, width)
        self.owner = owner
        self.width = width
        self.buckets = [Bucket(capacity) for _ in range(width)]
        self._entries: dict[int, PeerEntry] = {}

    def __contains__(self, peer: int) -> bool:
        return peer in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entry_for(self, peer: int) -> PeerEntry | None:
        return self._entries.get(peer)

    def scores(self) -> dict[int, int]:
        """Snapshot of every tracked peer's score."""
        return {peer: entry.score for peer, entry in self._entries.items()}

    def insert_peer(self, peer: int, now: int = 0) -> bool:
        """File a peer, returning False for self, duplicates, or a full bucket."""
        if peer == self.owner or peer in self._entries:
            return False
        # index inline: arguments were range-checked when the ids were made
        bucket = self.buckets[self.width - (self.owner ^ peer).bit_length()]
        if len(bucket.entries) >= bucket.capacity:
            return False
        entry = PeerEntry(peer, 0, now)
        bucket.entries.append(entry)
        self._entries[peer] = entry
        return True

    def add_score(self, peer: int, amount: int = 1) -> int:
        """Credit a peer and restore rank order; unknown peers are ignored.

        Returns the peer's score after the update (0 if untracked).
        """
        entry = self._entries.get(peer)
        if entry is None:
            return 0
        if amount < 0:
            raise ConfigurationError("scores only accumulate; negative credit is not defined")
        entry.score += amount
        entries = self.buckets[self.width - (self.owner ^ peer).bit_length()].entries
        i = entries.index(entry)
        while i > 0:
            ahead = entries[i - 1]
            if ahead.score < entry.score or (
                ahead.score == entry.score and ahead.inserted_at > entry.inserted_at
            ):
                entries[i - 1], entries[i] = entry, ahead
                i -= 1
            else:
                break
        return entry.score

    def clear(self) -> None:
        for bucket in self.buckets:
            bucket.entries.clear()
        self._entries.clear()


def select_relays(bucket: Bucket, beta: int, rng: Random) -> list[PeerEntry]:
    """Draw ``beta`` relays from a bucket, weighted by rank, no repeats.

    Each draw spends one ``rng.random()`` call: the unit draw is scaled
    by the total weight still in play and matched against the running
    weight sum in rank order. When ``beta`` covers the whole bucket the
    entries are returned as-is and the rng is left untouched.
    """
    if beta < 1:
        raise ConfigurationError(f"redundancy must be at least 1, got {beta}")
    entries = bucket.entries
    n = len(entries)
    if beta >= n:
        return list(entries)
    weights = list(rank_weights(bucket.capacity)[:n])
    total = sum(weights)
    picked: list[PeerEntry] = []
    for _ in range(beta):
        target = rng.random() * total
        acc = 0
        for i in range(n):
            w = weights[i]
            if not w:
                continue
            acc += w
            if target < acc:
                picked.append(entries[i])
                weights[i] = 0
                total -= w
                break
    return picked


def select_uniform(bucket: Bucket, beta: int, rng: Random) -> list[PeerEntry]:
    """Plain uniform draw of ``beta`` entries, for score-blind routing."""
    if beta < 1:
        raise ConfigurationError(f"redundancy must be at least 1, got {beta}")
    entries = bucket.entries
    if beta >= len(entries):
        return list(entries)
    return rng.sample(entries, beta)


def probe_set(bucket: Bucket, relays: list[PeerEntry]) -> list[PeerEntry]:
    """Bucket members passed over by selection, in rank order."""
    chosen = {entry.peer for entry in relays}
    return [entry for entry in bucket.entries if entry.peer not in chosen]
