"""Scored routing tables and rank-weighted relay selection.

A bucket is a plain list of peer ids, as in Kademlia, sorted by score
alone, highest first; peers with equal scores keep the order in which
they reached that score. Each table keeps its peers' scores in one dict.
Relay selection treats that order as a ranking: ranks are folded into
groups of doubling size (rank 0 alone, then ranks 1-2, then 3-6, ...)
and each group's weight halves relative to the one above it. A bucket
of capacity 15 therefore spans four groups with weights 8, 4, 2, 1, so
the top peer is eight times as likely to be drawn first as a bottom
one, but nobody is ever starved outright.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Iterator, NamedTuple, Sequence

@lru_cache(maxsize=None)
def rank_weights(capacity: int) -> tuple[int, ...]:
    """Selection weight for every rank of a bucket of capacity 2^n - 1, rank 0 first."""
    groups = (capacity + 1).bit_length() - 1
    weights = []
    for rank in range(capacity):
        group = (rank + 1).bit_length() - 1
        weights.append(1 << (groups - 1 - group))
    return tuple(weights)


class BucketEntry(NamedTuple):
    """A read-out of one bucket member: its id and its score when read."""

    peer: int
    score: int


class Bucket:
    """A capacity-bounded list of peer ids in rank order, scored in its table's dict."""

    __slots__ = ("capacity", "peers", "_scores")

    def __init__(self, capacity: int, scores: dict[int, int]):
        self.capacity = capacity
        self.peers: list[int] = []
        self._scores = scores

    def __len__(self) -> int:
        return len(self.peers)

    @property
    def entries(self) -> list[BucketEntry]:
        """Fresh ``(peer, score)`` snapshots in rank order, for checks and digests."""
        return [BucketEntry(peer, self._scores[peer]) for peer in self.peers]


class RoutingTable:
    """All buckets of one node, indexed by shared prefix length.

    Scores only ever grow, and a new peer starts at zero, so a fresh
    id always belongs at the back of its bucket. ``add_score`` then
    only needs to bubble the touched id toward the front, which keeps
    the rank order exact without ever re-sorting a whole bucket.
    Iterating a table yields its peer ids in the order they were filed,
    the insertion order of its score dict.
    """

    __slots__ = ("owner", "width", "buckets", "_scores")

    def __init__(self, owner: int, width: int, capacity: int):
        self.owner = owner
        self.width = width
        self._scores: dict[int, int] = {}
        self.buckets = [Bucket(capacity, self._scores) for _ in range(width)]

    def __contains__(self, peer: int) -> bool:
        return peer in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[int]:
        return iter(self._scores)

    def scores(self) -> dict[int, int]:
        """Snapshot of every tracked peer's score."""
        return dict(self._scores)

    def insert_peer(self, peer: int) -> bool:
        """File a peer, returning False for self, duplicates, or a full bucket."""
        if peer == self.owner or peer in self._scores:
            return False
        # index inline: sample_ids drew every id within the table's width
        index = self.width - (self.owner ^ peer).bit_length()
        bucket = self.buckets[index]
        if len(bucket.peers) >= bucket.capacity:
            return False
        self.file_peers(index, (peer,))
        return True

    def file_peers(self, index: int, peers: Sequence[int]) -> None:
        """Append ``peers``, at score 0, to the back of bucket ``index``.

        Unchecked: the caller guarantees that every peer is distinct, new
        to the table, not the owner, in the bucket's id range, and that
        they fit. ``insert_peer`` checks one peer; a sample of distinct
        ids from the bucket's own range (``netsim.fill_table``) needs no
        check.
        """
        self.buckets[index].peers += peers
        self._scores.update(dict.fromkeys(peers, 0))

    def add_score(self, peer: int) -> None:
        """Credit a peer with one point and restore rank order; unknown peers are ignored."""
        scores = self._scores
        score = scores.get(peer)
        if score is None:
            return
        score += 1
        scores[peer] = score
        peers = self.buckets[self.width - (self.owner ^ peer).bit_length()].peers
        i = peers.index(peer)
        while i and scores[peers[i - 1]] < score:
            peers[i] = peers[i - 1]
            i -= 1
        peers[i] = peer

    def clear(self) -> None:
        for bucket in self.buckets:
            bucket.peers.clear()
        self._scores.clear()


def select_relays(bucket: Bucket, beta: int, rng: Random) -> list[int]:
    """Draw ``beta`` relay ids from a bucket, weighted by rank, no repeats.

    Each draw spends one ``rng.random()`` call: the unit draw is scaled
    by the total weight still in play and matched against the running
    weight sum in rank order. When ``beta`` covers the whole bucket its
    ids are returned in rank order and the rng is left untouched.
    ``RunSpec`` rejects a ``beta`` below 1 before any run.
    """
    peers = bucket.peers
    n = len(peers)
    if beta >= n:
        return list(peers)
    weights = list(rank_weights(bucket.capacity)[:n])
    total = sum(weights)
    picked: list[int] = []
    for _ in range(beta):
        target = rng.random() * total
        acc = 0
        for i in range(n):
            w = weights[i]
            acc += w
            if target < acc:
                picked.append(peers[i])
                weights[i] = 0
                total -= w
                break
    return picked


def select_uniform(bucket: Bucket, beta: int, rng: Random) -> list[int]:
    """Plain uniform draw of ``beta`` ids from a bucket, for score-blind routing."""
    peers = bucket.peers
    if beta >= len(peers):
        return list(peers)
    return rng.sample(peers, beta)


def probe_set(bucket: Bucket, relays: list[int]) -> list[int]:
    """Bucket members passed over by selection, in rank order."""
    chosen = set(relays)
    return [peer for peer in bucket.peers if peer not in chosen]
