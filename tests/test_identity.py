"""Identity-layer tests: bucket indexing, the width check, id sampling.

Bucket placement is checked on the code the engine runs,
``RoutingTable.insert_peer``, against an oracle that recomputes the
shared prefix by naive bit-string comparison, so the bit arithmetic in
the package is checked against an independent implementation.
"""

from __future__ import annotations

import random

import pytest

from nebcast.errors import ConfigurationError
from nebcast.identity import MAX_ADDRESS_BITS, sample_ids
from nebcast.netsim import NetworkConfig
from nebcast.routing import RoutingTable


def _naive_shared_prefix(a: int, b: int, width: int) -> int:
    """Count equal leading bits by comparing bit strings character by character."""
    sa = format(a, f"0{width}b")
    sb = format(b, f"0{width}b")
    count = 0
    for ca, cb in zip(sa, sb):
        if ca != cb:
            break
        count += 1
    return count


def _bucket_of(owner: int, peer: int, width: int) -> int | None:
    """Index of the bucket ``owner``'s table files ``peer`` into, or None if refused."""
    table = RoutingTable(owner, width, 1)
    if not table.insert_peer(peer):
        return None
    (index,) = [i for i, bucket in enumerate(table.buckets) if bucket.peers]
    return index


def test_shared_prefix_len_examples():
    assert _bucket_of(0b0000, 0b1000, 4) == 0
    assert _bucket_of(0b1000, 0b1001, 4) == 3
    assert _bucket_of(0b1010, 0b1110, 4) == 1


def test_shared_prefix_len_matches_naive_scan():
    rng = random.Random(7)
    for _ in range(10_000):
        width = rng.choice((4, 8, 16))
        a = rng.randrange(1 << width)
        b = rng.randrange(1 << width)
        if a == b:
            continue
        assert _bucket_of(a, b, width) == _naive_shared_prefix(a, b, width)


def test_shared_prefix_first_divergent_bit_differs():
    rng = random.Random(13)
    for _ in range(2000):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1 << 16)
        if a == b:
            continue
        k = _bucket_of(a, b, 16)
        bit_a = (a >> (16 - 1 - k)) & 1
        bit_b = (b >> (16 - 1 - k)) & 1
        assert bit_a != bit_b


def test_bucket_index_examples():
    assert _bucket_of(0b0000, 0b1000, 4) == 0
    assert _bucket_of(0b0000, 0b0001, 4) == 3


def test_bucket_index_symmetry():
    rng = random.Random(3)
    for _ in range(1000):
        a = rng.randrange(1 << 16)
        b = rng.randrange(1 << 16)
        if a == b:
            continue
        assert _bucket_of(a, b, 16) == _bucket_of(b, a, 16)


def test_bucket_index_rejects_self():
    for width, owner in ((8, 5), (4, 0), (16, (1 << 16) - 1)):
        table = RoutingTable(owner, width, 1)
        assert not table.insert_peer(owner)
        assert owner not in table and len(table) == 0


def test_width_validation():
    NetworkConfig(1, address_bits=1)
    NetworkConfig(1, address_bits=MAX_ADDRESS_BITS)
    for bad in (0, -1, MAX_ADDRESS_BITS + 1):
        with pytest.raises(ConfigurationError):
            NetworkConfig(1, address_bits=bad)


def test_sample_ids_unique_and_in_range():
    rng = random.Random(19)
    ids = sample_ids(200, 16, rng)
    assert len(ids) == 200
    assert len(set(ids)) == 200
    assert all(0 <= i < (1 << 16) for i in ids)


def test_sample_ids_full_space():
    rng = random.Random(2)
    ids = sample_ids(16, 4, rng)
    assert sorted(ids) == list(range(16))


def test_sample_ids_rejects_oversubscription():
    rng = random.Random(2)
    with pytest.raises(ConfigurationError):
        sample_ids(17, 4, rng)


def test_sample_ids_deterministic():
    assert sample_ids(50, 16, random.Random(8)) == sample_ids(50, 16, random.Random(8))
