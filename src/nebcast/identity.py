"""Node identities in a fixed-width XOR-metric address space.

An id is a plain unsigned integer read as a bit string of ``width``
bits, most significant bit first. Peers are filed into buckets by the
length of the id prefix they share with the local node: bucket ``i``
holds peers agreeing on exactly the first ``i`` bits and differing on
bit ``i``, which is bucket ``width - (a ^ b).bit_length()`` for ids
``a`` and ``b``. Ids come only from ``sample_ids``, which draws them
within the width that ``NetworkConfig`` checked, so nothing below the
config re-checks an id or a width.
"""

from __future__ import annotations

from random import Random

from .errors import ConfigurationError

MAX_ADDRESS_BITS = 160


def sample_ids(count: int, width: int, rng: Random) -> list[int]:
    """Draw ``count`` distinct ids uniformly from the width-bit space."""
    # more ids than the space holds would never finish drawing
    if count < 0 or count > (1 << width):
        raise ConfigurationError(f"cannot draw {count} distinct ids from a {width}-bit space")
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        candidate = rng.getrandbits(width)
        if candidate not in seen:
            seen.add(candidate)
            out.append(candidate)
    return out
