"""Node identities in a fixed-width XOR-metric address space.

An id is a plain unsigned integer read as a bit string of ``width``
bits, most significant bit first. Peers are filed into buckets by the
length of the id prefix they share with the local node: bucket ``i``
holds peers agreeing on exactly the first ``i`` bits and differing on
bit ``i``, which is bucket ``width - (a ^ b).bit_length()`` for ids
``a`` and ``b``. A routing table checks its owner against the declared
width so that a mis-sized id fails loudly instead of landing in the
wrong bucket.
"""

from __future__ import annotations

from random import Random

from .errors import ConfigurationError

MAX_ADDRESS_BITS = 160


def check_width(width: int, name: str = "address width") -> None:
    if not isinstance(width, int) or not 1 <= width <= MAX_ADDRESS_BITS:
        raise ConfigurationError(f"{name} must be an int in [1, {MAX_ADDRESS_BITS}], got {width!r}")


def check_id(value: int, width: int) -> None:
    if not isinstance(value, int) or not 0 <= value < (1 << width):
        raise ConfigurationError(f"id {value!r} does not fit an address width of {width} bits")


def sample_ids(count: int, width: int, rng: Random) -> list[int]:
    """Draw ``count`` distinct ids uniformly from the width-bit space."""
    check_width(width)
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
