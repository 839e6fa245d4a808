"""Fixed-width bit strings and the hash/XOR primitives the protocol is built on."""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable

DEFAULT_HASH_ID = "sha256"

# Timestamps embed as a 64-bit field, so narrower protocol widths are unusable.
MIN_WIDTH = 64
MAX_TIMESTAMP = (1 << 64) - 1


class Bits(bytes):
    """An immutable bit string of fixed width: its big-endian bytes.

    The width is whatever the value was created with; XOR insists the widths
    match and refuses plain bytes.
    """

    # The check runs in __init__, after bytes' own C-level __new__ has built the
    # value: a Python __new__ calling super().__new__ costs about twice as much.
    def __init__(self, value: bytes) -> None:
        if not self:
            raise ValueError("Bits value must be non-empty")

    @property
    def width(self) -> int:
        """Width in bits (always a multiple of 8)."""
        return len(self) * 8

    @classmethod
    def from_hex(cls, text: str) -> Bits:
        return cls(bytes.fromhex(text))

    def __repr__(self) -> str:
        return f"Bits.from_hex({self.hex()!r})"

    def __xor__(self, other: Bits) -> Bits:
        if not isinstance(other, Bits):
            return NotImplemented
        n = len(self)
        if n != len(other):
            raise ValueError(f"width mismatch: {self.width} != {other.width}")
        return Bits((int.from_bytes(self, "big") ^ int.from_bytes(other, "big")).to_bytes(n, "big"))


@functools.cache
def hasher(hash_id: str) -> tuple[Callable[[bytes], Any], int]:
    """The constructor for hash_id and its digest size in bytes, looked up once
    per id. A guaranteed name gets hashlib's named constructor, which skips the
    generic dispatch (a third of the cost of hashing 32 bytes); an OpenSSL-only
    name such as "sha512_256" goes through the generic one."""
    guaranteed = hash_id in hashlib.algorithms_guaranteed
    new = getattr(hashlib, hash_id) if guaranteed else functools.partial(hashlib.new, hash_id)
    try:
        digest_size = new().digest_size
    except (ValueError, TypeError) as exc:  # a name with a NUL in it raises TypeError
        raise ValueError(f"unknown hash algorithm {hash_id!r}") from exc
    if digest_size == 0:
        raise ValueError(f"hash algorithm {hash_id!r} has no fixed output width")
    return new, digest_size


def hash_width(hash_id: str) -> int:
    """Output width in bits of the named hash algorithm."""
    # a config's JSON hash_id can be a list, which the cached lookup would refuse with TypeError
    if not isinstance(hash_id, str):
        raise ValueError(f"unknown hash algorithm {hash_id!r}")
    return hasher(hash_id)[1] * 8


def hash_bytes(data: bytes, hash_id: str = DEFAULT_HASH_ID) -> Bits:
    """One-way hash of a byte string, a Bits value included, as a digest-width value."""
    return Bits(hasher(hash_id)[0](data).digest())


# The one hash function; this name stays only because authbench/run.py and the tests import it.
hash_bits = hash_bytes


def embed_timestamp(t: int, width: int) -> Bits:
    """Embed epoch seconds as a 64-bit big-endian field, zero-padded to width.

    Injective over 0 <= t < 2**64; anything outside is rejected.
    """
    if not 0 <= t <= MAX_TIMESTAMP:
        raise ValueError(f"timestamp out of 64-bit range: {t}")
    if width < MIN_WIDTH or width % 8:
        raise ValueError(f"width must be a multiple of 8 and at least {MIN_WIDTH}, got {width}")
    return Bits(t.to_bytes(width // 8, "big"))
