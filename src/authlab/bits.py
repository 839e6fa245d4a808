"""Fixed-width bit strings and the hash/XOR primitives the protocol is built on."""

from __future__ import annotations

import hashlib

DEFAULT_HASH_ID = "sha256"
DEFAULT_WIDTH = 256

# Timestamps embed as a 64-bit field, so narrower protocol widths are unusable.
MIN_WIDTH = 64


class Bits(bytes):
    """An immutable bit string of fixed width: its big-endian bytes.

    The width is whatever the value was created with; XOR insists the widths
    match and refuses plain bytes.
    """

    def __new__(cls, value: bytes) -> Bits:
        self = super().__new__(cls, value)
        if not self:
            raise ValueError("Bits value must be non-empty")
        return self

    @property
    def width(self) -> int:
        """Width in bits (always a multiple of 8)."""
        return len(self) * 8

    @classmethod
    def zeros(cls, width: int) -> Bits:
        if width <= 0 or width % 8:
            raise ValueError(f"width must be a positive multiple of 8, got {width}")
        return cls(bytes(width // 8))

    @classmethod
    def from_hex(cls, text: str) -> Bits:
        return cls(bytes.fromhex(text))

    def __xor__(self, other: Bits) -> Bits:
        if not isinstance(other, Bits):
            return NotImplemented
        n = len(self)
        if n != len(other):
            raise ValueError(f"width mismatch: {self.width} != {other.width}")
        return Bits((int.from_bytes(self, "big") ^ int.from_bytes(other, "big")).to_bytes(n, "big"))


def hash_width(hash_id: str) -> int:
    """Output width in bits of the named hash algorithm."""
    try:
        digest_size = hashlib.new(hash_id).digest_size
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unknown hash algorithm {hash_id!r}") from exc
    if digest_size == 0:
        raise ValueError(f"hash algorithm {hash_id!r} has no fixed output width")
    return digest_size * 8


def hash_bytes(data: bytes, hash_id: str = DEFAULT_HASH_ID) -> Bits:
    """One-way hash of a byte string, a Bits value included, as a digest-width value."""
    return Bits(hashlib.new(hash_id, data).digest())


# The one hash function; this name stays only because authbench/run.py and the tests import it.
hash_bits = hash_bytes


def embed_timestamp(t: int, width: int = DEFAULT_WIDTH) -> Bits:
    """Embed epoch seconds as a 64-bit big-endian field, zero-padded to width.

    Injective over 0 <= t < 2**64; anything outside is rejected.
    """
    if not 0 <= t < 1 << 64:
        raise ValueError(f"timestamp out of 64-bit range: {t}")
    if width < MIN_WIDTH or width % 8:
        raise ValueError(f"width must be a multiple of 8 and at least {MIN_WIDTH}, got {width}")
    return Bits(t.to_bytes(width // 8, "big"))
