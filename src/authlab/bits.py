"""The hash lookup, width limits and digit parser under the protocol, which takes plain bytes.

Bits, hash_bytes, hash_bits and embed_timestamp stay only while the benchmark and the tests use them."""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable

DEFAULT_HASH_ID = "sha256"

# Timestamps embed as a 64-bit field, so narrower protocol widths are unusable.
MIN_WIDTH = 64
MAX_TIMESTAMP = (1 << 64) - 1

# A refused value longer than this is reported by its length, not repeated back.
MAX_ECHO = 40


def parse_digits(text: str, max_digits: int, not_digits: str, too_long: str) -> int:
    """The integer that text spells in 1 to max_digits ASCII digits.

    int() alone would also take spaces, signs, "_" and other scripts' digits,
    and refuses over 4,300 digits with its own advice; so the digits and their
    count are checked first. A refusal raises ValueError: not_digits or
    too_long, then what was given."""
    if not (text.isascii() and text.isdigit()):
        shown = repr(text) if len(text) <= MAX_ECHO else f"a {len(text)}-character value"
        raise ValueError(f"{not_digits}, got {shown}")
    if len(text) > max_digits:
        raise ValueError(f"{too_long}, got a {len(text)}-digit number")
    return int(text)


class Bits(bytes):
    """An immutable bit string of fixed width: its big-endian bytes.

    The width is whatever the value was created with; XOR insists the widths
    match and refuses plain bytes.
    """

    # checked in __init__, after bytes' C-level __new__: a Python __new__ would cost about twice as much
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


def _fips_mode() -> bool:
    """Whether OpenSSL enforces a FIPS policy; False where CPython has no OpenSSL."""
    try:
        import _hashlib
    except ImportError:
        return False
    return bool(_hashlib.get_fips_mode())


@functools.cache
def hasher(hash_id: str) -> tuple[Callable[[bytes], Any], int]:
    """The constructor for hash_id and its digest size in bytes, looked up once
    per id. A guaranteed name gets hashlib's named constructor, which skips the
    generic dispatch (a third of the cost of hashing 32 bytes); an OpenSSL-only
    name such as "sha512_256" goes through the generic one.

    Where CPython also has a built-in implementation, that one is used, unless
    OpenSSL runs in FIPS mode, whose policy the built-in one would bypass.
    OpenSSL 3 sets up a context on every call, which on CPython 3.10 to 3.13.0
    makes it the slower of the two for 32- and 64-byte inputs (README has the
    measurements). Both give the same digests."""
    guaranteed = hash_id in hashlib.algorithms_guaranteed
    new = getattr(hashlib, hash_id) if guaranteed else functools.partial(hashlib.new, hash_id)
    try:
        digest_size = new().digest_size
    except (ValueError, TypeError) as exc:  # a name with a NUL in it raises TypeError
        raise ValueError(f"unknown hash algorithm {hash_id!r}") from exc
    if digest_size == 0:
        raise ValueError(f"hash algorithm {hash_id!r} has no fixed output width")
    if _fips_mode():
        return new, digest_size
    try:  # a private helper of hashlib's, present in 3.10 to 3.13; _sha256 became _sha2 in 3.12
        return getattr(hashlib, "__get_builtin_constructor")(hash_id), digest_size
    except (AttributeError, ValueError):  # no such helper, or no built-in for this id
        return new, digest_size


def hash_width(hash_id: str) -> int:
    """Output width in bits of the named hash algorithm."""
    # a config's JSON hash_id can be a list, which the cached lookup would refuse with TypeError
    if not isinstance(hash_id, str):
        raise ValueError(f"unknown hash algorithm {hash_id!r}")
    return hasher(hash_id)[1] * 8


def hash_bytes(data: bytes, hash_id: str = DEFAULT_HASH_ID) -> Bits:
    """One-way hash of a byte string as a Bits value; kept for the benchmark and the tests."""
    return Bits(hasher(hash_id)[0](data).digest())


hash_bits = hash_bytes  # the same function under the name authbench/run.py and the tests import


def embed_timestamp(t: int, width: int) -> Bits:
    """Embed epoch seconds as a 64-bit big-endian field, zero-padded to width.

    Injective over 0 <= t < 2**64; anything outside is rejected.
    """
    if not 0 <= t <= MAX_TIMESTAMP:
        raise ValueError(f"timestamp out of 64-bit range: {t}")
    if width < MIN_WIDTH or width % 8:
        raise ValueError(f"width must be a multiple of 8 and at least {MIN_WIDTH}, got {width}")
    return Bits(t.to_bytes(width // 8, "big"))
