"""Straight-line recomputation of every protocol value, independent of the package.

Works on plain ints (mod 2**width) instead of the package's byte-string type, and
composes the hash and XOR directly from the phase formulas. Used to freeze golden
vectors and to cross-check all intermediate values. Every function takes the hash
name and the width in bits; the defaults are SHA-256 at 256 bits.
"""

import hashlib
import random


def sha(data: bytes, hash_id: str = "sha256") -> int:
    return int.from_bytes(hashlib.new(hash_id, data).digest(), "big")


def sha_int(v: int, hash_id: str = "sha256", width: int = 256) -> int:
    # protocol values hash as their canonical width/8-byte big-endian encoding
    return sha(v.to_bytes(width // 8, "big"), hash_id)


def registration_value(pw: bytes, x: int, hash_id: str = "sha256", width: int = 256) -> int:
    """Card registration value: h(PW) xor h(x)."""
    return sha(pw, hash_id) ^ sha_int(x, hash_id, width)


def login_values(pw: bytes, n_i: int, y: int, t: int, hash_id: str = "sha256", width: int = 256) -> dict:
    """Everything the card computes for one login attempt.

    The timestamp embeds as a zero-padded 64-bit big-endian field, which as an
    integer is just t itself.
    """
    hpw = sha(pw, hash_id)
    cid = hpw ^ sha_int(n_i ^ y ^ t, hash_id, width)
    b_i = sha_int(cid ^ hpw, hash_id, width)
    c_i = sha_int(t ^ n_i ^ b_i ^ y, hash_id, width)
    return {"hpw": hpw, "cid": cid, "b_i": b_i, "c_i": c_i}


def server_values(cid: int, n_i: int, y: int, t: int, hash_id: str = "sha256", width: int = 256) -> dict:
    """Everything the server recomputes from a received request."""
    recovered_hpw = cid ^ sha_int(n_i ^ y ^ t, hash_id, width)
    b_i = sha_int(cid ^ recovered_hpw, hash_id, width)
    expected_c_i = sha_int(t ^ n_i ^ b_i ^ y, hash_id, width)
    return {"recovered_hpw": recovered_hpw, "b_i": b_i, "expected_c_i": expected_c_i}


def changed_registration_value(n_i: int, old_pw: bytes, new_pw: bytes, hash_id: str = "sha256") -> int:
    """Replacement registration value after a password change."""
    return n_i ^ sha(old_pw, hash_id) ^ sha(new_pw, hash_id)


def login_frame(cid: int, n_i: int, c_i: int, t: int, width: int = 256) -> bytes:
    """Byte layout of a login-request frame, composed by hand."""
    payload = b"".join(v.to_bytes(width // 8, "big") for v in (cid, n_i, c_i))
    payload += t.to_bytes(8, "big")
    return bytes([0x01, 0x01]) + len(payload).to_bytes(4, "big") + payload


def draw_password(rng: random.Random) -> bytes:
    """A random attack password: length 0..64 inclusive, then that many random bytes."""
    return rng.randbytes(rng.randint(0, 64))
