import hashlib
import random

import pytest

from conftest import as_int, random_bits
from authlab import bits
from authlab.bits import (
    MAX_ECHO,
    Bits,
    _fips_mode,
    embed_timestamp,
    hash_bits,
    hash_bytes,
    hash_width,
    hasher,
    parse_digits,
)

# FIPS 180 test vectors, frozen from the standard rather than recomputed
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_hash_matches_published_vectors():
    assert hash_bytes(b"").hex() == SHA256_EMPTY
    assert hash_bytes(b"abc").hex() == SHA256_ABC


def test_hash_deterministic_across_calls():
    assert hash_bytes(b"same input") == hash_bytes(b"same input")
    assert hash_bytes(b"same input").width == 256


def test_hash_bits_uses_canonical_encoding():
    b = Bits.from_hex("00" * 31 + "07")
    assert hash_bits(b) == hash_bytes(b"\x00" * 31 + b"\x07")


def test_hash_width_rejects_unknown_and_variable_algorithms():
    assert hash_width("sha256") == 256
    with pytest.raises(ValueError):
        hash_width("no-such-hash")
    with pytest.raises(ValueError):
        hash_width("shake_128")


@pytest.mark.parametrize("hash_id", ["sha224", "sha256", "sha384", "sha512"])
def test_builtin_and_hashlib_constructors_agree(hash_id):
    named = getattr(hashlib, hash_id)
    try:
        builtin = getattr(hashlib, "__get_builtin_constructor")(hash_id)
    except (AttributeError, ValueError):
        pytest.skip(f"this CPython has no built-in {hash_id}")
    if builtin is named:
        pytest.skip(f"this CPython has no OpenSSL {hash_id}")
    rng = random.Random(hash_id)
    for n in range(201):
        data = rng.randbytes(n)
        assert builtin(data).digest() == named(data).digest() == hash_bytes(data, hash_id)
    assert hasher(hash_id) == (named if _fips_mode() else builtin, named().digest_size)


def test_fips_mode_keeps_hashlibs_constructor(monkeypatch):
    monkeypatch.setattr(bits, "_fips_mode", lambda: True)
    hasher.cache_clear()
    try:
        assert hasher("sha256") == (hashlib.sha256, 32)
        assert hash_bytes(b"abc").hex() == SHA256_ABC
    finally:
        hasher.cache_clear()  # the next lookup sees the real mode again


def test_no_builtin_keeps_hashlibs_constructor(monkeypatch):
    assert hasher("blake2b") == (hashlib.blake2b, 64)  # the built-in is hashlib's own, not timed
    assert hasher("sha512_256")[0].func is hashlib.new  # OpenSSL only: the helper raises ValueError
    monkeypatch.delattr(hashlib, "__get_builtin_constructor")
    hasher.cache_clear()
    try:
        assert hasher("sha256") == (hashlib.sha256, 32)
        assert hasher("SHA512")[0].func is hashlib.new
        assert hash_bytes(b"abc").hex() == SHA256_ABC
    finally:
        hasher.cache_clear()  # the next lookup sees the helper again


def test_parse_digits_limits():
    assert parse_digits("007", 3, "bad", "long") == 7
    with pytest.raises(ValueError, match=r"^long, got a 4-digit number$"):
        parse_digits("0007", 3, "bad", "long")
    # a refused value is repeated back up to MAX_ECHO characters, and past that only counted
    with pytest.raises(ValueError, match=f"^bad, got '{'x' * MAX_ECHO}'$"):
        parse_digits("x" * MAX_ECHO, 3, "bad", "long")
    with pytest.raises(ValueError, match=f"^bad, got a {MAX_ECHO + 1}-character value$"):
        parse_digits("x" * (MAX_ECHO + 1), 3, "bad", "long")


def test_hex_round_trip():
    rng = random.Random(1)
    for _ in range(50):
        b = Bits(rng.randbytes(32))
        assert Bits.from_hex(b.hex()) == b
        assert len(b.hex()) == 64
        assert b.hex() == b.hex().lower()


@pytest.mark.parametrize("width", [64, 256, 512])
def test_repr_is_hex_and_evaluates_back(width):
    b = Bits(random.Random(width).randbytes(width // 8))
    assert repr(b) == f"Bits.from_hex('{b.hex()}')"
    assert eval(repr(b), {"Bits": Bits}) == b


# 64 is the narrowest usable width; 256 and 512 are sha256 and sha512
XOR_WIDTHS = (64, 256, 512)


def test_xor_algebra():
    rng = random.Random(2)
    for width in XOR_WIDTHS:
        zeros = Bits(bytes(width // 8))
        for _ in range(200):
            a, b, c = (random_bits(rng, width) for _ in range(3))
            assert type(a ^ b) is Bits and (a ^ b).width == width
            assert as_int(a ^ b) == as_int(a) ^ as_int(b)
            assert a ^ zeros == a
            assert a ^ a == zeros
            assert (a ^ b) ^ b == a
            assert a ^ b == b ^ a
            assert (a ^ b) ^ c == a ^ (b ^ c)


def test_xor_width_mismatch_rejected():
    for width in XOR_WIDTHS:
        n = width // 8
        with pytest.raises(ValueError, match="width mismatch"):
            Bits(b"\x00" * n) ^ Bits(b"\x00" * (n // 2))
        with pytest.raises(ValueError, match="width mismatch"):
            Bits(b"\x00" * n) ^ Bits(b"\x00" * (n + 1))
        with pytest.raises(TypeError):
            Bits(b"\x00" * n) ^ bytes(n)
        with pytest.raises(TypeError):
            bytes(n) ^ Bits(b"\x00" * n)


def test_bits_must_be_non_empty():
    with pytest.raises(ValueError):
        Bits(b"")
    with pytest.raises(ValueError):
        Bits.from_hex("")


def test_embed_timestamp_zero_and_one():
    assert embed_timestamp(0, 256) == Bits(bytes(32))
    one = embed_timestamp(1, 256)
    assert one == bytes(31) + b"\x01"


def test_embed_timestamp_self_inverse():
    t = 1_700_000_000
    assert embed_timestamp(t, 256) ^ embed_timestamp(t, 256) == Bits(bytes(32))


def test_embed_timestamp_injective_sample():
    rng = random.Random(3)
    stamps = [rng.randrange(0, 1 << 64) for _ in range(500)]
    encoded = {embed_timestamp(t, 256) for t in stamps}
    assert len(encoded) == len(set(stamps))


def test_embed_timestamp_rejects_out_of_range():
    with pytest.raises(ValueError):
        embed_timestamp(-1, 256)
    with pytest.raises(ValueError):
        embed_timestamp(1 << 64, 256)
    with pytest.raises(ValueError):
        embed_timestamp(0, 32)  # narrower than the 64-bit field
