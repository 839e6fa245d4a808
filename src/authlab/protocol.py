"""The four phases of a dynamic-ID smartcard login scheme, as pure functions.

Registration masks the password hash with the server's master secret to
produce the card's registration value. Login derives a fresh pseudonymous
client id, a binding value, and a check value from the typed password, the
card state, and the current time. Authentication re-derives the check from
the request alone plus the shared card secret, and accepts on a bit-exact
match inside a freshness window. Password change rewrites the registration
value in place.

Everything here is deterministic and side-effect free; this module has no
opinion about transport, persistence, or clocks. Every phase computes on
ints and takes and emits k-bit values as plain big-endian bytes.

A property worth stating up front because the whole attack harness rests on
it: the server's check cancels the typed password out algebraically, so
authentication succeeds for *any* password typed into a valid card. That is
faithful to the scheme under study, not an implementation bug.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from authlab.bits import DEFAULT_HASH_ID, MAX_TIMESTAMP, MIN_WIDTH, hash_width, hasher

Password = bytes

DEFAULT_WINDOW_SECS = 60
DEFAULT_SKEW_SECS = 5


class Reason(Enum):
    """Machine-readable outcome of an authentication attempt."""

    OK = "OK"
    STALE_TIMESTAMP = "STALE_TIMESTAMP"
    FUTURE_TIMESTAMP = "FUTURE_TIMESTAMP"
    CHECK_FAILED = "CHECK_FAILED"

    @property
    def accepted(self) -> bool:
        return self is _OK


_OK = Reason.OK  # a module global is cheaper to read than an Enum member, and accepted runs per trial


@dataclass(frozen=True)
class ServerSecrets:
    """The server's master secret x and the card-embedded shared secret y.

    x never leaves the server: it is not written to card files and not sent
    on the wire. y is identical across every card a server instance issues.
    """

    x: bytes
    y: bytes
    # y as an int for authenticate, set once here; init, repr, == and hash ignore it
    y_int: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"secret widths differ: x={len(self.x) * 8}, y={len(self.y) * 8}")
        if len(self.y) * 8 < MIN_WIDTH:  # the timestamp is XORed in as a 64-bit field
            raise ValueError(f"width must be at least {MIN_WIDTH} bits, got {len(self.y) * 8}")
        object.__setattr__(self, "y_int", int.from_bytes(self.y, "big"))


@dataclass(frozen=True)
class SmartcardState:
    """Personalization payload a card carries: registration value, shared
    secret, and the hash configuration both sides must agree on.

    Frozen, so the widths checked here hold for the card's lifetime; a
    password change returns a new card.
    """

    n_i: bytes
    y: bytes
    hash_id: str
    k: int
    # n_i xor y as an int for make_login_request, set once here; init, repr, == and hash ignore it
    n_y: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.n_i) * 8 != self.k or len(self.y) * 8 != self.k:
            raise ValueError(f"card fields must be k={self.k} bits: n_i={len(self.n_i) * 8}, y={len(self.y) * 8}")
        if hash_width(self.hash_id) != self.k:
            raise ValueError(f"hash {self.hash_id!r} does not produce {self.k}-bit output")
        object.__setattr__(self, "n_y", int.from_bytes(self.n_i, "big") ^ int.from_bytes(self.y, "big"))


@dataclass(frozen=True, slots=True)
class LoginRequest:
    """The login tuple (cid, n_i, c_i, t) sent over the insecure channel."""

    cid: bytes
    n_i: bytes
    c_i: bytes
    t: int

    def __post_init__(self) -> None:
        if not 0 < len(self.cid) == len(self.n_i) == len(self.c_i):
            widths = {len(f) * 8 for f in (self.cid, self.n_i, self.c_i)}
            raise ValueError(f"request fields must be non-empty and share one width, got {sorted(widths)}")
        if not 0 <= self.t <= MAX_TIMESTAMP:
            raise ValueError(f"timestamp out of 64-bit range: {self.t}")


@dataclass(frozen=True, slots=True)
class AuthDecision:
    """Outcome of authentication: the reason, which is OK exactly when accepted.

    recovered_hpw is the password hash the server unblinded from the request;
    it is only present on paths that got far enough to compute it, and is
    surfaced purely for audit and testing.
    """

    reason: Reason
    recovered_hpw: bytes | None = None

    @property
    def accepted(self) -> bool:
        return self.reason.accepted


def register_user(pw: Password, secrets: ServerSecrets, hash_id: str = DEFAULT_HASH_ID) -> bytes:
    """Registration: compute the card's registration value h(pw) xor h(x).

    Identical passwords under the same master secret yield identical values;
    that is inherent to the construction, not an implementation choice.
    """
    new, n = hasher(hash_id)
    return (_digest(pw, new) ^ _digest(secrets.x, new)).to_bytes(n, "big")


def issue_card(pw: Password, secrets: ServerSecrets, hash_id: str = DEFAULT_HASH_ID) -> SmartcardState:
    """Personalize a card for a newly registered user.

    Models the trusted registration channel as a direct in-process return;
    persisting the result to a card file is the CLI's job.
    """
    n_i = register_user(pw, secrets, hash_id)
    return SmartcardState(n_i=n_i, y=secrets.y, hash_id=hash_id, k=len(n_i) * 8)


def _digest(data: bytes, new: Callable[[bytes], Any]) -> int:
    """h(data) as an int; new is the hash constructor."""
    return int.from_bytes(new(data).digest(), "big")


def _h(v: int, n: int, new: Callable[[bytes], Any]) -> int:
    """h() of the n-byte big-endian value v, as an int; new gives n-byte digests."""
    return int.from_bytes(new(v.to_bytes(n, "big")).digest(), "big")


def _chain(n_y: int, t: int, n: int, new: Callable[[bytes], Any]) -> tuple[int, int]:
    """The hashes a login takes from n_i xor y and t: a = h(n_y xor t) and
    c = h(t xor n_y xor h(a)), both sides' blind and check value."""
    a = _h(n_y ^ t, n, new)
    return a, _h(t ^ n_y ^ _h(a, n, new), n, new)


# (n_y, t, n, new) -> (a, c), as _chain computes them
Chain = Callable[[int, int, int, Callable[[bytes], Any]], tuple[int, int]]


def make_login_request(card: SmartcardState, typed_pw: Password, t: int, *, chain: Chain = _chain) -> LoginRequest:
    """Card side of login, with hpw = h(typed_pw) and t as a k-bit value:

        cid = hpw xor h(n_i xor y xor t)
        b   = h(cid xor hpw)
        c_i = h(t xor n_i xor b xor y)

    The typed password is *not* checked against anything: the card stores no
    verifier, so any byte string is accepted here and, by construction of the
    server check, later. cid xor hpw is a = h(n_i xor y xor t), so b is h(a).
    """
    if not 0 <= t <= MAX_TIMESTAMP:
        raise ValueError(f"timestamp out of 64-bit range: {t}")
    new, n = hasher(card.hash_id)  # the card checked that its hash gives k bits
    a, c_i = chain(card.n_y, t, n, new)
    cid = _digest(typed_pw, new) ^ a
    return LoginRequest(cid.to_bytes(n, "big"), card.n_i, c_i.to_bytes(n, "big"), t)


def authenticate(
    secrets: ServerSecrets,
    req: LoginRequest,
    t_star: int,
    window_secs: int = DEFAULT_WINDOW_SECS,
    *,
    skew_secs: int = DEFAULT_SKEW_SECS,
    hash_id: str = DEFAULT_HASH_ID,
    chain: Chain = _chain,
) -> AuthDecision:
    """Server side of login, evaluated at receipt time t_star.

    Freshness first: a request older than window_secs is stale, one more than
    skew_secs ahead of the server clock is from the future; both boundaries
    are closed (t_star - t == window_secs still passes). Then the password
    hash is unblinded from cid, the binding value recomputed, and the check
    value compared bit for bit.

    The server keeps no per-user state and never touches its master secret x
    here; the shared card secret y and the request fields are all it uses.
    A server keeps the plain _chain: a memo shared by its clients would keep
    what they send, and its hit or miss timing would tell any client whether
    another card logged in at some t.
    """
    if window_secs <= 0:
        raise ValueError(f"window_secs must be positive, got {window_secs}")
    n = len(secrets.y)
    if len(req.cid) != n:
        return AuthDecision(Reason.CHECK_FAILED)
    if t_star - req.t > window_secs:
        return AuthDecision(Reason.STALE_TIMESTAMP)
    if req.t - t_star > skew_secs:
        return AuthDecision(Reason.FUTURE_TIMESTAMP)
    new, digest_size = hasher(hash_id)
    if digest_size != n:
        raise ValueError(f"width mismatch: {hash_id} gives {digest_size * 8} bits, not {n * 8}")
    a, c = chain(int.from_bytes(req.n_i, "big") ^ secrets.y_int, req.t, n, new)
    ok = hmac.compare_digest(c.to_bytes(n, "big"), req.c_i)
    recovered_hpw = int.from_bytes(req.cid, "big") ^ a
    return AuthDecision(Reason.OK if ok else Reason.CHECK_FAILED, recovered_hpw.to_bytes(n, "big"))


def change_password(card: SmartcardState, typed_old_pw: Password, new_pw: Password) -> SmartcardState:
    """Rewrite the registration value: n_i xor h(typed_old_pw) xor h(new_pw).

    The card performs no verification of the old password. Typing the wrong
    one silently corrupts the registration value relative to the server's
    master secret — and logins still succeed afterwards, since the check
    never involves the password. Reproduced faithfully, not patched.
    """
    new, n = hasher(card.hash_id)  # the card checked that its hash gives k bits
    n_new = int.from_bytes(card.n_i, "big") ^ _digest(typed_old_pw, new) ^ _digest(new_pw, new)
    return SmartcardState(n_i=n_new.to_bytes(n, "big"), y=card.y, hash_id=card.hash_id, k=card.k)
