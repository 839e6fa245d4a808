"""The four phases of a dynamic-ID smartcard login scheme, as pure functions.

Registration masks the password hash with the server's master secret to
produce the card's registration value. Login derives a fresh pseudonymous
client id, a binding value, and a check value from the typed password, the
card state, and the current time. Authentication re-derives the check from
the request alone plus the shared card secret, and accepts on a bit-exact
match inside a freshness window. Password change rewrites the registration
value in place.

Everything here is deterministic and side-effect free; this module has no
opinion about transport, persistence, or clocks.

A property worth stating up front because the whole attack harness rests on
it: the server's check cancels the typed password out algebraically, so
authentication succeeds for *any* password typed into a valid card. That is
faithful to the scheme under study, not an implementation bug.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from authlab.bits import (
    DEFAULT_HASH_ID,
    Bits,
    embed_timestamp,
    hash_bytes,
    hash_width,
)

Password = bytes

DEFAULT_WINDOW_SECS = 60
DEFAULT_SKEW_SECS = 5

MAX_TIMESTAMP = (1 << 64) - 1


class Reason(Enum):
    """Machine-readable outcome of an authentication attempt."""

    OK = "OK"
    STALE_TIMESTAMP = "STALE_TIMESTAMP"
    FUTURE_TIMESTAMP = "FUTURE_TIMESTAMP"
    CHECK_FAILED = "CHECK_FAILED"


@dataclass(frozen=True)
class ServerSecrets:
    """The server's master secret x and the card-embedded shared secret y.

    x never leaves the server: it is not written to card files and not sent
    on the wire. y is identical across every card a server instance issues.
    """

    x: Bits
    y: Bits

    def __post_init__(self) -> None:
        if self.x.width != self.y.width:
            raise ValueError(f"secret widths differ: x={self.x.width}, y={self.y.width}")


@dataclass
class SmartcardState:
    """Personalization payload a card carries: registration value, shared
    secret, and the hash configuration both sides must agree on.

    Mutable on purpose: a real card overwrites its registration value during
    a password change, and the attack tests exercise clone independence by
    reassigning fields.
    """

    n_i: Bits
    y: Bits
    hash_id: str
    k: int

    def __post_init__(self) -> None:
        if self.n_i.width != self.k or self.y.width != self.k:
            raise ValueError(
                f"card fields must be {self.k} bits: n_i={self.n_i.width}, y={self.y.width}"
            )
        if hash_width(self.hash_id) != self.k:
            raise ValueError(f"hash {self.hash_id!r} does not produce {self.k}-bit output")


@dataclass(frozen=True)
class LoginRequest:
    """The login tuple (cid, n_i, c_i, t) sent over the insecure channel."""

    cid: Bits
    n_i: Bits
    c_i: Bits
    t: int

    def __post_init__(self) -> None:
        widths = {self.cid.width, self.n_i.width, self.c_i.width}
        if len(widths) != 1:
            raise ValueError(f"request fields must share one width, got {sorted(widths)}")
        if not 0 <= self.t <= MAX_TIMESTAMP:
            raise ValueError(f"timestamp out of 64-bit range: {self.t}")

    @property
    def width(self) -> int:
        return self.cid.width


@dataclass(frozen=True)
class AuthDecision:
    """Accept/reject outcome.

    recovered_hpw is the password hash the server unblinded from the request;
    it is only present on paths that got far enough to compute it, and is
    surfaced purely for audit and testing.
    """

    accepted: bool
    reason: Reason
    recovered_hpw: Bits | None = None

    def __post_init__(self) -> None:
        if self.accepted and self.reason is not Reason.OK:
            raise ValueError("accepted decisions must carry reason OK")


def register_user(pw: Password, secrets: ServerSecrets, hash_id: str = DEFAULT_HASH_ID) -> Bits:
    """Registration: compute the card's registration value h(pw) xor h(x).

    Identical passwords under the same master secret yield identical values;
    that is inherent to the construction, not an implementation choice.
    """
    return hash_bytes(pw, hash_id) ^ hash_bytes(secrets.x, hash_id)


def issue_card(pw: Password, secrets: ServerSecrets, hash_id: str = DEFAULT_HASH_ID) -> SmartcardState:
    """Personalize a card for a newly registered user.

    Models the trusted registration channel as a direct in-process return;
    persisting the result to a card file is the CLI's job.
    """
    n_i = register_user(pw, secrets, hash_id)
    return SmartcardState(n_i=n_i, y=secrets.y, hash_id=hash_id, k=n_i.width)


class LoginDerivation(NamedTuple):
    """Every value the card computes during login, exposed for audit."""

    hpw: Bits
    cid: Bits
    binding: Bits
    check: Bits


def derive_login_values(card: SmartcardState, typed_pw: Password, t: int) -> LoginDerivation:
    """Card-side login derivation, with hpw = h(typed_pw) and tb the embedded
    timestamp:

        cid     = hpw xor h(n_i xor y xor tb)
        binding = h(cid xor hpw)
        check   = h(tb xor n_i xor binding xor y)
    """
    hpw = hash_bytes(typed_pw, card.hash_id)
    tb = embed_timestamp(t, card.k)
    cid = hpw ^ hash_bytes(card.n_i ^ card.y ^ tb, card.hash_id)
    binding = hash_bytes(cid ^ hpw, card.hash_id)
    check = hash_bytes(tb ^ card.n_i ^ binding ^ card.y, card.hash_id)
    return LoginDerivation(hpw=hpw, cid=cid, binding=binding, check=check)


def make_login_request(card: SmartcardState, typed_pw: Password, t: int) -> LoginRequest:
    """Card side of login: the request tuple for the typed password at time t.

    The typed password is *not* checked against anything: the card stores no
    verifier, so any byte string is accepted here and, by construction of the
    server check, later.
    """
    derived = derive_login_values(card, typed_pw, t)
    return LoginRequest(cid=derived.cid, n_i=card.n_i, c_i=derived.check, t=t)


def authenticate(
    secrets: ServerSecrets,
    req: LoginRequest,
    t_star: int,
    window_secs: int = DEFAULT_WINDOW_SECS,
    *,
    skew_secs: int = DEFAULT_SKEW_SECS,
    hash_id: str = DEFAULT_HASH_ID,
) -> AuthDecision:
    """Server side of login, evaluated at receipt time t_star.

    Freshness first: a request older than window_secs is stale, one more than
    skew_secs ahead of the server clock is from the future; both boundaries
    are closed (t_star - t == window_secs still passes). Then the password
    hash is unblinded from cid, the binding value recomputed, and the check
    value compared bit for bit.

    The server keeps no per-user state and never touches its master secret x
    here; the shared card secret y and the request fields are all it uses.
    """
    if window_secs <= 0:
        raise ValueError(f"window_secs must be positive, got {window_secs}")
    if req.width != secrets.y.width:
        return AuthDecision(accepted=False, reason=Reason.CHECK_FAILED)
    if t_star - req.t > window_secs:
        return AuthDecision(accepted=False, reason=Reason.STALE_TIMESTAMP)
    if req.t - t_star > skew_secs:
        return AuthDecision(accepted=False, reason=Reason.FUTURE_TIMESTAMP)

    tb = embed_timestamp(req.t, secrets.y.width)
    recovered_hpw = req.cid ^ hash_bytes(req.n_i ^ secrets.y ^ tb, hash_id)
    b = hash_bytes(req.cid ^ recovered_hpw, hash_id)
    expected_c = hash_bytes(tb ^ req.n_i ^ b ^ secrets.y, hash_id)

    if hmac.compare_digest(expected_c, req.c_i):
        return AuthDecision(accepted=True, reason=Reason.OK, recovered_hpw=recovered_hpw)
    return AuthDecision(accepted=False, reason=Reason.CHECK_FAILED, recovered_hpw=recovered_hpw)


def change_password(card: SmartcardState, typed_old_pw: Password, new_pw: Password) -> SmartcardState:
    """Rewrite the registration value: n_i xor h(typed_old_pw) xor h(new_pw).

    The card performs no verification of the old password. Typing the wrong
    one silently corrupts the registration value relative to the server's
    master secret — and logins still succeed afterwards, since the check
    never involves the password. Reproduced faithfully, not patched.
    """
    n_new = card.n_i ^ hash_bytes(typed_old_pw, card.hash_id) ^ hash_bytes(new_pw, card.hash_id)
    return SmartcardState(n_i=n_new, y=card.y, hash_id=card.hash_id, k=card.k)
