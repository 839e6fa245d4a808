import random
import socket
from dataclasses import replace

import pytest

from authlab.bits import hash_bytes
from authlab.protocol import (
    AuthDecision,
    Reason,
    ServerSecrets,
    SmartcardState,
    authenticate,
    issue_card,
    make_login_request,
)
from authlab.wire import decode_login_request

# the fixed parameter set every golden vector in the suite was frozen from
GOLDEN_PW = b"alice-pw"
GOLDEN_T = 1_700_000_000
GOLDEN_X_HEX = "5240bc7db80289b8e182ff0d5eace5ef4561b89376f7c12787d675b75244cd98"
GOLDEN_Y_HEX = "3ec76f7e1f2d3ee9a5056e6feb84c3d9f838e0815555a724d9912d5156e67e1d"


def random_bits(rng: random.Random, width: int = 256) -> bytes:
    return rng.randbytes(width // 8)


def as_int(b: bytes) -> int:
    return int.from_bytes(b, "big")


def as_bits(v: int, width: int = 256) -> bytes:
    return v.to_bytes(width // 8, "big")


def exchange(address: tuple[str, int], frame: bytes) -> tuple[str, bytes]:
    """Send one frame on a fresh connection; the peer as the server names it, and the reply."""
    with socket.create_connection(address, timeout=5) as conn:
        peer = "%s:%s" % conn.getsockname()[:2]
        conn.sendall(frame)
        conn.shutdown(socket.SHUT_WR)
        reply = b""
        while chunk := conn.recv(4096):
            reply += chunk
    return peer, reply


@pytest.fixture
def server_secrets() -> ServerSecrets:
    return ServerSecrets(x=bytes.fromhex(GOLDEN_X_HEX), y=bytes.fromhex(GOLDEN_Y_HEX))


@pytest.fixture
def card(server_secrets):
    return issue_card(GOLDEN_PW, server_secrets)


@pytest.fixture
def now() -> int:
    return GOLDEN_T


def mint_card(captured_frame: bytes, own_card: SmartcardState) -> SmartcardState:
    """The victim's card as any card holder builds it, without the victim's card
    file: n_i from one captured login frame (it travels in the clear), and y,
    which every card carries, from the holder's own card."""
    return replace(own_card, n_i=decode_login_request(captured_frame).n_i)


def make_strawman(secrets: ServerSecrets, real_pw: bytes):
    """Negative-control verifier: the scheme's check plus an actual comparison
    of the recovered password hash against the registered one. Exists only so
    tests can show the harness distinguishes a verifying server from this one.
    """
    stored_hpw = hash_bytes(real_pw)

    def verify(req, t_star, window_secs=60):
        decision = authenticate(secrets, req, t_star, window_secs)
        if decision.accepted and decision.recovered_hpw != stored_hpw:
            return AuthDecision(Reason.CHECK_FAILED, decision.recovered_hpw)
        return decision

    return verify


def recording_submit(secrets: ServerSecrets, t_star: int, calls: list):
    """The attack runner's in-process step (build the request, authenticate it
    at t_star) that also appends each (password, timestamp, decision) to calls,
    so a test sees exactly what the runner passed."""

    def submit(card, pw, t):
        decision = authenticate(secrets, make_login_request(card, pw, t), t_star=t_star)
        calls.append((pw, t, decision))
        return decision

    return submit
