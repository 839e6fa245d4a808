"""The `authlab serve` process as a black box, raw-frame clients, and the
seeded hostile frame mix with its in-process expected outcomes."""

from __future__ import annotations

import errno
import json
import os
import random
import select
import signal
import socket
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from authlab.attack import draw_password
from authlab.protocol import authenticate, make_login_request
from authlab.storage import ServerConfig, parse_address
from authlab.wire import (
    MSG_AUTH_RESPONSE,
    MSG_LOGIN_REQUEST,
    BadTypeError,
    MalformedFrameError,
    decode_login_request,
    encode_auth_response,
    encode_frame,
    encode_login_request,
)

from tracing import Tracer

READY_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
IO_TIMEOUT_S = 10.0

# errors a peer sees when the server resets instead of closing cleanly
RESET_ERRNOS = {errno.ECONNRESET, errno.ENOTCONN, errno.EPIPE}


def proc_status(pid: int | str) -> dict[str, int]:
    """Threads and VmHWM (kB) from /proc/<pid>/status."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key in ("Threads", "VmHWM"):
                fields[key] = int(value.split()[0])
    return fields


class ServeProcess:
    """`python -m authlab serve --config <path>` with its clock pinned.

    Tracks the audit reasons it should have logged, so that stop() can
    compare them with the audit file the server wrote.
    """

    def __init__(self, src: Path, config_path: Path, audit_path: Path, now: int, workdir: Path):
        env = dict(os.environ, PYTHONPATH=str(src), AUTHLAB_FAKE_TIME=str(now))
        self.audit_path = audit_path
        self.expected: Counter[str] = Counter()
        self.threads_peak = 0
        self.hwm_kb = 0
        self._stderr = open(workdir / "serve.stderr", "wb")
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "authlab", "serve", "--config", str(config_path)],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=workdir,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(f"authlab serve did not report its address (exit {self.proc.poll()})")
            self.address = parse_address(json.loads(line)["listening"])
        except BaseException:
            self.stop()
            raise
        self.ready_s = perf_counter() - start

    def sample(self) -> None:
        status = proc_status(self.proc.pid)
        self.threads_peak = max(self.threads_peak, status["Threads"])
        self.hwm_kb = max(self.hwm_kb, status["VmHWM"])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()

    def audit_counts(self) -> Counter[str]:
        with open(self.audit_path, encoding="utf-8") as fh:
            return Counter(json.loads(line)["reason"] for line in fh)


def _recv_all(conn: socket.socket) -> bytes:
    chunks = []
    while chunk := conn.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


def recv_reply_frame(conn: socket.socket) -> bytes:
    """Read one reply frame and stop, as client_login does; b"" at EOF."""
    header = b""
    while len(header) < 6 and (chunk := conn.recv(6 - len(header))):
        header += chunk
    if len(header) < 6:
        return header
    payload = b""
    (length,) = struct.unpack(">I", header[2:])
    while len(payload) < length and (chunk := conn.recv(length - len(payload))):
        payload += chunk
    return header + payload


def send_frame(address, frame: bytes) -> tuple[bytes | None, bool]:
    """Send one frame, half-close, read to EOF.

    Returns (reply or None when the server sent nothing, whether the server
    reset the connection instead of closing it).
    """
    with socket.create_connection(address, timeout=IO_TIMEOUT_S) as conn:
        try:
            conn.sendall(frame)
            conn.shutdown(socket.SHUT_WR)
            reply = _recv_all(conn)
        except OSError as exc:
            if exc.errno not in RESET_ERRNOS:
                raise
            return None, True
    return reply or None, False


def send_frame_traced(
    address, frame: bytes, tracer: Tracer, op: int, parent: int, read=_recv_all
) -> tuple[bytes | None, bool]:
    """send_frame with a span around connect, send and the wait for the reply,
    which `read` takes from the socket."""
    sid = tracer.open("wire.connect", op, parent)
    conn = socket.create_connection(address, timeout=IO_TIMEOUT_S)
    tracer.close(sid)
    with conn:
        try:
            sid = tracer.open("wire.send", op, parent)
            conn.sendall(frame)
            conn.shutdown(socket.SHUT_WR)
            tracer.close(sid)
            sid = tracer.open("wire.server_wait", op, parent)
            reply = read(conn)
            tracer.close(sid)
        except OSError as exc:
            tracer.close(sid)
            if exc.errno not in RESET_ERRNOS:
                raise
            return None, True
    return reply or None, False


class GateError(Exception):
    """A correctness check failed before any operation could be timed."""


# Frame kinds of the hostile mix: (weight, audit reason the scheme implies).
# Only "honest" frames are valid logins; "trailing" carries one extra byte
# inside the declared payload; a "wrong_width" request decodes but fails the
# check.
FRAME_KINDS = {
    "honest": (2, "OK"),
    "stale": (1, "STALE_TIMESTAMP"),
    "future": (1, "FUTURE_TIMESTAMP"),
    "tampered": (1, "CHECK_FAILED"),
    "wrong_width": (1, "CHECK_FAILED"),
    "bad_version": (1, "MALFORMED_FRAME"),
    "truncated": (1, "MALFORMED_FRAME"),
    "trailing": (1, "MALFORMED_FRAME"),
    "wrong_type": (1, "BAD_TYPE"),
}


def _frame(kind: str, rng: random.Random, card, config: ServerConfig, now: int) -> bytes:
    pw = draw_password(rng)
    if kind == "stale":
        t = now - config.window_secs - 1 - rng.randrange(1 << 20)
    elif kind == "future":
        t = now + config.skew_secs + 1 + rng.randrange(1 << 20)
    else:
        t = now - rng.randint(0, config.window_secs)
    frame = encode_login_request(make_login_request(card, pw, t))
    if kind == "tampered":
        tampered = bytearray(frame)
        tampered[6 + 2 * card.k // 8 + rng.randrange(card.k // 8)] ^= 1 << rng.randrange(8)
        return bytes(tampered)
    if kind == "wrong_width":
        nbytes = rng.choice([8, 16, 24, 48, 64])
        return encode_frame(MSG_LOGIN_REQUEST, rng.randbytes(3 * nbytes) + t.to_bytes(8, "big"))
    if kind == "bad_version":
        return frame[:1] + bytes([rng.choice([0x00, 0x02, 0x7F, 0xFF])]) + frame[2:]
    if kind == "truncated":
        return frame[: rng.randrange(1, len(frame))]
    if kind == "trailing":
        return encode_frame(MSG_LOGIN_REQUEST, frame[6:] + rng.randbytes(1))
    if kind == "wrong_type":
        return encode_frame(rng.choice([MSG_AUTH_RESPONSE, 0x00, 0x7F]), frame[6:])
    return frame


def expected_outcome(frame: bytes, config: ServerConfig, now: int) -> tuple[bytes | None, str]:
    """The reply the server must send (None for none) and the audit reason it
    must log, computed in-process with the strict codec at the pinned time."""
    try:
        req = decode_login_request(frame)
    except BadTypeError:
        return None, "BAD_TYPE"
    except (MalformedFrameError, ValueError):
        return None, "MALFORMED_FRAME"
    decision = authenticate(
        config.secrets,
        req,
        t_star=now,
        window_secs=config.window_secs,
        skew_secs=config.skew_secs,
        hash_id=config.hash_id,
    )
    return encode_auth_response(decision, config.secrets.y.width), decision.reason.value


def hostile_pool(seed: int, size: int, card, config: ServerConfig, now: int):
    """`size` seeded frames as (kind, frame, expected reply, expected reason).

    The in-process outcome of every frame must carry the reason its kind
    implies, so that the pool checks the program before the wire does.
    """
    rng = random.Random(f"hostile-{seed}")
    kinds = rng.choices(list(FRAME_KINDS), weights=[w for w, _ in FRAME_KINDS.values()], k=size)
    pool = []
    for kind in kinds:
        frame = _frame(kind, rng, card, config, now)
        reply, reason = expected_outcome(frame, config, now)
        if reason != FRAME_KINDS[kind][1]:
            raise GateError(f"{kind} frame decided in-process as {reason}, not {FRAME_KINDS[kind][1]}")
        pool.append((kind, frame, reply, reason))
    return pool
