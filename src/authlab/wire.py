"""Wire codec and TCP transport for login over an insecure channel.

Frame layout, big-endian throughout::

    offset  size  field
    0       1     msg_type   0x01 LOGIN_REQUEST, 0x02 AUTH_RESPONSE
    1       1     version    always 0x01
    2       4     payload_len (<= 4096)
    6       n     payload

LOGIN_REQUEST payload is cid || n_i || c_i (k/8 bytes each) || t (8 bytes),
104 bytes for k=256. AUTH_RESPONSE payload is one status byte (0x00 accept,
0x01 stale, 0x02 future, 0x03 check failed) followed by the recovered
password hash, zero-filled on paths that never computed it. Returning the
recovered hash at all is a lab affordance for observability; a production
protocol would not reveal it.

The decoders are strict: given one whole frame, they reject a wrong
version, a declared length that does not match, trailing bytes, or an
unexpected message type. The server and the client each read one frame off
the socket (the header, then the payload it declares), decode it with those
same functions, and ignore any bytes sent after it. The server answers
exactly one request per connection and then closes.
"""

from __future__ import annotations

import json
import logging
import queue
import socket
import socketserver
import struct
import sys
import threading
import time
from typing import IO

from authlab.bits import MIN_WIDTH, Bits
from authlab.clock import Clock, system_clock
from authlab.protocol import (
    AuthDecision,
    LoginRequest,
    Password,
    Reason,
    SmartcardState,
    make_login_request,
)
from authlab.storage import ServerConfig

logger = logging.getLogger(__name__)

MSG_LOGIN_REQUEST = 0x01
MSG_AUTH_RESPONSE = 0x02
WIRE_VERSION = 0x01
MAX_PAYLOAD = 4096

_HEADER = struct.Struct(">BBI")

STATUS_BY_REASON = {
    Reason.OK: 0x00,
    Reason.STALE_TIMESTAMP: 0x01,
    Reason.FUTURE_TIMESTAMP: 0x02,
    Reason.CHECK_FAILED: 0x03,
}
REASON_BY_STATUS = {code: reason for reason, code in STATUS_BY_REASON.items()}


class WireError(Exception):
    """Base for everything that can go wrong on the wire."""


class MalformedFrameError(WireError):
    """Frame violates the layout: bad version, bad length, short, or trailing bytes."""


class BadTypeError(WireError):
    """Structurally valid frame of an unexpected message type."""


class ConnectionFailedError(WireError):
    """Could not reach or keep a connection to the server."""


class MalformedResponseError(WireError):
    """Server reply that does not parse as an auth response."""


def encode_frame(msg_type: int, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise MalformedFrameError(f"payload too large: {len(payload)} > {MAX_PAYLOAD}")
    return _HEADER.pack(msg_type, WIRE_VERSION, len(payload)) + payload


def _parse_header(header: bytes) -> tuple[int, int]:
    if len(header) != _HEADER.size:
        raise MalformedFrameError(f"short header: {len(header)} bytes")
    msg_type, version, payload_len = _HEADER.unpack(header)
    if version != WIRE_VERSION:
        raise MalformedFrameError(f"unsupported version: {version:#04x}")
    if payload_len > MAX_PAYLOAD:
        raise MalformedFrameError(f"declared payload too large: {payload_len}")
    return msg_type, payload_len


def decode_frame(data: bytes) -> tuple[int, bytes]:
    """Strict whole-buffer decode: exactly one frame, nothing before or after."""
    msg_type, payload_len = _parse_header(data[: _HEADER.size])
    payload = data[_HEADER.size :]
    if len(payload) != payload_len:
        raise MalformedFrameError(
            f"declared payload length {payload_len} but {len(payload)} bytes present"
        )
    return msg_type, payload


def encode_login_request(req: LoginRequest) -> bytes:
    payload = req.cid + req.n_i + req.c_i + req.t.to_bytes(8, "big")
    return encode_frame(MSG_LOGIN_REQUEST, payload)


def decode_login_request(data: bytes) -> LoginRequest:
    """Inverse of encode_login_request; rejects anything else."""
    msg_type, payload = decode_frame(data)
    if msg_type != MSG_LOGIN_REQUEST:
        raise BadTypeError(f"expected LOGIN_REQUEST, got type {msg_type:#04x}")
    body_len = len(payload) - 8
    if body_len <= 0 or body_len % 3:
        raise MalformedFrameError(f"login payload of {len(payload)} bytes has no valid split")
    n = body_len // 3
    if n * 8 < MIN_WIDTH:
        raise MalformedFrameError(f"field width {n * 8} bits below 64-bit minimum")
    cid, n_i, c_i, t = payload[:n], payload[n : 2 * n], payload[2 * n : 3 * n], payload[3 * n :]
    return LoginRequest(cid=Bits(cid), n_i=Bits(n_i), c_i=Bits(c_i), t=int.from_bytes(t, "big"))


def encode_auth_response(decision: AuthDecision, width: int) -> bytes:
    recovered = decision.recovered_hpw or bytes(width // 8)  # a Bits value is never empty
    return encode_frame(MSG_AUTH_RESPONSE, bytes([STATUS_BY_REASON[decision.reason]]) + recovered)


def decode_auth_response(data: bytes) -> AuthDecision:
    try:
        msg_type, payload = decode_frame(data)
    except MalformedFrameError as exc:
        raise MalformedResponseError(str(exc)) from exc
    if msg_type != MSG_AUTH_RESPONSE:
        raise MalformedResponseError(f"expected AUTH_RESPONSE, got type {msg_type:#04x}")
    if len(payload) < 2:
        raise MalformedResponseError(f"response payload too short: {len(payload)} bytes")
    status = payload[0]
    if status not in REASON_BY_STATUS:
        raise MalformedResponseError(f"unknown status byte {status:#04x}")
    reason = REASON_BY_STATUS[status]
    recovered = Bits(payload[1:]) if reason in (Reason.OK, Reason.CHECK_FAILED) else None
    return AuthDecision(accepted=status == 0x00, reason=reason, recovered_hpw=recovered)


def _recv_exact(conn: socket.socket, n: int, deadline: float | None) -> bytes:
    """n bytes, each recv bounded by the socket timeout and, when a monotonic
    deadline is given, by the time left before it."""
    chunks = []
    remaining = n
    while remaining:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"deadline passed with {remaining} bytes outstanding")
            conn.settimeout(left)
        chunk = conn.recv(remaining)
        if not chunk:
            raise MalformedFrameError(f"connection closed with {remaining} bytes outstanding")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(conn: socket.socket, deadline: float | None = None) -> bytes:
    """One whole frame: the header, checked before the payload it declares is read."""
    header = _recv_exact(conn, _HEADER.size, deadline)
    _, payload_len = _parse_header(header)
    return header + _recv_exact(conn, payload_len, deadline)


class _LoginHandler(socketserver.BaseRequestHandler):
    server: "AuthServer"

    def handle(self) -> None:
        srv = self.server
        conn = self.request
        peer = "%s:%s" % self.client_address[:2]
        try:
            req = decode_login_request(_recv_frame(conn, time.monotonic() + srv.io_timeout))
        except BadTypeError:
            srv.audit(peer, None, "reject", "BAD_TYPE")
            return
        except (MalformedFrameError, OSError, ValueError):
            srv.audit(peer, None, "reject", "MALFORMED_FRAME")
            return
        decision = srv.config.authenticate(req, srv.clock())
        # audit before replying, so a client that has its verdict can already read the line
        srv.audit(peer, req.cid.hex(), "accept" if decision.accepted else "reject", decision.reason.value)
        try:
            conn.sendall(encode_auth_response(decision, srv.config.secrets.y.width))
        except OSError:
            pass  # peer went away; the audit line already records the decision


class AuthServer(socketserver.TCPServer):
    """One-request-per-connection authentication server.

    Obtain one via serve(); the instance is the running handle. The accept
    loop queues each connection for a fixed pool of handler_cap threads and
    blocks while that queue is full, so further peers wait in the listen
    backlog; no peer gets a thread of its own. A handler gives a connection
    at most io_timeout seconds in total to deliver its frame. Authentication
    is pure, so the only shared state is the append-only audit stream,
    guarded by a lock so each JSON line is written atomically.
    """

    allow_reuse_address = True
    io_timeout = 5.0
    handler_cap = 8
    # the listen backlog; socketserver's 5 overflows, and peers get reset, as
    # soon as a burst of a few dozen connects meets a busy pool
    request_queue_size = 128

    def __init__(self, config: ServerConfig, clock: Clock, audit_stream: IO[str] | None):
        self.config = config
        self.clock = clock
        self._audit_stream = audit_stream if audit_stream is not None else sys.stderr
        self._audit_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._handlers: list[threading.Thread] = []
        self._pending: queue.Queue = queue.Queue(maxsize=self.handler_cap)
        super().__init__(config.bind_address, _LoginHandler)

    @property
    def address(self) -> tuple[str, int]:
        """Actually bound (host, port); port is resolved even when bound to 0."""
        return self.server_address[:2]

    def start(self) -> None:
        self._handlers = [
            threading.Thread(target=self._handle_pending, name=f"authlab-handler-{i}")
            for i in range(self.handler_cap)
        ]
        for handler in self._handlers:
            handler.start()
        self._thread = threading.Thread(
            target=self.serve_forever, kwargs={"poll_interval": 0.05}, name="authlab-server"
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, let the handlers finish what is queued, then stop them."""
        if self._thread is not None:
            self.shutdown()  # waits for serve_forever, so only once it has run
            self._thread.join()
            self._thread = None
        for _ in self._handlers:
            self._pending.put(None)
        for handler in self._handlers:
            handler.join()
        self._handlers = []
        self.server_close()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def process_request(self, request, client_address) -> None:
        self._pending.put((request, client_address))

    def _handle_pending(self) -> None:
        while (item := self._pending.get()) is not None:
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def audit(self, peer: str, cid_hex: str | None, decision: str, reason: str) -> None:
        line = json.dumps(
            {"ts": self.clock(), "peer": peer, "cid_hex": cid_hex, "decision": decision, "reason": reason}
        )
        with self._audit_lock:
            self._audit_stream.write(line + "\n")
            self._audit_stream.flush()

    def shutdown_request(self, request) -> None:
        # discard, without waiting, what the peer already sent (up to one frame):
        # closing with unread input makes the kernel reset the connection, not end it
        try:
            request.setblocking(False)
            request.recv(_HEADER.size + MAX_PAYLOAD)
        except OSError:
            pass
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # never let one bad connection take the server down
        logger.exception("unhandled error serving %s", client_address)


def serve(
    config: ServerConfig,
    clock: Clock = system_clock,
    *,
    audit_stream: IO[str] | None = None,
) -> AuthServer:
    """Bind to config.bind_address, start accepting in a background thread,
    and return the handle.

    Bind failures surface immediately as OSError. Close the handle (or use it
    as a context manager) for an orderly shutdown.
    """
    server = AuthServer(config, clock, audit_stream)
    server.start()
    return server


def client_login(
    address: tuple[str, int],
    card: SmartcardState,
    typed_pw: Password,
    clock: Clock = system_clock,
    *,
    timeout: float = 10.0,
) -> AuthDecision:
    """Build a login request at the current clock, send it, parse the verdict."""
    req = make_login_request(card, typed_pw, clock())
    try:
        conn = socket.create_connection(address, timeout=timeout)
    except OSError as exc:
        raise ConnectionFailedError(f"cannot connect to {address[0]}:{address[1]}: {exc}") from exc
    with conn:
        try:
            conn.sendall(encode_login_request(req))
            conn.shutdown(socket.SHUT_WR)
        except OSError as exc:
            raise ConnectionFailedError(f"send failed: {exc}") from exc
        try:
            frame = _recv_frame(conn)
        except (MalformedFrameError, OSError) as exc:
            raise MalformedResponseError(f"no valid response: {exc}") from exc
    return decode_auth_response(frame)
