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

The decoders are strict: given one whole frame, each raises BadTypeError
for an unexpected message type and MalformedFrameError for any other fault
(a wrong version or length, trailing bytes, a payload that does not parse);
an all-zero recovered hash is the fill, so it decodes as none. The server
and the client each cut one frame off the socket with _frame_in before a
deadline and decode it with those same functions. The server answers
exactly one request per connection and then closes.

The server is one thread running one loop. With no peer held it waits in
accept() itself and reads the new peer without blocking; a peer that makes
it wait is held, and the loop polls the held peers and the listening socket
together, reading each peer on from the bytes it has. The client, with no
listening socket to watch, waits in its own timed recv, CPython's cheapest
wait.
"""

from __future__ import annotations

import logging
import select
import socket
import struct
import sys
import threading
import time
from json.encoder import encode_basestring_ascii
from typing import IO

from authlab.bits import MIN_WIDTH
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
_ACCEPT_RETRY_SECS = 0.05  # the server's pause after a failed accept()
_MSG_MORE = getattr(socket, "MSG_MORE", 0)  # Linux: hold the bytes back for more, or for the FIN

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
    """Could not reach the server, or the exchange with it failed or ran out of time."""


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
    cid, n_i, c_i = payload[:n], payload[n : 2 * n], payload[2 * n : 3 * n]
    return LoginRequest(cid, n_i, c_i, int.from_bytes(payload[3 * n :], "big"))


def encode_auth_response(decision: AuthDecision, width: int) -> bytes:
    recovered = bytes(width // 8) if decision.recovered_hpw is None else decision.recovered_hpw
    return encode_frame(MSG_AUTH_RESPONSE, bytes([STATUS_BY_REASON[decision.reason]]) + recovered)


def decode_auth_response(data: bytes) -> AuthDecision:
    """Inverse of encode_auth_response; rejects anything else."""
    msg_type, payload = decode_frame(data)
    if msg_type != MSG_AUTH_RESPONSE:
        raise BadTypeError(f"expected AUTH_RESPONSE, got type {msg_type:#04x}")
    if len(payload) < 2:
        raise MalformedFrameError(f"response payload too short: {len(payload)} bytes")
    if payload[0] not in REASON_BY_STATUS:
        raise MalformedFrameError(f"unknown status byte {payload[0]:#04x}")
    recovered = payload[1:]
    return AuthDecision(REASON_BY_STATUS[payload[0]], recovered if recovered.strip(b"\0") else None)


def _family(host: str) -> socket.AddressFamily:
    """IPv6 exactly when host is an IPv6 literal; a host name resolves as IPv4."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def _frame_in(buf: bytes) -> bytes | None:
    """The frame buf begins, once it is all in; None before. The header is
    checked as soon as it is in, a bad one raising MalformedFrameError, and
    bytes past the frame it declares are dropped."""
    if len(buf) < _HEADER.size:
        return None
    size = _HEADER.size + _parse_header(buf[: _HEADER.size])[1]
    return buf[:size] if len(buf) >= size else None


def _recv_frame(conn: socket.socket, deadline: float) -> bytes:
    """One frame (see _frame_in), read before a monotonic deadline with timed
    blocking recvs of a maximal frame each. A peer that closes before sending
    a byte raises ConnectionError, one that cuts a frame short
    MalformedFrameError."""
    buf = b""
    while (frame := _frame_in(buf)) is None:
        left = deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError(f"deadline passed with {len(buf)} bytes in")
        conn.settimeout(left)
        chunk = conn.recv(_HEADER.size + MAX_PAYLOAD)
        if not chunk:
            if not buf:
                raise ConnectionError("connection closed before any byte")
            raise MalformedFrameError(f"connection closed with {len(buf)} bytes in")
        buf += chunk
    return frame


class AuthServer:
    """One-request-per-connection authentication server, running once built.

    Building one binds config.bind_address (a failure raises OSError at once)
    and starts one thread, which serves every connection. With no peer held,
    it waits in accept() itself and reads the new peer without blocking: a
    peer whose frame, or close, is already in is answered at once. A peer
    that makes it wait is held, and the thread polls the held peers together
    with the listening socket. Only the descriptor limit bounds the peers
    held: while accept() finds none free, new peers wait in the listen backlog.
    Each held peer is read as its bytes arrive and finished once: it has
    io_timeout seconds from accept() in total to deliver its frame.
    Authentication is pure, and this thread is the audit stream's only writer.
    Close the server, or use it as a context manager, for an orderly shutdown.
    """

    io_timeout = 5.0

    def __init__(
        self, config: ServerConfig, clock: Clock = system_clock, *, audit_stream: IO[str] | None = None
    ):
        self.config = config
        self.clock = clock
        self._audit_stream = audit_stream if audit_stream is not None else sys.stderr
        self._closing = threading.Event()
        # a burst of a few dozen connects, or peers that arrive while accept() is out of
        # descriptors, must wait in the backlog, not overflow it: with a backlog of 5, peers were reset
        self._socket = socket.create_server(config.bind_address, family=_family(config.bind_address[0]), backlog=128)
        # actually bound (host, port); the port is resolved even when bound to 0
        self.address: tuple[str, int] = self._socket.getsockname()[:2]
        self._thread = threading.Thread(target=self._run, name="authlab-server")
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, finish the connections held, then stop the thread.
        Peers still in the backlog are reset."""
        self._closing.set()
        try:
            # on Linux this fails a waiting accept(), or ends a poll of the listening socket
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        self._thread.join()
        self._socket.close()

    def __enter__(self) -> "AuthServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run(self) -> None:
        held: dict[int, tuple[socket.socket, str, float, bytes]] = {}  # fd: (conn, peer, deadline, bytes so far)
        listener = self._socket.fileno()
        while held or not self._closing.is_set():
            if not held:
                self._accept(held)  # nothing else to watch: wait in accept() itself, the cheapest wait
                continue
            poller = select.poll()
            for fd in held:
                poller.register(fd, select.POLLIN)
            if not self._closing.is_set():
                poller.register(listener, select.POLLIN)
            wake = min(deadline for _, _, deadline, _ in held.values())
            ready = {fd for fd, _ in poller.poll(max(wake - time.monotonic(), 0) * 1000)}
            now = time.monotonic()
            for fd in [fd for fd, (_, _, deadline, _) in held.items() if fd in ready or deadline <= now]:
                self._read(*held.pop(fd), held)
            if listener in ready:
                self._accept(held)

    def _accept(self, held: dict) -> None:
        try:
            conn, client_address = self._socket.accept()
        except OSError:
            # accept() takes a descriptor before it waits, so when they run out it fails at
            # once: pause, not spin; the peer stays in the backlog
            self._closing.wait(_ACCEPT_RETRY_SECS)
            return
        conn.setblocking(False)
        self._read(conn, "%s:%s" % client_address[:2], time.monotonic() + self.io_timeout, b"", held)

    def _read(self, conn: socket.socket, peer: str, deadline: float, buf: bytes, held: dict) -> None:
        """Read what conn has sent, without waiting, a maximal frame per recv, and
        cut its frame with _frame_in. While the frame is not in and the deadline is
        ahead, hold conn in held with the bytes so far; else answer it."""
        frame = None
        try:
            while frame is None and (chunk := conn.recv(_HEADER.size + MAX_PAYLOAD)):
                buf += chunk
                frame = _frame_in(buf)
        except BlockingIOError:
            if time.monotonic() < deadline:
                held[conn.fileno()] = conn, peer, deadline, buf
                return
        except (MalformedFrameError, OSError):
            pass  # a bad header, or the socket failed
        try:
            # a frame that never came whole is answered as b"", which the decoder refuses
            self._answer(conn, peer, b"" if frame is None else frame)
        except Exception:
            # never let one bad connection stop the server
            logger.exception("unhandled error serving %s", peer)
        finally:
            # discard, without waiting, what the peer already sent (up to one frame):
            # closing with unread input makes the kernel reset the connection
            try:
                conn.recv(_HEADER.size + MAX_PAYLOAD)
            except OSError:
                pass
            conn.close()

    def _answer(self, conn: socket.socket, peer: str, frame: bytes) -> None:
        ts = self.clock()  # the receipt time, read once: the decision's t_star and the audit line's ts
        try:
            req = decode_login_request(frame)
        except (BadTypeError, MalformedFrameError) as exc:
            reason = "BAD_TYPE" if isinstance(exc, BadTypeError) else "MALFORMED_FRAME"
            self.audit(ts, peer, None, reason)
            return
        decision = self.config.authenticate(req, ts)
        # audit before replying, so a client that has its verdict can already read the line
        self.audit(ts, peer, req.cid.hex(), decision.reason.value)
        try:
            # close() sends the reply with the FIN, so the peer wakes once for both, not
            # twice. conn is non-blocking, but the reply (at most 71 bytes) fits the empty
            # send buffer of a fresh connection, so sendall never meets EAGAIN
            conn.sendall(encode_auth_response(decision, len(self.config.secrets.y) * 8), _MSG_MORE)
        except OSError:
            pass  # peer went away; the audit line already records the decision

    def audit(self, ts: int, peer: str, cid_hex: str | None, reason: str) -> None:
        """Write one JSON line for a connection, received at clock reading ts; its
        decision is "accept" exactly when the reason is "OK"."""
        # json.dumps's exact bytes (key order, ", " and ": " separators, null for no cid) at
        # a fraction of its cost. Only peer goes through JSON's string escaping: a link-local
        # IPv6 peer ends in %ifname, and Linux lets a name hold '"', '\\' or non-ASCII. The
        # other fields are the clock's int, lowercase hex or a fixed name, which JSON never escapes.
        cid = "null" if cid_hex is None else f'"{cid_hex}"'
        decision = "accept" if reason == "OK" else "reject"
        self._audit_stream.write(
            f'{{"ts": {ts}, "peer": {encode_basestring_ascii(peer)}, "cid_hex": {cid}, '
            f'"decision": "{decision}", "reason": "{reason}"}}\n'
        )
        self._audit_stream.flush()


def client_login(
    address: tuple[str, int],
    card: SmartcardState,
    typed_pw: Password,
    clock: Clock = system_clock,
    *,
    timeout: float = 10.0,
) -> AuthDecision:
    """Build a login request at the current clock, send it, parse the verdict.

    The socket is IPv6 exactly when the host is an IPv6 literal, and an IP
    literal is connected to without being resolved; a host name resolves as
    IPv4. timeout bounds the connect, then the rest of the exchange as one
    deadline. Every OSError on the way raises ConnectionFailedError naming
    the address."""
    req = make_login_request(card, typed_pw, clock())
    try:
        with socket.socket(_family(address[0])) as conn:
            conn.settimeout(timeout)
            conn.connect(address)
            deadline = time.monotonic() + timeout  # for the whole exchange, as on the server
            conn.sendall(encode_login_request(req), _MSG_MORE)  # held back for the FIN: one segment
            conn.shutdown(socket.SHUT_WR)
            frame = _recv_frame(conn, deadline)
    except OSError as exc:
        raise ConnectionFailedError(f"exchange with {address[0]}:{address[1]} failed: {exc}") from exc
    return decode_auth_response(frame)
