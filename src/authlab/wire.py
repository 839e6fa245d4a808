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
and the client each read one frame off the socket before a deadline (the
header, checked as soon as it is in, then the payload it declares), decode
it with those same functions, and ignore any bytes sent after it. The
server answers exactly one request per connection and then closes.

One server handler at a time accepts. It serves, without blocking, each
peer whose frame or close is already in, and keeps accepting; it hands the
role to an idle handler only when a peer makes it wait and another peer
arrives first, then waits for its own peer with plain blocking reads.
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
_ACCEPT_RETRY_SECS = 0.05  # a server handler's pause after a failed accept()
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


def _frame_size(buf: bytes) -> int | None:
    """The size of the frame buf begins, once its header is in and checked; None before."""
    return _HEADER.size + _parse_header(buf[: _HEADER.size])[1] if len(buf) >= _HEADER.size else None


def _recv_frame(conn: socket.socket, deadline: float, buf: bytes = b"") -> bytes:
    """One whole frame, read before a monotonic deadline after the bytes
    already in buf. Each recv asks for a maximal frame; the header is checked
    as soon as it is in, and bytes past the frame it declares are dropped. A
    peer that closes before sending a byte raises ConnectionError, one that
    cuts a frame short MalformedFrameError."""
    size = _frame_size(buf)
    while size is None or len(buf) < size:
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
        if size is None:
            size = _frame_size(buf)
    return buf[:size]


def _recv_ready(conn: socket.socket, deadline: float, poller) -> tuple[bytes | None, bool]:
    """Read what conn has sent without blocking until the bytes hold a whole
    frame or a bad header, or conn fails, or the deadline passes, and return
    them with False; if conn closes first, return None with False. In between,
    wait on poller, which holds the listening socket, together with conn; once
    another peer arrives first, return the bytes with True."""
    fd = conn.fileno()
    poller.register(fd, select.POLLIN)
    buf = b""
    try:
        while True:
            try:
                chunk = conn.recv(_HEADER.size + MAX_PAYLOAD, socket.MSG_DONTWAIT)
            except BlockingIOError:
                pass
            else:
                if not chunk:
                    return None, False
                buf += chunk
                size = _frame_size(buf)
                if size is not None and len(buf) >= size:
                    return buf, False
            left = deadline - time.monotonic()
            if left <= 0:
                return buf, False
            ready = dict(poller.poll(left * 1000))
            if ready and fd not in ready:
                return buf, True
    except (MalformedFrameError, OSError):  # a bad header, or a failure, which _recv_frame meets again
        return buf, False
    finally:
        poller.unregister(fd)


class AuthServer:
    """One-request-per-connection authentication server, running once built.

    Building one binds config.bind_address (a failure raises OSError at once)
    and starts a fixed pool of handler_cap threads, so at most handler_cap
    connections are in service and further peers wait in the listen backlog.
    A lock makes one idle handler at a time the acceptor. It reads what each
    peer it accepts has already sent without blocking, serves the peer if
    that is a whole frame or a close, and accepts the next. When a peer makes
    it wait, it polls that peer and the listening socket together, and hands
    the role to an idle handler only if another peer arrives first. A handler
    gives a connection at most io_timeout seconds from accept() in total to
    deliver its frame. Authentication is pure, so the only shared state is the
    audit stream, guarded by a lock so each JSON line is written atomically.
    Close the server, or use it as a context manager, for an orderly shutdown.
    """

    io_timeout = 5.0
    handler_cap = 8

    def __init__(
        self, config: ServerConfig, clock: Clock = system_clock, *, audit_stream: IO[str] | None = None
    ):
        self.config = config
        self.clock = clock
        self._audit_stream = audit_stream if audit_stream is not None else sys.stderr
        self._audit_lock = threading.Lock()
        self._acceptor = threading.Lock()  # held by the one handler that accepts
        self._closing = threading.Event()
        # a burst of a few dozen connects meeting a busy pool must wait in the
        # backlog, not overflow it: with a backlog of 5, peers were reset
        self._socket = socket.create_server(config.bind_address, family=_family(config.bind_address[0]), backlog=128)
        # actually bound (host, port); the port is resolved even when bound to 0
        self.address: tuple[str, int] = self._socket.getsockname()[:2]
        self._handlers = [
            threading.Thread(target=self._accept_loop, name=f"authlab-handler-{i}")
            for i in range(self.handler_cap)
        ]
        for handler in self._handlers:
            handler.start()

    def close(self) -> None:
        """Stop accepting; each handler finishes the connection it holds, then
        exits. Peers still in the backlog are reset."""
        self._closing.set()
        try:
            # on Linux this fails the acceptor's accept(), or ends its poll with POLLHUP
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed
        for handler in self._handlers:
            handler.join()
        self._socket.close()

    def __enter__(self) -> "AuthServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _accept_loop(self) -> None:
        # this handler's poll set: the listening socket, plus a peer while the acceptor waits for it
        poller = select.poll()
        poller.register(self._socket, select.POLLIN)
        while True:
            with self._acceptor:  # idle handlers wait here for the role
                held = self._accept_until_a_peer_waits(poller)
            if held is None:
                return
            self._serve(*held)  # the role handed on, the rest of the frame comes by blocking reads

    def _accept_until_a_peer_waits(self, poller) -> tuple[socket.socket, str, float, bytes] | None:
        """Accept peers and serve each whose frame or close is in without a wait.
        Return the first that keeps this handler waiting until another peer
        arrives, with its deadline and the bytes read so far; None once closing."""
        while True:
            try:
                conn, client_address = self._socket.accept()
            except OSError:
                # accept() takes a descriptor before it waits, so when they run out it fails
                # at once: pause, not spin; the peer stays in the backlog
                if self._closing.wait(_ACCEPT_RETRY_SECS):
                    return None
                continue
            peer = "%s:%s" % client_address[:2]
            deadline = time.monotonic() + self.io_timeout
            buf, another_peer = _recv_ready(conn, deadline, poller)
            if another_peer:
                return conn, peer, deadline, buf
            self._serve(conn, peer, deadline, buf)

    def _serve(self, conn: socket.socket, peer: str, deadline: float, buf: bytes | None) -> None:
        try:
            self._handle(conn, peer, deadline, buf)
        except Exception:
            # never let one bad connection take a handler down
            logger.exception("unhandled error serving %s", peer)
        finally:
            # discard, without waiting, what the peer already sent (up to one frame):
            # closing with unread input makes the kernel reset the connection, not end it.
            # Not MSG_DONTWAIT alone: once _recv_frame set a timeout, recv polls for it first
            try:
                conn.setblocking(False)
                conn.recv(_HEADER.size + MAX_PAYLOAD)
            except OSError:
                pass
            conn.close()

    def _handle(self, conn: socket.socket, peer: str, deadline: float, buf: bytes | None) -> None:
        if buf is None:  # the peer closed before its frame was whole, and _recv_ready read the close
            self.audit(self.clock(), peer, None, "MALFORMED_FRAME")
            return
        try:
            req = decode_login_request(_recv_frame(conn, deadline, buf))
        except BadTypeError:
            self.audit(self.clock(), peer, None, "BAD_TYPE")
            return
        except (MalformedFrameError, OSError):
            self.audit(self.clock(), peer, None, "MALFORMED_FRAME")
            return
        ts = self.clock()  # the receipt time, read once: the decision's t_star and the audit line's ts
        decision = self.config.authenticate(req, ts)
        # audit before replying, so a client that has its verdict can already read the line
        self.audit(ts, peer, req.cid.hex(), decision.reason.value)
        try:
            # close() sends the reply with the FIN, so the peer wakes once for both, not
            # twice, and does not preempt a busy acceptor between its send and its close
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
        line = (
            f'{{"ts": {ts}, "peer": {encode_basestring_ascii(peer)}, "cid_hex": {cid}, '
            f'"decision": "{decision}", "reason": "{reason}"}}\n'
        )
        with self._audit_lock:
            self._audit_stream.write(line)
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
            conn.sendall(encode_login_request(req))
            conn.shutdown(socket.SHUT_WR)
            frame = _recv_frame(conn, deadline)
    except OSError as exc:
        raise ConnectionFailedError(f"exchange with {address[0]}:{address[1]} failed: {exc}") from exc
    return decode_auth_response(frame)
