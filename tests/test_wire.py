import errno
import io
import json
import random
import select
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

import oracle
from conftest import GOLDEN_PW, as_bits, as_int, exchange, random_bits
from authlab.bits import hash_bytes
from authlab.clock import fixed_clock
from authlab.protocol import AuthDecision, LoginRequest, Reason, authenticate, make_login_request
from authlab.storage import ServerConfig
from authlab import wire
from authlab.wire import (
    MSG_AUTH_RESPONSE,
    MSG_LOGIN_REQUEST,
    AuthServer,
    BadTypeError,
    ConnectionFailedError,
    MalformedFrameError,
    client_login,
    decode_auth_response,
    decode_frame,
    decode_login_request,
    encode_auth_response,
    encode_frame,
    encode_login_request,
)

GOLDEN_FRAME_HEX = (
    Path(__file__).parent / "data" / "golden_login_frame.hex"
).read_text().strip()


def random_request(rng: random.Random) -> LoginRequest:
    return LoginRequest(
        cid=random_bits(rng),
        n_i=random_bits(rng),
        c_i=random_bits(rng),
        t=rng.randrange(0, 1 << 64),
    )


class TestCodec:
    def test_payload_arithmetic_for_k256(self, card, now):
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        assert len(frame) == 2 + 4 + 104
        assert frame[2:6] == (104).to_bytes(4, "big")

    def test_round_trip_random_requests(self):
        rng = random.Random(41)
        for _ in range(1000):
            req = random_request(rng)
            assert decode_login_request(encode_login_request(req)) == req

    def test_golden_vector_stable(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        assert encode_login_request(req).hex() == GOLDEN_FRAME_HEX

    def test_golden_vector_matches_byte_layout_oracle(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        ref = oracle.login_frame(as_int(req.cid), as_int(req.n_i), as_int(req.c_i), req.t)
        assert ref.hex() == GOLDEN_FRAME_HEX

    def test_truncated_frame_rejected(self):
        frame = bytes.fromhex(GOLDEN_FRAME_HEX)
        for cut in (0, 3, 5, 6, 50, len(frame) - 1):
            with pytest.raises(MalformedFrameError):
                decode_login_request(frame[:cut])

    def test_trailing_bytes_rejected(self):
        frame = bytes.fromhex(GOLDEN_FRAME_HEX)
        with pytest.raises(MalformedFrameError):
            decode_login_request(frame + b"\x00")

    def test_version_and_length_mutations_rejected(self):
        frame = bytearray.fromhex(GOLDEN_FRAME_HEX)
        rng = random.Random(42)
        for offset in (1, 2, 3, 4, 5):  # version byte and the 4 length bytes
            for _ in range(8):
                mutated = bytearray(frame)
                mutated[offset] ^= rng.randint(1, 255)
                with pytest.raises(MalformedFrameError):
                    decode_login_request(bytes(mutated))

    def test_unexpected_type_rejected(self):
        frame = bytearray.fromhex(GOLDEN_FRAME_HEX)
        frame[0] = MSG_AUTH_RESPONSE
        with pytest.raises(BadTypeError):
            decode_login_request(bytes(frame))

    def test_decoded_fields_are_exactly_bits(self, card, now):
        req = decode_login_request(encode_login_request(make_login_request(card, GOLDEN_PW, now)))
        assert [type(f) for f in (req.cid, req.n_i, req.c_i)] == [bytes] * 3
        assert len(req.cid) * 8 == len(req.n_i) * 8 == len(req.c_i) * 8 == 256

    def test_payload_with_no_valid_split_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_login_request(encode_frame(MSG_LOGIN_REQUEST, b"\x00" * 105))

    def test_oversized_payload_rejected_both_ways(self):
        with pytest.raises(MalformedFrameError):
            encode_frame(MSG_LOGIN_REQUEST, b"\x00" * 4097)
        bad = (MSG_LOGIN_REQUEST).to_bytes(1, "big") + b"\x01" + (5000).to_bytes(4, "big")
        with pytest.raises(MalformedFrameError):
            decode_frame(bad + b"\x00" * 5000)


class TestResponseCodec:
    @pytest.mark.parametrize(
        "decision",
        [
            AuthDecision(Reason.OK, hash_bytes(b"pw")),
            AuthDecision(Reason.STALE_TIMESTAMP),
            AuthDecision(Reason.FUTURE_TIMESTAMP),
            AuthDecision(Reason.CHECK_FAILED, hash_bytes(b"other")),
            AuthDecision(Reason.OK),
            AuthDecision(Reason.STALE_TIMESTAMP, hash_bytes(b"pw")),
            AuthDecision(Reason.FUTURE_TIMESTAMP, hash_bytes(b"pw")),
            AuthDecision(Reason.CHECK_FAILED),  # as for a request of another width, never unblinded
        ],
    )
    def test_round_trip(self, decision):
        assert decode_auth_response(encode_auth_response(decision, 256)) == decision

    def test_recovered_hash_is_exactly_bits(self):
        for decision in (
            AuthDecision(Reason.OK, hash_bytes(b"pw")),
            AuthDecision(Reason.CHECK_FAILED, hash_bytes(b"other")),
        ):
            decoded = decode_auth_response(encode_auth_response(decision, 256))
            assert type(decoded.recovered_hpw) is bytes
            assert len(decoded.recovered_hpw) * 8 == 256

    def test_zero_fill_when_hash_never_recovered(self):
        encoded = encode_auth_response(AuthDecision(Reason.STALE_TIMESTAMP), 256)
        _, payload = decode_frame(encoded)
        assert payload == b"\x01" + bytes(32)

    def test_unknown_status_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_auth_response(encode_frame(MSG_AUTH_RESPONSE, b"\x07" + bytes(32)))

    def test_short_payload_rejected(self):
        with pytest.raises(MalformedFrameError):
            decode_auth_response(encode_frame(MSG_AUTH_RESPONSE, b"\x00"))

    @pytest.mark.parametrize(
        "frame, error, message",
        [
            (encode_frame(MSG_LOGIN_REQUEST, b"\x00" + bytes(32)), BadTypeError, "expected AUTH_RESPONSE, got type 0x01"),
            (bytes([MSG_AUTH_RESPONSE, 0x02, 0, 0, 0, 33]) + bytes(33), MalformedFrameError, "unsupported version: 0x02"),
        ],
        ids=["login_request_type", "version_2"],
    )
    def test_other_type_or_version_rejected(self, frame, error, message):
        with pytest.raises(error, match=message):
            decode_auth_response(frame)


@pytest.fixture
def audit():
    return io.StringIO()


@pytest.fixture
def live_server(server_secrets, now, audit):
    with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
        yield srv


def in_process_verdict(config: ServerConfig, frame: bytes, now: int) -> tuple[str, bytes]:
    """Audit reason and reply bytes (b"" for none) the server owes `frame`."""
    try:
        req = decode_login_request(frame)
    except BadTypeError:
        return "BAD_TYPE", b""
    except MalformedFrameError:
        return "MALFORMED_FRAME", b""
    decision = config.authenticate(req, now)
    return decision.reason.value, encode_auth_response(decision, len(config.secrets.y) * 8)


class TestServer:
    def test_honest_client_accepted(self, live_server, card, now):
        decision = client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now))
        assert decision.accepted
        assert decision.reason is Reason.OK
        assert decision.recovered_hpw == hash_bytes(GOLDEN_PW)

    def test_random_password_accepted(self, live_server, card, now):
        decision = client_login(live_server.address, card, b"0xDEADBEEF", fixed_clock(now))
        assert decision.accepted

    def test_stale_client_clock_rejected(self, live_server, card, now):
        decision = client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now - 70))
        assert not decision.accepted
        assert decision.reason is Reason.STALE_TIMESTAMP

    def test_garbage_gets_no_response(self, live_server, audit):
        assert exchange(live_server.address, b"this is not a frame")[1] == b""
        assert '"reason": "MALFORMED_FRAME"' in audit.getvalue()

    def test_wrong_frame_type_gets_no_response(self, live_server, audit):
        frame = encode_frame(MSG_AUTH_RESPONSE, b"\x00" + bytes(32))
        assert exchange(live_server.address, frame)[1] == b""
        assert '"reason": "BAD_TYPE"' in audit.getvalue()

    def test_audit_line_per_request(self, live_server, card, now, audit):
        client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now))
        client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now - 100))
        lines = [json.loads(line) for line in audit.getvalue().splitlines()]
        assert len(lines) == 2
        assert all(list(line) == ["ts", "peer", "cid_hex", "decision", "reason"] for line in lines)
        assert lines[0]["decision"] == "accept"
        assert lines[0]["cid_hex"]
        assert lines[1] == lines[1] | {"decision": "reject", "reason": "STALE_TIMESTAMP"}

    def test_network_transparency(self, live_server, card, server_secrets, now):
        rng = random.Random(43)
        for _ in range(20):
            pw = rng.randbytes(rng.randint(0, 32))
            offset = rng.choice([0, 1, 30, 60, 61, 200])
            clock = fixed_clock(now - offset)
            over_wire = client_login(live_server.address, card, pw, clock)
            req = make_login_request(card, pw, now - offset)
            in_process = authenticate(server_secrets, req, t_star=now)
            assert over_wire == in_process

    def test_server_survives_malformed_then_keeps_serving(self, live_server, card, now):
        for payload in (b"", b"\x00", bytes.fromhex(GOLDEN_FRAME_HEX)[:20], b"\xff" * 200):
            exchange(live_server.address, payload)
        assert client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now)).accepted

    def test_verdict_equals_in_process_decoder(self, live_server, card, now, audit):
        honest = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        narrow = LoginRequest(cid=bytes(8), n_i=bytes(8), c_i=bytes(8), t=now)
        # (frame the decoder judges, bytes sent after it, reason the frame's kind implies)
        cases = [
            (honest[:1] + b"\x02" + honest[2:], b"", "MALFORMED_FRAME"),  # bad version
            (honest[:2] + (4097).to_bytes(4, "big") + honest[6:], b"", "MALFORMED_FRAME"),
            (honest[:-1], b"", "MALFORMED_FRAME"),  # truncated payload
            (honest[:2] + (105).to_bytes(4, "big") + honest[6:] + b"\x00", b"", "MALFORMED_FRAME"),
            (bytes([MSG_AUTH_RESPONSE]) + honest[1:], b"", "BAD_TYPE"),
            (encode_login_request(narrow), b"", "CHECK_FAILED"),
            (encode_login_request(make_login_request(card, GOLDEN_PW, now - 120)), b"", "STALE_TIMESTAMP"),
            (honest, b"junk after the frame", "OK"),  # one frame is read, the rest ignored
        ]
        for frame, after, reason in cases:
            _, reply = exchange(live_server.address, frame + after)
            audited = json.loads(audit.getvalue().splitlines()[-1])["reason"]
            assert (audited, reply) == in_process_verdict(live_server.config, frame, now)
            assert audited == reason
        with pytest.raises(MalformedFrameError):
            decode_login_request(honest + b"junk after the frame")

    def test_decoded_reply_equals_in_process_decision(self, live_server, server_secrets, card, now):
        rng = random.Random(44)
        honest = make_login_request(card, GOLDEN_PW, now)
        requests = {
            "honest": honest,
            "stale": make_login_request(card, GOLDEN_PW, now - 120),
            "future": make_login_request(card, GOLDEN_PW, now + 60),
            "tampered": replace(honest, c_i=as_bits(as_int(honest.c_i) ^ 1)),
            # fields of another width than the server's 32 bytes: refused before any hash is recovered
            **{f"{n}-byte": LoginRequest(*(rng.randbytes(n) for _ in range(3)), now) for n in (8, 16, 64)},
        }
        for name, req in requests.items():
            frame = encode_login_request(req)
            reply = decode_auth_response(exchange(live_server.address, frame)[1])
            assert reply == authenticate(server_secrets, decode_login_request(frame), now), name

    def test_frame_in_pieces_answered_once(self, live_server, card, now, audit):
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        with socket.create_connection(live_server.address, timeout=5) as conn:
            for piece in (frame[:6], frame[6:50], frame[50:]):  # the header, then the payload in two
                conn.sendall(piece)
                time.sleep(0.05)
            conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        assert decode_auth_response(reply).reason is Reason.OK
        assert audited_reasons(audit) == ["OK"]

    def test_connection_refused(self, card, now):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with pytest.raises(ConnectionFailedError):
            client_login(("127.0.0.1", dead_port), card, GOLDEN_PW, fixed_clock(now))

    def test_bind_conflict_raises(self, live_server, server_secrets, now):
        with pytest.raises(OSError):
            AuthServer(ServerConfig(server_secrets, live_server.address), fixed_clock(now))

    def test_port_zero_resolves(self, live_server):
        host, port = live_server.address
        assert host == "127.0.0.1"
        assert port > 0


def ipv6_loopback() -> bool:
    try:
        with socket.create_server(("::1", 0), family=socket.AF_INET6):
            return True
    except OSError:
        return False


class CountingClock:
    """A clock that advances one second per read and remembers each reading."""

    def __init__(self, start: int):
        self.reads = [start - 1]
        self.lock = threading.Lock()

    def __call__(self) -> int:
        with self.lock:
            self.reads.append(self.reads[-1] + 1)
            return self.reads[-1]


class TestAuditLine:
    @pytest.mark.parametrize("host", ["127.0.0.1", "::1"], ids=["ipv4", "ipv6"])
    def test_each_reason_is_byte_identical_to_json_dumps(self, host, server_secrets, card, now, audit):
        if host == "::1" and not ipv6_loopback():
            pytest.skip("no IPv6 loopback")
        honest = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        tampered = honest[:-9] + bytes([honest[-9] ^ 1]) + honest[-8:]  # last byte of c_i
        cases = [
            (honest, "accept", "OK"),
            (encode_login_request(make_login_request(card, GOLDEN_PW, now - 120)), "reject", "STALE_TIMESTAMP"),
            (encode_login_request(make_login_request(card, GOLDEN_PW, now + 60)), "reject", "FUTURE_TIMESTAMP"),
            (tampered, "reject", "CHECK_FAILED"),
            (honest[:-1], "reject", "MALFORMED_FRAME"),
            (b"", "reject", "MALFORMED_FRAME"),  # closed before any byte
            (bytes([MSG_AUTH_RESPONSE]) + honest[1:], "reject", "BAD_TYPE"),
        ]
        with AuthServer(ServerConfig(server_secrets, (host, 0)), fixed_clock(now), audit_stream=audit) as srv:
            assert srv.address[0] == host
            for frame, decision, reason in cases:
                peer, _ = exchange(srv.address, frame)
                undecoded = reason in ("MALFORMED_FRAME", "BAD_TYPE")
                cid_hex = None if undecoded else decode_login_request(frame).cid.hex()
                line = audit.getvalue().splitlines(keepends=True)[-1]
                fields = {"ts": now, "peer": peer, "cid_hex": cid_hex, "decision": decision, "reason": reason}
                assert line == json.dumps(fields) + "\n"

    @pytest.mark.parametrize("peer", ['fe80::1%e"th:9', "fe80::1%e\\th:9", "fe80::1%éth:9", "fe80::1%e\x01th:9"])
    def test_escaped_peer_is_byte_identical_to_json_dumps(self, server_secrets, now, audit, peer):
        # a link-local IPv6 peer carries its interface name, which may hold any of these
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
            srv.audit(now, peer, None, "MALFORMED_FRAME")
        fields = {"ts": now, "peer": peer, "cid_hex": None, "decision": "reject", "reason": "MALFORMED_FRAME"}
        assert audit.getvalue() == json.dumps(fields) + "\n"

    def test_clock_read_once_per_connection(self, server_secrets, card, now, audit):
        clock = CountingClock(now)
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), clock, audit_stream=audit) as srv:
            honest = encode_login_request(make_login_request(card, GOLDEN_PW, now))
            wrong_type = bytes([MSG_AUTH_RESPONSE]) + honest[1:]
            for frame, reason in ((honest, "OK"), (honest[:-1], "MALFORMED_FRAME"), (wrong_type, "BAD_TYPE")):
                before = len(clock.reads)
                exchange(srv.address, frame)
                line = json.loads(audit.getvalue().splitlines()[-1])
                assert len(clock.reads) == before + 1  # the decision and the line share one reading
                assert (line["ts"], line["reason"]) == (clock.reads[-1], reason)


IO_TIMEOUT = 0.5  # a short per-connection deadline keeps the transport tests fast


@pytest.fixture
def quick_server(server_secrets, now, audit):
    with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
        srv.io_timeout = IO_TIMEOUT
        yield srv


def trickle(conn: socket.socket, frame: bytes) -> float:
    """Send frame one byte per 0.1 s; seconds until the server ends the connection."""
    start = time.monotonic()
    for byte in frame:
        try:
            conn.sendall(bytes([byte]))
        except OSError:
            break
        if select.select([conn], [], [], 0.1)[0]:
            break  # EOF or reset: the server let go
    return time.monotonic() - start


def audited_reasons(audit: io.StringIO) -> list[str]:
    return [json.loads(line)["reason"] for line in audit.getvalue().splitlines()]


# Builds a server under a descriptor limit 1 + {held} above what is open. Its listening socket
# takes one; with held=1 a silent peer it holds takes the last, and a second peer waits in the
# backlog. Either way every accept() the server makes fails at once with EMFILE. Then prints
# the CPU seconds it used per wall second over 1 s, the seconds close() took, and the audit lines.
SERVER_OUT_OF_DESCRIPTORS = """
import io, os, resource, socket, sys, time
sys.path.insert(0, {src!r})
from authlab.protocol import ServerSecrets
from authlab.storage import ServerConfig
from authlab.wire import AuthServer

config = ServerConfig(ServerSecrets(x=bytes(32), y=bytes(32)), ("127.0.0.1", 0))
peers = [socket.socket() for _ in range(2 * {held})]  # the silent and waiting peers' own descriptors, taken first
open_fds = len(os.listdir("/proc/self/fd")) - 1  # less the one listdir held
resource.setrlimit(resource.RLIMIT_NOFILE, (open_fds + 1 + {held}, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
audit = io.StringIO()
server = AuthServer(config, audit_stream=audit)
server.io_timeout = {io_timeout}
if peers:
    silent, waiting = peers
    silent.connect(server.address)
    time.sleep(0.1)  # the server has accepted the silent peer and holds it
    waiting.connect(server.address)
wall, cpu = time.monotonic(), time.process_time()
time.sleep(1)
cpu_per_sec = (time.process_time() - cpu) / (time.monotonic() - wall)
start = time.monotonic()
server.close()
print(cpu_per_sec, time.monotonic() - start, len(audit.getvalue().splitlines()))
"""


def out_of_descriptors(held: int, io_timeout: float = AuthServer.io_timeout) -> tuple[float, ...]:
    """Runs SERVER_OUT_OF_DESCRIPTORS in a child interpreter and returns what it printed."""
    script = SERVER_OUT_OF_DESCRIPTORS.format(src=str(Path(wire.__file__).parent.parent), held=held, io_timeout=io_timeout)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(float, proc.stdout.split()))


class TestBoundedServer:
    def test_trickling_peer_cut_at_deadline(self, quick_server, card, now, audit):
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        with socket.create_connection(quick_server.address, timeout=5) as conn:
            held = trickle(conn, frame)  # the whole frame would take 11 s
        assert IO_TIMEOUT * 0.9 <= held < IO_TIMEOUT + 0.5
        assert audited_reasons(audit) == ["MALFORMED_FRAME"]

    def test_close_before_a_whole_frame_is_read_once(self, server_secrets, card, now, audit, monkeypatch):
        reads = []  # (peer, whether the read finished the connection, whether before its deadline)
        read = AuthServer._read

        def recording_read(self, conn, peer, deadline, buf, held):
            read(self, conn, peer, deadline, buf, held)
            reads.append((peer, conn.fileno() == -1, time.monotonic() < deadline))

        monkeypatch.setattr(AuthServer, "_read", recording_read)
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        sent = {
            "cut after its header": frame[:50],
            "zero-byte close": b"",
            "version 0x02": frame[:1] + b"\x02" + frame[2:],
            "garbage": b"GET / HTTP/1.0\r\n\r\n",
        }
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
            peers = {name: exchange(srv.address, data) for name, data in sent.items()}
        # the server's thread has stopped, so every read it made is recorded
        for name, (peer, reply) in peers.items():
            assert reply == b"", name
            # any reads that held the peer came first; the read that met the close or the
            # bad header, before the deadline, finished it, and no read went after it
            finished = [(done, early) for p, done, early in reads if p == peer]
            assert finished == [(False, True)] * (len(finished) - 1) + [(True, True)], name
        assert audited_reasons(audit) == ["MALFORMED_FRAME"] * len(sent)

    def test_honest_login_is_answered_while_tricklers_are_held(self, quick_server, card, now, audit):
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        conns = [socket.create_connection(quick_server.address, timeout=5) for _ in range(16)]
        try:
            with ThreadPoolExecutor(16) as pool:
                trickles = [pool.submit(trickle, conn, frame) for conn in conns]
                time.sleep(0.05)  # every trickler is held, its first byte in
                start = time.monotonic()
                decision = client_login(quick_server.address, card, GOLDEN_PW, fixed_clock(now))
                waited = time.monotonic() - start
                held = [f.result() for f in trickles]
        finally:
            for conn in conns:
                conn.close()
        assert decision.reason is Reason.OK
        # the held tricklers do not make the honest peer wait: the server answers it at once
        assert waited < IO_TIMEOUT / 3
        assert all(h < IO_TIMEOUT + 0.5 for h in held)
        reasons = audited_reasons(audit)
        assert reasons[0] == "OK"
        assert sorted(reasons) == ["MALFORMED_FRAME"] * 16 + ["OK"]

    def test_close_returns_within_one_deadline_while_peers_held(self, server_secrets, now, audit):
        srv = AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit)
        srv.io_timeout = IO_TIMEOUT
        conns = []
        try:
            for _ in range(16):
                conns.append(socket.create_connection(srv.address, timeout=5))
            time.sleep(0.1)  # the server now holds 16 peers, each waiting for a header
            start = time.monotonic()
            srv.close()
            took = time.monotonic() - start
        finally:
            for conn in conns:
                conn.close()
            srv.close()  # a no-op once closed; stops the server if the test failed early
        assert took < IO_TIMEOUT + 0.5
        assert audited_reasons(audit) == ["MALFORMED_FRAME"] * 16
        assert not [t for t in threading.enumerate() if t.name.startswith("authlab-")]

    def test_close_cuts_the_held_peers_within_one_deadline(self, server_secrets, now, audit):
        srv = AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit)
        srv.io_timeout = IO_TIMEOUT
        conns = []
        try:
            for _ in range(16):
                conns.append(socket.create_connection(srv.address, timeout=5))
            time.sleep(0.1)  # the server holds all 16 idle peers: none waits in the backlog
            start = time.monotonic()
            srv.close()
            took = time.monotonic() - start
        finally:
            for conn in conns:
                conn.close()
            srv.close()
        assert took < 1.5 * IO_TIMEOUT
        # every held peer is cut at its deadline. A backlog forms only once accept() is out of
        # descriptors; test_server_holding_a_peer_out_of_descriptors_does_not_spin checks that
        # the peer waiting there then is reset unserved
        assert audited_reasons(audit) == ["MALFORMED_FRAME"] * 16
        assert not [t for t in threading.enumerate() if t.name.startswith("authlab-")]

    @pytest.mark.skipif(sys.platform != "linux", reason="counts descriptors in /proc/self/fd")
    def test_idle_server_out_of_descriptors_does_not_spin(self):
        # accept() takes a descriptor before it waits; with none to spare it gets EMFILE at
        # once, and before a pause the server retried in a busy loop
        cpu_per_sec, close_secs, _ = out_of_descriptors(held=0)
        assert cpu_per_sec < 0.2
        assert close_secs < 0.5

    @pytest.mark.skipif(sys.platform != "linux", reason="counts descriptors in /proc/self/fd")
    def test_server_holding_a_peer_out_of_descriptors_does_not_spin(self):
        # the waiting peer keeps the listening socket readable, so a poll that met a failed
        # accept() without a pause would return at once, again and again
        io_timeout = 2.0
        cpu_per_sec, close_secs, audit_lines = out_of_descriptors(held=1, io_timeout=io_timeout)
        assert cpu_per_sec < 0.2
        assert close_secs < io_timeout  # the silent peer is cut at its deadline
        assert audit_lines == 1  # the waiting peer is reset unserved

    def test_failed_audit_write_closes_one_peer_and_keeps_serving(self, server_secrets, card, now, caplog):
        audit = FailingOnceStream()
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
            peer, reply = exchange(srv.address, frame)
            assert reply == b""  # the decision could not be audited, so it is not sent
            assert client_login(srv.address, card, GOLDEN_PW, fixed_clock(now)).reason is Reason.OK
        errors = [r.getMessage() for r in caplog.records if r.getMessage().startswith("unhandled error")]
        assert errors == [f"unhandled error serving {peer}"]
        assert audited_reasons(audit) == ["OK"]

    def test_close_of_an_idle_server_returns_at_once(self, server_secrets, now):
        srv = AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=io.StringIO())
        closer = threading.Thread(target=srv.close, daemon=True)  # a lost wake-up must not hold the suite
        closer.start()
        closer.join(timeout=0.5)
        assert not closer.is_alive()
        assert not [t for t in threading.enumerate() if t.name.startswith("authlab-")]

    def test_concurrent_clients_each_audited_once(self, live_server, card, now, audit):
        def logins(worker: int) -> list[tuple[bytes, AuthDecision]]:
            pws = [f"{worker}-{i}".encode() for i in range(10)]
            return [(pw, client_login(live_server.address, card, pw, fixed_clock(now))) for pw in pws]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out a lost or doubled audit line
        try:
            with ThreadPoolExecutor(32) as pool:
                results = [result for batch in pool.map(logins, range(32)) for result in batch]
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 320
        assert all(d.reason is Reason.OK and d.recovered_hpw == hash_bytes(pw) for pw, d in results)
        cids = [json.loads(line)["cid_hex"] for line in audit.getvalue().splitlines()]
        assert sorted(cids) == sorted(make_login_request(card, pw, now).cid.hex() for pw, _ in results)
        assert [t.name for t in threading.enumerate() if t.name.startswith("authlab-")] == ["authlab-server"]


class FailingOnceStream(io.StringIO):
    """An audit stream whose first write raises OSError, as a full disk would."""

    def __init__(self):
        super().__init__()
        self.failed = False

    def write(self, text: str) -> int:
        if not self.failed:
            self.failed = True
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(text)


class ThreadRecordingStream(io.StringIO):
    """An audit stream that also records which thread writes each line."""

    def __init__(self):
        super().__init__()
        self.writers: list[str] = []

    def write(self, text: str) -> int:
        self.writers.append(threading.current_thread().name)
        return super().write(text)


class TestAcceptRole:
    def test_sequential_logins_served_by_one_handler(self, server_secrets, card, now):
        audit = ThreadRecordingStream()
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
            for _ in range(20):
                assert client_login(srv.address, card, GOLDEN_PW, fixed_clock(now)).accepted
        assert len(audit.writers) == 20
        # the server's loop serves every peer and is the audit stream's only writer
        assert set(audit.writers) == {"authlab-server"}

    def test_bytes_read_before_a_hand_off_count_toward_the_frame(self, live_server, card, now, audit):
        frame = encode_login_request(make_login_request(card, GOLDEN_PW, now))
        other_pw = b"another-pw"  # any password logs in; this one gives the second peer its own cid
        with socket.create_connection(live_server.address, timeout=5) as conn:
            conn.sendall(frame[:50])
            time.sleep(0.05)  # the server has read the 50 bytes and holds the peer for the rest
            # a second peer arrives and is answered while the first one's frame is incomplete
            assert client_login(live_server.address, card, other_pw, fixed_clock(now)).accepted
            conn.sendall(frame[50:])
            conn.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := conn.recv(4096):
                reply += chunk
        assert decode_auth_response(reply).reason is Reason.OK
        lines = [json.loads(line) for line in audit.getvalue().splitlines()]
        assert [(line["cid_hex"], line["reason"]) for line in lines] == [
            (make_login_request(card, other_pw, now).cid.hex(), "OK"),
            (decode_login_request(frame).cid.hex(), "OK"),
        ]

    def test_login_answered_while_another_peer_is_silent(self, live_server, card, now):
        # one peer that sends nothing, then 64 peers that have each sent one byte and wait
        for peers, first_byte in ((1, b""), (64, b"\x01")):
            conns = [socket.create_connection(live_server.address, timeout=5) for _ in range(peers)]
            try:
                for conn in conns:
                    conn.sendall(first_byte)
                time.sleep(0.05)  # the server has taken every peer and holds it for its frame
                start = time.monotonic()
                decision = client_login(live_server.address, card, GOLDEN_PW, fixed_clock(now))
                took = time.monotonic() - start
            finally:
                for conn in conns:
                    conn.close()
            assert decision.reason is Reason.OK, peers
            # the server polls the listening socket with the held peers, so it served the new one at once
            assert took < live_server.io_timeout / 3, peers


class TestClient:
    @pytest.mark.parametrize("host", ["::1", "localhost"], ids=["ipv6_literal", "name_as_ipv4"])
    def test_family_follows_the_host(self, host, server_secrets, card, now, audit):
        if host == "::1" and not ipv6_loopback():
            pytest.skip("no IPv6 loopback")
        bind_host = "::1" if host == "::1" else "127.0.0.1"
        with AuthServer(ServerConfig(server_secrets, (bind_host, 0)), fixed_clock(now), audit_stream=audit) as srv:
            decision = client_login((host, srv.address[1]), card, GOLDEN_PW, fixed_clock(now))
        assert decision.reason is Reason.OK
        assert decision.recovered_hpw == hash_bytes(GOLDEN_PW)

    def test_connect_bounded_by_timeout(self, card, now):
        timeout = 0.3
        with socket.create_server(("127.0.0.1", 0), backlog=0) as listener:
            # the held peer fills the accept queue of a listener that never accepts,
            # so the kernel drops the client's SYN and its connect cannot complete
            with socket.create_connection(listener.getsockname(), timeout=5):
                start = time.monotonic()
                with pytest.raises(ConnectionFailedError):
                    client_login(listener.getsockname()[:2], card, GOLDEN_PW, fixed_clock(now), timeout=timeout)
                took = time.monotonic() - start
        assert took < timeout + 0.5

    def test_close_without_reply_names_the_address(self, card, now):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def read_and_close() -> None:
                conn, _ = listener.accept()
                with conn:
                    while conn.recv(4096):  # read the whole request, so the close is not a reset
                        pass

            fake_server = threading.Thread(target=read_and_close, daemon=True)
            fake_server.start()
            host, port = listener.getsockname()[:2]
            with pytest.raises(ConnectionFailedError, match=f"exchange with {host}:{port} failed"):
                client_login((host, port), card, GOLDEN_PW, fixed_clock(now), timeout=5)
            fake_server.join(timeout=5)
        assert not fake_server.is_alive()

    def test_trickling_reply_cut_at_timeout(self, card, now):
        timeout = 0.2
        reply = encode_auth_response(AuthDecision(Reason.OK, hash_bytes(GOLDEN_PW)), 256)
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def trickle_reply() -> None:
                conn, _ = listener.accept()
                with conn:
                    for byte in reply:  # each byte well inside the timeout, the reply well past it
                        try:
                            conn.sendall(bytes([byte]))
                        except OSError:
                            return
                        time.sleep(0.15)

            fake_server = threading.Thread(target=trickle_reply, daemon=True)
            fake_server.start()
            start = time.monotonic()
            with pytest.raises(ConnectionFailedError):
                client_login(listener.getsockname()[:2], card, GOLDEN_PW, fixed_clock(now), timeout=timeout)
            took = time.monotonic() - start
            fake_server.join(timeout=5)
        assert took < timeout + 0.5
        assert not fake_server.is_alive()  # its next send met the closed client

    @pytest.mark.parametrize(
        "reply, error",
        [
            (encode_frame(MSG_LOGIN_REQUEST, b"\x00" + bytes(32)), BadTypeError),
            (bytes([MSG_AUTH_RESPONSE, 0x02, 0, 0, 0, 33]) + bytes(33), MalformedFrameError),
            (encode_frame(MSG_AUTH_RESPONSE, b"\x00" + bytes(32))[:20], MalformedFrameError),  # closed mid-frame
        ],
        ids=["login_request_type", "version_2", "cut_mid_frame"],
    )
    def test_codec_error_in_reply_passes_through(self, card, now, reply, error):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer() -> None:
                conn, _ = listener.accept()
                with conn:
                    while conn.recv(4096):  # read the whole request, so the close is not a reset
                        pass
                    conn.sendall(reply)

            fake_server = threading.Thread(target=answer, daemon=True)
            fake_server.start()
            with pytest.raises(error):
                client_login(listener.getsockname()[:2], card, GOLDEN_PW, fixed_clock(now), timeout=5)
            fake_server.join(timeout=5)
        assert not fake_server.is_alive()
