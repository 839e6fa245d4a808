"""A fixed reference loop that gauges how fast the shared host is running
this benchmark's kind of work at the moment.

On the shared host the same code ran a third faster for minutes at a time
and then slower again, so raw times of runs a few minutes apart differ by
more than any bound a regression check could use. The benchmark runs this
loop in slices between its measured windows and reports its figures at the
loop's nominal speed. Throughput, set-up time and the p99 latency, which
count stalls, are scaled by the loop's units per second; the p50 latency,
which leaves stalls out, by its median unit time. (Between the phases the
p99 moved about as much as throughput did, and less than the p50.) The loop
uses no authlab code, so a change to the program does not move it.

An in-process unit does what the program's hot paths do, in the same
interpreter: 256-bit integer XOR and shifts, int/bytes conversions, SHA-256
of 32 bytes, small lists, and one send and one receive on a local socket.
"""

from __future__ import annotations

import hashlib
import socket
import statistics
from time import perf_counter_ns

# median unit time of each kind of loop on the machine the benchmark was
# written on, in the host's slow phase; these only scale the reported figures
NOMINAL_UNIT_NS = {False: 25000.0, True: 120000.0}
SLICE_S = 0.04
_MASK = (1 << 256) - 1


class Reference:
    """The loop for an in-process workload, or with `tcp` for a remote one.

    Between the host's phases the remote workloads' throughput moved by
    about 1.2 times, Python code by 1.7 times and a loopback TCP exchange by
    under a tenth. The remote unit mixes the two so that it moves about as
    much as the workloads: one loopback TCP exchange and two in-process
    units, some 60% and 40% of its time in the slow phase.
    """

    def __init__(self, tcp: bool) -> None:
        self._a, self._b = socket.socketpair()
        self._listener = socket.create_server(("127.0.0.1", 0)) if tcp else None
        self._nominal_ns = NOMINAL_UNIT_NS[tcp]
        self._x = int.from_bytes(hashlib.sha256(b"authbench reference").digest(), "big")

    def _python(self) -> None:
        x = self._x
        parts = []
        for i in range(12):
            x ^= (x << 5) & _MASK
            digest = hashlib.sha256(x.to_bytes(32, "big")).digest()
            x = int.from_bytes(digest, "big")
            parts.append(digest[i])
        self._a.send(bytes(parts))
        self._b.recv(64)
        self._x = x

    def _tcp(self) -> None:
        """Connect, send a request-sized frame, half-close, answer from the
        accepted side, close both: the shape of a remote operation, in one
        thread."""
        with socket.create_connection(self._listener.getsockname()) as client:
            server, _ = self._listener.accept()
            with server:
                client.sendall(bytes(104))
                client.shutdown(socket.SHUT_WR)
                server.recv(256)
                server.sendall(bytes(39))
            client.recv(64)

    def _unit(self) -> None:
        self._python()
        if self._listener is not None:
            self._python()
            self._tcp()

    def run(self, seconds: float = SLICE_S) -> tuple[float, float]:
        """Run whole units for about `seconds`. Returns the slice's units
        per second and its median unit time, each relative to nominal (so
        above 1 when the host runs faster than nominal)."""
        start = now = perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        times = []
        while now < deadline:
            self._unit()
            then, now = now, perf_counter_ns()
            times.append(now - then)
        rate = len(times) / ((now - start) / 1e9)
        return rate * self._nominal_ns / 1e9, self._nominal_ns / statistics.median(times)

    def close(self) -> None:
        self._a.close()
        self._b.close()
        if self._listener is not None:
            self._listener.close()
