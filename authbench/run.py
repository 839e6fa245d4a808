"""authlab benchmark: seeded workloads with every outcome checked.

    python3 authbench/run.py --workload attack-inproc --seed 1 --seconds 30 --trace 0
    python3 authbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (all SHA-256 at 256 bits, server clock pinned with AUTHLAB_FAKE_TIME):

- attack-inproc: one thread calling run_random_password_attack in-process in
  batches of ATTACK_BATCH trials. An operation is one trial. The acceptance
  rate must be exactly 1.0.
- login-remote: CLIENTS threads in a closed loop, each calling client_login
  with seeded random passwords against an `authlab serve` subprocess over
  loopback. An operation is one login; every reply must accept and carry
  h(typed_pw).
- hostile-mix: the same closed loop sending raw frames from a seeded pool in
  which a minority are honest logins (see remote.FRAME_KINDS). An operation is
  one frame; each reply, or its absence, must match the outcome computed
  in-process with decode_login_request and authenticate.

On the remote workloads the audit file's count per reason must match the
expected counts. A server reset instead of a clean close on a frame that gets
no reply is counted in wire.reset_on_reject, not as a failure. The load
generator and the server share one CPU (see pin_cpu).

With --trace 0 the last stdout line carries the end-to-end metrics: setup_s
(median of SETUPS full set-ups made after the measurement: secrets, storage
round trip, server spawn, warm-up), ops_per_s (mean over WINDOW_S windows),
latency_p50_us (mean of the windows' p50s), latency_p99_us (median of the
windows' p99s), correct_ratio (1 - failed_ratio) and peak_rss_mb (VmHWM from
/proc of the process running the server code). The four timings are scaled
to the nominal speed of a reference loop run between the windows and around
each set-up (see speed.py); the line before the result holds them unscaled
and the measured speeds. With --trace 1 it carries the per-layer
metrics: batch-timed calls into bits, protocol, wire codec and storage, then
alternating untraced and traced segments whose spans give the runner's and
the transport's times and the tracing overhead. The line before it holds the
environment and details. Exit code 1 when any outcome is wrong.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import operator
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import traceback
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    from authlab.attack import draw_password, run_random_password_attack
    from authlab.bits import Bits, embed_timestamp, hash_bits, hash_bytes
    from authlab.clock import fixed_clock
    from authlab.protocol import (
        ServerSecrets,
        authenticate,
        issue_card,
        make_login_request,
    )
    from authlab.storage import (
        ServerConfig,
        load_card,
        load_server_config,
        save_card,
        save_server_config,
    )
    from authlab.wire import (
        WireError,
        client_login,
        decode_auth_response,
        decode_login_request,
        encode_auth_response,
        encode_login_request,
    )
except ImportError as exc:
    sys.exit(f"authbench: cannot import authlab from {SRC}: {exc}")

from remote import (
    IO_TIMEOUT_S,
    GateError,
    ServeProcess,
    hostile_pool,
    proc_status,
    recv_reply_frame,
    send_frame,
    send_frame_traced,
)
from speed import Reference
from tracing import Tracer, median_of, merged_self_times, write_spans

BASE_T = 1_700_000_000
HASH_ID = "sha256"
SETUPS = 9
# windows well under the host's fast and slow phases, which last about a second
WINDOW_S = 0.25
CLIENTS = 2
ATTACK_BATCH = 250
WARMUP_OPS = 100
# about 0.1 s, like the remote warm-ups, so that in-process set-up is not a
# few milliseconds swayed by the CPU's clock changes
WARMUP_TRIALS = 1000
POOL_SIZE = 1024
LAYER_BATCHES = 11
TRACE_PAIRS = 5
REASONS = ("OK", "STALE_TIMESTAMP", "FUTURE_TIMESTAMP", "CHECK_FAILED", "MALFORMED_FRAME", "BAD_TYPE")
WORK_DIR = ROOT / ".authbench-work"
SPANS_DIR = ROOT / ".authbench-out"


def golden_gate() -> None:
    """Rebuild tests/data/golden_login_frame.hex from the constants in
    tests/conftest.py and require a byte-for-byte match."""
    consts = {}
    for node in ast.parse((ROOT / "tests" / "conftest.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id.startswith("GOLDEN_"):
                consts[node.targets[0].id] = ast.literal_eval(node.value)
    try:
        secrets = ServerSecrets(x=Bits.from_hex(consts["GOLDEN_X_HEX"]), y=Bits.from_hex(consts["GOLDEN_Y_HEX"]))
        card = issue_card(consts["GOLDEN_PW"], secrets)
        frame = encode_login_request(make_login_request(card, consts["GOLDEN_PW"], consts["GOLDEN_T"]))
        golden = bytes.fromhex((ROOT / "tests" / "data" / "golden_login_frame.hex").read_text().strip())
    except (KeyError, ValueError) as exc:
        raise GateError(f"cannot rebuild the golden login frame: {exc!r}") from exc
    if frame != golden:
        raise GateError("golden login frame does not match tests/data/golden_login_frame.hex")


@dataclass
class Lab:
    """Everything one set-up produced."""

    seed: int
    now: int
    secrets: ServerSecrets
    card: object
    config: ServerConfig
    dir: Path
    server: ServeProcess | None = None
    pool: list = field(default_factory=list)


@dataclass
class Record:
    """One client thread's outcomes.

    Latencies of successful operations are kept for the current window only;
    a closed window keeps (count, p50, p99), so that memory does not grow
    with throughput. The index of the current window also seeds the inputs
    the client draws in it.
    """

    window: int = 0
    lats: array = field(default_factory=lambda: array("q"))
    windows: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    resets: int = 0
    honest: int = 0
    accepted: int = 0
    reasons: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    def done(self, start_ns: int, end_ns: int, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            return
        self.lats.append(end_ns - start_ns)

    def close_window(self) -> None:
        if self.lats:
            lats = sorted(self.lats)
            self.windows.append((len(lats), percentile(lats, 50), percentile(lats, 99)))
            self.lats = array("q")
        self.window += 1


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def prepare(seed: int, workdir: Path) -> Lab:
    """Secrets and card from the seed, then a storage round trip."""
    rng = random.Random(seed)
    now = BASE_T + rng.randrange(1 << 24)
    secrets = ServerSecrets(x=Bits(rng.randbytes(32)), y=Bits(rng.randbytes(32)))
    card = issue_card(rng.randbytes(16), secrets, HASH_ID)
    workdir.mkdir(parents=True)
    config = ServerConfig(secrets, ("127.0.0.1", 0), hash_id=HASH_ID, audit_path=str(workdir / "audit.jsonl"))
    save_card(workdir / "user.card", card)
    save_server_config(workdir / "server.json", config)
    if load_card(workdir / "user.card") != card or load_server_config(workdir / "server.json") != config:
        raise GateError("storage round trip changed the card or the server config")
    return Lab(seed, now, secrets, card, config, workdir)


def spawn(lab: Lab) -> None:
    lab.server = ServeProcess(SRC, lab.dir / "server.json", Path(lab.config.audit_path), lab.now, lab.dir)


def finish(lab: Lab, recs: list[Record]) -> dict:
    """Stop the server and compare its audit file with the expected reasons."""
    if lab.server is None:
        return {}
    lab.server.sample()
    lab.server.stop()
    for rec in recs:
        lab.server.expected.update(rec.reasons)
    actual = lab.server.audit_counts()
    mismatch = sum(abs(lab.server.expected[r] - actual[r]) for r in set(actual) | set(lab.server.expected))
    return {"audit": dict(actual), "audit_mismatch": mismatch}


# --- attack-inproc -------------------------------------------------------


def attack_setup(lab: Lab, rec: Record) -> None:
    attack_untraced(lab, 0, rec, None, limit=WARMUP_TRIALS)


def attack_untraced(lab: Lab, worker: int, rec: Record, deadline: int | None, limit: int | None = None) -> None:
    batch = 0
    while (deadline is None or perf_counter_ns() < deadline) and (limit is None or rec.attempted < limit):
        stamps = []

        def clock() -> int:
            stamps.append(perf_counter_ns())
            return lab.now

        report = run_random_password_attack(
            lab.card, lab.secrets, ATTACK_BATCH, (lab.seed << 24) + (rec.window << 12) + batch, clock,
            window_secs=lab.config.window_secs,
        )
        end = perf_counter_ns()
        batch += 1
        # per-trial boundaries from the injected clock, which every trial reads
        # the same number of times
        stride, extra = divmod(len(stamps), ATTACK_BATCH)
        if extra or not stride:
            raise RuntimeError(f"{len(stamps)} clock reads for {ATTACK_BATCH} trials")
        starts = stamps[::stride]
        for trial, (s, e) in enumerate(zip(starts, starts[1:] + [end])):
            rec.done(s, e, report.trial_log[trial].accepted)
        rec.honest += report.trials
        rec.accepted += report.accepted


def attack_traced(lab: Lab, worker: int, rec: Record, deadline: int, tracer: Tracer) -> None:
    clock = fixed_clock(lab.now)
    cfg = lab.config
    batch = 0
    while perf_counter_ns() < deadline:
        run_sid = tracer.open("attack.run_random_password_attack", rec.attempted)

        def submit(card, pw, t):
            op = rec.attempted
            sid = tracer.open("attack.submit", op, run_sid)
            child = tracer.open("protocol.make_login_request", op, sid)
            req = make_login_request(card, pw, t)
            tracer.close(child)
            child = tracer.open("protocol.authenticate", op, sid)
            decision = authenticate(
                lab.secrets, req, t_star=clock(), window_secs=cfg.window_secs,
                skew_secs=cfg.skew_secs, hash_id=cfg.hash_id,
            )
            tracer.close(child)
            tracer.close(sid)
            rec.done(tracer.start[sid], tracer.end[sid], decision.accepted)
            return decision

        report = run_random_password_attack(
            lab.card, lab.secrets, ATTACK_BATCH, (lab.seed << 24) + (rec.window << 12) + batch, clock,
            window_secs=cfg.window_secs, submit=submit,
        )
        tracer.close(run_sid)
        batch += 1
        rec.honest += report.trials
        rec.accepted += report.accepted


# --- login-remote --------------------------------------------------------


def login_setup(lab: Lab, rec: Record) -> None:
    spawn(lab)
    login_untraced(lab, 0, rec, None, limit=WARMUP_OPS)


def _login_ok(decision, pw: bytes, card) -> bool:
    return decision.accepted and decision.recovered_hpw == hash_bytes(pw, card.hash_id)


def login_untraced(lab: Lab, worker: int, rec: Record, deadline: int | None, limit: int | None = None) -> None:
    rng = random.Random(f"login-{lab.seed}-{worker}-{rec.window}")
    clock = fixed_clock(lab.now)
    while (deadline is None or perf_counter_ns() < deadline) and (limit is None or rec.attempted < limit):
        pw = draw_password(rng)
        start = perf_counter_ns()
        try:
            decision = client_login(lab.server.address, lab.card, pw, clock, timeout=IO_TIMEOUT_S)
        except WireError as exc:
            rec.errors.append(repr(exc))
            rec.done(start, perf_counter_ns(), False)
            continue
        rec.done(start, perf_counter_ns(), _login_ok(decision, pw, lab.card))
        rec.reasons["OK"] += 1
        rec.honest += 1
        rec.accepted += decision.accepted


def login_traced(lab: Lab, worker: int, rec: Record, deadline: int, tracer: Tracer) -> None:
    """The steps of client_login, made one by one so each gets a span."""
    rng = random.Random(f"login-traced-{lab.seed}-{worker}-{rec.window}")
    while perf_counter_ns() < deadline:
        pw = draw_password(rng)
        op = rec.attempted
        root = tracer.open("wire.login", op)
        try:
            sid = tracer.open("protocol.make_login_request", op, root)
            req = make_login_request(lab.card, pw, lab.now)
            tracer.close(sid)
            sid = tracer.open("wire.encode_login_request", op, root)
            frame = encode_login_request(req)
            tracer.close(sid)
            reply, _ = send_frame_traced(lab.server.address, frame, tracer, op, root, recv_reply_frame)
            decision = None
            if reply:
                sid = tracer.open("wire.decode_auth_response", op, root)
                decision = decode_auth_response(reply)
                tracer.close(sid)
        except (OSError, WireError) as exc:
            rec.errors.append(repr(exc))
            decision = None
        tracer.close(root)
        rec.done(tracer.start[root], tracer.end[root], decision is not None and _login_ok(decision, pw, lab.card))
        rec.reasons["OK"] += 1
        rec.honest += 1
        rec.accepted += decision is not None and decision.accepted


# --- hostile-mix ---------------------------------------------------------


def hostile_setup(lab: Lab, rec: Record) -> None:
    lab.pool = hostile_pool(lab.seed, POOL_SIZE, lab.card, lab.config, lab.now)
    spawn(lab)
    hostile_untraced(lab, 0, rec, None, limit=WARMUP_OPS)


def _hostile_op(lab: Lab, worker: int, rec: Record, send) -> None:
    kind, frame, want_reply, want_reason = lab.pool[(worker * POOL_SIZE // CLIENTS + rec.attempted) % POOL_SIZE]
    start = perf_counter_ns()
    try:
        reply, reset = send(frame)
    except OSError as exc:
        rec.errors.append(repr(exc))
        reply, reset, ok = None, False, False
    else:
        ok = reply == want_reply
    rec.done(start, perf_counter_ns(), ok)
    rec.resets += reset
    rec.reasons[want_reason] += 1
    if kind == "honest":
        rec.honest += 1
        rec.accepted += reply is not None and len(reply) > 6 and reply[6] == 0x00


def hostile_untraced(lab: Lab, worker: int, rec: Record, deadline: int | None, limit: int | None = None) -> None:
    address = lab.server.address
    while (deadline is None or perf_counter_ns() < deadline) and (limit is None or rec.attempted < limit):
        _hostile_op(lab, worker, rec, lambda frame: send_frame(address, frame))


def hostile_traced(lab: Lab, worker: int, rec: Record, deadline: int, tracer: Tracer) -> None:
    address = lab.server.address
    while perf_counter_ns() < deadline:
        op = rec.attempted
        root = tracer.open("wire.frame", op)
        _hostile_op(lab, worker, rec, lambda frame: send_frame_traced(address, frame, tracer, op, root))
        tracer.close(root)


@dataclass(frozen=True)
class Workload:
    """How to set up, drive untraced and drive traced one workload; in a
    traced run every operation's spans hang from a `root_span`."""

    setup: object
    untraced: object
    traced: object
    clients: int
    root_span: str


WORKLOADS = {
    "attack-inproc": Workload(attack_setup, attack_untraced, attack_traced, 1, "attack.run_random_password_attack"),
    "login-remote": Workload(login_setup, login_untraced, login_traced, CLIENTS, "wire.login"),
    "hostile-mix": Workload(hostile_setup, hostile_untraced, hostile_traced, CLIENTS, "wire.frame"),
}


# --- measurement ---------------------------------------------------------


def closed_loop(lab: Lab, target, recs: list[Record], seconds: float, tracers=None) -> float:
    """Run one client thread per record for `seconds`, then sample the
    server process and close every record's window. Returns the seconds
    elapsed, up to the last client's last operation."""
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)

    def body(i: int) -> None:
        try:
            if tracers is None:
                target(lab, i, recs[i], deadline)
            else:
                target(lab, i, recs[i], deadline, tracers[i])
        except Exception:
            recs[i].errors.append(traceback.format_exc())
            recs[i].failed += 1
            recs[i].attempted += 1

    threads = [threading.Thread(target=body, args=(i,), name=f"client-{i}", daemon=True) for i in range(len(recs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(0.0, (deadline - perf_counter_ns()) / 1e9) + IO_TIMEOUT_S * 3)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not stop")
    elapsed = (perf_counter_ns() - start) / 1e9
    if lab.server is not None:
        lab.server.sample()
    for rec in recs:
        rec.close_window()
    return elapsed


def window_stats(windows: list[tuple], seconds: float) -> dict:
    """Throughput over `seconds`, and the mean p50 and median p99 of the
    clients' `windows`."""
    samples = sum(count for count, _, _ in windows)
    return {
        "samples": samples,
        "ops_per_s": samples / seconds,
        "p50_us": statistics.fmean(p50 for _, p50, _ in windows) / 1e3 if windows else math.nan,
        "p99_us": statistics.median(p99 for _, _, p99 in windows) / 1e3 if windows else math.nan,
    }


def measure(lab: Lab, workload: Workload, seconds: int, reference: Reference) -> tuple[list[Record], dict]:
    """Windows of the untraced closed loop, each between two slices of the
    reference loop and scaled by their mean speed (see speed.py).

    The shared host's CPU switches between a fast and a slow phase that
    last about a second each, and the fast share differs from run to run;
    windows much shorter than a phase mostly fall within one, as do the
    slices around them. Throughput and p50 are means over the windows: a
    median would jump between the two phases' values once the fast share
    nears a half. The p99 is the median of the windows' p99s.
    """
    recs = [Record() for _ in range(workload.clients)]
    before = reference.run()
    raw, scaled, speeds = [], [], []
    for _ in range(max(1, round(seconds / WINDOW_S))):
        done = [len(rec.windows) for rec in recs]
        elapsed = closed_loop(lab, workload.untraced, recs, WINDOW_S)
        after = reference.run()
        stats = window_stats([w for rec, n in zip(recs, done) for w in rec.windows[n:]], elapsed)
        rate, unit = ((b + a) / 2 for b, a in zip(before, after))
        before = after
        raw.append(stats)
        scaled.append(
            {"ops_per_s": stats["ops_per_s"] / rate, "p50_us": stats["p50_us"] * unit, "p99_us": stats["p99_us"] * rate}
        )
        speeds.append((rate, unit))

    def summary(rows: list[dict]) -> dict:
        timed = [row for row in rows if not math.isnan(row["p50_us"])]
        return {
            "ops_per_s": statistics.fmean(row["ops_per_s"] for row in rows),
            "p50_us": statistics.fmean(row["p50_us"] for row in timed),
            "p99_us": statistics.median(row["p99_us"] for row in timed),
        }

    return recs, {
        "samples": sum(row["samples"] for row in raw),
        **summary(scaled),
        "unscaled": summary(raw),
        "speed": {"rate": statistics.fmean(r for r, _ in speeds), "unit": statistics.fmean(u for _, u in speeds)},
    }


def trace_segments(lab: Lab, workload: Workload, seconds: int, tracers: list[Tracer]) -> tuple[list[Record], dict]:
    """Alternate untraced and traced segments, so that drift in machine
    speed during the run does not show as tracing overhead. Returns the
    records and the pooled stats of each kind."""
    recs = {traced: [Record() for _ in range(workload.clients)] for traced in (False, True)}
    elapsed = {False: 0.0, True: 0.0}
    p50s = {False: [], True: []}
    for _ in range(TRACE_PAIRS):
        for traced in (False, True):
            before = [len(rec.windows) for rec in recs[traced]]
            seconds_run = closed_loop(
                lab,
                workload.traced if traced else workload.untraced,
                recs[traced],
                seconds / (2 * TRACE_PAIRS),
                tracers if traced else None,
            )
            elapsed[traced] += seconds_run
            segment = [w for rec, n in zip(recs[traced], before) for w in rec.windows[n:]]
            p50s[traced].append(window_stats(segment, seconds_run)["p50_us"])
    stats = {}
    for traced in (False, True):
        windows = [w for rec in recs[traced] for w in rec.windows]
        stats[traced] = {
            "ops_per_s": window_stats(windows, elapsed[traced])["ops_per_s"],
            "p50_us": statistics.median(p50s[traced]),
        }
    return recs[False] + recs[True], stats


def per_call(metric: str) -> tuple[str, float]:
    """Span name and nanoseconds per unit of a per-call metric name."""
    return metric.rsplit("_", 1)[0], 1 if metric.endswith("_ns") else 1e3


def layer_section(lab: Lab, tracer: Tracer) -> dict[str, float]:
    """Time batches of calls into each public function, on seeded inputs.

    Each batch is one span named "layer.<layer>.<function>"; a metric is the
    median batch time divided by the calls in a batch.
    """
    rng = random.Random(f"layers-{lab.seed}")
    n = 256
    cfg = lab.config
    width = lab.secrets.y.width
    values = [Bits(rng.randbytes(width // 8)) for _ in range(n + 1)]
    pws = [draw_password(rng) for _ in range(n)]
    reqs = [make_login_request(lab.card, pw, lab.now) for pw in pws]
    decisions = [authenticate(lab.secrets, req, lab.now) for req in reqs]
    card_path, config_path = lab.dir / "layer.card", lab.dir / "layer.json"
    few = 64  # calls per batch for the functions that cost tens of microseconds
    cases = {
        "bits.xor_ns": (operator.xor, list(zip(values, values[1:]))),
        "bits.hash_ns": (hash_bits, [(v, HASH_ID) for v in values[:n]]),
        "bits.embed_timestamp_ns": (embed_timestamp, [(lab.now + i, width) for i in range(n)]),
        "protocol.make_login_request_us": (make_login_request, [(lab.card, pw, lab.now) for pw in pws[:few]]),
        "protocol.authenticate_us": (
            partial(authenticate, window_secs=cfg.window_secs, skew_secs=cfg.skew_secs, hash_id=cfg.hash_id),
            [(lab.secrets, req, lab.now) for req in reqs[:few]],
        ),
        "wire.encode_login_request_us": (encode_login_request, [(req,) for req in reqs]),
        "wire.decode_login_request_us": (decode_login_request, [(encode_login_request(r),) for r in reqs]),
        "wire.encode_auth_response_us": (encode_auth_response, [(d, width) for d in decisions]),
        "wire.decode_auth_response_us": (decode_auth_response, [(encode_auth_response(d, width),) for d in decisions]),
        "storage.save_card_us": (save_card, [(card_path, lab.card)] * 16),
        "storage.load_card_us": (load_card, [(card_path,)] * 16),
        "storage.save_server_config_us": (save_server_config, [(config_path, cfg)] * 16),
        "storage.load_server_config_us": (load_server_config, [(config_path,)] * 16),
    }
    metrics = {}
    for name, (fn, calls) in cases.items():
        span, scale = per_call(name)
        for batch in range(LAYER_BATCHES):
            sid = tracer.open("layer." + span, batch)
            for args in calls:
                fn(*args)
            tracer.close(sid)
        metrics[name] = median_of(tracer.self_times(), "layer." + span, len(calls) * scale)
    return metrics


def pin_cpu() -> int:
    """Run this process and, by inheritance, the `authlab serve` it spawns on
    one CPU.

    Each is one interpreter whose threads take turns on a lock. Spread over
    two shared virtual CPUs, every request and reply wakes an idle CPU, and
    throughput and p99 varied by half from run to run; on one CPU they vary
    by a few percent.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(cpu: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "network": "loopback 127.0.0.1 (remote workloads)",
        "peak_rss_source": "VmHWM in /proc/<pid>/status",
        "cpu": f"load generator and authlab serve share CPU {cpu}",
    }


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Returns (details, result line)."""
    workload = WORKLOADS[workload_name]
    golden_gate()
    workdir = WORK_DIR / f"{workload_name}-{seed}-{os.getpid()}"
    setup_recs = [Record()]
    labs: list[Lab] = []
    reference = None
    try:
        lab = prepare(seed, workdir / "measured")
        labs.append(lab)
        workload.setup(lab, setup_recs[0])
        reference = Reference(tcp=lab.server is not None)
        if not trace:
            recs, stats = measure(lab, workload, seconds, reference)
        else:
            tracer = Tracer()
            layers = layer_section(lab, tracer)
            tracers = [Tracer() for _ in range(workload.clients)]
            recs, pooled = trace_segments(lab, workload, seconds, tracers)
            untraced, traced = pooled[False], pooled[True]
            tracers.append(tracer)
        peak_kb = lab.server.hwm_kb if lab.server else proc_status("self")["VmHWM"]
        audits = [finish(lab, setup_recs + recs)]

        # Set-up is timed after the measurement, on a CPU that has been busy
        # for a while: right after start-up it ran up to twice as fast for a
        # fraction of a second, and set-up took 0.07 to 0.13 s from run to run.
        # A set-up lasts a tenth of a second, within one of the host's fast or
        # slow phases, so each is scaled by the reference slices around it.
        setup_times, setup_scaled = [], []
        before = reference.run()
        for k in range(SETUPS):
            rec = Record()
            start = perf_counter()
            again = prepare(seed, workdir / f"setup{k}")
            labs.append(again)
            workload.setup(again, rec)
            setup_times.append(perf_counter() - start)
            setup_recs.append(rec)
            audits.append(finish(again, [rec]))
            after = reference.run()
            setup_scaled.append(setup_times[-1] * (before[0] + after[0]) / 2)
            before = after
        details = {"setup_s_each": setup_times, "setup_s_unscaled": statistics.median(setup_times)}
    finally:
        if reference is not None:
            reference.close()
        for each in labs:
            if each.server is not None:
                each.server.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    everything = setup_recs + recs
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    failed += sum(a.get("audit_mismatch", 0) for a in audits)
    failed = min(failed, attempted)
    honest = sum(r.honest for r in everything)
    details.update(
        failed_ratio={"value": failed / attempted, "unit": "ratio"},
        resets=sum(r.resets for r in everything),
        audits=audits,
        errors=[e for r in everything for e in r.errors][:10],
    )

    if not trace:
        details["latency_samples"] = stats["samples"]
        details["unscaled"] = stats["unscaled"]
        details["speed"] = stats["speed"]
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (stats["ops_per_s"], "1/s"),
            "latency_p50_us": (stats["p50_us"], "us"),
            "latency_p99_us": (stats["p99_us"], "us"),
            "correct_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
    else:
        self_ns = merged_self_times(tracers)
        final_audit = audits[0].get("audit", {})
        server = lab.server
        metrics = {}
        for name, value in layers.items():
            # a call the workload itself makes in this process is measured there
            span, scale = per_call(name)
            if span in self_ns:
                value = median_of(self_ns, span, scale)
            metrics[name] = (value, "ns" if scale == 1 else "us")
        metrics.update(
            {
                "protocol.accept_ratio": (sum(r.accepted for r in everything) / honest if honest else 0.0, "ratio"),
                # every call runs ATTACK_BATCH trials
                "attack.runner_self_us": (
                    0.0 if server else median_of(self_ns, workload.root_span, ATTACK_BATCH * 1e3), "us"
                ),
                "wire.connect_us": (median_of(self_ns, "wire.connect", 1e3), "us"),
                "wire.send_us": (median_of(self_ns, "wire.send", 1e3), "us"),
                "wire.server_wait_us": (median_of(self_ns, "wire.server_wait", 1e3), "us"),
                "wire.client_self_us": (
                    median_of(self_ns, workload.root_span, 1e3) if server else 0.0, "us"
                ),
                "wire.reset_on_reject": (details["resets"], "count"),
                "server.threads_peak": (server.threads_peak if server else 0, "count"),
                "server.audit_lines": (sum(final_audit.values()), "count"),
                **{f"server.decisions.{r}": (final_audit.get(r, 0), "count") for r in REASONS},
                "cli.serve_ready_s": (
                    statistics.median(each.server.ready_s for each in labs) if server else 0.0, "s"
                ),
                "trace.untraced_ops_per_s": (untraced["ops_per_s"], "1/s"),
                "trace.traced_ops_per_s": (traced["ops_per_s"], "1/s"),
                "trace.overhead_ops_per_s": (untraced["ops_per_s"] - traced["ops_per_s"], "1/s"),
                "trace.overhead_us_per_op": (
                    1e6 / traced["ops_per_s"] - 1e6 / untraced["ops_per_s"], "us"
                ),
                "trace.untraced_latency_p50_us": (untraced["p50_us"], "us"),
            }
        )
        spans_path = SPANS_DIR / f"spans-{workload_name}-seed{seed}.tsv.gz"
        details["spans"] = write_spans(spans_path, tracers)
        details["spans_file"] = str(spans_path.relative_to(ROOT))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A shell that starts this in the background ignores SIGINT; the server
    # would inherit that and ignore the SIGINT that stops it.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    status = 0
    cpu = pin_cpu()
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        try:
            details, result = run(name, args.seed, args.seconds, bool(args.trace))
        except (GateError, OSError) as exc:
            print(f"authbench: {exc}", file=sys.stderr)
            return 1
        details = {"workload": name, "seed": args.seed, "trace": args.trace, "env": environment(cpu), **details}
        print(json.dumps(details), flush=True)
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
