"""Acceptance criteria, one test per criterion, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Every tolerance is exact: acceptance rates are compared to 1.0 (or 0.0) as
numbers, protocol values bit for bit, and the two timed criteria must finish
inside 5 seconds.
"""

import concurrent.futures
import io
import logging
import random
import time
from pathlib import Path

import pytest

import oracle
from conftest import make_strawman, mint_card, as_int, exchange, random_bits, recording_submit
from authlab.attack import run_random_password_attack
from authlab.bits import hash_bytes
from authlab.clock import fixed_clock
from authlab.protocol import (
    Reason,
    ServerSecrets,
    authenticate,
    change_password,
    issue_card,
    make_login_request,
)
from authlab.storage import ServerConfig
from authlab.wire import (
    AuthServer,
    BadTypeError,
    MalformedFrameError,
    client_login,
    decode_auth_response,
    decode_login_request,
    encode_auth_response,
    encode_frame,
    encode_login_request,
)

NOW = 1_700_000_000
GOLDEN_FRAME_HEX = (
    Path(__file__).parent / "data" / "golden_login_frame.hex"
).read_text().strip()


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _random_setup(rng: random.Random):
    secrets = ServerSecrets(x=random_bits(rng), y=random_bits(rng))
    pw = rng.randbytes(rng.randint(0, 64))
    return secrets, pw


@pytest.fixture(scope="module")
def a1_runs():
    rng = random.Random(101)
    runs = []
    start = time.perf_counter()
    for _ in range(1000):
        secrets, pw = _random_setup(rng)
        t = rng.randrange(0, 1 << 40)
        card = issue_card(pw, secrets)
        req = make_login_request(card, pw, t)
        decision = authenticate(secrets, req, t_star=t + rng.randint(0, 60))
        runs.append((pw, decision))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def a2_state():
    rng = random.Random(102)
    secrets, pw = _random_setup(rng)
    card = issue_card(pw, secrets)
    # a second card holder mints the victim's card from one captured login, not from the victim's card
    minted = mint_card(encode_login_request(make_login_request(card, pw, NOW)), issue_card(b"mallory-pw", secrets))
    start = time.perf_counter()
    random_report = run_random_password_attack(card, secrets, 1000, 7, fixed_clock(NOW))
    minted_report = run_random_password_attack(minted, secrets, 1000, 8, fixed_clock(NOW))
    elapsed = time.perf_counter() - start
    return card, minted, secrets, random_report, minted_report, elapsed


def test_a1_completeness(a1_runs):
    runs, elapsed = a1_runs
    accepted = sum(d.accepted and d.reason is Reason.OK for _, d in runs)
    _report(
        "A1 completeness (honest round trip, 1000 random tuples)",
        accepted == 1000 and elapsed < 5.0,
        f"{accepted}/1000 accepted in {elapsed:.2f}s",
    )


def test_a2_password_independence_attacks(a2_state):
    card, minted, _, random_report, minted_report, elapsed = a2_state
    ok = (
        random_report.acceptance_rate == 1.0
        and minted_report.acceptance_rate == 1.0
        and minted == card
        and elapsed < 5.0
    )
    _report(
        "A2 attack acceptance rate (1000 random-password trials on the victim's card"
        " + 1000 on a card minted from one captured request)",
        ok,
        f"rates {random_report.acceptance_rate}, {minted_report.acceptance_rate}, "
        f"minted card equals the victim's: {minted == card}, in {elapsed:.2f}s",
    )


def test_a3_recovery_identity(a1_runs, a2_state):
    runs, _ = a1_runs
    card, minted, secrets, random_report, minted_report, _ = a2_state
    mismatches = sum(d.recovered_hpw != hash_bytes(pw) for pw, d in runs if d.accepted)
    checked = sum(d.accepted for _, d in runs)
    # rerun each A2 attack through a recording submit: the same report means the
    # recorded passwords are the ones the A2 trials used
    replayed = True
    for attacked, report in ((card, random_report), (minted, minted_report)):
        calls = []
        rerun = run_random_password_attack(
            attacked, secrets, report.trials, report.seed, fixed_clock(NOW),
            submit=recording_submit(secrets, NOW, calls),
        )
        replayed = replayed and rerun == report and len(calls) == report.trials
        for pw, _, decision in calls:
            if decision.accepted:
                mismatches += decision.recovered_hpw != hash_bytes(pw)
                checked += 1
    _report(
        "A3 recovered hash equals h(typed password) on every accepted request",
        replayed and mismatches == 0 and checked == 3000,
        f"{checked} requests audited, {mismatches} mismatches, A2 reports replayed: {replayed}",
    )


def test_a4_password_change_coherence():
    rng = random.Random(104)
    secrets, pw = _random_setup(rng)
    card = issue_card(pw, secrets)

    honest_change = change_password(card, pw, b"the new password")
    req = make_login_request(honest_change, b"the new password", NOW)
    new_pw_ok = authenticate(secrets, req, t_star=NOW).accepted

    corrupted = change_password(card, b"definitely wrong old", b"whatever")
    still_accepted = 0
    for i in range(100):
        any_pw = rng.randbytes(rng.randint(0, 64))
        req = make_login_request(corrupted, any_pw, NOW + i)
        still_accepted += authenticate(secrets, req, t_star=NOW + i).accepted
    _report(
        "A4 password change coherence (honest change works; corrupt change changes nothing)",
        new_pw_ok and still_accepted == 100,
        f"new-password login={new_pw_ok}, post-corruption acceptance {still_accepted}/100",
    )


def test_a5_freshness_window():
    rng = random.Random(105)
    secrets, pw = _random_setup(rng)
    card = issue_card(pw, secrets)
    window = 60

    stale_rejects = 0
    for _ in range(100):
        t = rng.randrange(0, 1 << 40)
        req = make_login_request(card, pw, t)
        age = window + rng.randint(1, 1 << 20)
        decision = authenticate(secrets, req, t_star=t + age, window_secs=window)
        stale_rejects += (not decision.accepted) and decision.reason is Reason.STALE_TIMESTAMP

    boundary_req = make_login_request(card, pw, NOW)
    boundary_ok = authenticate(secrets, boundary_req, t_star=NOW + window, window_secs=window).accepted
    _report(
        "A5 freshness (stale rejected 100/100, exact-boundary accepted)",
        stale_rejects == 100 and boundary_ok,
        f"stale rejects {stale_rejects}/100, boundary accepted={boundary_ok}",
    )


def test_a6_negative_control_strawman():
    rng = random.Random(106)
    secrets = ServerSecrets(x=random_bits(rng), y=random_bits(rng))
    real_pw = b"q" * 80  # longer than any generated password, no collisions
    card = issue_card(real_pw, secrets)
    verify = make_strawman(secrets, real_pw)

    def submit(c, pw, t):
        return verify(make_login_request(c, pw, t), t_star=NOW)

    report = run_random_password_attack(card, secrets, 1000, 17, fixed_clock(NOW), submit=submit)
    honest = verify(make_login_request(card, real_pw, NOW), t_star=NOW)
    _report(
        "A6 negative control (verifying strawman rejects all random passwords)",
        report.acceptance_rate == 0.0 and honest.accepted,
        f"strawman acceptance rate {report.acceptance_rate}, honest accepted={honest.accepted}",
    )


def test_a7_oracle_equivalence():
    rng = random.Random(107)
    mismatches = 0
    for _ in range(20):
        secrets, pw = _random_setup(rng)
        t = rng.randrange(0, 1 << 40)
        x_int, y_int = as_int(secrets.x), as_int(secrets.y)

        card = issue_card(pw, secrets)
        n_ref = oracle.registration_value(pw, x_int)
        ref = oracle.login_values(pw, n_ref, y_int, t)
        srv = oracle.server_values(ref["cid"], n_ref, y_int, t)

        req = make_login_request(card, pw, t)
        decision = authenticate(secrets, req, t_star=t)
        mismatches += as_int(card.n_i) != n_ref
        mismatches += as_int(req.cid) != ref["cid"]
        mismatches += as_int(req.c_i) != ref["c_i"]
        mismatches += as_int(decision.recovered_hpw) != srv["recovered_hpw"]
        mismatches += srv["expected_c_i"] != ref["c_i"]
    _report(
        "A7 oracle equivalence (20 random parameter sets, all intermediates)",
        mismatches == 0,
        f"{mismatches} mismatching intermediate values",
    )


def test_a8_wire_fidelity():
    rng = random.Random(108)
    secrets, pw = _random_setup(rng)
    card = issue_card(pw, secrets)

    roundtrip_failures = 0
    for _ in range(1000):
        t = rng.randrange(0, 1 << 64)
        req = make_login_request(card, rng.randbytes(rng.randint(0, 64)), t)
        roundtrip_failures += decode_login_request(encode_login_request(req)) != req

    golden_secrets = ServerSecrets(
        x=hash_bytes(b"server-x"), y=hash_bytes(b"server-y")
    )
    golden_card = issue_card(b"alice-pw", golden_secrets)
    golden_req = make_login_request(golden_card, b"alice-pw", NOW)
    golden_ok = encode_login_request(golden_req).hex() == GOLDEN_FRAME_HEX

    transparency_failures = 0
    with AuthServer(ServerConfig(secrets, ("127.0.0.1", 0)), fixed_clock(NOW), audit_stream=io.StringIO()) as srv:
        for _ in range(50):
            trial_pw = rng.randbytes(rng.randint(0, 32))
            offset = rng.choice([0, 5, 59, 60, 61, 1000])
            over_wire = client_login(srv.address, card, trial_pw, fixed_clock(NOW - offset))
            in_process = authenticate(
                secrets, make_login_request(card, trial_pw, NOW - offset), t_star=NOW
            )
            transparency_failures += over_wire != in_process
    _report(
        "A8 wire fidelity (1000 round trips, golden vector, 50 socket-vs-in-process)",
        roundtrip_failures == 0 and golden_ok and transparency_failures == 0,
        f"roundtrip failures {roundtrip_failures}, golden stable={golden_ok}, "
        f"transparency failures {transparency_failures}",
    )


def _fuzz_frames(card, n: int) -> list[bytes]:
    rng = random.Random(109)
    honest = encode_login_request(make_login_request(card, b"fuzz-base", NOW))
    frames = []
    for _ in range(n):
        kind = rng.randrange(4)
        if kind == 0:
            frames.append(rng.randbytes(rng.randint(0, 64)))
        elif kind == 1:
            payload = rng.randbytes(rng.randint(0, 120))
            frames.append(encode_frame(rng.choice([0x01, 0x02, 0x7F]), payload))
        elif kind == 2:
            mutated = bytearray(honest)
            mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
            frames.append(bytes(mutated))
        else:
            frames.append(honest)
    return frames


def test_a9_fuzz_robustness():
    rng = random.Random(110)
    secrets = ServerSecrets(x=random_bits(rng), y=random_bits(rng))
    card = issue_card(b"fuzz-owner", secrets)
    frames = _fuzz_frames(card, 10_000)

    # any handler thread dying un-handled would log through handle_error
    crash_log = io.StringIO()
    handler = logging.StreamHandler(crash_log)
    logging.getLogger("authlab.wire").addHandler(handler)

    bad_accepts = 0
    io_failures = 0
    try:
        with AuthServer(ServerConfig(secrets, ("127.0.0.1", 0)), fixed_clock(NOW), audit_stream=io.StringIO()) as srv:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                responses = [reply for _, reply in pool.map(lambda f: exchange(srv.address, f), frames)]
            for frame, response in zip(frames, responses):
                if len(response) >= 7 and response[6] == 0x00:
                    # wire-level accept: the in-process checker must agree
                    req = decode_login_request(frame)
                    if not authenticate(secrets, req, t_star=NOW).accepted:
                        bad_accepts += 1
            survived = client_login(srv.address, card, b"fuzz-owner", fixed_clock(NOW)).accepted
    except OSError:
        io_failures += 1
        survived = False
    finally:
        logging.getLogger("authlab.wire").removeHandler(handler)

    crashes = crash_log.getvalue().count("unhandled error")
    _report(
        "A9 robustness (10000-frame fuzz stream)",
        crashes == 0 and bad_accepts == 0 and io_failures == 0 and survived,
        f"crashes {crashes}, inconsistent accepts {bad_accepts}, server survived={survived}",
    )


def test_a9_decoders_raise_only_codec_errors():
    rng = random.Random(111)
    secrets = ServerSecrets(x=random_bits(rng), y=random_bits(rng))
    card = issue_card(b"fuzz-owner", secrets)
    decision = authenticate(secrets, make_login_request(card, b"fuzz-owner", NOW), t_star=NOW)
    reply = encode_auth_response(decision, 256)
    inputs = _fuzz_frames(card, 10_000)
    for _ in range(10_000):
        kind = rng.randrange(3)
        payload = rng.randbytes(rng.randint(0, 300))
        if kind == 0:
            inputs.append(payload)
        elif kind == 1:  # any type and version; a declared length that mostly matches
            header = bytes([rng.choice([0x01, 0x02, rng.randrange(256)]), rng.choice([0x01, rng.randrange(256)])])
            declared = rng.choice([len(payload), len(payload), rng.randrange(1 << 32)])
            inputs.append(header + declared.to_bytes(4, "big") + payload)
        else:  # a reply with one byte changed, sometimes cut short
            mutated = bytearray(reply)
            mutated[rng.randrange(len(mutated))] ^= rng.randint(1, 255)
            inputs.append(bytes(mutated[: rng.choice([len(mutated), rng.randrange(len(mutated))])]))

    others = []
    for data in inputs:
        for decode in (decode_login_request, decode_auth_response):
            try:
                decode(data)
            except (MalformedFrameError, BadTypeError):
                pass
            except Exception as exc:
                others.append(f"{decode.__name__}({data.hex()}): {exc!r}")
    _report(
        f"A9 decoders ({len(inputs)} inputs, both decoders)",
        not others,
        f"{len(others)} exceptions other than MalformedFrameError or BadTypeError" + (f", first {others[0]}" if others else ""),
    )
