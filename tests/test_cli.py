import gc
import getpass
import io
import json
import resource
import signal
import stat
import subprocess
import sys
import warnings

import pytest

from conftest import GOLDEN_PW, GOLDEN_X_HEX, GOLDEN_Y_HEX
from authlab.bits import hash_bytes
from authlab.cli import main
from authlab.clock import fixed_clock
from authlab.protocol import issue_card
from authlab.storage import ServerConfig, load_card, load_server_config
from authlab.wire import AuthServer

PW = GOLDEN_PW.decode()


def write_config(tmp_path, **overrides):
    doc = {
        "x_hex": GOLDEN_X_HEX,
        "y_hex": GOLDEN_Y_HEX,
        "bind_address": "127.0.0.1:0",
        "window_secs": 60,
        "skew_secs": 5,
    }
    doc.update(overrides)
    path = tmp_path / "server.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def config_path(tmp_path):
    return write_config(tmp_path)


@pytest.fixture
def card_path(tmp_path, config_path, capsys):
    path = tmp_path / "alice.card"
    assert main(["register", "--config", str(config_path), "--out", str(path), "--password", PW]) == 0
    capsys.readouterr()
    return path


@pytest.fixture
def live_server(server_secrets, now, tmp_path):
    audit = open(tmp_path / "audit.log", "w")
    with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
        yield "%s:%d" % srv.address
    audit.close()


@pytest.fixture
def fake_now(monkeypatch, now):
    monkeypatch.setenv("AUTHLAB_FAKE_TIME", str(now))
    return now


class TestRegister:
    def test_writes_loadable_card(self, card_path, server_secrets):
        card = load_card(card_path)
        assert card == issue_card(GOLDEN_PW, server_secrets)

    def test_emits_card_path_json(self, tmp_path, config_path, capsys):
        out_path = tmp_path / "c.card"
        assert main(["register", "--config", str(config_path), "--out", str(out_path), "--password", PW]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) == {"card": str(out_path)}

    def test_deterministic(self, tmp_path, config_path, capsys):
        a, b = tmp_path / "a.card", tmp_path / "b.card"
        for p in (a, b):
            main(["register", "--config", str(config_path), "--out", str(p), "--password", PW])
        assert load_card(a).n_i == load_card(b).n_i
        capsys.readouterr()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["register", "--config", str(bad), "--out", str(tmp_path / "c"), "--password", PW])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "bad server config" in err

    def test_non_utf8_password_argument_is_taken_as_raw_bytes(self, tmp_path, config_path, server_secrets):
        out_path = tmp_path / "c.card"
        argv = [sys.executable, "-m", "authlab", "register", "--config", str(config_path), "--out", str(out_path)]
        proc = subprocess.run([*argv, "--password", b"\xff"], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert load_card(out_path) == issue_card(b"\xff", server_secrets)

    def test_prompt_at_end_of_stdin_exits_2(self, tmp_path, config_path, monkeypatch, capsys):
        def eof(prompt):
            raise EOFError

        monkeypatch.setattr(getpass, "getpass", eof)
        out_path = tmp_path / "c.card"
        code = main(["register", "--config", str(config_path), "--out", str(out_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "stdin" in err
        assert not out_path.exists()

    def test_unwritable_out_exits_3(self, tmp_path, config_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "c.card"
        code = main(["register", "--config", str(config_path), "--out", str(missing_dir), "--password", PW])
        assert code == 3
        assert "cannot write card file" in capsys.readouterr().err


class TestLogin:
    def test_correct_password_accepted(self, card_path, live_server, fake_now, capsys):
        code = main(["login", "--card", str(card_path), "--server", live_server, "--password", PW])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["accepted"] is True
        assert doc["reason"] == "OK"
        assert doc["recovered_hpw"] == hash_bytes(GOLDEN_PW).hex()

    def test_any_password_accepted_too(self, card_path, live_server, fake_now, capsys):
        code = main(["login", "--card", str(card_path), "--server", live_server, "--password", "not it"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["accepted"] is True

    def test_stale_clock_rejected(self, card_path, live_server, now, monkeypatch, capsys):
        monkeypatch.setenv("AUTHLAB_FAKE_TIME", str(now - 120))
        code = main(["login", "--card", str(card_path), "--server", live_server, "--password", PW])
        out, _ = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["reason"] == "STALE_TIMESTAMP"

    def test_server_of_another_width_rejects_with_no_hash(self, tmp_path, live_server, fake_now, capsys):
        x_hex, y_hex = (hash_bytes(label, "sha512").hex() for label in (b"server-x", b"server-y"))
        config = write_config(tmp_path, x_hex=x_hex, y_hex=y_hex, hash_id="sha512")
        card = str(tmp_path / "wide.card")
        assert main(["register", "--config", str(config), "--out", card, "--password", PW]) == 0
        capsys.readouterr()
        code = main(["login", "--card", card, "--server", live_server, "--password", PW])  # a sha256 server
        out = capsys.readouterr().out
        assert code == 1
        assert '"recovered_hpw": null' in out
        assert json.loads(out) == {"accepted": False, "reason": "CHECK_FAILED", "recovered_hpw": None}

    def test_unreachable_server_exits_5(self, card_path, capsys):
        code = main(["login", "--card", str(card_path), "--server", "127.0.0.1:1", "--password", PW])
        assert code == 5
        assert "login failed" in capsys.readouterr().err

    def test_port_zero_exits_2(self, card_path, capsys):
        code = main(["login", "--card", str(card_path), "--server", "127.0.0.1:0", "--password", PW])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "authlab: cannot connect to port 0 of 127.0.0.1; pass --server HOST:PORT with the server's port\n"

    def test_bad_card_exits_2(self, tmp_path, live_server, capsys):
        bad = tmp_path / "bad.card"
        bad.write_text('{"format_version": 99}')
        code = main(["login", "--card", str(bad), "--server", live_server, "--password", PW])
        assert code == 2
        assert "bad card file" in capsys.readouterr().err

    def test_bad_fake_time_exits_2(self, card_path, live_server, monkeypatch, capsys):
        monkeypatch.setenv("AUTHLAB_FAKE_TIME", "yesterday")
        code = main(["login", "--card", str(card_path), "--server", live_server, "--password", PW])
        assert code == 2
        capsys.readouterr()


class TestChangePassword:
    def test_change_then_login_with_new_password(self, card_path, live_server, fake_now, capsys):
        assert main(["change-password", "--card", str(card_path), "--old-password", PW, "--new-password", "next"]) == 0
        code = main(["login", "--card", str(card_path), "--server", live_server, "--password", "next"])
        assert code == 0
        capsys.readouterr()

    def test_identity_change_keeps_card_bytes(self, card_path, capsys):
        before = load_card(card_path)
        assert main(["change-password", "--card", str(card_path), "--old-password", PW, "--new-password", PW]) == 0
        assert load_card(card_path).n_i == before.n_i
        capsys.readouterr()

    def test_wrong_old_password_still_exits_0_and_logins_keep_working(
        self, card_path, live_server, fake_now, capsys
    ):
        assert main(["change-password", "--card", str(card_path), "--old-password", "WRONG", "--new-password", "x"]) == 0
        for pw in ("x", "anything", ""):
            assert main(["login", "--card", str(card_path), "--server", live_server, "--password", pw]) == 0
        capsys.readouterr()

    def test_failed_rewrite_leaves_old_card_whole(self, tmp_path, card_path):
        before = card_path.read_bytes()
        assert stat.S_IMODE(card_path.stat().st_mode) == 0o600

        def limit_file_size():  # runs in the child only
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (100, 100))

        assert len(before) > 100
        proc = subprocess.run(
            [sys.executable, "-m", "authlab", "change-password", "--card", str(card_path),
             "--old-password", PW, "--new-password", "next"],
            preexec_fn=limit_file_size, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert "cannot rewrite card file" in proc.stderr
        assert card_path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alice.card", "server.json"]

    def test_bad_card_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nope.card"
        code = main(["change-password", "--card", str(bad), "--old-password", "a", "--new-password", "b"])
        assert code == 2
        capsys.readouterr()


class TestAttack:
    def test_random_password_report(self, card_path, config_path, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--scenario", "random-password", "--trials", "1000", "--seed", "42",
        ])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "scenario": "RANDOM_PASSWORD",
            "trials": 1000,
            "accepted": 1000,
            "acceptance_rate": 1.0,
            "seed": 42,
        }

    def test_cloned_card_report(self, card_path, config_path, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--scenario", "cloned-card", "--trials", "200", "--seed", "3",
        ])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["scenario"] == "CLONED_CARD"

    def test_same_seed_byte_identical_output(self, card_path, config_path, fake_now, capsys):
        argv = ["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "50", "--seed", "9"]
        main(argv)
        first, _ = capsys.readouterr()
        main(argv)
        second, _ = capsys.readouterr()
        assert first == second

    def test_zero_trials_exits_2_with_usage(self, card_path, config_path, capsys):
        code = main(["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "0"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "usage" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--trials", "1_0", "must be ASCII digits, got '1_0'"),
            ("--trials", " 5", "must be ASCII digits, got ' 5'"),
            ("--trials", "\u0665", "must be ASCII digits"),  # Arabic-Indic five
            ("--trials", "+5", "must be ASCII digits, got '+5'"),
            ("--seed", " -3_0", "must be ASCII digits, got ' -3_0'"),
            ("--seed", "-7", "must be ASCII digits, got '-7'"),  # Random(-7) draws what Random(7) draws
            ("--seed", "", "must be ASCII digits, got ''"),
            pytest.param("--trials", "1" * 21, "must be at most 20 digits, got a 21-digit number", id="trials-21-digits"),
            pytest.param("--seed", "1" * 5000, "must be at most 20 digits, got a 5000-digit number", id="seed-5000-digits"),
            pytest.param("--seed", "x" * 5000, "must be ASCII digits, got a 5000-character value", id="seed-5000-letters"),
        ],
    )
    def test_trials_and_seed_take_ascii_digits_only(self, card_path, config_path, capsys, option, value, message):
        code = main(["attack", "--card", str(card_path), "--config", str(config_path), option, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert f"argument {option}: {message}" in err
        assert len(err) < 1000  # the value is not repeated back

    def test_twenty_digit_seed_runs(self, card_path, config_path, fake_now, capsys):
        seed = "9" * 20
        argv = ["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "3", "--seed", seed]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == int(seed)

    def test_remote_mode_over_live_server(self, card_path, config_path, live_server, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--trials", "25", "--seed", "5", "--remote", live_server,
        ])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["acceptance_rate"] == 1.0

    def test_bare_remote_flag_targets_the_config_bind_address(self, card_path, tmp_path, live_server, fake_now, capsys):
        config = write_config(tmp_path, bind_address=live_server)
        code = main(["attack", "--card", str(card_path), "--config", str(config), "--trials", "3", "--remote"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["accepted"] == 3

    @pytest.mark.parametrize("bind_address, remote", [
        (None, []),  # bind_address missing: the loader's default port 0
        ("127.0.0.1:0", []),
        ("127.0.0.1:7878", ["127.0.0.1:0"]),
    ])
    def test_remote_port_zero_exits_2(self, card_path, tmp_path, bind_address, remote, capsys):
        config = write_config(tmp_path, bind_address=bind_address)
        if bind_address is None:
            doc = json.loads(config.read_text())
            del doc["bind_address"]
            config.write_text(json.dumps(doc))
        code = main(["attack", "--card", str(card_path), "--config", str(config), "--trials", "2", "--remote", *remote])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "cannot connect to port 0 of 127.0.0.1; pass --remote HOST:PORT" in err

    def test_remote_mode_unreachable_exits_5(self, card_path, config_path, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--trials", "2", "--remote", "127.0.0.1:1",
        ])
        assert code == 5
        assert "remote attack failed" in capsys.readouterr().err

    def test_bad_config_exits_2(self, card_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"x_hex": "zz", "y_hex": "aa"}))
        code = main(["attack", "--card", str(card_path), "--config", str(bad)])
        assert code == 2
        capsys.readouterr()

    def test_undecodable_card_file_exits_2(self, tmp_path, config_path, capsys):
        card = tmp_path / "deep.card"
        card.write_bytes(b"[" * 100_000)
        code = main(["attack", "--card", str(card), "--config", str(config_path), "--trials", "2"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "not valid JSON" in err

    @pytest.mark.parametrize("fake_time", ["-1", str(1 << 64)])
    def test_out_of_range_fake_time_exits_2(self, card_path, config_path, monkeypatch, capsys, fake_time):
        monkeypatch.setenv("AUTHLAB_FAKE_TIME", fake_time)
        code = main(["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "2"])
        assert code == 2
        assert "AUTHLAB_FAKE_TIME" in capsys.readouterr().err


class TestServeCommand:
    def test_serves_and_shuts_down_on_interrupt(self, tmp_path, card_path, fake_now):
        config = write_config(tmp_path)
        with subprocess.Popen(
            [sys.executable, "-m", "authlab", "serve", "--config", str(config)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,  # AUTHLAB_FAKE_TIME is inherited, pinning both sides
        ) as proc:
            try:
                line = proc.stdout.readline()
                address = json.loads(line)["listening"]
                code = main(["login", "--card", str(card_path), "--server", address, "--password", PW])
                assert code == 0
            finally:
                proc.send_signal(signal.SIGINT)
                rc = proc.wait(timeout=10)
        assert rc == 0

    @staticmethod
    def _login_then_signal(tmp_path, card_path, launcher, signum):
        """Start serve through launcher, log in once, send signum; give the
        exit code, stderr and the audit file's text."""
        audit_path = tmp_path / "audit.jsonl"
        config = write_config(tmp_path, audit_path=str(audit_path))
        with subprocess.Popen(
            [*launcher, "serve", "--config", str(config)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ) as proc:
            try:
                address = json.loads(proc.stdout.readline())["listening"]
                assert main(["login", "--card", str(card_path), "--server", address, "--password", PW]) == 0
                proc.send_signal(signum)
                rc = proc.wait(timeout=10)
            finally:
                proc.kill()  # does nothing once the server has exited
            return rc, proc.stderr.read(), audit_path.read_text()

    def test_sigterm_shuts_down_cleanly(self, tmp_path, card_path, fake_now):
        rc, err, audit = self._login_then_signal(tmp_path, card_path, [sys.executable, "-m", "authlab"], signal.SIGTERM)
        assert rc == 0
        assert "interrupt received, shutting down" in err
        assert audit.endswith("\n") and json.loads(audit)["decision"] == "accept"

    def test_inherited_ignored_sigint_shuts_down_cleanly(self, tmp_path, card_path, fake_now):
        # a background job of a non-interactive shell starts with SIGINT ignored;
        # exec keeps that disposition, and Python then installs no handler of its own
        ignore_then_exec = (
            "import os, signal, sys; signal.signal(signal.SIGINT, signal.SIG_IGN); "
            "os.execv(sys.executable, [sys.executable, '-m', 'authlab', *sys.argv[1:]])"
        )
        launcher = [sys.executable, "-c", ignore_then_exec]
        rc, err, audit = self._login_then_signal(tmp_path, card_path, launcher, signal.SIGINT)
        assert rc == 0
        assert "interrupt received, shutting down" in err
        assert audit.endswith("\n") and json.loads(audit)["decision"] == "accept"

    def test_bind_conflict_exits_4(self, tmp_path, server_secrets, now, capsys):
        audit_path = tmp_path / "audit.jsonl"
        with AuthServer(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now)) as srv:
            config = write_config(tmp_path, bind_address="%s:%d" % srv.address, audit_path=str(audit_path))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                code = main(["serve", "--config", str(config)])
                gc.collect()  # an audit file left open would warn when collected
        assert code == 4
        assert "cannot bind" in capsys.readouterr().err
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert audit_path.read_text() == ""

    def test_audit_log_in_missing_directory_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, audit_path=str(tmp_path / "missing" / "audit.jsonl"))
        assert main(["serve", "--config", str(config)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("authlab: cannot open audit log: ")

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": "1234"}))
        assert main(["serve", "--config", str(bad)]) == 2
        capsys.readouterr()

    def test_out_of_range_port_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, bind_address="127.0.0.1:99999")
        assert main(["serve", "--config", str(config)]) == 2
        assert "bad server config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, address, message",
    [
        ("login", "nonsense", "address must be host:port, got 'nonsense'"),
        ("login", "127.0.0.1:99999", "port must be in 0..65535, got 99999"),
        ("login", "127.0.0.1:x", "port must be an integer, got 'x'"),
        ("attack", "127.0.0.1:x", "port must be an integer, got 'x'"),
        ("login", "127.0.0.1: 8_0", "port must be an integer, got ' 8_0'"),
        ("login", "127.0.0.1:+80", "port must be an integer, got '+80'"),
        ("login", "127.0.0.1:\u0668\u0660", "port must be an integer, got '\u0668\u0660'"),
        ("login", "127.0.0.1:80 ", "port must be an integer, got '80 '"),
        ("attack", "127.0.0.1:-1", "port must be an integer, got '-1'"),
        ("login", "127.0.0.1:000080", "port must be in 0..65535, got a 6-digit number"),
        pytest.param(
            "login", "h:" + "1" * 5000, "port must be in 0..65535, got a 5000-digit number", id="login-5000-digit-port"
        ),
        pytest.param(
            "attack", "h:" + "1" * 5000, "port must be in 0..65535, got a 5000-digit number", id="attack-5000-digit-port"
        ),
    ],
)
def test_bad_address_exits_2_with_one_diagnostic(card_path, config_path, fake_now, capsys, command, address, message):
    if command == "login":
        argv = ["login", "--card", str(card_path), "--password", PW, "--server", address]
    else:
        argv = ["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "2", "--remote", address]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"authlab: {message}\n"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "register" in capsys.readouterr().out


def test_configured_audit_file_receives_lines(tmp_path, card_path, fake_now):
    audit_path = tmp_path / "audit.jsonl"
    config = write_config(tmp_path, audit_path=str(audit_path))
    with subprocess.Popen(
        [sys.executable, "-m", "authlab", "serve", "--config", str(config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            address = json.loads(proc.stdout.readline())["listening"]
            main(["login", "--card", str(card_path), "--server", address, "--password", PW])
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)
    lines = [json.loads(line) for line in audit_path.read_text().splitlines()]
    assert len(lines) == 1
    assert lines[0]["decision"] == "accept"


@pytest.mark.parametrize(
    "document, field, diagnostic",
    [("card", "n_i", "bad card file"), ("card", "y", "bad card file"),
     ("config", "x_hex", "bad server config"), ("config", "y_hex", "bad server config")],
)
def test_empty_hex_field_exits_2_without_traceback(card_path, config_path, fake_now, capsys, document, field, diagnostic):
    path = card_path if document == "card" else config_path
    path.write_text(json.dumps({**json.loads(path.read_text()), field: ""}))
    code = main(["attack", "--card", str(card_path), "--config", str(config_path), "--trials", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"authlab: {diagnostic}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sha512_config_works_in_every_command(tmp_path, fake_now, capsys):
    x_hex, y_hex = (hash_bytes(label, "sha512").hex() for label in (b"server-x", b"server-y"))
    config = str(write_config(tmp_path, x_hex=x_hex, y_hex=y_hex, hash_id="sha512"))
    card = str(tmp_path / "alice.card")
    assert main(["register", "--config", config, "--out", card, "--password", PW]) == 0
    for scenario in ("random-password", "cloned-card"):
        argv = ["attack", "--card", card, "--config", config, "--scenario", scenario, "--trials", "20"]
        assert main(argv) == 0
    capsys.readouterr()

    with AuthServer(load_server_config(config), fixed_clock(fake_now), audit_stream=io.StringIO()) as srv:
        address = "%s:%d" % srv.address
        assert main(["login", "--card", card, "--server", address, "--password", PW]) == 0
        assert json.loads(capsys.readouterr().out)["recovered_hpw"] == hash_bytes(GOLDEN_PW, "sha512").hex()
        assert main(["attack", "--card", card, "--config", config, "--trials", "5", "--remote", address]) == 0
        assert main(["change-password", "--card", card, "--old-password", PW, "--new-password", "next"]) == 0
        assert main(["login", "--card", card, "--server", address, "--password", "next"]) == 0
    capsys.readouterr()
