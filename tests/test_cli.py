import io
import json
import signal
import subprocess
import sys

import pytest

from conftest import GOLDEN_PW, GOLDEN_X_HEX, GOLDEN_Y_HEX
from authlab import (
    ServerConfig,
    fixed_clock,
    hash_bytes,
    issue_card,
    load_card,
    load_server_config,
    serve,
)
from authlab.cli import main

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
    with serve(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now), audit_stream=audit) as srv:
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

    def test_unreachable_server_exits_5(self, card_path, capsys):
        code = main(["login", "--card", str(card_path), "--server", "127.0.0.1:1", "--password", PW])
        assert code == 5
        assert "login failed" in capsys.readouterr().err

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

    def test_remote_mode_over_live_server(self, card_path, config_path, live_server, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--trials", "25", "--seed", "5", "--remote", live_server,
        ])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["acceptance_rate"] == 1.0

    def test_remote_mode_unreachable_exits_2(self, card_path, config_path, fake_now, capsys):
        code = main([
            "attack", "--card", str(card_path), "--config", str(config_path),
            "--trials", "2", "--remote", "127.0.0.1:1",
        ])
        assert code == 2
        assert "remote attack failed" in capsys.readouterr().err

    def test_bad_config_exits_2(self, card_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"x_hex": "zz", "y_hex": "aa"}))
        code = main(["attack", "--card", str(card_path), "--config", str(bad)])
        assert code == 2
        capsys.readouterr()

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

    def test_bind_conflict_exits_4(self, tmp_path, server_secrets, now, capsys):
        with serve(ServerConfig(server_secrets, ("127.0.0.1", 0)), fixed_clock(now)) as srv:
            config = write_config(tmp_path, bind_address="%s:%d" % srv.address)
            code = main(["serve", "--config", str(config)])
        assert code == 4
        assert "cannot bind" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": "1234"}))
        assert main(["serve", "--config", str(bad)]) == 2
        capsys.readouterr()

    def test_out_of_range_port_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, bind_address="127.0.0.1:99999")
        assert main(["serve", "--config", str(config)]) == 2
        assert "bad server config" in capsys.readouterr().err


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


def test_sha512_config_works_in_every_command(tmp_path, fake_now, capsys):
    x_hex, y_hex = (hash_bytes(label, "sha512").hex() for label in (b"server-x", b"server-y"))
    config = str(write_config(tmp_path, x_hex=x_hex, y_hex=y_hex, hash_id="sha512"))
    card = str(tmp_path / "alice.card")
    assert main(["register", "--config", config, "--out", card, "--password", PW]) == 0
    for scenario in ("random-password", "cloned-card"):
        argv = ["attack", "--card", card, "--config", config, "--scenario", scenario, "--trials", "20"]
        assert main(argv) == 0
    capsys.readouterr()

    with serve(load_server_config(config), fixed_clock(fake_now), audit_stream=io.StringIO()) as srv:
        address = "%s:%d" % srv.address
        assert main(["login", "--card", card, "--server", address, "--password", PW]) == 0
        assert json.loads(capsys.readouterr().out)["recovered_hpw"] == hash_bytes(GOLDEN_PW, "sha512").hex()
        assert main(["attack", "--card", card, "--config", config, "--trials", "5", "--remote", address]) == 0
        assert main(["change-password", "--card", card, "--old-password", PW, "--new-password", "next"]) == 0
        assert main(["login", "--card", card, "--server", address, "--password", "next"]) == 0
    capsys.readouterr()
