"""Command-line front end: issue cards, run the server, log in, change
passwords, and run the random-password attack.

stdout carries machine-readable JSON only; every human-facing diagnostic goes
to stderr. Exit codes: 0 success/accepted, 1 rejected (login) or vulnerability
not confirmed (attack), 2 bad input or config, 3 unwritable output, 4 bind
failure, 5 connection failure.
"""

from __future__ import annotations

import argparse
import getpass
import json
import signal
import sys
import time
from contextlib import nullcontext

from authlab.attack import run_random_password_attack
from authlab.bits import parse_digits
from authlab.clock import Clock, clock_from_env, fixed_clock
from authlab.protocol import AuthDecision, change_password, issue_card
from authlab.storage import (
    CardFileError,
    ConfigError,
    load_card,
    load_server_config,
    parse_address,
    save_card,
)
from authlab.wire import AuthServer, WireError, client_login

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BAD_INPUT = 2
EXIT_UNWRITABLE = 3
EXIT_BIND_FAILURE = 4
EXIT_CONNECTION_FAILURE = 5


def _diag(message: str) -> None:
    print(f"authlab: {message}", file=sys.stderr)


def _emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def _password(value: str | None, prompt: str) -> bytes:
    if value is None:
        value = getpass.getpass(prompt)
    # argv arrives decoded with surrogateescape; undoing it makes any byte string a password
    return value.encode("utf-8", "surrogateescape")


def _decision_json(decision: AuthDecision) -> dict:
    return {
        "accepted": decision.accepted,
        "reason": decision.reason.value,
        "recovered_hpw": decision.recovered_hpw.hex() if decision.recovered_hpw else None,
    }


def _digits(text: str) -> int:
    """An integer of 1 to 20 ASCII digits, the rule AUTHLAB_FAKE_TIME follows too."""
    try:
        return parse_digits(text, 20, "must be ASCII digits", "must be at most 20 digits")
    except ValueError as exc:  # argparse would repeat the value after a plain ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _digits(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _server_address(address: tuple[str, int], option: str) -> tuple[str, int]:
    """address, unless its port is 0: a config's default, binding any free port, which no client can name."""
    if address[1] == 0:
        raise ValueError(f"cannot connect to port 0 of {address[0]}; pass {option} HOST:PORT with the server's port")
    return address


def cmd_register(args: argparse.Namespace, clock: Clock) -> int:
    config = load_server_config(args.config)
    pw = _password(args.password, "Password for new user: ")
    card = issue_card(pw, config.secrets, config.hash_id)
    try:
        save_card(args.out, card)
    except OSError as exc:
        _diag(f"cannot write card file: {exc}")
        return EXIT_UNWRITABLE
    _emit({"card": str(args.out)})
    return EXIT_OK


def cmd_serve(args: argparse.Namespace, clock: Clock) -> int:
    config = load_server_config(args.config)
    try:
        audit = nullcontext() if config.audit_path is None else open(config.audit_path, "a", encoding="utf-8")
    except OSError as exc:
        _diag(f"cannot open audit log: {exc}")
        return EXIT_BAD_INPUT
    with audit as audit_file:  # closed after the server, which writes to it until then
        try:
            server = AuthServer(config, clock, audit_stream=audit_file)
        except OSError as exc:
            _diag(f"cannot bind {'%s:%d' % config.bind_address}: {exc}")
            return EXIT_BIND_FAILURE
        # announce inside the with: an interrupt that follows the announcement at
        # once must still close the server, or its thread keeps the process alive;
        # SIGTERM and a SIGINT inherited as ignored (a background job's) end here too
        with server:
            try:
                for signum in (signal.SIGINT, signal.SIGTERM):
                    signal.signal(signum, signal.default_int_handler)
                _emit({"listening": "%s:%d" % server.address})
                while True:
                    time.sleep(1)
            except KeyboardInterrupt:
                _diag("interrupt received, shutting down")
    return EXIT_OK


def cmd_login(args: argparse.Namespace, clock: Clock) -> int:
    card = load_card(args.card)
    try:
        address = _server_address(parse_address(args.server), "--server")
    except ValueError as exc:
        _diag(str(exc))
        return EXIT_BAD_INPUT
    pw = _password(args.password, "Password: ")
    try:
        decision = client_login(address, card, pw, clock)
    except WireError as exc:
        _diag(f"login failed: {exc}")
        return EXIT_CONNECTION_FAILURE
    _emit(_decision_json(decision))
    return EXIT_OK if decision.accepted else EXIT_REJECTED


def cmd_change_password(args: argparse.Namespace, clock: Clock) -> int:
    card = load_card(args.card)
    old_pw = _password(args.old_password, "Current password: ")
    new_pw = _password(args.new_password, "New password: ")
    updated = change_password(card, old_pw, new_pw)
    try:
        save_card(args.card, updated)
    except OSError as exc:
        _diag(f"cannot rewrite card file: {exc}")
        return EXIT_UNWRITABLE
    _emit({"card": str(args.card)})
    return EXIT_OK


def cmd_attack(args: argparse.Namespace, clock: Clock) -> int:
    card = load_card(args.card)
    config = load_server_config(args.config)
    submit = None  # in-process, under the config's policy
    if args.remote is not None:
        try:
            address = _server_address(parse_address(args.remote) if args.remote else config.bind_address, "--remote")
        except ValueError as exc:
            _diag(str(exc))
            return EXIT_BAD_INPUT

        def submit(c, pw, t):
            return client_login(address, c, pw, fixed_clock(t))  # the runner's one reading for the trial

    try:
        report = run_random_password_attack(
            card, config.secrets, args.trials, args.seed, clock, window_secs=config.window_secs,
            skew_secs=config.skew_secs, hash_id=config.hash_id, submit=submit,
        )
    except WireError as exc:
        _diag(f"remote attack failed: {exc}")
        return EXIT_CONNECTION_FAILURE
    print(report.to_json(), flush=True)
    return EXIT_OK if report.acceptance_rate == 1.0 else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="authlab",
        description="Dynamic-ID smartcard login lab: protocol, server, and attack demos.",
        epilog="Set AUTHLAB_FAKE_TIME=<epoch seconds> to pin the clock for reproducible runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pw_help = "password value (test convenience; omits the prompt but lands in shell history)"

    p = sub.add_parser("register", help="issue a new card file for a user")
    p.add_argument("--config", required=True, help="server config JSON path")
    p.add_argument("--out", required=True, help="card file path to write")
    p.add_argument("--password", help=pw_help)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("serve", help="run the authentication server until interrupted")
    p.add_argument("--config", required=True, help="server config JSON path")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("login", help="log in against a running server")
    p.add_argument("--card", required=True, help="card file path")
    p.add_argument("--server", required=True, help="server address host:port")
    p.add_argument("--password", help=pw_help)
    p.set_defaults(func=cmd_login)

    p = sub.add_parser("change-password", help="rewrite the card for a new password")
    p.add_argument("--card", required=True, help="card file path")
    p.add_argument("--old-password", help=pw_help)
    p.add_argument("--new-password", help=pw_help)
    p.set_defaults(func=cmd_change_password)

    p = sub.add_parser("attack", help="run the random-password attack and report the acceptance rate")
    p.add_argument("--card", required=True, help="card file path")
    p.add_argument("--config", required=True, help="server config JSON path")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_digits, default=0)
    p.add_argument(
        "--remote",
        nargs="?",
        const="",
        default=None,
        metavar="HOST:PORT",
        help="submit trials over the network instead of in-process "
        "(bare flag targets the config's bind_address)",
    )
    p.set_defaults(func=cmd_attack)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        clock = clock_from_env()
    except ValueError as exc:
        _diag(str(exc))
        return EXIT_BAD_INPUT
    try:
        return args.func(args, clock)
    except EOFError:  # only the password prompt reads stdin
        _diag("no password given and stdin is at end of input")
        return EXIT_BAD_INPUT
    except ConfigError as exc:
        _diag(f"bad server config: {exc}")
        return EXIT_BAD_INPUT
    except CardFileError as exc:
        _diag(f"bad card file: {exc}")
        return EXIT_BAD_INPUT
