"""On-disk formats: card files and server configuration, both small JSON docs.

Card file, format_version 1::

    {"format_version": 1, "hash_id": "sha256", "k": 256,
     "n_i": "<64 hex chars>", "y": "<64 hex chars>"}

Server config::

    {"x_hex": "...", "y_hex": "...", "bind_address": "127.0.0.1:7878",
     "window_secs": 60, "skew_secs": 5}

plus optional "hash_id" (default sha256) and "audit_path" (default null,
meaning audit lines go to stderr). Hex fields are human-inspectable and
diff-able on purpose.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from authlab.bits import DEFAULT_HASH_ID, hash_width, parse_digits
from authlab.protocol import (
    DEFAULT_SKEW_SECS,
    DEFAULT_WINDOW_SECS,
    AuthDecision,
    LoginRequest,
    ServerSecrets,
    SmartcardState,
    authenticate,
)

CARD_FORMAT_VERSION = 1


class StorageError(Exception):
    """A card or config file that cannot be used."""


class CardFileError(StorageError):
    pass


class ConfigError(StorageError):
    pass


def _decode_hex_field(raw: object, name: str, err: type[StorageError]) -> bytes:
    if not isinstance(raw, str):
        raise err(f"{name} must be a hex string")
    try:
        return bytes.fromhex(raw)
    except ValueError as exc:
        raise err(f"{name} is not valid hex: {exc}") from exc


def _load_json(path: str | Path, err: type[StorageError]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise err(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, over-long int, deep nesting
        raise err(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise err(f"{path} must contain a JSON object")
    return doc


def _write_json(path: str | Path, doc: dict) -> None:
    """Write doc to a new mode-0600 file beside path and rename it over path,
    so a failed write leaves the old file whole. Writing through a symlink rewrites its target."""
    path = os.path.realpath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".authlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_card(path: str | Path, card: SmartcardState) -> None:
    doc = {
        "format_version": CARD_FORMAT_VERSION,
        "hash_id": card.hash_id,
        "k": card.k,
        "n_i": card.n_i.hex(),
        "y": card.y.hex(),
    }
    _write_json(path, doc)


def load_card(path: str | Path) -> SmartcardState:
    doc = _load_json(path, CardFileError)
    version = doc.get("format_version")
    # type() rather than ==: JSON true loads as a bool, and True == 1.
    if type(version) is not int or version != CARD_FORMAT_VERSION:
        raise CardFileError(
            f"unsupported card format_version: {version!r}"
        )
    hash_id = doc.get("hash_id")
    k = doc.get("k")
    if not isinstance(hash_id, str) or not isinstance(k, int):
        raise CardFileError("card file needs string hash_id and integer k")
    n_i = _decode_hex_field(doc.get("n_i"), "n_i", CardFileError)
    y = _decode_hex_field(doc.get("y"), "y", CardFileError)
    try:
        return SmartcardState(n_i=n_i, y=y, hash_id=hash_id, k=k)
    except ValueError as exc:
        raise CardFileError(str(exc)) from exc


def _check_port(port: int) -> int:
    """The one port rule, shared by parse_address and ServerConfig."""
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {port}")
    return port


@dataclass(frozen=True)
class ServerConfig:
    """The server's whole policy: secrets, freshness window, skew and hash,
    plus where to listen and audit."""

    secrets: ServerSecrets
    bind_address: tuple[str, int]
    window_secs: int = DEFAULT_WINDOW_SECS
    skew_secs: int = DEFAULT_SKEW_SECS
    hash_id: str = DEFAULT_HASH_ID
    audit_path: str | None = None

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bool is an int subclass, and true/false are not seconds.
        if type(self.window_secs) is not int or self.window_secs <= 0:
            raise ValueError(f"window_secs must be a positive integer, got {self.window_secs!r}")
        if type(self.skew_secs) is not int or self.skew_secs < 0:
            raise ValueError(f"skew_secs must be a non-negative integer, got {self.skew_secs!r}")
        width = hash_width(self.hash_id)  # raises ValueError on an unknown or non-string id
        if width != len(self.secrets.y) * 8:
            raise ValueError(f"hash {self.hash_id!r} produces {width} bits, secrets are {len(self.secrets.y) * 8}")
        if self.audit_path is not None and not isinstance(self.audit_path, str):
            raise ValueError("audit_path must be a string or null")
        _check_port(self.bind_address[1])

    def authenticate(self, req: LoginRequest, t_star: int) -> AuthDecision:
        """The server step under this policy, evaluated at receipt time t_star."""
        return authenticate(
            self.secrets, req, t_star, self.window_secs, skew_secs=self.skew_secs, hash_id=self.hash_id
        )


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    return host, _check_port(parse_digits(port_text, 5, "port must be an integer", "port must be in 0..65535"))


def load_server_config(path: str | Path) -> ServerConfig:
    doc = _load_json(path, ConfigError)
    x = _decode_hex_field(doc.get("x_hex"), "x_hex", ConfigError)
    y = _decode_hex_field(doc.get("y_hex"), "y_hex", ConfigError)
    try:
        bind_address = parse_address(doc.get("bind_address", "127.0.0.1:0"))
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad bind_address: {exc}") from exc
    # only the keys the document holds: the defaults live on ServerConfig alone
    policy = {key: doc[key] for key in ("window_secs", "skew_secs", "hash_id", "audit_path") if key in doc}
    try:
        return ServerConfig(secrets=ServerSecrets(x=x, y=y), bind_address=bind_address, **policy)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def save_server_config(path: str | Path, config: ServerConfig) -> None:
    doc = {
        "x_hex": config.secrets.x.hex(),
        "y_hex": config.secrets.y.hex(),
        "bind_address": "%s:%d" % config.bind_address,
        "window_secs": config.window_secs,
        "skew_secs": config.skew_secs,
        "hash_id": config.hash_id,
        "audit_path": config.audit_path,
    }
    _write_json(path, doc)
