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
from dataclasses import dataclass
from pathlib import Path

from authlab.bits import DEFAULT_HASH_ID, Bits, hash_width
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


def _decode_hex_field(raw: object, name: str, err: type[StorageError]) -> Bits:
    if not isinstance(raw, str):
        raise err(f"{name} must be a hex string")
    try:
        return Bits.from_hex(raw)
    except ValueError as exc:
        raise err(f"{name} is not valid hex: {exc}") from exc


def _load_json(path: str | Path, err: type[StorageError]) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise err(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise err(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise err(f"{path} must contain a JSON object")
    return doc


def save_card(path: str | Path, card: SmartcardState) -> None:
    doc = {
        "format_version": CARD_FORMAT_VERSION,
        "hash_id": card.hash_id,
        "k": card.k,
        "n_i": card.n_i.hex(),
        "y": card.y.hex(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


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
    if n_i.width != k or y.width != k:
        raise CardFileError(
            f"hex fields must decode to k={k} bits, got n_i={n_i.width}, y={y.width}"
        )
    try:
        return SmartcardState(n_i=n_i, y=y, hash_id=hash_id, k=k)
    except ValueError as exc:
        raise CardFileError(str(exc)) from exc


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

    def authenticate(self, req: LoginRequest, t_star: int) -> AuthDecision:
        """The server step under this policy, evaluated at receipt time t_star."""
        return authenticate(
            self.secrets, req, t_star, self.window_secs, skew_secs=self.skew_secs, hash_id=self.hash_id
        )


def parse_address(text: str) -> tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be host:port, got {text!r}")
    port = int(port_text)
    if not 0 <= port <= 65535:
        raise ValueError(f"port must be in 0..65535, got {port}")
    return host, port


def load_server_config(path: str | Path) -> ServerConfig:
    doc = _load_json(path, ConfigError)
    x = _decode_hex_field(doc.get("x_hex"), "x_hex", ConfigError)
    y = _decode_hex_field(doc.get("y_hex"), "y_hex", ConfigError)
    try:
        secrets = ServerSecrets(x=x, y=y)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    hash_id = doc.get("hash_id", DEFAULT_HASH_ID)
    if not isinstance(hash_id, str):
        raise ConfigError("hash_id must be a string")
    try:
        if hash_width(hash_id) != y.width:
            raise ConfigError(
                f"hash {hash_id!r} produces {hash_width(hash_id)} bits, secrets are {y.width}"
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        bind_address = parse_address(doc.get("bind_address", "127.0.0.1:0"))
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad bind_address: {exc}") from exc

    window_secs = doc.get("window_secs", DEFAULT_WINDOW_SECS)
    skew_secs = doc.get("skew_secs", DEFAULT_SKEW_SECS)
    # type() rather than isinstance(): bool is an int subclass, and true/false are not seconds.
    if type(window_secs) is not int or window_secs <= 0:
        raise ConfigError(f"window_secs must be a positive integer, got {window_secs!r}")
    if type(skew_secs) is not int or skew_secs < 0:
        raise ConfigError(f"skew_secs must be a non-negative integer, got {skew_secs!r}")

    audit_path = doc.get("audit_path")
    if audit_path is not None and not isinstance(audit_path, str):
        raise ConfigError("audit_path must be a string or null")

    return ServerConfig(
        secrets=secrets,
        bind_address=bind_address,
        window_secs=window_secs,
        skew_secs=skew_secs,
        hash_id=hash_id,
        audit_path=audit_path,
    )


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
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
