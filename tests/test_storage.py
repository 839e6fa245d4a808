import json

import pytest

from conftest import GOLDEN_PW, GOLDEN_X_HEX, GOLDEN_Y_HEX
from authlab.protocol import change_password, issue_card
from authlab.storage import (
    CardFileError,
    ConfigError,
    ServerConfig,
    load_card,
    load_server_config,
    parse_address,
    save_card,
    save_server_config,
)

# (document, message): all but the array once escaped the JSON loader as a traceback
UNLOADABLE_JSON = {
    "not_utf8": (b'{"k": "\xff"}', "not valid JSON"),
    "nested_past_recursion_limit": (b"[" * 100_000, "not valid JSON"),
    "int_over_4300_digits": (b'{"k": ' + b"1" * 5000 + b"}", "not valid JSON"),
    "array_document": (b"[]", "must contain a JSON object"),
}

# (field, value, word the message names it by): each once passed a ServerConfig built in code
BAD_POLICY = {
    "sha512_on_256_bit_secrets": ("hash_id", "sha512", "hash"),
    "unknown_hash": ("hash_id", "nope", "hash"),
    "list_hash": ("hash_id", ["sha256"], "hash"),
    "zero_window": ("window_secs", 0, "window_secs"),
    "boolean_window": ("window_secs", True, "window_secs"),
    "negative_skew": ("skew_secs", -1, "skew_secs"),
    "non_string_audit_path": ("audit_path", 3, "audit_path"),
}


@pytest.fixture
def card_file(tmp_path, server_secrets):
    card = issue_card(GOLDEN_PW, server_secrets)
    path = tmp_path / "user.card"
    save_card(path, card)
    return path, card


class TestCardFile:
    def test_round_trip(self, card_file):
        path, card = card_file
        assert load_card(path) == card

    def test_on_disk_shape(self, card_file):
        path, card = card_file
        doc = json.loads(path.read_text())
        assert doc == {
            "format_version": 1,
            "hash_id": "sha256",
            "k": 256,
            "n_i": card.n_i.hex(),
            "y": card.y.hex(),
        }

    def test_rewrite_through_symlink_keeps_the_link(self, card_file, tmp_path):
        path, card = card_file
        link = tmp_path / "link.card"
        link.symlink_to(path)
        changed = change_password(card, GOLDEN_PW, b"new")
        save_card(link, changed)
        assert link.is_symlink()
        assert load_card(path) == changed

    def test_unknown_format_version_rejected(self, card_file):
        path, _ = card_file
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CardFileError, match="format_version"):
            load_card(path)

    def test_boolean_format_version_rejected(self, card_file):
        path, _ = card_file
        doc = json.loads(path.read_text())
        doc["format_version"] = True  # True == 1, the supported version
        path.write_text(json.dumps(doc))
        with pytest.raises(CardFileError, match="format_version"):
            load_card(path)

    def test_wrong_width_hex_rejected(self, card_file):
        path, _ = card_file
        doc = json.loads(path.read_text())
        doc["n_i"] = "ab" * 16  # 128 bits, k says 256
        path.write_text(json.dumps(doc))
        with pytest.raises(CardFileError, match="k=256"):
            load_card(path)

    def test_non_hex_rejected(self, card_file):
        path, _ = card_file
        doc = json.loads(path.read_text())
        # non-hex text, then a field of the wrong JSON type
        for field, value, message in (
            ("y", "not hex at all", "y is not valid hex"),
            ("n_i", 5, "n_i must be a hex string"),
            ("hash_id", 256, "needs string hash_id and integer k"),
            ("k", "256", "needs string hash_id and integer k"),
        ):
            path.write_text(json.dumps({**doc, field: value}))
            with pytest.raises(CardFileError, match=message):
                load_card(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CardFileError):
            load_card(tmp_path / "absent.card")

    @pytest.mark.parametrize("raw, message", UNLOADABLE_JSON.values(), ids=UNLOADABLE_JSON.keys())
    def test_unloadable_json_rejected(self, tmp_path, raw, message):
        path = tmp_path / "user.card"
        path.write_bytes(raw)
        with pytest.raises(CardFileError, match=message):
            load_card(path)

    def test_hash_id_must_match_width(self, card_file):
        path, _ = card_file
        doc = json.loads(path.read_text())
        doc["hash_id"] = "sha512"
        path.write_text(json.dumps(doc))
        with pytest.raises(CardFileError):
            load_card(path)


class TestServerConfigFile:
    def test_round_trip(self, tmp_path, server_secrets):
        config = ServerConfig(
            secrets=server_secrets,
            bind_address=("127.0.0.1", 4321),
            window_secs=30,
            skew_secs=2,
            audit_path="audit.jsonl",
        )
        path = tmp_path / "server.json"
        save_server_config(path, config)
        assert load_server_config(path) == config

    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX}))
        config = load_server_config(path)
        assert config.window_secs == 60
        assert config.skew_secs == 5
        assert config.hash_id == "sha256"
        assert config.bind_address == ("127.0.0.1", 0)
        assert config.audit_path is None

    def test_secret_width_mismatch_rejected(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": "abcd"}))
        with pytest.raises(ConfigError):
            load_server_config(path)

    def test_bad_window_rejected(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX, "window_secs": 0}))
        with pytest.raises(ConfigError, match="window_secs"):
            load_server_config(path)

    @pytest.mark.parametrize("field", ["window_secs", "skew_secs"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_window_and_skew_rejected(self, tmp_path, field, flag):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX, field: flag}))
        with pytest.raises(ConfigError, match=field):
            load_server_config(path)

    @pytest.mark.parametrize("raw, message", UNLOADABLE_JSON.values(), ids=UNLOADABLE_JSON.keys())
    def test_unloadable_json_rejected(self, tmp_path, raw, message):
        path = tmp_path / "server.json"
        path.write_bytes(raw)
        with pytest.raises(ConfigError, match=message):
            load_server_config(path)

    def test_bad_bind_address_rejected(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX, "bind_address": "nope"}))
        with pytest.raises(ConfigError, match="bind_address"):
            load_server_config(path)

    @pytest.mark.parametrize("field, value, named", BAD_POLICY.values(), ids=BAD_POLICY.keys())
    def test_policy_built_in_code_checked_like_file(self, tmp_path, server_secrets, field, value, named):
        with pytest.raises(ValueError, match=named) as built:
            ServerConfig(server_secrets, ("127.0.0.1", 0), **{field: value})
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX, field: value}))
        with pytest.raises(ConfigError) as loaded:
            load_server_config(path)
        assert str(loaded.value) == str(built.value)

    def test_out_of_range_port_built_in_code_rejected(self, server_secrets):
        for port in (99999, -1):
            with pytest.raises(ValueError, match="port"):
                ServerConfig(server_secrets, ("127.0.0.1", port))
        assert ServerConfig(server_secrets, ("127.0.0.1", 65535)).bind_address[1] == 65535


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    assert parse_address("localhost:0") == ("localhost", 0)
    with pytest.raises(ValueError):
        parse_address("8080")
    with pytest.raises(ValueError):
        parse_address("host:")
    assert parse_address("localhost:65535") == ("localhost", 65535)
    for out_of_range in ("127.0.0.1:99999", "host:65536"):
        with pytest.raises(ValueError, match=r"port must be in 0\.\.65535"):
            parse_address(out_of_range)
    # int() would read each of these as 80 (or -1); only ASCII digits are a port
    for port_text in (" 8_0", "+80", "\u0668\u0660", "80 ", "-1"):
        with pytest.raises(ValueError) as raised:
            parse_address("127.0.0.1:" + port_text)
        assert str(raised.value) == f"port must be an integer, got {port_text!r}"
    # a port is at most 5 digits, checked before int(), which refuses over 4,300 with its own advice
    for port_text in ("000080", "1" * 5000):
        with pytest.raises(ValueError) as raised:
            parse_address("h:" + port_text)
        assert str(raised.value) == f"port must be in 0..65535, got a {len(port_text)}-digit number"
    with pytest.raises(ValueError, match=r"^port must be an integer, got a 5000-character value$"):
        parse_address("h:" + "x" * 5000)
