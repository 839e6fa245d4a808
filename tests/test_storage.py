import json

import pytest

from conftest import GOLDEN_PW, GOLDEN_X_HEX, GOLDEN_Y_HEX
from authlab import (
    CardFileError,
    ConfigError,
    ServerConfig,
    issue_card,
    load_card,
    load_server_config,
    save_card,
    save_server_config,
)
from authlab.storage import parse_address


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
        doc["y"] = "not hex at all"
        path.write_text(json.dumps(doc))
        with pytest.raises(CardFileError):
            load_card(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CardFileError):
            load_card(tmp_path / "absent.card")

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

    def test_bad_bind_address_rejected(self, tmp_path):
        path = tmp_path / "server.json"
        path.write_text(json.dumps({"x_hex": GOLDEN_X_HEX, "y_hex": GOLDEN_Y_HEX, "bind_address": "nope"}))
        with pytest.raises(ConfigError, match="bind_address"):
            load_server_config(path)


def test_parse_address():
    assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
    assert parse_address("localhost:0") == ("localhost", 0)
    with pytest.raises(ValueError):
        parse_address("8080")
    with pytest.raises(ValueError):
        parse_address("host:")
    assert parse_address("localhost:65535") == ("localhost", 65535)
    for out_of_range in ("127.0.0.1:99999", "host:65536", "host:-1"):
        with pytest.raises(ValueError):
            parse_address(out_of_range)
