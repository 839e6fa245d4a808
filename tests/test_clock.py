import re
import time

import pytest

from authlab.clock import clock_from_env, fixed_clock, system_clock


def test_system_clock_tracks_wall_time():
    assert abs(system_clock() - time.time()) < 2


def test_fixed_clock_is_frozen():
    clock = fixed_clock(123)
    assert clock() == clock() == 123


def test_env_override():
    assert clock_from_env({"AUTHLAB_FAKE_TIME": "456"})() == 456
    assert clock_from_env({"AUTHLAB_FAKE_TIME": "18446744073709551615"})() == (1 << 64) - 1
    assert clock_from_env({}) is system_clock


def test_env_override_rejects_garbage():
    max_t = str((1 << 64) - 1)
    for raw, message in (
        ("noon", "must be integer seconds, got 'noon'"),
        ("-1", "must be integer seconds, got '-1'"),
        (str(1 << 64), "must be in 0..2**64-1, got '18446744073709551616'"),
        ("1_700_000_000", "must be integer seconds, got '1_700_000_000'"),
        (" 1700000000 ", "must be integer seconds, got ' 1700000000 '"),
        ("+1700000000", "must be integer seconds, got '+1700000000'"),
        ("\u0661\u0667\u0660\u0660", "must be integer seconds, got '\u0661\u0667\u0660\u0660'"),
        ("0" + max_t, "must be in 0..2**64-1, got a 21-digit number"),
        ("1" * 5000, "must be in 0..2**64-1, got a 5000-digit number"),
        ("x" * 5000, "must be integer seconds, got a 5000-character value"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape('AUTHLAB_FAKE_TIME ' + message)}$"):
            clock_from_env({"AUTHLAB_FAKE_TIME": raw})
