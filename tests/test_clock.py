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
    assert clock_from_env({}) is system_clock


def test_env_override_rejects_garbage():
    for raw in ("noon", "-1", str(1 << 64)):
        with pytest.raises(ValueError, match="AUTHLAB_FAKE_TIME"):
            clock_from_env({"AUTHLAB_FAKE_TIME": raw})
