"""Injectable clocks so every run is reproducible."""

from __future__ import annotations

import os
import time
from typing import Callable, Mapping

from authlab.bits import MAX_TIMESTAMP, parse_digits

Clock = Callable[[], int]

FAKE_TIME_ENV = "AUTHLAB_FAKE_TIME"


def system_clock() -> int:
    return int(time.time())


def fixed_clock(t: int) -> Clock:
    """Clock frozen at t seconds."""
    return lambda: t


def clock_from_env(env: Mapping[str, str] | None = None) -> Clock:
    """System clock, unless AUTHLAB_FAKE_TIME pins it to an integer second
    in 0..2**64-1, the range a login timestamp can carry."""
    env = os.environ if env is None else env
    raw = env.get(FAKE_TIME_ENV)
    if raw is None:
        return system_clock
    # 2**64-1 has 20 digits
    t = parse_digits(raw, 20, f"{FAKE_TIME_ENV} must be integer seconds", f"{FAKE_TIME_ENV} must be in 0..2**64-1")
    if t > MAX_TIMESTAMP:
        raise ValueError(f"{FAKE_TIME_ENV} must be in 0..2**64-1, got {raw!r}")
    return fixed_clock(t)
