"""Injectable clocks so every run is reproducible."""

from __future__ import annotations

import os
import time
from typing import Callable, Mapping

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
    try:
        t = int(raw)
    except ValueError as exc:
        raise ValueError(f"{FAKE_TIME_ENV} must be integer seconds, got {raw!r}") from exc
    if not 0 <= t < 1 << 64:
        raise ValueError(f"{FAKE_TIME_ENV} must be in 0..2**64-1, got {raw!r}")
    return fixed_clock(t)
