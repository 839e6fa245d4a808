"""Batch attack trials: log in with random passwords on one card.

The runner draws seeded random passwords, submits a login per trial, and
aggregates an exact acceptance rate. Against the scheme as specified the rate
is 1.0 — the server check holds for every password — which is precisely the
vulnerability this harness exists to demonstrate.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

from authlab.clock import Clock
from authlab.protocol import (
    DEFAULT_SKEW_SECS,
    DEFAULT_WINDOW_SECS,
    AuthDecision,
    Password,
    Reason,
    ServerSecrets,
    SmartcardState,
    _chain,
    _verdict,
    make_login_request,
)

# password generator bounds: any byte value, length 0..64 inclusive
MAX_PASSWORD_LEN = 64

# entries of a run's memo of _chain: one per side for one clock second
# (the card's and the server's differ when the card's y is not the server's)
MEMO_SIZE = 2

# submit(card, typed_pw, t) -> decision, of which a trial keeps only the reason;
# a submit may go over the network. With none, a trial builds the request at t and
# takes the server check's reason in-process, with no AuthDecision
Submit = Callable[[SmartcardState, Password, int], AuthDecision]


@dataclass(frozen=True)
class AttackReport:
    """Aggregate of one attack run, reproducible from (seed, clock).

    trial_log holds each trial's Reason, in trial order; (seed, clock) give
    back the password and timestamp a trial used, so the log does not keep them.
    """

    seed: int
    trial_log: tuple[Reason, ...] = field(repr=False)

    @property
    def trials(self) -> int:
        return len(self.trial_log)

    @property
    def accepted(self) -> int:
        return self.trial_log.count(Reason.OK)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials

    def to_json(self) -> str:
        """Single-line JSON with exactly the report's aggregate keys."""
        return json.dumps(
            {
                "scenario": "RANDOM_PASSWORD",  # a stable key, naming the one attack this runner makes
                "trials": self.trials,
                "accepted": self.accepted,
                "acceptance_rate": self.acceptance_rate,
                "seed": self.seed,
            }
        )


def draw_password(rng: random.Random) -> Password:
    """Uniform random length 0..64, arbitrary byte values."""
    n = rng.getrandbits(7)
    while n > MAX_PASSWORD_LEN:  # the draws randrange(65) makes, without its Python frames
        n = rng.getrandbits(7)
    return rng.getrandbits(n * 8).to_bytes(n, "little")  # Random.randbytes' body, without its frame


def run_random_password_attack(
    card: SmartcardState,
    secrets: ServerSecrets,
    trials: int,
    seed: int,
    clock: Clock,
    *,
    window_secs: int = DEFAULT_WINDOW_SECS,
    skew_secs: int = DEFAULT_SKEW_SECS,
    hash_id: str | None = None,
    submit: Submit | None = None,
) -> AttackReport:
    """Attempt `trials` logins with fresh random passwords instead of the real one.

    Deterministic given (seed, clock): passwords come from a seeded PRNG and
    every timestamp from the injected clock. A trial keeps only its Reason.
    With no `submit`, a trial builds the request and runs the server check
    in-process with a fresh receipt time, under `window_secs`, `skew_secs` and
    `hash_id` (the card's when None), and takes its reason alone: it builds
    no AuthDecision and does not unblind h(pw'). The card is never modified.

    The default trial hashes with a memo of _chain made for this run, of
    MEMO_SIZE entries. A clock gives whole seconds, so every trial after the
    first in a clock second finds its chain there.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    if submit is None:
        chain = functools.lru_cache(maxsize=MEMO_SIZE)(_chain)
        hid = card.hash_id if hash_id is None else hash_id

        def trial(pw: Password, t: int) -> Reason:
            # arguments run left to right, so the request is built before the receipt time is read
            return _verdict(
                secrets, make_login_request(card, pw, t, chain=chain), clock(), window_secs, skew_secs, hid, chain
            )[0]

    else:

        def trial(pw: Password, t: int) -> Reason:
            return submit(card, pw, t).reason

    rng = random.Random(seed)
    # arguments run left to right, so each trial draws its password before it reads the clock
    log = tuple(trial(draw_password(rng), clock()) for _ in range(trials))
    return AttackReport(seed=seed, trial_log=log)
