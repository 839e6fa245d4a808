import json
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest

import oracle
from conftest import GOLDEN_PW, as_bits, as_int, make_strawman, mint_card, random_bits, recording_submit
from authlab import attack, protocol
from authlab.attack import run_random_password_attack
from authlab.bits import hash_bytes, hash_width
from authlab.clock import fixed_clock
from authlab.protocol import Reason, ServerSecrets, _chain, authenticate, issue_card, make_login_request
from authlab.wire import encode_login_request

# Random.Random(139) draws an empty password first; frozen for the empty-trial test
EMPTY_FIRST_SEED = 139


class TestCloneCard:
    def test_clone_equals_original(self, card):
        dup = replace(card)
        assert dup == card
        assert dup is not card

    def test_clone_is_independent(self, card, now):
        original_n_i = card.n_i
        dup = replace(card, n_i=as_bits(as_int(card.n_i) ^ as_int(hash_bytes(b"scribble"))))
        assert dup.n_i != original_n_i
        assert card.n_i == original_n_i
        with pytest.raises(FrozenInstanceError):
            card.n_i = dup.n_i

    def test_clone_authenticates_with_random_password(self, card, server_secrets, now):
        dup = replace(card)
        req = make_login_request(dup, b"intruder's guess", now)
        assert authenticate(server_secrets, req, t_star=now).accepted


class TestRandomPasswordAttack:
    def test_full_acceptance_rate(self, card, server_secrets, now):
        report = run_random_password_attack(card, server_secrets, 1000, 7, fixed_clock(now))
        assert report.acceptance_rate == 1.0
        assert report.accepted == report.trials == 1000
        assert json.loads(report.to_json())["scenario"] == "RANDOM_PASSWORD"

    def test_empty_password_accepted(self, card, server_secrets, now):
        calls = []
        report = run_random_password_attack(
            card, server_secrets, 1, EMPTY_FIRST_SEED, fixed_clock(now),
            submit=recording_submit(server_secrets, now, calls),
        )
        assert [(pw, t) for pw, t, _ in calls] == [(b"", now)]
        assert report.trial_log[0].accepted
        assert report == run_random_password_attack(card, server_secrets, 1, EMPTY_FIRST_SEED, fixed_clock(now))

    # a report is reproducible from (seed, clock) only while the password stream stays put
    @pytest.mark.parametrize("seed", [0, 21, EMPTY_FIRST_SEED, (1 << 80) + 3])
    def test_password_stream_matches_reference_draw(self, seed):
        ours, ref = random.Random(seed), random.Random(seed)
        assert [attack.draw_password(ours) for _ in range(20_000)] == [oracle.draw_password(ref) for _ in range(20_000)]

    def test_same_seed_reproduces_report(self, card, server_secrets, now):
        a = run_random_password_attack(card, server_secrets, 50, 21, fixed_clock(now))
        b = run_random_password_attack(card, server_secrets, 50, 21, fixed_clock(now))
        assert a == b
        assert a.to_json() == b.to_json()

    def test_distinct_seeds_draw_distinct_passwords(self, card, server_secrets, now):
        a, b = [], []
        for seed, calls in ((1, a), (2, b)):
            submit = recording_submit(server_secrets, now, calls)
            run_random_password_attack(card, server_secrets, 20, seed, fixed_clock(now), submit=submit)
        assert len(a) == len(b) == 20
        assert [pw for pw, _, _ in a] != [pw for pw, _, _ in b]

    def test_trials_must_be_positive(self, card, server_secrets, now):
        with pytest.raises(ValueError):
            run_random_password_attack(card, server_secrets, 0, 1, fixed_clock(now))

    def test_counts_agree_with_trial_log(self, card, server_secrets, now):
        report = run_random_password_attack(card, server_secrets, 64, 3, fixed_clock(now))
        assert report.accepted == sum(t.accepted for t in report.trial_log)
        assert len(report.trial_log) == report.trials

    def test_each_clock_second_hashes_its_three_values_once(self, card, server_secrets, now, monkeypatch):
        hashed = []
        real_new, n = protocol.hasher(card.hash_id)

        def counting_new(data):
            hashed.append(data)
            return real_new(data)

        # one constructor for the whole run, as the memo's key holds it
        monkeypatch.setattr(protocol, "hasher", lambda hash_id: (counting_new, n))
        report = run_random_password_attack(card, server_secrets, 200, 5, self.four_second_clock(now))
        assert report.accepted == 200
        stream = random.Random(5)
        chained = list((Counter(hashed) - Counter(oracle.draw_password(stream) for _ in range(200))).elements())
        # one h(pw) per trial; the card's y is the server's, so both sides hash the same three values
        assert len(hashed) == 200 + 3 * 4
        assert len(chained) == len(set(chained)) == 3 * 4
        n_y = as_int(card.n_i) ^ as_int(server_secrets.y)
        a = {t: oracle.sha_int(n_y ^ t) for t in range(now, now + 4)}
        assert set(chained) == {as_bits(v) for t in a for v in (n_y ^ t, a[t], t ^ n_y ^ oracle.sha_int(a[t]))}

    def test_a_card_of_another_y_keeps_both_chains_of_a_second(self, server_secrets, now, monkeypatch):
        chained = []

        def counting_chain(n_y, t, n, new):
            chained.append((n_y, t))
            return _chain(n_y, t, n, new)

        monkeypatch.setattr(attack, "_chain", counting_chain)
        other = ServerSecrets(x=server_secrets.x, y=random_bits(random.Random(8)))
        card = issue_card(b"pw", other)
        report = run_random_password_attack(card, server_secrets, 200, 5, self.four_second_clock(now))
        assert report.accepted == 0
        # the card's chain and the server's differ, and each is computed once per second
        assert len(chained) == len(set(chained)) == 2 * 4

    @pytest.mark.parametrize("hash_id", ["sha256", "sha512"])
    def test_default_submit_builds_the_oracle_requests(self, hash_id, now, monkeypatch):
        built, chains = [], set()

        def recording(card, pw, t, *, chain):
            built.append(make_login_request(card, pw, t, chain=chain))
            chains.add(chain)
            return built[-1]

        monkeypatch.setattr(attack, "make_login_request", recording)
        width = hash_width(hash_id)
        rng = random.Random(23)
        secrets = ServerSecrets(x=random_bits(rng, width), y=random_bits(rng, width))
        card = issue_card(b"pw", secrets, hash_id)
        report = run_random_password_attack(card, secrets, 200, 9, self.four_second_clock(now))
        assert report.accepted == 200
        stream, expected = random.Random(9), []
        for i in range(200):
            t = now + i // 50
            ref = oracle.login_values(oracle.draw_password(stream), as_int(card.n_i), as_int(secrets.y), t, hash_id, width)
            expected.append((ref["cid"], card.n_i, ref["c_i"], t))
        assert [(as_int(r.cid), r.n_i, as_int(r.c_i), r.t) for r in built] == expected
        # both sides of a trial share the run's memo: one miss per clock second, hits for the rest
        (chain,) = chains
        assert (chain.cache_info().misses, chain.cache_info().hits) == (4, 2 * 200 - 4)

    @staticmethod
    def four_second_clock(now):
        reads = []

        def clock():
            # each trial reads the clock twice; a new second every 50 trials
            reads.append(None)
            return now + (len(reads) - 1) // 100

        return clock

    def test_default_submit_keeps_the_policy(self, card, server_secrets, now):
        ahead = iter([now + 10, now] * 4)  # each trial's t, then its receipt time

        def clock():
            return next(ahead)

        report = run_random_password_attack(card, server_secrets, 2, 1, clock)
        assert report.trial_log == (Reason.FUTURE_TIMESTAMP,) * 2
        report = run_random_password_attack(card, server_secrets, 1, 1, clock, skew_secs=10)
        assert report.trial_log == (Reason.OK,)
        # sha3_256 has the card's width but not its hash
        report = run_random_password_attack(card, server_secrets, 1, 1, clock, skew_secs=10, hash_id="sha3_256")
        assert report.trial_log == (Reason.CHECK_FAILED,)

    def test_log_holds_one_reference_per_trial(self, card, server_secrets, now):
        # a tuple slot is 8 bytes and every trial shares its Reason member, so
        # 32 bytes a trial leaves room for allocator slack
        trials = 6000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = run_random_password_attack(card, server_secrets, trials, 1, fixed_clock(now))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.trials == len(report.trial_log) == trials
        assert held < 32 * trials, f"{held} bytes held for {trials} trials"


class TestClonedCardAttack:
    """Mallory, who holds a card of their own, mints the victim's card from one
    captured login and runs the random-password attack on it."""

    @staticmethod
    def minted(victim, secrets, now):
        captured = encode_login_request(make_login_request(victim, GOLDEN_PW, now))
        return mint_card(captured, issue_card(b"mallory-pw", secrets, victim.hash_id))

    def test_full_acceptance_rate_and_tag(self, card, server_secrets, now):
        wide = ServerSecrets(*(hash_bytes(label, "sha512") for label in (b"server-x", b"server-y")))
        for victim, secrets in ((card, server_secrets), (issue_card(GOLDEN_PW, wide, "sha512"), wide)):
            minted = self.minted(victim, secrets, now)
            assert minted == victim and minted is not victim
            report = run_random_password_attack(minted, secrets, 1000, 9, fixed_clock(now))
            assert report.acceptance_rate == 1.0
            assert report.accepted == report.trials == 1000
            # the same trials as on the victim's own card, under the report's one tag
            assert report == run_random_password_attack(victim, secrets, 1000, 9, fixed_clock(now))
            assert json.loads(report.to_json())["scenario"] == "RANDOM_PASSWORD"

    def test_victim_unaffected(self, card, server_secrets, now):
        before = replace(card)
        run_random_password_attack(self.minted(card, server_secrets, now), server_secrets, 100, 5, fixed_clock(now))
        assert card == before
        honest = make_login_request(card, b"alice-pw", now)
        assert authenticate(server_secrets, honest, t_star=now).accepted


class TestReportJson:
    def test_single_line_with_exact_keys(self, card, server_secrets, now):
        report = run_random_password_attack(card, server_secrets, 10, 4, fixed_clock(now))
        line = report.to_json()
        assert "\n" not in line
        doc = json.loads(line)
        assert list(doc) == ["scenario", "trials", "accepted", "acceptance_rate", "seed"]
        assert doc == {
            "scenario": "RANDOM_PASSWORD",
            "trials": 10,
            "accepted": 10,
            "acceptance_rate": 1.0,
            "seed": 4,
        }


class TestStrawmanControl:
    def test_harness_detects_a_server_that_actually_verifies(self, now):
        # real password longer than any generated one, so no lucky collision
        rng = random.Random(31)
        secrets = ServerSecrets(x=random_bits(rng), y=random_bits(rng))
        real_pw = b"z" * 80
        card = issue_card(real_pw, secrets)
        verify = make_strawman(secrets, real_pw)

        def submit(c, pw, t):
            return verify(make_login_request(c, pw, t), t_star=now)

        report = run_random_password_attack(
            card, secrets, 200, 17, fixed_clock(now), submit=submit
        )
        assert report.acceptance_rate == 0.0
        assert all(t is Reason.CHECK_FAILED for t in report.trial_log)

        honest = verify(make_login_request(card, real_pw, now), t_star=now)
        assert honest.accepted
