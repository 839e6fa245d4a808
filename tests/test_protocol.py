import copy
import functools
import hashlib
import inspect
import pickle
import random
import sys
from dataclasses import FrozenInstanceError, fields, replace

import pytest

import oracle
from conftest import GOLDEN_PW, GOLDEN_T, as_bits, as_int, random_bits
from authlab.attack import MEMO_SIZE
from authlab.bits import hash_bits, hash_bytes, hash_width, hasher
from authlab.protocol import (
    AuthDecision,
    LoginRequest,
    Reason,
    ServerSecrets,
    _chain,
    authenticate,
    change_password,
    issue_card,
    make_login_request,
    register_user,
)

# frozen from tests/oracle.py for the golden parameter set in conftest
GOLDEN_N_I = "2ad4dc24df08e391cafe727133eac09afdab05e407ff8e3660d962c46becf4bd"
GOLDEN_HPW = "cefd4bcd86ca3d6d9d1064593870b4cd4fdb3fef0136b1c43684cb7f58a29036"
GOLDEN_CID = "171c7b96c42eeb9735243218a171550f55841429a2a502bd0c7391dda9cda38d"
GOLDEN_C_I = "fddc8939161a8e19384fead46edea492fb062b11137f384c80166265757e7bdd"

# SHA-512 at 512 bits: GOLDEN_PW at GOLDEN_T under these secrets, frozen from the
# protocol code as it stood when every phase still computed on a byte-string XOR
GOLDEN_512_X_HEX = (
    "1a96716c7e6a98d45b6dfb355fa821f97b30e9a3fef1dfe360a7e6413305acf8"
    "331b38aefec4fc1e9760787ad8bf8acea7a2f74e3ea6cc7b6b8dc7a4b56ad189"
)
GOLDEN_512_Y_HEX = (
    "be662d12aed29642f7f5ef66e3198b03ee3f8782390c2c0f5b9b27f9ccb460f2"
    "6e12d49eb73243df5ddef30180c71546fac5e2608fbb83aa295122805537b3ee"
)
GOLDEN_512_CID = (
    "62d2ca1410c2169262a7ffbc78435b970e9749ff0c83c0a7c561ed587dbafe81"
    "f3e7ce5f1d61db40d1064c281b458475ad6c3d09cb55afe98f9487a5e5f9c08b"
)
GOLDEN_512_C_I = (
    "967e7d43444461b6dcb8a1a20cdd87c1e4dca2fe04e7058e72e4058fda3a5e41"
    "5084ce6b0de6b01abecbe2fc4e3df5cf9771b4ca0fefadae75e9a3b55926cda0"
)
GOLDEN_512_HPW = (
    "4cc70834a631b893732410903200747a3f6feaaeea15456cd0b2ce18fb2a5f33"
    "f802280d9bf3bdff9cc7eaebb95f4bf7b6e276ee0107192c1d94f9758c1d7367"
)


def random_secrets(rng: random.Random) -> ServerSecrets:
    return ServerSecrets(x=random_bits(rng), y=random_bits(rng))


def oracle_decision(secrets: ServerSecrets, req: LoginRequest, hash_id: str = "sha256") -> tuple[Reason, int]:
    """The reason and the recovered password hash the oracle gives for a fresh request."""
    width = len(req.cid) * 8
    srv = oracle.server_values(as_int(req.cid), as_int(req.n_i), as_int(secrets.y), req.t, hash_id, width)
    return Reason.OK if srv["expected_c_i"] == as_int(req.c_i) else Reason.CHECK_FAILED, srv["recovered_hpw"]


class TestRegistration:
    def test_xor_cancellation_recovers_password_hash(self, server_secrets):
        n_i = register_user(b"some pw", server_secrets)
        assert as_int(n_i) ^ as_int(hash_bits(server_secrets.x)) == as_int(hash_bytes(b"some pw"))

    def test_same_password_same_master_secret_collide(self, server_secrets):
        # identical registration values for identical passwords is a property
        # of the construction itself, not an implementation defect
        assert register_user(b"dup", server_secrets) == register_user(b"dup", server_secrets)

    def test_golden_vector(self, server_secrets):
        assert register_user(GOLDEN_PW, server_secrets).hex() == GOLDEN_N_I

    def test_issued_card_fields(self, server_secrets):
        card = issue_card(GOLDEN_PW, server_secrets)
        assert card.n_i == register_user(GOLDEN_PW, server_secrets)
        assert card.y == server_secrets.y
        assert card.hash_id == "sha256"
        assert card.k == 256

    def test_registration_value_is_exactly_bytes(self, server_secrets):
        for hash_id in ("sha256", "sha512"):
            n_i = register_user(GOLDEN_PW, server_secrets, hash_id)
            assert type(n_i) is bytes
            assert len(n_i) * 8 == hash_width(hash_id)

    def test_secrets_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ServerSecrets(x=b"\x01" * 32, y=b"\x01" * 16)


class TestLoginRequest:
    def test_deterministic(self, card, now):
        assert make_login_request(card, b"pw", now) == make_login_request(card, b"pw", now)

    def test_golden_vector(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        assert req.cid.hex() == GOLDEN_CID
        assert req.n_i.hex() == GOLDEN_N_I
        assert req.c_i.hex() == GOLDEN_C_I
        assert req.t == now

    def test_distinct_passwords_differ_in_cid_but_both_verify(self, card, server_secrets, now):
        req_a = make_login_request(card, b"password one", now)
        req_b = make_login_request(card, b"password two", now)
        assert req_a.cid != req_b.cid
        assert authenticate(server_secrets, req_a, now).accepted
        assert authenticate(server_secrets, req_b, now).accepted

    def test_field_width_consistency_enforced(self):
        with pytest.raises(ValueError):
            LoginRequest(cid=b"\x00" * 32, n_i=b"\x00" * 16, c_i=b"\x00" * 32, t=0)
        with pytest.raises(ValueError):
            LoginRequest(cid=b"\x00" * 32, n_i=b"\x00" * 32, c_i=b"\x00" * 32, t=-1)

    def test_empty_fields_rejected(self):
        # bytes of one length, zero: the width rule alone would pass them
        with pytest.raises(ValueError, match=r"non-empty and share one width, got \[0\]"):
            LoginRequest(b"", b"", b"", 0)

    def test_width_mismatch_of_plain_bytes_raises_value_error(self):
        # the message is built from the lengths, so plain bytes get it too, not an AttributeError
        with pytest.raises(ValueError, match=r"one width, got \[64, 128\]"):
            LoginRequest(b"a" * 8, b"b" * 8, b"c" * 16, 1)

    def test_fields_are_exactly_bits(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        assert [type(f) for f in (req.cid, req.n_i, req.c_i)] == [bytes] * 3
        assert len(req.cid) * 8 == len(req.c_i) * 8 == 256

    def test_timestamp_outside_64_bits_rejected(self, card):
        for t in (-1, 1 << 64):
            with pytest.raises(ValueError):
                make_login_request(card, GOLDEN_PW, t)

    def test_openssl_only_hash_name_gives_identical_request(self, card, now):
        # both names get the built-in sha256, except where there is none or OpenSSL is in FIPS
        # mode: then "SHA256", not a hashlib attribute, gets hashlib.new and "sha256" the named one
        upper = replace(card, hash_id="SHA256")
        assert make_login_request(upper, GOLDEN_PW, now) == make_login_request(card, GOLDEN_PW, now)

    def test_card_field_reassigned_to_another_width_rejected(self, card):
        for field in ("n_i", "y"):
            for width in (128, 512):
                with pytest.raises(ValueError):
                    replace(card, **{field: bytes(width // 8)})


class TestRecords:
    def test_assignment_raises_frozen_instance_error(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        decision = AuthDecision(Reason.STALE_TIMESTAMP)
        accepted = AuthDecision(Reason.OK, hash_bytes(b"pw"))
        for record, field in ((req, "t"), (decision, "reason"), (accepted, "recovered_hpw")):
            # and so do its copies, which equal it and keep its type
            for same in (record, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert same == record and type(same) is type(record)
                with pytest.raises(FrozenInstanceError):
                    setattr(same, field, 0)

    def test_replace_builds_a_checked_copy(self, card, now):
        req = make_login_request(card, GOLDEN_PW, now)
        assert replace(req, t=now + 1) == LoginRequest(req.cid, req.n_i, req.c_i, now + 1)
        with pytest.raises(ValueError):
            replace(req, t=1 << 64)
        with pytest.raises(ValueError):
            replace(req, c_i=bytes(16))
        rejected = AuthDecision(Reason.CHECK_FAILED, hash_bytes(b"pw"))
        assert replace(rejected, reason=Reason.STALE_TIMESTAMP).reason is Reason.STALE_TIMESTAMP
        with pytest.raises(TypeError, match="accepted"):  # not a field: it follows from the reason
            replace(rejected, accepted=True)
        # replace passes every field as a keyword, so each record's __init__ takes exactly its fields, in order
        for cls in (LoginRequest, AuthDecision):
            assert list(inspect.signature(cls).parameters) == [f.name for f in fields(cls)]

    def test_stored_ints_follow_the_fields(self, card, server_secrets):
        assert card.n_y == as_int(card.n_i) ^ as_int(card.y)
        assert server_secrets.y_int == as_int(server_secrets.y)
        rewritten = replace(card, n_i=as_bits(as_int(card.n_i) ^ as_int(hash_bytes(b"scribble"))))
        assert rewritten.n_y == as_int(card.n_i) ^ as_int(hash_bytes(b"scribble")) ^ as_int(card.y)
        assert replace(server_secrets, y=server_secrets.x).y_int == as_int(server_secrets.x)
        # derived, so replace cannot set it; from 3.13, dataclasses.replace raises TypeError for an init=False field
        refused = TypeError if sys.version_info >= (3, 13) else ValueError
        for value, stored in ((card, "n_y"), (server_secrets, "y_int")):
            with pytest.raises(refused, match=stored):
                replace(value, **{stored: 0})

    def test_card_and_secrets_eq_hash_and_repr_go_by_declared_fields(self, card, server_secrets):
        card_repr = f"SmartcardState(n_i={card.n_i!r}, y={card.y!r}, hash_id='sha256', k=256)"
        secrets_repr = f"ServerSecrets(x={server_secrets.x!r}, y={server_secrets.y!r})"
        for value, stored, text in ((card, "n_y", card_repr), (server_secrets, "y_int", secrets_repr)):
            twin = replace(value)
            object.__setattr__(twin, stored, -1)  # a stored int that no longer follows the fields
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value) == text

    def test_eq_hash_and_repr_are_by_field(self, card, now):
        a, b = make_login_request(card, GOLDEN_PW, now), make_login_request(card, GOLDEN_PW, now)
        assert a == b and hash(a) == hash(b) and a is not b
        assert repr(a).startswith(f"LoginRequest(cid={bytes.fromhex(GOLDEN_CID)!r}, n_i=")
        hpw = hashlib.sha256(b"pw").digest()
        decision = AuthDecision(Reason.OK, hpw)
        assert hash(decision) == hash(AuthDecision(Reason.OK, hashlib.sha256(b"pw").digest()))
        assert repr(decision) == f"AuthDecision(reason=<Reason.OK: 'OK'>, recovered_hpw={hpw!r})"


class TestAuthenticate:
    def test_recovered_hash_is_exactly_bits(self, card, server_secrets, now):
        ok = authenticate(server_secrets, make_login_request(card, GOLDEN_PW, now), now)
        failed = authenticate(server_secrets, replace(make_login_request(card, GOLDEN_PW, now - 1), t=now), now)
        assert (ok.reason, failed.reason) == (Reason.OK, Reason.CHECK_FAILED)
        for decision in (ok, failed):
            assert type(decision.recovered_hpw) is bytes
            assert len(decision.recovered_hpw) * 8 == 256

    def test_sha512_golden_login(self, now):
        secrets = ServerSecrets(x=bytes.fromhex(GOLDEN_512_X_HEX), y=bytes.fromhex(GOLDEN_512_Y_HEX))
        req = make_login_request(issue_card(GOLDEN_PW, secrets, "sha512"), GOLDEN_PW, now)
        assert (req.cid.hex(), req.c_i.hex()) == (GOLDEN_512_CID, GOLDEN_512_C_I)
        decision = authenticate(secrets, req, t_star=now, hash_id="sha512")
        assert decision.accepted
        assert decision.recovered_hpw.hex() == GOLDEN_512_HPW

    def test_width_below_64_bits_raises(self):
        with pytest.raises(ValueError, match="width must be at least 64 bits, got 32"):
            ServerSecrets(x=b"\x01" * 4, y=b"\x02" * 4)

    def test_hash_of_another_width_raises(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now)
        for hash_id in ("sha512", "sha224"):
            with pytest.raises(ValueError, match=f"width mismatch: {hash_id} gives"):
                authenticate(server_secrets, req, t_star=now, hash_id=hash_id)

    @pytest.mark.skipif("sha512_256" not in hashlib.algorithms_available, reason="OpenSSL lacks sha512_256")
    def test_openssl_only_hash_logs_in(self, server_secrets, now):
        card = issue_card(GOLDEN_PW, server_secrets, "sha512_256")
        decision = authenticate(
            server_secrets, make_login_request(card, b"any pw", now), t_star=now, hash_id="sha512_256"
        )
        assert decision.reason is Reason.OK
        assert decision.recovered_hpw == hash_bytes(b"any pw", "sha512_256")

    def test_honest_login_accepts(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now)
        decision = authenticate(server_secrets, req, t_star=now + 3)
        assert decision.accepted
        assert decision.reason is Reason.OK
        assert decision.recovered_hpw == hash_bytes(GOLDEN_PW)

    def test_any_password_accepts(self, card, server_secrets, now):
        req = make_login_request(card, b"not the password at all", now)
        decision = authenticate(server_secrets, req, t_star=now)
        assert decision.accepted
        assert decision.recovered_hpw == hash_bytes(b"not the password at all")

    def test_stale_rejected_past_window(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now)
        decision = authenticate(server_secrets, req, t_star=now + 61, window_secs=60)
        assert not decision.accepted
        assert decision.reason is Reason.STALE_TIMESTAMP
        assert decision.recovered_hpw is None

    def test_window_boundary_accepts(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now)
        assert authenticate(server_secrets, req, t_star=now + 60, window_secs=60).accepted

    def test_future_timestamp_rejected_past_skew(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now + 6)
        decision = authenticate(server_secrets, req, t_star=now, skew_secs=5)
        assert decision.reason is Reason.FUTURE_TIMESTAMP
        # the skew boundary itself is closed
        req = make_login_request(card, GOLDEN_PW, now + 5)
        assert authenticate(server_secrets, req, t_star=now, skew_secs=5).accepted

    def test_width_mismatched_request_fails_check(self, server_secrets, now):
        half = b"\xaa" * 16
        req = LoginRequest(cid=half, n_i=half, c_i=half, t=now)
        decision = authenticate(server_secrets, req, t_star=now)
        assert not decision.accepted
        assert decision.reason is Reason.CHECK_FAILED
        assert decision.recovered_hpw is None

    def test_window_must_be_positive(self, card, server_secrets, now):
        req = make_login_request(card, GOLDEN_PW, now)
        with pytest.raises(ValueError):
            authenticate(server_secrets, req, t_star=now, window_secs=0)


class TestChangePassword:
    def test_same_password_is_identity(self, card):
        assert change_password(card, b"pw", b"pw").n_i == card.n_i

    def test_change_then_login_with_new_password(self, card, server_secrets, now):
        updated = change_password(card, GOLDEN_PW, b"fresh password")
        req = make_login_request(updated, b"fresh password", now)
        decision = authenticate(server_secrets, req, t_star=now)
        assert decision.accepted
        assert decision.recovered_hpw == hash_bytes(b"fresh password")

    def test_new_registration_value_is_exactly_bytes(self, card):
        n_i = change_password(card, GOLDEN_PW, b"other").n_i
        assert type(n_i) is bytes
        assert len(n_i) * 8 == card.k

    def test_only_registration_value_changes(self, card):
        updated = change_password(card, GOLDEN_PW, b"other")
        assert updated.n_i != card.n_i
        assert (updated.y, updated.hash_id, updated.k) == (card.y, card.hash_id, card.k)

    def test_wrong_old_password_still_authenticates(self, card, server_secrets, now):
        # no old-password verification exists; the corrupted card keeps
        # working because the server check never involves the password
        corrupted = change_password(card, b"WRONG old password", b"new one")
        for pw in (b"new one", b"anything else", b""):
            req = make_login_request(corrupted, pw, now)
            assert authenticate(server_secrets, req, t_star=now).accepted


class TestProperties:
    def test_recovery_identity(self, card, server_secrets):
        # server-side unblinding returns exactly h(typed password)
        rng = random.Random(11)
        for _ in range(1000):
            pw = rng.randbytes(rng.randint(0, 64))
            t = rng.randrange(0, 1 << 40)
            req = make_login_request(card, pw, t)
            decision = authenticate(server_secrets, req, t_star=t)
            assert decision.recovered_hpw == hash_bytes(pw)

    def test_password_independence(self, card, server_secrets):
        rng = random.Random(12)
        passwords = [b""] + [rng.randbytes(rng.randint(0, 64)) for _ in range(999)]
        base_t = 1_600_000_000
        for i, pw in enumerate(passwords):
            t = base_t + i
            req = make_login_request(card, pw, t)
            assert authenticate(server_secrets, req, t_star=t).accepted

    def test_freshness_soundness(self, card, server_secrets):
        rng = random.Random(13)
        window = 60
        for _ in range(100):
            t = rng.randrange(0, 1 << 40)
            age = window + rng.randint(1, 10_000)
            req = make_login_request(card, rng.randbytes(8), t)
            decision = authenticate(server_secrets, req, t_star=t + age, window_secs=window)
            assert decision.reason is Reason.STALE_TIMESTAMP

    def test_single_bit_tamper_detected(self, card, server_secrets, now):
        rng = random.Random(14)
        req = make_login_request(card, GOLDEN_PW, now)
        for _ in range(100):
            bit = rng.randrange(0, 256)
            tampered = replace(req, c_i=as_bits(as_int(req.c_i) ^ (1 << bit)))
            decision = authenticate(server_secrets, tampered, t_star=now)
            assert not decision.accepted
            assert decision.reason is Reason.CHECK_FAILED

    def test_operations_are_pure(self, card, server_secrets, now):
        req1 = make_login_request(card, b"p", now)
        req2 = make_login_request(card, b"p", now)
        d1 = authenticate(server_secrets, req1, t_star=now)
        d2 = authenticate(server_secrets, req2, t_star=now)
        assert req1 == req2
        assert d1 == d2


class TestOracleEquivalence:
    def test_intermediates_match_straight_line_oracle(self):
        rng = random.Random(15)
        for _ in range(25):
            pw = rng.randbytes(rng.randint(0, 48))
            secrets = random_secrets(rng)
            t = rng.randrange(0, 1 << 40)

            n_ref = oracle.registration_value(pw, as_int(secrets.x))
            card = issue_card(pw, secrets)
            assert as_int(card.n_i) == n_ref

            ref = oracle.login_values(pw, n_ref, as_int(secrets.y), t)
            req = make_login_request(card, pw, t)
            assert as_int(req.cid) == ref["cid"]
            assert as_int(req.c_i) == ref["c_i"]

            srv = oracle.server_values(ref["cid"], n_ref, as_int(secrets.y), t)
            decision = authenticate(secrets, req, t_star=t)
            assert decision.accepted
            assert as_int(decision.recovered_hpw) == ref["hpw"]
            assert as_int(decision.recovered_hpw) == srv["recovered_hpw"]
            assert srv["b_i"] == ref["b_i"]
            assert srv["expected_c_i"] == ref["c_i"]

    def test_sha512_intermediates_match_oracle(self):
        rng = random.Random(16)
        ref_params = {"hash_id": "sha512", "width": 512}
        for _ in range(10):
            pw = rng.randbytes(rng.randint(0, 48))
            secrets = ServerSecrets(x=random_bits(rng, 512), y=random_bits(rng, 512))
            t = rng.randrange(0, 1 << 40)

            n_ref = oracle.registration_value(pw, as_int(secrets.x), **ref_params)
            card = issue_card(pw, secrets, "sha512")
            assert as_int(card.n_i) == n_ref

            ref = oracle.login_values(pw, n_ref, as_int(secrets.y), t, **ref_params)
            req = make_login_request(card, pw, t)
            assert [as_int(req.cid), as_int(req.c_i)] == [ref["cid"], ref["c_i"]]

            srv = oracle.server_values(ref["cid"], n_ref, as_int(secrets.y), t, **ref_params)
            decision = authenticate(secrets, req, t_star=t, hash_id="sha512")
            assert decision.accepted
            assert as_int(decision.recovered_hpw) == ref["hpw"]
            assert as_int(decision.recovered_hpw) == srv["recovered_hpw"]
            assert srv["b_i"] == ref["b_i"]
            assert srv["expected_c_i"] == ref["c_i"]

            new = change_password(card, pw, b"new")
            assert as_int(new.n_i) == oracle.changed_registration_value(n_ref, pw, b"new", "sha512")

    def test_password_change_matches_oracle(self, card):
        new = change_password(card, b"old", b"new")
        expected = oracle.changed_registration_value(as_int(card.n_i), b"old", b"new")
        assert as_int(new.n_i) == expected


class TestRunMemo:
    """An attack run hashes with a memo of _chain; a hit must give exactly what _chain computes."""

    @staticmethod
    def memo():
        return functools.lru_cache(maxsize=MEMO_SIZE)(_chain)

    @pytest.mark.parametrize("hash_id", ["sha256", "sha512"])
    def test_shuffled_logins_of_three_cards_match_the_oracle(self, hash_id):
        chain = self.memo()
        width = hash_width(hash_id)
        rng = random.Random(17)
        secrets = ServerSecrets(x=random_bits(rng, width), y=random_bits(rng, width))
        cards = [issue_card(rng.randbytes(8), secrets, hash_id) for _ in range(3)]
        cases = [
            (card, GOLDEN_T + dt, rng.randbytes(rng.randint(0, 24))) for card in cards for dt in range(5) for _ in range(4)
        ]
        rng.shuffle(cases)
        for card, t, pw in cases:
            ref = oracle.login_values(pw, as_int(card.n_i), as_int(secrets.y), t, hash_id, width)
            req = make_login_request(card, pw, t, chain=chain)
            assert (as_int(req.cid), req.n_i, as_int(req.c_i), req.t) == (ref["cid"], card.n_i, ref["c_i"], t)
            # the request as sent, with its check value tampered, and with another card's n_i
            other = rng.choice([c for c in cards if c is not card])
            for sent in (req, replace(req, c_i=as_bits(as_int(req.c_i) ^ 1, width)), replace(req, n_i=other.n_i)):
                decision = authenticate(secrets, sent, t_star=t, hash_id=hash_id, chain=chain)
                assert (decision.reason, as_int(decision.recovered_hpw)) == oracle_decision(secrets, sent, hash_id)
        assert chain.cache_info().hits > 0
        assert chain.cache_info().currsize == MEMO_SIZE

    def test_each_hash_gets_its_own_digest_of_one_int(self):
        chain = self.memo()
        # sha3_256 has sha256's width, so only the constructor in the key tells their digests apart
        for hash_id in ("sha256", "sha3_256", "sha512"):
            new, n = hasher(hash_id)
            ref = oracle.login_values(b"", 0, 0, GOLDEN_T, hash_id, n * 8)  # n_i xor y is 0
            expected = (ref["cid"] ^ ref["hpw"], as_bits(ref["c_i"], n * 8))
            assert chain(0, GOLDEN_T, n, new) == _chain(0, GOLDEN_T, n, new) == expected

    def test_what_chain_hashes_depends_on_card_and_t_alone(self, card, server_secrets, now):
        # so a memo keyed on chain's arguments never holds a password or its hash
        def recording(seen):
            def chain(n_y, t, n, new):
                seen.append((n_y, t))
                return _chain(n_y, t, n, new)
            return chain

        runs = []
        for pw in (b"", GOLDEN_PW, b"x" * 64):
            seen = []
            req = make_login_request(card, pw, now, chain=recording(seen))
            decision = authenticate(server_secrets, req, t_star=now, chain=recording(seen))
            assert decision.accepted
            hpw = as_int(hash_bytes(pw))
            assert all(hpw not in args for args in seen)
            runs.append(seen)
        assert runs[0] == runs[1] == runs[2]
        # the server rebuilds the card's n_i xor y from the request and its own y
        assert runs[0] == [(card.n_y, now)] * 2

    def test_a_server_hashes_without_a_memo(self):
        # a memo shared by a server's clients would time one card's logins for another client
        assert make_login_request.__kwdefaults__["chain"] is _chain
        assert authenticate.__kwdefaults__["chain"] is _chain
        assert not hasattr(_chain, "cache_info")
