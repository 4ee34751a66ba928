from __future__ import annotations

import ctypes.util
import dataclasses
import io
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import reference_ed25519 as ref
from blindvote import identity
from blindvote.errors import BadSignature, DuplicateVoterId, ParseError, UnknownVoter
from blindvote.identity import (
    CredentialIssuer,
    SigningRequest,
    VoterCredential,
    load_registry,
    load_secrets,
    request_message,
    save_registry,
    save_secrets,
    sign_request,
    verify_request,
)

EID = b"\x01\x02\x03\x04\x05\x06\x07\x08"


def issuer_with(n: int, seed: int = 0) -> tuple[CredentialIssuer, list[VoterCredential]]:
    issuer = CredentialIssuer(random.Random(seed))
    return issuer, [issuer.issue(f"V{i:04d}") for i in range(n)]


class TestIssue:
    def test_fresh_credential_verifies_against_saved_registry(self):
        issuer, (cred,) = issuer_with(1)
        buf = io.StringIO()
        save_registry(issuer.registry, buf)
        buf.seek(0)
        verify_request(load_registry(buf), sign_request(cred, EID, 1))

    def test_duplicate_voter_id(self):
        issuer, _ = issuer_with(1)
        with pytest.raises(DuplicateVoterId):
            issuer.issue("V0000")

    def test_bad_voter_ids(self):
        issuer = CredentialIssuer(random.Random(0))
        with pytest.raises(ValueError):
            issuer.issue("")
        with pytest.raises(ValueError):
            issuer.issue("a b")

    def test_1000_distinct_public_keys(self):
        _, creds = issuer_with(1000)
        assert len({c.public for c in creds}) == 1000

    def test_registry_snapshot(self):
        issuer, creds = issuer_with(3)
        reg = issuer.registry
        assert reg == {c.voter_id: c.public for c in creds}
        reg["intruder"] = b"\x00" * 32  # mutating the snapshot
        assert "intruder" not in issuer.registry


class TestRequests:
    def test_round_trip(self):
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 12345)
        assert verify_request(issuer.registry, req) is None

    def test_other_voters_key_fails(self):
        issuer, (a, b) = issuer_with(2)
        req = sign_request(a, EID, 777)
        forged = SigningRequest(
            voter_id=b.voter_id,
            election_id=req.election_id,
            blinded=req.blinded,
            credential_signature=req.credential_signature,
        )
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, forged)

    def test_unknown_voter(self):
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 777)
        ghost = SigningRequest(
            voter_id="GHOST",
            election_id=req.election_id,
            blinded=req.blinded,
            credential_signature=req.credential_signature,
        )
        with pytest.raises(UnknownVoter):
            verify_request(issuer.registry, ghost)

    def test_flipped_blinded_bit_fails(self):
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 1 << 100)
        tampered = SigningRequest(
            voter_id=req.voter_id,
            election_id=req.election_id,
            blinded=req.blinded ^ 1,
            credential_signature=req.credential_signature,
        )
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, tampered)

    def test_hundred_random_mutations_all_fail(self):
        issuer, (cred,) = issuer_with(1)
        rng = random.Random(0x7A7)
        failures = 0
        for _ in range(100):
            req = sign_request(cred, EID, rng.randrange(1, 1 << 256))
            field = rng.choice(("blinded", "election_id", "signature"))
            if field == "blinded":
                mutated = SigningRequest(
                    voter_id=req.voter_id,
                    election_id=req.election_id,
                    blinded=req.blinded ^ (1 << rng.randrange(256)),
                    credential_signature=req.credential_signature,
                )
            elif field == "election_id":
                eid = bytearray(req.election_id)
                eid[rng.randrange(8)] ^= 1 << rng.randrange(8)
                mutated = SigningRequest(
                    voter_id=req.voter_id,
                    election_id=bytes(eid),
                    blinded=req.blinded,
                    credential_signature=req.credential_signature,
                )
            else:
                sig = bytearray(req.credential_signature)
                sig[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
                mutated = SigningRequest(
                    voter_id=req.voter_id,
                    election_id=req.election_id,
                    blinded=req.blinded,
                    credential_signature=bytes(sig),
                )
            with pytest.raises(BadSignature):
                verify_request(issuer.registry, mutated)
            failures += 1
        assert failures == 100

    def test_request_message_binds_width(self):
        # Different blinded values must never serialize identically.
        assert request_message(EID, 0) != request_message(EID, 1)
        assert request_message(EID, 256) != request_message(EID, 1)


def with_signature(req: SigningRequest, signature: bytes) -> SigningRequest:
    return dataclasses.replace(req, credential_signature=signature)


# Every point of small order, [i]T for T of order 8, then the non-canonical
# spellings p and p + 1 of y = 0 and y = 1.
SMALL_ORDER = [ref.encode(t) for t in ref.torsion()] + [
    ref.P.to_bytes(32, "little"),
    (ref.P + 1).to_bytes(32, "little"),
]
SMALL_ORDER_IDS = [f"{i}T" for i in range(8)] + ["y=p", "y=p+1"]
IDENTITY = ref.encode(ref.IDENTITY)


class TestOneVerdict:
    """What libsodium refuses is refused on every backend, including
    signatures that satisfy [S]B == R + [k]A."""

    def test_reference_model_matches_the_libraries(self):
        _, (cred,) = issuer_with(1)
        assert ref.encode(ref.mul(ref.secret_scalar(cred.seed), ref.B)) == cred.public
        req = sign_request(cred, EID, 99)
        assert ref.equation_holds(
            cred.public, req.credential_signature, request_message(EID, 99)
        )
        assert len({ref.decode(enc) for enc in SMALL_ORDER}) == 8

    @pytest.mark.parametrize("key", SMALL_ORDER, ids=SMALL_ORDER_IDS)
    def test_small_order_key_with_identity_r_and_zero_s(self, ed25519_backend, key):
        # R = identity and S = 0 satisfy the equation whenever [k]A is the
        # identity: for the identity key (`01` then zeros) on every
        # message, for a key of order 8 on one message in eight.
        forged = IDENTITY + bytes(32)
        blinded = next(
            b for b in range(1, 1000)
            if ref.equation_holds(key, forged, request_message(EID, b))
        )
        req = SigningRequest("V0000", EID, blinded, forged)
        with pytest.raises(BadSignature):
            verify_request({"V0000": key}, req)

    def test_honest_key_with_identity_r(self, ed25519_backend):
        # R = identity and S = k*a satisfy [S]B == R + [k]A for the voter's
        # own key; OpenSSL accepts the pair and libsodium does not.
        issuer, (cred,) = issuer_with(1)
        message = request_message(EID, 4242)
        k = ref.challenge(IDENTITY, cred.public, message)
        s = k * ref.secret_scalar(cred.seed) % ref.L
        forged = IDENTITY + s.to_bytes(32, "little")
        assert ref.equation_holds(cred.public, forged, message)
        req = sign_request(cred, EID, 4242)
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, with_signature(req, forged))

    def test_s_at_least_l(self, ed25519_backend):
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 4242)
        verify_request(issuer.registry, req)
        r, s = req.credential_signature[:32], req.credential_signature[32:]
        big_s = (int.from_bytes(s, "little") + ref.L).to_bytes(32, "little")
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, with_signature(req, r + big_s))

    @pytest.mark.parametrize("r", SMALL_ORDER, ids=SMALL_ORDER_IDS)
    def test_small_order_r(self, ed25519_backend, r):
        issuer, (cred,) = issuer_with(1)
        message = request_message(EID, 7)
        s = ref.challenge(r, cred.public, message) * ref.secret_scalar(cred.seed) % ref.L
        req = sign_request(cred, EID, 7)
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, with_signature(req, r + s.to_bytes(32, "little")))

    def test_non_canonical_key(self, ed25519_backend):
        # y = p + 2 .. p + 18 spell the points with y = 2 .. 18 where they exist.
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 7)
        keys = [
            (ref.P + y).to_bytes(32, "little")
            for y in range(2, 19)
            if ref.decode((ref.P + y).to_bytes(32, "little")) is not None
        ]
        assert keys
        for key in keys:
            with pytest.raises(BadSignature):
                verify_request({cred.voter_id: key}, req)

    @pytest.mark.parametrize("length", (0, 63, 65))
    def test_wrong_length_signature(self, ed25519_backend, length):
        issuer, (cred,) = issuer_with(1)
        req = sign_request(cred, EID, 7)
        signature = (req.credential_signature * 2)[:length]
        with pytest.raises(BadSignature):
            verify_request(issuer.registry, with_signature(req, signature))


def flip_bit(fields: list[bytes], bit: int) -> list[bytes]:
    """The fields with one bit flipped, counting bits across all of them."""
    bit %= 8 * sum(map(len, fields))
    flipped = []
    for field in fields:
        if 0 <= bit < 8 * len(field):
            field = bytearray(field)
            field[bit // 8] ^= 1 << bit % 8
            field = bytes(field)
        bit -= 8 * len(field)
        flipped.append(field)
    return flipped


class TestBackends:
    @pytest.mark.skipif(ctypes.util.find_library("sodium") is None, reason="no libsodium")
    def test_libsodium_runs_wherever_it_is_found(self):
        assert identity.backend() == "libsodium"

    def test_fallback_when_libsodium_cannot_load(self, monkeypatch):
        # Recorded on whichever backend is installed.
        issuer, creds = issuer_with(3)
        requests = [sign_request(c, EID, 1000 + i) for i, c in enumerate(creds)]
        buf = io.StringIO()
        save_secrets(creds, buf)
        monkeypatch.setattr(identity, "_LIBSODIUM_SONAME", "libsodium.so.absent")
        monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
        identity._libsodium.cache_clear()
        try:
            assert identity.backend() == "cryptography"
            buf.seek(0)
            loaded = load_secrets(buf)
            assert {vid: c.public for vid, c in loaded.items()} == issuer.registry
            for cred, req in zip(creds, requests):
                assert sign_request(loaded[cred.voter_id], EID, req.blinded) == req
                verify_request(issuer.registry, req)
                with pytest.raises(BadSignature):
                    verify_request(issuer.registry, dataclasses.replace(req, blinded=1))
        finally:
            identity._libsodium.cache_clear()

    @pytest.mark.skipif(identity._libsodium() is None, reason="libsodium cannot be loaded")
    def test_secret_is_cleared_after_use(self, monkeypatch):
        _, (cred,) = issuer_with(1)
        lib = identity._libsodium()
        cleared = []
        memzero = lib.sodium_memzero

        def spy(buf, size):
            memzero(buf, size)
            cleared.append((buf.raw, size))

        monkeypatch.setattr(lib, "sodium_memzero", spy)
        sign_request(cred, EID, 1)
        cred.public
        assert cleared == [(bytes(64), 64)] * 2

    @pytest.mark.parametrize("length", (0, 31, 33))
    def test_wrong_length_seed(self, ed25519_backend, length):
        cred = VoterCredential("V0000", bytes(range(length)))
        with pytest.raises(ValueError):
            cred.public
        with pytest.raises(ValueError):
            sign_request(cred, EID, 1)

    @pytest.mark.skipif(identity._libsodium() is None, reason="libsodium cannot be loaded")
    @settings(max_examples=100, deadline=None, database=None)
    @given(
        seed=st.binary(min_size=32, max_size=32),
        message=st.binary(max_size=80),
        bit=st.none() | st.integers(min_value=0),
    )
    def test_backends_agree(self, seed, message, bit):
        public = identity._raw_public(seed)
        signature = identity._raw_sign(seed, message)
        fields = [public, signature, message]
        if bit is not None:
            fields = flip_bit(fields, bit)
        on_sodium = identity._raw_verify(*fields)
        with mock.patch.object(identity, "_libsodium", lambda: None):
            assert identity._raw_public(seed) == public
            assert identity._raw_sign(seed, message) == signature
            on_cryptography = identity._raw_verify(*fields)
        assert on_sodium == on_cryptography == (bit is None)

    def test_import_loads_no_library(self):
        src = str(Path(identity.__file__).resolve().parents[1])
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import blindvote.identity; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('ctypes', '_ctypes', 'cryptography')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"


class TestStores:
    def test_registry_round_trip(self):
        issuer, _ = issuer_with(5)
        buf = io.StringIO()
        save_registry(issuer.registry, buf)
        buf.seek(0)
        assert load_registry(buf) == issuer.registry

    def test_registry_parse_errors(self):
        for text in (
            "VOTER onlytwo\n",
            "WRONG V0001 00\n",
            "VOTER V0001 nothex\n",
            "VOTER V0001 0011\n",  # wrong key length
            "VOTER V0001 " + "00" * 32 + "\nVOTER V0001 " + "11" * 32 + "\n",
        ):
            with pytest.raises(ParseError):
                load_registry(io.StringIO(text))

    def test_secrets_round_trip(self):
        _, creds = issuer_with(4)
        buf = io.StringIO()
        save_secrets(creds, buf)
        buf.seek(0)
        loaded = load_secrets(buf)
        assert loaded == {c.voter_id: c for c in creds}
