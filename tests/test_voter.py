from __future__ import annotations

import random
from pathlib import Path

import pytest

from blindvote import codec
from blindvote.authority import SigningAuthority
from blindvote.blindsig import blind, random_unit, sign_blinded
from blindvote.election import ElectionConfig, Party, VoteSelection
from blindvote.errors import (
    BadFraming,
    BadStructure,
    DecodeError,
    LocalVerifyFailed,
    MessageOutOfRange,
    WrongElection,
)
from blindvote.identity import CredentialIssuer
from blindvote.voter import (
    format_payload,
    make_note_sheet,
    parse_payload,
    payload_digest,
    prepare_and_cast,
    render_ballot_text,
    verify_ballot,
)

from conftest import make_config_2x3

DATA = Path(__file__).parent / "data"


def make_world(key, n_voters: int = 3, seed: int = 2):
    config = make_config_2x3()
    rng = random.Random(seed)
    issuer = CredentialIssuer(rng)
    creds = [issuer.issue(f"V{i:04d}") for i in range(n_voters)]
    auth = SigningAuthority(config, key, issuer.registry)
    return config, auth, creds, rng


class TestPrepareAndCast:
    def test_honest_pipeline_verifies(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        sel = VoteSelection(party_index=1, approvals=frozenset({0, 2}))
        artifact, note = prepare_and_cast(
            config, cred, sel, key512.public, auth.handle_request, rng
        )
        assert verify_ballot(key512.public, config, artifact.payload) == sel
        assert artifact.text.splitlines()[-1] == artifact.payload
        assert note.payload_digest == payload_digest(artifact.payload)
        assert [vid for vid, _, _ in auth.export_request_log()] == [cred.voter_id]

    def test_garbage_authority_aborts_before_rendering(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        seen = {}

        def lying_channel(req):
            seen["req"] = req
            return (auth.handle_request(req) + 1) % key512.n

        with pytest.raises(LocalVerifyFailed) as err:
            prepare_and_cast(
                config,
                cred,
                VoteSelection(party_index=0),
                key512.public,
                lying_channel,
                rng,
            )
        # Evidence for a dispute: the request made and the value returned.
        assert err.value.request == seen["req"]
        assert err.value.returned is not None

    def test_same_selection_distinct_payloads_1000(self, key512):
        config, auth, creds, rng = make_world(key512, n_voters=1000)
        sel = VoteSelection(party_index=0, approvals=frozenset({1}))
        payloads = set()
        for cred in creds:
            artifact, _ = prepare_and_cast(
                config, cred, sel, key512.public, auth.handle_request, rng
            )
            payloads.add(artifact.payload)
        assert len(payloads) == 1000

    def test_authority_sees_only_blinded_values(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        sel = VoteSelection(party_index=1, approvals=frozenset({2}))
        captured = []

        def channel(req):
            captured.append(req)
            return auth.handle_request(req)

        artifact, _ = prepare_and_cast(
            config, cred, sel, key512.public, channel, rng
        )
        signature = parse_payload(artifact.payload, key512.public)
        padded_int = pow(signature, key512.e, key512.n)
        assert captured[0].blinded != padded_int


class TestVerifyBallot:
    def test_round_trip(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        sel = VoteSelection(party_index=0, approvals=frozenset({0, 1, 2}))
        artifact, _ = prepare_and_cast(
            config, cred, sel, key512.public, auth.handle_request, rng
        )
        assert verify_ballot(key512.public, config, artifact.payload) == sel

    def test_hundred_char_flips_all_rejected(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        artifact, _ = prepare_and_cast(
            config,
            cred,
            VoteSelection(party_index=1),
            key512.public,
            auth.handle_request,
            rng,
        )
        alphabet = (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
        )
        body_start = artifact.payload.index("|") + 1
        rejections = 0
        for _ in range(100):
            pos = rng.randrange(body_start, len(artifact.payload))
            old = artifact.payload[pos]
            new = rng.choice([c for c in alphabet if c != old])
            mutated = artifact.payload[:pos] + new + artifact.payload[pos + 1 :]
            with pytest.raises(
                (BadFraming, BadStructure, WrongElection, DecodeError, MessageOutOfRange)
            ):
                verify_ballot(key512.public, config, mutated)
            rejections += 1
        assert rejections == 100

    def test_cross_election_rejected(self, key512):
        config, auth, (cred, *_), rng = make_world(key512)
        artifact, _ = prepare_and_cast(
            config,
            cred,
            VoteSelection(party_index=0),
            key512.public,
            auth.handle_request,
            rng,
        )
        other = ElectionConfig(
            election_id=b"\xee" * 8,
            title="Other",
            parties=config.parties,
        )
        with pytest.raises((WrongElection, BadStructure)):
            verify_ballot(key512.public, other, artifact.payload)

    def test_signature_over_junk_rejected(self, key512):
        # A signature the authority never padded correctly: structure check fails.
        s = sign_blinded(1234567, key512)
        payload = format_payload(s, key512.public)
        config = make_config_2x3()
        with pytest.raises(BadStructure):
            verify_ballot(key512.public, config, payload)


class TestPayloadLine:
    def test_round_trip(self, key512):
        rng = random.Random(9)
        for _ in range(50):
            s = rng.randrange(0, key512.n)
            assert parse_payload(format_payload(s, key512.public), key512.public) == s

    def test_fixed_width(self, key512):
        line = format_payload(1, key512.public)
        assert parse_payload(line, key512.public) == 1
        # 64 bytes -> ceil(64*4/3) base64url chars, no padding
        assert len(line.split("|")[1]) == 86

    @pytest.mark.parametrize(
        "line",
        [
            "XXXX|abcd",
            "BPV1|",
            "BPV1|!!!!",
            "BPV1|abc|def",
            "BPV1|" + "A" * 10,  # wrong width
        ],
    )
    def test_bad_framing(self, line, key512):
        with pytest.raises(BadFraming):
            parse_payload(line, key512.public)

    def test_non_canonical_encoding_rejected(self, key512):
        line = format_payload(random.Random(4).randrange(key512.n), key512.public)
        body = line.split("|")[1]
        # The last base64 char carries slack bits for 64-byte values; flipping
        # them decodes to the same bytes but must still be rejected.
        last = body[-1]
        alphabet = (
            "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
        )
        idx = alphabet.index(last)
        variant = alphabet[idx ^ 1]
        assert variant != last
        with pytest.raises(BadFraming):
            parse_payload("BPV1|" + body[:-1] + variant, key512.public)


class TestRendering:
    def test_layout_for_single_approval(self):
        config = make_config_2x3()
        sel = VoteSelection(party_index=0, approvals=frozenset({0}))
        text = render_ballot_text(config, sel, "BPV1|FAKEPAYLOADFORGOLDEN")
        lines = text.splitlines()
        assert lines[0] == "ELECTION: Fixture Election"
        assert lines[1] == "PARTY: Alpha"
        assert lines[2] == "FOR Anna"
        assert lines[3] == "AGAINST Arno"
        assert lines[4] == "AGAINST Avi"
        assert lines[5] == "BPV1|FAKEPAYLOADFORGOLDEN"

    def test_deterministic(self):
        config = make_config_2x3()
        sel = VoteSelection(party_index=1, approvals=frozenset({1}))
        a = render_ballot_text(config, sel, "BPV1|X")
        b = render_ballot_text(config, sel, "BPV1|X")
        assert a == b

    def test_golden_file(self):
        config = make_config_2x3()
        sel = VoteSelection(party_index=0, approvals=frozenset({0}))
        text = render_ballot_text(config, sel, "BPV1|FAKEPAYLOADFORGOLDEN")
        assert text == (DATA / "ballot_golden.txt").read_text()


class TestNoteSheet:
    def test_contents(self):
        config = make_config_2x3()
        sel = VoteSelection(party_index=1, approvals=frozenset({0}))
        note = make_note_sheet(config, sel, "BPV1|SOMEPAYLOAD")
        stances = ["PARTY: Beta", "FOR Ben", "AGAINST Bea", "AGAINST Bo"]
        assert note.text.splitlines()[1:5] == stances
        assert note.payload_digest == payload_digest("BPV1|SOMEPAYLOAD")
        assert len(note.payload_digest) == 16  # 8 bytes hex
        text = note.text
        assert "FOR Ben" in text
        assert "AGAINST Bea" in text
        assert note.payload_digest in text
