from __future__ import annotations

import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from blindvote.authority import SigningAuthority, format_request
from blindvote.blindsig import blind, random_unit, unblind
from blindvote import codec, voter
from blindvote.board import BulletinBoard, board_verify
from blindvote.election import VoteSelection
from blindvote.errors import ChainBroken
from blindvote.identity import CredentialIssuer, SigningRequest, sign_request
from blindvote.tally import (
    eligibility_audit,
    format_audit_report,
    format_tally_report,
    polling_gate,
    publish_tally,
    tally,
)
from blindvote.voter import format_payload, payload_digest, prepare_and_cast

from conftest import make_config_2x3

DATA = Path(__file__).parent / "data"


class World:
    """A small election with helpers for minting ballots."""

    def __init__(self, key, n_voters: int = 10, seed: int = 3):
        self.config = make_config_2x3()
        self.key = key
        self.rng = random.Random(seed)
        issuer = CredentialIssuer(self.rng)
        self.creds = [issuer.issue(f"V{i:04d}") for i in range(n_voters)]
        self.registry = issuer.registry
        self.auth = SigningAuthority(self.config, key, self.registry)
        self.next_voter = 0

    def cast(self, sel: VoteSelection) -> str:
        cred = self.creds[self.next_voter]
        self.next_voter += 1
        artifact, _ = prepare_and_cast(
            self.config, cred, sel, self.key.public, self.auth.handle_request, self.rng
        )
        return artifact.payload

    def forge_unlogged(self, sel: VoteSelection) -> str:
        """A ballot signed by a corrupt authority without any request log."""
        corrupt = SigningAuthority(
            self.config, self.key, self.registry, allow_corrupt=True
        )
        nonce = self.rng.randbytes(8)
        block = codec.encode(sel, nonce)
        padded = codec.pad(block, self.config.election_id, self.key.byte_length)
        m = codec.bytes_to_int(padded)
        r = random_unit(self.key.n, self.rng)
        s_blinded = corrupt.corrupt_sign(blind(m, r, self.key.public))
        return format_payload(unblind(s_blinded, r, self.key.public), self.key.public)

    def requests(self) -> list[SigningRequest]:
        return [
            SigningRequest(
                voter_id=vid,
                election_id=self.config.election_id,
                blinded=blinded,
                credential_signature=sig,
            )
            for vid, blinded, sig in self.auth.export_request_log()
        ]


def tampered(payload: str) -> str:
    """Flip one bit in the middle of the signature; structure check will fail."""
    body = payload.split("|")[1]
    mid = len(body) // 2
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"
    old = body[mid]
    new = alphabet[(alphabet.index(old) + 32) % 64]
    return "BPV1|" + body[:mid] + new + body[mid + 1 :]


class TestTally:
    def test_hand_count_example(self, key512):
        w = World(key512)
        box = [
            w.cast(VoteSelection(party_index=0, approvals=frozenset({0}))),
            w.cast(VoteSelection(party_index=0, approvals=frozenset({0, 1}))),
            w.cast(VoteSelection(party_index=1)),
        ]
        result = tally(key512.public, w.config, box)
        assert result.party_votes == (2, 1)
        assert result.candidate_votes[0] == (2, 1, 0)
        assert result.candidate_votes[1] == (0, 0, 0)
        assert result.accepted == 3
        assert result.rejected == ()
        assert result.duplicates == ()

    def test_photocopy_counted_once(self, key512):
        w = World(key512)
        payload = w.cast(VoteSelection(party_index=0))
        result = tally(key512.public, w.config, [payload, payload])
        assert result.accepted == 1
        assert result.duplicates == (1,)
        assert result.party_votes == (1, 0)

    def test_each_distinct_line_verified_once(self, key512, monkeypatch):
        w = World(key512)
        ballots = [w.cast(VoteSelection(party_index=i % 2)) for i in range(3)]
        box = ballots * 3 + ["BPV1|garbage"]
        calls = []
        verify = voter.verify_ballot

        def counting(pk, config, payload):
            calls.append(payload)
            return verify(pk, config, payload)

        monkeypatch.setattr(voter, "verify_ballot", counting)
        result = tally(key512.public, w.config, box)
        assert sorted(calls) == sorted(ballots + ["BPV1|garbage"])
        assert result.accepted == 3
        assert result.duplicates == tuple(range(3, 9))
        assert result.rejected == ((9, "BadFraming"),)

    def test_tampered_among_ten(self, key512):
        w = World(key512)
        box = [w.cast(VoteSelection(party_index=i % 2)) for i in range(10)]
        box[4] = tampered(box[4])
        result = tally(key512.public, w.config, box)
        assert result.accepted == 9
        assert len(result.rejected) == 1
        idx, code = result.rejected[0]
        assert idx == 4
        assert code == "BadStructure"

    def test_accounting_invariant(self, key512):
        w = World(key512, n_voters=12)
        box = [w.cast(VoteSelection(party_index=0)) for _ in range(6)]
        box += [box[0], box[3]]
        box += [tampered(box[1]), "not a payload"]
        result = tally(key512.public, w.config, box)
        assert result.accepted + len(result.rejected) + len(result.duplicates) == len(box)

    def test_permutation_invariance(self, key512):
        w = World(key512, n_voters=14)
        rng = random.Random(11)
        box = [
            w.cast(
                VoteSelection(
                    party_index=rng.randrange(2),
                    approvals=frozenset(i for i in range(3) if rng.random() < 0.5),
                )
            )
            for _ in range(8)
        ]
        box.append(box[2])
        box.append(tampered(box[5]))
        base = tally(key512.public, w.config, box)
        for _ in range(5):
            shuffled = box[:]
            rng.shuffle(shuffled)
            got = tally(key512.public, w.config, shuffled)
            assert got.party_votes == base.party_votes
            assert got.candidate_votes == base.candidate_votes
            assert got.accepted == base.accepted
            assert len(got.rejected) == len(base.rejected)
            assert len(got.duplicates) == len(base.duplicates)


class TestAudit:
    def test_honest_with_lost_mail(self, key512):
        w = World(key512, n_voters=100)
        box = [w.cast(VoteSelection(party_index=0)) for _ in range(100)]
        del box[97:]  # three ballots lost in the post
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, w.requests(), result)
        assert report.requests_total == 100
        assert report.requests_valid == 100
        assert report.ballots_valid == 97
        assert not report.cheat_flag
        assert report.discrepancy == -3

    def test_cheating_authority_flagged(self, rsa_backend, key512):
        w = World(key512, n_voters=100)
        box = [w.cast(VoteSelection(party_index=0)) for _ in range(100)]
        box += [w.forge_unlogged(VoteSelection(party_index=1)) for _ in range(3)]
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, w.requests(), result)
        assert report.cheat_flag
        assert report.discrepancy == 3
        assert report.ballots_valid == 103

    def test_invalid_request_excluded(self, key512):
        w = World(key512, n_voters=5)
        box = [w.cast(VoteSelection(party_index=0)) for _ in range(5)]
        requests = w.requests()
        broken = requests[2]
        requests[2] = SigningRequest(
            voter_id=broken.voter_id,
            election_id=broken.election_id,
            blinded=broken.blinded ^ 1,
            credential_signature=broken.credential_signature,
        )
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, requests, result)
        assert report.requests == tuple(requests)  # the log as audited, in order
        assert report.requests_total == 5
        assert report.requests_valid == 4
        assert report.cheat_flag  # 5 ballots > 4 valid requests
        assert report.discrepancy == 1


    def test_request_from_another_election_not_counted(self, key512):
        # The registry stands in for a national eID reused across elections.
        # V0000 votes in election A; election B's corrupt authority mints an
        # extra ballot and covers it with V0000's request from A.
        a = World(key512, n_voters=2)
        a.cast(VoteSelection(party_index=0))
        b = World(key512, n_voters=2)
        assert b.registry == a.registry
        b.config = replace(b.config, election_id=bytes.fromhex("ffeeddccbbaa9988"))
        b.auth = SigningAuthority(b.config, key512, b.registry)
        b.next_voter = 1
        box = [b.cast(VoteSelection(party_index=0)), b.forge_unlogged(VoteSelection(1))]
        result = tally(key512.public, b.config, box)
        report = eligibility_audit(b.registry, b.requests() + a.requests(), result)
        assert result.accepted == 2
        assert report.requests_total == 2
        assert report.requests_valid == 1
        assert report.cheat_flag


class TestPollingGate:
    def test_policy_table(self):
        registry = {"V0001": b"\x00" * 32, "V0002": b"\x01" * 32}
        requested = {"V0001"}
        blocked = polling_gate(registry, requested, "V0001")
        assert not blocked.allow and blocked.reason == "AlreadyRequested"
        allowed = polling_gate(registry, requested, "V0002")
        assert allowed.allow and allowed.reason == ""
        unknown = polling_gate(registry, requested, "NOBODY")
        assert not unknown.allow and unknown.reason == "UnknownVoter"

    def test_lookup_unavailable_fails_closed(self):
        registry = {"V0001": b"\x00" * 32}
        closed = polling_gate(registry, None, "V0001")
        assert not closed.allow and closed.reason == "LookupUnavailable"
        open_ = polling_gate(registry, None, "V0001", fail_open=True)
        assert open_.allow and open_.reason == "LookupUnavailable"
        assert closed.verdict == "BLOCK" and open_.verdict == "ALLOW"


class TestPublish:
    def test_evidence_trail(self, key512, tmp_path):
        w = World(key512, n_voters=4)
        box = [w.cast(VoteSelection(party_index=i % 2)) for i in range(4)]
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, w.requests(), result)
        board = BulletinBoard(tmp_path / "board.txt")
        added = publish_tally(board, w.config, result, report)
        assert added == 4 + 4 + 2
        records = board.records()
        digests = [r.payload.decode() for r in records if r.kind == "BALLOT_DIGEST"]
        assert sorted(digests) == sorted(payload_digest(p) for p in box)
        assert len(set(digests)) == 4  # each exactly once
        kinds = [r.kind for r in records]
        assert kinds == ["REQUEST"] * 4 + ["BALLOT_DIGEST"] * 4 + ["TALLY", "AUDIT"]
        assert [r.payload for r in records[:4]] == [
            format_request(req).encode() for req in w.requests()
        ]
        assert board_verify(tmp_path / "board.txt") is None
        assert publish_tally(board, w.config, result, report) == 0  # a count the board holds

    def test_note_sheet_digest_findable(self, key512, tmp_path):
        w = World(key512, n_voters=2)
        sel = VoteSelection(party_index=1, approvals=frozenset({1}))
        artifact, note = prepare_and_cast(
            w.config, w.creds[0], sel, key512.public, w.auth.handle_request, w.rng
        )
        result = tally(key512.public, w.config, [artifact.payload])
        report = eligibility_audit(w.registry, w.requests(), result)
        board = BulletinBoard(tmp_path / "board.txt")
        publish_tally(board, w.config, result, report)
        published = {
            r.payload.decode() for r in board.records() if r.kind == "BALLOT_DIGEST"
        }
        assert note.payload_digest in published

    def test_box_of_file_lines_publishes_the_notes_digests(self, key512, tmp_path):
        # A box read as file lines keeps each line's "\n": the count still
        # publishes the digest of the payload itself, the one each note holds.
        w = World(key512, n_voters=2)
        cast = [
            prepare_and_cast(w.config, cred, VoteSelection(party_index=i), key512.public,
                             w.auth.handle_request, w.rng)
            for i, cred in enumerate(w.creds)
        ]
        result = tally(key512.public, w.config, [artifact.payload + "\n" for artifact, _ in cast])
        assert result.accepted_payloads == tuple(artifact.payload for artifact, _ in cast)
        report = eligibility_audit(w.registry, w.requests(), result)
        board = BulletinBoard(tmp_path / "board.txt")
        publish_tally(board, w.config, result, report)
        published = [r.payload.decode() for r in board.records() if r.kind == "BALLOT_DIGEST"]
        assert sorted(published) == sorted(note.payload_digest for _, note in cast)

    @settings(max_examples=25, deadline=None, database=None)
    @given(order=st.permutations(range(5)))
    def test_digest_order_independent_of_vote_order(self, key512, order):
        def published(order: list[int]) -> list[str]:
            w = World(key512, n_voters=5)
            box = []
            for i in order:  # each voter's ballot is the same whenever they vote
                artifact, _ = prepare_and_cast(
                    w.config, w.creds[i], VoteSelection(party_index=i % 2), key512.public,
                    w.auth.handle_request, random.Random(100 + i),
                )
                box.append(artifact.payload)
            result = tally(key512.public, w.config, box)
            report = eligibility_audit(w.registry, w.requests(), result)
            with tempfile.TemporaryDirectory() as tmp:
                board = BulletinBoard(Path(tmp) / "board.txt")
                publish_tally(board, w.config, result, report)
                records = board.records()
            requesters = [r.payload.decode().split()[1] for r in records if r.kind == "REQUEST"]
            assert requesters == [f"V{i:04d}" for i in order]
            return [r.payload.decode() for r in records if r.kind == "BALLOT_DIGEST"]

        assert published(order) == published(sorted(order))

    def test_corrupt_board_is_chain_broken_and_left_alone(self, key512, tmp_path):
        w = World(key512, n_voters=1)
        box = [w.cast(VoteSelection(party_index=0))]
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, w.requests(), result)
        path = tmp_path / "board.txt"
        board = BulletinBoard(path)
        board.append("META", b"x")
        text = path.read_text()
        path.write_text(text.replace("META", "META".lower(), 1))
        corrupt = path.read_bytes()
        with pytest.raises(ChainBroken) as exc_info:
            publish_tally(board, w.config, result, report)
        assert exc_info.value.seq == 0
        assert path.read_bytes() == corrupt


class TestReports:
    def test_tally_report_golden(self, key512):
        w = World(key512, n_voters=4, seed=12)
        box = [
            w.cast(VoteSelection(party_index=0, approvals=frozenset({0}))),
            w.cast(VoteSelection(party_index=0, approvals=frozenset({0, 1}))),
            w.cast(VoteSelection(party_index=1)),
        ]
        box.append(box[0])
        box.append(tampered(box[1]))
        result = tally(key512.public, w.config, box)
        text = format_tally_report(w.config, result)
        assert text == (DATA / "tally_report_golden.txt").read_text()

    def test_tally_report_golden_on_each_inverse_backend(self, inverse_backend, key512):
        self.test_tally_report_golden(key512)

    def test_audit_report_fields(self, key512):
        w = World(key512, n_voters=2)
        box = [w.cast(VoteSelection(party_index=0))]
        result = tally(key512.public, w.config, box)
        report = eligibility_audit(w.registry, w.requests(), result)
        text = format_audit_report(report)
        lines = text.splitlines()
        assert lines[0].startswith("AUDIT REPORT election ")
        assert "requests_total=1" in lines
        assert "requests_valid=1" in lines
        assert "ballots_valid=1" in lines
        assert "discrepancy=0" in lines
        assert "cheat_flag=false" in lines
        assert lines[-1] == "END AUDIT"
