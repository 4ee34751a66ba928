from __future__ import annotations

import dataclasses
import io
import random
import threading

import pytest

from blindvote import codec
from blindvote.authority import (
    SigningAuthority,
    format_request,
    format_response,
    parse_request,
    process_mailbox,
    read_request_log,
)
from blindvote.blindsig import CLASSIC_TOY_KEY, blind, random_unit, verify_recover
from blindvote.board import BulletinBoard
from blindvote.election import VoteSelection, hex_int
from blindvote.errors import (
    AlreadyRequested,
    BadFraming,
    BadSignature,
    CorruptModeDisabled,
    SigningFault,
    UnknownVoter,
    WrongElection,
)
from blindvote.identity import CredentialIssuer, SigningRequest, sign_request, verify_request

from conftest import FIXTURE_ELECTION_ID, inject_crt_fault, make_config_2x3


def make_world(n_voters: int = 3, *, allow_corrupt: bool = False, seed: int = 1):
    config = make_config_2x3()
    rng = random.Random(seed)
    issuer = CredentialIssuer(rng)
    creds = [issuer.issue(f"V{i:04d}") for i in range(n_voters)]
    auth = SigningAuthority(
        config, CLASSIC_TOY_KEY, issuer.registry, allow_corrupt=allow_corrupt
    )
    return config, auth, creds, rng


def make_request(cred, blinded=1234, election_id=FIXTURE_ELECTION_ID):
    return sign_request(cred, election_id, blinded)


def logged(auth: SigningAuthority) -> list[str]:
    """The voter ids in the authority's request log, in arrival order."""
    return [vid for vid, _, _ in auth.export_request_log()]


class TestHandleRequest:
    def test_happy_path_signs_and_logs(self):
        _, auth, (cred, *_), _ = make_world()
        assert logged(auth) == []
        sig = auth.handle_request(make_request(cred, blinded=65))
        assert sig == pow(65, CLASSIC_TOY_KEY.d, CLASSIC_TOY_KEY.n)
        assert logged(auth) == [cred.voter_id]

    def test_second_request_rejected(self):
        _, auth, (cred, *_), _ = make_world()
        auth.handle_request(make_request(cred, blinded=65))
        with pytest.raises(AlreadyRequested):
            auth.handle_request(make_request(cred, blinded=66))
        assert logged(auth) == [cred.voter_id]

    def test_unknown_voter(self):
        _, auth, (cred, *_), _ = make_world()
        req = make_request(cred)
        ghost = SigningRequest(
            voter_id="GHOST",
            election_id=req.election_id,
            blinded=req.blinded,
            credential_signature=req.credential_signature,
        )
        with pytest.raises(UnknownVoter):
            auth.handle_request(ghost)

    def test_wrong_election(self):
        _, auth, (cred, *_), _ = make_world()
        req = make_request(cred, election_id=b"\xee" * 8)
        with pytest.raises(WrongElection):
            auth.handle_request(req)

    def test_rejected_request_keeps_budget(self):
        # A garbled request must not burn the voter's one shot.
        _, auth, (cred, *_), _ = make_world()
        req = make_request(cred, blinded=65)
        tampered = SigningRequest(
            voter_id=req.voter_id,
            election_id=req.election_id,
            blinded=req.blinded ^ 1,
            credential_signature=req.credential_signature,
        )
        with pytest.raises(BadSignature):
            auth.handle_request(tampered)
        assert logged(auth) == []
        auth.handle_request(req)
        assert logged(auth) == [cred.voter_id]

    def test_signing_fault_logs_nothing(self, monkeypatch):
        _, auth, (cred, *_), _ = make_world()
        inject_crt_fault(monkeypatch)
        with pytest.raises(SigningFault):
            auth.handle_request(make_request(cred, blinded=65))
        assert auth.export_request_log() == []


class TestHasRequested:
    """Whether a voter has requested, read from the exported log."""

    def test_false_then_true(self):
        _, auth, (cred, *_), _ = make_world()
        assert cred.voter_id not in logged(auth)
        auth.handle_request(make_request(cred))
        assert cred.voter_id in logged(auth)

    def test_monotone_under_failures(self):
        _, auth, (cred, other, *_), _ = make_world()
        auth.handle_request(make_request(cred))
        with pytest.raises(AlreadyRequested):
            auth.handle_request(make_request(cred, blinded=9))
        assert cred.voter_id in logged(auth)
        assert other.voter_id not in logged(auth)


class TestExport:
    def test_order_and_replay(self):
        _, auth, creds, _ = make_world(5)
        order = [2, 0, 4, 1, 3]
        for i in order:
            auth.handle_request(make_request(creds[i], blinded=100 + i))
        log = auth.export_request_log()
        assert [vid for vid, _, _ in log] == [creds[i].voter_id for i in order]
        assert [b for _, b, _ in log] == [100 + i for i in order]
        registry = {c.voter_id: c.public for c in creds}
        for vid, blinded, sig in log:
            req = SigningRequest(
                voter_id=vid,
                election_id=FIXTURE_ELECTION_ID,
                blinded=blinded,
                credential_signature=sig,
            )
            assert verify_request(registry, req) is None

    def test_publishes_request_records(self, tmp_path):
        _, auth, creds, _ = make_world(3)
        for c in creds:
            auth.handle_request(make_request(c, blinded=50))
        board = BulletinBoard(tmp_path / "board.txt")
        auth.export_request_log(board)
        records = board.records()
        assert [r.kind for r in records] == ["REQUEST"] * 3
        replayed = [parse_request(r.payload.decode()) for r in records]
        assert [r.voter_id for r in replayed] == [c.voter_id for c in creds]


class TestCorruptSign:
    def test_disabled_by_default(self):
        _, auth, _, _ = make_world()
        with pytest.raises(CorruptModeDisabled):
            auth.corrupt_sign(65)

    def test_signs_without_logging(self):
        _, auth, _, _ = make_world(allow_corrupt=True)
        sig = auth.corrupt_sign(65)
        assert sig == pow(65, CLASSIC_TOY_KEY.d, CLASSIC_TOY_KEY.n)
        assert auth.export_request_log() == []

    def test_honest_mode_counter_equality(self):
        _, auth, creds, _ = make_world(3)
        for c in creds:
            auth.handle_request(make_request(c, blinded=7))
        assert logged(auth) == [c.voter_id for c in creds]


class TestConcurrency:
    def test_same_voter_races_one_success(self):
        _, auth, (cred, *_), _ = make_world()
        req = make_request(cred, blinded=65)
        outcomes: list[str] = []
        lock = threading.Lock()

        def attempt():
            try:
                auth.handle_request(req)
                with lock:
                    outcomes.append("ok")
            except AlreadyRequested:
                with lock:
                    outcomes.append("dup")

        threads = [threading.Thread(target=attempt) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes.count("ok") == 1
        assert outcomes.count("dup") == 15
        assert logged(auth) == [cred.voter_id]

    def test_distinct_voters_all_succeed(self):
        _, auth, creds, _ = make_world(20)
        threads = [
            threading.Thread(
                target=auth.handle_request, args=(make_request(c, blinded=60 + i),)
            )
            for i, c in enumerate(creds)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(logged(auth)) == [c.voter_id for c in creds]


class TestFraming:
    def test_request_round_trip(self):
        _, _, (cred, *_), _ = make_world()
        req = make_request(cred, blinded=0xDEADBEEF)
        assert parse_request(format_request(req)) == req

    def test_response_round_trip(self):
        line = format_response(0xABC)
        assert line == "RSP OK abc"
        assert hex_int(line.split()[2]) == 0xABC
        assert format_response(AlreadyRequested("nope")) == "RSP ERR AlreadyRequested"

    @pytest.mark.parametrize(
        "line",
        ["REQ short", "NOPE a b c d", "REQ v zz 10 aa", "RSP OK zz", "RSP what"]
        # Hex that int(x, 16) would take: a sign, a prefix, an underscore,
        # a non-ASCII digit. A response line fed back as a request is bad
        # framing too: the mailbox reads REQ lines only.
        + [f"{head} {x}{tail}" for x in ("-1f", "+1f", "0x1f", "1_f", "\u0661")
           for head, tail in (("REQ v 00", " aa"), ("RSP OK", ""))],
    )
    def test_bad_framing(self, line):
        with pytest.raises(BadFraming):
            parse_request(line)

    def test_process_mailbox(self):
        _, auth, creds, _ = make_world(2)
        good = format_request(make_request(creds[0], blinded=65))
        dup = format_request(make_request(creds[0], blinded=66))
        garbage = "REQ broken"
        negative = good.replace(" 41 ", " -1f ")  # once an uncaught OverflowError
        responses = process_mailbox(auth, [negative, good, "", dup, garbage])
        assert responses[0] == "RSP ERR BadFraming"
        assert responses[1].startswith("RSP OK ")
        assert responses[2] == "RSP ERR AlreadyRequested"
        assert responses[3] == "RSP ERR BadFraming"
        signed = hex_int(responses[1].split()[2])
        assert verify_recover(signed, CLASSIC_TOY_KEY.public) == 65

    @pytest.mark.parametrize("length", (0, 63, 65))
    def test_wrong_length_signature(self, ed25519_backend, length):
        _, auth, (cred, *_), _ = make_world()
        req = make_request(cred, blinded=65)
        short = dataclasses.replace(
            req, credential_signature=(req.credential_signature * 2)[:length]
        )
        with pytest.raises(BadSignature):
            auth.handle_request(short)
        # An empty signature field leaves a REQ line one field short.
        expected = "RSP ERR BadFraming" if length == 0 else "RSP ERR BadSignature"
        assert process_mailbox(auth, [format_request(short)]) == [expected]
        assert auth.export_request_log() == []


class TestDurableState:
    def test_save_load_round_trip(self):
        _, auth, creds, _ = make_world(3)
        for i, c in enumerate(creds):
            auth.handle_request(make_request(c, blinded=80 + i))
        buf = io.StringIO()
        auth.save_request_log(buf)
        config = make_config_2x3()
        issuer_registry = {c.voter_id: c.public for c in creds}
        restored = SigningAuthority(config, CLASSIC_TOY_KEY, issuer_registry)
        buf.seek(0)
        restored.load_request_log(buf)
        assert logged(restored) == [c.voter_id for c in creds]
        assert restored.export_request_log() == auth.export_request_log()
        with pytest.raises(AlreadyRequested):
            restored.handle_request(make_request(creds[0], blinded=99))

    def test_only_the_whole_text_of_a_torn_log_parses(self):
        # A kill inside an append can cut the last line anywhere, even where
        # the rest still parses; only a cut after a "\n" leaves a log.
        _, auth, creds, _ = make_world(2)
        for i, c in enumerate(creds):
            auth.handle_request(make_request(c, blinded=80 + i))
        buf = io.StringIO()
        auth.save_request_log(buf)
        text = buf.getvalue()
        first = text.index("\n") + 1
        for cut in range(first + 1, len(text)):
            with pytest.raises(BadFraming):
                read_request_log(io.StringIO(text[:cut]))
        for cut, count in ((first, 1), (len(text), 2)):
            parsed = read_request_log(io.StringIO(text[:cut]))
            assert [req.voter_id for req in parsed] == logged(auth)[:count]

    def test_state_never_contains_ballot_plaintext(self, key512):
        # The authority's durable state must hold only blinded values.
        config = make_config_2x3()
        rng = random.Random(0x5117)
        issuer = CredentialIssuer(rng)
        cred = issuer.issue("V0001")
        auth = SigningAuthority(config, key512, issuer.registry)
        nonce = rng.randbytes(8)
        block = codec.encode(
            VoteSelection(party_index=1, approvals=frozenset({0, 2})), nonce
        )
        padded = codec.pad(block, config.election_id, key512.byte_length)
        m = codec.bytes_to_int(padded)
        r = random_unit(key512.n, rng)
        auth.handle_request(
            sign_request(cred, config.election_id, blind(m, r, key512.public))
        )
        buf = io.StringIO()
        auth.save_request_log(buf)
        state = buf.getvalue().lower()
        assert block.hex() not in state
        assert padded.hex().lstrip("0") not in state
        assert f"{m:x}" not in state
