from __future__ import annotations

import codecs
import dataclasses
import errno
import fcntl
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import blindvote
from blindvote import authority as authority_mod, blindsig, board as board_mod, identity, voter
from blindvote.authority import SigningAuthority, format_request, read_request_log
from blindvote.blindsig import blind, random_unit
from blindvote.board import BoardBatch, BulletinBoard, board_verify
from blindvote.cli import main
from blindvote.codec import encode, pad
from blindvote.election import VoteSelection, save_config
from blindvote.errors import LocalVerifyFailed
from blindvote.identity import (
    CredentialIssuer,
    load_registry,
    load_secrets,
    request_message,
    save_registry,
    save_secrets,
    sign_request,
    verify_request,
)

from conftest import FIXTURE_ELECTION_ID, disk_full, inject_crt_fault, make_config_2x3


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    save_config(make_config_2x3(), path)
    return path


@pytest.fixture()
def election(tmp_path, config_file):
    d = tmp_path / "e1"
    rc = main(
        ["setup", "--dir", str(d), "--config", str(config_file), "--voters", "4",
         "--bits", "512", "--seed", "7"]
    )
    assert rc == 0
    return d


def run(capsys, *argv: str) -> tuple[int, str, str]:
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestSetup:
    def test_creates_all_files(self, election):
        for name in (
            "election.cfg", "authority.key", "authority.pub", "registry.txt",
            "credentials.txt", "requests.log", "ballotbox.txt", "board.txt",
        ):
            assert (election / name).exists(), name
        assert (election / "ballots").is_dir()
        assert (election / "notes").is_dir()

    def test_summary_line(self, tmp_path, config_file, capsys):
        d = tmp_path / "fresh"
        rc, out, _ = run(
            capsys, "setup", "--dir", str(d), "--config", str(config_file),
            "--voters", "2", "--bits", "512", "--seed", "1",
        )
        assert rc == 0
        assert out == f"election {FIXTURE_ELECTION_ID.hex()} dir={d} voters=2 key_bits=512\n"

    def test_registry_and_secrets_align(self, election):
        with (election / "credentials.txt").open() as f:
            secrets = load_secrets(f)
        with (election / "registry.txt").open() as f:
            registry = load_registry(f)
        assert sorted(secrets) == sorted(registry) == ["V0001", "V0002", "V0003", "V0004"]
        for cred in secrets.values():
            verify_request(registry, sign_request(cred, FIXTURE_ELECTION_ID, 0x5E1F))

    def test_board_starts_with_meta(self, election):
        line = (election / "board.txt").read_text().splitlines()[0]
        assert line.startswith("0|META|")

    def test_seeded_setup_reproducible(self, tmp_path, config_file):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            main(["setup", "--dir", str(d), "--config", str(config_file),
                  "--voters", "3", "--bits", "512", "--seed", "99"])
        for name in ("authority.key", "registry.txt", "credentials.txt", "board.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


    def test_interrupted_keygen_blocks_no_retry(self, tmp_path, config_file, capsys,
                                                monkeypatch):
        # Key generation and credential issue come before the first write, so
        # a setup stopped inside keygen leaves no file that refuses the next.
        d = tmp_path / "e"
        argv = ["setup", "--dir", str(d), "--config", str(config_file),
                "--voters", "2", "--bits", "512", "--seed", "1"]

        def interrupted(bits, rng=None):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(blindsig, "keygen", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert not d.exists()
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out.endswith("voters=2 key_bits=512\n")

    def test_interrupted_write_leaves_nothing_behind(self, tmp_path, config_file, capsys,
                                                     monkeypatch):
        # The files are written into a sibling directory that only a finished
        # setup renames into place, so a setup stopped among its writes
        # leaves neither the election nor the sibling, and the retry runs.
        d = tmp_path / "e"
        argv = ["setup", "--dir", str(d), "--config", str(config_file),
                "--voters", "2", "--bits", "512", "--seed", "1"]

        def interrupted(creds, out):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(blindvote.cli, "save_secrets", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt"]
        rc, out, err = run(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out.endswith("voters=2 key_bits=512\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "e"]

    def test_non_empty_directory_refused_and_empty_one_set_up(self, tmp_path, config_file,
                                                              capsys):
        d = tmp_path / "e"
        d.mkdir()
        (d / "notes.txt").write_text("not an election\n")
        argv = ["setup", "--dir", str(d), "--config", str(config_file),
                "--voters", "2", "--bits", "512", "--seed", "1"]
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"ERR IoFailure: {d} is not empty: setup needs a new or empty directory\n"
        assert [p.name for p in d.iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "e"]
        (d / "notes.txt").unlink()
        rc, _, _ = run(capsys, *argv)
        assert rc == 0
        assert (d / "requests.log").read_bytes() == b""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.txt", "e"]

    def test_rerun_over_live_election_refused(self, election, config_file, capsys):
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                       "--party", "0", "--seed", "5")
        assert rc == 0
        before = {p: p.read_bytes() for p in election.rglob("*") if p.is_file()}
        rc, out, err = run(
            capsys, "setup", "--dir", str(election), "--config", str(config_file),
            "--voters", "4", "--bits", "512", "--seed", "7",
        )
        assert (rc, out) == (1, "")
        assert err.startswith("ERR IoFailure:")
        assert {p: p.read_bytes() for p in election.rglob("*") if p.is_file()} == before
        rc, _, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                         "--party", "0", "--seed", "6")
        assert rc == 1
        assert err.startswith("ERR AlreadyRequested:")
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert (rc, out) == (3, "BLOCK V0001 reason=AlreadyRequested\n")

    @pytest.mark.parametrize("bits", [4, 300, 344])
    def test_modulus_too_narrow_for_a_ballot_refused(self, tmp_path, config_file,
                                                     capsys, bits):
        d = tmp_path / "narrow"
        rc, out, err = run(
            capsys, "setup", "--dir", str(d), "--config", str(config_file),
            "--voters", "2", "--bits", str(bits), "--seed", "1",
        )
        assert (rc, out) == (1, "")
        assert err.startswith("ERR ModulusTooSmall:")
        assert not d.exists()

    def test_negative_voter_count_is_a_usage_error(self, tmp_path, config_file, capsys):
        d = tmp_path / "neg"
        with pytest.raises(SystemExit) as exc_info:
            main(["setup", "--dir", str(d), "--config", str(config_file),
                  "--voters", "-3", "--bits", "512", "--seed", "1"])
        assert exc_info.value.code == 2
        assert "--voters" in capsys.readouterr().err
        assert not d.exists()

    def test_zero_voters_is_a_valid_roll(self, tmp_path, config_file, capsys):
        d = tmp_path / "empty"
        rc, out, _ = run(
            capsys, "setup", "--dir", str(d), "--config", str(config_file),
            "--voters", "0", "--bits", "512", "--seed", "1",
        )
        assert rc == 0
        assert "voters=0" in out
        assert (d / "registry.txt").read_text() == ""

    def test_narrowest_modulus_carries_a_ballot(self, tmp_path, config_file, capsys):
        d = tmp_path / "narrowest"
        rc, _, _ = run(
            capsys, "setup", "--dir", str(d), "--config", str(config_file),
            "--voters", "2", "--bits", "345", "--seed", "1",
        )
        assert rc == 0
        rc, _, _ = run(capsys, "vote", "--dir", str(d), "--voter", "V0001",
                       "--party", "0", "--seed", "2")
        assert rc == 0


class TestVote:
    def test_prints_payload_and_mails_it(self, election, capsys):
        rc, out, _ = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "0", "--approve", "0", "--approve", "2", "--seed", "11",
        )
        assert rc == 0
        assert out.startswith("BPV1|")
        box = (election / "ballotbox.txt").read_text().splitlines()
        assert box == [out.strip()]
        ballot = (election / "ballots" / "V0001.txt").read_text()
        assert ballot.splitlines()[-1] == out.strip()
        note = (election / "notes" / "V0001.txt").read_text()
        assert "PARTY: Alpha" in note
        assert "FOR Anna" in note
        assert "AGAINST Arno" in note

    def test_no_mail_keeps_box_empty(self, election, capsys):
        rc, _, _ = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0002",
            "--party", "1", "--seed", "12", "--no-mail",
        )
        assert rc == 0
        assert (election / "ballotbox.txt").read_text() == ""
        assert (election / "ballots" / "V0002.txt").exists()

    def test_double_vote_rejected(self, election, capsys):
        run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "0", "--seed", "1")
        rc, _, err = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "1", "--seed", "2",
        )
        assert rc == 1
        assert err.startswith("ERR AlreadyRequested:")

    def test_unknown_voter(self, election, capsys):
        rc, _, err = run(
            capsys, "vote", "--dir", str(election), "--voter", "NOBODY",
            "--party", "0", "--seed", "1",
        )
        assert rc == 1
        assert err.startswith("ERR UnknownVoter:")

    def test_bad_party_index(self, election, capsys):
        rc, _, err = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "9", "--seed", "1",
        )
        assert rc == 1
        assert err.startswith("ERR PartyOutOfRange:")

    def test_failed_save_keeps_the_log(self, election, capsys, tmp_path, monkeypatch):
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0002",
                       "--party", "0", "--seed", "22")
        assert rc == 0
        log = election / "requests.log"
        before = log.read_bytes()
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text("")
        with monkeypatch.context() as m:
            m.setattr(SigningAuthority, "save_request_log", disk_full)
            rc, _, err = run(capsys, "authority", "--dir", str(election),
                             "--mailbox", str(mailbox))
        assert rc == 1
        assert err.startswith("ERR IoFailure:")
        assert log.read_bytes() == before
        rc, _, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0002",
                         "--party", "1", "--seed", "23")
        assert rc == 1
        assert err.startswith("ERR AlreadyRequested:")

    def test_torn_box_line_does_not_swallow_the_next_ballot(self, election, capsys):
        # Appended after the cut, V0002's ballot would share the fragment's
        # line and be rejected with it.
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                       "--party", "0", "--seed", "21")
        assert rc == 0
        box = election / "ballotbox.txt"
        box.write_bytes(box.read_bytes()[:-20])
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0002",
                       "--party", "1", "--seed", "22")
        assert rc == 0
        rc, out, _ = run(capsys, "tally", "--dir", str(election), "--no-publish")
        assert rc == 0
        assert "ballots total=2 accepted=1 rejected=1 duplicates=0" in out
        assert "rejected 0 BadFraming" in out


def test_vote_tally_audit_verify_on_each_rsa_backend(rsa_backend, tmp_path, config_file,
                                                    capsys):
    d = str(tmp_path / "e")
    rc, _, _ = run(capsys, "setup", "--dir", d, "--config", str(config_file),
                   "--voters", "3", "--bits", "512", "--seed", "5")
    assert rc == 0
    for voter_id, party in (("V0001", "0"), ("V0002", "1")):
        rc, _, _ = run(capsys, "vote", "--dir", d, "--voter", voter_id, "--party", party,
                       "--approve", "1", "--seed", "6")
        assert rc == 0
    rc, out, _ = run(capsys, "tally", "--dir", d)
    assert rc == 0
    assert "ballots total=2 accepted=2 rejected=0 duplicates=0" in out
    rc, out, _ = run(capsys, "audit", "--dir", d)
    assert (rc, out.splitlines()[1:6]) == (0, [
        "requests_total=2", "requests_valid=2", "ballots_valid=2", "discrepancy=0",
        "cheat_flag=false",
    ])
    rc, out, _ = run(capsys, "verify", "--dir", d, "--file", f"{d}/ballots/V0002.txt")
    assert (rc, out.splitlines()[1:]) == (0, ["PARTY: Beta", "AGAINST Ben", "FOR Bea", "AGAINST Bo"])


class TestVerify:
    def test_payload_and_file_agree(self, election, capsys):
        _, out, _ = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "0", "--approve", "1", "--seed", "3",
        )
        payload = out.strip()
        rc, by_payload, _ = run(capsys, "verify", "--dir", str(election),
                                "--payload", payload)
        assert rc == 0
        rc2, by_file, _ = run(capsys, "verify", "--dir", str(election),
                              "--file", str(election / "ballots" / "V0001.txt"))
        assert rc2 == 0
        assert by_payload == by_file
        lines = by_payload.splitlines()
        assert lines[0] == f"VALID election {FIXTURE_ELECTION_ID.hex()}"
        assert lines[1] == "PARTY: Alpha"
        assert lines[2:] == ["AGAINST Anna", "FOR Arno", "AGAINST Avi"]

    def test_tampered_payload_fails(self, election, capsys):
        _, out, _ = run(
            capsys, "vote", "--dir", str(election), "--voter", "V0001",
            "--party", "0", "--seed", "3",
        )
        payload = out.strip()
        pos = len(payload) - 10
        flipped = payload[:pos] + ("A" if payload[pos] != "A" else "B") + payload[pos + 1:]
        rc, _, err = run(capsys, "verify", "--dir", str(election), "--payload", flipped)
        assert rc == 1
        assert err.startswith("ERR ")

    def test_empty_file_is_bad_framing(self, election, capsys, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        rc, _, err = run(capsys, "verify", "--dir", str(election), "--file", str(empty))
        assert rc == 1
        assert err.startswith("ERR BadFraming:")


class TestTallyAuditGate:
    def cast(self, capsys, election, voter, party, seed):
        rc, _, _ = run(
            capsys, "vote", "--dir", str(election), "--voter", voter,
            "--party", str(party), "--seed", str(seed),
        )
        assert rc == 0

    def test_tally_report_and_board_records(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        self.cast(capsys, election, "V0002", 0, 22)
        self.cast(capsys, election, "V0003", 1, 23)
        rc, out, _ = run(capsys, "tally", "--dir", str(election))
        assert rc == 0
        assert "ballots total=3 accepted=3 rejected=0 duplicates=0" in out
        assert "party 0 votes=2 name=Alpha" in out
        assert "party 1 votes=1 name=Beta" in out
        kinds = [line.split("|")[1]
                 for line in (election / "board.txt").read_text().splitlines()]
        assert kinds == ["META", "REQUEST", "REQUEST", "REQUEST",
                         "BALLOT_DIGEST", "BALLOT_DIGEST", "BALLOT_DIGEST",
                         "TALLY", "AUDIT"]
        assert board_verify(election / "board.txt") is None

    def test_board_does_not_pair_requesters_with_digests(self, tmp_path, config_file,
                                                          capsys):
        d = tmp_path / "order"
        rc = main(["setup", "--dir", str(d), "--config", str(config_file), "--voters", "5",
                   "--bits", "512", "--seed", "7"])
        assert rc == 0
        order = ["V0003", "V0001", "V0005", "V0002"]
        for i, voter_id in enumerate(order):
            self.cast(capsys, d, voter_id, i % 2, 40 + i)
        rc, _, _ = run(capsys, "tally", "--dir", str(d))
        assert rc == 0
        records = BulletinBoard(d / "board.txt").records()
        requesters = [r.payload.decode().split()[1] for r in records if r.kind == "REQUEST"]
        digests = [r.payload.decode() for r in records if r.kind == "BALLOT_DIGEST"]
        assert requesters == order
        lookups = [
            (d / "notes" / f"{voter_id}.txt").read_text().split("LOOKUP: ")[1].strip()
            for voter_id in order
        ]
        assert digests == sorted(lookups)
        assert digests != lookups  # box order would give each requester's digest away

    def test_second_tally_adds_no_request_record(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        for _ in range(2):
            rc, _, _ = run(capsys, "tally", "--dir", str(election))
            assert rc == 0
        kinds = [line.split("|")[1]
                 for line in (election / "board.txt").read_text().splitlines()]
        assert kinds == ["META", "REQUEST", "BALLOT_DIGEST", "TALLY", "AUDIT"]
        assert board_verify(election / "board.txt") is None

    def test_a_count_the_board_holds_adds_nothing(self, election, capsys):
        board = election / "board.txt"

        def tally_boards(k: int) -> list[bytes]:
            boards = []
            for _ in range(k):
                rc, _, _ = run(capsys, "tally", "--dir", str(election))
                assert rc == 0
                boards.append(board.read_bytes())
            return boards

        self.cast(capsys, election, "V0001", 0, 21)
        once, *again = tally_boards(3)
        assert again == [once, once]
        self.cast(capsys, election, "V0002", 1, 22)
        first, second = tally_boards(2)
        assert second == first
        added = BulletinBoard(board).records()[len(once.splitlines()):]
        assert [rec.kind for rec in added] == ["REQUEST", "BALLOT_DIGEST", "TALLY", "AUDIT"]
        assert board_verify(board) is None

    def test_a_count_that_repeats_an_older_one_is_published(self, election, capsys):
        # Against the board's last TALLY, not any earlier one: a box cut back
        # after a torn line gives the count before the tear again.
        self.cast(capsys, election, "V0001", 0, 21)
        box = election / "ballotbox.txt"
        before = box.read_bytes()
        reports = []
        for tail in (b"", b"BPV1|torn", b""):
            box.write_bytes(before + tail)
            rc, out, _ = run(capsys, "tally", "--dir", str(election))
            assert rc == 0
            reports.append(out)
        assert reports[0] == reports[2] != reports[1]
        records = BulletinBoard(election / "board.txt").records()
        tallies = [rec.payload.decode() for rec in records if rec.kind == "TALLY"]
        assert tallies == reports
        assert [rec.kind for rec in records].count("AUDIT") == 3

    def test_failed_write_leaves_the_board_as_it_was(self, election, capsys, monkeypatch):
        # A count is one batch: a write that fails at its TALLY record
        # publishes none of its REQUEST or BALLOT_DIGEST records either.
        self.cast(capsys, election, "V0001", 0, 21)
        self.cast(capsys, election, "V0002", 1, 22)
        before = (election / "board.txt").read_bytes()
        append = BoardBatch.append

        def full_at_tally(batch, kind, payload):
            if kind == "TALLY":
                raise OSError(errno.ENOSPC, "No space left on device")
            return append(batch, kind, payload)

        monkeypatch.setattr(BoardBatch, "append", full_at_tally)
        rc, out, err = run(capsys, "tally", "--dir", str(election))
        assert (rc, out) == (1, "")
        assert err.startswith("ERR IoFailure:")
        assert (election / "board.txt").read_bytes() == before

    @pytest.mark.parametrize("votes", [0, 1])
    def test_corrupt_board_is_chain_broken_with_or_without_votes(self, election, capsys,
                                                                 votes):
        if votes:
            self.cast(capsys, election, "V0001", 0, 21)
        path = election / "board.txt"
        path.write_text(path.read_text().replace("|META|", "|Meta|", 1))
        before = path.read_bytes()
        rc, out, err = run(capsys, "tally", "--dir", str(election))
        assert (rc, out) == (1, "")
        assert err == "ERR ChainBroken: hash chain broken at seq 0\n"
        assert path.read_bytes() == before

    def test_no_publish_leaves_board_alone(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        before = (election / "board.txt").read_text()
        rc, _, _ = run(capsys, "tally", "--dir", str(election), "--no-publish")
        assert rc == 0
        assert (election / "board.txt").read_text() == before

    @pytest.mark.parametrize("argv", [["tally"], ["tally", "--no-publish"], ["audit"]])
    def test_missing_ballot_box_is_io_failure(self, election, capsys, argv):
        self.cast(capsys, election, "V0001", 0, 21)
        (election / "ballotbox.txt").unlink()
        board = (election / "board.txt").read_bytes()
        rc, out, err = run(capsys, *argv, "--dir", str(election))
        assert (rc, out) == (1, "")
        assert err.startswith("ERR IoFailure:")
        assert (election / "board.txt").read_bytes() == board

    @pytest.mark.parametrize("argv", [["tally"], ["board", "verify"]])
    def test_missing_board_is_io_failure_and_not_created(self, election, capsys, argv):
        # setup wrote the board, so a missing one has lost the published
        # evidence: a new chain in its place would hide that.
        self.cast(capsys, election, "V0001", 0, 21)
        (election / "board.txt").unlink()
        rc, out, err = run(capsys, *argv, "--dir", str(election))
        assert (rc, out) == (1, "")
        assert err.startswith("ERR IoFailure:")
        assert not (election / "board.txt").exists()

    def test_audit_clean(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        self.cast(capsys, election, "V0002", 1, 22)
        rc, out, _ = run(capsys, "audit", "--dir", str(election))
        assert rc == 0
        assert "cheat_flag=false" in out
        assert "discrepancy=0" in out

    def test_audit_flags_stuffed_box(self, election, capsys):
        # A ballot with a real signature but no logged request trips the audit.
        self.cast(capsys, election, "V0001", 0, 21)
        key = _load_keypair(election)
        rng = random.Random(5)
        block = encode(VoteSelection(party_index=1), rng.randbytes(8))
        m = int.from_bytes(pad(block, FIXTURE_ELECTION_ID, key.byte_length), "big")
        sig = pow(m, key.d, key.n)
        from blindvote.voter import format_payload
        with (election / "ballotbox.txt").open("a") as f:
            f.write(format_payload(sig, key.public) + "\n")
        rc, out, _ = run(capsys, "audit", "--dir", str(election))
        assert rc == 3
        assert "cheat_flag=true" in out
        assert "discrepancy=1" in out

    def test_undecodable_box_line_gets_a_verdict(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        with (election / "ballotbox.txt").open("ab") as f:
            f.write(b"BPV1|\xe9\xff garbage\n")
        rc, out, _ = run(capsys, "tally", "--dir", str(election))
        assert rc == 0
        assert "ballots total=2 accepted=1 rejected=1 duplicates=0" in out
        assert "rejected 1 BadFraming" in out
        rc, out, _ = run(capsys, "audit", "--dir", str(election))
        assert rc == 0
        assert "ballots_valid=1" in out

    @pytest.mark.parametrize("bad_log, stops_every_reader", [
        pytest.param(lambda log: log + b"REQ V\xff01 "
                     + FIXTURE_ELECTION_ID.hex().encode() + b" 11 22\n", True,
                     id="undecodable"),
        # V0001's line twice: only the readers of the whole log see it.
        pytest.param(lambda log: log * 2, False, id="duplicate_voter"),
        # Torn appends: the first cut fails no field check, the second
        # leaves a signature of 32 bytes; both still parse as a REQ line.
        pytest.param(lambda log: log[:-1], True, id="torn_newline"),
        pytest.param(lambda log: log[:log.rindex(b" ") + 1 + 64], True,
                     id="torn_signature"),
    ])
    def test_undecodable_request_log_is_bad_framing(self, election, capsys, bad_log,
                                                    stops_every_reader):
        self.cast(capsys, election, "V0001", 0, 21)
        log = election / "requests.log"
        log.write_bytes(bad_log(log.read_bytes()))
        before = log.read_bytes()
        box = (election / "ballotbox.txt").read_bytes()
        mailbox = election.parent / "mail.txt"
        mailbox.write_text("")
        scoped = [
            ["gate", "V0002", "--dir", str(election)],
            ["vote", "--dir", str(election), "--voter", "V0002", "--party", "0",
             "--seed", "22"],
        ]
        for argv in (
            ["authority", "--dir", str(election), "--mailbox", str(mailbox)],
            ["tally", "--dir", str(election)],
            ["audit", "--dir", str(election)],
            *(scoped if stops_every_reader else []),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, ""), argv
            assert err.startswith("ERR BadFraming:"), argv
        assert log.read_bytes() == before
        assert (election / "ballotbox.txt").read_bytes() == box

    @pytest.mark.parametrize("name, commands", [
        ("registry.txt", ("gate", "tally", "vote")),
        ("credentials.txt", ("vote",)),
        ("election.cfg", ("tally", "vote")),
        ("authority.pub", ("tally",)),
        ("authority.key", ("vote",)),
    ])
    def test_undecodable_state_file_is_parse_error(self, election, capsys, name,
                                                   commands):
        self.cast(capsys, election, "V0001", 0, 21)
        with (election / name).open("ab") as f:
            f.write(b"\xff\n")
        state = ("requests.log", "ballotbox.txt", "board.txt")
        before = [(election / s).read_bytes() for s in state]
        argv = {
            "gate": ["gate", "V0002", "--dir", str(election)],
            "tally": ["tally", "--dir", str(election)],
            "vote": ["vote", "--dir", str(election), "--voter", "V0002",
                     "--party", "0", "--seed", "22"],
        }
        for command in commands:
            rc, out, err = run(capsys, *argv[command])
            assert (rc, out) == (1, ""), command
            assert err.startswith("ERR ParseError:"), command
        assert [(election / s).read_bytes() for s in state] == before

    @pytest.mark.parametrize("name, keyword, tally_rc", [
        ("registry.txt", "VOTER", 1),
        ("credentials.txt", "SECRET", 0),  # tally does not read credentials
    ])
    def test_malformed_line_of_another_voter_stops_no_vote_or_gate(
        self, election, capsys, name, keyword, tally_rc
    ):
        # vote and gate parse only the lines that contain their voter's id.
        malform(election / name, keyword, "V0002")
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert (rc, out) == (0, "ALLOW V0001\n")
        self.cast(capsys, election, "V0001", 0, 21)
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert (rc, out) == (3, "BLOCK V0001 reason=AlreadyRequested\n")
        rc, _, err = run(capsys, "tally", "--dir", str(election))
        assert rc == tally_rc
        if tally_rc:
            assert err.startswith("ERR ParseError: line 2:")

    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda log: log.replace(b"REQ V0002 ", b"REQ V0002 zz"),
                     id="malformed"),
        pytest.param(lambda log: log * 2, id="duplicated"),
    ])
    def test_bad_request_line_of_another_voter_stops_no_vote_or_gate(
        self, election, capsys, corrupt
    ):
        # vote and gate parse only the log lines that contain their voter's
        # id; V0002's own commands and the readers of the whole log still
        # refuse the log.
        self.cast(capsys, election, "V0002", 0, 21)
        log = election / "requests.log"
        log.write_bytes(corrupt(log.read_bytes()))
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert (rc, out) == (0, "ALLOW V0001\n")
        self.cast(capsys, election, "V0001", 0, 22)
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert (rc, out) == (3, "BLOCK V0001 reason=AlreadyRequested\n")
        state = ("requests.log", "ballotbox.txt", "board.txt")
        before = [(election / s).read_bytes() for s in state]
        mailbox = election.parent / "mail.txt"
        mailbox.write_text("")
        for argv in (
            ["gate", "V0002", "--dir", str(election)],
            ["vote", "--dir", str(election), "--voter", "V0002", "--party", "0",
             "--seed", "23"],
            ["authority", "--dir", str(election), "--mailbox", str(mailbox)],
            ["tally", "--dir", str(election)],
            ["audit", "--dir", str(election)],
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, ""), argv
            assert err.startswith("ERR BadFraming:"), argv
        assert [(election / s).read_bytes() for s in state] == before

    @pytest.mark.parametrize("name, keyword, commands", [
        ("registry.txt", "VOTER", ("gate", "vote", "tally")),
        ("credentials.txt", "SECRET", ("vote",)),
    ])
    def test_malformed_line_of_the_voter_is_parse_error(self, election, capsys, name,
                                                        keyword, commands):
        self.cast(capsys, election, "V0002", 0, 21)
        malform(election / name, keyword, "V0001")
        state = ("requests.log", "ballotbox.txt", "board.txt")
        before = [(election / s).read_bytes() for s in state]
        argv = {
            "gate": ["gate", "V0001", "--dir", str(election)],
            "tally": ["tally", "--dir", str(election)],
            "vote": ["vote", "--dir", str(election), "--voter", "V0001",
                     "--party", "0", "--seed", "22"],
        }
        for command in commands:
            rc, out, err = run(capsys, *argv[command])
            assert (rc, out) == (1, ""), command
            assert err.startswith("ERR ParseError: line 1:"), command
        assert [(election / s).read_bytes() for s in state] == before

    def test_gate_decisions(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert rc == 3
        assert out == "BLOCK V0001 reason=AlreadyRequested\n"
        rc, out, _ = run(capsys, "gate", "V0004", "--dir", str(election))
        assert rc == 0
        assert out == "ALLOW V0004\n"
        rc, out, _ = run(capsys, "gate", "GHOST", "--dir", str(election))
        assert rc == 3
        assert out == "BLOCK GHOST reason=UnknownVoter\n"

    def test_missing_request_log_fails_closed(self, election, capsys):
        self.cast(capsys, election, "V0001", 0, 21)
        (election / "requests.log").unlink()
        box = (election / "ballotbox.txt").read_bytes()
        mailbox = election.parent / "mail.txt"
        mailbox.write_text("")
        for argv in (
            ["vote", "--dir", str(election), "--voter", "V0001", "--party", "0",
             "--seed", "22"],
            ["authority", "--dir", str(election), "--mailbox", str(mailbox)],
            ["tally", "--dir", str(election)],
            ["audit", "--dir", str(election)],
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, ""), argv
            assert err.startswith("ERR IoFailure:"), argv
        assert not (election / "requests.log").exists()
        assert (election / "ballotbox.txt").read_bytes() == box

    def test_gate_fail_modes_without_log(self, election, capsys):
        (election / "requests.log").unlink()
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
        assert rc == 3
        assert out == "BLOCK V0001 reason=LookupUnavailable\n"
        rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election), "--fail-open")
        assert rc == 0
        assert out == "ALLOW V0001 reason=LookupUnavailable\n"


class TestUtf8Payloads:
    """Files and board payloads are UTF-8 text whatever the locale, so names
    and voter ids need not be ASCII."""

    @pytest.mark.parametrize(
        "party, cand, voter",
        [("Écolo", "Frédéric", "V0001"), ("Alpha", "Anna", "Zoë")],
    )
    def test_tally_publishes_non_ascii_text(self, tmp_path, capsys, party, cand, voter):
        config = make_config_2x3()
        first = dataclasses.replace(
            config.parties[0], name=party, candidates=(cand,) + config.parties[0].candidates[1:]
        )
        cfg = tmp_path / "cfg.txt"
        save_config(dataclasses.replace(config, parties=(first, config.parties[1])), cfg)
        d = tmp_path / "e"
        assert main(["setup", "--dir", str(d), "--config", str(cfg), "--voters", "2",
                     "--bits", "512", "--seed", "7"]) == 0
        if voter != "V0001":
            cred = CredentialIssuer(random.Random(5)).issue(voter)
            with (d / "registry.txt").open("a") as fh:
                save_registry({voter: cred.public}, fh)
            with (d / "credentials.txt").open("a") as fh:
                save_secrets([cred], fh)
        rc, _, _ = run(capsys, "vote", "--dir", str(d), "--voter", voter,
                       "--party", "0", "--approve", "0", "--seed", "21")
        assert rc == 0
        rc, report, _ = run(capsys, "tally", "--dir", str(d))
        assert rc == 0
        assert f"name={party}" in report and f"name={cand}" in report
        rc, _, _ = run(capsys, "audit", "--dir", str(d))
        assert rc == 0
        rc, out, _ = run(capsys, "board", "verify", "--dir", str(d))
        assert (rc, out) == (0, "OK records=5\n")
        payloads = {r.kind: r.payload for r in BulletinBoard(d / "board.txt").records()}
        assert payloads["TALLY"].decode() == report
        assert payloads["REQUEST"].decode() + "\n" == (d / "requests.log").read_text()

    def test_locale_changes_no_file_or_output(self, tmp_path):
        # C-locale coercion and UTF-8 mode would turn UTF-8 back on.
        ascii_env = {**_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
                     "PYTHONIOENCODING": "utf-8"}
        probe = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=ascii_env, capture_output=True, text=True, check=True,
        )
        if codecs.lookup(probe.stdout.strip()).name == "utf-8":
            pytest.skip("the C locale's encoding is UTF-8 here")
        own = _ci_election(tmp_path / "own", {**_env(), "PYTHONIOENCODING": "utf-8"})
        ascii_ = _ci_election(tmp_path / "ascii", ascii_env)
        assert [rc for rc, _ in own] == [0, 0, 0, 1, 0, 0, 0, 0, 3, 3, 0, 0]
        assert ascii_ == own
        files = [
            {path.relative_to(root): path.read_bytes()
             for path in sorted(root.rglob("*")) if path.is_file()}
            for root in (tmp_path / "own", tmp_path / "ascii")
        ]
        assert files[0] == files[1]
        assert "PARTY: Écolo\n" in files[0][Path("e/ballots/V0001.txt")].decode()

    def test_tally_that_cannot_print_publishes_nothing(self, tmp_path):
        # The report is encoded for stdout before the count is published, so
        # an ASCII stdout ends tally in an ERR line and leaves the board.
        ascii_env = {**_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        probe = subprocess.run(
            [sys.executable, "-c", "import sys; print(sys.stdout.encoding)"],
            env=ascii_env, capture_output=True, text=True, check=True,
        )
        if codecs.lookup(probe.stdout.strip()).name == "utf-8":
            pytest.skip("the C locale's encoding is UTF-8 here")
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes("ELECTION 00112233445566aa CI Election\nPARTY Écolo\nCAND Arno\n"
                        "PARTY Beta\nCAND Ben\n".encode())
        d = tmp_path / "e"
        assert main(["setup", "--dir", str(d), "--config", str(cfg), "--voters", "2",
                     "--bits", "512", "--seed", "1"]) == 0
        assert main(["vote", "--dir", str(d), "--voter", "V0001", "--party", "0",
                     "--seed", "2"]) == 0
        board = (d / "board.txt").read_bytes()
        for argv in (["tally", "--dir", str(d)], ["tally", "--dir", str(d), "--no-publish"]):
            done = subprocess.run([sys.executable, "-m", "blindvote.cli", *argv],
                                  env=ascii_env, capture_output=True, timeout=60)
            assert (done.returncode, done.stdout) == (1, b""), argv
            assert done.stderr.startswith(b"ERR IoFailure: "), argv
            assert b"Traceback" not in done.stderr, argv
        assert (d / "board.txt").read_bytes() == board


def _ci_election(root: Path, env: dict[str, str]) -> list[tuple[int, bytes]]:
    """CI's seeded election with non-ASCII names, one process per command
    run in `root`: each command's exit code and stdout. A voter Zoë, added
    to the roll, asks by mail, since under the C locale no argument can
    carry that id."""
    root.mkdir()
    (root / "election.cfg").write_bytes(
        "ELECTION 00112233445566aa CI Election\nPARTY Écolo\nCAND Frédéric\n"
        "CAND Arno\nPARTY Beta\nCAND Ben\n".encode()
    )

    def blindvote(*argv: str) -> tuple[int, bytes]:
        done = subprocess.run([sys.executable, "-m", "blindvote.cli", *argv], cwd=root,
                              env=env, capture_output=True, timeout=60)
        return done.returncode, done.stdout

    results = [
        blindvote("setup", "--dir", "e", "--config", "election.cfg", "--voters", "3",
                  "--bits", "512", "--seed", "1"),
        blindvote("vote", "--dir", "e", "--voter", "V0001", "--party", "0",
                  "--approve", "1", "--seed", "2"),
        blindvote("vote", "--dir", "e", "--voter", "V0002", "--party", "1", "--seed", "3"),
        blindvote("vote", "--dir", "e", "--voter", "V0001", "--party", "1", "--seed", "9"),
    ]
    zoe = CredentialIssuer(random.Random(5)).issue("Zoë")
    with (root / "e" / "registry.txt").open("a", encoding="utf-8") as fh:
        save_registry({zoe.voter_id: zoe.public}, fh)
    with (root / "e" / "credentials.txt").open("a", encoding="utf-8") as fh:
        save_secrets([zoe], fh)
    req = sign_request(zoe, bytes.fromhex("00112233445566aa"),
                       random.Random(4).getrandbits(500))
    (root / "mail.txt").write_bytes(f"{format_request(req)}\nREQ Frédéric\n".encode())
    return results + [
        blindvote("authority", "--dir", "e", "--mailbox", "mail.txt"),
        blindvote("vote", "--dir", "e", "--voter", "V0003", "--party", "0", "--seed", "6"),
        blindvote("tally", "--dir", "e"),
        blindvote("audit", "--dir", "e"),
        blindvote("gate", "--dir", "e", "V0001"),
        blindvote("gate", "--dir", "e", "V0003"),
        blindvote("verify", "--dir", "e", "--file", "e/ballots/V0001.txt"),
        blindvote("board", "verify", "--dir", "e"),
    ]


class TestAuthorityMailbox:
    def test_processes_req_lines(self, election, capsys, tmp_path):
        key = _load_keypair(election)
        with (election / "credentials.txt").open() as f:
            cred = load_secrets(f)["V0001"]
        rng = random.Random(3)
        block = encode(VoteSelection(party_index=0), rng.randbytes(8))
        m = int.from_bytes(pad(block, FIXTURE_ELECTION_ID, key.byte_length), "big")
        r = random_unit(key.n, rng)
        blinded = blind(m, r, key.public)
        req = sign_request(cred, FIXTURE_ELECTION_ID, blinded)
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(format_request(req) + "\n")
        rc, out, _ = run(capsys, "authority", "--dir", str(election),
                         "--mailbox", str(mailbox))
        assert rc == 0
        rsp = (tmp_path / "mail.txt.rsp").read_text().splitlines()
        assert len(rsp) == 1
        assert rsp[0].startswith("RSP OK ")
        sig = pow(int(rsp[0].split()[2], 16) * pow(r, -1, key.n), 1, key.n)
        assert pow(sig, key.e, key.n) == m
        # The request is now durable: a second identical line is refused.
        rc2, _, _ = run(capsys, "authority", "--dir", str(election),
                        "--mailbox", str(mailbox), "--out", str(tmp_path / "r2"))
        assert rc2 == 0
        assert (tmp_path / "r2").read_text().startswith("RSP ERR AlreadyRequested")

    def test_undecodable_mailbox_line_gets_a_response(self, election, capsys, tmp_path):
        mailbox = tmp_path / "mail.txt"
        mailbox.write_bytes(b"REQ V\xff01 " + FIXTURE_ELECTION_ID.hex().encode()
                            + b" 11 22\n\xe9\n")
        rc, _, _ = run(capsys, "authority", "--dir", str(election),
                       "--mailbox", str(mailbox))
        assert rc == 0
        rsp = (tmp_path / "mail.txt.rsp").read_text().splitlines()
        assert rsp == ["RSP ERR UnknownVoter", "RSP ERR BadFraming"]

    def test_negative_blinded_value_gets_bad_framing(self, election, capsys, tmp_path):
        good = _signed_request(election, "V0001")
        voter, eid, _, sig = good.split()[1:]
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(f"REQ V0002 {eid} -1f {sig}\n{good}\n")
        rc, _, _ = run(capsys, "authority", "--dir", str(election),
                       "--mailbox", str(mailbox))
        assert rc == 0
        rsp = (tmp_path / "mail.txt.rsp").read_text().splitlines()
        assert rsp[0] == "RSP ERR BadFraming"
        assert rsp[1].startswith("RSP OK ")
        logged = (election / "requests.log").read_text().splitlines()
        assert [line.split()[1] for line in logged] == [voter]

    def test_failed_save_releases_no_response(self, election, capsys, tmp_path,
                                              monkeypatch):
        log = election / "requests.log"
        before = log.read_bytes()
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(_signed_request(election, "V0001") + "\n")
        monkeypatch.setattr(SigningAuthority, "save_request_log", disk_full)
        rc, out, err = run(capsys, "authority", "--dir", str(election),
                           "--mailbox", str(mailbox))
        assert (rc, out) == (1, "")
        assert err.startswith("ERR IoFailure:")
        assert not (tmp_path / "mail.txt.rsp").exists()
        assert log.read_bytes() == before


class TestCommentLines:
    """requests.log, a mailbox and ballotbox.txt skip blank lines only, never
    '#' lines the way the keyword files do: a skipped log line would hide a
    logged voter from gate, a skipped mailbox line would break the rule of
    one RSP per non-blank line, and a skipped box line would drop a rejected
    ballot from the total."""

    def test_commented_request_log_line_is_bad_framing(self, election, capsys):
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                       "--party", "0", "--seed", "21")
        assert rc == 0
        log = election / "requests.log"
        log.write_text("#" + log.read_text())
        before = log.read_bytes()
        for argv in (
            ["gate", "V0001", "--dir", str(election)],
            ["vote", "--dir", str(election), "--voter", "V0001", "--party", "0",
             "--seed", "22"],
            ["tally", "--dir", str(election)],
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (1, ""), argv  # gate never answers ALLOW
            assert err.startswith("ERR BadFraming:"), argv
        assert log.read_bytes() == before

    def test_commented_mailbox_line_gets_a_response(self, election, capsys, tmp_path):
        good = _signed_request(election, "V0001")
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(f"# note\n#{good}\n\n{good}\n")
        rc, _, _ = run(capsys, "authority", "--dir", str(election),
                       "--mailbox", str(mailbox))
        assert rc == 0
        rsp = (tmp_path / "mail.txt.rsp").read_text().splitlines()
        assert rsp[:2] == ["RSP ERR BadFraming"] * 2
        assert len(rsp) == 3 and rsp[2].startswith("RSP OK ")

    def test_commented_box_line_is_a_rejected_ballot(self, election, capsys):
        rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                       "--party", "0", "--seed", "21")
        assert rc == 0
        with (election / "ballotbox.txt").open("a") as f:
            f.write("# note\n")
        rc, out, _ = run(capsys, "tally", "--dir", str(election))
        assert rc == 0
        assert "ballots total=2 accepted=1 rejected=1 duplicates=0" in out
        assert "rejected 1 BadFraming" in out


class TestSigningFault:
    """A signature that fails its s^e == b check never leaves the authority,
    and the request that asked for it is not logged."""

    def test_vote_writes_nothing(self, election, capsys, monkeypatch):
        inject_crt_fault(monkeypatch)
        log = (election / "requests.log").read_bytes()
        rc, out, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                           "--party", "0", "--seed", "11")
        assert (rc, out) == (1, "")
        assert err.startswith("ERR SigningFault:")
        assert not (election / "ballots" / "V0001.txt").exists()
        assert not (election / "notes" / "V0001.txt").exists()
        assert (election / "ballotbox.txt").read_text() == ""
        assert (election / "requests.log").read_bytes() == log

    def test_authority_answers_err(self, election, capsys, tmp_path, monkeypatch):
        inject_crt_fault(monkeypatch)
        log = (election / "requests.log").read_bytes()
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(_signed_request(election, "V0001") + "\n")
        rc, _, _ = run(capsys, "authority", "--dir", str(election),
                       "--mailbox", str(mailbox))
        assert rc == 0
        assert (tmp_path / "mail.txt.rsp").read_text() == "RSP ERR SigningFault\n"
        assert (election / "requests.log").read_bytes() == log


def test_voter_fault_after_signing_leaves_the_request_logged(election, capsys,
                                                            monkeypatch):
    # A fault on the voter's side after the authority signed (here a wrong
    # inverse, caught by the voter's own check) comes after the log commit:
    # the signature that was sent counts against a logged request, so an
    # owner who salvages it holds one valid ballot, and cannot vote again.
    exact_inverse, cast, failures = blindsig._inverse, voter.prepare_and_cast, []

    def wrong_once(t, n):
        inverse = exact_inverse(t, n)
        return inverse if failures else (inverse + 1) % n

    def keep_failure(*args, **kwargs):
        try:
            return cast(*args, **kwargs)
        except LocalVerifyFailed as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(blindsig, "_inverse", wrong_once)
    monkeypatch.setattr(voter, "prepare_and_cast", keep_failure)
    rc, out, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                       "--party", "0", "--seed", "2")
    assert (rc, out) == (1, "")
    assert err.startswith("ERR LocalVerifyFailed:")
    logged = (election / "requests.log").read_text().splitlines()
    assert [line.split()[1] for line in logged] == ["V0001"]
    assert not (election / "ballots" / "V0001.txt").exists()
    assert (election / "ballotbox.txt").read_text() == ""
    rc, out, _ = run(capsys, "gate", "--dir", str(election), "V0001")
    assert (rc, out) == (3, "BLOCK V0001 reason=AlreadyRequested\n")
    rc, _, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                     "--party", "1", "--seed", "3")
    assert rc == 1
    assert err.startswith("ERR AlreadyRequested:")
    # The voter's device knows r: Random(2) draws the nonce, then r.
    key = _load_keypair(election)
    rng = random.Random(2)
    rng.randbytes(8)
    r = random_unit(key.n, rng)
    signature = failures[0].returned * pow(r, -1, key.n) % key.n
    with (election / "ballotbox.txt").open("a") as fh:
        fh.write(voter.format_payload(signature, key.public) + "\n")
    rc, out, _ = run(capsys, "audit", "--dir", str(election))
    assert (rc, out.splitlines()[1:6]) == (0, [
        "requests_total=1", "requests_valid=1", "ballots_valid=1", "discrepancy=0",
        "cheat_flag=false",
    ])


def test_vote_unblinds_after_the_log_commit_and_its_lock(election, capsys, monkeypatch):
    # Only the authority's step holds requests.log: when the voter's half
    # unblinds, the request is on disk and another process may lock the log.
    log, seen, exact_unblind = election / "requests.log", [], blindsig.unblind

    def spy(*args):
        with log.open("rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)  # BlockingIOError if held
            seen.append(fh.read())
        return exact_unblind(*args)

    monkeypatch.setattr(blindsig, "unblind", spy)
    rc, _, err = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                     "--party", "0", "--seed", "2")
    assert (rc, err) == (0, "")
    assert len(seen) == 1
    assert seen[0].startswith(b"REQ V0001 ")


@pytest.mark.parametrize("command", ["vote", "authority", "tally"])
def test_failed_libcrypto_call_is_one_err_line(election, capsys, tmp_path, monkeypatch,
                                               command):
    # A failed call stops the command whole: the mailbox answers no line with
    # it, and tally does not count it as a rejected ballot.
    lib = blindsig._libcrypto()
    if lib is None:
        pytest.skip("libcrypto cannot be loaded")
    rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0002",
                   "--party", "1", "--seed", "3")
    assert rc == 0
    (tmp_path / "mail.txt").write_text(_signed_request(election, "V0001") + "\n")
    argv = {
        "vote": ["--voter", "V0001", "--party", "0", "--seed", "2"],
        "authority": ["--mailbox", str(tmp_path / "mail.txt")],
        "tally": [],
    }[command]
    before = {path: path.read_bytes() for path in election.glob("**/*") if path.is_file()}
    monkeypatch.setattr(lib, "BN_MONT_CTX_set", lambda *args: 0)
    rc, out, err = run(capsys, command, "--dir", str(election), *argv)
    assert (rc, out) == (1, "")
    assert err == "ERR LibraryFailure: libcrypto BN_MONT_CTX_set failed\n"
    assert {path: path.read_bytes() for path in election.glob("**/*")
            if path.is_file()} == before
    assert not (tmp_path / "mail.txt.rsp").exists()


@pytest.mark.parametrize("command, output", [
    pytest.param("vote", "V0001.txt", id="vote"),
    pytest.param("authority", "mail.txt.rsp", id="authority"),
])
def test_request_log_append_is_synced(election, capsys, tmp_path, monkeypatch,
                                      command, output):
    # Until requests.log is fsynced, power loss can drop the appended line
    # after the voter already holds a signature.
    if command == "vote":
        argv = ["--voter", "V0001", "--party", "0", "--seed", "11"]
    else:
        mailbox = tmp_path / "mail.txt"
        mailbox.write_text(_signed_request(election, "V0001") + "\n")
        argv = ["--mailbox", str(mailbox)]
    log = election / "requests.log"
    events = []
    fsync, write_text = os.fsync, Path.write_text

    def spy_fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def spy_write_text(path, *args, **kwargs):
        events.append(("write", path.name))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(Path, "write_text", spy_write_text)
    rc, _, _ = run(capsys, command, "--dir", str(election), *argv)
    assert rc == 0
    assert log.read_text().split()[1::5] == ["V0001"]
    assert events.index(("fsync", log.stat().st_ino)) < events.index(("write", output))


def test_box_and_board_appends_are_synced(election, capsys, monkeypatch):
    # The box and the board grow by the same append as requests.log, so a
    # mailed ballot and a published count are durable when the command ends.
    synced = set()
    fsync = os.fsync

    def spy_fsync(fd):
        synced.add(os.fstat(fd).st_ino)
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    for argv in (["vote", "--voter", "V0001", "--party", "0", "--seed", "11"],
                 ["tally"]):
        rc, _, _ = run(capsys, *argv, "--dir", str(election))
        assert rc == 0
    for name in ("requests.log", "ballotbox.txt", "board.txt"):
        assert (election / name).stat().st_ino in synced, name


# Run in a child process whose file size limit stops the box append part
# way: the kernel writes what fits, returns a short count, then refuses the
# rest with EFBIG.
_SIZE_LIMITED_VOTE = """
import resource, signal, sys
sys.path.insert(0, sys.argv[1])
from blindvote.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[3]), resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(main(["vote", "--dir", sys.argv[2], "--voter", "V0002", "--party", "1", "--seed", "22"]))
"""


def test_failed_box_append_is_cut_back_off(election, capsys):
    rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                   "--party", "0", "--seed", "21")
    assert rc == 0
    box = election / "ballotbox.txt"
    # Blank lines, which tally skips, make the box the largest file the vote
    # writes, so the limit falls inside the box append and nowhere before it.
    with box.open("a") as fh:
        fh.write("\n" * 4096)
    before = box.read_bytes()
    src = str(Path(blindvote.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SIZE_LIMITED_VOTE, src, str(election), str(len(before) + 40)],
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("ERR IoFailure:")
    assert box.read_bytes() == before
    rc, out, _ = run(capsys, "tally", "--dir", str(election), "--no-publish")
    assert rc == 0
    assert "ballots total=1 accepted=1 rejected=0 duplicates=0" in out


@pytest.mark.parametrize("argv", [["gate", "V0001"], ["tally", "--no-publish"],
                                  ["audit"]])
def test_readers_wait_for_a_commit_in_progress(election, capsys, argv):
    # The shared flock on requests.log is what keeps a reader from seeing
    # part of an append; a commit holds the exclusive one on the same file.
    results = []
    reader = threading.Thread(
        target=lambda: results.append(main([*argv, "--dir", str(election)])))
    fd = os.open(election / "requests.log", os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        reader.start()
        reader.join(timeout=0.5)
        assert reader.is_alive() and results == []
    finally:
        os.close(fd)
    reader.join(timeout=60)
    assert results == [0]


@pytest.mark.parametrize("argv", [
    ["vote", "--voter", "V0001", "--party", "0", "--seed", "11"],
    ["tally", "--no-publish"],
])
def test_box_append_and_read_wait_for_the_box_lock(election, capsys, argv):
    # The box is locked on its own file like the log and the board: a vote
    # waits to append, and a count to read, while another process appends.
    results = []
    worker = threading.Thread(
        target=lambda: results.append(main([*argv, "--dir", str(election)])))
    fd = os.open(election / "ballotbox.txt", os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        worker.start()
        worker.join(timeout=0.5)
        assert worker.is_alive() and results == []
    finally:
        os.close(fd)
    worker.join(timeout=60)
    assert results == [0]


@pytest.mark.parametrize("tear", [
    pytest.param(lambda log: log[:-1], id="newline"),
    pytest.param(lambda log: log[:log.rindex(b" ") + 1 + 64], id="signature"),
])
def test_torn_request_log_is_refused_until_truncated(election, capsys, tear):
    # A kill inside V0001's commit left its line torn, so its ballot was never
    # mailed. Whether or not the fragment parses, no command reads or extends
    # the log until it is truncated after its last "\n"; then V0001 can vote.
    def vote(voter_id, party, seed, *flags):
        return run(capsys, "vote", "--dir", str(election), "--voter", voter_id,
                   "--party", party, "--seed", seed, *flags)[0]

    assert vote("V0001", "0", "21", "--no-mail") == 0
    log = election / "requests.log"
    log.write_bytes(tear(log.read_bytes()))
    torn = log.read_bytes()
    board = (election / "board.txt").read_bytes()
    for argv in (
        ["vote", "--dir", str(election), "--voter", "V0002", "--party", "1",
         "--seed", "22"],
        ["vote", "--dir", str(election), "--voter", "V0001", "--party", "0",
         "--seed", "23"],
        ["gate", "V0001", "--dir", str(election)],
        ["gate", "V0002", "--dir", str(election), "--fail-open"],
        ["tally", "--dir", str(election)],
        ["audit", "--dir", str(election)],
    ):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, ""), argv
        assert err.startswith("ERR BadFraming:"), argv
    assert log.read_bytes() == torn
    assert (election / "ballotbox.txt").read_bytes() == b""
    assert (election / "board.txt").read_bytes() == board
    log.write_bytes(torn[:torn.rfind(b"\n") + 1])
    assert vote("V0001", "0", "23") == 0
    assert vote("V0002", "1", "22") == 0
    with log.open() as fh:
        assert [req.voter_id for req in read_request_log(fh)] == ["V0001", "V0002"]
    rc, out, _ = run(capsys, "audit", "--dir", str(election))
    assert rc == 0
    assert out.splitlines()[1:4] == ["requests_total=2", "requests_valid=2",
                                     "ballots_valid=2"]


class TestBoardCommand:
    def test_ok_both_flags(self, election, capsys):
        rc, out, _ = run(capsys, "board", "verify", "--dir", str(election))
        assert rc == 0
        assert out == "OK records=1\n"
        rc, out, _ = run(capsys, "board", "verify", "--board",
                         str(election / "board.txt"))
        assert (rc, out) == (0, "OK records=1\n")

    def test_missing_board_is_empty_and_not_created(self, tmp_path, capsys):
        board = tmp_path / "board.txt"
        rc, out, _ = run(capsys, "board", "verify", "--board", str(board))
        assert (rc, out) == (0, "OK records=0\n")
        assert not board.exists()

    def test_counts_only_the_records_it_verified(self, election, capsys, monkeypatch):
        # A record published right after the replay must wait for the count:
        # board verify holds a shared flock on the board across both reads.
        path = election / "board.txt"
        verify = board_mod.board_verify
        writers = []

        def verify_then_publish(board):
            broken = verify(board)
            writer = threading.Thread(
                target=BulletinBoard(path).append, args=("META", b"late")
            )
            writer.start()
            writer.join(timeout=1.0)  # returns at once where nothing blocks it
            writers.append(writer)
            return broken

        monkeypatch.setattr(board_mod, "board_verify", verify_then_publish)
        rc, out, _ = run(capsys, "board", "verify", "--dir", str(election))
        writers[0].join(timeout=10.0)
        assert not writers[0].is_alive()
        assert (rc, out) == (0, "OK records=1\n")
        assert len(BulletinBoard(path).records()) == 2

    def test_tamper_reported_with_seq(self, election, capsys):
        for voter, seed in (("V0001", 1), ("V0002", 2)):
            run(capsys, "vote", "--dir", str(election), "--voter", voter,
                "--party", "0", "--seed", str(seed))
        run(capsys, "tally", "--dir", str(election))
        path = election / "board.txt"
        lines = path.read_text().splitlines()
        seq, kind, _, chain = lines[3].split("|")
        lines[3] = "|".join((seq, kind, "eA==", chain))
        path.write_text("\n".join(lines) + "\n")
        rc, _, err = run(capsys, "board", "verify", "--dir", str(election))
        assert rc == 1
        assert err == "ERR ChainBroken: first broken record seq=3\n"

    def test_non_ascii_digit_reported_with_seq(self, election, capsys):
        # int() reads ARABIC-INDIC DIGIT ONE as 1, and the chain hashes the
        # int, so only reading the board as ASCII catches this edit.
        BulletinBoard(election / "board.txt").append("META", b"second")
        path = election / "board.txt"
        first, second = path.read_bytes().splitlines(keepends=True)
        assert second.startswith(b"1|")
        path.write_bytes(first + "\u0661".encode() + second[1:])
        rc, _, err = run(capsys, "board", "verify", "--dir", str(election))
        assert rc == 1
        assert err == "ERR ChainBroken: first broken record seq=1\n"


class TestLegacySim:
    def test_scenario_run_and_determinism(self, tmp_path, config_file, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text("HONEST 6\nCOMPROMISED 3\nSEED 5\n")
        rc, first, _ = run(capsys, "legacy-sim", str(scen), "--config", str(config_file))
        assert rc == 0
        assert "counted=6" in first
        assert "invalidated=3" in first
        assert "all_compromised_k_checks_passed=true" in first
        rc, second, _ = run(capsys, "legacy-sim", str(scen), "--config", str(config_file))
        assert second == first

    def test_seed_override_changes_run(self, tmp_path, config_file, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text("HONEST 6\nCOMPROMISED 3\nSEED 5\n")
        _, base, _ = run(capsys, "legacy-sim", str(scen), "--config", str(config_file))
        _, other, _ = run(capsys, "legacy-sim", str(scen), "--config", str(config_file),
                          "--seed", "6")
        assert other != base

    def test_board_publication(self, tmp_path, config_file, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_text("HONEST 4\nCOMPROMISED 0\nSEED 2\n")
        board = tmp_path / "legacy_board.txt"
        rc, _, _ = run(capsys, "legacy-sim", str(scen), "--config", str(config_file),
                       "--board", str(board))
        assert rc == 0
        kinds = {line.split("|")[1] for line in board.read_text().splitlines()}
        assert kinds == {"CODE_PUBLISH"}
        assert board_verify(board) is None

    def test_undecodable_scenario_is_parse_error(self, tmp_path, config_file, capsys):
        scen = tmp_path / "scen.txt"
        scen.write_bytes(b"HONEST 2\nCOMPROMISED 0\n\xff\n")
        rc, out, err = run(capsys, "legacy-sim", str(scen), "--config", str(config_file))
        assert (rc, out) == (1, "")
        assert err.startswith("ERR ParseError: line 3:")

    def test_only_legacy_sim_imports_legacy(self, tmp_path, config_file):
        # Every command's start-up pays for what `import blindvote.cli` loads:
        # no ctypes library until one is needed, and legacy for legacy-sim only.
        scen = tmp_path / "scen.txt"
        scen.write_text("HONEST 2\nCOMPROMISED 2\nSEED 5\n")
        src = str(Path(blindvote.__file__).resolve().parents[1])
        argv = ["legacy-sim", str(scen), "--config", str(config_file)]
        probe = (
            f"import sys; sys.path.insert(0, {src!r}); import blindvote.cli; "
            "loaded = lambda: sorted(m for m in sys.modules "
            "if m in ('blindvote.legacy', 'ctypes')); "
            f"print(loaded()); rc = blindvote.cli.main({argv!r}); print(rc, loaded())"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert out[0] == "[]"
        assert "counted=2" in out[1:] and "invalidated=2" in out[1:]
        assert out[-1] == "0 ['blindvote.legacy']"


class TestUsageAndErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["bogus"])
        assert exc_info.value.code == 2

    def test_missing_dir_reports_io_failure(self, tmp_path, capsys):
        rc, _, err = run(capsys, "audit", "--dir", str(tmp_path / "nowhere"))
        assert rc == 1
        assert err.startswith("ERR ")

    def test_regular_file_as_dir_reports_io_failure(self, tmp_path, capsys):
        not_a_dir = tmp_path / "plain.txt"
        not_a_dir.write_text("")
        rc, _, err = run(capsys, "audit", "--dir", str(not_a_dir))
        assert rc == 1
        assert err.startswith("ERR IoFailure:")


# Each racer imports the package, reports ready, then waits for the go file,
# so all of them enter their command within a millisecond or so. A racer
# runs its command `repeat` times in a row and exits with the largest code.
_RACER = """
import sys, time
from pathlib import Path
from blindvote.cli import main
Path(sys.argv[1]).touch()
go = Path(sys.argv[2])
while not go.exists():
    time.sleep(0.0005)
sys.exit(max(main(sys.argv[4:]) for _ in range(int(sys.argv[3]))))
"""


def _env():
    """os.environ with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(blindvote.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _race(tmp_path, argvs, timeout=60.0, repeats=None):
    """Run `blindvote` once per argv, or repeats[i] times in a row for argv i,
    in one process per argv, all released at once; return (rc, stderr)."""
    env = _env()
    go = tmp_path / "go"
    ready = [tmp_path / f"ready{i}" for i in range(len(argvs))]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _RACER, str(flag), str(go), str(repeat), *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env,
        )
        for flag, repeat, argv in zip(ready, repeats or [1] * len(argvs), argvs)
    ]
    try:
        deadline = time.monotonic() + timeout
        while not all(flag.exists() for flag in ready):
            assert time.monotonic() < deadline, "racers did not start"
            time.sleep(0.01)
        go.touch()
        errs = [p.communicate(timeout=timeout)[1] for p in procs]
        return [(p.returncode, err) for p, err in zip(procs, errs)]
    finally:
        for p in procs:
            p.kill()
            p.communicate()


class TestConcurrentProcesses:
    """`vote` runs in separate processes against one directory."""

    @pytest.fixture()
    def six_voters(self, tmp_path, config_file):
        d = tmp_path / "e6"
        assert main(["setup", "--dir", str(d), "--config", str(config_file),
                     "--voters", "6", "--bits", "512", "--seed", "8"]) == 0
        return d

    def test_distinct_voters_keep_every_request(self, six_voters, tmp_path, capsys):
        argvs = [["vote", "--dir", str(six_voters), "--voter", f"V000{i}",
                  "--party", "0", "--seed", str(i)] for i in range(1, 7)]
        assert [rc for rc, _ in _race(tmp_path, argvs)] == [0] * 6
        logged = (six_voters / "requests.log").read_text().split()[1::5]
        assert sorted(logged) == [f"V000{i}" for i in range(1, 7)]
        rc, out, _ = run(capsys, "audit", "--dir", str(six_voters))
        assert rc == 0
        assert "requests_valid=6" in out and "ballots_valid=6" in out

    def test_gates_never_read_part_of_an_append(self, six_voters, tmp_path):
        # Each append writes whole lines under the exclusive lock, and gate
        # reads under the shared one, so a gate polling during the votes sees
        # each line whole or not at all.
        votes = [["vote", "--dir", str(six_voters), "--voter", f"V000{i}",
                  "--party", "0", "--seed", str(i)] for i in range(1, 7)]
        gates = [["gate", f"V000{i}", "--dir", str(six_voters)] for i in (1, 4, 6)]
        results = _race(tmp_path, votes + gates, repeats=[1] * 6 + [60] * 3)
        assert results[:6] == [(0, "")] * 6
        assert all(rc in (0, 3) and err == "" for rc, err in results[6:]), results[6:]
        with (six_voters / "requests.log").open() as fh:
            logged = [req.voter_id for req in read_request_log(fh)]
        assert sorted(logged) == [f"V000{i}" for i in range(1, 7)]

    def test_one_voter_gets_one_ballot(self, six_voters, tmp_path):
        argvs = [["vote", "--dir", str(six_voters), "--voter", "V0001",
                  "--party", "1", "--seed", str(i)] for i in range(4)]
        results = _race(tmp_path, argvs)
        assert sorted(rc for rc, _ in results) == [0, 1, 1, 1]
        assert all(err.startswith("ERR AlreadyRequested:") for rc, err in results if rc)
        assert len((six_voters / "requests.log").read_text().splitlines()) == 1
        assert len((six_voters / "ballotbox.txt").read_text().splitlines()) == 1

    def test_board_writers_share_one_chain(self, tmp_path, config_file):
        # legacy-sim --board appends one CODE_PUBLISH record per honest voter.
        scen = tmp_path / "scen.txt"
        scen.write_text("HONEST 20\nCOMPROMISED 0\n")
        board = tmp_path / "shared_board.txt"
        argvs = [["legacy-sim", str(scen), "--config", str(config_file),
                  "--board", str(board), "--seed", str(i)] for i in range(4)]
        assert [rc for rc, _ in _race(tmp_path, argvs)] == [0] * 4
        assert board_verify(board) is None
        assert len(board.read_text().splitlines()) == 80

    def test_tallies_publish_each_request_once(self, election, tmp_path, capsys):
        for i, vid in enumerate(("V0001", "V0002", "V0003")):
            rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", vid,
                           "--party", "0", "--seed", str(30 + i))
            assert rc == 0
        logged = (election / "requests.log").read_text().splitlines()
        argvs = [["tally", "--dir", str(election)] for _ in range(4)]
        assert [rc for rc, _ in _race(tmp_path, argvs)] == [0] * 4
        board = election / "board.txt"
        assert board_verify(board) is None
        requests = [rec.payload.decode() for rec in BulletinBoard(board).records()
                    if rec.kind == "REQUEST"]
        assert sorted(requests) == sorted(logged)

    def test_gate_blocks_a_logged_voter_during_votes(self, tmp_path, config_file,
                                                     capsys):
        d = tmp_path / "e41"
        assert run(capsys, "setup", "--dir", str(d), "--config", str(config_file),
                   "--voters", "41", "--bits", "512", "--seed", "9")[0] == 0
        assert run(capsys, "vote", "--dir", str(d), "--voter", "V0001", "--party", "0",
                   "--seed", "1")[0] == 0
        voter = subprocess.Popen(
            [sys.executable, "-c", _VOTE_LOOP, str(d), "41"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=_env(),
        )
        verdicts = []
        try:
            while voter.poll() is None:
                verdicts.append(run(capsys, "gate", "V0001", "--dir", str(d)))
            _, err = voter.communicate(timeout=60)
        finally:
            voter.kill()
            voter.communicate()
        assert voter.returncode == 0, err
        wrong = [v for v in verdicts
                 if v[:2] != (3, "BLOCK V0001 reason=AlreadyRequested\n")]
        assert not wrong, f"{len(wrong)} of {len(verdicts)} checks: {wrong[:3]}"
        assert len((d / "requests.log").read_text().splitlines()) == 41


# Casts votes for V0002..V<n> one after another in a single process.
_VOTE_LOOP = """
import sys
from blindvote.cli import main
d, n = sys.argv[1], int(sys.argv[2])
sys.exit(max(main(["vote", "--dir", d, "--voter", f"V{i:04d}", "--party", "0",
                   "--seed", str(i)]) for i in range(2, n + 1)))
"""


def malform(path: Path, keyword: str, voter_id: str) -> None:
    """Make the voter's line in a VOTER or SECRET file fail its hex check."""
    text = path.read_text()
    line = f"{keyword} {voter_id} "
    assert text.count(line) == 1
    path.write_text(text.replace(line, line + "zz"))


def test_vote_and_gate_parse_one_line_of_a_large_roll(tmp_path, config_file, capsys,
                                                      monkeypatch):
    d = tmp_path / "roll"
    rc, _, _ = run(capsys, "setup", "--dir", str(d), "--config", str(config_file),
                   "--voters", "3000", "--bits", "512", "--seed", "3")
    assert rc == 0
    parsed = []
    real = identity._keyed_line

    def counted(lineno, *rest):
        parsed.append(lineno)
        return real(lineno, *rest)

    monkeypatch.setattr(identity, "_keyed_line", counted)
    rc, _, _ = run(capsys, "vote", "--dir", str(d), "--voter", "V2718", "--party", "1",
                   "--seed", "4")
    assert (rc, parsed) == (0, [2718, 2718])  # its SECRET line, then its VOTER line
    parsed.clear()
    rc, out, _ = run(capsys, "gate", "V2718", "--dir", str(d))
    assert (rc, out, parsed) == (3, "BLOCK V2718 reason=AlreadyRequested\n", [2718])
    parsed.clear()
    rc, _, _ = run(capsys, "audit", "--dir", str(d))
    assert (rc, len(parsed)) == (0, 3000)  # the audit still reads the whole roll


def test_vote_and_gate_parse_one_line_of_a_large_request_log(election, capsys,
                                                             monkeypatch):
    # 1,000 other voters' well-formed lines: vote parses none of them and
    # gate only its voter's own, while the audit still parses every line.
    line = _signed_request(election, "V0002")
    (election / "requests.log").write_text(
        "".join(line.replace("V0002", f"X{i:04d}", 1) + "\n" for i in range(1000))
    )
    parsed = []
    real = authority_mod.parse_request

    def counted(text):
        parsed.append(text.split()[1])
        return real(text)

    monkeypatch.setattr(authority_mod, "parse_request", counted)
    rc, _, _ = run(capsys, "vote", "--dir", str(election), "--voter", "V0001",
                   "--party", "1", "--seed", "4")
    assert (rc, parsed) == (0, [])
    rc, out, _ = run(capsys, "gate", "V0001", "--dir", str(election))
    assert (rc, out, parsed) == (3, "BLOCK V0001 reason=AlreadyRequested\n", ["V0001"])
    parsed.clear()
    rc, _, _ = run(capsys, "audit", "--dir", str(election))
    assert (rc, len(parsed)) == (0, 1001)


def _signed_request(election, voter_id):
    """A REQ line for `voter_id` carrying a freshly blinded ballot."""
    key = _load_keypair(election)
    with (election / "credentials.txt").open() as f:
        cred = load_secrets(f)[voter_id]
    rng = random.Random(3)
    block = encode(VoteSelection(party_index=0), rng.randbytes(8))
    m = int.from_bytes(pad(block, FIXTURE_ELECTION_ID, key.byte_length), "big")
    blinded = blind(m, random_unit(key.n, rng), key.public)
    return format_request(sign_request(cred, FIXTURE_ELECTION_ID, blinded))


def _load_keypair(election):
    from blindvote.blindsig import load_keypair
    with (election / "authority.key").open() as f:
        return load_keypair(f)
