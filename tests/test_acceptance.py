"""Acceptance gates for the whole package.

Each test guards one release criterion and prints a PASS/FAIL line on the
real stdout so a plain `pytest tests/test_acceptance.py` run reads as a
checklist. The gates exercise the library end to end: exhaustive small-field
arithmetic, the full postal flow at desk scale, the attack demos, and the
evidence chain.
"""
from __future__ import annotations

import base64
import math
import random
import time
from contextlib import contextmanager

from blindvote import codec
from blindvote.authority import SigningAuthority
from blindvote.blindsig import (
    TOY_KEY,
    blind,
    random_unit,
    sign_blinded,
    unblind,
    verify_recover,
)
from blindvote.board import BulletinBoard, board_verify
from blindvote.election import ElectionConfig, Party, VoteSelection
from blindvote.errors import (
    BadStructure,
    DecodeError,
    PartyOutOfRange,
    ProtocolError,
    WrongElection,
)
from blindvote.identity import CredentialIssuer, SigningRequest, sign_request, verify_request
from blindvote.legacy import LegacyScenario, run_scenario
from blindvote.tally import eligibility_audit, polling_gate, tally
from blindvote.voter import format_payload, prepare_and_cast, verify_ballot

from conftest import make_config_2x3
from reference_tally import reference_count


@contextmanager
def criterion(capsys, num: int, desc: str):
    """Print one checklist line per gate on the real terminal."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} FAIL: {desc}", flush=True)
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} PASS: {desc}", flush=True)


def units_of(n: int) -> list[int]:
    return [x for x in range(n) if math.gcd(x, n) == 1]


class Election:
    """n voters, one authority, everything in process."""

    def __init__(self, key, n_voters: int, seed: int, config=None):
        self.config = config or make_config_2x3()
        self.key = key
        self.rng = random.Random(seed)
        issuer = CredentialIssuer(self.rng)
        self.creds = [issuer.issue(f"V{i:04d}") for i in range(n_voters)]
        self.registry = issuer.registry
        self.auth = SigningAuthority(self.config, key, self.registry)

    def cast(self, voter_index: int, sel: VoteSelection) -> str:
        artifact, _ = prepare_and_cast(
            self.config,
            self.creds[voter_index],
            sel,
            self.key.public,
            self.auth.handle_request,
            self.rng,
        )
        return artifact.payload

    def forge(self, sel: VoteSelection) -> str:
        """Corrupt-authority ballot: valid signature, no logged request."""
        corrupt = SigningAuthority(
            self.config, self.key, self.registry, allow_corrupt=True
        )
        block = codec.encode(sel, self.rng.randbytes(8))
        m = codec.bytes_to_int(
            codec.pad(block, self.config.election_id, self.key.byte_length)
        )
        r = random_unit(self.key.n, self.rng)
        s = unblind(corrupt.corrupt_sign(blind(m, r, self.key.public)), r, self.key.public)
        return format_payload(s, self.key.public)

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

    def random_selection(self) -> VoteSelection:
        party = self.rng.randrange(len(self.config.parties))
        n_cands = len(self.config.parties[party].candidates)
        approvals = frozenset(
            i for i in range(n_cands) if self.rng.random() < 0.5
        )
        return VoteSelection(party_index=party, approvals=approvals)


def test_01_signature_identity_exhaustive(capsys):
    with criterion(capsys, 1, "sign/unblind identity over every m and unit r, N=253"):
        key = TOY_KEY
        units = units_of(key.n)
        assert len(units) == 220
        start = time.perf_counter()
        failures = 0
        for m in range(key.n):
            for r in units:
                b = blind(m, r, key.public)
                s = unblind(sign_blinded(b, key), r, key.public)
                if verify_recover(s, key.public) != m:
                    failures += 1
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 10.0, f"exhaustive sweep took {elapsed:.1f}s"


def test_02_blinding_is_bijective_on_units(capsys):
    with criterion(capsys, 2, "r -> blind(m,r) permutes the units for every unit m"):
        key = TOY_KEY
        units = units_of(key.n)
        unit_set = set(units)
        for m in units:
            image = {blind(m, r, key.public) for r in units}
            assert image == unit_set, f"blinding not bijective at m={m}"


def test_03_encoding_budget(capsys):
    with criterion(capsys, 3, "256-bit ballot block, 255 parties, 152 approval bits"):
        assert codec.BALLOT_LEN * 8 == 256
        assert codec.MASK_BITS == 152
        config = make_config_2x3()
        # every selection a 2x3 election allows
        count = 0
        for party in range(2):
            for bits in range(8):
                sel = VoteSelection(
                    party_index=party,
                    approvals=frozenset(i for i in range(3) if bits >> i & 1),
                )
                block = codec.encode(sel, b"\x07" * 8)
                assert len(block) == 32
                got_sel, got_nonce = codec.decode(block, config)
                assert (got_sel, got_nonce) == (sel, b"\x07" * 8)
                count += 1
        assert count == 16
        # random selections over the widest config the block supports
        wide = ElectionConfig(
            election_id=bytes(range(8)),
            title="wide",
            parties=tuple(
                Party(
                    name=f"P{p}",
                    candidates=tuple(f"P{p}C{c}" for c in range(152)),
                )
                for p in range(255)
            ),
        )
        rng = random.Random(0xACC3)
        for _ in range(10_000):
            sel = VoteSelection(
                party_index=rng.randrange(255),
                approvals=frozenset(
                    rng.randrange(152) for _ in range(rng.randrange(6))
                ),
            )
            block = codec.encode(sel, rng.randbytes(8))
            got_sel, _ = codec.decode(block, wide)
            assert got_sel == sel


def test_04_honest_election_1000_voters(key2048, capsys):
    with criterion(capsys, 4, "1,000 scripted voters on a 2048-bit key, exact tally"):
        start = time.perf_counter()
        world = Election(key2048, 1000, seed=0x04E1)
        script = [world.random_selection() for _ in range(1000)]
        expected_party = [0, 0]
        expected_cands = [[0, 0, 0], [0, 0, 0]]
        box = []
        for i, sel in enumerate(script):
            expected_party[sel.party_index] += 1
            for c in sel.approvals:
                expected_cands[sel.party_index][c] += 1
            box.append(world.cast(i, sel))
        result = tally(key2048.public, world.config, box)
        audit = eligibility_audit(world.registry, world.requests(), result)
        elapsed = time.perf_counter() - start
        assert result.accepted == 1000
        assert result.rejected == ()
        assert result.duplicates == ()
        assert list(result.party_votes) == expected_party
        assert [list(c) for c in result.candidate_votes] == expected_cands
        assert audit.requests_total == 1000
        assert audit.requests_valid == 1000
        assert audit.ballots_valid == 1000
        assert audit.cheat_flag is False
        assert elapsed < 60.0, f"election took {elapsed:.1f}s"


def test_05_cheating_authority_detected(key512, capsys):
    with criterion(capsys, 5, "5 unlogged signatures among 1,000 voters: discrepancy=5"):
        world = Election(key512, 1000, seed=0x05E1)
        box = [world.cast(i, world.random_selection()) for i in range(1000)]
        box += [world.forge(world.random_selection()) for _ in range(5)]
        result = tally(key512.public, world.config, box)
        assert result.accepted == 1005
        audit = eligibility_audit(world.registry, world.requests(), result)
        assert audit.cheat_flag is True
        assert audit.discrepancy == 5


def test_06_k_reuse_attack_vs_blind_pipeline(key512, capsys):
    with criterion(capsys, 6, "shared-k attack voids 50 of 1,000; blind flow counts all"):
        config = make_config_2x3()
        report = run_scenario(
            config, LegacyScenario(honest=950, compromised=50, seed=0x06E1)
        )
        assert len(report.result.counted) == 950
        assert len(report.result.invalidated) == 50
        assert report.k_checks_passed, "a compromised k failed the validity check"
        # the same 1,000 selections, this time with blind signatures
        world = Election(key512, 1000, seed=0x06E2)
        box = [world.cast(i, sel) for i, sel in enumerate(report.selections)]
        result = tally(key512.public, config, box)
        assert result.accepted == 1000
        assert result.rejected == ()
        assert result.duplicates == ()


def test_07_tamper_rejection(key512, capsys):
    with criterion(capsys, 7, "256 payload bit flips and 100 request bit flips all refused"):
        world = Election(key512, 400, seed=0x07E1)
        rng = random.Random(0x07E2)
        rejected = 0
        for i in range(256):
            payload = world.cast(i, world.random_selection())
            body = payload.split("|")[1]
            s = codec.bytes_to_int(
                base64.urlsafe_b64decode(body + "=" * (-len(body) % 4))
            )
            while True:
                flipped = s ^ (1 << rng.randrange(key512.n.bit_length() - 1))
                if flipped < key512.n:
                    break
            try:
                verify_ballot(key512.public, world.config, format_payload(flipped, key512.public))
            except (BadStructure, WrongElection, DecodeError, PartyOutOfRange):
                rejected += 1
        assert rejected == 256
        # requests: flip one bit somewhere in any field
        failures = 0
        for i in range(100):
            cred = world.creds[rng.randrange(len(world.creds))]
            blinded = random_unit(key512.n, rng)
            req = sign_request(cred, world.config.election_id, blinded)
            field = rng.randrange(4)
            if field == 0:
                ids = bytearray(req.voter_id.encode())
                ids[rng.randrange(len(ids))] ^= 1 << rng.randrange(7)
                req = SigningRequest(
                    ids.decode("latin-1"), req.election_id, req.blinded,
                    req.credential_signature,
                )
            elif field == 1:
                eid = bytearray(req.election_id)
                eid[rng.randrange(8)] ^= 1 << rng.randrange(8)
                req = SigningRequest(
                    req.voter_id, bytes(eid), req.blinded, req.credential_signature
                )
            elif field == 2:
                req = SigningRequest(
                    req.voter_id, req.election_id,
                    req.blinded ^ (1 << rng.randrange(key512.n.bit_length() - 1)),
                    req.credential_signature,
                )
            else:
                sig = bytearray(req.credential_signature)
                sig[rng.randrange(len(sig))] ^= 1 << rng.randrange(8)
                req = SigningRequest(
                    req.voter_id, req.election_id, req.blinded, bytes(sig)
                )
            try:
                verify_request(world.registry, req)
            except ProtocolError:
                failures += 1
        assert failures == 100


def test_08_polling_gate_exhaustive(key512, capsys):
    with criterion(capsys, 8, "gate blocks every requester, admits every abstainer (200 voters)"):
        world = Election(key512, 200, seed=0x08E1)
        rng = random.Random(0x08E2)
        requesters = set(rng.sample(range(200), 117))
        for i in requesters:
            world.cast(i, world.random_selection())
        requested = {vid for vid, _, _ in world.auth.export_request_log()}
        for i, cred in enumerate(world.creds):
            verdict = polling_gate(world.registry, requested, cred.voter_id)
            if i in requesters:
                assert not verdict.allow, f"{cred.voter_id} should be blocked"
                assert verdict.reason == "AlreadyRequested"
            else:
                assert verdict.allow, f"{cred.voter_id} should be allowed"


def test_09_duplicate_defense(key512, capsys):
    with criterion(capsys, 9, "photocopies counted once; 1,000 identical votes all distinct"):
        world = Election(key512, 1000, seed=0x09E1)
        ten = [world.cast(i, world.random_selection()) for i in range(10)]
        box = ten + [ten[3], ten[3], ten[7]]
        result = tally(key512.public, world.config, box)
        assert result.accepted == 10
        assert [idx for idx in result.duplicates] == [10, 11, 12]
        # everyone votes the same way; nonces keep the payloads apart
        same = VoteSelection(party_index=1, approvals=frozenset({0, 2}))
        world2 = Election(key512, 1000, seed=0x09E2)
        box2 = [world2.cast(i, same) for i in range(1000)]
        assert len(set(box2)) == 1000
        result2 = tally(key512.public, world2.config, box2)
        assert result2.accepted == 1000
        assert result2.duplicates == ()
        assert result2.party_votes == (0, 1000)


def test_10_tally_matches_reference_counter(key512, capsys):
    with criterion(capsys, 10, "100 mixed ballot boxes agree with the reference counter"):
        world = Election(key512, 5000, seed=0x10E1)
        rng = random.Random(0x10E2)
        party_sizes = [len(p.candidates) for p in world.config.parties]
        next_voter = 0
        for _ in range(100):
            box: list[str] = []
            minted: list[str] = []
            for _ in range(rng.randrange(51)):
                kind = rng.random()
                if kind < 0.6 or not minted:
                    payload = world.cast(next_voter, world.random_selection())
                    next_voter += 1
                    minted.append(payload)
                    box.append(payload)
                elif kind < 0.8:
                    box.append(rng.choice(minted))
                else:
                    victim = rng.choice(minted)
                    body = victim.split("|")[1]
                    pos = rng.randrange(len(body))
                    alphabet = (
                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz0123456789-_"
                    )
                    repl = alphabet[(alphabet.index(body[pos]) + 7) % 64]
                    box.append("BPV1|" + body[:pos] + repl + body[pos + 1:])
            result = tally(key512.public, world.config, box)
            ref = reference_count(
                key512.n, key512.e, world.config.election_id, party_sizes, box
            )
            assert list(result.party_votes) == ref.party_votes
            assert [list(c) for c in result.candidate_votes] == ref.candidate_votes
            assert result.accepted == ref.accepted
            assert [idx for idx, _ in result.rejected] == ref.rejected_indices
            assert list(result.duplicates) == ref.duplicate_indices


def test_11_board_tamper_localization(tmp_path, capsys):
    with criterion(capsys, 11, "every single-record corruption of a 1,000-record board is placed"):
        source = tmp_path / "board.txt"
        board = BulletinBoard(source)
        for i in range(1000):
            board.append("META", f"rec{i:04d}".encode())
        assert board_verify(source) is None
        lines = source.read_text().splitlines()
        work = tmp_path / "tampered.txt"
        for seq in range(1000):
            fields = lines[seq].split("|")
            fields[2] = "Y29ycnVwdA=="
            work.write_text(
                "\n".join(lines[:seq] + ["|".join(fields)] + lines[seq + 1:]) + "\n"
            )
            assert board_verify(work) == seq
