from __future__ import annotations

import random

import pytest

from blindvote.authority import SigningAuthority
from blindvote.board import BulletinBoard, board_verify
from blindvote.election import VoteSelection
from blindvote.errors import NotEligible, ParseError
from blindvote.identity import CredentialIssuer
from blindvote.legacy import (
    CODE_ALPHABET,
    K_LEN,
    LegacyCast,
    LegacyScenario,
    LegacyServer,
    format_scenario_report,
    legacy_tally,
    make_cast,
    parse_scenario,
    random_selection,
    reconstruct_vote,
    run_scenario,
)
from blindvote.tally import tally
from blindvote.voter import prepare_and_cast

from conftest import make_config_2x3


def make_server(n: int = 10, seed: int = 4) -> tuple[LegacyServer, random.Random]:
    rng = random.Random(seed)
    config = make_config_2x3()
    server = LegacyServer(config, {f"V{i:04d}" for i in range(n)}, rng)
    return server, rng


class TestIssueSheets:
    def test_token_is_16_bytes(self):
        server, _ = make_server()
        sheets = server.issue_sheets("V0000")
        assert len(sheets.k) == K_LEN == 16

    def test_not_eligible(self):
        server, _ = make_server()
        with pytest.raises(NotEligible):
            server.issue_sheets("GHOST")

    def test_1000_issuances_distinct_k(self):
        server, _ = make_server(1000)
        ks = {server.issue_sheets(f"V{i:04d}").k for i in range(1000)}
        assert len(ks) == 1000

    def test_code_sheet_shape_and_distinctness(self):
        server, _ = make_server()
        sheets = server.issue_sheets("V0001")
        per_party = sheets.code_sheet.codes
        assert len(per_party) == 2
        # 3 candidates -> 6 distinct short codes on each party's rows
        for rows in per_party:
            codes = [c for pair in rows for c in pair]
            assert len(codes) == 6
            assert len(set(codes)) == 6
        every_code = [c for party in per_party for pair in party for c in pair]
        assert len(set(every_code)) == len(every_code)
        assert all(len(c) == 4 and set(c) <= set(CODE_ALPHABET) for c in every_code)


class TestCheckK:
    def test_issued_k_is_valid(self):
        server, _ = make_server()
        sheets = server.issue_sheets("V0002")
        assert server.check_k_valid(sheets.k)

    def test_random_k_is_not(self):
        server, rng = make_server()
        server.issue_sheets("V0000")
        assert not server.check_k_valid(rng.randbytes(16))

    def test_shared_k_passes_every_check(self):
        # The modeled flaw: validity says nothing about uniqueness.
        server, _ = make_server()
        sheets = server.issue_sheets("V0003")
        results = [server.check_k_valid(sheets.k) for _ in range(10)]
        assert results == [True] * 10


class TestLegacyTally:
    def test_ten_distinct_all_counted(self):
        server, rng = make_server()
        casts = []
        for i in range(10):
            sheets = server.issue_sheets(f"V{i:04d}")
            casts.append(make_cast(sheets, server.config, random_selection(server.config, rng)))
        result = legacy_tally(server, casts)
        assert len(result.counted) == 10
        assert result.invalidated == ()

    def test_four_sharing_one_k_all_invalidated(self):
        server, rng = make_server()
        sheet_sets = [server.issue_sheets(f"V{i:04d}") for i in range(10)]
        casts = []
        for i, sheets in enumerate(sheet_sets):
            cast = make_cast(sheets, server.config, random_selection(server.config, rng))
            if i >= 6:
                cast = LegacyCast(
                    k=sheet_sets[6].k, party_index=cast.party_index, stances=cast.stances
                )
            casts.append(cast)
        result = legacy_tally(server, casts)
        assert len(result.counted) == 6
        assert len(result.invalidated) == 4
        assert set(result.invalidated) == {6, 7, 8, 9}

    def test_unissued_k_not_counted(self):
        server, rng = make_server()
        server.issue_sheets("V0000")
        ghost = LegacyCast(k=b"\xee" * 16, party_index=0, stances=(False, False, False))
        result = legacy_tally(server, [ghost])
        assert result.counted == ()
        assert result.unknown_k == (0,)

    def test_published_codes_match_note_sheet(self):
        server, _ = make_server()
        sheets = server.issue_sheets("V0007")
        sel = VoteSelection(party_index=1, approvals=frozenset({0, 2}))
        cast = make_cast(sheets, server.config, sel)
        result = legacy_tally(server, [cast])
        (k_hex, codes) = result.published_codes[0]
        assert k_hex == sheets.k.hex()
        assert codes == tuple(
            sheets.code_sheet.stance_code(1, i, chosen)
            for i, chosen in enumerate((True, False, True))
        )

    def test_board_publication(self, tmp_path):
        server, rng = make_server()
        sheets = server.issue_sheets("V0001")
        cast = make_cast(sheets, server.config, random_selection(server.config, rng))
        board = BulletinBoard(tmp_path / "board.txt")
        legacy_tally(server, [cast], board)
        records = board.records()
        assert [r.kind for r in records] == ["CODE_PUBLISH"]
        assert records[0].payload.decode().split()[0] == sheets.k.hex()
        assert board_verify(tmp_path / "board.txt") is None


class TestReceiptHazard:
    def test_vote_reconstructable_from_sheet_and_publication(self):
        server, rng = make_server()
        sheets = server.issue_sheets("V0005")
        sel = VoteSelection(party_index=0, approvals=frozenset({1}))
        cast = make_cast(sheets, server.config, sel)
        result = legacy_tally(server, [cast])
        _, codes = result.published_codes[0]
        got = reconstruct_vote(sheets.code_sheet, codes)
        assert got == (0, (False, True, False))

    def test_unrelated_codes_do_not_match(self):
        server, _ = make_server()
        sheets = server.issue_sheets("V0005")
        assert reconstruct_vote(sheets.code_sheet, ("ZZZZ", "ZZZZ", "ZZZZ")) is None


class TestAttack:
    def test_minimal_two_devices(self):
        config = make_config_2x3()
        report = run_scenario(config, LegacyScenario(honest=5, compromised=2, seed=8))
        assert len(report.result.invalidated) == 2
        assert len(report.result.counted) == 5
        assert report.k_checks_passed
        assert report.scenario == LegacyScenario(honest=5, compromised=2, seed=8)

    def test_m_below_two_rejected(self):
        with pytest.raises(ValueError):
            LegacyScenario(honest=5, compromised=1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            LegacyScenario(honest=-1, compromised=0)

    def test_scenario_50_4(self):
        config = make_config_2x3()
        report = run_scenario(config, LegacyScenario(honest=50, compromised=4, seed=9))
        assert len(report.result.counted) == 50
        assert len(report.result.invalidated) == 4
        assert report.receipt_match

    def test_honest_world_equivalence(self, key512):
        # Same selections, both systems, no attack: identical counts.
        config = make_config_2x3()
        scenario = LegacyScenario(honest=30, compromised=0, seed=77)
        report = run_scenario(config, scenario)
        assert report.result.invalidated == ()
        rng = random.Random(1234)
        issuer = CredentialIssuer(rng)
        creds = [issuer.issue(vid) for vid in report.voter_ids]
        auth = SigningAuthority(config, key512, issuer.registry)
        box = []
        for cred, sel in zip(creds, report.selections):
            artifact, _ = prepare_and_cast(
                config, cred, sel, key512.public, auth.handle_request, rng
            )
            box.append(artifact.payload)
        blind_result = tally(key512.public, config, box)
        assert blind_result.party_votes == report.result.party_votes
        assert blind_result.candidate_votes == report.result.candidate_votes


class TestScenarioFiles:
    def test_parse_good(self):
        text = "# attack run\nHONEST 950\nCOMPROMISED 50\nSEED 42\n"
        assert parse_scenario(text) == LegacyScenario(honest=950, compromised=50, seed=42)

    def test_seed_optional(self):
        assert parse_scenario("HONEST 3\nCOMPROMISED 0\n").seed is None

    @pytest.mark.parametrize(
        "text",
        [
            "HONEST 5\n",  # missing COMPROMISED
            "HONEST five\nCOMPROMISED 2\n",
            "HONEST 5\nCOMPROMISED -1\n",
            "HONEST 5 extra\nCOMPROMISED 2\n",
            "WHAT 5\nHONEST 5\nCOMPROMISED 2\n",
            "HONEST 5\nCOMPROMISED 1\n",  # one device has no one to share k with
            "HONEST 5\x0cCOMPROMISED 2\n",  # a form feed ends no line
            "HONEST 5\n# note\u2028COMPROMISED 2\n",  # nor does U+2028
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_scenario(text)

    def test_report_sections(self):
        config = make_config_2x3()
        report = run_scenario(config, LegacyScenario(honest=6, compromised=3, seed=5))
        text = format_scenario_report(report)
        assert "COUNTED" in text
        assert "INVALIDATED" in text
        assert "RECEIPT RECONSTRUCTION" in text
        assert "invalidated=3" in text
        assert "all_compromised_k_checks_passed=true" in text
        assert "vote_reconstructed=true" in text
        assert text.endswith("END REPORT\n")

    def test_seeded_scenario_deterministic(self):
        config = make_config_2x3()
        scenario = LegacyScenario(honest=10, compromised=2, seed=21)
        a = format_scenario_report(run_scenario(config, scenario))
        b = format_scenario_report(run_scenario(config, scenario))
        assert a == b
