from __future__ import annotations

import itertools
import random

import pytest

from blindvote.election import (
    ElectionConfig,
    Party,
    VoteSelection,
    dumps_config,
    load_config,
    parse_config,
    validate_selection,
)
from blindvote.errors import (
    CandidateOutOfRange,
    InvariantViolation,
    ParseError,
    PartyOutOfRange,
)

from conftest import make_config_2x3


class TestValidateSelection:
    def test_within_range_ok(self):
        config = make_config_2x3()
        sel = VoteSelection(party_index=0, approvals=frozenset({0, 2}))
        assert validate_selection(config, sel) is None

    def test_party_out_of_range(self):
        config = make_config_2x3()
        with pytest.raises(PartyOutOfRange):
            validate_selection(config, VoteSelection(party_index=5))

    def test_candidate_out_of_range(self):
        config = make_config_2x3()
        with pytest.raises(CandidateOutOfRange):
            validate_selection(
                config, VoteSelection(party_index=1, approvals=frozenset({3}))
            )

    def test_empty_approvals_is_valid(self):
        config = make_config_2x3()
        assert validate_selection(config, VoteSelection(party_index=1)) is None

    def test_matches_brute_force_enumeration(self):
        # Acceptance matches brute force over (party, subset) for small shapes.
        for n_parties, n_cands in itertools.product((1, 2, 3), (1, 2, 4)):
            config = ElectionConfig(
                election_id=b"\x01" * 8,
                title="Enum",
                parties=tuple(
                    Party(
                        name=f"P{p}",
                        candidates=tuple(f"C{p}.{c}" for c in range(n_cands)),
                    )
                    for p in range(n_parties)
                ),
            )
            valid = set()
            for p in range(n_parties):
                for bits in range(2**n_cands):
                    subset = frozenset(i for i in range(n_cands) if bits >> i & 1)
                    valid.add((p, subset))
            for p in range(n_parties + 2):
                for bits in range(2 ** (n_cands + 1)):
                    subset = frozenset(
                        i for i in range(n_cands + 1) if bits >> i & 1
                    )
                    sel = VoteSelection(party_index=p, approvals=subset)
                    expected_ok = (p, subset) in valid
                    if expected_ok:
                        assert validate_selection(config, sel) is None
                    else:
                        with pytest.raises((PartyOutOfRange, CandidateOutOfRange)):
                            validate_selection(config, sel)


class TestConfigInvariants:
    def test_wrong_id_length(self):
        with pytest.raises(InvariantViolation):
            ElectionConfig(
                election_id=b"\x01" * 7,
                title="T",
                parties=(Party(name="P", candidates=("C",)),),
            )

    def test_party_limit_255(self):
        parties = tuple(
            Party(name=f"P{i}", candidates=("C",)) for i in range(256)
        )
        with pytest.raises(InvariantViolation):
            ElectionConfig(election_id=b"\x01" * 8, title="T", parties=parties)

    def test_candidate_limit_152(self):
        with pytest.raises(InvariantViolation):
            Party(name="P", candidates=tuple(f"C{i}" for i in range(153)))
        # 152 is the last legal count
        Party(name="P", candidates=tuple(f"C{i}" for i in range(152)))

    def test_no_parties_rejected(self):
        with pytest.raises(InvariantViolation):
            ElectionConfig(election_id=b"\x01" * 8, title="T", parties=())

    def test_empty_names_rejected(self):
        with pytest.raises(InvariantViolation):
            Party(name="", candidates=("C",))
        with pytest.raises(InvariantViolation):
            Party(name="P", candidates=("",))

    @pytest.mark.parametrize("bad", ["A\nB", "A\rB", " A", "A\t", "A\ud800"])
    def test_names_no_config_file_can_hold_rejected(self, bad):
        with pytest.raises(InvariantViolation):
            ElectionConfig(
                election_id=b"\x01" * 8,
                title=bad,
                parties=(Party(name="P", candidates=("C",)),),
            )
        with pytest.raises(InvariantViolation):
            Party(name=bad, candidates=("C",))
        with pytest.raises(InvariantViolation):
            Party(name="P", candidates=("C", bad))

    def test_bad_created_at(self):
        with pytest.raises(InvariantViolation):
            ElectionConfig(
                election_id=b"\x01" * 8,
                title="T",
                parties=(Party(name="P", candidates=("C",)),),
                created_at="not-a-date",
            )


class TestConfigFile:
    GOOD = (
        "ELECTION 00112233445566aa Fixture Election\n"
        "# a comment line\n"
        "PARTY Alpha\n"
        "CAND Anna\n"
        "CAND Arno\n"
        "\n"
        "PARTY Beta\n"
        "CAND Ben\n"
    )

    def test_well_formed_two_parties(self):
        config = parse_config(self.GOOD)
        assert len(config.parties) == 2
        assert config.title == "Fixture Election"
        assert config.parties[0].candidates == ("Anna", "Arno")
        assert config.parties[1].candidates == ("Ben",)

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(self.GOOD.encode())
        config = load_config(path)
        assert config == parse_config(self.GOOD)
        assert config.election_id == bytes.fromhex("00112233445566aa")

    def test_256_parties_rejected(self):
        lines = ["ELECTION 0011223344556677 Big"]
        for i in range(256):
            lines.append(f"PARTY P{i}")
            lines.append("CAND C")
        with pytest.raises(InvariantViolation):
            parse_config("\n".join(lines))

    def test_153_candidates_rejected(self):
        lines = ["ELECTION 0011223344556677 Big", "PARTY P"]
        lines += [f"CAND C{i}" for i in range(153)]
        with pytest.raises(InvariantViolation):
            parse_config("\n".join(lines))

    @pytest.mark.parametrize(
        "text",
        [
            "PARTY P\nCAND C\n",  # missing ELECTION
            "ELECTION zz112233445566aa T\nPARTY P\nCAND C\n",  # bad hex
            "ELECTION 0011 T\nPARTY P\nCAND C\n",  # short id
            "ELECTION 0011223344556677 T\nCAND C\n",  # CAND before PARTY
            "ELECTION 0011223344556677 T\nELECTION 0011223344556677 T\n",  # dup
            "ELECTION 0011223344556677 T\nBOGUS x\n",  # unknown directive
            "CREATED 2026-01-01\nELECTION 0011223344556677 T\n",  # CREATED first
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_config(text)

    def test_round_trip_randomized(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(60):
            n_parties = rng.randrange(1, 6)
            parties = tuple(
                Party(
                    name=f"Party {p}",
                    candidates=tuple(
                        f"Cand {p}.{c}" for c in range(rng.randrange(1, 7))
                    ),
                )
                for p in range(n_parties)
            )
            config = ElectionConfig(
                election_id=rng.randbytes(8),
                title=f"Round Trip {rng.randrange(1000)}",
                parties=parties,
                created_at="2026-08-14" if rng.random() < 0.5 else "",
            )
            assert parse_config(dumps_config(config)) == config

    def test_created_line_round_trip(self):
        text = (
            "ELECTION 0011223344556677 Dated\n"
            "CREATED 2026-08-14\n"
            "PARTY P\nCAND C\n"
        )
        config = parse_config(text)
        assert config.created_at == "2026-08-14"
        assert parse_config(dumps_config(config)) == config

    def test_names_with_spaces_survive(self):
        text = (
            "ELECTION 0011223344556677 A Longer Title Here\n"
            "PARTY Social Greens\n"
            "CAND Dr. Mary de Vries\n"
        )
        config = parse_config(text)
        assert config.parties[0].name == "Social Greens"
        assert config.parties[0].candidates == ("Dr. Mary de Vries",)
        assert parse_config(dumps_config(config)) == config
