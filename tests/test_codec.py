from __future__ import annotations

import random

import pytest

from blindvote import codec
from blindvote.election import VoteSelection
from blindvote.errors import (
    BadStructure,
    BadVersion,
    DecodeError,
    ModulusTooSmall,
    PartyOutOfRange,
    ReservedNonZero,
    StrayApprovalBit,
    WrongElection,
)

from conftest import FIXTURE_ELECTION_ID, make_config_2x3

ZERO_NONCE = bytes(8)


class TestEncode:
    def test_party_only_zero_nonce_exact_bytes(self):
        block = codec.encode(VoteSelection(party_index=3), ZERO_NONCE)
        assert block == bytes([0x01]) + bytes(8) + bytes([0x03]) + bytes(19) + bytes(3)

    def test_mask_byte_for_approvals_0_2_4(self):
        block = codec.encode(
            VoteSelection(party_index=0, approvals=frozenset({0, 2, 4})), ZERO_NONCE
        )
        assert block[10] == 0x15
        assert block[11:29] == bytes(18)

    def test_high_bit_lands_in_last_mask_byte(self):
        block = codec.encode(
            VoteSelection(party_index=0, approvals=frozenset({151})), ZERO_NONCE
        )
        assert block[28] == 0x80
        assert block[10:28] == bytes(18)

    def test_block_is_always_32_bytes(self):
        block = codec.encode(VoteSelection(party_index=254), b"\xff" * 8)
        assert len(block) == codec.BALLOT_LEN == 32

    def test_wrong_nonce_length(self):
        with pytest.raises(ValueError):
            codec.encode(VoteSelection(party_index=0), bytes(7))

    def test_nonce_injectivity(self):
        sel = VoteSelection(party_index=1, approvals=frozenset({0}))
        a = codec.encode(sel, b"\x00" * 8)
        b = codec.encode(sel, b"\x00" * 7 + b"\x01")
        assert a != b


class TestDecode:
    def test_inverse_of_encode(self, config2x3):
        sel = VoteSelection(party_index=0, approvals=frozenset({0, 2}))
        nonce = b"\x11\x22\x33\x44\x55\x66\x77\x88"
        assert codec.decode(codec.encode(sel, nonce), config2x3) == (sel, nonce)

    def test_bad_version(self, config2x3):
        block = bytearray(codec.encode(VoteSelection(party_index=0), ZERO_NONCE))
        block[0] = 0x02
        with pytest.raises(BadVersion):
            codec.decode(bytes(block), config2x3)

    def test_reserved_non_zero(self, config2x3):
        block = bytearray(codec.encode(VoteSelection(party_index=0), ZERO_NONCE))
        block[31] = 0x01
        with pytest.raises(ReservedNonZero):
            codec.decode(bytes(block), config2x3)

    def test_party_out_of_range(self, config2x3):
        block = bytearray(codec.encode(VoteSelection(party_index=0), ZERO_NONCE))
        block[9] = 2
        with pytest.raises(PartyOutOfRange):
            codec.decode(bytes(block), config2x3)

    def test_stray_approval_bit(self, config2x3):
        # Bit 3 for a 3-candidate party is one past the roster; bit 151 is
        # the mask's last bit.
        for bit in (3, 151):
            block = bytearray(codec.encode(VoteSelection(party_index=1), ZERO_NONCE))
            block[10 + bit // 8] |= 1 << (bit % 8)
            with pytest.raises(StrayApprovalBit, match=f"approval bit {bit} set"):
                codec.decode(bytes(block), config2x3)

    def test_wrong_length(self, config2x3):
        with pytest.raises(DecodeError):
            codec.decode(bytes(31), config2x3)

    def test_round_trip_exhaustive_2x3(self, config2x3):
        # All 2 * 2^3 = 16 selections with a fixed nonce.
        nonce = b"\xab" * 8
        count = 0
        for party in range(2):
            for bits in range(8):
                sel = VoteSelection(
                    party_index=party,
                    approvals=frozenset(i for i in range(3) if bits >> i & 1),
                )
                assert codec.decode(codec.encode(sel, nonce), config2x3) == (sel, nonce)
                count += 1
        assert count == 16

    def test_round_trip_random_10k(self, config2x3):
        rng = random.Random(0xDEC0DE)
        for _ in range(10_000):
            party = rng.randrange(2)
            approvals = frozenset(i for i in range(3) if rng.random() < 0.5)
            sel = VoteSelection(party_index=party, approvals=approvals)
            nonce = rng.randbytes(8)
            assert codec.decode(codec.encode(sel, nonce), config2x3) == (sel, nonce)


class TestPadding:
    BLOCK = bytes([0x01]) + bytes(8) + bytes([0x00]) + bytes(19) + bytes(3)

    def test_boundary_k44_filler_one(self):
        padded = codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 44)
        assert len(padded) == 44
        assert padded[0] == 0x00
        assert padded[1] == 0x56
        assert padded[2:10] == FIXTURE_ELECTION_ID
        assert padded[10] == 0xFF  # exactly one filler byte
        assert padded[11] == 0x00
        assert padded[12:] == self.BLOCK

    def test_k256_filler_213(self):
        padded = codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 256)
        assert len(padded) == 256
        filler = padded[10 : 256 - 33]
        assert len(filler) == 213
        assert filler == b"\xff" * 213

    def test_modulus_too_small(self):
        with pytest.raises(ModulusTooSmall):
            codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 43)

    def test_unpad_inverse(self):
        for k in (44, 64, 100, 256):
            padded = codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, k)
            assert codec.unpad(padded, FIXTURE_ELECTION_ID) == self.BLOCK

    def test_zero_in_filler_rejected(self):
        padded = bytearray(codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 64))
        padded[12] = 0x00
        with pytest.raises(BadStructure):
            codec.unpad(bytes(padded), FIXTURE_ELECTION_ID)

    def test_wrong_election(self):
        padded = codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 64)
        with pytest.raises(WrongElection):
            codec.unpad(padded, b"\xde\xad\xbe\xef\xde\xad\xbe\xef")

    @pytest.mark.parametrize("mutate", [0, 1])
    def test_header_bytes_checked(self, mutate):
        padded = bytearray(codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 64))
        padded[mutate] ^= 0x01
        with pytest.raises(BadStructure):
            codec.unpad(bytes(padded), FIXTURE_ELECTION_ID)

    def test_missing_separator(self):
        padded = bytearray(codec.pad(self.BLOCK, FIXTURE_ELECTION_ID, 64))
        padded[64 - 33] = 0xFF
        with pytest.raises(BadStructure):
            codec.unpad(bytes(padded), FIXTURE_ELECTION_ID)

    def test_padded_integer_below_modulus_bound(self):
        # Leading 0x00 keeps the value under any k-byte modulus.
        rng = random.Random(0xFADE)
        for _ in range(200):
            k = rng.randrange(44, 300)
            nonce = rng.randbytes(8)
            block = codec.encode(VoteSelection(party_index=0), nonce)
            padded = codec.pad(block, FIXTURE_ELECTION_ID, k)
            assert codec.bytes_to_int(padded) < 256 ** (k - 1)


class TestIntBytesAdapter:
    def test_basic(self):
        assert codec.bytes_to_int(b"\x00\x01") == 1
        assert codec.int_to_bytes(1, 2) == b"\x00\x01"

    def test_bijection_random(self):
        rng = random.Random(7)
        for _ in range(500):
            width = rng.randrange(1, 64)
            x = rng.randbytes(width)
            assert codec.int_to_bytes(codec.bytes_to_int(x), width) == x

    def test_overflow(self):
        with pytest.raises(OverflowError):
            codec.int_to_bytes(256**4, 4)
