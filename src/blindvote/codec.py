"""Fixed 256-bit ballot block and the deterministic signing pad.

Ballot block layout (32 bytes, normative):

    byte  0        format version, 0x01
    bytes 1..8     nonce, 8 random bytes (keeps equal votes distinct under
                   a deterministic signature)
    byte  9        party index
    bytes 10..28   candidate approval bitmask, 19 bytes = 152 bits;
                   bit i lives in byte 10 + i//8 at position i%8 (LSB first)
    bytes 29..31   reserved, 0x00

Padded message layout for a k-byte modulus (k >= 44, normative):

    0x00 | 0x56 | election_id (8 bytes) | 0xFF...0xFF | 0x00 | ballot (32 bytes)

The leading zero byte keeps the integer value below any k-byte modulus. The
fixed filler takes k - 43 bytes. There is deliberately no hash step: the
signature is verified by recovering this structure and rejecting anything
that does not match it byte for byte, which is sound only because the
message space is exactly this rigid layout. The layout itself (field order,
nonce, filler byte) is an implementation choice within the 256-bit budget
and is normative for this codebase only.
"""

from __future__ import annotations

from .election import ELECTION_ID_LEN, ElectionConfig, VoteSelection
from .errors import (
    BadStructure,
    BadVersion,
    CandidateOutOfRange,
    DecodeError,
    ModulusTooSmall,
    PartyOutOfRange,
    ReservedNonZero,
    StrayApprovalBit,
    WrongElection,
)

BALLOT_LEN = 32
BALLOT_VERSION = 0x01
NONCE_LEN = 8
MASK_OFFSET = 10
MASK_LEN = 19
MASK_BITS = MASK_LEN * 8  # 152, the per-party candidate ceiling
RESERVED_OFFSET = 29
PAD_TAG = 0x56
FILLER_OFFSET = 2 + ELECTION_ID_LEN  # after 0x00, the tag and the election id
PAD_OVERHEAD = FILLER_OFFSET + 1 + BALLOT_LEN  # everything except the filler
MIN_MODULUS_LEN = PAD_OVERHEAD + 1  # at least one filler byte


def encode(sel: VoteSelection, nonce: bytes) -> bytes:
    """Pack a selection and nonce into the 32-byte ballot block.

    Deterministic given (sel, nonce); the caller must have validated the
    selection against the active config.
    """
    if len(nonce) != NONCE_LEN:
        raise ValueError(f"nonce must be {NONCE_LEN} bytes, got {len(nonce)}")
    if not 0 <= sel.party_index < 256:
        raise PartyOutOfRange(f"party index {sel.party_index} does not fit one byte")
    block = bytearray(BALLOT_LEN)
    block[0] = BALLOT_VERSION
    block[1 : 1 + NONCE_LEN] = nonce
    block[9] = sel.party_index
    for idx in sel.approvals:
        if not 0 <= idx < MASK_BITS:
            raise CandidateOutOfRange(f"candidate index {idx} does not fit the bitmask")
        block[MASK_OFFSET + idx // 8] |= 1 << (idx % 8)
    return bytes(block)


def decode(block: bytes, config: ElectionConfig) -> tuple[VoteSelection, bytes]:
    """Inverse of encode; rejects any structural violation.

    Returns (selection, nonce).
    """
    if len(block) != BALLOT_LEN:
        raise DecodeError(f"ballot block must be {BALLOT_LEN} bytes, got {len(block)}")
    if block[0] != BALLOT_VERSION:
        raise BadVersion(f"unsupported ballot version 0x{block[0]:02x}")
    if any(block[RESERVED_OFFSET:]):
        raise ReservedNonZero("reserved tail bytes must be zero")
    party_index = block[9]
    if party_index >= len(config.parties):
        raise PartyOutOfRange(
            f"party index {party_index} not in 0..{len(config.parties) - 1}"
        )
    n_cands = len(config.parties[party_index].candidates)
    mask = int.from_bytes(block[MASK_OFFSET:RESERVED_OFFSET], "little")
    stray = mask >> n_cands
    if stray:
        i = n_cands + (stray & -stray).bit_length() - 1  # the lowest stray bit
        raise StrayApprovalBit(
            f"approval bit {i} set but party {party_index} has {n_cands} candidates"
        )
    approvals = frozenset(i for i in range(n_cands) if mask >> i & 1)
    nonce = block[1 : 1 + NONCE_LEN]
    return VoteSelection(party_index=party_index, approvals=approvals), nonce


def pad(block: bytes, election_id: bytes, modulus_len: int) -> bytes:
    """Embed a ballot block in the fixed signing structure of `modulus_len` bytes."""
    if len(block) != BALLOT_LEN:
        raise ValueError(f"ballot block must be {BALLOT_LEN} bytes")
    if len(election_id) != ELECTION_ID_LEN:
        raise ValueError(f"election id must be {ELECTION_ID_LEN} bytes")
    if modulus_len < MIN_MODULUS_LEN:
        raise ModulusTooSmall(
            f"modulus of {modulus_len} bytes cannot carry the padded ballot "
            f"(need >= {MIN_MODULUS_LEN})"
        )
    filler = b"\xff" * (modulus_len - PAD_OVERHEAD)
    return b"\x00" + bytes([PAD_TAG]) + election_id + filler + b"\x00" + block


def unpad(padded: bytes, expected_election_id: bytes) -> bytes:
    """Recover the ballot block, checking every structural byte.

    Raises BadStructure on any layout mismatch and WrongElection when the
    structure is intact but carries a different election id.
    """
    k = len(padded)
    if k < MIN_MODULUS_LEN:
        raise BadStructure(f"padded message too short ({k} bytes)")
    if padded[0] != 0x00:
        raise BadStructure("leading byte is not 0x00")
    if padded[1] != PAD_TAG:
        raise BadStructure(f"tag byte is 0x{padded[1]:02x}, expected 0x{PAD_TAG:02x}")
    sep_at = k - BALLOT_LEN - 1
    if padded[FILLER_OFFSET:sep_at] != b"\xff" * (sep_at - FILLER_OFFSET):
        raise BadStructure("filler is not all 0xFF")
    if padded[sep_at] != 0x00:
        raise BadStructure("missing 0x00 separator before the ballot block")
    election_id = padded[2:FILLER_OFFSET]
    if election_id != expected_election_id:
        raise WrongElection(
            f"padded for election {election_id.hex()}, expected {expected_election_id.hex()}"
        )
    return padded[sep_at + 1 :]


def bytes_to_int(data: bytes) -> int:
    """Big-endian bytes to integer."""
    return int.from_bytes(data, "big")


def int_to_bytes(value: int, width: int) -> bytes:
    """Integer to big-endian bytes, zero-padded to `width`.

    Raises OverflowError when the value does not fit.
    """
    return value.to_bytes(width, "big")
