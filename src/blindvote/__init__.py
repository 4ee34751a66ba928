"""Blind-signature postal voting, simulated end to end at desk scale.

The pipeline: a voter encodes a selection into a fixed 256-bit block, pads
it into a rigid signing structure, blinds it, and has the election
authority sign the blinded value after an eligibility check. Unblinding
yields an ordinary signature that anyone can verify by message recovery,
but that the authority cannot link to the signing session. The signature
alone is the mailed ballot; tallying verifies, deduplicates and counts.
An audit compares valid ballots against voter-signed requests, so an
authority minting extra ballots is caught by arithmetic.

The legacy module models the token-based system this design replaces,
including the k-reuse attack that forces mass invalidation there.
"""

from .blindsig import (
    CLASSIC_TOY_KEY,
    TOY_KEY,
    BlindKeyPair,
    PublicKey,
    blind,
    keygen,
    random_unit,
    sign_blinded,
    unblind,
    verify_recover,
)
from .election import ElectionConfig, Party, VoteSelection, load_config, save_config
from .errors import ProtocolError
from .identity import CredentialIssuer, SigningRequest, VoterCredential
from .authority import SigningAuthority
from .voter import BallotArtifact, NoteSheet, prepare_and_cast, verify_ballot
from .tally import (
    AuditReport,
    TallyResult,
    eligibility_audit,
    polling_gate,
    publish_tally,
    tally,
)
from .board import BulletinBoard, board_verify

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BallotArtifact",
    "BlindKeyPair",
    "BulletinBoard",
    "CLASSIC_TOY_KEY",
    "CredentialIssuer",
    "ElectionConfig",
    "NoteSheet",
    "Party",
    "ProtocolError",
    "PublicKey",
    "SigningAuthority",
    "SigningRequest",
    "TOY_KEY",
    "TallyResult",
    "VoteSelection",
    "VoterCredential",
    "blind",
    "board_verify",
    "eligibility_audit",
    "keygen",
    "load_config",
    "polling_gate",
    "prepare_and_cast",
    "publish_tally",
    "random_unit",
    "save_config",
    "sign_blinded",
    "tally",
    "unblind",
    "verify_ballot",
    "verify_recover",
]
