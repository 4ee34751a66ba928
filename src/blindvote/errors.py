"""Exception types shared across the voting protocol modules.

Every error carries a stable machine code (its class name) so CLI output
and wire framing can report failures as single parseable tokens.
"""

from __future__ import annotations


class ProtocolError(Exception):
    """Base class for all protocol-level failures."""

    @property
    def code(self) -> str:
        return type(self).__name__


# --- configuration / file parsing ---

class ParseError(ProtocolError):
    pass


class InvariantViolation(ProtocolError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# --- vote selection validation ---

class PartyOutOfRange(ProtocolError):
    pass


class CandidateOutOfRange(ProtocolError):
    pass


# --- ballot block decoding ---

class DecodeError(ProtocolError):
    pass


class BadVersion(DecodeError):
    pass


class ReservedNonZero(DecodeError):
    pass


class StrayApprovalBit(DecodeError):
    pass


# --- padding ---

class ModulusTooSmall(ProtocolError):
    pass


class BadStructure(ProtocolError):
    pass


class WrongElection(ProtocolError):
    pass


# --- blind signatures ---

class MessageOutOfRange(ProtocolError):
    pass


class FactorNotUnit(ProtocolError):
    pass


class SigningFault(ProtocolError):
    """A computed signature failed its s^e == b check and was withheld:
    releasing it could reveal a prime factor of the authority's modulus."""


class LibraryFailure(Exception):
    """A C library call failed: not a ProtocolError, so no check takes it as a verdict."""


# --- voter credentials / signing authority ---

class DuplicateVoterId(ProtocolError):
    pass


class UnknownVoter(ProtocolError):
    pass


class BadSignature(ProtocolError):
    pass


class AlreadyRequested(ProtocolError):
    pass


class CorruptModeDisabled(ProtocolError):
    pass


# --- voter flow ---

class BadFraming(ProtocolError):
    pass


class LocalVerifyFailed(ProtocolError):
    """The authority's response did not verify; the offending values are kept
    as evidence for dispute resolution."""

    def __init__(self, message: str, *, request=None, returned=None):
        super().__init__(message)
        self.request = request
        self.returned = returned


# --- tallying / gate ---

class LookupUnavailable(ProtocolError):
    pass


# --- legacy baseline ---

class NotEligible(ProtocolError):
    pass


# --- bulletin board ---

class ChainBroken(ProtocolError):
    def __init__(self, seq: int):
        super().__init__(f"hash chain broken at seq {seq}")
        self.seq = seq
