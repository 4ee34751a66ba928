"""Simulated national eID: per-voter credentials over blind-signing requests.

Each voter holds an Ed25519 key pair standing in for an eID card. A signing
request binds (election_id, blinded value) under that key, so the authority
can later prove which voters actually asked for a signature. The blinded
value itself reveals nothing about the vote, which is why the request log
can be published for auditing.

Real eID infrastructure (smart cards, PKI, revocation) is out of scope;
the issuer here just mints key pairs and hands the private half back to
the simulated voter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, TextIO

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .election import record_lines
from .errors import BadSignature, DuplicateVoterId, ParseError, UnknownVoter

_SEED_LEN = 32
_PUB_LEN = 32
_SIG_LEN = 64


@dataclass(frozen=True)
class VoterCredential:
    """A voter's eID stand-in. `seed` is the Ed25519 private key bytes."""

    voter_id: str
    seed: bytes

    @property
    def public(self) -> bytes:
        """The raw Ed25519 public key, derived from the seed on demand."""
        return (
            Ed25519PrivateKey.from_private_bytes(self.seed)
            .public_key()
            .public_bytes_raw()
        )

    def self_test(self) -> bool:
        """Sign and verify a probe message under this credential."""
        probe = b"credential self test " + self.voter_id.encode()
        sig = _raw_sign(self.seed, probe)
        try:
            _raw_verify(self.public, sig, probe)
        except InvalidSignature:
            return False
        return True


@dataclass(frozen=True)
class SigningRequest:
    """A voter's authenticated ask for one blind signature."""

    voter_id: str
    election_id: bytes
    blinded: int
    credential_signature: bytes


def _raw_sign(seed: bytes, message: bytes) -> bytes:
    return Ed25519PrivateKey.from_private_bytes(seed).sign(message)


def _raw_verify(public: bytes, signature: bytes, message: bytes) -> None:
    Ed25519PublicKey.from_public_bytes(public).verify(signature, message)


def request_message(election_id: bytes, blinded: int) -> bytes:
    """The exact byte string a request signature covers."""
    width = max(1, (blinded.bit_length() + 7) // 8)
    return election_id + blinded.to_bytes(width, "big")


class CredentialIssuer:
    """Mints voter credentials and keeps the public registry.

    Issued credentials are immutable; the registry only grows.
    """

    def __init__(self, rng: random.Random | None = None) -> None:
        self._rng = rng if rng is not None else random.SystemRandom()
        self._registry: dict[str, bytes] = {}

    def issue(self, voter_id: str) -> VoterCredential:
        if not voter_id or any(c.isspace() for c in voter_id):
            raise ValueError(f"voter id must be non-empty without whitespace: {voter_id!r}")
        if voter_id in self._registry:
            raise DuplicateVoterId(f"credential already issued for {voter_id!r}")
        cred = VoterCredential(voter_id=voter_id, seed=self._rng.randbytes(_SEED_LEN))
        self._registry[voter_id] = cred.public
        return cred

    @property
    def registry(self) -> dict[str, bytes]:
        """Snapshot of voter_id -> public key."""
        return dict(self._registry)


def sign_request(
    cred: VoterCredential, election_id: bytes, blinded: int
) -> SigningRequest:
    """Produce a request binding (election_id, blinded) under the credential."""
    sig = _raw_sign(cred.seed, request_message(election_id, blinded))
    return SigningRequest(
        voter_id=cred.voter_id,
        election_id=election_id,
        blinded=blinded,
        credential_signature=sig,
    )


def verify_request(registry: dict[str, bytes], req: SigningRequest) -> None:
    """Check a request against the registry.

    Raises UnknownVoter for an unregistered id and BadSignature when the
    credential signature does not cover (election_id, blinded). Returns
    None on success.
    """
    public = registry.get(req.voter_id)
    if public is None:
        raise UnknownVoter(f"no registered credential for {req.voter_id!r}")
    try:
        _raw_verify(
            public,
            req.credential_signature,
            request_message(req.election_id, req.blinded),
        )
    except InvalidSignature:
        raise BadSignature(
            f"credential signature of {req.voter_id!r} does not verify"
        ) from None


def save_registry(registry: dict[str, bytes], out: TextIO) -> None:
    """Write `VOTER <voter_id> <pubkey hex>` lines in insertion order."""
    for voter_id, public in registry.items():
        out.write(f"VOTER {voter_id} {public.hex()}\n")


def _load_keyed_hex(
    src: Iterable[str], keyword: str, field: str, noun: str, length: int
) -> dict[str, bytes]:
    """Read `<keyword> <voter_id> <hex of length bytes>` lines, ids unique."""
    values: dict[str, bytes] = {}
    for lineno, line in record_lines(src):
        parts = line.split()
        if len(parts) != 3 or parts[0] != keyword:
            raise ParseError(f"line {lineno}: expected '{keyword} <id> <{field} hex>'")
        voter_id = parts[1]
        if voter_id in values:
            raise ParseError(f"line {lineno}: duplicate voter {voter_id!r}")
        try:
            value = bytes.fromhex(parts[2])
        except ValueError:
            raise ParseError(f"line {lineno}: {noun} is not hex") from None
        if len(value) != length:
            raise ParseError(f"line {lineno}: {noun} must be {length} bytes")
        values[voter_id] = value
    return values


def load_registry(src: TextIO) -> dict[str, bytes]:
    return _load_keyed_hex(src, "VOTER", "pubkey", "public key", _PUB_LEN)


def save_secrets(credentials: list[VoterCredential], out: TextIO) -> None:
    """Simulation-only store of private halves: `SECRET <id> <seed hex>`."""
    for cred in credentials:
        out.write(f"SECRET {cred.voter_id} {cred.seed.hex()}\n")


def load_secrets(src: TextIO) -> dict[str, VoterCredential]:
    seeds = _load_keyed_hex(src, "SECRET", "seed", "seed", _SEED_LEN)
    return {vid: VoterCredential(voter_id=vid, seed=seed) for vid, seed in seeds.items()}
