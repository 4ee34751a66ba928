"""Simulated national eID: per-voter credentials over blind-signing requests.

Each voter holds an Ed25519 key pair standing in for an eID card. A signing
request binds (election_id, blinded value) under that key, so the authority
can later prove which voters actually asked for a signature. The blinded
value itself reveals nothing about the vote, which is why the request log
can be published for auditing.

Real eID infrastructure (smart cards, PKI, revocation) is out of scope;
the issuer here just mints key pairs and hands the private half back to
the simulated voter.

Libraries. Deriving a public key, signing and verifying run in the system
libsodium, loaded through ctypes on first use:

    VoterCredential.public  crypto_sign_ed25519_seed_keypair
    sign_request            crypto_sign_ed25519_seed_keypair, then
                            crypto_sign_ed25519_detached
    verify_request          crypto_sign_ed25519_verify_detached

The 64-byte seed||pk secret that signing needs is cleared with
sodium_memzero after each use, even when a call fails; a failed call
raises LibraryFailure, no verdict on the voter. Lengths are checked before
any buffer reaches C: a 32-byte seed or key, a 64-byte signature. Where
libsodium cannot be loaded or initialised, the `cryptography` package does
the same work. Ed25519 is deterministic, so both give the same public keys
and the same signatures byte for byte; backend() names the one in use.

One verdict. RFC 8032 leaves open what a verifier does with points of
small order, and libraries differ there (Chalkias, Garillot & Nikolaenko,
"Taming the many EdDSAs", SSR 2020). libsodium refuses a public key that
is not canonically encoded or is of small order, and a signature whose R
is of small order; OpenSSL, under `cryptography`, accepts some of these.
The identity key with R = identity and S = 0 verifies every message there,
and a voter can sign with R = identity and S = k*a, a signature libsodium
refuses. An authority on one library and an auditor on the other would
then disagree about which requests are valid, so the audit could blame an
honest authority. verify_request applies libsodium's rule itself, before
either library runs, and both give one verdict.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, TextIO

from .election import record_line, voter_entries
from .errors import BadSignature, DuplicateVoterId, LibraryFailure, ParseError, UnknownVoter
from .native import open_library

if TYPE_CHECKING:
    import ctypes

# libsodium's soname since 1.0.15.
_LIBSODIUM_SONAME = "libsodium.so.23"

# An Ed25519 seed and public key alike, and so the hex of either key file.
_KEY_LEN = 32
_SIG_LEN = 64

# Curve25519's field prime. A point is encoded as its y coordinate, below
# 2^255, with the sign of x in the top bit.
_P = 2**255 - 19
_Y_MASK = (1 << 255) - 1
# The y coordinates of the eight points of order dividing 8 (1: the identity,
# p - 1: order 2, 0: order 4, the pair below: order 8), and the two
# non-canonical spellings p and p + 1 of y = 0 and y = 1: libsodium's list.
_Y_ORDER_8 = 0x05FC536D880238B13933C6D305ACDFD5F098EFF289F4C345B027B2C28F95E826
_SMALL_ORDER_Y = frozenset((0, 1, _P - 1, _Y_ORDER_8, _P - _Y_ORDER_8, _P, _P + 1))


@dataclass(frozen=True)
class VoterCredential:
    """A voter's eID stand-in. `seed` is the Ed25519 private key bytes."""

    voter_id: str
    seed: bytes

    @property
    def public(self) -> bytes:
        """The raw Ed25519 public key, derived from the seed on demand."""
        return _raw_public(self.seed)


@dataclass(frozen=True)
class SigningRequest:
    """A voter's authenticated ask for one blind signature."""

    voter_id: str
    election_id: bytes
    blinded: int
    credential_signature: bytes


@functools.cache
def _libsodium() -> ctypes.CDLL | None:
    """libsodium with its Ed25519 calls declared, or None when it cannot be
    loaded or initialised. Loaded on first use, so importing opens no file."""
    import ctypes

    buf, c_int, ull = ctypes.c_char_p, ctypes.c_int, ctypes.c_ulonglong
    lib = open_library(_LIBSODIUM_SONAME, "sodium", (
        ("sodium_init", c_int, []),
        ("sodium_memzero", None, [buf, ctypes.c_size_t]),
        ("crypto_sign_ed25519_seed_keypair", c_int, [buf, buf, buf]),
        ("crypto_sign_ed25519_detached", c_int, [buf, ctypes.c_void_p, buf, ull, buf]),
        ("crypto_sign_ed25519_verify_detached", c_int, [buf, buf, ull, buf]),
    ))
    return lib if lib is not None and lib.sodium_init() >= 0 else None


def backend() -> str:
    """Which library runs Ed25519: "libsodium" or "cryptography" (the
    fallback)."""
    return "cryptography" if _libsodium() is None else "libsodium"


def _sodium_keypair(lib: ctypes.CDLL, seed: bytes) -> tuple[ctypes.Array, ctypes.Array]:
    """The public key and the seed||pk secret; the caller clears the secret."""
    import ctypes

    if len(seed) != _KEY_LEN:
        raise ValueError(f"an Ed25519 seed is {_KEY_LEN} bytes, not {len(seed)}")
    public = ctypes.create_string_buffer(_KEY_LEN)
    secret = ctypes.create_string_buffer(2 * _KEY_LEN)
    if lib.crypto_sign_ed25519_seed_keypair(public, secret, seed) != 0:
        lib.sodium_memzero(secret, len(secret))
        raise LibraryFailure("libsodium crypto_sign_ed25519_seed_keypair failed")
    return public, secret


def _raw_public(seed: bytes) -> bytes:
    lib = _libsodium()
    if lib is None:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        return Ed25519PrivateKey.from_private_bytes(seed).public_key().public_bytes_raw()
    public, secret = _sodium_keypair(lib, seed)
    lib.sodium_memzero(secret, len(secret))
    return public.raw


def _raw_sign(seed: bytes, message: bytes) -> bytes:
    lib = _libsodium()
    if lib is None:
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

        return Ed25519PrivateKey.from_private_bytes(seed).sign(message)
    import ctypes

    signature = ctypes.create_string_buffer(_SIG_LEN)
    _, secret = _sodium_keypair(lib, seed)
    try:
        if lib.crypto_sign_ed25519_detached(signature, None, message, len(message), secret) != 0:
            raise LibraryFailure("libsodium crypto_sign_ed25519_detached failed")
    finally:
        lib.sodium_memzero(secret, len(secret))
    return signature.raw


def _refused_before_verify(public: bytes, signature: bytes) -> bool:
    """libsodium's rule, applied on every backend: wrong lengths, a key that
    is not canonically encoded or is of small order, an R of small order."""
    if len(public) != _KEY_LEN or len(signature) != _SIG_LEN:
        return True
    y = int.from_bytes(public, "little") & _Y_MASK
    r_y = int.from_bytes(signature[:32], "little") & _Y_MASK
    return y >= _P or y in _SMALL_ORDER_Y or r_y in _SMALL_ORDER_Y


def _raw_verify(public: bytes, signature: bytes, message: bytes) -> bool:
    if _refused_before_verify(public, signature):
        return False
    lib = _libsodium()
    if lib is None:
        from cryptography.exceptions import InvalidSignature
        from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

        try:
            Ed25519PublicKey.from_public_bytes(public).verify(signature, message)
        except InvalidSignature:
            return False
        return True
    return lib.crypto_sign_ed25519_verify_detached(signature, message, len(message), public) == 0


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
        cred = VoterCredential(voter_id=voter_id, seed=self._rng.randbytes(_KEY_LEN))
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
    if not _raw_verify(
        public, req.credential_signature, request_message(req.election_id, req.blinded)
    ):
        raise BadSignature(f"credential signature of {req.voter_id!r} does not verify")


def save_registry(registry: dict[str, bytes], out: TextIO) -> None:
    """Write `VOTER <voter_id> <pubkey hex>` lines in insertion order."""
    for voter_id, public in registry.items():
        out.write(f"VOTER {voter_id} {public.hex()}\n")


def _keyed_line(lineno: int, raw: str, keyword: str) -> tuple[str, bytes] | None:
    """Parse one line of a `<keyword> <voter_id> <hex of _KEY_LEN bytes>`
    file: (voter_id, value), or None for a blank or '#' comment line."""
    line = record_line(raw)
    if line is None:
        return None
    parts = line.split()
    if len(parts) != 3 or parts[0] != keyword:
        raise ParseError(f"line {lineno}: expected '{keyword} <id> <hex>'")
    try:
        value = bytes.fromhex(parts[2])
    except ValueError:
        raise ParseError(f"line {lineno}: {keyword} value is not hex") from None
    if len(value) != _KEY_LEN:
        raise ParseError(f"line {lineno}: {keyword} value must be {_KEY_LEN} bytes")
    return parts[1], value


def _load_keyed_hex(src: TextIO, keyword: str, voter_id: str | None) -> dict[str, bytes]:
    """Read `<keyword> <voter_id> <hex of _KEY_LEN bytes>` lines, '#' comments
    skipped; with a voter_id, that voter's alone (see voter_entries)."""
    try:
        text = src.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode: {exc}") from None
    return voter_entries(
        text, voter_id, lambda lineno, raw: _keyed_line(lineno, raw, keyword), ParseError
    )


def load_registry(src: TextIO, voter_id: str | None = None) -> dict[str, bytes]:
    """voter_id -> public key from `VOTER` lines; with a voter_id, that
    voter's entry alone, or none (see _load_keyed_hex)."""
    return _load_keyed_hex(src, "VOTER", voter_id)


def save_secrets(credentials: list[VoterCredential], out: TextIO) -> None:
    """Simulation-only store of private halves: `SECRET <id> <seed hex>`."""
    for cred in credentials:
        out.write(f"SECRET {cred.voter_id} {cred.seed.hex()}\n")


def load_secrets(src: TextIO, voter_id: str | None = None) -> dict[str, VoterCredential]:
    """voter_id -> credential from `SECRET` lines; with a voter_id, that
    voter's entry alone, or none (see _load_keyed_hex)."""
    seeds = _load_keyed_hex(src, "SECRET", voter_id)
    return {vid: VoterCredential(voter_id=vid, seed=seed) for vid, seed in seeds.items()}
