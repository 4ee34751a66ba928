"""The voter's device: fill, blind, get signed, unblind, print, verify.

prepare_and_cast runs the whole pipeline and refuses to hand the voter
anything unless the unblinded signature recovers exactly the padded block
it encoded from the selection. The printable artifact carries the signature
alone; the ballot content is recovered from it, so the payload line is the
complete vote.

A note sheet replaces the old hand-copied code sheet. It lists the chosen
stances for the voter's own records and carries a short payload digest for
looking the ballot up on the public board later. Unlike a code sheet it
proves nothing to anyone else: every voter could print any note sheet, so
it is worthless to a coercer.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from . import blindsig, codec
from .blindsig import PublicKey
from .election import ElectionConfig, VoteSelection, validate_selection
from .errors import BadFraming, LocalVerifyFailed
from .identity import SigningRequest, VoterCredential, sign_request

PAYLOAD_PREFIX = "BPV1"
DIGEST_LEN = 8


@dataclass(frozen=True)
class BallotArtifact:
    """The printable postal ballot: human-readable text plus the payload line."""

    text: str
    payload: str


@dataclass(frozen=True)
class NoteSheet:
    """The voter's private record of what was cast: text plus the board lookup handle."""

    text: str
    payload_digest: str


def payload_digest(payload: str) -> str:
    """8-byte truncated digest of the payload line, hex; the board lookup handle."""
    return hashlib.sha256(payload.encode("ascii")).digest()[:DIGEST_LEN].hex()


def format_payload(signature: int, pk: PublicKey) -> str:
    raw = codec.int_to_bytes(signature, pk.byte_length)
    b64 = base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")
    return f"{PAYLOAD_PREFIX}|{b64}"


def parse_payload(line: str, pk: PublicKey) -> int:
    """Decode a payload line to the signature integer.

    Only the canonical encoding is accepted: modulus-width value, no
    padding characters, no trailing-bit slack. Anything else is BadFraming.
    """
    line = line.strip()
    prefix, sep, b64 = line.partition("|")
    if not sep or prefix != PAYLOAD_PREFIX:
        raise BadFraming(f"payload must start with '{PAYLOAD_PREFIX}|'")
    if "|" in b64 or not b64:
        raise BadFraming("malformed payload body")
    padded = b64 + "=" * (-len(b64) % 4)
    try:
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
    except (ValueError, binascii.Error):
        raise BadFraming("payload body is not base64url") from None
    if len(raw) != pk.byte_length:
        raise BadFraming(
            f"payload carries {len(raw)} bytes, key width is {pk.byte_length}"
        )
    # Reject non-canonical spellings (e.g. a flipped trailing-slack bit that
    # decodes to the same bytes must not slip through).
    canonical = base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")
    if b64 != canonical:
        raise BadFraming("payload body is not canonical base64url")
    return codec.bytes_to_int(raw)


def stance_text(config: ElectionConfig, sel: VoteSelection) -> str:
    """How a vote reads on the ballot, the note sheet and `verify`: the PARTY
    line, then FOR or AGAINST for each of that party's candidates."""
    party = config.party(sel.party_index)
    stances = (
        f"{'FOR' if i in sel.approvals else 'AGAINST'} {cand}\n"
        for i, cand in enumerate(party.candidates)
    )
    return f"PARTY: {party.name}\n" + "".join(stances)


def render_ballot_text(config: ElectionConfig, sel: VoteSelection, payload: str) -> str:
    """Deterministic printable layout: header, stance lines, payload last."""
    return f"ELECTION: {config.title}\n{stance_text(config, sel)}{payload}\n"


def make_note_sheet(config: ElectionConfig, sel: VoteSelection, payload: str) -> NoteSheet:
    digest = payload_digest(payload)
    head = f"NOTE SHEET  election {config.election_id.hex()}"
    return NoteSheet(f"{head}\n{stance_text(config, sel)}LOOKUP: {digest}\n", digest)


def prepare_and_cast(
    config: ElectionConfig,
    cred: VoterCredential,
    sel: VoteSelection,
    pk: PublicKey,
    channel: Callable[[SigningRequest], int],
    rng: random.Random | None = None,
) -> tuple[BallotArtifact, NoteSheet]:
    """Run the full voter pipeline; abort before rendering on any failure.

    The channel sees only the blinded value. The returned artifact has
    already survived local verification: the signature recovers exactly the
    padded block built from the selection, so it decodes back to `sel`.
    """
    if rng is None:
        rng = random.SystemRandom()
    validate_selection(config, sel)
    nonce = rng.randbytes(codec.NONCE_LEN)
    block = codec.encode(sel, nonce)
    padded = codec.pad(block, config.election_id, pk.byte_length)
    m = codec.bytes_to_int(padded)
    r = blindsig.random_unit(pk.n, rng)
    blinded = blindsig.blind(m, r, pk)
    req = sign_request(cred, config.election_id, blinded)
    blinded_sig = channel(req)
    signature = blindsig.unblind(blinded_sig, r, pk)
    # Trust nothing: check the authority's work before printing.
    recovered = blindsig.verify_recover(signature, pk)
    if recovered != m:
        raise LocalVerifyFailed(
            "authority signature does not recover the padded ballot",
            request=req,
            returned=blinded_sig,
        )
    payload = format_payload(signature, pk)
    artifact = BallotArtifact(
        text=render_ballot_text(config, sel, payload),
        payload=payload,
    )
    return artifact, make_note_sheet(config, sel, payload)


def verify_ballot(pk: PublicKey, config: ElectionConfig, payload: str) -> VoteSelection:
    """The verification app: payload line in, decoded selection out.

    Raises BadFraming, BadStructure, WrongElection or a DecodeError when
    the payload is not a valid signature over a well-formed ballot for
    this election. A successful return means the signature verifies and
    the caller can visually compare the selection to the printed ballot.
    """
    signature = parse_payload(payload, pk)
    recovered = blindsig.verify_recover(signature, pk)
    padded = codec.int_to_bytes(recovered, pk.byte_length)
    block = codec.unpad(padded, config.election_id)
    sel, _nonce = codec.decode(block, config)
    return sel
