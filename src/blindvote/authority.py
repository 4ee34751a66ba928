"""The signing authority: eligibility checks and one blind signature per voter.

The authority holds the election's blind key pair and the voter registry.
It never sees a ballot in the clear; every value crossing its boundary is
blinded, and its persisted state (the request log) contains only voter ids,
election ids, blinded integers, and credential signatures.

The one-signature-per-voter rule is the double-voting defence: the request
log doubles as the polling-station "has voted" list, and its length bounds
the number of valid ballots any honest count can contain. A corrupt
authority that signs extra ballots cannot shrink that gap; the audit
compares ballots against voter-signed requests it cannot forge.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, TextIO

from . import blindsig
from .board import BoardBatch, BulletinBoard
from .election import ElectionConfig, hex_int, voter_entries
from .errors import (
    AlreadyRequested,
    BadFraming,
    CorruptModeDisabled,
    ProtocolError,
    WrongElection,
)
from .identity import SigningRequest, verify_request


class SigningAuthority:
    """Checks eligibility, signs blinded ballots, remembers who asked.

    handle_request is atomic: the eligibility check, the log write and the
    signing happen under one lock, so concurrent duplicate requests cannot
    both succeed. A rejected request leaves no trace and does not consume
    the voter's single-request budget.
    """

    def __init__(
        self,
        config: ElectionConfig,
        key: blindsig.BlindKeyPair,
        registry: dict[str, bytes],
        *,
        allow_corrupt: bool = False,
    ) -> None:
        self.config = config
        self.key = key
        self.registry = dict(registry)
        self.allow_corrupt = allow_corrupt
        self._log: dict[str, SigningRequest] = {}  # arrival order
        self._lock = threading.Lock()

    def handle_request(self, req: SigningRequest) -> int:
        """Verify eligibility and return sign_blinded(req.blinded).

        Check order: election id, registration, credential signature,
        then the one-request budget.
        """
        if req.election_id != self.config.election_id:
            raise WrongElection(
                f"request for election {req.election_id.hex()}, "
                f"this authority serves {self.config.election_id.hex()}"
            )
        with self._lock:
            verify_request(self.registry, req)
            if req.voter_id in self._log:
                raise AlreadyRequested(f"{req.voter_id!r} already holds a signature")
            signature = blindsig.sign_blinded(req.blinded, self.key)
            self._log[req.voter_id] = req
            return signature

    def export_request_log(
        self, board: BulletinBoard | None = None
    ) -> list[tuple[str, int, bytes]]:
        """Snapshot of (voter_id, blinded, credential signature) in arrival order.

        When a board is given, the entries are also published as REQUEST
        records so auditors can count voter-signed requests independently.
        """
        with self._lock:
            requests = list(self._log.values())
        if board is not None and requests:  # an empty log reads no board
            with board.batch() as batch:
                append_requests(batch, requests)
        return [(req.voter_id, req.blinded, req.credential_signature) for req in requests]

    def corrupt_sign(self, blinded: int) -> int:
        """Sign without logging a request. Adversarial harness only."""
        if not self.allow_corrupt:
            raise CorruptModeDisabled("authority is running in honest mode")
        with self._lock:
            return blindsig.sign_blinded(blinded, self.key)

    def save_request_log(self, out: TextIO, *, after: int = 0) -> None:
        """Persist the log as REQ lines (the authority's only durable state).
        With after=k only the entries past the first k are written: the
        lines to append to a saved log of k entries."""
        with self._lock:
            for req in itertools.islice(self._log.values(), after, None):
                out.write(format_request(req) + "\n")

    def load_request_log(self, src: TextIO, voter_id: str | None = None) -> int:
        """Restore a previously saved log (replaces the in-memory log) and
        return the number of entries it holds; with a voter_id, that voter's
        entry alone, or none (see read_request_log)."""
        log = {req.voter_id: req for req in read_request_log(src, voter_id)}
        with self._lock:
            self._log = log
        return len(log)


# --- text framing for the file-based mailbox ---
#
#   REQ <voter_id> <election_id hex> <blinded hex> <sig hex>
#   RSP OK <blindedsig hex>
#   RSP ERR <code>


def format_request(req: SigningRequest) -> str:
    return (
        f"REQ {req.voter_id} {req.election_id.hex()} "
        f"{req.blinded:x} {req.credential_signature.hex()}"
    )


def parse_request(line: str) -> SigningRequest:
    parts = line.split()
    if len(parts) != 5 or parts[0] != "REQ":
        raise BadFraming("expected 'REQ <voter_id> <election_id> <blinded> <sig>'")
    try:
        election_id = bytes.fromhex(parts[2])
        blinded = hex_int(parts[3])
        signature = bytes.fromhex(parts[4])
    except ValueError:
        raise BadFraming("non-hex field in REQ line") from None
    return SigningRequest(
        voter_id=parts[1],
        election_id=election_id,
        blinded=blinded,
        credential_signature=signature,
    )


def _request_entry(lineno: int, raw: str) -> tuple[str, SigningRequest] | None:
    """A log line's (voter id, request), or None when it is blank."""
    req = parse_request(raw) if raw.strip() else None
    return None if req is None else (req.voter_id, req)


def read_request_log(src: TextIO, voter_id: str | None = None) -> list[SigningRequest]:
    """Parse a saved request log: one REQ line per request, each ended by
    "\n", blank lines skipped. Text after the last "\n" (a torn append), a
    "#" line, an undecodable byte or a voter listed twice is BadFraming.
    With a voter_id, that voter's request alone, or none (see
    election.voter_entries); the whole text is still decoded and checked for
    its final "\n", and a "#" line that contains the id is refused, since
    skipping it as a comment could hide a logged voter."""
    try:
        text = src.read()
    except UnicodeDecodeError as exc:
        raise BadFraming(f"request log does not decode as {exc.encoding}: {exc.reason}") from None
    if text and not text.endswith("\n"):
        raise BadFraming("request log's last line is torn (no final newline)")
    return list(voter_entries(text, voter_id, _request_entry, BadFraming).values())


def append_requests(batch: BoardBatch, requests: Iterable[SigningRequest]) -> None:
    """Append each request the batch does not hold yet as a REQUEST record."""
    batch.append_new("REQUEST", (format_request(req).encode() for req in requests))


def format_response(result: int | ProtocolError) -> str:
    if isinstance(result, ProtocolError):
        return f"RSP ERR {result.code}"
    return f"RSP OK {result:x}"


def process_mailbox(authority: SigningAuthority, lines: Iterable[str]) -> list[str]:
    """Serve a batch of REQ lines, one RSP line per non-blank input line."""
    responses: list[str] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            req = parse_request(line)
            responses.append(format_response(authority.handle_request(req)))
        except ProtocolError as exc:
            responses.append(format_response(exc))
    return responses
