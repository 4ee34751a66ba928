"""Counting, the eligibility audit, and the polling-station gate.

The tally verifies each mailed payload independently (recover, unpad,
decode), so counting is just bookkeeping over the accepted ballots.
Byte-identical signatures count once: a photocopied ballot is one vote.
Distinct signatures with identical selections count separately, which is
what the ballot nonce guarantees for honest voters.

The audit rule: the count of valid ballots may never exceed the count of
voter-signed requests. Requests are signed by voter credentials the
authority cannot forge, so extra authority-minted ballots show up as a
positive discrepancy. Lost mail moves the difference the other way, which
means the rule only ever detects excess; a corrupt signature can hide
behind a lost honest ballot, and the report states the raw numbers so
auditors see exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TextIO

from . import voter
from .authority import append_requests
from .blindsig import PublicKey
from .board import BulletinBoard
from .election import ElectionConfig
from .errors import (
    AlreadyRequested,
    LookupUnavailable,
    ProtocolError,
    UnknownVoter,
)
from .identity import SigningRequest, verify_request


@dataclass(frozen=True)
class TallyResult:
    election_id: bytes
    party_votes: tuple[int, ...]
    candidate_votes: tuple[tuple[int, ...], ...]
    accepted_payloads: tuple[str, ...]
    rejected: tuple[tuple[int, str], ...]  # (box index, error code)
    duplicates: tuple[int, ...]  # box indices of repeat occurrences

    @property
    def accepted(self) -> int:
        return len(self.accepted_payloads)

    @property
    def total(self) -> int:
        return self.accepted + len(self.rejected) + len(self.duplicates)


@dataclass(frozen=True)
class AuditReport:
    election_id: bytes
    requests: tuple[SigningRequest, ...]  # the log as audited, in log order
    requests_valid: int
    ballots_valid: int

    @property
    def requests_total(self) -> int:
        return len(self.requests)

    @property
    def discrepancy(self) -> int:
        return self.ballots_valid - self.requests_valid

    @property
    def cheat_flag(self) -> bool:
        return self.ballots_valid > self.requests_valid


@dataclass(frozen=True)
class GateResult:
    allow: bool
    reason: str = ""

    @property
    def verdict(self) -> str:
        return "ALLOW" if self.allow else "BLOCK"


def load_ballot_box(src: TextIO) -> list[str]:
    """One payload line per row; blank lines ignored, order preserved."""
    return [line.strip() for line in src if line.strip()]


def tally(pk: PublicKey, config: ElectionConfig, box: Iterable[str]) -> TallyResult:
    """Verify and count a ballot box.

    Every failure is a per-ballot verdict, never an exception: a bad
    payload lands in `rejected` with its error code and the count goes on.
    """
    party_votes = [0] * len(config.parties)
    candidate_votes = [
        [0] * len(party.candidates) for party in config.parties
    ]
    accepted_payloads: list[str] = []
    rejected: list[tuple[int, str]] = []
    duplicates: list[int] = []
    seen: set[str] = set()
    for idx, payload in enumerate(box):
        # parse_payload accepts only the canonical spelling of a signature, so
        # two valid lines carry the same signature exactly when they are equal:
        # a repeat of an accepted line is a duplicate without a second check.
        line = payload.strip()
        if line in seen:
            duplicates.append(idx)
            continue
        try:
            sel = voter.verify_ballot(pk, config, payload)
        except ProtocolError as exc:
            rejected.append((idx, exc.code))
            continue
        seen.add(line)
        accepted_payloads.append(line)
        party_votes[sel.party_index] += 1
        for cand in sel.approvals:
            candidate_votes[sel.party_index][cand] += 1
    return TallyResult(
        election_id=config.election_id,
        party_votes=tuple(party_votes),
        candidate_votes=tuple(tuple(row) for row in candidate_votes),
        accepted_payloads=tuple(accepted_payloads),
        rejected=tuple(rejected),
        duplicates=tuple(duplicates),
    )


def eligibility_audit(
    registry: dict[str, bytes],
    request_log: Iterable[SigningRequest],
    result: TallyResult,
) -> AuditReport:
    """Count voter-signed requests and compare against accepted ballots.

    A request counts as valid only for the election it was signed for: a
    credential may serve several elections, so a request from another one
    proves nothing about this election's ballots.
    """
    requests = tuple(request_log)
    valid_voters: set[str] = set()
    for req in requests:
        if req.election_id != result.election_id:
            continue
        try:
            verify_request(registry, req)
        except ProtocolError:
            continue
        valid_voters.add(req.voter_id)
    return AuditReport(
        election_id=result.election_id,
        requests=requests,
        requests_valid=len(valid_voters),
        ballots_valid=result.accepted,
    )


def polling_gate(
    registry: dict[str, bytes],
    requested: set[str] | None,
    voter_id: str,
    *,
    fail_open: bool = False,
) -> GateResult:
    """In-person gate: may this voter still vote at the station?

    `requested` is the authority's has-requested set, or None when the
    lookup is unavailable. Unavailable defaults to BLOCK (fail closed)
    with an explicit reason so station workers see why.
    """
    if requested is None:
        return GateResult(allow=fail_open, reason=LookupUnavailable.__name__)
    if voter_id not in registry:
        return GateResult(allow=False, reason=UnknownVoter.__name__)
    if voter_id in requested:
        return GateResult(allow=False, reason=AlreadyRequested.__name__)
    return GateResult(allow=True)


def format_tally_report(config: ElectionConfig, result: TallyResult) -> str:
    """Fixed-order text report; field order is part of the interface."""
    lines = [f"TALLY REPORT election {result.election_id.hex()}"]
    lines.append(
        f"ballots total={result.total} accepted={result.accepted} "
        f"rejected={len(result.rejected)} duplicates={len(result.duplicates)}"
    )
    for pi, party in enumerate(config.parties):
        lines.append(f"party {pi} votes={result.party_votes[pi]} name={party.name}")
        for ci, cand in enumerate(party.candidates):
            lines.append(f"  cand {ci} for={result.candidate_votes[pi][ci]} name={cand}")
    for idx, code in result.rejected:
        lines.append(f"rejected {idx} {code}")
    for idx in result.duplicates:
        lines.append(f"duplicate {idx}")
    lines.append("END TALLY")
    return "\n".join(lines) + "\n"


def format_audit_report(report: AuditReport) -> str:
    lines = [
        f"AUDIT REPORT election {report.election_id.hex()}",
        f"requests_total={report.requests_total}",
        f"requests_valid={report.requests_valid}",
        f"ballots_valid={report.ballots_valid}",
        f"discrepancy={report.discrepancy}",
        f"cheat_flag={'true' if report.cheat_flag else 'false'}",
        "END AUDIT",
    ]
    return "\n".join(lines) + "\n"


def publish_tally(
    board: BulletinBoard,
    config: ElectionConfig,
    result: TallyResult,
    audit: AuditReport,
) -> int:
    """Publish the count in one batch: the audited requests and the accepted
    ballots' digests that the board does not hold yet, then the tally and
    audit reports, unless nothing was added and both equal the board's last
    TALLY and AUDIT. So a count the board already holds adds nothing, while
    one that repeats an older count (a box cut back after a torn line) is
    published again. Returns the number of records added.

    The digests go out sorted. The box holds ballots in arrival order,
    which in this simulation is request-log order, and the board lists the
    requesters in that order: digests in box order would pair the i-th
    requester with the i-th ballot.
    """
    digests = sorted(voter.payload_digest(payload) for payload in result.accepted_payloads)
    reports = {
        "TALLY": format_tally_report(config, result).encode(),
        "AUDIT": format_audit_report(audit).encode(),
    }
    with board.batch() as batch:
        last = {rec.kind: rec.payload for rec in batch.records if rec.kind in reports}
        append_requests(batch, audit.requests)
        batch.append_new("BALLOT_DIGEST", (digest.encode() for digest in digests))
        if batch.added or last != reports:
            for kind, report in reports.items():
                batch.append(kind, report)
    return len(batch.added)
