"""The original token-k postal system and the k-reuse attack on it.

Each voter gets a sheet set from the preparation server: a selection sheet
carrying a random 128-bit token k and a code sheet with a FOR and an
AGAINST short code per candidate. The voter mails the chosen party's
selection sheet; the tally publishes the short codes for the stances it
counted, and the voter compares them with the code sheet.

Two modeled defects, both inherent to the design:

* The server can check that a mailed k was issued, but not that it is
  unique. Malware on several voters' devices can stamp one valid k onto
  all their ballots; at tally time nothing distinguishes the honest owner
  from the copies, so every ballot sharing the k must be invalidated.
* The code sheet is a receipt. Anyone holding it can read the published
  codes off the board and reconstruct the vote, which makes coercion and
  vote buying practical.

The blind-signature flow in the rest of this package exists to remove
both: signatures are unique per ballot by construction and no code sheet
exists at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .board import BulletinBoard
from .election import ElectionConfig, VoteSelection, record_lines
from .errors import NotEligible, ParseError

K_LEN = 16
CODE_LEN = 4
# 32 symbols, no I/L/O/U, so codes survive handwriting; 20 bits per code.
CODE_ALPHABET = "0123456789ABCDEFGHJKMNPQRSTVWXYZ"


@dataclass(frozen=True)
class CodeSheet:
    """Per candidate, a (FOR, AGAINST) code pair; all codes distinct."""

    # codes[party_index][cand_index] = (for_code, against_code)
    codes: tuple[tuple[tuple[str, str], ...], ...]

    def stance_code(self, party_index: int, cand_index: int, chosen: bool) -> str:
        pair = self.codes[party_index][cand_index]
        return pair[0] if chosen else pair[1]


@dataclass(frozen=True)
class SheetSet:
    """Everything the preparation server prints for one voter."""

    voter_id: str
    k: bytes
    code_sheet: CodeSheet


@dataclass(frozen=True)
class LegacyCast:
    """A mailed selection sheet: the token plus one party's stances."""

    k: bytes
    party_index: int
    stances: tuple[bool, ...]  # one per candidate of the selected party


def _fresh_code(rng: random.Random, taken: set[str]) -> str:
    while True:
        code = "".join(rng.choice(CODE_ALPHABET) for _ in range(CODE_LEN))
        if code not in taken:
            taken.add(code)
            return code


class LegacyServer:
    """The ballot-preparation server: issues sheets, remembers what it issued.

    Validity of a mailed k means only "this value was issued to someone".
    The server keeps the code tables so the tally can publish the counted
    stances' codes.
    """

    def __init__(
        self,
        config: ElectionConfig,
        eligible: set[str],
        rng: random.Random | None = None,
    ) -> None:
        self.config = config
        self.eligible = set(eligible)
        self._rng = rng if rng is not None else random.SystemRandom()
        self._issued: dict[bytes, SheetSet] = {}

    def issue_sheets(self, voter_id: str) -> SheetSet:
        if voter_id not in self.eligible:
            raise NotEligible(f"{voter_id!r} is not on the voter roll")
        while True:
            k = self._rng.randbytes(K_LEN)
            if k not in self._issued:
                break
        taken: set[str] = set()
        codes = tuple(
            tuple(
                (_fresh_code(self._rng, taken), _fresh_code(self._rng, taken))
                for _ in party.candidates
            )
            for party in self.config.parties
        )
        sheets = SheetSet(voter_id=voter_id, k=k, code_sheet=CodeSheet(codes=codes))
        self._issued[k] = sheets
        return sheets

    def check_k_valid(self, k: bytes) -> bool:
        """Membership in the issued set; deliberately blind to sharing."""
        return k in self._issued

    def issued_sheets(self, k: bytes) -> SheetSet | None:
        return self._issued.get(k)


def make_cast(sheets: SheetSet, config: ElectionConfig, sel: VoteSelection) -> LegacyCast:
    """Fill the selected party's sheet from a selection."""
    party = config.party(sel.party_index)
    stances = tuple(i in sel.approvals for i in range(len(party.candidates)))
    return LegacyCast(k=sheets.k, party_index=sel.party_index, stances=stances)


@dataclass(frozen=True)
class LegacyTallyResult:
    party_votes: tuple[int, ...]
    candidate_votes: tuple[tuple[int, ...], ...]
    counted: tuple[int, ...]  # cast indices
    invalidated: tuple[int, ...]  # cast indices sharing a k
    unknown_k: tuple[int, ...]  # cast indices whose k was never issued
    published_codes: tuple[tuple[str, tuple[str, ...]], ...]  # (k hex, codes)


def legacy_tally(
    server: LegacyServer,
    casts: list[LegacyCast],
    board: BulletinBoard | None = None,
) -> LegacyTallyResult:
    """Count unique-k casts; invalidate every cast whose k appears twice.

    The server cannot tell which of the sharing casts is the token's real
    owner, so all of them are thrown out. Counted casts have their stance
    codes published (CODE_PUBLISH records) for voter verification.
    """
    config = server.config
    k_seen: dict[bytes, int] = {}
    for cast in casts:
        k_seen[cast.k] = k_seen.get(cast.k, 0) + 1
    party_votes = [0] * len(config.parties)
    candidate_votes = [[0] * len(p.candidates) for p in config.parties]
    counted: list[int] = []
    invalidated: list[int] = []
    unknown: list[int] = []
    published: list[tuple[str, tuple[str, ...]]] = []
    for idx, cast in enumerate(casts):
        sheets = server.issued_sheets(cast.k)
        if sheets is None:
            unknown.append(idx)
            continue
        if k_seen[cast.k] > 1:
            invalidated.append(idx)
            continue
        counted.append(idx)
        party_votes[cast.party_index] += 1
        for i, chosen in enumerate(cast.stances):
            if chosen:
                candidate_votes[cast.party_index][i] += 1
        codes = tuple(
            sheets.code_sheet.stance_code(cast.party_index, i, chosen)
            for i, chosen in enumerate(cast.stances)
        )
        published.append((cast.k.hex(), codes))
    if board is not None and published:
        with board.batch() as batch:
            for k_hex, codes in published:
                line = k_hex + " " + " ".join(codes)
                batch.append("CODE_PUBLISH", line.encode())
    return LegacyTallyResult(
        party_votes=tuple(party_votes),
        candidate_votes=tuple(tuple(row) for row in candidate_votes),
        counted=tuple(counted),
        invalidated=tuple(invalidated),
        unknown_k=tuple(unknown),
        published_codes=tuple(published),
    )


def reconstruct_vote(
    code_sheet: CodeSheet, published: tuple[str, ...]
) -> tuple[int, tuple[bool, ...]] | None:
    """The receipt hazard: code sheet + board publication = readable vote.

    Returns (party_index, stances) when the published codes match one
    party's rows on this sheet, None otherwise. Distinct codes within a
    sheet make the match unambiguous.
    """
    for party_index, rows in enumerate(code_sheet.codes):
        if len(rows) != len(published):
            continue
        stances: list[bool] = []
        for (for_code, against_code), code in zip(rows, published):
            if code == for_code:
                stances.append(True)
            elif code == against_code:
                stances.append(False)
            else:
                break
        else:
            return party_index, tuple(stances)
    return None


# --- scenario driver ---


@dataclass(frozen=True)
class LegacyScenario:
    """Honest voters, then compromised devices that all stamp one shared k."""

    honest: int
    compromised: int
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.honest < 0 or self.compromised < 0:
            raise ValueError("voter counts must be non-negative")
        if self.compromised == 1:
            raise ValueError("the reuse attack needs COMPROMISED 0 or at least 2")


def parse_scenario(text: str) -> LegacyScenario:
    """Directives: `HONEST <n>`, `COMPROMISED <m>` (0 or >= 2), optional `SEED <int>`."""
    honest: int | None = None
    compromised: int | None = None
    seed: int | None = None
    for lineno, line in record_lines(text.split("\n")):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected '<DIRECTIVE> <value>'")
        word, value = parts
        try:
            number = int(value)
        except ValueError:
            raise ParseError(f"line {lineno}: {value!r} is not an integer") from None
        if word == "HONEST":
            honest = number
        elif word == "COMPROMISED":
            compromised = number
        elif word == "SEED":
            seed = number
        else:
            raise ParseError(f"line {lineno}: unknown directive {word!r}")
    if honest is None or compromised is None:
        raise ParseError("scenario needs both HONEST and COMPROMISED")
    try:
        return LegacyScenario(honest=honest, compromised=compromised, seed=seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass(frozen=True)
class ScenarioReport:
    scenario: LegacyScenario
    voter_ids: tuple[str, ...]
    selections: tuple[VoteSelection, ...]
    result: LegacyTallyResult
    k_checks_passed: bool  # every compromised ballot passed check_k_valid
    receipt_voter: str
    receipt_match: bool


def random_selection(config: ElectionConfig, rng: random.Random) -> VoteSelection:
    party = rng.randrange(len(config.parties))
    n = len(config.party(party).candidates)
    approvals = frozenset(i for i in range(n) if rng.random() < 0.5)
    return VoteSelection(party_index=party, approvals=approvals)


def run_scenario(
    config: ElectionConfig,
    scenario: LegacyScenario,
    board: BulletinBoard | None = None,
) -> ScenarioReport:
    """Drive the modeled attack: the compromised devices stamp one valid k.

    The shared k is the first compromised voter's own token, so every
    check_k_valid call succeeds, and the tally is forced to throw away all
    of their ballots. Honest voters are untouched. Draws come from
    random.Random(scenario.seed), or from the system's source unseeded.
    """
    rng = random.SystemRandom() if scenario.seed is None else random.Random(scenario.seed)
    honest = scenario.honest
    voter_ids = tuple(
        [f"H{i:04d}" for i in range(honest)]
        + [f"C{i:04d}" for i in range(scenario.compromised)]
    )
    server = LegacyServer(config, set(voter_ids), rng)
    sheet_sets = [server.issue_sheets(vid) for vid in voter_ids]
    selections = tuple(random_selection(config, rng) for _ in voter_ids)
    shared_k = sheet_sets[honest].k if scenario.compromised else b""
    casts: list[LegacyCast] = []
    k_checks_passed = True
    for i, (sheets, sel) in enumerate(zip(sheet_sets, selections)):
        cast = make_cast(sheets, config, sel)
        if i >= honest:
            # Malware swaps in the shared token; the vote itself is untouched.
            cast = LegacyCast(k=shared_k, party_index=cast.party_index, stances=cast.stances)
            k_checks_passed = k_checks_passed and server.check_k_valid(cast.k)
        casts.append(cast)
    result = legacy_tally(server, casts, board)
    # Receipt demo on the first counted cast: sheet + publication = vote.
    receipt_voter = ""
    receipt_match = False
    if result.counted:
        idx = result.counted[0]
        sheets = sheet_sets[idx]
        receipt_voter = sheets.voter_id
        for k_hex, codes in result.published_codes:
            if k_hex == sheets.k.hex():
                got = reconstruct_vote(sheets.code_sheet, codes)
                receipt_match = got == (casts[idx].party_index, casts[idx].stances)
                break
    return ScenarioReport(
        scenario=scenario,
        voter_ids=voter_ids,
        selections=selections,
        result=result,
        k_checks_passed=k_checks_passed,
        receipt_voter=receipt_voter,
        receipt_match=receipt_match,
    )


def format_scenario_report(report: ScenarioReport) -> str:
    r = report.result
    lines = [
        "LEGACY SCENARIO REPORT",
        f"honest={report.scenario.honest} compromised={report.scenario.compromised}",
        "COUNTED",
        f"counted={len(r.counted)}",
    ]
    for pi, votes in enumerate(r.party_votes):
        lines.append(f"party {pi} votes={votes}")
    disenfranchised = [report.voter_ids[i] for i in r.invalidated]
    lines.append("INVALIDATED")
    lines.append(f"invalidated={len(r.invalidated)}")
    lines.append(f"disenfranchised={' '.join(disenfranchised) or '-'}")
    if report.scenario.compromised:
        passed = "true" if report.k_checks_passed else "false"
    else:
        passed = "n/a"
    lines.append(f"all_compromised_k_checks_passed={passed}")
    lines.append("RECEIPT RECONSTRUCTION")
    if report.receipt_voter:
        lines.append(f"voter={report.receipt_voter}")
        lines.append(f"vote_reconstructed={'true' if report.receipt_match else 'false'}")
    else:
        lines.append("voter=-")
    lines.append("END REPORT")
    return "\n".join(lines) + "\n"
