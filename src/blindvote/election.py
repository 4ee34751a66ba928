"""Election universe: parties, candidates, identifiers, and selection checks.

The configuration bounds are wire-format bounds: one byte encodes the party
choice (at most 255 parties) and the candidate approval bitmask is 19 bytes
(at most 152 candidates per party). See `codec` for the ballot layout that
fixes these numbers.
"""

from __future__ import annotations

import binascii
import datetime
import io
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Union

from .errors import (
    CandidateOutOfRange,
    InvariantViolation,
    ParseError,
    PartyOutOfRange,
)

ELECTION_ID_LEN = 8
MAX_PARTIES = 255
MAX_CANDIDATES = 152


def _check_name(field_path: str, name: str) -> None:
    if not name:
        raise InvariantViolation(field_path, "must be non-empty")
    if name != name.strip():
        raise InvariantViolation(field_path, "must not have leading/trailing whitespace")
    if "\n" in name or "\r" in name:
        raise InvariantViolation(field_path, "must not contain newlines")
    try:
        name.encode()
    except UnicodeEncodeError:  # a lone surrogate: no file could hold it
        raise InvariantViolation(field_path, "must be encodable as UTF-8") from None


@dataclass(frozen=True)
class Party:
    name: str
    candidates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        _check_name("party name", self.name)
        if not 1 <= len(self.candidates) <= MAX_CANDIDATES:
            raise InvariantViolation(
                f"party {self.name}",
                f"must have 1..{MAX_CANDIDATES} candidates, got {len(self.candidates)}",
            )
        for j, cand in enumerate(self.candidates):
            _check_name(f"party {self.name} candidates[{j}]", cand)


@dataclass(frozen=True)
class ElectionConfig:
    election_id: bytes
    title: str
    parties: tuple[Party, ...]  # a party's number is its position here
    created_at: str = ""

    def __post_init__(self):
        object.__setattr__(self, "parties", tuple(self.parties))
        if len(self.election_id) != ELECTION_ID_LEN:
            raise InvariantViolation(
                "election_id", f"must be exactly {ELECTION_ID_LEN} bytes"
            )
        if self.title:
            _check_name("title", self.title)
        if not 1 <= len(self.parties) <= MAX_PARTIES:
            raise InvariantViolation(
                "parties", f"need 1..{MAX_PARTIES} parties, got {len(self.parties)}"
            )
        if self.created_at:
            try:
                datetime.date.fromisoformat(self.created_at)
            except ValueError:
                raise InvariantViolation("created_at", "must be an ISO-8601 date") from None

    def party(self, index: int) -> Party:
        return self.parties[index]


@dataclass(frozen=True)
class VoteSelection:
    """One party choice plus approval marks for that party's candidates.

    An empty approval set is a valid party-only vote.
    """

    party_index: int
    approvals: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "approvals", frozenset(self.approvals))


def validate_selection(config: ElectionConfig, sel: VoteSelection) -> None:
    """Check a selection against the election universe.

    Raises PartyOutOfRange or CandidateOutOfRange; returns None when valid.
    """
    if not 0 <= sel.party_index < len(config.parties):
        raise PartyOutOfRange(
            f"party index {sel.party_index} not in 0..{len(config.parties) - 1}"
        )
    n_cands = len(config.parties[sel.party_index].candidates)
    for idx in sel.approvals:
        if not 0 <= idx < n_cands:
            raise CandidateOutOfRange(
                f"candidate index {idx} not in 0..{n_cands - 1} "
                f"for party {sel.party_index}"
            )


def record_line(raw: str) -> str | None:
    """A keyword-line file's line, stripped, or None when it is blank or a
    '#' comment."""
    line = raw.strip()
    return line if line and not line.startswith("#") else None


def record_lines(src: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Yield (line number, stripped line) of a keyword-line file, skipping
    blank lines and '#' comments; numbering counts every line. A byte the
    stream cannot decode is a ParseError."""
    try:
        for lineno, raw in enumerate(src, start=1):
            line = record_line(raw)
            if line is not None:
                yield lineno, line
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode: {exc}") from None


def voter_file_content(data: str | bytes, voter_id: str | None) -> str | bytes:
    """What voter_entries reads of a voter-keyed file, given what its read()
    returned: a text-mode file's text as it is; with a voter_id, bytes that
    are ASCII and hold no "\r" as they are, so that only the lines that
    contain the id are ever decoded; any other bytes decoded whole as UTF-8,
    with "\r\n" and "\r" read as "\n", as a text-mode read gives them.
    Raises UnicodeDecodeError."""
    if isinstance(data, str) or (
        voter_id is not None and data.isascii() and b"\r" not in data
    ):
        return data
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _lines_holding(content: str | bytes, voter_id: str) -> Iterator[tuple[int, str]]:
    """(offset, text) of each line of content that contains voter_id, in
    file order; bytes content is ASCII (see voter_file_content), and each
    line found is decoded alone."""
    if isinstance(content, bytes):
        if not voter_id.isascii():
            return  # ASCII bytes cannot hold it (nor may it encode)
        needle, newline = voter_id.encode(), b"\n"
    else:
        needle, newline = voter_id, "\n"
    if newline in needle:
        return  # no line holds a newline
    # A compiled literal finds a rare id's first character faster than
    # find's skip table, which the hex fields of every line defeat.
    search = re.compile(re.escape(needle)).search
    end = -1
    while (hit := search(content, end + 1)) is not None and hit.start() < len(content):
        begin = content.rfind(newline, 0, hit.start()) + 1
        end = content.find(newline, hit.end())
        if end < 0:
            end = len(content)
        raw = content[begin:end]
        yield begin, raw if isinstance(raw, str) else raw.decode("ascii")


def voter_entries(content: str | bytes, voter_id: str | None,
                  parse: Callable[[str], tuple | None], error: type[Exception]) -> dict:
    """voter id -> value from the lines of a voter-keyed file's content (see
    voter_file_content), where parse(line) gives (voter id, value), None for
    a line to skip, or raises. A ValueError from parse becomes an `error`
    that names the line's number; a voter listed twice is an `error` too.
    With a voter_id, that voter's entry alone, or none: one search finds the
    lines that contain the id, and only those are decoded and parsed, so
    another voter's faults go unseen, but a malformed line that contains the
    id, or a second line for it, is still refused. Line numbers count every
    line; a lookup counts them only for a message."""
    if voter_id is None:  # text: voter_file_content decodes a full read
        lines = content.split("\n")
        if not lines[-1]:  # the last "\n" ends a line, not starts one
            lines.pop()  # not removesuffix, which would copy the whole text
        located = enumerate(lines, start=1)  # each line with its number

        def line_number(lineno: int) -> int:
            return lineno
    else:
        located = _lines_holding(content, voter_id)  # each with its offset
        newline = b"\n" if isinstance(content, bytes) else "\n"

        def line_number(begin: int) -> int:
            return content.count(newline, 0, begin) + 1

    entries = {}
    for where, raw in located:
        try:
            entry = parse(raw)
        except ValueError as exc:
            raise error(f"line {line_number(where)}: {exc}") from None
        if entry is None:
            continue
        found, value = entry
        if voter_id is not None and found != voter_id:
            continue  # another voter's line that contains the id
        if found in entries:
            raise error(f"line {line_number(where)}: duplicate voter {found!r}")
        entries[found] = value
    return entries


def hex_int(text: str) -> int:
    """Parse a non-negative integer written as ASCII hex digits and nothing
    else. int(text, 16) would also take a sign, a 0x prefix, underscores
    and surrounding whitespace; unhexlify takes only digits, in one pass
    that is faster than int's on a 2048-bit value. Raises ValueError."""
    raw = text.encode("ascii")
    if not raw:
        raise ValueError("empty hex integer")
    if len(raw) % 2:
        raw = b"0" + raw
    return int.from_bytes(binascii.unhexlify(raw), "big")


# --- config file format ---
#
# Line-oriented UTF-8, each line ended by "\n":
#   ELECTION <16 hex chars> <title>
#   CREATED <ISO date>            (optional)
#   PARTY <name>
#   CAND <name>                   (one per candidate)
# Blank lines are ignored; lines whose first non-blank character is '#'
# are comments.


def load_config(path: Union[str, os.PathLike]) -> ElectionConfig:
    """Parse and fully validate the election config file at `path`, read as
    UTF-8 whatever the locale. Raises ParseError on malformed or undecodable
    input and InvariantViolation on bound breaches.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode: {exc}") from None
    return parse_config(text)


def parse_config(text: str) -> ElectionConfig:
    election_id = None
    title = ""
    created_at = ""
    parties: list[tuple[str, list[str]]] = []

    for lineno, line in record_lines(text.split("\n")):
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "ELECTION":
            if election_id is not None:
                raise ParseError(f"line {lineno}: duplicate ELECTION line")
            id_hex, _, title = rest.partition(" ")
            title = title.strip()
            try:
                election_id = bytes.fromhex(id_hex)
            except ValueError:
                raise ParseError(f"line {lineno}: election id is not hex") from None
            if len(id_hex) != 2 * ELECTION_ID_LEN:
                raise ParseError(
                    f"line {lineno}: election id must be {2 * ELECTION_ID_LEN} hex chars"
                )
        elif keyword == "CREATED":
            if election_id is None:
                raise ParseError(f"line {lineno}: CREATED before ELECTION")
            created_at = rest
        elif keyword == "PARTY":
            if election_id is None:
                raise ParseError(f"line {lineno}: PARTY before ELECTION")
            parties.append((rest, []))
        elif keyword == "CAND":
            if not parties:
                raise ParseError(f"line {lineno}: CAND before any PARTY")
            parties[-1][1].append(rest)
        else:
            raise ParseError(f"line {lineno}: unknown directive {keyword!r}")

    if election_id is None:
        raise ParseError("missing ELECTION line")
    return ElectionConfig(
        election_id=election_id,
        title=title,
        parties=tuple(Party(name, cands) for name, cands in parties),
        created_at=created_at,
    )


def dumps_config(config: ElectionConfig) -> str:
    out = io.StringIO()
    line = f"ELECTION {config.election_id.hex()}"
    if config.title:
        line += f" {config.title}"
    print(line, file=out)
    if config.created_at:
        print(f"CREATED {config.created_at}", file=out)
    for party in config.parties:
        print(f"PARTY {party.name}", file=out)
        for cand in party.candidates:
            print(f"CAND {cand}", file=out)
    return out.getvalue()


def save_config(config: ElectionConfig, path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_config(config))
