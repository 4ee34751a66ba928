"""Hash-chained public bulletin board.

One record per line, each ended by "\n":

    seq|kind|payload_b64|chain_hex

`chain` is sha256(prev_chain ‖ "seq|kind|payload_b64") where prev_chain is
the raw 32-byte digest of the previous record (32 zero bytes before the
first). The digest is taken over the line's text exactly as written, and
chain_hex must be that digest in lower-case hex, so the chain commits to
every byte of every line: any other spelling of a record (a seq of `+1` or
`01`, upper-case or spaced hex, a CR before the "\n"), text after the last
"\n", or any edit breaks the chain at that line, and every later link with
it. A board that verifies is therefore exactly its records' lines, each
followed by "\n", and corruption is detectable by a full replay from genesis.

The board is public by design; it carries no secrets and needs no
authentication, only integrity.
"""

from __future__ import annotations

import base64
import contextlib
import fcntl
import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from .errors import ChainBroken

KINDS = ("REQUEST", "BALLOT_DIGEST", "TALLY", "AUDIT", "CODE_PUBLISH", "META")

_GENESIS = bytes(32)


@dataclass(frozen=True)
class BoardRecord:
    seq: int
    kind: str
    payload: bytes
    chain: bytes
    line: str  # the record's text on the board, without its "\n"


def _chain_digest(prev: bytes, body: str) -> bytes:
    """The one place a record is hashed: `body` is its line up to the last |."""
    return hashlib.sha256(prev + body.encode("ascii")).digest()


def _replay(fh: BinaryIO, records: list[BoardRecord]) -> int | None:
    """Read the open board `fh` from its start and recompute the whole chain.

    Adds the records up to the first break to `records`, and returns the
    first broken seq or None. The digest covers each line's text as written,
    so a line breaks the chain unless its seq is exactly its position, its
    kind is known, its payload is strict base64, its chain hex is the
    lower-case digest and "\n" ends it.
    """
    fh.seek(0)
    text = fh.read().decode("ascii", errors="replace")
    *lines, tail = text.split("\n")
    prev = _GENESIS
    for seq, line in enumerate(lines):
        body, _, chain_hex = line.rpartition("|")
        # Each check fails on a non-ASCII byte, read as U+FFFD, so only ASCII
        # text reaches the digest.
        try:
            seq_text, kind, payload_b64 = body.split("|")
            payload = base64.b64decode(payload_b64, validate=True)
        except ValueError:
            return seq
        if seq_text != str(seq) or kind not in KINDS:
            return seq
        chain = _chain_digest(prev, body)
        if chain_hex != chain.hex():
            return seq
        records.append(BoardRecord(seq, kind, payload, chain, line))
        prev = chain
    return len(lines) if tail else None


class BoardBatch:
    """The records of one publication, chained in memory; see BulletinBoard.batch.

    `records` holds the board's verified records followed by the `added`
    ones, so each new record chains from the last one in the list.
    """

    def __init__(self, records: list[BoardRecord]) -> None:
        self.records = records
        self.added: list[BoardRecord] = []

    def append(self, kind: str, payload: bytes) -> BoardRecord:
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        seq = len(self.records)
        prev = self.records[-1].chain if self.records else _GENESIS
        body = f"{seq}|{kind}|{base64.b64encode(payload).decode('ascii')}"
        chain = _chain_digest(prev, body)
        rec = BoardRecord(seq, kind, payload, chain, f"{body}|{chain.hex()}")
        self.records.append(rec)
        self.added.append(rec)
        return rec

    def append_new(self, kind: str, payloads: Iterable[bytes]) -> None:
        """Append a `kind` record for each payload that no `kind` record in
        the batch holds yet, so publishing the same payloads twice adds
        nothing the second time."""
        held = {rec.payload for rec in self.records if rec.kind == kind}
        for payload in payloads:
            if payload not in held:
                self.append(kind, payload)


class BulletinBoard:
    """Append-serialized writer over a board file.

    A publication is one batch: it holds an exclusive flock on the file,
    replays and verifies the chain once through it, chains its records in
    memory and writes them all with append_lines on a clean exit. An
    exception inside the batch writes nothing. Writers in any thread or
    process, through any BulletinBoard on the path, never both write seq n.
    Do not append to or read the same path inside a batch: a second flock,
    on a second descriptor, waits for the first forever.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @contextlib.contextmanager
    def batch(self) -> Iterator[BoardBatch]:
        """Raises ChainBroken if the board is corrupt. An OSError propagates
        unchanged; the CLI prints it as IoFailure, as for every other file."""
        with self.path.open("a+b", buffering=0) as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
            batch = BoardBatch([])
            broken = _replay(fh, batch.records)
            if broken is not None:
                raise ChainBroken(broken)
            yield batch
            append_lines(fh, "".join(rec.line + "\n" for rec in batch.added))

    def append(self, kind: str, payload: bytes) -> BoardRecord:
        with self.batch() as batch:
            return batch.append(kind, payload)

    def records(self) -> list[BoardRecord]:
        records: list[BoardRecord] = []
        broken = board_verify(self.path, records)
        if broken is not None:
            raise ChainBroken(broken)
        return records


def append_lines(fh: BinaryIO, text: str) -> None:
    """Append `text`, lines each ended by "\n", to `fh` (unbuffered, open
    for reading and writing) under an exclusive flock on it, and fsync it:
    the one way requests.log, ballotbox.txt and board.txt grow. After a torn
    last line the text starts a fresh line. Any exception, a short write
    included, truncates the file back to its size before the call."""
    if not text:
        return
    fcntl.flock(fh, fcntl.LOCK_EX)
    size = fh.seek(0, os.SEEK_END)
    if size and os.pread(fh.fileno(), 1, size - 1) != b"\n":
        text = "\n" + text
    data = memoryview(text.encode())
    try:
        while data:  # an unbuffered write may take only part of data
            data = data[fh.write(data) :]
        os.fsync(fh.fileno())
    except BaseException:
        fh.truncate(size)
        raise


def board_verify(path: str | Path, records: list[BoardRecord] | None = None) -> int | None:
    """Recompute the chain; None when intact, else the first broken seq. The
    one reader of a board: it replays it once under a shared flock, so it sees
    a batch all or none, and adds the verified records to `records` if given."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None  # nothing published yet
    with fh:
        fcntl.flock(fh, fcntl.LOCK_SH)  # released when fh closes
        return _replay(fh, [] if records is None else records)
