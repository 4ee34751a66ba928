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
from typing import Iterator

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


def _replay(path: Path) -> tuple[list[BoardRecord], int | None]:
    """Read and recompute the whole chain.

    Returns (records up to the first break, first broken seq or None). The
    digest covers each line's text as written, so a line breaks the chain
    unless its seq is exactly its position, its kind is known, its payload
    is strict base64, its chain hex is the lower-case digest and "\n" ends it.
    """
    try:
        text = path.read_bytes().decode("ascii", errors="replace")
    except FileNotFoundError:
        return [], None
    *lines, tail = text.split("\n")
    records: list[BoardRecord] = []
    prev = _GENESIS
    for seq, line in enumerate(lines):
        body, _, chain_hex = line.rpartition("|")
        # Each check fails on a non-ASCII byte, read as U+FFFD, so only ASCII
        # text reaches the digest.
        try:
            seq_text, kind, payload_b64 = body.split("|")
            payload = base64.b64decode(payload_b64, validate=True)
        except ValueError:
            return records, seq
        if seq_text != str(seq) or kind not in KINDS:
            return records, seq
        chain = _chain_digest(prev, body)
        if chain_hex != chain.hex():
            return records, seq
        records.append(BoardRecord(seq, kind, payload, chain, line))
        prev = chain
    return records, len(records) if tail else None


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


class BulletinBoard:
    """Append-serialized writer over a board file.

    A publication is one batch: it holds an exclusive flock on the file,
    replays and verifies the chain once, chains its records in memory and
    writes them all on a clean exit. An exception inside the batch writes
    nothing, and a write that fails part way is cut back off. Writers in
    any thread or process, through any number of BulletinBoard objects on
    the same path, therefore never both write seq n. Do not append to the
    same path inside a batch: a second flock, on a second descriptor, waits
    for the first forever.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @contextlib.contextmanager
    def batch(self) -> Iterator[BoardBatch]:
        """Raises ChainBroken if the board is corrupt. An OSError propagates
        unchanged; the CLI prints it as IoFailure, as for every other file."""
        with self.path.open("ab", buffering=0) as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
            records, broken = _replay(self.path)
            if broken is not None:
                raise ChainBroken(broken)
            batch = BoardBatch(records)
            yield batch
            size = os.fstat(fh.fileno()).st_size
            data = memoryview("".join(rec.line + "\n" for rec in batch.added).encode("ascii"))
            try:
                while data:  # an unbuffered write may take only part of data
                    data = data[fh.write(data) :]
            except BaseException:
                # Still locked: cut off the part that was written, so the
                # board is left as it was and no torn tail breaks its chain.
                fh.truncate(size)
                raise

    def append(self, kind: str, payload: bytes) -> BoardRecord:
        with self.batch() as batch:
            return batch.append(kind, payload)

    def records(self) -> list[BoardRecord]:
        records, broken = _replay(self.path)
        if broken is not None:
            raise ChainBroken(broken)
        return records


def board_verify(path: str | Path) -> int | None:
    """Recompute the chain; None when intact, else the first broken seq."""
    _, broken = _replay(Path(path))
    return broken
