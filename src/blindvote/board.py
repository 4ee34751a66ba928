"""Hash-chained public bulletin board.

One record per line:

    seq|kind|payload_b64|chain_hex

`chain` is sha256(prev_chain ‖ "seq|kind|payload_b64") where prev_chain is
the raw 32-byte digest of the previous record (32 zero bytes before the
first). Any edit to a committed line changes its digest and breaks every
later link, so corruption is detectable by a full replay from genesis.

The board is public by design; it carries no secrets and needs no
authentication, only integrity.
"""

from __future__ import annotations

import base64
import contextlib
import fcntl
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import ChainBroken, IoFailure, ParseError

KINDS = ("REQUEST", "BALLOT_DIGEST", "TALLY", "AUDIT", "CODE_PUBLISH", "META")

_GENESIS = bytes(32)


@dataclass(frozen=True)
class BoardRecord:
    seq: int
    kind: str
    payload: bytes
    chain: bytes

    @property
    def line(self) -> str:
        payload_b64 = base64.b64encode(self.payload).decode("ascii")
        return f"{self.seq}|{self.kind}|{payload_b64}|{self.chain.hex()}"


def _chain_digest(prev: bytes, seq: int, kind: str, payload_b64: str) -> bytes:
    return hashlib.sha256(prev + f"{seq}|{kind}|{payload_b64}".encode("ascii")).digest()


def _parse_line(lineno: int, line: str) -> BoardRecord:
    parts = line.split("|")
    if len(parts) != 4:
        raise ParseError(f"board line {lineno}: expected 4 |-separated fields")
    seq_text, kind, payload_b64, chain_hex = parts
    try:
        seq = int(seq_text)
    except ValueError:
        raise ParseError(f"board line {lineno}: bad seq {seq_text!r}") from None
    if kind not in KINDS:
        raise ParseError(f"board line {lineno}: unknown kind {kind!r}")
    try:
        payload = base64.b64decode(payload_b64, validate=True)
    except ValueError:
        raise ParseError(f"board line {lineno}: payload is not base64") from None
    try:
        chain = bytes.fromhex(chain_hex)
    except ValueError:
        raise ParseError(f"board line {lineno}: chain is not hex") from None
    if len(chain) != 32:
        raise ParseError(f"board line {lineno}: chain must be 32 bytes")
    return BoardRecord(seq=seq, kind=kind, payload=payload, chain=chain)


def _replay(path: Path) -> tuple[list[BoardRecord], int | None]:
    """Read and recompute the whole chain.

    Returns (records up to the first break, first broken seq or None).
    A structurally unparsable line counts as broken at the expected seq.
    """
    try:
        text = path.read_text(encoding="ascii", errors="replace")
    except FileNotFoundError:
        return [], None
    except OSError as exc:
        raise IoFailure(f"cannot read board {path}: {exc}") from exc
    records: list[BoardRecord] = []
    prev = _GENESIS
    for lineno, line in enumerate(text.splitlines(), start=1):
        expected_seq = lineno - 1
        try:
            rec = _parse_line(lineno, line)
        except ParseError:
            return records, expected_seq
        payload_b64 = base64.b64encode(rec.payload).decode("ascii")
        if (
            rec.seq != expected_seq
            or rec.chain != _chain_digest(prev, rec.seq, rec.kind, payload_b64)
        ):
            return records, expected_seq
        records.append(rec)
        prev = rec.chain
    return records, None


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
        payload_b64 = base64.b64encode(payload).decode("ascii")
        rec = BoardRecord(seq, kind, payload, _chain_digest(prev, seq, kind, payload_b64))
        self.records.append(rec)
        self.added.append(rec)
        return rec


class BulletinBoard:
    """Append-serialized writer over a board file.

    A publication is one batch: it holds an exclusive flock on the file,
    replays and verifies the chain once, chains its records in memory and
    writes them all on a clean exit. An exception inside the batch writes
    nothing. Writers in any thread or process, through any number of
    BulletinBoard objects on the same path, therefore never both write seq
    n. Do not append to the same path inside a batch: a second flock, on a
    second descriptor, waits for the first forever.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    @contextlib.contextmanager
    def batch(self) -> Iterator[BoardBatch]:
        """Raises ChainBroken if the board is corrupt; I/O errors, including
        an OSError raised inside the batch, become IoFailure."""
        try:
            with self.path.open("a", encoding="ascii") as fh:
                fcntl.flock(fh, fcntl.LOCK_EX)  # released when fh closes
                records, broken = _replay(self.path)
                if broken is not None:
                    raise ChainBroken(broken)
                batch = BoardBatch(records)
                yield batch
                fh.write("".join(rec.line + "\n" for rec in batch.added))
        except OSError as exc:
            raise IoFailure(f"cannot append to board {self.path}: {exc}") from exc

    def append(self, kind: str, payload: bytes) -> BoardRecord:
        with self.batch() as batch:
            return batch.append(kind, payload)

    def records(self) -> list[BoardRecord]:
        records, broken = _replay(self.path)
        if broken is not None:
            raise ChainBroken(broken)
        return records


def board_append(path: str | Path, kind: str, payload: bytes) -> BoardRecord:
    return BulletinBoard(path).append(kind, payload)


def board_verify(path: str | Path) -> int | None:
    """Recompute the chain; None when intact, else the first broken seq."""
    _, broken = _replay(Path(path))
    return broken
