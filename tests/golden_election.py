"""The golden election: one seeded CLI election whose files and output are
the package's contract, committed under tests/data/golden_election/.

    PYTHONPATH=src python tests/golden_election.py

rewrites that directory from the current source. Run it only for a
deliberate contract change, and say why in CHANGES.md: the diff of the
directory is then the change's contract diff. test_golden_election.py
rebuilds the election on every arithmetic backend and compares each byte.

The election takes CI's config with non-ASCII names, sets up three voters
on a seeded 512-bit key, casts two seeded votes and one refused re-vote,
mails a garbled line and a duplicate of the first ballot, then counts,
audits, gates, verifies the board and runs the token-k baseline onto a
board of its own. transcript.txt holds each command, its stdout and
stderr, and its exit code.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

from blindvote.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_election"

CONFIG = (
    "ELECTION 00112233445566aa CI Election\nPARTY Écolo\nCAND Frédéric\n"
    "CAND Arno\nPARTY Beta\nCAND Ben\n"
)
SCENARIO = "HONEST 5\nCOMPROMISED 2\nSEED 4\n"

CAST = (
    "setup --dir e --config election.cfg --voters 3 --bits 512 --seed 1",
    "vote --dir e --voter V0001 --party 0 --approve 1 --seed 2",
    "vote --dir e --voter V0002 --party 1 --seed 3",
    "vote --dir e --voter V0001 --party 1 --seed 9",  # refused: AlreadyRequested
)
COUNT = (
    "tally --dir e",
    "audit --dir e",
    "gate --dir e V0001",
    "gate --dir e V0003",
    "board verify --dir e",
    "legacy-sim scenario.txt --config election.cfg --board legacy_board.txt",
    "board verify --board legacy_board.txt",
)


def build() -> None:
    """Run the golden election in the current directory, which must be
    empty, through cli.main in this process."""
    Path("election.cfg").write_text(CONFIG, encoding="utf-8")
    Path("scenario.txt").write_text(SCENARIO, encoding="utf-8")
    transcript = []

    def blindvote(line: str) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(line.split())
        transcript.append(f"$ blindvote {line}\n{out.getvalue()}{err.getvalue()}exit {code}\n")

    for line in CAST:
        blindvote(line)
    box = Path("e", "ballotbox.txt")
    first = box.read_text(encoding="utf-8").splitlines()[0]
    with box.open("a", encoding="utf-8") as fh:
        fh.write(f"{first[:-4]}\n{first}\n")  # a garbled line, then a duplicate
    for line in COUNT:
        blindvote(line)
    Path("transcript.txt").write_text("".join(transcript), encoding="utf-8")


def files(root: Path) -> dict[str, bytes]:
    """Every file under root by its relative path."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    os.chdir(GOLDEN)
    build()
    print(f"wrote {len(files(GOLDEN))} files under {GOLDEN}", file=sys.stderr)
