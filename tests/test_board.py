from __future__ import annotations

import errno
import hashlib
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from blindvote import board as board_mod
from blindvote.authority import append_requests
from blindvote.board import KINDS, BoardRecord, BulletinBoard, board_verify
from blindvote.cli import main
from blindvote.errors import ChainBroken
from blindvote.identity import SigningRequest
from blindvote.tally import AuditReport, TallyResult, publish_tally

from conftest import FIXTURE_ELECTION_ID, make_config_2x3


def test_genesis_chain_value(tmp_path):
    # First record hashes against 32 zero bytes, by construction.
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    rec = board.append("META", b"hello")
    payload_b64 = rec.line.split("|")[2]
    expected = hashlib.sha256(b"\x00" * 32 + f"0|META|{payload_b64}".encode("ascii"))
    assert rec.seq == 0
    assert rec.chain == expected.digest()
    assert rec.line.strip().endswith(expected.hexdigest())


def test_sequence_numbers(tmp_path):
    board = BulletinBoard(tmp_path / "board.txt")
    for i in range(41):
        rec = board.append("META", f"r{i}".encode())
        assert rec.seq == i
    assert len(board.records()) == 41


def test_records_round_trip(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    payloads = [b"one", b"two|with|pipes", b"\x00\xffbinary", b""]
    for p in payloads:
        board.append("BALLOT_DIGEST", p)
    fresh = BulletinBoard(path)
    assert [r.payload for r in fresh.records()] == payloads
    assert all(r.kind == "BALLOT_DIGEST" for r in fresh.records())


def test_verify_clean_board_of_1000(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(1000):
        board.append(KINDS[i % len(KINDS)], i.to_bytes(2, "big"))
    assert board_verify(path) is None


def test_verify_missing_and_empty(tmp_path):
    assert board_verify(tmp_path / "nope.txt") is None
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert board_verify(empty) is None


def test_tamper_detection_points_at_first_bad_record(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(10):
        board.append("META", f"record {i}".encode())
    lines = path.read_text().splitlines()
    seq, kind, payload_b64, chain = lines[4].split("|")
    forged = "|".join((seq, kind, "Zm9yZ2Vk", chain))
    path.write_text("\n".join(lines[:4] + [forged] + lines[5:]) + "\n")
    assert board_verify(path) == 4


@pytest.mark.parametrize(
    "seq, field, respell",
    [
        (1, 0, lambda seq: "+1"),
        (1, 0, lambda seq: "01"),
        (2, 3, str.upper),
        (3, 3, lambda chain: " ".join(chain[i : i + 2] for i in range(0, 64, 2))),
    ],
    ids=["plus-seq", "zero-padded-seq", "upper-case-chain", "spaced-chain"],
)
def test_respelled_record_breaks_the_chain(tmp_path, capsys, seq, field, respell):
    # int() and bytes.fromhex() read each respelling as the same record, but
    # the chain commits to the line's text, so the board's bytes are fixed.
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(5):
        board.append("META", f"record {i}".encode())
    lines = path.read_text().splitlines()
    fields = lines[seq].split("|")
    respelled = respell(fields[field])
    assert respelled != fields[field]
    fields[field] = respelled
    lines[seq] = "|".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert board_verify(path) == seq
    assert main(["board", "verify", "--board", str(path)]) == 1
    assert capsys.readouterr().err == f"ERR ChainBroken: first broken record seq={seq}\n"


def test_truncation_detected(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(6):
        board.append("META", str(i).encode())
    lines = path.read_text().splitlines()
    del lines[2]
    path.write_text("\n".join(lines) + "\n")
    # Record 3 now sits at position 2 and its back-link no longer matches.
    assert board_verify(path) == 2


@pytest.mark.parametrize(
    "rewrite, seq",
    [
        (lambda text: text[:-1], 2),
        (lambda text: text.replace("\n", "\r\n"), 0),
        (lambda text: text.replace("\n", "\r"), 0),
    ],
    ids=["no-final-newline", "crlf", "bare-cr"],
)
def test_line_terminator_is_part_of_the_board(tmp_path, capsys, rewrite, seq):
    # Lines end in "\n" and nothing else, so a verified board is exactly its
    # records' lines; an append onto a record that lost its "\n" would run
    # the two records together.
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(3):
        board.append("META", str(i).encode())
    path.write_bytes(rewrite(path.read_text()).encode("ascii"))
    before = path.read_bytes()
    assert board_verify(path) == seq
    assert main(["board", "verify", "--board", str(path)]) == 1
    assert capsys.readouterr().err == f"ERR ChainBroken: first broken record seq={seq}\n"
    with pytest.raises(ChainBroken) as exc_info:
        board.append("META", b"more")
    assert exc_info.value.seq == seq
    assert path.read_bytes() == before


def test_garbled_line_detected(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(3):
        board.append("META", str(i).encode())
    with path.open("a") as f:
        f.write("not a record at all\n")
    assert board_verify(path) == 3


def test_append_to_corrupt_board_refused(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(5):
        board.append("META", str(i).encode())
    text = path.read_text()
    path.write_text(text.replace("record", "").replace("|META|", "|TALLY|", 1))
    with pytest.raises(ChainBroken) as exc_info:
        board.append("META", b"more")
    assert exc_info.value.seq == 0


def test_bad_kind_rejected(tmp_path):
    board = BulletinBoard(tmp_path / "board.txt")
    with pytest.raises(ValueError):
        board.append("GOSSIP", b"x")


def test_module_level_helpers(tmp_path):
    path = tmp_path / "board.txt"
    rec = BulletinBoard(path).append("AUDIT", b"summary")
    assert isinstance(rec, BoardRecord)
    assert board_verify(path) is None


def test_concurrent_appends_from_threads(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    errors = []

    def worker(i: int) -> None:
        try:
            board.append("REQUEST", f"w{i}".encode())
        except Exception as e:  # pragma: no cover - failure detail
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(32)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    records = board.records()
    assert [r.seq for r in records] == list(range(32))
    assert board_verify(path) is None


def test_two_instances_interleaved(tmp_path):
    # Separate handles on the same file must still form one chain.
    path = tmp_path / "board.txt"
    a = BulletinBoard(path)
    b = BulletinBoard(path)
    for i in range(10):
        (a if i % 2 == 0 else b).append("META", str(i).encode())
    assert board_verify(path) is None
    assert len(a.records()) == 10


def test_two_objects_from_threads_share_one_chain(tmp_path):
    # A lock held per object would not serialize the two objects; only a
    # lock on the file keeps two writers from both taking seq n.
    path = tmp_path / "board.txt"
    boards = [BulletinBoard(path), BulletinBoard(path)]
    errors = []

    def worker(i: int) -> None:
        try:
            for j in range(20):
                boards[i % 2].append("META", f"{i}.{j}".encode())
        except Exception as e:  # pragma: no cover - failure detail
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(boards[0].records()) == 80
    assert board_verify(path) is None


def _count_replays(monkeypatch) -> list:
    calls = []
    replay = board_mod._replay

    def counting(fh, records):
        calls.append(fh)
        return replay(fh, records)

    monkeypatch.setattr(board_mod, "_replay", counting)
    return calls


def test_publish_tally_replays_once(tmp_path, monkeypatch):
    config = make_config_2x3()
    payloads = tuple(f"BPV1|ballot{i}" for i in range(50))
    result = TallyResult(
        election_id=config.election_id,
        party_votes=(50, 0),
        candidate_votes=((0, 0, 0), (0, 0, 0)),
        accepted_payloads=payloads,
        rejected=(),
        duplicates=(),
    )
    audit = AuditReport(config.election_id, (), 50, 50)
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    board.append("META", b"setup")
    calls = _count_replays(monkeypatch)
    assert publish_tally(board, config, result, audit) == 52
    assert len(calls) == 1
    kinds = [rec.kind for rec in board.records()]
    assert kinds == ["META"] + ["BALLOT_DIGEST"] * 50 + ["TALLY", "AUDIT"]
    assert board_verify(path) is None


def test_publish_requests_replays_once(tmp_path, monkeypatch):
    requests = [
        SigningRequest(
            voter_id=f"V{i:04d}",
            election_id=FIXTURE_ELECTION_ID,
            blinded=i + 1,
            credential_signature=bytes(64),
        )
        for i in range(20)
    ]
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    with board.batch() as batch:
        append_requests(batch, requests[:5])
    calls = _count_replays(monkeypatch)
    with board.batch() as batch:
        append_requests(batch, requests)
    assert len(calls) == 1
    assert len(batch.added) == 15
    assert len(board.records()) == 20
    assert board_verify(path) is None


def test_batch_opens_and_replays_the_board_once(tmp_path, monkeypatch, opened):
    # The replay reads the descriptor that holds the batch's lock.
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    board.append("META", b"first")
    calls = _count_replays(monkeypatch)
    opened.clear()
    with board.batch() as batch:
        batch.append("META", b"second")
    assert opened == [str(path)]
    assert len(calls) == 1
    assert board_verify(path) is None


@pytest.mark.parametrize("read, seen", [
    pytest.param(board_verify, None, id="board_verify"),
    pytest.param(lambda path: len(BulletinBoard(path).records()), 2, id="records"),
])
def test_reader_waits_for_a_batch(tmp_path, read, seen):
    # A reader takes a shared flock on the board, so it sees a batch's
    # records all at once, after the batch has written them.
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    board.append("META", b"first")
    results = []
    reader = threading.Thread(target=lambda: results.append(read(path)))
    with board.batch() as batch:
        batch.append("META", b"second")
        reader.start()
        reader.join(timeout=0.5)
        assert reader.is_alive() and results == []
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert results == [seen]


def test_batch_on_corrupt_board_raises_and_writes_nothing(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(3):
        board.append("META", str(i).encode())
    lines = path.read_text().splitlines()
    seq, kind, _, chain = lines[1].split("|")
    lines[1] = "|".join((seq, kind, "Zm9yZ2Vk", chain))
    path.write_text("\n".join(lines) + "\n")
    before = path.read_bytes()
    with pytest.raises(ChainBroken) as exc_info:
        with board.batch() as batch:
            batch.append("META", b"never written")  # pragma: no cover
    assert exc_info.value.seq == 1
    assert path.read_bytes() == before


def test_exception_inside_batch_writes_nothing(tmp_path):
    path = tmp_path / "board.txt"
    board = BulletinBoard(path)
    for i in range(3):
        board.append("META", str(i).encode())
    before = path.read_bytes()

    class Abandon(Exception):
        pass

    with pytest.raises(Abandon):
        with board.batch() as batch:
            for i in range(10):
                batch.append("BALLOT_DIGEST", str(i).encode())
            raise Abandon
    assert path.read_bytes() == before
    # The lock went with the batch: the next append goes through.
    assert board.append("META", b"after").seq == 3
    assert board_verify(path) is None


# Run in a child process whose file size limit stops the batch's write part
# way: the kernel writes what fits, returns a short count, then refuses the
# rest with EFBIG.
_SIZE_LIMITED_BATCH = """
import resource, signal, sys
sys.path.insert(0, sys.argv[1])
from blindvote.board import BulletinBoard
path, limit = sys.argv[2], int(sys.argv[3])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    with BulletinBoard(path).batch() as batch:
        for i in range(3):
            batch.append("TALLY", bytes(100))
except OSError as exc:
    sys.exit(exc.errno)
"""


def test_failed_write_is_cut_back_off(tmp_path):
    path = tmp_path / "board.txt"
    BulletinBoard(path).append("META", b"first")
    before = path.read_bytes()
    src = str(Path(board_mod.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SIZE_LIMITED_BATCH, src, str(path), str(len(before) + 150)],
        capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (errno.EFBIG, "")
    assert path.read_bytes() == before
    BulletinBoard(path).append("META", b"second")  # the next count publishes
    assert board_verify(path) is None
