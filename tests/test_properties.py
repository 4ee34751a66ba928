"""Property tests: codec, payload framing, the config file and the
directory's line formats each round-trip, the readers skip blank and
comment lines alike, a board batch writes what the same appends one by one
would, the request log's appends write what a rewrite of the whole log
would, a lookup of one voter in a file reads what the full read holds for
that voter, and append_lines writes its lines, each on a fresh line."""

from __future__ import annotations

import base64
import io
import random
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from blindvote import codec
from blindvote.authority import (
    SigningAuthority,
    format_request,
    read_request_log,
)
from blindvote.board import KINDS, BulletinBoard, append_lines, board_verify
from blindvote.cli import main
from blindvote.election import (
    MAX_CANDIDATES,
    ElectionConfig,
    Party,
    VoteSelection,
    dumps_config,
    load_config,
    parse_config,
    save_config,
)
from blindvote.errors import BadFraming, ParseError
from blindvote.identity import (
    SigningRequest,
    VoterCredential,
    load_registry,
    load_secrets,
    save_registry,
    save_secrets,
    sign_request,
)
from blindvote.voter import PAYLOAD_PREFIX, format_payload, parse_payload

from conftest import FIXTURE_ELECTION_ID, disk_full, make_config_2x3

# Small example counts keep the whole suite quick; failing examples are not
# stored between runs.
FAST = settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

B64URL = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

voter_ids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=10,
)

# Any title or name ElectionConfig accepts: stripped, with neither "\n",
# "\r" nor a lone surrogate, drawing often the characters that
# str.splitlines() also breaks at.
names = st.text(
    st.sampled_from(" #\u00e9\t\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    | st.characters(exclude_categories=["Cs"], exclude_characters="\n\r"),
    min_size=1,
    max_size=12,
).map(str.strip).filter(bool)


@st.composite
def election_configs(draw):
    parties = draw(st.lists(st.tuples(names, st.lists(names, min_size=1, max_size=3)),
                            min_size=1, max_size=3))
    return ElectionConfig(
        election_id=draw(st.binary(min_size=8, max_size=8)),
        title=draw(st.just("") | names),
        parties=tuple(Party(name=name, candidates=tuple(cands)) for name, cands in parties),
        created_at=draw(st.sampled_from(["", "2026-08-14"])),
    )


@st.composite
def elections_and_selections(draw):
    sizes = draw(st.lists(st.integers(1, MAX_CANDIDATES), min_size=1, max_size=4))
    config = ElectionConfig(
        election_id=draw(st.binary(min_size=8, max_size=8)),
        title="Property Election",
        parties=tuple(
            Party(name=f"P{i}", candidates=tuple(f"C{j}" for j in range(n)))
            for i, n in enumerate(sizes)
        ),
    )
    party = draw(st.integers(0, len(sizes) - 1))
    approvals = draw(st.frozensets(st.integers(0, sizes[party] - 1)))
    return config, VoteSelection(party_index=party, approvals=approvals)


def with_noise(text: str, data) -> str:
    """Insert blank and comment lines between the record lines."""
    lines = text.splitlines(keepends=True)
    noise = st.sampled_from(["\n", "   \n", "# a comment\n", "  #indented comment\n"])
    for _ in range(data.draw(st.integers(0, 4))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(noise))
    return "".join(lines)


class TestCodec:
    @FAST
    @given(elections_and_selections(), st.binary(min_size=8, max_size=8))
    def test_encode_decode_round_trip(self, drawn, nonce):
        config, sel = drawn
        block = codec.encode(sel, nonce)
        assert len(block) == codec.BALLOT_LEN
        assert codec.decode(block, config) == (sel, nonce)

    @FAST
    @given(st.binary(min_size=32, max_size=32), st.integers(codec.MIN_MODULUS_LEN, 512))
    def test_pad_unpad_round_trip(self, block, modulus_len):
        padded = codec.pad(block, FIXTURE_ELECTION_ID, modulus_len)
        assert len(padded) == modulus_len
        assert codec.unpad(padded, FIXTURE_ELECTION_ID) == block


class TestPayloadFraming:
    @FAST
    @given(data=st.data())
    def test_round_trip(self, key512, data):
        pk = key512.public
        signature = data.draw(st.integers(0, pk.n - 1))
        line = format_payload(signature, pk)
        assert parse_payload(line, pk) == signature
        assert parse_payload(f"  {line}\n", pk) == signature

    @FAST
    @given(data=st.data())
    def test_other_spelling_of_the_same_bytes_is_bad_framing(self, key512, data):
        pk = key512.public
        line = format_payload(data.draw(st.integers(0, pk.n - 1)), pk)
        body = line.partition("|")[2]
        pos = data.draw(st.integers(1, len(body) - 1))
        last = B64URL.index(body[-1]) ^ data.draw(st.integers(1, 15))
        spelling = data.draw(
            st.sampled_from(
                [
                    # low bits of the last character flipped (unused ones
                    # when the byte count is not a multiple of three)
                    body[:-1] + B64URL[last],
                    body + "=" * data.draw(st.integers(1, 3)),
                    body.replace("-", "+").replace("_", "/"),
                    # a character the decoder discards, inside the body
                    body[:pos] + data.draw(st.sampled_from("!.*~\n")) + body[pos:],
                ]
            )
        )
        assume(spelling != body)
        padded = spelling + "=" * (-len(spelling) % 4)
        try:
            same = base64.urlsafe_b64decode(padded) == base64.urlsafe_b64decode(body + "==")
        except ValueError:
            same = False
        assume(same)
        with pytest.raises(BadFraming):
            parse_payload(f"{PAYLOAD_PREFIX}|{spelling}", pk)


class TestConfigFile:
    @FAST
    @given(config=election_configs(), data=st.data())
    def test_round_trip_and_error_line_numbers(self, tmp_path, config, data):
        path = tmp_path / "cfg.txt"
        save_config(config, path)
        assert load_config(path) == config
        text = dumps_config(config)
        assert parse_config(text) == config
        # A bad line anywhere is reported under its own line number.
        lines = text.split("\n")
        lineno = data.draw(st.integers(1, len(lines)))
        lines.insert(lineno - 1, f"BOGUS {data.draw(names)}")
        path.write_bytes("\n".join(lines).encode())
        error = f"line {lineno}: unknown directive 'BOGUS'"
        with pytest.raises(ParseError) as exc:
            load_config(path)
        assert str(exc.value) == error
        with pytest.raises(ParseError) as exc:
            parse_config("\n".join(lines))
        assert str(exc.value) == error


class TestDirectoryFiles:
    @FAST
    @given(
        registry=st.dictionaries(voter_ids, st.binary(min_size=32, max_size=32), max_size=8),
        data=st.data(),
    )
    def test_registry_round_trip(self, registry, data):
        out = io.StringIO()
        save_registry(registry, out)
        loaded = load_registry(io.StringIO(with_noise(out.getvalue(), data)))
        assert loaded == registry
        assert list(loaded) == list(registry)

    @FAST
    @given(
        seeds=st.dictionaries(voter_ids, st.binary(min_size=32, max_size=32), max_size=8),
        data=st.data(),
    )
    def test_secrets_round_trip(self, seeds, data):
        creds = [VoterCredential(voter_id=vid, seed=seed) for vid, seed in seeds.items()]
        out = io.StringIO()
        save_secrets(creds, out)
        loaded = load_secrets(io.StringIO(with_noise(out.getvalue(), data)))
        assert list(loaded.values()) == creds

    @FAST
    @given(
        # Ids that nest (V0001 in V00011) or are all hex digits, so that
        # they also occur inside the key hex of other voters' lines.
        entries=st.dictionaries(
            voter_ids | st.sampled_from(["V0001", "V00011", "V000", "ab12", "12"]),
            st.binary(min_size=32, max_size=32) | st.just(bytes.fromhex("ab12" * 16)),
            min_size=1,
            max_size=8,
        ),
        absent=voter_ids,
        data=st.data(),
    )
    @pytest.mark.parametrize("save, load", [
        pytest.param(save_registry, load_registry, id="registry"),
        pytest.param(
            lambda seeds, out: save_secrets(
                [VoterCredential(voter_id=vid, seed=seed) for vid, seed in seeds.items()],
                out,
            ),
            load_secrets,
            id="secrets",
        ),
    ])
    def test_lookup_is_the_full_load_restricted(self, save, load, entries, absent, data):
        # Ids may be substrings of one another, of the keyword, of the hex
        # or of a comment: the lookup parses every line that contains the id.
        assume(absent not in entries)
        out = io.StringIO()
        save(entries, out)
        text = with_noise(out.getvalue(), data)
        full = load(io.StringIO(text))
        for voter_id in [*entries, absent]:
            expected = {vid: v for vid, v in full.items() if vid == voter_id}
            assert load(io.StringIO(text), voter_id) == expected
        voter_id = data.draw(st.sampled_from(list(entries)))
        record = next(line for line in out.getvalue().splitlines(keepends=True)
                      if line.split()[1] == voter_id)
        lines = text.splitlines(keepends=True)
        lines.insert(data.draw(st.integers(0, len(lines))), record)
        doubled = "".join(lines)
        with pytest.raises(ParseError):
            load(io.StringIO(doubled))
        with pytest.raises(ParseError):
            load(io.StringIO(doubled), voter_id)

    @FAST
    @given(
        log=st.dictionaries(
            voter_ids,
            st.tuples(
                st.integers(0, 2**2048), st.binary(min_size=64, max_size=64)
            ),
            max_size=8,
        ),
    )
    def test_request_log_round_trip(self, key512, log):
        requests = [
            SigningRequest(
                voter_id=vid,
                election_id=FIXTURE_ELECTION_ID,
                blinded=blinded,
                credential_signature=sig,
            )
            for vid, (blinded, sig) in log.items()
        ]
        text = "".join(format_request(req) + "\n" for req in requests)
        assert read_request_log(io.StringIO(text.replace("\n", "\n\n"))) == requests

        auth = SigningAuthority(make_config_2x3(), key512, {})
        auth.load_request_log(io.StringIO(text))
        saved = io.StringIO()
        auth.save_request_log(saved)
        assert saved.getvalue() == text
        assert auth.export_request_log() == [
            (req.voter_id, req.blinded, req.credential_signature) for req in requests
        ]

    @FAST
    @given(
        log=st.dictionaries(
            # Ids that nest (V0001 in V00011) or are all hex digits, so that
            # they also occur inside the hex fields of other voters' lines.
            voter_ids | st.sampled_from(
                ["V0001", "V00011", "V000", "ab12", "12", FIXTURE_ELECTION_ID.hex()[2:6]]
            ),
            st.tuples(
                st.integers(0, 2**2048) | st.just(0xAB12AB12),
                st.binary(min_size=64, max_size=64),
            ),
            min_size=1,
            max_size=8,
        ),
        absent=voter_ids,
        data=st.data(),
    )
    def test_request_log_lookup_is_the_full_read_restricted(self, log, absent, data):
        assume(absent not in log)
        requests = [
            SigningRequest(
                voter_id=vid,
                election_id=FIXTURE_ELECTION_ID,
                blinded=blinded,
                credential_signature=sig,
            )
            for vid, (blinded, sig) in log.items()
        ]
        text = "".join(format_request(req) + "\n" for req in requests)
        full = read_request_log(io.StringIO(text.replace("\n", "\n\n")))
        for voter_id in [*log, absent]:
            expected = [req for req in full if req.voter_id == voter_id]
            assert read_request_log(io.StringIO(text), voter_id) == expected
        # A second line for the voter looked up is still BadFraming.
        req = data.draw(st.sampled_from(requests))
        with pytest.raises(BadFraming):
            read_request_log(io.StringIO(text + format_request(req) + "\n"), req.voter_id)


@pytest.fixture(scope="module")
def six_voter_election(tmp_path_factory):
    """A seeded 512-bit election of six voters, and one signed request per voter."""
    root = tmp_path_factory.mktemp("appends")
    save_config(make_config_2x3(), root / "cfg.txt")
    d = root / "e"
    assert main(["setup", "--dir", str(d), "--config", str(root / "cfg.txt"),
                 "--voters", "6", "--bits", "512", "--seed", "5"]) == 0
    with (d / "credentials.txt").open() as fh:
        creds = load_secrets(fh)
    rng = random.Random(6)
    requests = [sign_request(cred, FIXTURE_ELECTION_ID, rng.getrandbits(500))
                for cred in creds.values()]
    return d, requests


class TestRequestLogAppends:
    @FAST
    @given(
        commits=st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=6),
        failing=st.integers(0, 6),
    )
    def test_appends_write_the_bytes_of_a_rewrite(self, six_voter_election, key512,
                                                  commits, failing):
        # Each commit is an `authority` mailbox run; repeats within and across
        # mailboxes are refused, and the commit numbered `failing` (if any)
        # fails part-way through its append and keeps none of its requests.
        election, requests = six_voter_election
        logged: dict[str, SigningRequest] = {}
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / "e"
            shutil.copytree(election, d)
            mailbox = Path(tmp) / "mail.txt"
            for i, batch in enumerate(commits):
                mailbox.write_text("".join(format_request(requests[k]) + "\n"
                                           for k in batch))
                argv = ["authority", "--dir", str(d), "--mailbox", str(mailbox)]
                if i == failing:
                    with mock.patch.object(SigningAuthority, "save_request_log",
                                           disk_full):
                        assert main(argv) == 1
                    continue
                assert main(argv) == 0
                for k in batch:
                    logged.setdefault(requests[k].voter_id, requests[k])
            text = (d / "requests.log").read_text()
        assert text == "".join(format_request(req) + "\n" for req in logged.values())
        auth = SigningAuthority(make_config_2x3(), key512, {})
        auth.load_request_log(io.StringIO(text))
        rewrite = io.StringIO()
        auth.save_request_log(rewrite)
        assert rewrite.getvalue() == text


class TestBoardBatch:
    @FAST
    @given(
        records=st.lists(
            st.tuples(st.sampled_from(KINDS), st.binary(max_size=40)),
            min_size=1,
            max_size=12,
        ),
        data=st.data(),
    )
    def test_batch_writes_the_bytes_of_sequential_appends(self, records, data):
        # Both boards start from the same records, then take the rest one
        # append at a time or in one batch.
        split = data.draw(st.integers(0, len(records)))
        with tempfile.TemporaryDirectory() as tmp:
            one_by_one = BulletinBoard(Path(tmp) / "appends.txt")
            batched = BulletinBoard(Path(tmp) / "batch.txt")
            for kind, payload in records[:split]:
                one_by_one.append(kind, payload)
                batched.append(kind, payload)
            for kind, payload in records[split:]:
                one_by_one.append(kind, payload)
            with batched.batch() as batch:
                added = [batch.append(kind, payload) for kind, payload in records[split:]]
            assert batched.path.read_bytes() == one_by_one.path.read_bytes()
            assert added == one_by_one.records()[split:]

    @FAST
    @given(
        publications=st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.tuples(st.sampled_from(KINDS), st.binary(max_size=40)),
                         min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_board_is_exactly_its_record_lines(self, publications):
        with tempfile.TemporaryDirectory() as tmp:
            board = BulletinBoard(Path(tmp) / "board.txt")
            for in_batch, records in publications:
                if in_batch:
                    with board.batch() as batch:
                        for kind, payload in records:
                            batch.append(kind, payload)
                else:
                    for kind, payload in records:
                        board.append(kind, payload)
            written = "".join(rec.line + "\n" for rec in board.records())
            assert board.path.read_bytes() == written.encode("ascii")

    @FAST
    @given(
        records=st.lists(
            st.tuples(st.sampled_from(KINDS), st.binary(max_size=40)),
            min_size=1,
            max_size=12,
        ),
        data=st.data(),
    )
    def test_any_changed_character_breaks_the_chain_at_its_line(self, records, data):
        with tempfile.TemporaryDirectory() as tmp:
            board = BulletinBoard(Path(tmp) / "board.txt")
            for kind, payload in records:
                board.append(kind, payload)
            lines = board.path.read_text().splitlines()
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            # The chain hex and a change of case get extra weight, because
            # bytes.fromhex would read an upper-case digit as the same byte.
            n = len(lines[i])
            j = data.draw(st.integers(0, n - 1) | st.integers(n - 64, n - 1), label="column")
            char = data.draw(
                (
                    st.just(lines[i][j].swapcase())
                    | st.characters(min_codepoint=0x20, max_codepoint=0x7E)
                ).filter(lambda c: c != lines[i][j]),
                label="replacement",
            )
            lines[i] = lines[i][:j] + char + lines[i][j + 1 :]
            board.path.write_text("\n".join(lines) + "\n")
            assert board_verify(board.path) == i


lines_text = st.text(
    alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
    max_size=12,
)


class TestAppendLines:
    @FAST
    @given(
        start=st.lists(lines_text, max_size=4),
        tail=lines_text,
        appends=st.lists(st.lists(lines_text, max_size=4), max_size=5),
        mode=st.sampled_from(["a+b", "r+b"]),
    )
    def test_appends_are_their_lines_on_fresh_lines(self, start, tail, appends, mode):
        # The file starts as whole lines and, when tail is not empty, a torn
        # last line; the first line appended after it starts a line of its own.
        head = "".join(line + "\n" for line in start) + tail
        body = "".join(line + "\n" for lines in appends for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lines.txt"
            path.write_bytes(head.encode())
            for lines in appends:
                with path.open(mode, buffering=0) as fh:
                    append_lines(fh, "".join(line + "\n" for line in lines))
            fresh = "\n" if tail and body else ""
            assert path.read_bytes() == (head + fresh + body).encode()
