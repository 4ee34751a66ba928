"""Command-line front end: one election lives in one directory.

    election.cfg     election definition
    authority.key    blind-signature private key (hex fields)
    authority.pub    blind-signature public key
    registry.txt     VOTER lines (public)
    credentials.txt  SECRET lines (simulated voter eIDs; private)
    requests.log     REQ lines, the authority's durable state
    ballotbox.txt    mailed payload lines, append-only
    board.txt        hash-chained public bulletin board
    ballots/<id>.txt printable ballot artifacts
    notes/<id>.txt   voter note sheets

Every subcommand reads and writes only these files; `setup` builds them in
a sibling directory and renames it into place. Every file is UTF-8 whatever
the locale, its lines ended by "\n". Randomized steps take --seed so a
scripted run is reproducible byte for byte. requests.log, ballotbox.txt and
board.txt grow only by board.append_lines, under an exclusive flock on the
file: `vote` and `authority` hold it on requests.log only from loading the
log to the fsync of their lines; `vote` unblinds after. Every command reads
them under a flock on the file, so it never sees part of an append.
`vote` and `gate` read credentials.txt, registry.txt and requests.log as
bytes and parse only the lines that contain their voter's id, which one
search finds in a file that is all ASCII (any other file is decoded whole
first), so a fault in another voter's line does not stop them; `authority`,
`tally` and `audit` parse every line. An undecodable byte anywhere in a file
they read, or a torn log tail, still stops every command.

Exit codes: 0 success, 1 protocol error (stderr line `ERR <Code>: <msg>`),
2 usage, 3 negative verdict (gate BLOCK, audit cheat flag).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import io
import os
import random
import shutil
import sys
from pathlib import Path
from typing import Callable, Iterator

from . import authority as authority_mod
from . import blindsig, board as board_mod, codec, voter
from .election import ElectionConfig, VoteSelection, load_config, save_config
from .tally import (
    AuditReport,
    TallyResult,
    eligibility_audit,
    format_audit_report,
    format_tally_report,
    load_ballot_box,
    polling_gate,
    publish_tally,
    tally,
)
from .errors import LibraryFailure, ModulusTooSmall, ProtocolError, UnknownVoter
from .identity import (
    CredentialIssuer,
    SigningRequest,
    load_registry,
    load_secrets,
    save_registry,
    save_secrets,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_VERDICT = 3


def _rng(seed: int | None) -> random.Random:
    return random.Random(seed) if seed is not None else random.SystemRandom()


def voter_count(text: str) -> int:
    """The type of --voters: a negative count is a usage error, not an empty roll."""
    count = int(text)  # argparse reports "invalid voter_count value"
    if count < 0:
        raise argparse.ArgumentTypeError(f"expected 0 or more voters, got {count}")
    return count


class _Dir:
    """Path bundle for one election directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.config = self.root / "election.cfg"
        self.key = self.root / "authority.key"
        self.pub = self.root / "authority.pub"
        self.registry = self.root / "registry.txt"
        self.credentials = self.root / "credentials.txt"
        self.requests = self.root / "requests.log"
        self.ballotbox = self.root / "ballotbox.txt"
        self.board = self.root / "board.txt"
        self.ballots = self.root / "ballots"
        self.notes = self.root / "notes"

    def load_config(self) -> ElectionConfig:
        return load_config(self.config)

    def load_pub(self) -> blindsig.PublicKey:
        with self.pub.open(encoding="utf-8") as fh:
            return blindsig.load_public_key(fh)

    def load_key(self) -> blindsig.BlindKeyPair:
        with self.key.open(encoding="utf-8") as fh:
            return blindsig.load_keypair(fh)

    def load_registry(self, voter_id: str | None = None) -> dict[str, bytes]:
        """The whole registry, or with a voter_id that voter's entry alone."""
        with self.registry.open("rb") as fh:
            return load_registry(fh, voter_id)

    def authority(self, voter_id: str | None = None) -> authority_mod.SigningAuthority:
        """The authority, read unlocked: setup writes its files once, nothing rewrites them."""
        config, key = self.load_config(), self.load_key()
        return authority_mod.SigningAuthority(config, key, self.load_registry(voter_id))

    @contextlib.contextmanager
    def locked_log(
        self, auth: authority_mod.SigningAuthority, voter_id: str | None = None
    ) -> Iterator[None]:
        """The authority's step: auth's log restored from requests.log under
        an exclusive flock on the log, opened without O_CREAT (an empty log
        would let every voter vote again). On a clean exit, still locked, the
        requests signed inside the block are appended by board_mod.append_lines,
        so no signature leaves before its line is durable. With a voter_id no
        other voter's line is parsed. No code inside the block may call
        load_requests: its shared flock, on a second descriptor, would wait
        for this one forever.

        A kill inside the write, or power loss, can still leave an
        unterminated fragment at the end of the log, parsable or not.
        read_request_log refuses it, so every reader, this one included,
        stops with BadFraming until the log is truncated after its last
        "\n"; that is safe, because the fragment's signature never left."""
        with self.requests.open("r+b", buffering=0) as log:
            fcntl.flock(log, fcntl.LOCK_EX)  # released when log closes
            loaded = auth.load_request_log(log, voter_id)
            yield
            lines = io.StringIO()
            auth.save_request_log(lines, after=loaded)
            board_mod.append_lines(log, lines.getvalue())

    def load_box(self) -> list[str]:
        with self.ballotbox.open(encoding="utf-8", errors="replace") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            return load_ballot_box(fh)

    def load_requests(self, voter_id: str | None = None) -> list[SigningRequest]:
        """The logged requests, or with a voter_id that voter's alone (see
        read_request_log), read under a shared flock on the log so that no
        append is seen in part."""
        with self.requests.open("rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            return authority_mod.read_request_log(fh, voter_id)


def cmd_setup(args: argparse.Namespace) -> int:
    root = Path(os.path.abspath(args.dir))
    rng = _rng(args.seed)
    if (args.bits + 7) // 8 < codec.MIN_MODULUS_LEN:
        raise ModulusTooSmall(
            f"--bits {args.bits} cannot carry a padded ballot "
            f"(need a modulus of >= {codec.MIN_MODULUS_LEN} bytes)"
        )
    config = load_config(args.config)
    # Setting up over a live election would reset its request log and keys
    # and let every voter vote again.
    if root.exists() and any(root.iterdir()):
        raise FileExistsError(f"{root} is not empty: setup needs a new or empty directory")
    key = blindsig.keygen(args.bits, rng)
    issuer = CredentialIssuer(rng)
    creds = [issuer.issue(f"V{i:04d}") for i in range(1, args.voters + 1)]
    # The files are written into a sibling directory that is renamed into
    # place whole, so a setup stopped anywhere leaves nothing behind.
    stage = _Dir(root.with_name(f".{root.name}.{os.getpid()}.setup"))
    stage.root.mkdir(parents=True)
    try:
        stage.ballots.mkdir()
        stage.notes.mkdir()
        save_config(config, stage.config)
        with stage.key.open("w", encoding="utf-8") as fh:
            blindsig.save_keypair(key, fh)
        with stage.pub.open("w", encoding="utf-8") as fh:
            blindsig.save_public_key(key.public, fh)
        with stage.registry.open("w", encoding="utf-8") as fh:
            save_registry(issuer.registry, fh)
        with stage.credentials.open("w", encoding="utf-8") as fh:
            save_secrets(creds, fh)
        stage.requests.touch()
        stage.ballotbox.touch()
        board_mod.BulletinBoard(stage.board).append(
            "META",
            f"election {config.election_id.hex()} voters {len(creds)}".encode(),
        )
        os.rename(stage.root, root)  # replaces an empty directory
    except BaseException:
        shutil.rmtree(stage.root)
        raise
    print(
        f"election {config.election_id.hex()} dir={Path(args.dir)} "
        f"voters={len(creds)} key_bits={key.n.bit_length()}"
    )
    return EXIT_OK


def cmd_vote(args: argparse.Namespace) -> int:
    d = _Dir(args.dir)
    rng = _rng(args.seed)
    with d.credentials.open("rb") as fh:
        secrets = load_secrets(fh, args.voter)
    if args.voter not in secrets:
        raise UnknownVoter(f"no credential for {args.voter!r} in {d.credentials}")
    cred = secrets[args.voter]
    sel = VoteSelection(
        party_index=args.party, approvals=frozenset(args.approve or ())
    )
    auth = d.authority(args.voter)

    def channel(req: SigningRequest) -> int:  # unblinding and the outputs follow its commit
        with d.locked_log(auth, args.voter):
            return auth.handle_request(req)

    artifact, note = voter.prepare_and_cast(
        auth.config, cred, sel, auth.key.public, channel, rng
    )
    (d.ballots / f"{args.voter}.txt").write_text(artifact.text, encoding="utf-8")
    (d.notes / f"{args.voter}.txt").write_text(note.text, encoding="utf-8")
    if not args.no_mail:
        with d.ballotbox.open("a+b", buffering=0) as fh:
            board_mod.append_lines(fh, artifact.payload + "\n")
    print(artifact.payload)
    return EXIT_OK


def cmd_authority(args: argparse.Namespace) -> int:
    d = _Dir(args.dir)
    mailbox = Path(args.mailbox)
    out = Path(args.out) if args.out else mailbox.with_suffix(mailbox.suffix + ".rsp")
    auth = d.authority()
    with d.locked_log(auth), mailbox.open(encoding="utf-8", errors="replace") as fh:
        responses = authority_mod.process_mailbox(auth, fh)
    out.write_text("".join(line + "\n" for line in responses), encoding="utf-8")
    print(f"processed {len(responses)} requests, responses in {out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    d = _Dir(args.dir)
    config = d.load_config()
    pk = d.load_pub()
    if args.payload is not None:
        payload = args.payload
    else:
        text = Path(args.file).read_text(encoding="utf-8", errors="replace")
        payload = text.strip().rpartition("\n")[2]  # the last line; empty: BadFraming
    sel = voter.verify_ballot(pk, config, payload)
    print(f"VALID election {config.election_id.hex()}")
    sys.stdout.write(voter.stance_text(config, sel))
    return EXIT_OK


def _count(d: _Dir) -> tuple[ElectionConfig, TallyResult, AuditReport]:
    """Tally the ballot box and audit it against the request log."""
    config = d.load_config()
    result = tally(d.load_pub(), config, d.load_box())
    audit = eligibility_audit(d.load_registry(), d.load_requests(), result)
    return config, result, audit


def cmd_tally(args: argparse.Namespace) -> int:
    d = _Dir(args.dir)
    config, result, audit = _count(d)
    report = format_tally_report(config, result)
    # A report that stdout cannot print stops tally before it publishes.
    if sys.stdout.encoding is not None:  # None: an in-memory stream holds any text
        report.encode(sys.stdout.encoding, sys.stdout.errors)
    if not args.no_publish:
        d.board.stat()  # setup wrote it: missing is IoFailure, not a new chain
        publish_tally(board_mod.BulletinBoard(d.board), config, result, audit)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    *_, audit = _count(_Dir(args.dir))
    sys.stdout.write(format_audit_report(audit))
    return EXIT_VERDICT if audit.cheat_flag else EXIT_OK


def cmd_gate(args: argparse.Namespace) -> int:
    d = _Dir(args.dir)
    registry = d.load_registry(args.voter_id)
    try:
        requested = {req.voter_id for req in d.load_requests(args.voter_id)}
    except OSError:
        requested = None  # LookupUnavailable
    verdict = polling_gate(
        registry, requested, args.voter_id, fail_open=args.fail_open
    )
    line = f"{verdict.verdict} {args.voter_id}"
    if verdict.reason:
        line += f" reason={verdict.reason}"
    print(line)
    return EXIT_OK if verdict.allow else EXIT_VERDICT


def cmd_legacy_sim(args: argparse.Namespace) -> int:
    from . import legacy  # only this command uses it: every other start-up skips it

    config = load_config(args.config)
    text = Path(args.scenario).read_text(encoding="utf-8", errors="replace")
    scenario = legacy.parse_scenario(text)
    if args.seed is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed)
    bb = board_mod.BulletinBoard(args.board) if args.board else None
    report = legacy.run_scenario(config, scenario, bb)
    sys.stdout.write(legacy.format_scenario_report(report))
    return EXIT_OK


def cmd_board_verify(args: argparse.Namespace) -> int:
    path = Path(args.board) if args.board else _Dir(args.dir).board
    if args.dir:
        path.stat()  # setup wrote it: missing is IoFailure, not an empty board
    records: list[board_mod.BoardRecord] = []
    broken = board_mod.board_verify(path, records)
    if broken is not None:
        print(f"ERR ChainBroken: first broken record seq={broken}", file=sys.stderr)
        return EXIT_ERROR
    print(f"OK records={len(records)}")
    return EXIT_OK


def _setup_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True, help="election directory to create")
    p.add_argument("--config", required=True, help="election config file to install")
    p.add_argument("--voters", type=voter_count, required=True, help="credentials to issue")
    p.add_argument("--bits", type=int, default=2048, help="authority key size")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_setup)


def _vote_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--voter", required=True, help="voter id, e.g. V0001")
    p.add_argument("--party", type=int, required=True)
    p.add_argument(
        "--approve",
        type=int,
        action="append",
        help="candidate index to vote FOR (repeatable)",
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--no-mail",
        action="store_true",
        help="print and file the ballot but do not drop it in the ballot box",
    )
    p.set_defaults(func=cmd_vote)


def _authority_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--mailbox", required=True, help="file of REQ lines")
    p.add_argument("--out", default=None, help="response file (default <mailbox>.rsp)")
    p.set_defaults(func=cmd_authority)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--payload", help="payload line BPV1|...")
    src.add_argument("--file", help="ballot file; last line is the payload")
    p.set_defaults(func=cmd_verify)


def _tally_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("--no-publish", action="store_true", help="skip board records")
    p.set_defaults(func=cmd_tally)


def _audit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.set_defaults(func=cmd_audit)


def _gate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dir", required=True)
    p.add_argument("voter_id")
    p.add_argument(
        "--fail-open",
        action="store_true",
        help="ALLOW when the request log is unavailable (default is BLOCK)",
    )
    p.set_defaults(func=cmd_gate)


def _legacy_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="scenario file (HONEST/COMPROMISED/SEED lines)")
    p.add_argument("--config", required=True, help="election config file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--board", default=None, help="publish CODE_PUBLISH records here")
    p.set_defaults(func=cmd_legacy_sim)


def _board_args(p: argparse.ArgumentParser) -> None:
    board_sub = p.add_subparsers(dest="board_command", required=True)
    pv = board_sub.add_parser("verify", help="recompute the hash chain")
    loc = pv.add_mutually_exclusive_group(required=True)
    loc.add_argument("--dir", default=None, help="election directory")
    loc.add_argument("--board", default=None, help="board file path")
    pv.set_defaults(func=cmd_board_verify)


# Each command's help line and the function that adds its arguments, in the
# order `blindvote -h` lists them.
_COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "setup": ("create an election directory", _setup_args),
    "vote": ("run the voter pipeline for one selection", _vote_args),
    "authority": ("answer a mailbox of REQ lines", _authority_args),
    "verify": ("check a ballot payload and show the vote", _verify_args),
    "tally": ("count the ballot box and publish evidence", _tally_args),
    "audit": ("eligibility audit; exit 3 when cheating shows", _audit_args),
    "gate": ("polling-station check; exit 3 means BLOCK", _gate_args),
    "legacy-sim": ("run a token-k scenario file", _legacy_sim_args),
    "board": ("bulletin board operations", _board_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or, given a command's name, the top-level parser
    with that command's subparser alone. For an argv that starts with that
    command the two print the same help and usage errors, byte for byte,
    and exit with the same codes."""
    parser = argparse.ArgumentParser(
        prog="blindvote",
        description="Blind-signature postal voting, simulated at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if command is not None:
        # The usage line of an error the top-level parser reports, such as an
        # unrecognized argument, still lists every command.
        sub.metavar = "{" + ",".join(_COMMANDS) + "}"
    for name, (help_line, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the subparser of the command being run is built; an argv that
    # names no command gets the whole parser, for its help or its error.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolError, LibraryFailure) as exc:
        print(f"ERR {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, UnicodeEncodeError) as exc:  # a file, or stdout's encoding
        print(f"ERR IoFailure: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
