"""The three scripted elections the benchmark drives, with their exact checks.

Every workload runs the same stages, so that each reports every end-to-end
metric: set-up (`blindvote setup`, three times), casting with polling-station
`gate` checks interleaved, and the count. They differ in which layer
dominates (sizes are per round; a run repeats rounds, see run_workload):

    cast_2048      250 voters cast in process on a 2048-bit key; the count
                   has no board publication.
    count_publish  300 voters plus photocopies, garbled lines, refused
                   second requests and unlogged corrupt ballots; the count
                   publishes everything onto an empty board.
    cli_election   100 of 300 registered voters each run `blindvote vote`,
                   with four `gate` checks after each vote; the count is
                   `blindvote tally`, `audit` and `board verify`.

Expected results come from each workload's own script, never from the
package: party and candidate counts, accepted, rejected by code,
duplicates, the audit figures, board record counts and every CLI exit code.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from blindvote import authority, blindsig, board, cli, codec, identity, voter
from blindvote.election import ElectionConfig, VoteSelection, load_config
from blindvote.errors import AlreadyRequested, ProtocolError

# The package re-exports the function `tally` under the submodule's name.
tally = importlib.import_module("blindvote.tally")

CONFIG_TEXT = """\
ELECTION 0b1d0e7e00000001 Benchmark Election
PARTY Alpha
CAND Anna
CAND Arno
CAND Avi
PARTY Beta
CAND Ben
CAND Bea
CAND Bo
PARTY Gamma
CAND Gil
CAND Greta
"""

# Set-up runs once per key seed and reports the median. The seeds are
# fixed, not drawn from --seed: the prime search behind one 2048-bit key
# took 0.5 to 3.9 s depending on its seed, so seed-drawn keys would make
# setup_s measure the luck of the search rather than the code. The last
# set-up is the one the election uses.
KEY_SEEDS = (0x5E7A_0001, 0x5E7A_0002, 0x5E7A_0003)


@dataclass(frozen=True)
class Size:
    voters: int  # voters who cast, per round
    abstainers: int  # registered voters who do not cast
    bits: int
    gate_every: int  # casts between two visits of the polling station
    gates: int  # gate checks per visit
    count_repeats: int  # timed counts per round
    photocopies: int = 0
    garbled: int = 0
    corrupt: int = 0
    second_requests: int = 0


SIZES = {
    "cast_2048": {
        "full": Size(voters=250, abstainers=12, bits=2048, gate_every=25, gates=8,
                     count_repeats=3),
        "tiny": Size(voters=12, abstainers=3, bits=512, gate_every=3, gates=2, count_repeats=2),
    },
    "count_publish": {
        "full": Size(
            voters=300, abstainers=15, bits=2048, gate_every=15, gates=6, count_repeats=2,
            photocopies=30, garbled=12, corrupt=5, second_requests=6,
        ),
        "tiny": Size(
            voters=10, abstainers=2, bits=512, gate_every=2, gates=2, count_repeats=2,
            photocopies=3, garbled=5, corrupt=2, second_requests=2,
        ),
    },
    "cli_election": {
        "full": Size(voters=100, abstainers=200, bits=2048, gate_every=1, gates=4, count_repeats=3),
        "tiny": Size(voters=6, abstainers=3, bits=512, gate_every=1, gates=2, count_repeats=2),
    },
}

EXIT_OK = cli.EXIT_OK
EXIT_VERDICT = cli.EXIT_VERDICT


@dataclass
class Record:
    """Samples and check outcomes of one run."""

    setup_s: list[float] = field(default_factory=list)
    cast_s: list[float] = field(default_factory=list)
    gate_s: list[float] = field(default_factory=list)
    count_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    tally_counts: dict[str, int] = field(default_factory=dict)
    board_bytes: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Run:
    """What one workload run needs: size, seed, a work directory, a tracer."""

    def __init__(self, name: str, size: Size, seed: int, work: Path, tracer=None):
        self.name = name
        self.size = size
        self.seed = seed
        self.work = work
        self.tracer = tracer
        self.rec = Record()

    def rng(self, purpose: str, round_no: int = 0) -> random.Random:
        return random.Random(f"{self.seed}/{purpose}/{round_no}")

    def ballot(self, number: int | None) -> None:
        """Tag the spans of one cast with an opaque counter."""
        if self.tracer is not None:
            self.tracer.ballot = number


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call `blindvote` in process; return its exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


# --- the script: who votes for what, and what the count must say ---


@dataclass
class Script:
    order: list[str]  # casting voters, in casting order
    roll: list[str]  # every registered voter
    selections: dict[str, VoteSelection]


def random_selection(config: ElectionConfig, rng: random.Random) -> VoteSelection:
    party = rng.randrange(len(config.parties))
    n_cands = len(config.parties[party].candidates)
    return VoteSelection(
        party_index=party,
        approvals=frozenset(c for c in range(n_cands) if rng.random() < 0.5),
    )


def make_script(run: Run, config: ElectionConfig) -> Script:
    rng = run.rng("script")
    size = run.size
    roll = [f"V{i:04d}" for i in range(1, size.voters + size.abstainers + 1)]
    order = rng.sample(roll, size.voters)
    selections = {vid: random_selection(config, rng) for vid in order}
    return Script(order=order, roll=roll, selections=selections)


def expected_tally(
    config: ElectionConfig,
    selections: list[VoteSelection],
    rejected: int = 0,
    duplicates: int = 0,
) -> dict:
    party = [0] * len(config.parties)
    cands = [[0] * len(p.candidates) for p in config.parties]
    for sel in selections:
        party[sel.party_index] += 1
        for c in sel.approvals:
            cands[sel.party_index][c] += 1
    return {
        "accepted": len(selections),
        "rejected": ["BadFraming"] * rejected,
        "duplicates": duplicates,
        "party": party,
        "cands": cands,
    }


def tally_summary(result: tally.TallyResult) -> dict:
    return {
        "accepted": result.accepted,
        "rejected": sorted(code for _, code in result.rejected),
        "duplicates": len(result.duplicates),
        "party": list(result.party_votes),
        "cands": [list(row) for row in result.candidate_votes],
    }


def parse_tally_report(text: str) -> dict:
    """Read `blindvote tally` output back into the tally_summary shape."""
    got: dict = {"accepted": None, "rejected": [], "duplicates": 0, "party": [], "cands": []}
    for line in text.splitlines():
        words = line.split()
        fields = dict(w.split("=", 1) for w in words if "=" in w)
        if line.startswith("ballots "):
            got["accepted"] = int(fields["accepted"])
        elif line.startswith("party "):
            got["party"].append(int(fields["votes"]))
            got["cands"].append([])
        elif line.startswith("  cand "):
            got["cands"][-1].append(int(fields["for"]))
        elif line.startswith("rejected "):
            got["rejected"].append(words[2])
        elif line.startswith("duplicate "):
            got["duplicates"] += 1
    got["rejected"].sort()
    return got


def audit_summary(report: tally.AuditReport) -> dict:
    return {
        "requests_total": report.requests_total,
        "requests_valid": report.requests_valid,
        "ballots_valid": report.ballots_valid,
        "discrepancy": report.discrepancy,
        "cheat_flag": report.cheat_flag,
    }


def parse_audit_report(text: str) -> dict:
    """Read `blindvote audit` output back into the audit_summary shape."""
    fields = dict(line.split("=", 1) for line in text.splitlines() if "=" in line)
    if "cheat_flag" not in fields:
        return {}
    return {
        "requests_total": int(fields["requests_total"]),
        "requests_valid": int(fields["requests_valid"]),
        "ballots_valid": int(fields["ballots_valid"]),
        "discrepancy": int(fields["discrepancy"]),
        "cheat_flag": fields["cheat_flag"] == "true",
    }


def expected_audit(requests: int, ballots: int) -> dict:
    return {
        "requests_total": requests,
        "requests_valid": requests,
        "ballots_valid": ballots,
        "discrepancy": ballots - requests,
        "cheat_flag": ballots > requests,
    }


# --- stages shared by the workloads ---


@dataclass
class Election:
    dir: Path
    config: ElectionConfig | None = None
    key: blindsig.BlindKeyPair | None = None
    registry: dict[str, bytes] | None = None
    creds: dict[str, identity.VoterCredential] | None = None


def load_election(d: Path) -> Election:
    """Read an election directory back, as an in-process authority would."""
    with (d / "authority.key").open() as fh:
        key = blindsig.load_keypair(fh)
    with (d / "registry.txt").open() as fh:
        registry = identity.load_registry(fh)
    with (d / "credentials.txt").open() as fh:
        creds = identity.load_secrets(fh)
    return Election(
        dir=d, config=load_config(d / "election.cfg"), key=key,
        registry=registry, creds=creds,
    )


def set_up(run: Run, in_process: bool) -> Election:
    """`blindvote setup` once per key seed; setup_s samples each, loading included."""
    cfg = run.work / "config.txt"
    cfg.write_text(CONFIG_TEXT)
    voters = run.size.voters + run.size.abstainers
    election = None
    for i, key_seed in enumerate(KEY_SEEDS):
        d = run.work / f"setup{i}"
        if election is not None:
            shutil.rmtree(election.dir)
        start = perf_counter()
        code, _ = run_cli([
            "setup", "--dir", str(d), "--config", str(cfg),
            "--voters", str(voters), "--bits", str(run.size.bits),
            "--seed", str(key_seed),
        ])
        if in_process:
            election = load_election(d)
        else:
            election = Election(dir=d, config=load_config(d / "election.cfg"))
        run.rec.setup_s.append(perf_counter() - start)
        run.rec.check(code == EXIT_OK, f"setup exit {code}")
    return election


def cast_loop(run: Run, round_no: int, d: Path, script: Script, cast_one,
              before_gates=None) -> None:
    """Closed loop, one client: each voter casts once the previous cast is done.

    After every `gate_every` casts the polling station runs `gates` checks
    on random registered voters, so gate samples span the whole loop.
    """
    rec, size = run.rec, run.size
    rng = run.rng("gate", round_no)
    voted: set[str] = set()
    for k, vid in enumerate(script.order, start=1):
        run.ballot(len(rec.cast_s))
        start = perf_counter()
        cast_one(vid)
        rec.cast_s.append(perf_counter() - start)
        run.ballot(None)
        voted.add(vid)
        if k % size.gate_every:
            continue
        if before_gates is not None:
            before_gates()
        for _ in range(size.gates):
            who = rng.choice(script.roll)
            expected = EXIT_VERDICT if who in voted else EXIT_OK
            start = perf_counter()
            code, _ = run_cli(["gate", "--dir", str(d), who])
            rec.gate_s.append(perf_counter() - start)
            rec.check(code == expected, f"gate {who} exit {code}, expected {expected}")


def cast_in_process(run: Run, round_no: int, e: Election, script: Script,
                    auth: authority.SigningAuthority, rng: random.Random) -> list[str]:
    """Every scripted voter casts through the library; returns the ballot box."""
    box: list[str] = []

    def cast_one(vid: str) -> None:
        try:
            artifact, _ = voter.prepare_and_cast(
                e.config, e.creds[vid], script.selections[vid], e.key.public,
                auth.handle_request, rng,
            )
        except ProtocolError as exc:
            run.rec.check(False, f"cast {vid} raised {exc.code}")
            return
        run.rec.check(True, "cast")
        box.append(artifact.payload)

    def save_log() -> None:
        # The station reads the authority's persisted request log.
        with (e.dir / "requests.log").open("w") as fh:
            auth.save_request_log(fh)

    cast_loop(run, round_no, e.dir, script, cast_one, save_log)
    return box


def request_list(e: Election, log) -> list[identity.SigningRequest]:
    return [
        identity.SigningRequest(
            voter_id=vid, election_id=e.config.election_id, blinded=blinded,
            credential_signature=sig,
        )
        for vid, blinded, sig in log
    ]


def board_records(path: Path) -> int:
    return len(board.BulletinBoard(path).records())


def record_counts(rec: Record, summary: dict, board_path: Path) -> None:
    rec.tally_counts = {
        "accepted": summary["accepted"] or 0,
        "rejected": len(summary["rejected"]),
        "duplicates": summary["duplicates"],
    }
    rec.board_bytes = board_path.stat().st_size


# --- the workloads ---


def cast_2048(run: Run, round_no: int, e: Election, script: Script) -> None:
    """Acceptance gate 4's pipeline in process: cast, then tally and audit, no board."""
    rec = run.rec
    rng = run.rng("cast", round_no)
    auth = authority.SigningAuthority(e.config, e.key, e.registry)
    box = cast_in_process(run, round_no, e, script, auth, rng)

    n = len(script.order)
    want = expected_tally(e.config, [script.selections[v] for v in script.order])
    board_path = e.dir / "board.txt"
    # The count changes nothing, so it simply repeats.
    for _ in range(run.size.count_repeats):
        start = perf_counter()
        result = tally.tally(e.key.public, e.config, box)
        requests = request_list(e, auth.export_request_log())
        audit = tally.eligibility_audit(e.registry, requests, result)
        broken = board.board_verify(board_path)
        rec.count_s.append(perf_counter() - start)
        rec.check(tally_summary(result) == want, "tally differs from the script")
        rec.check(audit_summary(audit) == expected_audit(n, n), "audit differs from the script")
        rec.check(broken is None and board_records(board_path) == 1,
                  "set-up board does not verify")
    record_counts(rec, tally_summary(result), board_path)


def forge(e: Election, corrupt: authority.SigningAuthority, sel: VoteSelection,
          rng: random.Random) -> str:
    """A corrupt authority's ballot: a valid signature with no logged request."""
    pk = e.key.public
    block = codec.encode(sel, rng.randbytes(codec.NONCE_LEN))
    m = codec.bytes_to_int(codec.pad(block, e.config.election_id, pk.byte_length))
    r = blindsig.random_unit(pk.n, rng)
    s = blindsig.unblind(corrupt.corrupt_sign(blindsig.blind(m, r, pk)), r, pk)
    return voter.format_payload(s, pk)


def garble(payload: str, kind: int) -> str:
    """Five framing faults; the tally must reject each as BadFraming."""
    body = payload.partition("|")[2]
    return [
        f"BPV1|{body[:-4]}",  # short body
        f"BPV2|{body}",  # wrong prefix
        f"BPV1|{body[:40]}|{body[40:]}",  # extra separator
        "BPV1|",  # empty body
        f"BPV1|{body}AAAA",  # long body
    ][kind % 5]


def count_publish(run: Run, round_no: int, e: Election, script: Script) -> None:
    """An adversarial box, counted and published onto an empty board."""
    rec, size = run.rec, run.size
    rng = run.rng("cast", round_no)
    auth = authority.SigningAuthority(e.config, e.key, e.registry)
    honest = cast_in_process(run, round_no, e, script, auth, rng)

    extra = run.rng("extra", round_no)
    for vid in extra.sample(script.order, size.second_requests):
        try:
            voter.prepare_and_cast(e.config, e.creds[vid], script.selections[vid],
                                   e.key.public, auth.handle_request, rng)
            refused = False
        except AlreadyRequested:
            refused = True
        rec.check(refused, f"second request of {vid} was not refused")
    corrupt_auth = authority.SigningAuthority(e.config, e.key, e.registry,
                                              allow_corrupt=True)
    corrupt_sels = [random_selection(e.config, extra) for _ in range(size.corrupt)]
    box = honest + [forge(e, corrupt_auth, sel, rng) for sel in corrupt_sels]
    box += extra.choices(honest, k=size.photocopies)
    box += [garble(extra.choice(honest), k) for k in range(size.garbled)]
    extra.shuffle(box)

    sels = [script.selections[v] for v in script.order] + corrupt_sels
    want = expected_tally(e.config, sels, size.garbled, size.photocopies)
    records = size.voters + len(sels) + 2  # REQUEST, BALLOT_DIGEST, TALLY, AUDIT
    for i in range(size.count_repeats):
        board_path = run.work / f"board{round_no}-{i}.txt"
        start = perf_counter()
        result = tally.tally(e.key.public, e.config, box)
        bb = board.BulletinBoard(board_path)
        requests = request_list(e, auth.export_request_log(bb))
        audit = tally.eligibility_audit(e.registry, requests, result)
        tally.publish_tally(bb, e.config, result, audit)
        broken = board.board_verify(board_path)
        rec.count_s.append(perf_counter() - start)
        rec.check(tally_summary(result) == want, "tally differs from the script")
        rec.check(audit_summary(audit) == expected_audit(size.voters, len(sels)),
                  "audit differs from the script")
        rec.check(broken is None and board_records(board_path) == records,
                  "published board does not verify")
    record_counts(rec, tally_summary(result), board_path)


def cli_election(run: Run, round_no: int, e: Election, script: Script) -> None:
    """The scripted CLI election on a fresh copy of the set-up directory."""
    rec = run.rec
    d = run.work / f"election{round_no}"
    shutil.copytree(e.dir, d)
    rng = run.rng("cast", round_no)

    def cast_one(vid: str) -> None:
        sel = script.selections[vid]
        argv = ["vote", "--dir", str(d), "--voter", vid, "--party", str(sel.party_index)]
        for c in sorted(sel.approvals):
            argv += ["--approve", str(c)]
        code, out = run_cli(argv + ["--seed", str(rng.getrandbits(32))])
        rec.check(code == EXIT_OK and out.startswith("BPV1|"), f"vote {vid} exit {code}")

    cast_loop(run, round_no, d, script, cast_one)

    n = len(script.order)
    want = expected_tally(e.config, [script.selections[v] for v in script.order])
    records = 1 + n + n + 2  # META, REQUEST, BALLOT_DIGEST, TALLY, AUDIT
    board_path = d / "board.txt"
    before = board_path.read_bytes()
    # `tally` publishes onto the board, so each repeat starts from the board
    # as voting left it.
    for _ in range(run.size.count_repeats):
        board_path.write_bytes(before)
        start = perf_counter()
        tally_code, tally_out = run_cli(["tally", "--dir", str(d)])
        audit_code, audit_out = run_cli(["audit", "--dir", str(d)])
        verify_code, verify_out = run_cli(["board", "verify", "--dir", str(d)])
        rec.count_s.append(perf_counter() - start)
        got = parse_tally_report(tally_out)
        rec.check(tally_code == EXIT_OK and got == want, "tally differs from the script")
        rec.check(audit_code == EXIT_OK
                  and parse_audit_report(audit_out) == expected_audit(n, n),
                  "audit differs from the script")
        rec.check(verify_code == EXIT_OK and verify_out.strip() == f"OK records={records}",
                  f"board verify said {verify_out.strip()!r}")
    record_counts(rec, got, board_path)
    shutil.rmtree(d)


WORKLOADS = {
    "cast_2048": (cast_2048, True),
    "count_publish": (count_publish, True),
    "cli_election": (cli_election, False),
}


def run_workload(run: Run, seconds: float) -> None:
    """Set up, then run whole rounds of the election for about `seconds`.

    A round repeats the whole election with a fresh authority. The first
    round always runs; a further one starts only if a round as long as the
    last would still end within `seconds`, so repeated rounds spread each
    metric's samples over the run without overrunning it.
    """
    body, in_process = WORKLOADS[run.name]
    e = set_up(run, in_process)
    script = make_script(run, e.config)
    start = perf_counter()
    round_no = 0
    while True:
        round_start = perf_counter()
        body(run, round_no, e, script)
        round_no += 1
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break


def percentile(xs: list[float], p: int) -> float:
    return statistics.quantiles(xs, n=100)[p - 1]


def figures(rec: Record, peak_rss_mb: float) -> dict[str, tuple[float, str, int]]:
    """Metric name -> (value, unit, sample count), the medians included."""
    return {
        "setup_s": (statistics.median(rec.setup_s), "s", len(rec.setup_s)),
        "ballots_per_s": (len(rec.cast_s) / sum(rec.cast_s), "1/s", len(rec.cast_s)),
        "cast_ms_p50": (statistics.median(rec.cast_s) * 1e3, "ms", len(rec.cast_s)),
        "cast_ms_p95": (percentile(rec.cast_s, 95) * 1e3, "ms", len(rec.cast_s)),
        "gate_ms_p50": (statistics.median(rec.gate_s) * 1e3, "ms", len(rec.gate_s)),
        "gate_ms_p95": (percentile(rec.gate_s, 95) * 1e3, "ms", len(rec.gate_s)),
        "count_s_p50": (statistics.median(rec.count_s), "s", len(rec.count_s)),
        "count_s_p90": (percentile(rec.count_s, 90), "s", len(rec.count_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }


# The figures a `--trace 0` run reports and BENCHMARK.json bounds. The
# medians are printed but not bounded: on a shared 2-CPU machine the CPU
# runs 20 to 30% faster for stretches of seconds to minutes, and the median
# of a run follows those stretches (its spread across ten runs reached 0.31),
# while the upper percentiles, taken mostly outside them, stayed within 0.16.
END_TO_END = ("setup_s", "ballots_per_s", "cast_ms_p95", "gate_ms_p95", "count_s_p90",
              "peak_rss_mb")
