"""Span tracing for the benchmark's traced runs (`--trace 1`).

The tracer wraps the package's public functions from the benchmark's own
code, at the names their callers look up (`blindvote.authority.verify_request`,
`blindvote.cli.load_secrets`, ...). Nothing under `src/` knows it is traced,
and `uninstall` puts every original back.

Spans live in memory and are written out once, when the run ends. The file
carries, per span, only a name, a duration, the id of the enclosing span and
an opaque per-ballot counter: no arguments, no return values and no clock
readings. Without those the trace cannot link a REQ line to a payload line,
which is the ROADMAP's blindness rule for telemetry.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from blindvote import authority, blindsig, board, cli, codec, identity, voter

# The package re-exports the function `tally` under the submodule's name.
tally = importlib.import_module("blindvote.tally")


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    ballot: int | None
    dur: float = 0.0
    child: float = 0.0
    units: int = 1
    failed: bool = False

    @property
    def self_time(self) -> float:
        """Duration minus the time the span's children cover."""
        return self.dur - self.child


def _box_len(args: tuple) -> int:
    return len(args[2])  # tally(pk, config, box)


def _log_len(args: tuple) -> int:
    return len(args[1])  # eligibility_audit(registry, request_log, result)


# (owner, attribute, span name, work units per call). A function that
# callers import by name is wrapped in every module that looks it up, all
# under one span name.
TARGETS: list[tuple[object, str, str, Callable[[tuple], int] | None]] = [
    (blindsig, "keygen", "blindsig.keygen", None),
    (blindsig, "random_unit", "blindsig.random_unit", None),
    (blindsig, "blind", "blindsig.blind", None),
    (blindsig, "sign_blinded", "blindsig.sign_blinded", None),
    (blindsig, "unblind", "blindsig.unblind", None),
    (blindsig, "verify_recover", "blindsig.verify_recover", None),
    (codec, "encode", "codec.encode", None),
    (codec, "pad", "codec.pad", None),
    (codec, "unpad", "codec.unpad", None),
    (codec, "decode", "codec.decode", None),
    (voter, "sign_request", "identity.sign_request", None),
    (authority, "verify_request", "identity.verify_request", None),
    (tally, "verify_request", "identity.verify_request", None),
    (identity, "load_secrets", "identity.load_secrets", None),
    (cli, "load_secrets", "identity.load_secrets", None),
    (identity, "load_registry", "identity.load_registry", None),
    (cli, "load_registry", "identity.load_registry", None),
    (authority.SigningAuthority, "handle_request", "authority.handle_request", None),
    (authority.SigningAuthority, "export_request_log", "authority.export_request_log", None),
    (authority.SigningAuthority, "save_request_log", "authority.save_request_log", None),
    # Two readers parse requests.log today: `vote` restores the authority,
    # `gate`, `tally` and `audit` list the requests. One span name covers both.
    (authority.SigningAuthority, "load_request_log", "authority.load_request_log", None),
    (cli._Dir, "load_requests", "authority.load_request_log", None),
    (voter, "prepare_and_cast", "voter.prepare_and_cast", None),
    (voter, "parse_payload", "voter.parse_payload", None),
    (voter, "verify_ballot", "voter.verify_ballot", None),
    (tally, "tally", "tally.tally", _box_len),
    (cli, "tally", "tally.tally", _box_len),
    (tally, "eligibility_audit", "tally.eligibility_audit", _log_len),
    (cli, "eligibility_audit", "tally.eligibility_audit", _log_len),
    (tally, "publish_tally", "tally.publish_tally", None),
    (cli, "publish_tally", "tally.publish_tally", None),
    (board.BulletinBoard, "append", "board.append", None),
    (board.BulletinBoard, "records", "board.records", None),
    (board, "board_verify", "board.verify", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    """Records one span per call into a wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.ballot: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, units: Callable[[tuple], int] | None = None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(len(spans), parent.id if parent else None, name, self.ballot)
            if units is not None:
                span.units = units(args)
            spans.append(span)
            stack.append(span)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                span.dur = perf_counter() - start
                span.failed = not ok
                stack.pop()
                if parent is not None:
                    parent.child += span.dur

        return traced

    def install(self) -> None:
        for owner, attr, name, units in TARGETS:
            original = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, original, units))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"run": header}) + "\n")
            for s in self.spans:
                record = {
                    "id": s.id,
                    "parent": s.parent,
                    "name": s.name,
                    "dur_us": s.dur * 1e6,
                    "ballot": s.ballot,
                }
                fh.write(json.dumps(record) + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Added cost of one traced call, from a wrapped no-op against a bare one."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)
    start = perf_counter()
    for _ in range(calls):
        noop()
    bare = perf_counter() - start
    start = perf_counter()
    for _ in range(calls):
        wrapped()
    return max(perf_counter() - start - bare, 0.0) / calls


# Per-layer metric name -> unit. A traced run reports every one of them.
LAYER_UNITS = {
    "blindsig.keygen_s": "s",
    "blindsig.sign_blinded_us": "us",
    "blindsig.sign_calls": "count",
    "blindsig.blind_us": "us",
    "blindsig.unblind_us": "us",
    "blindsig.random_unit_us": "us",
    "blindsig.verify_recover_us": "us",
    "codec.encode_pad_us": "us",
    "codec.unpad_decode_us": "us",
    "identity.sign_request_us": "us",
    "identity.verify_request_us": "us",
    "identity.load_secrets_ms": "ms",
    "identity.load_registry_ms": "ms",
    "authority.handle_request_self_us": "us",
    "authority.requests_refused": "count",
    "authority.load_request_log_ms": "ms",
    "authority.save_request_log_ms": "ms",
    "voter.prepare_and_cast_self_us": "us",
    "voter.parse_payload_us": "us",
    "voter.verify_ballot_us": "us",
    "tally.tally_per_ballot_us": "us",
    "tally.audit_per_request_us": "us",
    "tally.accepted": "count",
    "tally.rejected": "count",
    "tally.duplicates": "count",
    "board.appends": "count",
    "board.append_s": "s",
    "board.append_us_first100": "us",
    "board.append_us_last100": "us",
    "board.bytes": "bytes",
    "board.verify_ms": "ms",
    "cli.cmd_self_ms": "ms",
    "trace.spans": "count",
    "trace.span_cost_us": "us",
    "trace.overhead_s": "s",
    "trace.cast_ms_p95": "ms",
    "trace.count_s_p90": "s",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures from the spans; the caller adds the rest."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.dur for s in by_name[name])

    def mean(name: str, scale: float) -> float:
        return total(name) / len(by_name[name]) * scale

    def self_mean(name: str, scale: float) -> float:
        return sum(s.self_time for s in by_name[name]) / len(by_name[name]) * scale

    def per_unit(name: str, scale: float) -> float:
        return total(name) / sum(s.units for s in by_name[name]) * scale

    appends = by_name["board.append"]
    return {
        "blindsig.keygen_s": mean("blindsig.keygen", 1),
        "blindsig.sign_blinded_us": mean("blindsig.sign_blinded", 1e6),
        "blindsig.sign_calls": len(by_name["blindsig.sign_blinded"]),
        "blindsig.blind_us": mean("blindsig.blind", 1e6),
        "blindsig.unblind_us": mean("blindsig.unblind", 1e6),
        "blindsig.random_unit_us": mean("blindsig.random_unit", 1e6),
        "blindsig.verify_recover_us": mean("blindsig.verify_recover", 1e6),
        "codec.encode_pad_us": (total("codec.encode") + total("codec.pad"))
        / len(by_name["codec.encode"])
        * 1e6,
        "codec.unpad_decode_us": (total("codec.unpad") + total("codec.decode"))
        / len(by_name["codec.unpad"])
        * 1e6,
        "identity.sign_request_us": mean("identity.sign_request", 1e6),
        "identity.verify_request_us": mean("identity.verify_request", 1e6),
        "identity.load_secrets_ms": mean("identity.load_secrets", 1e3),
        "identity.load_registry_ms": mean("identity.load_registry", 1e3),
        "authority.handle_request_self_us": self_mean("authority.handle_request", 1e6),
        "authority.requests_refused": sum(
            s.failed for s in by_name["authority.handle_request"]
        ),
        "authority.load_request_log_ms": mean("authority.load_request_log", 1e3),
        "authority.save_request_log_ms": mean("authority.save_request_log", 1e3),
        "voter.prepare_and_cast_self_us": self_mean("voter.prepare_and_cast", 1e6),
        "voter.parse_payload_us": mean("voter.parse_payload", 1e6),
        "voter.verify_ballot_us": mean("voter.verify_ballot", 1e6),
        "tally.tally_per_ballot_us": per_unit("tally.tally", 1e6),
        "tally.audit_per_request_us": per_unit("tally.eligibility_audit", 1e6),
        "board.appends": len(appends),
        "board.append_s": total("board.append"),
        "board.append_us_first100": sum(s.dur for s in appends[:100])
        / len(appends[:100])
        * 1e6,
        "board.append_us_last100": sum(s.dur for s in appends[-100:])
        / len(appends[-100:])
        * 1e6,
        "board.verify_ms": mean("board.verify", 1e3),
        "cli.cmd_self_ms": self_mean("cli.main", 1e3),
        "trace.spans": len(spans),
    }
