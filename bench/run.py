"""Benchmark of the blindvote package: three seeded elections, end to end.

    python3 bench/run.py --workload cast_2048 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`. One process, no extra threads: a closed loop with one client.
With `--trace 0` the last stdout line is a JSON object holding the
end-to-end metrics; with `--trace 1` every package layer is wrapped in
spans (see tracing.py) and the object holds the per-layer metrics, and the
spans are written to `.bench_run/traces/`. Every run checks every result
against the workload's script; `failed` counts the checks that did not
hold, and the exit code is 1 when any did. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import ssl
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(args: argparse.Namespace, bits: int) -> dict:
    import cryptography
    from cryptography.hazmat.backends.openssl.backend import backend

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "key_bits": bits,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "openssl_python": ssl.OPENSSL_VERSION,
        "cryptography": cryptography.__version__,
        "openssl_cryptography": backend.openssl_version_text(),
        "commit": git_commit(ROOT),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["cast_2048", "count_publish", "cli_election"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure about this long, in whole rounds of the election")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="512-bit key and a handful of voters, for the self-test")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="span file of a traced run (default .bench_run/traces/)")
    args = parser.parse_args(argv)

    if not (SRC / "blindvote" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'blindvote'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    size = workloads.SIZES[args.workload]["tiny" if args.tiny else "full"]
    record = machine_record(args, size.bits)
    print("RUN " + json.dumps(record), flush=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(args.workload, size, args.seed, work, tracer)
    try:
        workloads.run_workload(run, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    rec = run.rec

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = workloads.figures(rec, peak_rss_mb)
    for name, (value, unit, n) in e2e.items():
        print(f"{name:16s} {value:12.4f} {unit:5s} n={n}")
    print(f"{'error_rate':16s} {rec.failed / rec.attempted:12.4f} "
          f"{'':5s} failed={rec.failed} attempted={rec.attempted}")
    for failure in rec.failures:
        print(f"CHECK FAILED: {failure}")

    if tracer is None:
        metrics = {
            name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in workloads.END_TO_END
        }
    else:
        cost = tracing.span_cost_s()
        layer = tracing.layer_metrics(tracer.spans)
        layer.update({
            "tally.accepted": rec.tally_counts["accepted"],
            "tally.rejected": rec.tally_counts["rejected"],
            "tally.duplicates": rec.tally_counts["duplicates"],
            "board.bytes": rec.board_bytes,
            "trace.span_cost_us": cost * 1e6,
            "trace.overhead_s": cost * len(tracer.spans),
            "trace.cast_ms_p95": e2e["cast_ms_p95"][0],
            "trace.count_s_p90": e2e["count_s_p90"][0],
        })
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()
        }
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:14.4f} {m['unit']}")
        trace_out = args.trace_out or (
            ROOT / ".bench_run" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        )
        tracer.write(trace_out, record)
        print(f"trace written to {trace_out}")

    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
