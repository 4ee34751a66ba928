"""Self-test of the benchmark: tiny elections, every metric, every check.

    python3 -m pytest -q bench

Each workload runs on a 512-bit key with a handful of voters, so the whole
file takes seconds. The trace test guards blindness: a written trace holds
span names, durations, parent ids and ballot counters, and nothing else.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--seed", "3", "--seconds", "0",
         "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def check_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] >= 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc, result = run_bench("--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_metrics(result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    run_line = next(line for line in proc.stdout.splitlines() if line.startswith("RUN "))
    record = json.loads(run_line[len("RUN "):])
    assert record["workload"] == workload and record["seed"] == 3
    assert record["trace"] is False and record["key_bits"] == 512
    for key in ("nproc", "python", "openssl_python", "cryptography", "commit"):
        assert record[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_is_blind(workload, tmp_path):
    trace = tmp_path / "trace.jsonl"
    proc, result = run_bench("--workload", workload, "--trace", "1",
                             "--trace-out", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_metrics(result, SPEC["per_layer"])

    text = trace.read_text()
    # No voter id, no payload line, no clock reading under any key name.
    assert not re.search(r"V\d{4}", text)
    assert "BPV1" not in text
    lines = text.splitlines()
    assert set(json.loads(lines[0])) == {"run"}
    names = {name for _, _, name, _ in tracing.TARGETS}
    ids = set()
    for line in lines[1:]:
        span = json.loads(line)
        assert set(span) == {"id", "parent", "name", "dur_us", "ballot"}
        assert span["name"] in names
        assert span["parent"] is None or span["parent"] in ids
        assert span["ballot"] is None or 0 <= span["ballot"] < 10_000
        assert isinstance(span["dur_us"], float)
        ids.add(span["id"])
    # A blinding factor or a padded message is a ~512-bit integer here.
    assert not re.search(r"\d{20}", text)


def test_refuses_tree_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run_bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


@pytest.mark.parametrize("workload, target, fault", [
    # A tally that loses the last ballot.
    ("cast_2048", (workloads.tally, "tally"),
     lambda real: lambda pk, config, box: real(pk, config, box[:-1])),
    # A gate that lets everyone in.
    ("cli_election", (workloads.cli, "polling_gate"),
     lambda real: lambda *a, **k: real({}, None, "", fail_open=True)),
    # An authority that refuses nobody's second request.
    ("count_publish", (workloads.authority.SigningAuthority, "handle_request"),
     lambda real: lambda self, req: real(self, req) if req.voter_id not in self._log
     else workloads.blindsig.sign_blinded(req.blinded, self.key)),
])
def test_checks_catch_a_fault(workload, target, fault, tmp_path, monkeypatch):
    owner, attr = target
    monkeypatch.setattr(owner, attr, fault(getattr(owner, attr)))
    run = workloads.Run(workload, workloads.SIZES[workload]["tiny"], 5, tmp_path)
    workloads.run_workload(run, 0)
    assert run.rec.failed > 0
