"""Tests of the benchmark itself: `python3 -m pytest perfbench` from the repository root.

They run the benchmark as a program, the way it is used: one checked pass of every
workload, the oracle's closed-form self-test, and the output contract of a short run
with and without tracing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, timeout=300):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def test_smoke_pass_checks_every_workload():
    done = run(str(BENCH / "run.py"), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    assert sum(line.startswith("ok ") for line in done.stdout.splitlines()) == 4


def test_oracle_matches_closed_forms():
    done = run(str(BENCH / "oracle.py"))
    assert done.returncode == 0, done.stdout
    assert "FAIL" not in done.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_contract(trace):
    done = run(str(BENCH / "run.py"), "--workload", "points1d", "--seed", "1", "--seconds", "0.5",
               "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # one fixed F1 case per pass of 101 operations
    assert result["failed"] * 101 == result["attempted"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_run_fails_without_the_package(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    for f in BENCH.glob("*.py"):
        (bare / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "points1d", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seed_spread_prints_the_spreads():
    done = run(str(BENCH / "seed_spread.py"), "--workload", "points1d", "--seeds", "1-4", "--rounds", "1")
    assert done.returncode == 0, done.stderr
    assert "op_ms_p50" in done.stdout
