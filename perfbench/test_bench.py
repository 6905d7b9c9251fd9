"""Self-tests of the benchmark itself (not of the library):

    python3 -m pytest perfbench/test_bench.py -q

They check the output schema on a tiny run of every workload, that a wrong
verdict fed to the gate fails the run, that one seed always yields the same
inputs, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result: dict, names: list[str]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert sorted(result["metrics"]) == sorted(names)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_workloads():
    assert WORKLOAD_NAMES == list(W.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_end_to_end_schema(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    check_schema(result, [m["name"] for m in SPEC["end_to_end"]])
    assert result["correct"] is True and result["failed"] == 0


def test_smoke_traced_schema():
    proc = run_bench("--workload", "general", "--seed", "3", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    check_schema(result, [m["name"] for m in SPEC["per_layer"]])
    assert result["metrics"]["plant.lassos_s"]["value"] > 0
    spans = (ROOT / ".bench_work" / "spans-general-3.tsv").read_text().splitlines()
    assert spans[0].startswith("# ") and len(spans) > 1


def test_wrong_verdict_fails_the_run(tmp_path, capsys):
    workload = W.WORKLOADS["sat"](random.Random("sat:3"), tmp_path)
    ops = workload.next_round()[:4]
    results, elapsed = run.Runner(W.Outcome).run_ops(ops)
    latency, out = results[0]
    verdict, _ = out.value
    wrong = "unrealizable" if verdict == "realizable" else "realizable"
    results[0] = (latency, W.Outcome(out.status, (wrong, None), out.extra))
    report = run.Report(run.Gate(), elapsed=elapsed, setup_s=0.1, peak_rss_mb=20.0)
    report.record(ops, results)

    args = argparse.Namespace(workload="sat", seed=3, trace=0)
    assert run.emit(args, report) == 1
    printed = capsys.readouterr()
    result = json.loads(printed.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["attempted"] == len(ops)
    assert "FAIL" in printed.err


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_same_seed_same_inputs(workload):
    digests = []
    for seed in (5, 5, 6):
        with tempfile.TemporaryDirectory() as tmp:
            wl = W.WORKLOADS[workload](random.Random(f"{workload}:{seed}"), Path(tmp))
            wl.next_round()
            wl.next_round()
            digests.append(wl.digest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("--workload", "sat", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
