"""Self-checks of the benchmark on tiny inputs: `python3 -m pytest benchmark`."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import e2e  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_run_prints_every_end_to_end_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--small"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {name: m["unit"] for name, m in res["metrics"].items()} == dict(e2e.METRICS)
    assert res["metrics"]["success_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_small_traced_run_reproduces_the_cli(workload):
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--small", "--trace", "1"))
    assert res["correct"] and res["failed"] == 0
    expected = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == expected


def _drop_one_correction(report_path: str) -> None:
    with open(report_path) as f:
        payload = json.load(f)
    kind = next(k for k, items in payload["corrections"].items() if items)
    payload["corrections"][kind].pop()
    with open(report_path, "w") as f:
        json.dump(payload, f, indent=2)


def test_corrupted_report_counts_as_failure_not_timing(tmp_path):
    workload = WORKLOADS["planted-merge"]
    inputs = generate(workload, 5, str(tmp_path), small=True)
    runner = e2e.CliRunner(ROOT, workload, 5, inputs)
    tally = e2e.Tally()
    runner.iteration(tally)
    assert tally.failed == 0 and len(tally.samples["verify_s"]) == 1
    runner.iteration(tally, tamper=_drop_one_correction)
    assert tally.failed == 1
    assert len(tally.samples["verify_s"]) == 1
    assert len(tally.samples["summarize_s"]) == 2
    assert any(p.startswith("verify") for p in tally.problems)


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS.values():
        a = generate(workload, 7, str(tmp_path / "a"), small=True)
        b = generate(workload, 7, str(tmp_path / "b"), small=True)
        for name in ("edges_path", "labels_path", "truth_path"):
            with open(getattr(a, name)) as fa, open(getattr(b, name)) as fb:
                assert fa.read() == fb.read()


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "kout-io", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
