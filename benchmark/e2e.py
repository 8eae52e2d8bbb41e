"""End-to-end run: the `lmgsum` CLI as a user runs it, tracing off.

One closed loop, one child process at a time.  Each iteration runs
`summarize --json`, `verify` on that report and `eval-labels`.  Every child
is timed from spawn to exit, and its peak RSS comes from `os.wait4`.  A
failed operation or a failed output check counts against `success_rate`
and its time is left out of the timings.

The host's speed drifts by tens of percent within seconds, so a fixed
reference child (`calibrate.py`) runs before and after every timed child.
Each timing is scaled by `CALIBRATION_REF_S` over the mean of the two
reference runs around it: the seconds it would take on a host where the
reference takes `CALIBRATION_REF_S`.  Raw medians are printed as well.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from workloads import Inputs, Workload, read_truth, recovery

#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0
#: fresh processes timed for `setup_s`; the metric is their median
SETUP_REPEATS = 5
#: a typical wall time of `calibrate.py` on the 2-vCPU Xeon VM of `record.json`
CALIBRATION_REF_S = 0.35
CALIBRATION = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibrate.py")
#: the run-time-dependent line of a report; everything else must repeat
_WALL_TIME = re.compile(rb'\n *"wall_time_s": [^\n]*')

LOAD_SNIPPET = "import sys, lmgsum; lmgsum.load_graph(sys.argv[1], sys.argv[2])"


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    output: str


def run_child(argv: list[str], env: dict, log_path: str) -> Child:
    """Run one child to completion; stdout and stderr go to ``log_path``."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, errors="replace") as f:
        output = f.read()
    return Child(seconds, usage.ru_maxrss / 1024.0, proc.returncode, output)


def report_digest(path: str) -> str:
    """Hash of a report's bytes with the `wall_time_s` line removed."""
    with open(path, "rb") as f:
        data = f.read()
    return hashlib.sha256(_WALL_TIME.sub(b"", data, count=1)).hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@dataclass
class Tally:
    """Samples of successful operations and the count of failed ones."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    raw: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1

    def timed(self, metric: str, child: Child, scale: float) -> None:
        """A successful timed child: its scaled and its raw wall time."""
        self.ok()
        self.add(metric, child.seconds * scale)
        self.raw.setdefault(metric, []).append(child.seconds)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


class CliRunner:
    """Runs the CLI on one workload's inputs and checks what it writes."""

    def __init__(self, root: str, workload: Workload, seed: int, inputs: Inputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        d = inputs.directory
        self.report_path = os.path.join(d, "report.json")
        self.eval_path = os.path.join(d, "eval.json")
        self.dot_dir = os.path.join(d, "dot")
        self.log_path = os.path.join(d, "child.log")
        #: first iteration's output digests; later iterations must match
        self.digests: dict[str, str] = {}
        self.last_reference: float | None = None

    def _cli(self, command: str, *extra: str) -> list[str]:
        return [
            sys.executable, "-m", "lmgsum.cli", command,
            "-i", self.inputs.edges_path, "-l", self.inputs.labels_path,
            "--seed", str(self.seed), *extra,
        ]

    def summarize_argv(self) -> list[str]:
        extra = ["--json", self.report_path]
        if self.workload.checkpoints:
            extra += ["--checkpoints", ",".join(map(str, self.workload.checkpoints))]
        if self.workload.dot:
            extra += ["--dot", self.dot_dir]
        return self._cli("summarize", *extra)

    def verify_argv(self) -> list[str]:
        return self._cli("verify", "--json", self.report_path)

    def eval_argv(self) -> list[str]:
        return self._cli(
            "eval-labels", "--shuffles", "2", "--threads", "2", "--json", self.eval_path
        )

    def _reference(self) -> float:
        return run_child([sys.executable, CALIBRATION], self.env, self.log_path).seconds

    def _run(self, argv: list[str]) -> tuple[Child, float]:
        """Run a child between two reference runs; returns it and its time scale."""
        before = self.last_reference or self._reference()
        child = run_child(argv, self.env, self.log_path)
        self.last_reference = self._reference()
        return child, 2 * CALIBRATION_REF_S / (before + self.last_reference)

    def setup(self, tally: Tally) -> None:
        """Time fresh processes that import lmgsum and load the inputs."""
        argv = [sys.executable, "-c", LOAD_SNIPPET,
                self.inputs.edges_path, self.inputs.labels_path]
        for _ in range(SETUP_REPEATS):
            child, scale = self._run(argv)
            if child.code != 0:
                tally.fail(f"setup exited {child.code}: {child.output[-500:]}")
            else:
                tally.timed("setup_s", child, scale)

    def _same(self, output: str, digest: str) -> bool:
        return self.digests.setdefault(output, digest) == digest

    def summarize(self, tally: Tally) -> bool:
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        child, scale = self._run(self.summarize_argv())
        if child.code != 0 or not child.output.startswith("bits_before="):
            tally.fail(f"summarize exited {child.code}: {child.output[-500:]}")
            return False
        if not self._same("report", report_digest(self.report_path)):
            tally.fail("summarize: report differs from the first iteration's")
            return False
        if self.workload.dot:
            names = [f"summary_b{b}.dot" for b in self.workload.checkpoints]
            for name in names + ["summary_final.dot"]:
                path = os.path.join(self.dot_dir, name)
                if not os.path.isfile(path) or os.path.getsize(path) == 0:
                    tally.fail(f"summarize: {name} missing or empty")
                    return False
        tally.timed("summarize_s", child, scale)
        tally.add("summarize_peak_rss_mb", child.rss_mb)
        return True

    def verify(self, tally: Tally) -> None:
        child, scale = self._run(self.verify_argv())
        if child.code != 0 or not child.output.startswith("OK"):
            tally.fail(f"verify exited {child.code}: {child.output[-500:]}")
            return
        tally.timed("verify_s", child, scale)
        tally.add("verify_peak_rss_mb", child.rss_mb)

    def eval_labels(self, tally: Tally) -> None:
        child, scale = self._run(self.eval_argv())
        if child.code != 0 or not child.output.startswith("actual_ratio="):
            tally.fail(f"eval-labels exited {child.code}: {child.output[-500:]}")
        elif not self._same("eval", file_digest(self.eval_path)):
            tally.fail("eval-labels: result differs from the first iteration's")
        else:
            tally.timed("eval_labels_s", child, scale)

    def iteration(self, tally: Tally, tamper=None) -> None:
        """summarize, then verify on that report, then eval-labels.

        ``tamper(report_path)``, when given, edits the report between the
        two; the benchmark's self-test uses it to plant a defect.
        """
        if self.summarize(tally):
            if tamper is not None:
                tamper(self.report_path)
            self.verify(tally)
        self.eval_labels(tally)

    def check_report(self, tally: Tally) -> dict:
        """Outcome checks on the (repeating) report; returns quality metrics."""
        with open(self.report_path) as f:
            payload = json.load(f)
        report = payload["report"]
        if not report["bits_after"] <= report["bits_before"]:
            tally.fail("report: bits_after exceeds bits_before")
        with open(self.eval_path) as f:
            evaluation = json.load(f)
        # without checkpoints eval-labels repeats summarize's batches exactly
        if not self.workload.checkpoints and evaluation["actual"] != report["compression_ratio"]:
            tally.fail("eval-labels: actual ratio differs from the report's")
        return {
            "bits_per_edge": report["bits_after"] / self.inputs.edges,
            "recovery": recovery(read_truth(self.inputs.truth_path), payload["summary"]),
            "report_mb": os.path.getsize(self.report_path) / 1e6,
        }


METRICS = (
    ("setup_s", "s"),
    ("summarize_s", "s"),
    ("summarize_edges_per_s", "1/s"),
    ("verify_s", "s"),
    ("eval_labels_s", "s"),
    ("summarize_peak_rss_mb", "MB"),
    ("verify_peak_rss_mb", "MB"),
    ("report_mb", "MB"),
    ("bits_per_edge", "bit"),
    ("recovery", "ratio"),
    ("success_rate", "ratio"),
)


def measure(root: str, workload: Workload, seed: int, inputs: Inputs,
            seconds: float) -> tuple[Tally, dict]:
    """Set-up samples, then iterations until ``seconds`` have passed."""
    runner = CliRunner(root, workload, seed, inputs)
    tally = Tally()
    runner.setup(tally)
    start = time.perf_counter()
    while True:
        runner.iteration(tally)
        if time.perf_counter() - start >= seconds:
            break
    values: dict[str, float] = {}
    if runner.digests.keys() == {"report", "eval"}:
        values.update(runner.check_report(tally))
    for name in tally.samples:
        values[name] = tally.median(name)
    if "summarize_s" in values:
        values["summarize_edges_per_s"] = inputs.edges / values["summarize_s"]
    values["success_rate"] = (tally.attempted - tally.failed) / tally.attempted
    return tally, values
