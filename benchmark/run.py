"""lmgsum benchmark: `python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  The seed makes the workload's input files
(see `workloads.py`); the CLI under test sees only those files.

* `--trace 0` runs the CLI in child processes (`e2e.py`) and prints the
  end-to-end metrics.
* `--trace 1` runs the CLI's `summarize` once as the reference, then
  traced in-process passes (`tracing.py`) that must reproduce its report,
  and prints the per-layer metrics.
* `--small` shrinks every workload, for the benchmark's own tests.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (name -> value and unit).  Scratch files go to
`.bench_work/` under the checkout and are removed at exit, apart from the
span files of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")


def _import_package() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "lmgsum", "__init__.py")):
        sys.exit(f"error: no lmgsum sources under {os.path.join(ROOT, 'src')}")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)

    _import_package()
    import e2e
    import tracing
    from workloads import WORKLOADS, generate

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK_DIR, f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        inputs = generate(workload, args.seed, run_dir, small=args.small)
        print(f"{workload.name} seed={args.seed}: {inputs.nodes} nodes, {inputs.edges} edges, "
              f"{os.path.getsize(inputs.edges_path)} TSV bytes")
        if args.trace:
            tally = e2e.Tally()
            runner = e2e.CliRunner(ROOT, workload, args.seed, inputs)
            if runner.summarize(tally):
                trace_path = os.path.join(WORK_DIR, f"spans-{workload.name}-{args.seed}.jsonl")
                values = tracing.measure(runner, args.seconds, trace_path, tally)
            else:
                values = {}
            spec = [(name, unit) for name, unit, _ in tracing.per_layer_metrics()]
        else:
            tally, values = e2e.measure(ROOT, workload, args.seed, inputs, args.seconds)
            spec = list(e2e.METRICS)
            for name, samples in sorted(tally.raw.items()):
                print(f"  {name:24s} n={len(samples):3d} raw median={statistics.median(samples):.4f} "
                      f"max={max(samples):.4f} scaled median={values[name]:.4f}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec if name in values}
    correct = tally.failed == 0 and len(metrics) == len(spec)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
