"""Traced in-process run: the CLI's work, one span per public call.

`traced_pass` repeats what `lmgsum summarize`, `verify` and `eval-labels`
do, calling the public functions of each module itself: `run()`'s batch
boundaries and `process_candidate`'s split -> evaluate -> commit are
mirrored step by step, so every step gets its own span.  Spans are kept in
memory and written out when the run ends.  A layer's self time is its
spans' durations minus what their child spans cover.

Blind spots, left for spans inside the program: verifications cut off by
`merge_budget` (they happen inside `add_band`), which of the two
`compute_corrections` calls per `summarize` is which (both land in one
metric), and `encoding`, whose cost lands inside `merge.evaluate` and
`summary.total_cost`.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass

from lmgsum.candidates import LshState, candidate_sort_key, minhash_band, prune_redundant, threshold
from lmgsum.cli import build_parser
from lmgsum.graph import load_graph
from lmgsum.merge import SummaryState, split_by_label
from lmgsum.summarize import Checkpoint, RunConfig, RunReport, compression_ratio, run, shuffled_label_eval
from lmgsum.summary import (
    compute_corrections,
    corrections_from_dict,
    corrections_to_dict,
    export_dot,
    reconstruct,
    summary_from_dict,
    summary_to_dict,
    total_cost,
)

from e2e import CliRunner, report_digest

#: layers whose self time is reported, as `<layer>_s`
TIMED_LAYERS = (
    "graph.load",
    "graph.token_array",
    "graph.canonical_dump",
    "candidates.lsh_init",
    "candidates.add_band",
    "candidates.minhash_band",
    "candidates.harvest_cliques",
    "candidates.prune",
    "merge.state_init",
    "merge.split",
    "merge.evaluate",
    "merge.commit",
    "merge.snapshot",
    "summary.compute_corrections",
    "summary.total_cost",
    "summary.summary_to_dict",
    "summary.corrections_to_dict",
    "summary.export_dot",
    "summary.from_dict",
    "summary.reconstruct",
    "cli.json_dumps",
    "cli.json_loads",
    "summarize.shuffled_label_eval",
)

COUNTS = (
    ("candidates.pairs_verified", "count", "lower"),
    ("candidates.similarity_edges", "count", "higher"),
    ("candidates.sim_edge_yield", "ratio", "higher"),
    ("candidates.cached_pairs", "count", "lower"),
    ("candidates.cliques_emitted", "count", "lower"),
    ("candidates.candidates_after_prune", "count", "lower"),
    ("merge.proposals_scored", "count", "lower"),
    ("merge.proposals_committed", "count", "higher"),
    ("merge.commit_yield", "ratio", "higher"),
    ("summary.corrections_positive", "count", "lower"),
    ("summary.corrections_negative", "count", "lower"),
    ("summary.corrections_mult_deltas", "count", "lower"),
    ("cli.report_bytes", "B", "lower"),
)

#: per-layer metrics that are timings of whole calls rather than self times
EXTRA = (
    ("summarize.run_s", "s", "lower"),
    ("summarize.trace_overhead_pct", "%", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return [(f"{layer}_s", "s", "lower") for layer in TIMED_LAYERS] + list(COUNTS) + list(EXTRA)


class Tracer:
    """In-memory span recorder; spans of one pass share its run id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run_id = 0
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self, run_id: int) -> dict[str, float]:
        """Summed self time per span name within one run id."""
        spans = [s for s in self.spans if s["run"] == run_id]
        child_time: dict[int, float] = {}
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def durations(self, run_id: int, name: str) -> float:
        return sum(
            s["end"] - s["start"] for s in self.spans if s["run"] == run_id and s["name"] == name
        )

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        stack = tracer._stack
        self.record = {
            "id": len(tracer.spans),
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": tracer.workload,
            "run": tracer.run_id,
            "start": 0.0,
            "end": 0.0,
        }

    def __enter__(self):
        t = self.tracer
        t.spans.append(self.record)
        t._stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


@dataclass
class PassResult:
    verified: bool
    report: RunReport
    eval_result: dict
    counts: dict


def cli_config(argv: list[str]):
    """Parsed CLI arguments and the RunConfig the CLI builds from them."""
    args = build_parser().parse_args(argv[argv.index("lmgsum.cli") + 1:])
    return args, RunConfig(
        r=args.r,
        b_max=args.bands,
        seed=args.seed,
        cluster_cap=args.cluster_cap,
        undirected=args.undirected,
        checkpoints=tuple(getattr(args, "checkpoints", ())),
        threads=args.threads,
        shuffles=getattr(args, "shuffles", 20),
    )


def _traced_run(tr: Tracer, g, config: RunConfig, keep: bool, counts: dict):
    """`summarize.run()` step by step, with a span around each call."""
    t0 = time.perf_counter()
    with tr.span("graph.token_array"):
        g.token_array()
    with tr.span("merge.state_init"):
        state = SummaryState(g)
    bits_before = state.total_bits
    with tr.span("candidates.lsh_init"):
        lsh = LshState(g, r=config.r, b_max=config.b_max, seed=config.seed,
                       cluster_cap=config.cluster_cap)
    want = set(config.checkpoints)
    checkpoints = []
    n_candidates = n_commits = n_scored = n_cliques = peak_cache = 0
    pending = []
    for b in range(1, config.b_max + 1):
        with tr.span("candidates.add_band"):
            lsh.add_band()
        peak_cache = max(peak_cache, len(lsh.cache))
        with tr.span("candidates.harvest_cliques"):
            found = lsh.harvest_cliques()
        n_cliques += len(found)
        pending.extend(found)
        if b not in want and b != config.b_max:
            continue
        with tr.span("candidates.prune"):
            batch = sorted(prune_redundant(pending), key=candidate_sort_key)
        pending = []
        n_candidates += len(batch)
        for cand in batch:
            with tr.span("merge.split"):
                subsets = split_by_label(g, [v for v in cand.nodes if state.is_unmarked(v)])
            for subset in subsets:
                with tr.span("merge.evaluate"):
                    proposal = state.evaluate_proposal(subset)
                if proposal is None:
                    continue
                n_scored += 1
                if proposal.dcost < 0:
                    with tr.span("merge.commit"):
                        state.commit(proposal)
                    n_commits += 1
        if b in want:
            with tr.span("merge.snapshot"):
                summary = state.to_summary_graph()
                bits = state.total_bits
                checkpoints.append(Checkpoint(
                    band=b,
                    threshold=threshold(b, config.r),
                    bits_after=bits,
                    ratio=compression_ratio(bits_before, bits),
                    super_node_count=len(summary.super_nodes),
                    super_edge_count=len(summary.super_edges),
                    glyph_counts=summary.glyph_counts(),
                    summary=summary if keep else None,
                ))
    with tr.span("merge.snapshot"):
        summary = state.to_summary_graph()
    bits_after = state.total_bits
    with tr.span("summary.compute_corrections"):
        corrections = compute_corrections(g, summary)
    report = RunReport(
        bits_before=bits_before,
        bits_after=bits_after,
        compression_ratio=compression_ratio(bits_before, bits_after),
        checkpoints=checkpoints,
        wall_time_s=time.perf_counter() - t0,
        candidate_count=n_candidates,
        commit_count=n_commits,
        super_node_count=len(summary.super_nodes),
        super_edge_count=len(summary.super_edges),
        glyph_counts=summary.glyph_counts(),
        correction_counts=corrections.counts(),
    )
    verified = len(lsh.verified)
    sim_edges = lsh.gsim.edge_count
    counts.update({
        "candidates.pairs_verified": verified,
        "candidates.similarity_edges": sim_edges,
        "candidates.sim_edge_yield": sim_edges / verified if verified else 0.0,
        "candidates.cached_pairs": peak_cache,
        "candidates.cliques_emitted": n_cliques,
        "candidates.candidates_after_prune": n_candidates,
        "merge.proposals_scored": n_scored,
        "merge.proposals_committed": n_commits,
        "merge.commit_yield": n_commits / n_scored if n_scored else 0.0,
    })
    return summary, report


def traced_pass(tr: Tracer, runner: CliRunner, out_dir: str) -> PassResult:
    """summarize + verify + eval-labels, as the CLI does them, traced."""
    counts: dict = {}
    args, config = cli_config(runner.summarize_argv())
    with tr.span("bench.pass"):
        # -- summarize
        with tr.span("graph.load"):
            g = load_graph(args.input, args.labels, args.undirected)
        with tr.span("summarize.pipeline"):
            summary, report = _traced_run(tr, g, config, bool(args.dot), counts)
        with tr.span("summary.compute_corrections"):
            corrections = compute_corrections(g, summary)
        with tr.span("summary.total_cost"):
            costs = total_cost(g, summary)
        with tr.span("summary.summary_to_dict"):
            summary_dict = summary_to_dict(g, summary, costs)
        with tr.span("summary.corrections_to_dict"):
            corrections_dict = corrections_to_dict(summary, corrections)
        payload = {
            "config": {
                "r": config.r,
                "b_max": config.b_max,
                "seed": config.seed,
                "cluster_cap": config.cluster_cap,
                "undirected": config.undirected,
                "checkpoints": list(config.checkpoints),
            },
            "report": report.to_dict(),
            "summary": summary_dict,
            "corrections": corrections_dict,
        }
        with tr.span("cli.json_dumps"):
            text = json.dumps(payload, indent=2) + "\n"
        if args.dot:
            with tr.span("summary.export_dot"):
                dots = {
                    f"summary_b{cp.band}": export_dot(cp.summary, f"summary_b{cp.band}")
                    for cp in report.checkpoints
                }
                dots["summary_final"] = export_dot(summary, "summary_final")
            for name, dot in dots.items():
                with open(os.path.join(out_dir, f"traced_{name}.dot"), "w") as f:
                    f.write(dot)
        report_path = os.path.join(out_dir, "traced_report.json")
        with open(report_path, "w") as f:
            f.write(text)
        counts.update({
            "summary.corrections_positive": len(corrections.positive),
            "summary.corrections_negative": len(corrections.negative),
            "summary.corrections_mult_deltas": len(corrections.mult_deltas),
            "cli.report_bytes": len(text.encode()),
        })

        # -- verify
        with tr.span("graph.load"):
            g2 = load_graph(args.input, args.labels, args.undirected)
        with tr.span("cli.json_loads"):
            with open(report_path) as f:
                loaded = json.load(f)
        with tr.span("summary.from_dict"):
            summary2 = summary_from_dict(loaded["summary"])
            corrections2 = corrections_from_dict(summary2, loaded["corrections"])
        with tr.span("summary.reconstruct"):
            rebuilt = reconstruct(summary2, corrections2)
        with tr.span("graph.canonical_dump"):
            verified = g2.canonical_dump() == rebuilt.canonical_dump()

        # -- eval-labels
        eval_args, eval_config = cli_config(runner.eval_argv())
        with tr.span("graph.load"):
            g3 = load_graph(eval_args.input, eval_args.labels, eval_args.undirected)
        with tr.span("summarize.shuffled_label_eval"):
            eval_result = shuffled_label_eval(g3, eval_config)
    return PassResult(verified, report, eval_result, counts)


def untraced_run_seconds(runner: CliRunner) -> float:
    """`run()` alone on a freshly loaded graph, for the tracing overhead."""
    args, config = cli_config(runner.summarize_argv())
    g = load_graph(args.input, args.labels, args.undirected)
    t0 = time.perf_counter()
    run(g, config, keep_checkpoint_summaries=bool(args.dot))
    return time.perf_counter() - t0


def minhash_probe(tr: Tracer, runner: CliRunner) -> None:
    """Public `minhash_band` per band, outside the pipeline span."""
    args, config = cli_config(runner.summarize_argv())
    g = load_graph(args.input, args.labels, args.undirected)
    g.token_array()
    for b in range(1, config.b_max + 1):
        with tr.span("candidates.minhash_band"):
            minhash_band(g, b, config.seed, config.r)


def _mismatch(result: PassResult, cli_report: dict, traced_path: str, cli_digest: str,
              checkpoints: bool) -> str | None:
    """Why a traced pass differs from the CLI, or None when it matches."""
    ours = result.report.to_dict()
    for key in ("bits_after", "commit_count", "candidate_count", "correction_counts"):
        if ours[key] != cli_report[key]:
            return f"traced {key}={ours[key]!r}, CLI {cli_report[key]!r}"
    if report_digest(traced_path) != cli_digest:
        return "traced report differs from the CLI's"
    if not result.verified:
        return "traced reconstruction differs from the input"
    if not checkpoints and result.eval_result["actual"] != result.report.compression_ratio:
        return "traced eval-labels ratio differs from the report's"
    return None


def measure(runner: CliRunner, seconds: float, trace_path: str, tally) -> dict:
    """Traced passes until ``seconds`` have passed; returns per-layer values.

    ``runner`` has run `summarize` once already.  Every pass must reproduce
    that report byte for byte (apart from `wall_time_s`), and so its bits,
    commit, candidate and correction counts, and must reconstruct the input
    exactly; a pass that does not counts as failed.
    """
    tr = Tracer(runner.workload.name)
    cli_digest = report_digest(runner.report_path)
    with open(runner.report_path) as f:
        cli_report = json.load(f)["report"]
    out_dir = runner.inputs.directory
    layer_samples: dict[str, list[float]] = {}
    pipeline, untraced = [], []
    counts: dict = {}
    start = time.perf_counter()
    while not pipeline or time.perf_counter() - start < seconds:
        tr.run_id += 1
        result = traced_pass(tr, runner, out_dir)
        minhash_probe(tr, runner)
        untraced.append(untraced_run_seconds(runner))
        problem = _mismatch(result, cli_report, os.path.join(out_dir, "traced_report.json"),
                            cli_digest, bool(runner.workload.checkpoints))
        if problem:
            tally.fail(problem)
        else:
            tally.ok()
        pipeline.append(tr.durations(tr.run_id, "summarize.pipeline"))
        for name, own in tr.self_times(tr.run_id).items():
            layer_samples.setdefault(name, []).append(own)
        counts = result.counts
    tr.write(trace_path)

    values = {
        f"{layer}_s": statistics.median(layer_samples.get(layer, [0.0]))
        for layer in TIMED_LAYERS
    }
    values.update(counts)
    run_s = statistics.median(untraced)
    values["summarize.run_s"] = run_s
    values["summarize.trace_overhead_pct"] = 100.0 * (statistics.median(pipeline) - run_s) / run_s
    # Shares of the summarize + verify part: the eval-labels call is one
    # opaque span, and the minhash probe runs outside the pass.
    self_medians = {
        name: statistics.median(samples) for name, samples in layer_samples.items()
        if name not in ("summarize.shuffled_label_eval", "candidates.minhash_band")
    }
    total = sum(self_medians.values())
    for name, own in sorted(self_medians.items(), key=lambda kv: -kv[1]):
        print(f"  self-time share {name:34s} {100 * own / total:6.2f} %")
    print(f"  traced passes: {tr.run_id}, summarize + verify self time {total:.3f} s")
    return values
