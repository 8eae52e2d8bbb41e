"""End-to-end summarization runs, compression metrics, and label evaluation.

A run starts from the all-singleton summary (whose total cost is the
``bits_before`` baseline), then adds minhash bands one at a time.  After
each band the newly discovered candidates are processed best-first; commits
are gated on a strict cost decrease, so the running total only falls.
Checkpoints snapshot the summary at requested band counts, realizing
multi-resolution output within a single run: a later checkpoint differs
from an earlier one only by further commits.

The shuffled-label evaluation reruns the merge loop on seeded random
permutations of the label multiset and reports the normalized gain
(actual - shuffled_mean) / (1 - shuffled_mean): how much of the remaining
compressible structure the true labeling captures beyond label-blind
chance.  The candidate sweep reads the edges and never the labels, so it
runs once and every labeling, the true one included, merges the same
batches; only :func:`run` computes corrections.  The merges are independent,
so they are dealt round robin over up to ``config.threads`` processes: this
one and children forked after the sweep, which send their ratios back
through a pipe as IEEE doubles, bit for bit.
"""

from __future__ import annotations

import copy
import os
import struct
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .candidates import Candidate, LshState, candidate_batches, threshold
from .config import RunConfig
from .encoding import CostBreakdown
from .graph import LabeledMultiGraph
from .merge import SummaryState
from .summary import CorrectionSet, SummaryGraph, compute_corrections


@dataclass(frozen=True)
class Checkpoint:
    band: int
    threshold: float
    bits_after: float
    ratio: float
    super_node_count: int
    super_edge_count: int
    glyph_counts: dict[str, int]
    summary: SummaryGraph | None = None


@dataclass
class RunReport:
    """What a run did and what it cost, plus the final summary's corrections.

    ``corrections`` is the :class:`CorrectionSet` that rebuilds the input
    from the final summary, computed once by :func:`run`, and ``cost`` is
    the final summary's :class:`CostBreakdown`, read off the merge state,
    so ``cost.total_bits == bits_after``.  ``budget_skips`` is the number
    of pair checks the sweep's verification budget cut off.  All three stay
    out of :meth:`to_dict`, and a report built elsewhere may leave the first
    two ``None``.
    """

    bits_before: float
    bits_after: float
    compression_ratio: float
    checkpoints: list[Checkpoint] = field(default_factory=list)
    wall_time_s: float = 0.0
    candidate_count: int = 0
    commit_count: int = 0
    super_node_count: int = 0
    super_edge_count: int = 0
    glyph_counts: dict[str, int] = field(default_factory=dict)
    correction_counts: dict[str, int] = field(default_factory=dict)
    corrections: CorrectionSet | None = None
    cost: CostBreakdown | None = None
    budget_skips: int = 0

    def to_dict(self) -> dict:
        return {
            "bits_before": self.bits_before,
            "bits_after": self.bits_after,
            "compression_ratio": self.compression_ratio,
            "wall_time_s": self.wall_time_s,
            "candidate_count": self.candidate_count,
            "commit_count": self.commit_count,
            "super_node_count": self.super_node_count,
            "super_edge_count": self.super_edge_count,
            "glyph_counts": self.glyph_counts,
            "correction_counts": self.correction_counts,
            "checkpoints": [
                {
                    "band": c.band,
                    "threshold": c.threshold,
                    "bits_after": c.bits_after,
                    "ratio": c.ratio,
                    "super_node_count": c.super_node_count,
                    "super_edge_count": c.super_edge_count,
                    "glyph_counts": c.glyph_counts,
                }
                for c in self.checkpoints
            ],
        }


def compression_ratio(bits_before: float, bits_after: float) -> float:
    """(bits_before - bits_after) / bits_before, in [0, 1)."""
    if bits_before <= 0:
        raise ValueError("bits_before must be positive")
    return (bits_before - bits_after) / bits_before


def run(
    g: LabeledMultiGraph,
    config: RunConfig = RunConfig(),
    audit=None,
    keep_checkpoint_summaries: bool = False,
) -> tuple[SummaryGraph, RunReport]:
    """Summarize ``g``; returns the final summary and the run report.

    ``audit(state, proposal)``, when given, runs after every single commit.
    With ``keep_checkpoint_summaries`` each checkpoint carries a deep
    snapshot of the summary for export.  The final summary's corrections
    are computed once, here, and handed back as ``report.corrections``.
    """
    t0 = time.perf_counter()
    lsh = _lsh_state(g, config)
    summary, report = _merge(
        g, candidate_batches(lsh, config.checkpoints), config, audit, keep_checkpoint_summaries
    )
    report.budget_skips = lsh.budget_skips
    del lsh  # the sweep's arrays and sets are not kept through the corrections
    corrections = compute_corrections(g, summary)
    report.correction_counts = corrections.counts()
    report.corrections = corrections
    report.wall_time_s = time.perf_counter() - t0
    return summary, report


def _lsh_state(g: LabeledMultiGraph, config: RunConfig) -> LshState:
    """The run's candidate sweep, before its first band."""
    return LshState(
        g,
        r=config.r,
        b_max=config.b_max,
        seed=config.seed,
        cluster_cap=config.cluster_cap,
    )


def _merge(
    g: LabeledMultiGraph,
    batches: Iterable[tuple[int, list[Candidate]]],
    config: RunConfig,
    audit=None,
    keep_checkpoint_summaries: bool = False,
) -> tuple[SummaryGraph, RunReport]:
    """The merge loop: process each ``(band, batch)`` best first from the
    all-singleton summary, with a checkpoint at each of
    ``config.checkpoints``.  The report has no corrections or timing yet.

    ``batches`` is read once and left as it is, so one list of batches can
    serve several labelings of the same edges.
    """
    state = SummaryState(g)
    bits_before = state.total_bits
    checkpoints: list[Checkpoint] = []
    n_candidates = 0
    n_commits = 0
    for b, batch in batches:
        n_candidates += len(batch)
        for cand in batch:
            n_commits += len(state.process_candidate(cand.nodes, audit=audit))
        if b in config.checkpoints:
            summary = state.to_summary_graph()
            bits = state.total_bits
            checkpoints.append(
                Checkpoint(
                    band=b,
                    threshold=threshold(b, config.r),
                    bits_after=bits,
                    ratio=compression_ratio(bits_before, bits),
                    super_node_count=len(summary.super_nodes),
                    super_edge_count=len(summary.super_edges),
                    glyph_counts=summary.glyph_counts(),
                    summary=summary if keep_checkpoint_summaries else None,
                )
            )
    summary = state.to_summary_graph()
    cost = state.cost
    bits_after = cost.total_bits
    return summary, RunReport(
        bits_before=bits_before,
        bits_after=bits_after,
        compression_ratio=compression_ratio(bits_before, bits_after),
        checkpoints=checkpoints,
        candidate_count=n_candidates,
        commit_count=n_commits,
        super_node_count=len(summary.super_nodes),
        super_edge_count=len(summary.super_edges),
        glyph_counts=summary.glyph_counts(),
        cost=cost,
    )


def normalized_gain(actual: float, shuffled_mean: float) -> float:
    """(actual - shuffled_mean) / (1 - shuffled_mean)."""
    if shuffled_mean >= 1.0:
        raise ValueError("shuffled_mean must be < 1")
    return (actual - shuffled_mean) / (1.0 - shuffled_mean)


def _with_labels(g: LabeledMultiGraph, labels: np.ndarray) -> LabeledMultiGraph:
    """``g`` with other labels: a shallow copy that shares g's edge arrays
    and token cache, which depend on the edges only and which no graph
    modifies.  ``labels`` is taken as is, unchecked: one of g's label ids
    per node, as a permutation of ``g.labels`` is."""
    relabeled = copy.copy(g)
    relabeled.labels = labels
    return relabeled


def shuffled_label_eval(g: LabeledMultiGraph, config: RunConfig = RunConfig()) -> dict:
    """Compression with true labels vs. seeded label permutations.

    Returns actual ratio, per-shuffle ratios, their mean, and the normalized
    gain over ``config.shuffles`` permutations.  A single-label graph has no
    alternative labelings: the result carries the actual ratio and a warning
    instead of a gain.  The labelings are merged in up to
    ``config.threads`` processes (see :func:`_map_forked`); the result does
    not depend on how many.
    """
    # the candidate sweep reads the edges only, so every labeling shares it
    batches = list(candidate_batches(_lsh_state(g, config), config.checkpoints))

    def ratio(graph: LabeledMultiGraph) -> float:
        return _merge(graph, batches, config)[1].compression_ratio

    labelings = [g]
    if g.label_count > 1:
        rng = np.random.default_rng(config.seed)
        base = np.asarray(g.labels)
        labelings += [
            _with_labels(g, base[rng.permutation(g.n)]) for _ in range(config.shuffles)
        ]
    actual, *ratios = _map_forked(ratio, labelings, _worker_count(config.threads, len(labelings)))
    if not ratios:
        return {
            "actual": actual,
            "shuffled": [],
            "shuffled_mean": None,
            "normalized_gain": None,
            "warning": "single-label graph: gain undefined, reporting actual only",
        }
    mean = float(np.mean(ratios))
    return {
        "actual": actual,
        "shuffled": ratios,
        "shuffled_mean": mean,
        "normalized_gain": normalized_gain(actual, mean),
    }


def _worker_count(threads: int, jobs: int) -> int:
    """Processes to run ``jobs`` in: at most ``threads``, ``jobs`` and the
    CPUs this process may use; 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
    return min(threads, jobs, cpus)


def _map_forked(fn, items: list, workers: int) -> list[float]:
    """``[fn(x) for x in items]``, the items dealt round robin over
    ``workers`` processes: this one keeps share 0, and ``workers - 1``
    forked children take the others.  With one worker nothing is forked.

    Every child is reaped before this returns or raises; when this
    process's own share raises, the children are killed first.  A child
    that exits non-zero or sends short data raises :class:`OSError`.
    """
    out: list[float] = [0.0] * len(items)
    children: list[tuple[int, int]] = []
    statuses: list[int] = []
    done = False
    try:
        for share in range(1, workers):
            children.append(_fork_share(fn, items[share::workers]))
        out[0::workers] = [fn(x) for x in items[0::workers]]
        payloads = [_read_all(fd) for _pid, fd in children]
        done = True
    finally:
        for pid, fd in children:
            if not done:
                # imported here, as at the top it adds ~1.5 ms to every start-up
                import signal

                os.kill(pid, signal.SIGKILL)
            os.close(fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for share, (pid, _fd), status, payload in zip(
        range(1, workers), children, statuses, payloads
    ):
        count = len(out[share::workers])
        if status != 0 or len(payload) != 8 * count:
            raise OSError(
                f"eval-labels worker {pid} exited with status "
                f"{os.waitstatus_to_exitcode(status)} after sending "
                f"{len(payload)} of {8 * count} bytes"
            )
        out[share::workers] = struct.unpack(f"{count}d", payload)
    return out


def _fork_share(fn, share: list) -> tuple[int, int]:
    """Fork a child that writes ``fn`` of each item in ``share`` to a pipe
    as 8-byte doubles; returns its pid and the pipe's read end.

    The child leaves through ``os._exit``, status 0 only when it wrote
    everything, so it never returns into the caller's stack: it writes no
    output files, prints nothing and runs no clean-up of the parent's.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = struct.pack(f"{len(share)}d", *[fn(x) for x in share])
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


def _read_all(fd: int) -> bytes:
    """Everything a pipe's read end yields until every writer has closed it."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)
