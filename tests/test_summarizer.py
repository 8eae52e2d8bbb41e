"""Tests for full summarization runs: configuration, checkpoints,

compression metrics, determinism, and the shuffled-label evaluation."""

import os
import time

import numpy as np
import pytest

from lmgsum.candidates import LshState, threshold
from lmgsum.graph import LabeledMultiGraph
from lmgsum.summarize import (
    RunConfig,
    _with_labels,
    compression_ratio,
    normalized_gain,
    run,
    shuffled_label_eval,
)
from lmgsum.summary import (
    compute_corrections,
    reconstruct,
    summary_to_dict,
    total_cost,
)
from lmgsum.synth import kout_graph, planted_graph, random_graph


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert (cfg.r, cfg.b_max, cfg.seed) == (8, 10, 0)
        assert cfg.checkpoints == ()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RunConfig(r=0)
        with pytest.raises(ValueError):
            RunConfig(b_max=0)
        with pytest.raises(ValueError):
            RunConfig(checkpoints=(0,))
        with pytest.raises(ValueError):
            RunConfig(b_max=5, checkpoints=(6,))
        with pytest.raises(ValueError):
            RunConfig(threads=0)
        with pytest.raises(ValueError):
            RunConfig(shuffles=0)
        with pytest.raises(ValueError):
            RunConfig(seed=-1)
        with pytest.raises(ValueError):
            RunConfig(cluster_cap=0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().seed = 3


class TestCompressionRatio:
    def test_values(self):
        assert compression_ratio(100.0, 75.0) == pytest.approx(0.25)
        assert compression_ratio(50.0, 50.0) == 0.0

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            compression_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            compression_ratio(-3.0, 1.0)


class TestNormalizedGain:
    def test_reference_points(self):
        assert normalized_gain(0.32, 0.28) == pytest.approx(0.04 / 0.72)
        assert round(100 * normalized_gain(0.32, 0.28), 1) == 5.6
        assert normalized_gain(0.47, 0.36) == pytest.approx(0.11 / 0.64)
        assert round(100 * normalized_gain(0.47, 0.36), 1) == 17.2

    def test_zero_when_equal(self):
        assert normalized_gain(0.4, 0.4) == 0.0

    def test_rejects_degenerate_baseline(self):
        with pytest.raises(ValueError):
            normalized_gain(0.5, 1.0)


#: seed of the pinned run, for both the graph and the run
GOLDEN_SEED = 1


def run_record(summary, report) -> dict:
    """Everything a run decides, in plain JSON types: super-nodes by id,
    super-edges sorted, the corrections in emission order, the counts and
    the final bits."""
    cor = report.corrections
    return {
        "super_nodes": [
            [sn.id, list(sn.members), sn.glyph.value, sn.hub, sn.rep_mult, sn.self_loop]
            for sn in sorted(summary.super_nodes.values(), key=lambda sn: sn.id)
        ],
        "super_edges": [[a, b, m] for (a, b), m in sorted(summary.super_edges.items())],
        "positive": cor.positive.tolist(),
        "negative": cor.negative.tolist(),
        "mult_deltas": cor.mult_deltas.tolist(),
        "commit_count": report.commit_count,
        "candidate_count": report.candidate_count,
        "bits_after": report.bits_after,
    }


class TestRun:
    def test_pinned_run_matches_golden(self, planted_multigraph, run_golden):
        # golden written by run_record on planted_multigraph(1), checkpoints
        # (2, 5); bits_after gets a relative tolerance because log2 may
        # round differently in the last ulp on another platform
        g = planted_multigraph(GOLDEN_SEED)
        summary, report = run(g, RunConfig(seed=GOLDEN_SEED, checkpoints=(2, 5)))
        got = run_record(summary, report)
        want = dict(run_golden)
        assert got.pop("bits_after") == pytest.approx(want.pop("bits_after"), rel=1e-9)
        assert got == want
        assert report.commit_count > 0 and summary.super_edges
        assert all(want[kind] for kind in ("positive", "negative", "mult_deltas"))

    def test_edgeless_graph_is_a_fixed_point(self):
        g = LabeledMultiGraph(12, {})
        summary, report = run(g)
        assert report.commit_count == 0
        assert report.candidate_count == 0
        assert report.bits_after == report.bits_before
        assert report.compression_ratio == 0.0
        assert report.super_node_count == 12
        assert report.super_edge_count == 0
        assert report.correction_counts == {
            "positive": 0,
            "negative": 0,
            "mult_deltas": 0,
        }
        assert reconstruct(summary, compute_corrections(g, summary)) == g

    def test_planted_graph_compresses_and_reconstructs(self):
        g, _ = planted_graph(2, cliques=2, in_stars=2, out_stars=2,
                             size_range=(8, 12), noise=0.05)
        summary, report = run(g, RunConfig(seed=2))
        assert report.commit_count > 0
        assert report.compression_ratio > 0.3
        assert report.bits_after < report.bits_before
        counts = report.glyph_counts
        assert counts["clique"] >= 2
        assert counts["in_star"] >= 2
        assert counts["out_star"] >= 2
        assert reconstruct(summary, compute_corrections(g, summary)) == g

    def test_incremental_bits_match_from_scratch_total(self):
        g, _ = planted_graph(4, cliques=1, in_stars=1, out_stars=1,
                             size_range=(6, 10), noise=0.1)
        summary, report = run(g, RunConfig(seed=2))
        assert report.bits_after == pytest.approx(
            total_cost(g, summary).total_bits, abs=1e-6
        )
        assert report.cost == total_cost(g, summary)
        assert report.bits_after == report.cost.total_bits

    def test_same_seed_is_bit_identical(self):
        g = random_graph(17)
        s1, r1 = run(g, RunConfig(seed=5))
        s2, r2 = run(g, RunConfig(seed=5))
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("wall_time_s"), d2.pop("wall_time_s")
        assert d1 == d2
        assert summary_to_dict(g, s1) == summary_to_dict(g, s2)

    def test_ratio_matches_bits(self):
        g, _ = planted_graph(7, cliques=1, in_stars=1, out_stars=0,
                             size_range=(6, 9), noise=0.0)
        _, report = run(g)
        assert report.compression_ratio == pytest.approx(
            compression_ratio(report.bits_before, report.bits_after)
        )


class TestCheckpoints:
    def test_checkpoints_are_monotone_snapshots(self):
        g, _ = planted_graph(9, cliques=2, in_stars=2, out_stars=1,
                             size_range=(8, 12), noise=0.05)
        cfg = RunConfig(seed=9, checkpoints=(2, 5, 10))
        _, report = run(g, cfg)
        cps = report.checkpoints
        assert [c.band for c in cps] == [2, 5, 10]
        for c in cps:
            assert c.threshold == pytest.approx(threshold(c.band, cfg.r))
            assert c.ratio == pytest.approx(
                compression_ratio(report.bits_before, c.bits_after)
            )
            assert c.summary is None
        bits = [c.bits_after for c in cps]
        assert all(a >= b for a, b in zip(bits, bits[1:]))
        assert cps[-1].bits_after == pytest.approx(report.bits_after)
        assert cps[-1].glyph_counts == report.glyph_counts

    def test_kept_summaries_reconstruct(self):
        g, _ = planted_graph(11, cliques=1, in_stars=1, out_stars=1,
                             size_range=(6, 9), noise=0.0)
        cfg = RunConfig(seed=11, checkpoints=(3, 10))
        _, report = run(g, cfg, keep_checkpoint_summaries=True)
        for c in report.checkpoints:
            assert c.summary is not None
            assert reconstruct(c.summary, compute_corrections(g, c.summary)) == g


class TestShuffledLabelEval:
    def test_single_label_graph_reports_actual_only(self):
        g, _ = planted_graph(1, cliques=1, in_stars=1, out_stars=0,
                             size_range=(6, 8), noise=0.0)
        out = shuffled_label_eval(g, RunConfig(shuffles=2))
        assert out["shuffled"] == []
        assert out["shuffled_mean"] is None
        assert out["normalized_gain"] is None
        assert "warning" in out
        assert out["actual"] > 0

    def test_two_label_graph_yields_gain(self):
        g = _two_label_graph()
        out = shuffled_label_eval(g, RunConfig(seed=3, shuffles=4))
        assert len(out["shuffled"]) == 4
        assert out["shuffled_mean"] == pytest.approx(
            sum(out["shuffled"]) / 4
        )
        assert out["normalized_gain"] == pytest.approx(
            normalized_gain(out["actual"], out["shuffled_mean"])
        )

    def test_deterministic_and_thread_invariant(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2}, raising=False)
        g = _two_label_graph()

        def evaluate(shuffles, threads=1):
            out = shuffled_label_eval(g, RunConfig(seed=3, shuffles=shuffles, threads=threads))
            _assert_no_child()
            return out

        assert evaluate(3) == evaluate(3) == evaluate(3, threads=2)
        # 5 labelings over 3 processes: shares of 2, 2 and 1
        assert evaluate(4) == evaluate(4, threads=3)

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_failing_share_raises_and_leaves_no_child(self, monkeypatch, failing):
        import lmgsum.summarize

        parent = os.getpid()
        real_merge = lmgsum.summarize._merge

        def merge(*args):
            in_child = os.getpid() != parent
            if in_child == (failing == "child"):
                raise RuntimeError("merge failed")
            if in_child:
                # a child the parent waited for instead of killing it
                time.sleep(60)
            return real_merge(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        monkeypatch.setattr(lmgsum.summarize, "_merge", merge)
        want = OSError if failing == "child" else RuntimeError
        t0 = time.monotonic()
        with pytest.raises(want, match="worker .* exited" if failing == "child" else "merge"):
            shuffled_label_eval(_two_label_graph(), RunConfig(seed=3, shuffles=3, threads=2))
        assert time.monotonic() - t0 < 30
        _assert_no_child()

    def test_one_usable_cpu_forks_nothing(self, monkeypatch):
        def no_fork():
            pytest.fail("forked with one usable CPU")

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0}, raising=False)
        monkeypatch.setattr(os, "fork", no_fork)
        out = shuffled_label_eval(_two_label_graph(), RunConfig(seed=3, shuffles=3, threads=8))
        assert len(out["shuffled"]) == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_candidate_sweep_for_every_labeling(
        self, monkeypatch, planted_multigraph, threads
    ):
        # the sweep reads no labels: the true labeling and both shuffles
        # merge one list of batches, and none of them computes corrections
        import lmgsum.summarize

        g = planted_multigraph(1)
        config = RunConfig(seed=1, shuffles=2, threads=threads)
        want_actual = run(g, config)[1].compression_ratio
        rng = np.random.default_rng(config.seed)
        want_shuffled = [
            run(_with_labels(g, g.labels[rng.permutation(g.n)]), config)[1].compression_ratio
            for _ in range(2)
        ]
        bands = []
        real_add_band = LshState.add_band

        def counting_add_band(state):
            bands.append(state.bands_added + 1)
            real_add_band(state)

        def no_corrections(*_args):
            raise AssertionError("eval-labels computed corrections")

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        monkeypatch.setattr(LshState, "add_band", counting_add_band)
        monkeypatch.setattr(lmgsum.summarize, "compute_corrections", no_corrections)
        out = shuffled_label_eval(g, config)
        assert bands == list(range(1, config.b_max + 1))
        assert out["actual"] == want_actual
        assert out["shuffled"] == want_shuffled
        assert len(set(want_shuffled + [want_actual])) > 1

    def test_rejects_zero_shuffles(self):
        g = _two_label_graph()
        with pytest.raises(ValueError):
            shuffled_label_eval(g, RunConfig(shuffles=0))

    def test_relabeled_graph_equals_rebuilt_one(self, planted_multigraph):
        g = planted_multigraph(0)
        source_labels = g.labels.copy()
        labels = g.labels[np.random.default_rng(0).permutation(g.n)]
        relabeled = _with_labels(g, labels)
        rebuilt = LabeledMultiGraph(
            g.n,
            {(u, w): m for u, w, m in g.edges()},
            labels.tolist(),
            label_names=g.label_names,
            node_names=g.node_names,
        )
        assert relabeled == rebuilt
        assert relabeled.label_names == rebuilt.label_names
        assert relabeled.node_names == rebuilt.node_names
        assert np.array_equal(g.labels, source_labels)
        assert not np.array_equal(g.labels, relabeled.labels)


class TestEdgeListCache:
    """The merge reads edges from Python lists that the graph converts on
    its first read, which relabeled copies share."""

    def test_run_without_candidates_converts_no_edges(self):
        g = kout_graph(0, 300, 4)
        report = run(g)[1]
        assert report.candidate_count == 0
        assert g._edge_lists == []

    def test_shuffled_labelings_read_one_cache(self, monkeypatch, planted_multigraph):
        g = planted_multigraph(1)
        reads = []
        real = LabeledMultiGraph.edge_lists

        def spy(graph, v):
            reads.append((id(graph), id(graph._edge_lists), bool(graph._edge_lists)))
            return real(graph, v)

        monkeypatch.setattr(LabeledMultiGraph, "edge_lists", spy)
        shuffled_label_eval(g, RunConfig(seed=1, shuffles=2, threads=1))
        # the true labeling and both shuffles, one cache, converted at the
        # first read only
        assert len({graph for graph, _, _ in reads}) == 3
        assert {cache for _, cache, _ in reads} == {id(g._edge_lists)}
        assert [full for _, _, full in reads].count(False) == 1


def _assert_no_child():
    """No child of this process is left running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_label_graph() -> LabeledMultiGraph:
    # two same-label cliques; shuffling labels splits them
    edges = {}
    for block in (range(0, 5), range(5, 10)):
        for u in block:
            for w in block:
                if u != w:
                    edges[(u, w)] = 2
    labels = [0] * 5 + [1] * 5 + [0, 1]
    return LabeledMultiGraph(12, edges, labels, label_names=["a", "b"])
