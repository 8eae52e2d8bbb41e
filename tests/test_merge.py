"""Tests for glyph decisions, representative multiplicities, super-edge

decisions, and incremental merge bookkeeping."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lmgsum as L
import lmgsum.merge as merge_module
from lmgsum.candidates import LshState, candidate_batches
from lmgsum.graph import LabeledMultiGraph
from lmgsum.merge import (
    MergeError,
    SummaryState,
    _bundle_choice,
    decide_glyph,
    decide_super_edge,
    representative_multiplicity,
    split_by_label,
)
from lmgsum.summary import (
    Glyph,
    SuperNode,
    node_context_bits,
    pair_context_bits,
    total_cost,
)
from lmgsum.synth import perfect_edges

from oracle import (
    oracle_best_glyph,
    oracle_decide_glyph,
    oracle_group_edges,
    oracle_rep_mult,
    oracle_score,
    oracle_total_cost,
)


def score(state: SummaryState, members: list[int]):
    """The proposal that merges ``members``, scored as a candidate's base."""
    return state._propose(state._extend(None, members))


def planted(glyph: Glyph, size: int, hub: int | None = None):
    members = tuple(range(size))
    edges = perfect_edges(glyph, members, hub)
    g = LabeledMultiGraph(size, edges)
    return g, members


class TestSplitByLabel:
    def test_splits_and_drops_singletons(self):
        g = LabeledMultiGraph(
            5, {(0, 1): 1}, [0, 0, 0, 1, 2], label_names=["r", "b", "g"]
        )
        assert split_by_label(g, [0, 1, 2, 3, 4]) == [[0, 1, 2]]
        assert split_by_label(g, [0, 3]) == []
        assert split_by_label(g, [0, 1]) == [[0, 1]]


class TestDecideGlyph:
    @pytest.mark.parametrize("size", range(2, 13))
    def test_perfect_clique(self, size):
        g, members = planted(Glyph.CLIQUE, size)
        glyph, hub = decide_glyph(g, members)
        assert glyph is Glyph.CLIQUE and hub is None

    @pytest.mark.parametrize("size", range(3, 13))
    @pytest.mark.parametrize("hub_pos", [0, -1])
    def test_perfect_in_star(self, size, hub_pos):
        hub = (size - 1) if hub_pos == -1 else 0
        g, members = planted(Glyph.IN_STAR, size, hub)
        glyph, got_hub = decide_glyph(g, members)
        assert glyph is Glyph.IN_STAR and got_hub == hub

    @pytest.mark.parametrize("size", range(3, 13))
    def test_perfect_out_star(self, size):
        g, members = planted(Glyph.OUT_STAR, size, 0)
        glyph, got_hub = decide_glyph(g, members)
        assert glyph is Glyph.OUT_STAR and got_hub == 0

    @pytest.mark.parametrize("size", range(2, 13))
    def test_disconnected(self, size):
        g, members = planted(Glyph.DISCONNECTED, size)
        glyph, hub = decide_glyph(g, members)
        assert glyph is Glyph.DISCONNECTED and hub is None

    def test_size_two_single_edge_is_a_star_on_the_head(self):
        # a single directed edge at size 2: in-star into its head and
        # out-star from its tail are the same structure; the decision
        # resolves the tie deterministically and must cover the edge
        g = LabeledMultiGraph(2, {(0, 1): 1})
        glyph, hub = decide_glyph(g, (0, 1))
        sn = SuperNode(id=0, label=0, glyph=glyph, members=(0, 1), hub=hub)
        assert glyph in (Glyph.IN_STAR, Glyph.OUT_STAR)
        assert set(sn.glyph_pairs()) == {(0, 1)}

    def test_size_two_both_edges_is_a_clique(self):
        g = LabeledMultiGraph(2, {(0, 1): 1, (1, 0): 1})
        glyph, hub = decide_glyph(g, (0, 1))
        assert glyph is Glyph.CLIQUE

    def test_threshold_reference_cases(self):
        # E_C = 12 >= 6 -> clique
        g, members = planted(Glyph.CLIQUE, 4)
        assert decide_glyph(g, members)[0] is Glyph.CLIQUE
        # in-star on 5: Cost_IN = 0 < E_C = 4
        g, members = planted(Glyph.IN_STAR, 5, 4)
        assert decide_glyph(g, members) == (Glyph.IN_STAR, 4)

    def test_hub_tie_smallest_id(self):
        # nodes 0 and 1 both have max in-degree 2; the hub tie breaks to 0
        g = LabeledMultiGraph(4, {(2, 0): 1, (3, 0): 1, (2, 1): 1, (3, 1): 1})
        glyph, hub = decide_glyph(g, (0, 1, 2, 3))
        assert glyph is Glyph.IN_STAR
        assert hub == 0

    def test_rejects_tiny_sets(self):
        g = LabeledMultiGraph(2, {(0, 1): 1})
        with pytest.raises(ValueError):
            decide_glyph(g, (0,))


@st.composite
def graph_and_members(draw):
    """A small one-label graph, self-loops and reciprocal edges allowed, and
    a member set of two or more of its nodes."""
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    loops = draw(st.lists(node, max_size=n))
    edges = {(u, w): 1 + (u * 3 + w) % 4 for u, w in pairs + [(v, v) for v in loops]}
    members = draw(st.lists(node, min_size=2, max_size=n, unique=True))
    return LabeledMultiGraph(n, edges), sorted(members)


class TestGlyphFromGatheredEdges:
    @given(graph_and_members())
    @settings(max_examples=300, deadline=None)
    def test_scored_glyph_equals_decide_glyph(self, case):
        # a proposal's glyph and hub come from the edges it gathered, with
        # self-loops among them; decide_glyph scans on its own
        g, members = case
        proposal = score(SummaryState(g), members)
        want = decide_glyph(g, members)
        assert (proposal.node.glyph, proposal.node.hub) == want
        assert want == oracle_decide_glyph(g, members)

    def test_ties_and_self_loops(self):
        # a 4-cycle with a self-loop on every node: all degrees tie at 1 and
        # no star pays; then two in-hubs tie at in-degree 2 and two out-hubs
        # at out-degree 2, and the in-star on the smaller hub wins both ties
        cycle = {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 0): 1}
        cycle.update({(v, v): 2 for v in range(4)})
        two_hubs = {(1, 0): 1, (2, 0): 1, (1, 3): 1, (2, 3): 1, (0, 0): 1}
        wants = []
        for edges in (cycle, two_hubs):
            g = LabeledMultiGraph(4, edges)
            members = [0, 1, 2, 3]
            p = score(SummaryState(g), members)
            want = oracle_decide_glyph(g, members)
            assert decide_glyph(g, members) == want == (p.node.glyph, p.node.hub)
            wants.append(want)
        assert wants == [(Glyph.DISCONNECTED, None), (Glyph.IN_STAR, 0)]


class TestRepresentativeMultiplicity:
    def test_frozen_values(self):
        assert representative_multiplicity([3, 3, 3]) == (3, 3.0)
        m, cost = representative_multiplicity([1, 1, 10])
        assert m == 1
        assert cost == pytest.approx(2 + 2 * math.log2(9) + 3, abs=1e-9)
        assert representative_multiplicity([5]) == (5, 1.0)

    @given(
        st.lists(st.integers(1, 1025), min_size=1, max_size=60)
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_within_scan_range(self, mults):
        m1, c1 = representative_multiplicity(mults)
        m2, c2 = oracle_rep_mult(mults)
        assert c1 == pytest.approx(c2, abs=1e-9)
        assert sum(L.ell_diff(x, m1) for x in mults) == pytest.approx(c2, abs=1e-9)

    def test_ties_pick_smallest(self):
        # [2, 4] costs the same at m=2,3,4: scan picks 2
        m, _ = representative_multiplicity([2, 4])
        m_o, _ = oracle_rep_mult([2, 4])
        assert m == m_o == 2

    def test_wide_range_stays_sane(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            mults = rng.integers(1, 10**6, size=10).tolist()
            m, cost = representative_multiplicity(mults)
            assert min(mults) <= m <= max(mults)
            for probe in (min(mults), max(mults)):
                probe_cost = sum(L.ell_diff(x, probe) for x in mults)
                assert cost <= probe_cost + 1e-9

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            representative_multiplicity([])

    @pytest.mark.parametrize("size, high", [(20_000, 1_000), (5_000, 10**6)])
    def test_memory_grows_with_distinct_values_not_edges(self, size, high):
        # the scan prices 1,000 candidates and the wide search ~1,800, so
        # one (candidate, edge) matrix would take 160 MB and 72 MB
        mults = np.random.default_rng(0).integers(1, high + 1, size).tolist()
        tracemalloc.start()
        try:
            representative_multiplicity(mults)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _bundle(src_members, dst_members, edges, src_glyph=Glyph.DISCONNECTED,
            dst_glyph=Glyph.DISCONNECTED, src_hub=None, dst_hub=None):
    src = SuperNode(id=0, label=0, glyph=src_glyph, members=src_members, hub=src_hub)
    dst = SuperNode(id=1, label=0, glyph=dst_glyph, members=dst_members, hub=dst_hub)
    return src, dst, edges


@st.composite
def super_node(draw, first: int, sid: int):
    """A star, clique, disconnected or singleton super-node whose members
    are consecutive ids from ``first``."""
    members = tuple(range(first, first + draw(st.integers(1, 4))))
    if len(members) == 1:
        return SuperNode(id=sid, label=0, glyph=Glyph.SINGLETON, members=members)
    glyph = draw(st.sampled_from(
        [Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR, Glyph.DISCONNECTED]
    ))
    hub = draw(st.sampled_from(members)) if glyph in (Glyph.IN_STAR, Glyph.OUT_STAR) else None
    return SuperNode(id=sid, label=0, glyph=glyph, members=members, hub=hub)


@st.composite
def bundles(draw):
    """Random super-nodes and a non-empty bundle of edges between them, with
    multiplicities narrow enough to repeat or wide enough to need the
    bisection of representative_multiplicity."""
    src = draw(super_node(0, 0))
    dst = draw(super_node(10, 1))
    pairs = [(u, w) for u in src.members for w in dst.members]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    mult = st.one_of(st.integers(1, 2), st.integers(1, 3000))
    return src, dst, [(u, w, draw(mult)) for u, w in chosen]


def near_variants(src, dst, edges):
    """The bundle; the same multiplicities on the same super-nodes' pairs in
    reverse order; and the bundle between the two member sets re-typed as
    disconnected, whose ports are all members.  So the memo sees bundles
    that share a region and multiplicities but differ in their cover flags
    or their expansion size."""
    pairs = [(u, w) for u in src.members for w in dst.members][::-1][: len(edges)]
    moved = [(u, w, m) for (u, w), (_u, _w, m) in zip(pairs, edges)]
    open_src, open_dst = (
        sn if sn.size == 1 else replace(sn, glyph=Glyph.DISCONNECTED, hub=None)
        for sn in (src, dst)
    )
    return [(src, dst, edges), (src, dst, moved), (open_src, open_dst, edges)]


class TestDecideSuperEdge:
    @given(st.lists(bundles(), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_memoized_decision_equals_decide_super_edge(self, cases):
        # one memo for every bundle, so a later bundle of an earlier one's
        # class is served from it; the second round is served entirely
        memo = {}
        cases = [variant for case in cases for variant in near_variants(*case)]
        for _round in range(2):
            for src, dst, edges in cases:
                got = _bundle_choice(memo, src, dst, set(src.ports()), set(dst.ports()), edges)
                assert got == decide_super_edge(src, dst, edges)

    @given(bundles(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_permuted_bundle_is_a_memo_hit_with_its_own_decision(self, case, data):
        # the key is the multiset of (cover flag, multiplicity) pairs, so a
        # reordered bundle is served the decision of the first order
        src, dst, edges = case
        shuffled = data.draw(st.permutations(edges))
        ports = set(src.ports()), set(dst.ports())
        memo = {}
        first = _bundle_choice(memo, src, dst, *ports, edges)
        assert _bundle_choice(memo, src, dst, *ports, shuffled) == first
        assert len(memo) == 1
        assert first == decide_super_edge(src, dst, shuffled)

    def test_score_passes_port_sets(self, monkeypatch):
        # a tuple of a large super-node's members would make each cover
        # test of the memo key a scan of that tuple
        seen = []
        real = merge_module._bundle_choice

        def spy(memo, src, dst, src_ports, dst_ports, edges):
            seen.append((type(src_ports), type(dst_ports)))
            return real(memo, src, dst, src_ports, dst_ports, edges)

        monkeypatch.setattr(merge_module, "_bundle_choice", spy)
        g, _ = L.planted_graph(1, 3, 3, 3, size_range=(5, 8), noise=0.05)
        L.run(g, L.RunConfig(seed=1))
        assert seen
        assert set(seen) == {(set, set)}

    @given(bundles(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bits_ignore_the_edge_order(self, case, data):
        # a context's bits are the correctly rounded sum of per-edge terms,
        # so they depend on its edge multiset, not on the order of the list
        src, dst, edges = case
        shuffled = data.draw(st.permutations(edges))
        rep = data.draw(st.integers(1, 3000))
        for r in (None, rep):
            assert pair_context_bits(src, dst, r, shuffled) == pair_context_bits(
                src, dst, r, edges
            )
        assert decide_super_edge(src, dst, shuffled) == decide_super_edge(src, dst, edges)
        sn = replace(src, self_loop=data.draw(st.booleans()), rep_mult=rep)
        pairs = [(u, w) for u in sn.members for w in sn.members]
        chosen = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))
        internal = [(u, w, data.draw(st.integers(1, 3000))) for u, w in chosen]
        reordered = data.draw(st.permutations(internal))
        assert node_context_bits(sn, reordered) == node_context_bits(sn, internal)

    def test_complete_uniform_bundle_gets_super_edge(self):
        edges = [(u, w, 2) for u in (0, 1) for w in (2, 3, 4)]
        rep, _bits = decide_super_edge(*_bundle((0, 1), (2, 3, 4), edges))
        assert rep == 2

    def test_single_edge_in_large_footprint_stays_correction(self):
        edges = [(0, 10, 1)]
        rep, _bits = decide_super_edge(
            *_bundle(tuple(range(10)), tuple(range(10, 20)), edges)
        )
        assert rep is None

    def test_empty_bundle(self):
        rep, bits = decide_super_edge(*_bundle((0, 1), (2, 3), []))
        assert rep is None and bits == 0.0

    def test_star_footprint_uses_hub_side(self):
        # edges toward an in-star land on its hub: footprint is 2x1
        edges = [(0, 4, 1), (1, 4, 1)]
        rep, _ = decide_super_edge(
            *_bundle((0, 1), (2, 3, 4), edges, dst_glyph=Glyph.IN_STAR, dst_hub=4)
        )
        assert rep == 1

    def test_frozen_two_by_three_example(self):
        # 4 edges of mult 2 in a 2x3 footprint: super-edge with rep 2 wins
        edges = [(0, 2, 2), (0, 3, 2), (1, 2, 2), (1, 4, 2)]
        rep, bits = decide_super_edge(*_bundle((0, 1), (2, 3, 4), edges))
        assert rep == 2
        # with: L_nat(2)=3 rep + neg bundle (2 of 6) + 4 equal flags
        expected_ctx = (
            L.cost_correction_set(2, 6) + 4 * 1.0
        )
        assert bits == pytest.approx(expected_ctx, abs=1e-9)


def apply_proposal(summary, p):
    """A copy of ``summary`` with proposal ``p`` applied, built without the
    state's bookkeeping."""
    nodes = {sid: sn for sid, sn in summary.super_nodes.items() if sid not in p.absorbed}
    nodes[p.node.id] = p.node
    edges = {k: m for k, m in summary.super_edges.items() if k not in p.dissolved}
    assert not any(a in p.absorbed or b in p.absorbed for a, b in edges)
    edges.update({(p.node.id, b): m for b, m in p.out_edges.items()})
    edges.update({(a, p.node.id): m for a, m in p.in_edges.items()})
    return replace(summary, super_nodes=nodes, super_edges=edges)


class TestSummaryState:
    def test_every_scored_proposal_prices_its_exact_delta(self, planted_multigraph):
        # committed or rejected, a proposal's dcost is the from-scratch
        # difference, and the super-edges it dissolves are all there are;
        # seed 4 dissolves super-edges both out of and into absorbed nodes
        scored = rejected = 0
        dissolved_sides = set()
        for seed in range(5):
            g = planted_multigraph(seed)
            state = SummaryState(g)
            for _b, batch in candidate_batches(LshState(g, seed=seed)):
                for cand in batch:
                    unmarked = [v for v in cand.nodes if state.is_unmarked(v)]
                    for subset in split_by_label(g, unmarked):
                        p = state.evaluate_proposal(subset)
                        if p is None:
                            continue
                        before = state.to_summary_graph()
                        after = apply_proposal(before, p)
                        want = oracle_total_cost(g, after) - oracle_total_cost(g, before)
                        assert p.dcost == pytest.approx(want, abs=1e-6)
                        scored += 1
                        dissolved_sides.update(a in p.absorbed for a, _b in p.dissolved)
                        if p.dcost >= 0:
                            rejected += 1
                            continue
                        state.commit(p)
                        # every super-edge has an edge of g under it
                        now = state.to_summary_graph()
                        assert set(now.super_edges) <= set(oracle_group_edges(g, now)[1])
        assert rejected and scored > rejected
        assert dissolved_sides == {True, False}

    def test_baseline_matches_oracle(self):
        for seed in range(4):
            g = L.random_graph(seed)
            state = SummaryState(g)
            want = oracle_total_cost(g, state.to_summary_graph())
            assert state.total_bits == pytest.approx(want, abs=1e-6)

    def test_every_commit_tracks_oracle(self):
        g, _ = L.planted_graph(seed=3, cliques=2, in_stars=2, out_stars=2)

        def audit(state, _p):
            summary = state.to_summary_graph()
            want = oracle_total_cost(state.g, summary)
            assert state.total_bits == pytest.approx(want, abs=1e-6)
            assert state.cost == total_cost(state.g, summary)

        summary, report = L.run(g, L.RunConfig(seed=3), audit=audit)
        assert report.commit_count > 0

    def test_changed_formula_reaches_both_cost_paths(self, monkeypatch):
        # SummaryState and total_cost share their bit formulas, so altering
        # one primitive must leave the running total equal to the
        # from-scratch cost, baseline and every commit included.
        import lmgsum.encoding as enc

        binomial, natural = enc.log2_binomial, enc.len_natural
        monkeypatch.setattr(enc, "log2_binomial", lambda n, k: 1.5 * binomial(n, k))
        monkeypatch.setattr(enc, "len_natural", lambda k: natural(k) + 0.25)
        g, _ = L.planted_graph(seed=3, cliques=2, in_stars=2, out_stars=2)

        def audit(state, _p):
            want = total_cost(state.g, state.to_summary_graph())
            assert state.total_bits == pytest.approx(want.total_bits, abs=1e-6)
            assert state.cost == want

        audit(SummaryState(g), None)
        _, report = L.run(g, L.RunConfig(seed=3), audit=audit)
        assert report.commit_count > 0

    def test_commit_rejects_non_negative(self):
        g = L.random_graph(1)
        state = SummaryState(g)
        p = state.evaluate_proposal([0, 1]) if int(g.labels[0]) == int(
            g.labels[1]
        ) else None
        if p is not None and p.dcost >= 0:
            with pytest.raises(MergeError):
                state.commit(p)

    def test_commit_rejects_stale_proposal(self):
        g, groups = L.planted_graph(seed=5, cliques=2, in_stars=0, out_stars=0)
        state = SummaryState(g)
        p1 = state.evaluate_proposal(list(groups[0].members))
        p2 = state.evaluate_proposal(list(groups[1].members))
        assert p1.dcost < 0 and p2.dcost < 0
        state.commit(p1)
        with pytest.raises(MergeError, match="stale"):
            state.commit(p2)

    def test_absorbed_nodes_are_filtered_out(self):
        g, groups = L.planted_graph(seed=5, cliques=2, in_stars=0, out_stars=0)
        state = SummaryState(g)
        a = list(groups[0].members)
        state.commit(state.evaluate_proposal(a))
        # re-evaluating the same nodes finds nothing left to merge
        assert state.evaluate_proposal(a) is None
        mixed = a + list(groups[1].members)
        p = state.evaluate_proposal(mixed)
        assert p is not None
        assert set(p.node.members) == set(groups[1].members)

    def test_label_split_inside_process_candidate(self):
        edges = perfect_edges(Glyph.CLIQUE, (0, 1, 2, 3))
        edges.update(perfect_edges(Glyph.CLIQUE, (4, 5, 6, 7)))
        g = LabeledMultiGraph(
            8, edges, [0, 0, 0, 0, 1, 1, 1, 1], label_names=["r", "b"]
        )
        state = SummaryState(g)
        committed = state.process_candidate(list(range(8)))
        assert len(committed) == 2
        glyphs = {p.node.glyph for p in committed}
        assert glyphs == {Glyph.CLIQUE}
        labels = {p.node.label for p in committed}
        assert labels == {0, 1}

    def test_hub_absorption_recovers_star_from_spokes(self):
        g, members = planted(Glyph.IN_STAR, 8, 7)
        spokes = [v for v in members if v != 7]
        state = SummaryState(g)
        p = state.evaluate_proposal(spokes)
        assert p.node.glyph is Glyph.IN_STAR
        assert p.node.hub == 7
        assert set(p.node.members) == set(members)
        state.commit(p)
        assert state.total_bits == pytest.approx(
            oracle_total_cost(g, state.to_summary_graph()), abs=1e-6
        )

def assert_same_proposal(p, want):
    """``p`` equals the from-scratch ``want`` in every field a commit reads,
    and in its terms as multisets."""
    assert p.dcost == want.dcost
    assert p.width == want.width
    assert sorted(p.d_summary) == sorted(want.d_summary)
    assert sorted(p.d_correction) == sorted(want.d_correction)
    assert p.odeg_delta == want.odeg_delta
    assert p.absorbed == want.absorbed
    assert set(p.dissolved) == set(want.dissolved)
    assert len(p.dissolved) == len(want.dissolved)
    # the order of the new super-edges is the order a commit stores them in
    assert list(p.out_edges.items()) == list(want.out_edges.items())
    assert list(p.in_edges.items()) == list(want.in_edges.items())
    assert p.node == want.node


class ExtensionCheck:
    """Checks every proposal the state prices, bases and hub variants
    alike, against the reference's from-scratch score of the same members,
    and tallies what it saw."""

    def __init__(self, monkeypatch):
        self.priced = self.variants = self.variant_wins = 0
        self.dissolved_sides: set[bool] = set()
        propose, evaluate = SummaryState._propose, SummaryState.evaluate_proposal

        def checked_propose(state, part):
            p = propose(state, part)
            assert_same_proposal(p, oracle_score(state, part.members))
            self.priced += 1
            self.dissolved_sides.update(a in p.absorbed for a, _b in p.dissolved)
            return p

        def counted_evaluate(state, nodes):
            before = self.priced
            p = evaluate(state, nodes)
            if self.priced - before > 1:
                self.variants += self.priced - before - 1
                self.variant_wins += p.node.size > len(
                    [v for v in set(nodes) if state.is_unmarked(v)]
                )
            return p

        monkeypatch.setattr(SummaryState, "_propose", checked_propose)
        monkeypatch.setattr(SummaryState, "evaluate_proposal", counted_evaluate)


@st.composite
def star_multigraphs(draw):
    """A two-label graph with multiplicities and self-loops around one to
    three planted stars, and a list of candidate node sets.  The first
    star's nodes share a label and the first candidate is its spokes, so
    that candidate's base is disconnected and its hub is a variant."""
    n = draw(st.integers(5, 14))
    node = st.integers(0, n - 1)
    mult = st.integers(1, 5)
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    edges: dict[tuple[int, int], int] = {}
    stars = []
    for _ in range(draw(st.integers(1, 3))):
        hub = draw(node)
        spokes = draw(st.lists(node.filter(lambda v: v != hub), min_size=2, max_size=6, unique=True))
        inward = draw(st.booleans())
        for v in spokes:
            edges[(v, hub) if inward else (hub, v)] = draw(mult)
        stars.append((hub, spokes))
    for u, w in draw(st.lists(st.tuples(node, node), max_size=20)) + [
        (v, v) for v in draw(st.lists(node, max_size=n))
    ]:
        edges[(u, w)] = draw(mult)
    hub, spokes = stars[0]
    for v in [hub, *spokes]:
        labels[v] = 0
    candidates = [spokes] + draw(
        st.lists(st.lists(node, min_size=2, max_size=n, unique=True), max_size=8)
    )
    return LabeledMultiGraph(n, edges, labels, label_names=["red", "blue"]), candidates


class TestExtendedProposals:
    """A candidate's base proposal extends the empty one, and each hub
    variant extends the base; each must equal the from-scratch score."""

    def test_every_proposal_of_a_run_equals_the_reference(
        self, planted_multigraph, monkeypatch
    ):
        check = ExtensionCheck(monkeypatch)
        for seed in range(5):
            L.run(planted_multigraph(seed), L.RunConfig(seed=seed))
        assert check.variants and check.variant_wins
        assert check.priced > check.variants
        # seed 4 dissolves super-edges both out of and into absorbed nodes
        assert check.dissolved_sides == {True, False}

    @given(star_multigraphs())
    @settings(max_examples=150, deadline=None)
    def test_candidates_on_random_multigraphs(self, case):
        g, candidates = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            check = ExtensionCheck(monkeypatch)
            state = SummaryState(g)
            for nodes in candidates:
                state.process_candidate(nodes)
        assert check.priced
        assert state.total_bits == pytest.approx(oracle_total_cost(g, state.to_summary_graph()))


class TestOrderSwap:
    def test_disjoint_candidates_same_final_summary(self):
        g, groups = L.planted_graph(seed=9, cliques=2, in_stars=1, out_stars=1)
        cands = [list(gr.members) for gr in groups]

        def signature(order):
            state = SummaryState(g)
            for nodes in order:
                state.process_candidate(nodes)
            s = state.to_summary_graph()
            return (
                round(state.total_bits, 6),
                sorted(
                    (sn.glyph.value, sn.members, sn.hub, sn.rep_mult)
                    for sn in s.super_nodes.values()
                ),
            )

        assert signature(cands) == signature(list(reversed(cands)))


class TestGlyphOracleAgreement:
    def test_oracle_picks_perfect_structures(self):
        g, members = planted(Glyph.CLIQUE, 5)
        assert oracle_best_glyph(g, members) == (Glyph.CLIQUE, None)
        g, members = planted(Glyph.OUT_STAR, 6, hub=2)
        assert oracle_best_glyph(g, members) == (Glyph.OUT_STAR, 2)
        g, members = planted(Glyph.IN_STAR, 4, hub=0)
        assert oracle_best_glyph(g, members) == (Glyph.IN_STAR, 0)

    def test_oracle_rejects_oversized_sets(self):
        g = LabeledMultiGraph(13, {(0, 1): 1})
        with pytest.raises(ValueError):
            oracle_best_glyph(g, range(13))

    def test_proxy_agrees_with_oracle_on_perturbed_structures(self):
        """The cheap degree-count decision matches the exact-bits argmin on
        at least 90% of randomly perturbed structure instances."""
        glyphs = (Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR,
                  Glyph.DISCONNECTED)
        rng = np.random.default_rng(0)
        agree = total = 0
        for _ in range(400):
            k = int(rng.integers(3, 13))
            glyph = glyphs[int(rng.integers(0, 4))]
            members = tuple(range(k))
            hub = (
                int(rng.integers(0, k))
                if glyph in (Glyph.IN_STAR, Glyph.OUT_STAR)
                else None
            )
            edges = dict(perfect_edges(glyph, members, hub))
            for _flip in range(int(rng.integers(0, 3))):
                u, w = int(rng.integers(0, k)), int(rng.integers(0, k))
                if u == w:
                    continue
                if (u, w) in edges:
                    del edges[(u, w)]
                else:
                    edges[(u, w)] = 1
            if not edges:
                edges[(0, 1)] = 1
            g = LabeledMultiGraph(k, edges)
            got, _ = decide_glyph(g, members)
            want, _ = oracle_best_glyph(g, members)
            total += 1
            agree += got is want
        assert agree / total >= 0.90
