"""Tests for summary structure, decompression, corrections, and costs."""

import json

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import lmgsum as L
from lmgsum.graph import LabeledMultiGraph
from lmgsum.summary import (
    STAR_GLYPHS,
    _EdgeGroups,
    CorrectionSet,
    Glyph,
    SummaryGraph,
    SuperNode,
    all_singleton_summary,
    compute_corrections,
    context_bits,
    corrections_from_dict,
    corrections_to_dict,
    export_dot,
    reconstruct,
    sorted_distinct,
    summary_from_dict,
    summary_to_dict,
    total_cost,
)
from lmgsum.synth import planted_graph

from oracle import (
    node_to_super,
    oracle_compute_corrections,
    oracle_context_bits,
    oracle_reconstruct,
    oracle_total_cost,
    oracle_total_cost_exact,
)


class TestSuperNode:
    def test_validation(self):
        with pytest.raises(ValueError):
            SuperNode(id=0, label=0, glyph=Glyph.CLIQUE, members=())
        with pytest.raises(ValueError):
            SuperNode(id=0, label=0, glyph=Glyph.IN_STAR, members=(1, 2))
        with pytest.raises(ValueError):
            SuperNode(id=0, label=0, glyph=Glyph.IN_STAR, members=(1, 2), hub=5)
        with pytest.raises(ValueError):
            SuperNode(id=0, label=0, glyph=Glyph.SINGLETON, members=(1, 2))
        with pytest.raises(ValueError):
            SuperNode(id=0, label=0, glyph=Glyph.CLIQUE, members=(1,), rep_mult=0)

    def test_members_sorted(self):
        sn = SuperNode(id=0, label=0, glyph=Glyph.CLIQUE, members=(3, 1, 2))
        assert sn.members == (1, 2, 3)

    def test_glyph_pairs(self):
        clique = SuperNode(id=0, label=0, glyph=Glyph.CLIQUE, members=(1, 2, 3))
        assert set(clique.glyph_pairs()) == {
            (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)
        }
        assert clique.glyph_pair_count() == 6
        instar = SuperNode(
            id=0, label=0, glyph=Glyph.IN_STAR, members=(1, 2, 3), hub=2
        )
        assert set(instar.glyph_pairs()) == {(1, 2), (3, 2)}
        assert instar.ports() == (2,)
        outstar = SuperNode(
            id=0, label=0, glyph=Glyph.OUT_STAR, members=(1, 2, 3), hub=1
        )
        assert set(outstar.glyph_pairs()) == {(1, 2), (1, 3)}
        disc = SuperNode(id=0, label=0, glyph=Glyph.DISCONNECTED, members=(4, 5))
        assert list(disc.glyph_pairs()) == []
        assert disc.ports() == (4, 5)

    def test_covers_pair_self_loop(self):
        sn = SuperNode(
            id=0, label=0, glyph=Glyph.DISCONNECTED, members=(1, 2), self_loop=True
        )
        assert sn.covers_pair(1, 1) and sn.covers_pair(2, 2)
        assert not sn.covers_pair(1, 2)


@st.composite
def context_classes(draw):
    """A context's class, :func:`context_bits`'s arguments: often no
    expansion or no covered edge, and multiplicities up to 2^63 - 1."""
    region = draw(st.integers(1, 10**6))
    x_size = draw(st.one_of(st.just(0), st.integers(0, region)))
    mult = st.one_of(st.integers(1, 3), st.integers(1, 2**63 - 1))
    covered = draw(st.lists(mult, max_size=min(x_size, 8)))
    free = draw(st.lists(mult, max_size=min(region - x_size, 8)))
    return region, x_size, draw(mult), covered, free


class TestContextBits:
    @given(context_classes(), st.data())
    @settings(max_examples=300, deadline=None)
    @example((1, 0, 1, [], []), None)
    @example((4, 4, 2**63 - 1, [1, 2**63 - 1, 2**63 - 1], []), None)
    @example((10**6, 3, 5, [], [2**63 - 1] * 8), None)
    def test_equals_the_per_term_price_in_any_order(self, case, data):
        region, x_size, rep, covered, free = case
        event("no expansion" if x_size == 0 else "no covered edge" if not covered else "covered")
        bits = context_bits(*case)
        # log binomials from lgamma against exact ones from math.comb
        assert bits == pytest.approx(oracle_context_bits(*case), rel=1e-12, abs=1e-6)
        if data is not None:
            covered, free = data.draw(st.permutations(covered)), data.draw(st.permutations(free))
            assert context_bits(region, x_size, rep, covered, free) == bits
        if not covered:
            assert context_bits(region, x_size, None, covered, free) == bits


class TestValidate:
    def test_partition_enforced(self):
        s = SummaryGraph(graph_size=2, label_count=1)
        s.super_nodes[0] = SuperNode(id=0, label=0, glyph=Glyph.SINGLETON, members=(0,))
        with pytest.raises(ValueError, match="cover"):
            s.validate()
        s.super_nodes[1] = SuperNode(id=1, label=0, glyph=Glyph.SINGLETON, members=(0,))
        with pytest.raises(ValueError, match="two super-nodes"):
            s.validate()

    def test_super_edge_endpoints(self):
        s = SummaryGraph(graph_size=1, label_count=1)
        s.super_nodes[0] = SuperNode(id=0, label=0, glyph=Glyph.SINGLETON, members=(0,))
        s.super_edges[(0, 0)] = 1
        with pytest.raises(ValueError, match="differ"):
            s.validate()


def _random_summary(draw, g):
    """A structurally valid random summary for g (labels respected)."""
    by_label: dict[int, list[int]] = {}
    for v in range(g.n):
        by_label.setdefault(int(g.labels[v]), []).append(v)
    s = SummaryGraph(
        graph_size=g.n,
        label_count=g.label_count,
        label_names=tuple(g.label_names),
        node_names=tuple(g.node_names),
    )
    sid = 0
    for label, nodes in sorted(by_label.items()):
        remaining = list(nodes)
        while remaining:
            take = draw(st.integers(1, min(4, len(remaining))))
            members = tuple(remaining[:take])
            remaining = remaining[take:]
            if len(members) == 1:
                glyph, hub = Glyph.SINGLETON, None
            else:
                glyph = draw(
                    st.sampled_from(
                        [Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR, Glyph.DISCONNECTED]
                    )
                )
                hub = members[0] if glyph in (Glyph.IN_STAR, Glyph.OUT_STAR) else None
            s.super_nodes[sid] = SuperNode(
                id=sid,
                label=label,
                glyph=glyph,
                members=members,
                hub=hub,
                rep_mult=draw(st.integers(1, 4)),
                self_loop=draw(st.booleans()),
            )
            sid += 1
    ids = sorted(s.super_nodes)
    for a in ids:
        for b in ids:
            if a != b and draw(st.integers(0, 9)) == 0:
                s.super_edges[(a, b)] = draw(st.integers(1, 3))
    s.validate(g)
    return s


@st.composite
def graph_and_summary(draw):
    n = draw(st.integers(2, 14))
    labels = [draw(st.integers(0, 1)) for _ in range(n)]
    edges = {}
    for _ in range(draw(st.integers(0, 25))):
        u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges[(u, w)] = draw(st.integers(1, 6))
    g = LabeledMultiGraph(n, edges, labels, label_names=["x", "y"])
    return g, _random_summary(draw, g)


@st.composite
def grouping_cases(draw):
    """A small graph with self-loops and multiplicities, and a random valid
    summary of it.

    The summary uses every glyph (one-member super-nodes included), drawn
    star hubs, self-loop flags and representative multiplicities above 1.
    Its ids are sparse and inserted out of order, so the summary's order,
    id order and rank order all differ.  Super-edges land on pairs with
    edges underneath and on empty pairs; groups of up to five members make
    unlinked pair contexts with several edges.
    """
    n = draw(st.integers(1, 12))
    labels = [draw(st.integers(0, 1)) for _ in range(n)]
    edges = {}
    for _ in range(draw(st.integers(0, 40))):
        u, w = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        edges[(u, w)] = draw(st.sampled_from([1, 1, 2, 3, 9]))
    g = LabeledMultiGraph(n, edges, labels, label_names=["x", "y"])

    groups = []
    for label in (0, 1):
        nodes = draw(st.permutations([v for v in range(n) if labels[v] == label]))
        while nodes:
            take = draw(st.integers(1, min(5, len(nodes))))
            groups.append((label, nodes[:take]))
            nodes = nodes[take:]
    ids = [3 * i + 5 for i in draw(st.permutations(range(len(groups))))]
    s = SummaryGraph(
        graph_size=n,
        label_count=2,
        label_names=("x", "y"),
        node_names=tuple(g.node_names),
    )
    for vid, (label, members) in zip(ids, groups):
        glyphs = list(Glyph) if len(members) == 1 else [
            gl for gl in Glyph if gl is not Glyph.SINGLETON
        ]
        glyph = draw(st.sampled_from(glyphs))
        s.super_nodes[vid] = SuperNode(
            id=vid,
            label=label,
            glyph=glyph,
            members=tuple(members),
            hub=draw(st.sampled_from(members)) if glyph in STAR_GLYPHS else None,
            rep_mult=draw(st.integers(1, 4)),
            self_loop=draw(st.booleans()),
        )
    assign = node_to_super(s)
    carrying = sorted({(assign[u], assign[w]) for u, w, _ in g.edges()
                       if assign[u] != assign[w]})
    for pair in carrying:
        if draw(st.booleans()):
            s.super_edges[pair] = draw(st.integers(1, 4))
    for a in ids:
        for b in ids:
            if a != b and (a, b) not in carrying and draw(st.integers(0, 7)) == 0:
                s.super_edges[(a, b)] = draw(st.integers(1, 4))
    s.validate(g)
    return g, s


@settings(max_examples=80, deadline=None)
@given(graph_and_summary())
def test_singletons_equal_dataclass_built_ones(case):
    g, _summary = case
    loops = {u: m for u, w, m in g.edges() if u == w}
    event(f"self-loops: {bool(loops)}")
    built = {
        v: SuperNode(
            id=v, label=int(g.labels[v]), glyph=Glyph.SINGLETON, members=(v,),
            rep_mult=loops.get(v, 1), self_loop=v in loops,
        )
        for v in range(g.n)
    }
    fast = all_singleton_summary(g).super_nodes
    assert fast == built
    # the same fields, in the same order, holding the same types
    assert [repr(vars(node)) for node in fast.values()] == [
        repr(vars(node)) for node in built.values()
    ]


class TestEdgeGrouping:
    """The array grouping against the per-edge references, exactly."""

    @given(grouping_cases())
    @settings(max_examples=150, deadline=None)
    def test_corrections_match_reference_in_order(self, case):
        g, s = case
        # the reference walks the contexts; each kind comes out in (u, w) order
        got, want = compute_corrections(g, s), oracle_compute_corrections(g, s)
        for kind in ("positive", "negative", "mult_deltas"):
            assert getattr(got, kind).tolist() == sorted(getattr(want, kind).tolist())

    @given(grouping_cases())
    @settings(max_examples=150, deadline=None)
    def test_cost_matches_reference_bit_for_bit(self, case):
        g, s = case
        assert total_cost(g, s) == oracle_total_cost_exact(g, s)

    @pytest.mark.parametrize(
        "super_edges, cross",
        [({}, True), ({(4, 2): 1}, False), ({}, False), ({(4, 2): 1, (3, 4): 3}, True)],
        ids=["no-super-edges", "no-cross-edges", "neither", "both"],
    )
    def test_pair_keys_when_a_side_is_empty(self, super_edges, cross):
        # nodes 0 and 1 form super-node 4; 2 and 3 are singletons
        edges = {(0, 1): 1, (1, 0): 2}
        if cross:
            edges.update({(0, 2): 1, (3, 1): 2})
        g = LabeledMultiGraph(4, edges)
        s = all_singleton_summary(g)
        del s.super_nodes[0], s.super_nodes[1]
        s.super_nodes[4] = SuperNode(id=4, label=0, glyph=Glyph.CLIQUE, members=(0, 1))
        s.super_edges = dict(super_edges)
        groups = _EdgeGroups(g, s)
        assert (len(groups.x_key) > 0) == cross and len(groups.linked_keys) == len(super_edges)
        assert total_cost(g, s) == oracle_total_cost_exact(g, s)


#: pair keys: small ones collide often, large ones reach int64's top
_keys = st.lists(st.integers(0, 40) | st.integers(0, 2**63 - 1), max_size=40)


class TestArraySets:
    """The numpy.ma-free set helper against the NumPy function it replaces."""

    @given(_keys)
    @example([])
    @settings(max_examples=100, deadline=None)
    def test_sorted_distinct_is_unique(self, values):
        a = np.array(values, dtype=np.int64)
        got = sorted_distinct(a)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(a))


class TestRoundTrip:
    def test_all_singleton_baseline(self):
        g = L.random_graph(3)
        s = all_singleton_summary(g)
        s.validate(g)
        cor = compute_corrections(g, s)
        assert reconstruct(s, cor) == g
        base = reconstruct(s, CorrectionSet())
        # baseline expands to self-loops only
        assert all(u == w for u, w, _ in base.edges())

    @given(graph_and_summary())
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_summary_round_trips(self, gs):
        g, s = gs
        cor = compute_corrections(g, s)
        assert reconstruct(s, cor) == g

    @given(graph_and_summary())
    @settings(max_examples=60, deadline=None)
    def test_cost_matches_oracle(self, gs):
        g, s = gs
        assert total_cost(g, s).total_bits == pytest.approx(
            oracle_total_cost(g, s), abs=1e-8
        )

    @given(graph_and_summary(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_reconstruct_agrees_with_the_oracle(self, gs, data):
        # the exact corrections, then a few edits that may contradict the
        # summary: rows dropped, repeated, or added on any pair
        g, s = gs
        kinds = ("positive", "negative", "mult_deltas")
        rows_of = {kind: getattr(compute_corrections(g, s), kind).tolist() for kind in kinds}
        pairs = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
        for _ in range(data.draw(st.integers(0, 3))):
            kind = data.draw(st.sampled_from(kinds))
            rows = rows_of[kind]
            edit = data.draw(st.sampled_from(["drop", "repeat", "add"]))
            if edit == "add":
                u, w = data.draw(pairs)
                rows.append([u, w] if kind == "negative" else [u, w, data.draw(st.integers(-3, 3))])
            elif rows:
                row = data.draw(st.sampled_from(rows))
                if edit == "drop":
                    rows.remove(row)
                else:
                    rows.append(row)
        cor = CorrectionSet(**rows_of)
        try:
            expected = oracle_reconstruct(s, cor)
        except ValueError:
            event("the oracle rejects the corrections")
            with pytest.raises(ValueError):
                reconstruct(s, cor)
            return
        got = reconstruct(s, cor)
        assert got == expected
        assert (got.node_names, got.label_names) == (expected.node_names, expected.label_names)

    def test_reconstruct_rejects_inconsistent_corrections(self):
        g = L.random_graph(5)
        s = all_singleton_summary(g)
        cor = compute_corrections(g, s)
        bogus = CorrectionSet(positive=cor.positive, negative=[(0, 1)], mult_deltas=cor.mult_deltas)
        with pytest.raises(ValueError):
            reconstruct(s, bogus)

    def test_corrections_need_the_summarys_graph_size(self):
        # edge keys u * n + w of a larger graph would collide
        g = L.random_graph(5)
        bigger = LabeledMultiGraph(g.n + 1, {(g.n, 0): 1})
        with pytest.raises(ValueError, match="nodes"):
            compute_corrections(bigger, all_singleton_summary(g))


class TestCorrectionSet:
    """Rows in any form become int64 arrays of the kind's width, once."""

    def test_rows_of_any_form_become_int64_arrays(self):
        arrays = CorrectionSet(
            positive=np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int32),
            negative=np.array([[6, 7]], dtype=np.uint8),
        )
        for cor in (arrays, CorrectionSet([(0, 1, 2), (3, 4, 5)], [(6, 7)]),
                    CorrectionSet([[0, 1, 2], [3, 4, 5]], [[6, 7]], [])):
            shapes = {k: (v.dtype, v.shape) for k, v in vars(cor).items()}
            assert shapes == {"positive": (np.int64, (2, 3)), "negative": (np.int64, (1, 2)),
                              "mult_deltas": (np.int64, (0, 3))}
            assert cor.positive.tolist() == [[0, 1, 2], [3, 4, 5]]
            assert cor.counts() == {"positive": 2, "negative": 1, "mult_deltas": 0}

    @pytest.mark.parametrize(
        "kind, rows",
        [("positive", [(0, 1)]), ("negative", [(0, 1, 2)]), ("mult_deltas", [(0, 1, 2), (0, 1)]),
         ("negative", np.zeros((0, 3), dtype=np.int64)), ("positive", [0, 1, 2])],
        ids=["short", "long", "ragged", "empty-of-another-width", "flat"],
    )
    def test_a_wrong_width_names_its_kind(self, kind, rows):
        with pytest.raises(ValueError, match=f"^{kind}: "):
            CorrectionSet(**{kind: rows})

    @pytest.mark.parametrize(
        "kind, rows",
        [("positive", [(0, 1, 2**63)]), ("mult_deltas", [(0, 1, -(2**63) - 1)]),
         ("mult_deltas", [(0, 1, 2**64)]), ("positive", np.array([[0, 1, 2**63]], dtype=np.uint64)),
         ("negative", [(0.0, 1.5)])],
        ids=["above", "below", "beyond-uint64", "uint64-array", "floats"],
    )
    def test_a_value_outside_int64_names_its_kind(self, kind, rows):
        with pytest.raises(ValueError, match=f"^{kind}: values that are not integers within int64"):
            CorrectionSet(**{kind: rows})

    def test_equality_compares_contents(self):
        cor = CorrectionSet([(0, 1, 2), (3, 4, 5)], [(6, 7)], [(0, 1, -1)])
        assert cor == CorrectionSet(cor.positive.copy(), [[6, 7]], np.array([[0, 1, -1]]))
        assert cor != CorrectionSet(cor.positive, [(6, 7)], [(0, 1, 1)])
        assert cor != CorrectionSet(cor.positive[:1], [(6, 7)], [(0, 1, -1)])
        assert CorrectionSet() == CorrectionSet([], (), np.zeros((0, 3), dtype=np.int64))
        assert cor != cor.counts()

    def test_reconstruct_rejects_node_indices_outside_the_graph(self):
        g = L.random_graph(5)
        s = all_singleton_summary(g)
        for kind, row in (("positive", (-1, 0, 1)), ("negative", (0, g.n)),
                          ("mult_deltas", (g.n, 0, 1))):
            with pytest.raises(ValueError, match=f"is not a node index below {g.n}$"):
                reconstruct(s, CorrectionSet(**{kind: [row]}))


class TestGolden:
    def test_toy_matches_frozen_oracle_value(self, toy, toy_golden):
        g, s = toy
        got = total_cost(g, s)
        assert got.total_bits == pytest.approx(
            toy_golden["oracle_total_bits"], abs=1e-9
        )
        assert oracle_total_cost(g, s) == pytest.approx(
            toy_golden["oracle_total_bits"], abs=1e-9
        )
        cor = compute_corrections(g, s)
        assert cor.counts() == toy_golden["correction_counts"]
        assert reconstruct(s, cor) == g

    def test_planted_benchmark_baseline_matches_frozen_oracle_value(
        self, planted_golden
    ):
        g, groups = planted_graph(
            planted_golden["seed"], cliques=5, in_stars=5, out_stars=5,
            size_range=(10, 20), noise=0.05,
        )
        assert g.n == planted_golden["nodes"]
        assert g.edge_count == planted_golden["distinct_edges"]
        assert len(groups) == planted_golden["planted_groups"]
        baseline = all_singleton_summary(g)
        assert total_cost(g, baseline).total_bits == pytest.approx(
            planted_golden["oracle_baseline_bits"], abs=1e-6
        )
        assert oracle_total_cost(g, baseline) == pytest.approx(
            planted_golden["oracle_baseline_bits"], abs=1e-6
        )


class TestSerialization:
    def test_summary_dict_round_trip(self, toy):
        g, s = toy
        data = summary_to_dict(g, s)
        back = summary_from_dict(json.loads(json.dumps(data)))
        assert back.graph_size == s.graph_size
        assert set(back.super_nodes) == set(s.super_nodes)
        for sid, sn in s.super_nodes.items():
            bn = back.super_nodes[sid]
            assert (bn.glyph, bn.members, bn.hub, bn.rep_mult, bn.self_loop) == (
                sn.glyph, sn.members, sn.hub, sn.rep_mult, sn.self_loop
            )
        assert back.super_edges == s.super_edges

    def test_corrections_dict_round_trip(self, toy):
        g, s = toy
        cor = compute_corrections(g, s)
        data = corrections_to_dict(s, cor)
        back = corrections_from_dict(s, json.loads(json.dumps(data)))
        assert back == cor

    def test_corrections_round_trip_without_node_names(self):
        # node indices are bounded by the graph size, which a summary built
        # without node names has too
        g = L.random_graph(5)
        s = all_singleton_summary(g)
        s.node_names = ()
        cor = compute_corrections(g, s)
        data = json.loads(json.dumps(corrections_to_dict(s, cor)))
        back = corrections_from_dict(s, data)
        assert back == cor
        assert list(reconstruct(s, back).edges()) == list(g.edges())
        data["negative"] = [[0], [g.n]]
        with pytest.raises(ValueError, match=f"^dst of negative correction 0: {g.n} is not "):
            corrections_from_dict(s, data)

    def test_export_dot_shape_map(self, toy):
        g, s = toy
        dot = export_dot(s)
        assert dot.startswith("digraph")
        assert dot.count("{") == dot.count("}")
        assert "shape=square" in dot  # clique
        assert "shape=triangle" in dot  # in-star
        assert "shape=circle" in dot  # singletons
        assert 'label="red|4|2"' in dot
        # deterministic
        assert dot == export_dot(s)

    def test_export_dot_escapes_label_names(self):
        # a backslash before N would be Graphviz's node-name escape, and a
        # bare quote would end the label
        s = SummaryGraph(graph_size=2, label_count=2, label_names=('say "hi"', "a\\N"))
        s.super_nodes = {v: SuperNode(id=v, label=v, glyph=Glyph.SINGLETON, members=(v,))
                         for v in range(2)}
        dot = export_dot(s)
        assert 'label="say \\"hi\\"|1|1"' in dot
        assert 'label="a\\\\N|1|1"' in dot
