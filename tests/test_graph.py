"""Tests for the multi-graph container, file loader, and induced stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmgsum.graph import (
    DEFAULT_LABEL,
    GraphFormatError,
    LabeledMultiGraph,
    induced_edge_stats,
    load_graph,
)


def small_graph():
    edges = {(0, 1): 2, (1, 0): 1, (1, 2): 3, (2, 2): 4, (0, 2): 1}
    return LabeledMultiGraph(3, edges, [0, 1, 0], label_names=["a", "b"])


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    n_edges = draw(st.integers(min_value=0, max_value=30))
    edges = {}
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, n - 1))
        m = draw(st.integers(1, 9))
        edges[(u, w)] = m
    return LabeledMultiGraph(n, edges)


@st.composite
def graphs_with_loop_and_isolated_node(draw):
    """Node n - 1 is isolated and at least one other node has a self-loop."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = {}
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        u = draw(st.integers(0, n - 2))
        w = draw(st.integers(0, n - 2))
        edges[(u, w)] = draw(st.integers(1, 9))
    loop = draw(st.integers(0, n - 2))
    edges[(loop, loop)] = draw(st.integers(1, 9))
    return LabeledMultiGraph(n, edges)


class TestContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            LabeledMultiGraph(0, {})
        with pytest.raises(ValueError):
            LabeledMultiGraph(2, {(0, 5): 1})
        with pytest.raises(ValueError):
            LabeledMultiGraph(2, {(0, 1): 0})
        with pytest.raises(ValueError):
            LabeledMultiGraph(2, {(0, 1): 1}, labels=[0])
        with pytest.raises(ValueError):
            LabeledMultiGraph(2, {(0, 1): 1}, labels=[0, 7])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({(0, 1): 1, (0, 5): 1}, "edge (0, 5) out of node range"),
            ({(-1, 0): 1}, "edge (-1, 0) out of node range"),
            ({(0, 1): 0}, "edge (0, 1) has multiplicity 0 < 1"),
            # the first invalid edge in the dict's order is the one named
            ({(1, 0): -3, (0, 9): 1}, "edge (1, 0) has multiplicity -3 < 1"),
            ({(0, 9): 1, (1, 0): -3}, "edge (0, 9) out of node range"),
            ({(0, 1): -(2**70)}, f"edge (0, 1) has multiplicity {-(2**70)} < 1"),
        ],
        ids=["endpoint", "negative-endpoint", "mult-zero", "mult-first",
             "range-first", "mult-below-int64"],
    )
    def test_invalid_edge_messages(self, edges, message):
        with pytest.raises(ValueError) as exc:
            LabeledMultiGraph(2, edges)
        assert str(exc.value) == message

    def test_accessors(self):
        g = small_graph()
        assert g.n == 3
        assert g.edge_count == 5
        assert g.label_count == 2
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(1, 2) == 3
        assert g.multiplicity(2, 0) == 0
        assert g.has_edge(0, 2) and not g.has_edge(2, 1)
        assert g.self_loop_mult(2) == 4
        assert g.self_loop_mult(0) == 0
        assert list(g.out_neighbors(0)) == [1, 2]
        assert list(g.in_neighbors(2)) == [0, 1, 2]
        # self-loop counts twice in the token degree
        assert g.degree(2) == 2 + 2
        assert g.degree(0) == 1 + 2

    def test_edges_iterates_all(self):
        g = small_graph()
        seen = {(u, w): m for u, w, m in g.edges()}
        assert seen == {(0, 1): 2, (1, 0): 1, (1, 2): 3, (2, 2): 4, (0, 2): 1}

    def test_concat_adjacency_and_tokens(self):
        g = small_graph()
        assert g.concat_adjacency(2) == [
            ("in", 0), ("in", 1), ("in", 2), ("out", 2)
        ]
        tokens, indptr = g.token_array()
        v2 = tokens[indptr[2] : indptr[3]]
        assert list(v2) == [0 * 2, 1 * 2, 2 * 2, 2 * 2 + 1]

    @given(st.one_of(graphs(), graphs_with_loop_and_isolated_node()))
    @settings(max_examples=80)
    def test_token_array_matches_concat_adjacency(self, g):
        tokens, indptr = g.token_array()
        assert tokens.dtype == np.uint64 and indptr[-1] == len(tokens)
        for v in range(g.n):
            want = [
                nbr * 2 + (1 if d == "out" else 0)
                for d, nbr in g.concat_adjacency(v)
            ]
            assert list(tokens[indptr[v] : indptr[v + 1]]) == want

    def test_equality_ignores_names(self):
        g1 = small_graph()
        g2 = LabeledMultiGraph(
            3,
            {(0, 1): 2, (1, 0): 1, (1, 2): 3, (2, 2): 4, (0, 2): 1},
            [0, 1, 0],
            label_names=["x", "y"],
            node_names=["p", "q", "r"],
        )
        assert g1 == g2
        g3 = LabeledMultiGraph(3, {(0, 1): 2}, [0, 1, 0], label_names=["a", "b"])
        assert g1 != g3


class TestInducedStats:
    def test_small_case(self):
        g = small_graph()
        stats = induced_edge_stats(g, [0, 1, 2])
        assert stats.edge_count == 4  # loop (2,2) excluded
        assert stats.self_loop_count == 1
        assert stats.max_in_degree == 2 and stats.max_in_node == 2
        assert stats.max_out_degree == 2 and stats.max_out_node == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            induced_edge_stats(small_graph(), [])

    @given(graphs(), st.data())
    @settings(max_examples=60)
    def test_matches_brute_force(self, g, data):
        nodes = data.draw(
            st.lists(
                st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True
            )
        )
        node_set = set(nodes)
        inside = [
            (u, w)
            for u, w, _ in g.edges()
            if u in node_set and w in node_set and u != w
        ]
        loops = sum(1 for u, w, _ in g.edges() if u == w and u in node_set)
        indeg = {v: 0 for v in nodes}
        outdeg = {v: 0 for v in nodes}
        for u, w in inside:
            outdeg[u] += 1
            indeg[w] += 1
        stats = induced_edge_stats(g, nodes)
        assert stats.edge_count == len(inside)
        assert stats.self_loop_count == loops
        assert stats.max_in_degree == max(indeg.values())
        assert stats.max_out_degree == max(outdeg.values())
        # argmax ties break toward the smallest node id
        best_in = min(v for v in nodes if indeg[v] == stats.max_in_degree)
        best_out = min(v for v in nodes if outdeg[v] == stats.max_out_degree)
        assert stats.max_in_node == best_in
        assert stats.max_out_node == best_out


class TestLoader:
    def test_basic_load(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text(
            "# comment line\n"
            "alice\tbob\t3\n"
            "bob\tcarol\n"
            "\n"
            "alice\tbob\t2\n"
            "carol\tcarol\t5\n"
        )
        g = load_graph(str(p))
        assert g.n == 3
        assert g.node_names == ["alice", "bob", "carol"]
        assert g.multiplicity(0, 1) == 5  # duplicates sum
        assert g.multiplicity(1, 2) == 1  # default multiplicity
        assert g.self_loop_mult(2) == 5
        assert g.label_names == [DEFAULT_LABEL]

    def test_undirected_mirrors_except_loops(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\t2\nc\tc\t3\n")
        g = load_graph(str(p), undirected=True)
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(1, 0) == 2
        assert g.self_loop_mult(2) == 3

    def test_labels(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\nb\tc\n")
        lp = tmp_path / "l.tsv"
        lp.write_text("a\tred\nb\tblue\nc\tred\n")
        g = load_graph(str(p), str(lp))
        assert g.label_names == ["red", "blue"]
        assert list(g.labels) == [0, 1, 0]

    def test_label_errors(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\n")
        missing = tmp_path / "missing.tsv"
        missing.write_text("a\tred\n")
        with pytest.raises(GraphFormatError, match="without a label"):
            load_graph(str(p), str(missing))
        unknown = tmp_path / "unknown.tsv"
        unknown.write_text("a\tred\nb\tred\nz\tred\n")
        with pytest.raises(GraphFormatError, match="unknown node"):
            load_graph(str(p), str(unknown))
        conflict = tmp_path / "conflict.tsv"
        conflict.write_text("a\tred\nb\tred\na\tblue\n")
        with pytest.raises(GraphFormatError, match="conflicting label"):
            load_graph(str(p), str(conflict))

    def test_parse_errors_carry_location(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\t1\na\tb\tc\td\n")
        with pytest.raises(GraphFormatError, match=r"g\.tsv:2"):
            load_graph(str(p))
        p.write_text("a\tb\tnope\n")
        with pytest.raises(GraphFormatError, match="not an integer"):
            load_graph(str(p))
        p.write_text("a\tb\t0\n")
        with pytest.raises(GraphFormatError, match=">= 1"):
            load_graph(str(p))
        p.write_text("# nothing\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_graph(str(p))

    def test_canonical_dump_round_trip(self, tmp_path):
        g = small_graph()
        dump = g.canonical_dump()
        edge_lines = [ln for ln in dump.splitlines() if len(ln.split("\t")) == 3]
        p = tmp_path / "g.tsv"
        p.write_text("\n".join(edge_lines) + "\n")
        label_lines = [ln for ln in dump.splitlines() if len(ln.split("\t")) == 2]
        lp = tmp_path / "l.tsv"
        lp.write_text("\n".join(label_lines) + "\n")
        g2 = load_graph(str(p), str(lp))
        # node ids may be permuted by first appearance; compare canonically
        assert g2.canonical_dump() == dump
