"""Tests for the multi-graph container and the file loader."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lmgsum import graph
from lmgsum.graph import (
    DEFAULT_LABEL,
    GraphFormatError,
    LabeledMultiGraph,
    dedup_sum,
    load_graph,
)
from oracle import oracle_load_graph


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
        assert g.multiplicity(0, 2) == 1 and g.multiplicity(2, 1) == 0
        assert g.multiplicity(2, 2) == 4
        assert g.multiplicity(0, 0) == 0
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
        assert g.multiplicity(2, 2) == 5
        assert g.label_names == [DEFAULT_LABEL]

    def test_undirected_mirrors_except_loops(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("a\tb\t2\nc\tc\t3\n")
        g = load_graph(str(p), undirected=True)
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(1, 0) == 2
        assert g.multiplicity(2, 2) == 3

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


class TestArrayConstructor:
    @pytest.mark.parametrize("seed", range(8))
    def test_key_sort_csr_matches_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        pairs = rng.integers(0, n, (int(rng.integers(0, 120)), 2))
        loops = rng.integers(0, n, 5)
        pairs = np.concatenate((pairs, np.stack((loops, loops), axis=1)))
        edges = {(int(u), int(w)): int(rng.integers(1, 9)) for u, w in pairs}
        g = LabeledMultiGraph(n, edges)

        src, dst = (np.array([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
        mult = np.array(list(edges.values()), dtype=np.int64)
        out = np.lexsort((dst, src))
        inn = np.lexsort((src, dst))
        for name, want in [
            ("out_src", src[out]), ("out_dst", dst[out]), ("out_mult", mult[out]),
            ("in_src", src[inn]), ("in_dst", dst[inn]), ("in_mult", mult[inn]),
        ]:
            assert np.array_equal(getattr(g, name), want), name
        assert np.array_equal(g.out_indptr[1:], np.cumsum(np.bincount(src, minlength=n)))
        assert np.array_equal(g.in_indptr[1:], np.cumsum(np.bincount(dst, minlength=n)))

        # the same edges in another dict order give the same arrays
        items = list(edges.items())
        rng.shuffle(items)
        shuffled = LabeledMultiGraph(n, dict(items))
        for name in ("out_src", "out_dst", "out_mult", "out_indptr",
                     "in_src", "in_dst", "in_mult", "in_indptr"):
            assert np.array_equal(getattr(shuffled, name), getattr(g, name)), name

    def test_from_arrays_equals_dict_constructor(self):
        g = small_graph()
        h = LabeledMultiGraph.from_arrays(
            3, [2, 0, 1, 0, 1], [2, 1, 0, 2, 2], [4, 2, 1, 1, 3], [0, 1, 0], ["a", "b"]
        )
        assert h == g and h.node_names == g.node_names and h.label_names == g.label_names

    def test_from_arrays_rejects_bad_edges(self):
        with pytest.raises(ValueError, match=r"edge \(0, 1\) given twice"):
            LabeledMultiGraph.from_arrays(2, [0, 1, 0], [1, 1, 1], [1, 1, 2])
        with pytest.raises(ValueError, match=r"^edge \(1, 0\) has multiplicity 0 < 1$"):
            LabeledMultiGraph.from_arrays(2, [0, 1, 0], [1, 0, 5], [1, 0, 1])
        with pytest.raises(ValueError, match="one length"):
            LabeledMultiGraph.from_arrays(2, [0, 1], [1], [1, 1])

    def test_dedup_sum(self):
        src, dst, mult = dedup_sum(
            3, np.array([2, 0, 2, 0, 1]), np.array([1, 1, 1, 1, 1]), np.array([1, 2, 3, 4, 5])
        )
        assert src.tolist() == [0, 1, 2]
        assert dst.tolist() == [1, 1, 1]
        assert mult.tolist() == [6, 5, 4]
        empty = dedup_sum(3, np.zeros(0), np.zeros(0), np.zeros(0))
        assert [len(a) for a in empty] == [0, 0, 0]


_NAMES = ["a", "b", "c", "ü", "名", "x#y", "#h", " a", "b ", "c\x1c", "d\xa0", "e\x85"]
_CLEAN_NAMES = ["a", "b", "c", "ü", "名", "x#y", "v#"]
_BAD_MULTS = ["0", "-1", "x", " 3", "1.0", "٣", str(2**63), str(-(2**63))]
_CLEAN_MULTS = ["1", "2", "3", "+1", "1_0", str(2**62), str(2**63 - 1)]
#: one oddity per file, so that each reaches the check meant to catch it
_ODDITIES = ["mixed-widths", "blank", "spaces", "comment", "indented-comment",
             "one-field", "four-fields", "empty-field", "padded-names",
             "bad-mult", "crlf"]


@st.composite
def edge_files(draw):
    """TSV text: clean files, which the whole-file path takes, and files
    with one kind of oddity, which it declines or must parse the same."""
    odd = draw(st.sampled_from([None] * 5 + _ODDITIES))
    width = 3 if odd == "bad-mult" else draw(st.sampled_from([2, 3]))
    names = st.sampled_from(_NAMES if odd == "padded-names" else _CLEAN_NAMES)

    def edge(fields, mults=_CLEAN_MULTS):
        parts = [draw(names), draw(names), draw(st.sampled_from(mults))]
        return "\t".join(parts[:fields])

    def odd_line():
        if odd == "mixed-widths":
            return edge(5 - width)
        if odd == "empty-field":
            parts = edge(width).split("\t")
            parts[draw(st.integers(0, width - 1))] = ""
            return "\t".join(parts)
        if odd == "bad-mult":
            return edge(3, _BAD_MULTS)
        return {"blank": "", "spaces": "   ", "comment": "#" + edge(width),
                "indented-comment": " \t# c", "one-field": draw(names),
                "four-fields": edge(3) + "\t1"}[odd]

    lines = [edge(width) for _ in range(draw(st.integers(0, 12)))]
    if odd not in (None, "padded-names", "crlf"):
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), odd_line())
    newline = "\r\n" if odd == "crlf" else "\n"
    text = newline.join(lines)
    if draw(st.booleans()):  # else no final newline
        text += newline
    return text


class TestBulkParse:
    @given(text=edge_files(), undirected=st.booleans())
    @example(text="#a\tb\n", undirected=False)
    @example(text="a\tb\n#c\td\n", undirected=False)
    @example(text=" \t# c\na\tb", undirected=False)
    @example(text="a \tb\n", undirected=True)
    @example(text="a\tb\r\nb\tc\r\n", undirected=False)
    @example(text="a\tb\t1\na\t\t1\n", undirected=False)
    @example(text="a\tb\t1\nb\ta\n", undirected=True)
    @example(text="a\ta\t0", undirected=False)
    @example(text="a\tb\t2\nb\tc\t-1\n", undirected=True)
    @example(text=f"a\tb\t{2**62}\nb\ta\t1\nb\ta\t{2**62}\n", undirected=True)
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bulk_parse_equals_per_line_parse(self, tmp_path, text, undirected):
        p = tmp_path / "g.tsv"
        p.write_bytes(text.encode("utf-8"))
        try:
            want = oracle_load_graph(str(p), undirected)
        except GraphFormatError as e:
            with pytest.raises(GraphFormatError) as exc:
                load_graph(str(p), undirected=undirected)
            assert str(exc.value) == str(e)
            return
        g = load_graph(str(p), undirected=undirected)
        assert g == want
        assert g.node_names == want.node_names
        assert g.label_names == want.label_names

    @pytest.mark.parametrize("undirected", [False, True])
    def test_clean_file_skips_the_per_line_scan(self, tmp_path, monkeypatch, undirected):
        p = tmp_path / "g.tsv"
        p.write_text("alice\tbob\t3\nbob\tcarol\t1\nalice\tbob\t2\ncarol\tcarol\t5")
        want = oracle_load_graph(str(p), undirected)

        def per_line_scan(path):
            raise AssertionError("per-line scan used")

        monkeypatch.setattr(graph, "_parse_edge_file", per_line_scan)
        g = load_graph(str(p), undirected=undirected)
        assert g == want and g.node_names == ["alice", "bob", "carol"]
        assert g.multiplicity(0, 1) == 5
        assert g.multiplicity(1, 0) == (5 if undirected else 0)
        # a comment line sends the file down the per-line scan
        p.write_text("# header\nalice\tbob\t3\n")
        with pytest.raises(AssertionError, match="per-line scan used"):
            load_graph(str(p), undirected=undirected)


_EDGE_TEXT = "a\tb\nb\tü\nü\t名\n名\tx#y\n"
_LABEL_NODES = ["a", "b", "ü", "名", "x#y"]
_LABEL_NAMES = ["red", "blue", "名", "v#", "g"]
#: one oddity per file, as for edge files
_LABEL_ODDITIES = ["blank", "comment", "padded", "one-field", "three-fields",
                   "unknown", "conflict", "repeat", "missing", "crlf"]


@st.composite
def label_files(draw):
    """Label files for ``_EDGE_TEXT``'s nodes: clean ones, which the
    whole-file path takes, and ones with one oddity, which it declines or
    must read the same."""
    odd = draw(st.sampled_from([None] * 4 + _LABEL_ODDITIES))
    label_of = {v: draw(st.sampled_from(_LABEL_NAMES)) for v in _LABEL_NODES}
    lines = [f"{v}\t{label_of[v]}" for v in draw(st.permutations(_LABEL_NODES))]
    node = draw(st.sampled_from(_LABEL_NODES))
    extra = {
        "blank": draw(st.sampled_from(["", "  ", "\t"])),
        "comment": draw(st.sampled_from(["#", " # c", "#a\tred"])),
        "one-field": node,
        "three-fields": f"{node}\t{label_of[node]}\tx",
        "unknown": f"zz\t{label_of[node]}",
        "conflict": f"{node}\t{label_of[node]}!",
        "repeat": f"{node}\t{label_of[node]}",
    }.get(odd)
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    elif odd == "padded":
        i = draw(st.integers(0, len(lines) - 1))
        name, label = lines[i].split("\t")
        lines[i] = draw(st.sampled_from([f" {name}\t{label}", f"{name} \t{label}",
                                         f"{name}\t {label}", f"{name}\t{label}\xa0"]))
    elif odd == "missing":
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    newline = "\r\n" if odd == "crlf" else "\n"
    text = newline.join(lines)
    if draw(st.booleans()):  # else no final newline
        text += newline
    return text


class TestBulkLabels:
    @given(text=label_files())
    @example(text="")
    @example(text="a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\na\tred\n")
    @example(text="a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\na\tblue\n")
    @example(text="a\tred\nb\tred\nü\tred\n名\tred\n")
    @example(text="a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\nq\tred\n")
    @example(text="a\tred\r\nb\tred\r\nü\tred\r\n名\tred\r\nx#y\tred\r\n")
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bulk_labels_equal_per_line_labels(self, tmp_path, text):
        p, lp = tmp_path / "g.tsv", tmp_path / "l.tsv"
        p.write_text(_EDGE_TEXT)
        lp.write_bytes(text.encode("utf-8"))
        try:
            want = oracle_load_graph(str(p), labels_path=str(lp))
        except GraphFormatError as e:
            with pytest.raises(GraphFormatError) as exc:
                load_graph(str(p), str(lp))
            assert str(exc.value) == str(e)
            return
        g = load_graph(str(p), str(lp))
        assert g == want
        assert g.label_names == want.label_names
        assert g.node_names == want.node_names

    def test_clean_file_skips_the_per_line_scan(self, tmp_path, monkeypatch):
        p, lp = tmp_path / "g.tsv", tmp_path / "l.tsv"
        p.write_text(_EDGE_TEXT)
        lp.write_text("b\tblue\na\tred\nü\tred\n名\tblue\nx#y\tgreen\nb\tblue\n")
        want = oracle_load_graph(str(p), labels_path=str(lp))

        def per_line_scan(path, name_to_id):
            raise AssertionError("per-line scan used")

        monkeypatch.setattr(graph, "_scan_labels", per_line_scan)
        g = load_graph(str(p), str(lp))
        assert g == want and g.label_names == ["blue", "red", "green"]
        assert g.labels.tolist() == [1, 0, 1, 0, 2]
        # a blank line sends the file down the per-line scan
        lp.write_text("a\tred\n\nb\tred\nü\tred\n名\tred\nx#y\tred\n")
        with pytest.raises(AssertionError, match="per-line scan used"):
            load_graph(str(p), str(lp))
