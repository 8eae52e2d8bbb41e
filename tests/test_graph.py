"""Tests for the multi-graph container and the file loader."""

import copy

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from lmgsum import bytekeys, graph
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
        degree = np.diff(g.out_indptr) + np.diff(g.in_indptr)
        assert degree[2] == 2 + 2
        assert degree[0] == 1 + 2

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

    @given(st.one_of(graphs(), graphs_with_loop_and_isolated_node()))
    @settings(max_examples=80)
    def test_token_values_are_the_distinct_tokens(self, g):
        values = g.token_values()
        assert values.dtype == np.uint64
        assert np.array_equal(values, np.unique(g.token_array()[0]))

    @given(st.one_of(graphs(), graphs_with_loop_and_isolated_node()))
    @settings(max_examples=80)
    def test_edge_lists_flatten_the_csr_rows(self, g):
        for v in range(g.n):
            outs, ins = g.edge_lists(v)
            targets, mults = g.out_edges(v)
            sources, in_mults = g.in_edges(v)
            assert outs[0::2] == targets.tolist() and outs[1::2] == mults.tolist()
            assert ins[0::2] == sources.tolist() and ins[1::2] == in_mults.tolist()
            assert all(type(x) is int for x in outs + ins)

    def test_edge_lists_are_converted_once_and_shared_by_copies(self):
        g = small_graph()
        assert g._edge_lists == []
        twin = copy.copy(g)
        assert twin.edge_lists(2) == ([2, 4], [0, 1, 1, 3, 2, 4])
        cache = g._edge_lists
        assert len(cache) == 4
        assert g.edge_lists(0) == ([1, 2, 2, 1], [1, 1])
        assert g._edge_lists is cache and twin._edge_lists is cache

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


#: a name far wider than the others, which the dict keys
_LONG_NAME = "L" * 4096
#: stray whitespace before, inside and after names, and bytes that are not
#: UTF-8 (written through ``surrogateescape``)
_NAMES = ["a", "b", "c", "ü", "名", "x#y", "#h", " a", "b ", "c\x1c", "d\xa0", "e\x85",
          "\x0bv", "w\x0c", "x\x1cy", "\x1dz", "q\x1e", "\x1fr", "s\x85t", "\xa0u",
          "v\u2028", "\u3000w", "\udcff", "ab\udc80"]
#: short, multibyte and long names, names that share their first 8 bytes,
#: one 4 KB name, and NULs, which are name bytes: ``a\0`` is not ``a``
_CLEAN_NAMES = ["a", "b", "c", "ü", "名", "x#y", "v#", "abcdefgh", "abcdefghi",
                "abcdefghij", "abcdefgz", "üüüüü", "名前の長いノード", _LONG_NAME, "n\x00ul",
                "a\x00", "abcdefgh\x00"]
_BAD_MULTS = ["0", "-1", "x", " 3", "1.0", "٣", str(2**63), str(-(2**63)),
              "00", "9" * 19, "1" * 25, "3\x00"]
#: 18 digits always fit in int64; 19 may not, and the one-line parser reads
#: them, as it reads the other spellings ``int`` takes
_CLEAN_MULTS = ["1", "2", "3", "+1", "1_0", "٣", str(2**62), str(2**63 - 1),
                "007", "9" * 18, "0" * 17 + "5", "1" + "0" * 18, "0" * 18 + "4"]
#: one oddity per file, so that each reaches the check meant to catch it
_ODDITIES = ["mixed-widths", "blank", "spaces", "comment", "indented-comment",
             "one-field", "four-fields", "empty-field", "padded-names",
             "bad-mult", "crlf", "cr", "crlf-header", "header"]


@st.composite
def edge_files(draw):
    """TSV text: clean files, which no line of reaches the one-line parser,
    and files with one kind of oddity, which must read the same."""
    odd = draw(st.sampled_from([None] * 5 + _ODDITIES))
    width = 3 if odd == "bad-mult" else draw(st.sampled_from([2, 3]))
    # a few names per file, so that most files hold none of the rare ones
    pool = _NAMES if odd == "padded-names" else _CLEAN_NAMES
    names = st.sampled_from(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)))

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
    if odd == "crlf-header":
        lines.insert(0, "# edges")
    elif odd == "header":
        # a SNAP-style block of comment lines, one of them perhaps not
        # UTF-8, and perhaps a bad line after it, whose number counts them
        if draw(st.booleans()):
            lines.insert(draw(st.integers(0, len(lines))), edge(3, _BAD_MULTS))
        comments = st.sampled_from(["# edges", "# Nodes: 3 Edges: 2", "#", "# größe 名",
                                    "#\udcff", "#" + edge(width)])
        lines[:0] = draw(st.lists(comments, min_size=1, max_size=4))
    elif odd not in (None, "padded-names", "crlf", "cr"):
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), odd_line())
    newline = {"crlf": "\r\n", "crlf-header": "\r\n", "cr": "\r"}.get(odd, "\n")
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
    @example(text="a\x00b\tc\nc\ta\x00b\n", undirected=False)
    @example(text="abcdefgh\tabcdefghi\t1\nabcdefghi\tabcdefgh\t007\n", undirected=True)
    @example(text=f"a\tb\nb\t{_LONG_NAME}\n{_LONG_NAME}\tc\nc\ta\n", undirected=False)
    @example(text="a\tb\t1000000000000000000\nb\ta\t999999999999999999\n", undirected=False)
    @example(text="a\tb\t99999999999999999999\n", undirected=False)
    @example(text="a\tb\n\udcff\tc\n", undirected=False)
    @example(text="a\tb\x0b\nb\ta\n", undirected=False)
    @example(text="a\tb\u3000\nb\ta\n", undirected=False)
    @example(text="a\tb\rc\td", undirected=False)
    @example(text="# edges\r\na\tb\r\nb\tc\t2\r\n", undirected=False)
    @example(text="a\x85\tb\n\u3000b\tc\t2\nc\ta \n", undirected=False)
    @example(text="New York\tSão\xa0Paulo\t2\nSão\xa0Paulo\tNew York \n", undirected=True)
    @example(text="a\tb\t+1\nb\tc\t1_0\nc\ta\t٣\n", undirected=True)
    @example(text="a\x00\tb\na\tb\t2\nb\ta\x00\n", undirected=False)
    @example(text=f"a\tb\t{2**62}\nb\tc\t-1\na\tb\t{2**62}\n", undirected=False)
    @example(text=f"a\tb\t{2**62}\nb\ta\t{2**62}\nb\tc\t-1\n", undirected=True)
    @example(text=f"a\tb\t{2**62}\nb\tc\nb\ta\t+{2**64}\n", undirected=True)
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bulk_parse_equals_per_line_parse(self, tmp_path, text, undirected):
        p = tmp_path / "g.tsv"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
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

    def test_stray_whitespace_is_what_strip_removes(self):
        # "\r" ends a line before a line's whitespace is looked at
        spaces = {c for c in map(chr, range(0x110000)) if c.isspace()}
        assert set(graph._STRAY) == spaces - set("\t\n\r")
        assert graph._ASCII_SPACE == b"\v\f\x1c\x1d\x1e\x1f "
        for c in graph._STRAY:
            spans = [m.span() for m in graph._STRAY_UTF8.finditer(f"名{c}b".encode())]
            assert spans == [(3, 3 + len(c.encode()))]

    @pytest.mark.parametrize("undirected", [False, True])
    def test_clean_file_skips_the_per_line_scan(self, tmp_path, monkeypatch, undirected):
        p = tmp_path / "g.tsv"
        text = "alice\tbob\t3\nbob\tcarol\t1\nalice\tbob\t2\ncarol\tcarol\t5"
        p.write_text(text)
        want = oracle_load_graph(str(p), undirected)
        parses = _count_parses(monkeypatch)
        g = load_graph(str(p), undirected=undirected)
        assert g == want and g.node_names == ["alice", "bob", "carol"]
        assert g.multiplicity(0, 1) == 5
        assert g.multiplicity(1, 0) == (5 if undirected else 0)
        # long and multibyte names, and one 4 KB name among short ones
        for names in (["alexandria", "名前の長いノード", "bo", "alexandrina"],
                      ["a", "b", _LONG_NAME, "c", "d", "e", "f", "g"],
                      ["x" * 300, "y" * 300, "x" * 299 + "y"]):
            long_text = "".join(f"{u}\t{w}\t{i + 1:03}\n" for i, (u, w) in
                                enumerate(zip(names, names[1:] + names[:1])))
            p.write_bytes(long_text.encode("utf-8"))
            g = load_graph(str(p), undirected=undirected)
            assert g == oracle_load_graph(str(p), undirected) and g.node_names == names
        # a header and CRLF or lone-CR line ends take no line alone, and a
        # header's spaces send no byte of the file through np.isin
        isin, real_isin = [], np.isin
        monkeypatch.setattr(
            np, "isin", lambda *a, **k: isin.append(len(a[0])) or real_isin(*a, **k)
        )
        for copy in ("# edges\n" + text, "# Directed graph\n# FromNodeId\tToNodeId\n" + text,
                     text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            p.write_bytes(copy.encode("utf-8"))
            g = load_graph(str(p), undirected=undirected)
            assert g == want and g.node_names == want.node_names
        monkeypatch.setattr(np, "isin", real_isin)
        assert isin == []
        # nor does whitespace inside a name, which strip() keeps
        p.write_text(text.replace("alice", "alice smith").replace("carol", "carol\u3000c"))
        g = load_graph(str(p), undirected=undirected)
        assert g == want and g.node_names == ["alice smith", "bob", "carol\u3000c"]
        assert parses == []
        # a multiplicity spelled +1 takes exactly its own line
        p.write_text(text.replace("\t1\n", "\t+1\n"))
        g = load_graph(str(p), undirected=undirected)
        assert g == want and g.node_names == want.node_names
        assert [(path, num) for _, path, num, _ in parses] == [(str(p), 2)]


#: the edge files' node names: short ones, long ones that share their first
#: 8 bytes, one 4 KB name, and NULs, which the dict keys
_LABEL_NODE_SETS = [
    ["a", "b", "ü", "名", "x#y"],
    ["abcdefgh", "abcdefghi", "abcdefghij", "abcdefgz", "名前の長いノード"],
    ["a", "b", _LONG_NAME, "c", "d"],
    ["a", "n\x00ul", "b", "c", "d"],
    ["a", "a\x00", "b", "a\x00b", "c"],
]
_LABEL_NAMES = ["red", "blue", "名", "v#", "g", "colour-red", "colour-redd", "r\x00d",
                _LONG_NAME]
#: one oddity per file, as for edge files
_LABEL_ODDITIES = ["blank", "comment", "padded", "one-field", "three-fields",
                   "unknown", "conflict", "repeat", "missing", "crlf", "cr", "not-utf8"]


def _edge_text(nodes, header=False, newline="\n"):
    """An edge file over ``nodes``, listed in first-appearance order, with
    a header comment if asked."""
    return newline.join(["# edges"] * header + [f"{u}\t{w}" for u, w in zip(nodes, nodes[1:])]
                        + [""])


@st.composite
def label_files(draw):
    """An edge file and a label file for its nodes: clean label files,
    which no line of reaches the one-line parser, and ones with one
    oddity, which must read the same."""
    nodes = draw(st.sampled_from(_LABEL_NODE_SETS))
    edges = _edge_text(nodes, draw(st.booleans()), draw(st.sampled_from(["\n", "\r\n", "\r"])))
    odd = draw(st.sampled_from([None] * 4 + _LABEL_ODDITIES))
    pool = draw(st.lists(st.sampled_from(_LABEL_NAMES), min_size=1, max_size=3))
    label_of = {v: draw(st.sampled_from(pool)) for v in nodes}
    lines = [f"{v}\t{label_of[v]}" for v in draw(st.permutations(nodes))]
    node = draw(st.sampled_from(nodes))
    extra = {
        "blank": draw(st.sampled_from(["", "  ", "\t"])),
        "comment": draw(st.sampled_from(["#", " # c", "#a\tred"])),
        "one-field": node,
        "three-fields": f"{node}\t{label_of[node]}\tx",
        "unknown": f"zz\t{label_of[node]}",
        "conflict": f"{node}\t{label_of[node]}!",
        "repeat": f"{node}\t{label_of[node]}",
        "not-utf8": f"{node}\t{label_of[node]}\udcff",
    }.get(odd)
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    elif odd == "padded":
        i = draw(st.integers(0, len(lines) - 1))
        name, label = lines[i].split("\t")
        lines[i] = draw(st.sampled_from([f" {name}\t{label}", f"{name} \t{label}",
                                         f"{name}\t {label}", f"{name}\t{label}\xa0",
                                         f"{name}\t{label}\u2028", f"\x85{name}\t{label}",
                                         f"{name}\t\u3000{label}"]))
    elif odd == "missing":
        lines.pop(draw(st.integers(0, len(lines) - 1)))
    newline = {"crlf": "\r\n", "cr": "\r"}.get(odd, "\n")
    text = newline.join(lines)
    if draw(st.booleans()):  # else no final newline
        text += newline
    return edges, text


_EDGE_TEXT = _edge_text(_LABEL_NODE_SETS[0])


class TestBulkLabels:
    @given(files=label_files())
    @example(files=(_EDGE_TEXT, ""))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\na\tred\n"))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\na\tblue\n"))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü\tred\n名\tred\n"))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü\tred\n名\tred\nx#y\tred\nq\tred\n"))
    @example(files=(_EDGE_TEXT, "a\tred\r\nb\tred\r\nü\tred\r\n名\tred\r\nx#y\tred\r\n"))
    @example(files=(_edge_text(_LABEL_NODE_SETS[1]),
                    "abcdefgh\tx\nabcdefghi\ty\nabcdefghij\tx\nabcdefgz\tz\n名前の長いノード\ty\n"))
    @example(files=(_edge_text(_LABEL_NODE_SETS[1]),
                    "abcdefgh\tx\nabcdefghi\ty\nabcdefghik\tx\nabcdefgz\tz\n名前の長いノード\ty\n"))
    @example(files=(_edge_text(_LABEL_NODE_SETS[2], header=True),
                    f"a\tred\nb\tred\n{_LONG_NAME}\t{_LONG_NAME}\nc\tr\nd\tr\n"))
    @example(files=(_edge_text(_LABEL_NODE_SETS[3]), "a\tr\nn\x00ul\tr\nb\tr\nc\tr\nd\tr\n"))
    @example(files=(_edge_text(_LABEL_NODE_SETS[4], True, "\r\n"),
                    "a\x00\tr\rb\ts\ra\tr\x00\ra\x00b\tr\rc\t\x85s\r"))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü \tred\nq\tred\n名\tred\nx#y\tred\n"))
    @example(files=(_EDGE_TEXT, "a\tred\nb\tred\nü\tred\nb\tblue\n 名\tred\nx#y\n"))
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bulk_labels_equal_per_line_labels(self, tmp_path, files):
        p, lp = tmp_path / "g.tsv", tmp_path / "l.tsv"
        p.write_text(files[0])
        lp.write_bytes(files[1].encode("utf-8", "surrogateescape"))
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
        parses = _count_parses(monkeypatch)
        # an edge file with a header comment, and a blank label line, take
        # no line alone
        for header in (False, True):
            p.write_text(_edge_text(_LABEL_NODE_SETS[0], header))
            lp.write_text("b\tblue\na\tred\nü\tred\n名\tblue\nx#y\tgreen\nb\tblue\n")
            g = load_graph(str(p), str(lp))
            assert g == oracle_load_graph(str(p), labels_path=str(lp))
            assert g.label_names == ["blue", "red", "green"]
            assert g.labels.tolist() == [1, 0, 1, 0, 2]
            # long and multibyte names, and one 4 KB name among short ones
            for nodes in _LABEL_NODE_SETS[1:3]:
                p.write_text(_edge_text(nodes, header))
                lp.write_text("".join(f"{v}\t{label}\n" for v, label in
                                      zip(nodes, ["名前", _LONG_NAME, "名前", "b", "c"])))
                g = load_graph(str(p), str(lp))
                assert g == oracle_load_graph(str(p), labels_path=str(lp))
                assert g.label_names == ["名前", _LONG_NAME, "b", "c"]
        p.write_text(_EDGE_TEXT)
        lp.write_text("a\tred\n\nb\tred\nü\tred\n名\tred\nx#y\tred\n")
        g = load_graph(str(p), str(lp))
        assert g == oracle_load_graph(str(p), labels_path=str(lp))
        assert parses == []
        # a padded field takes exactly its own line
        lp.write_text("a\tred\nb\tblue\nü\tred \n名\tred\nx#y\tred\n")
        g = load_graph(str(p), str(lp))
        assert g == oracle_load_graph(str(p), labels_path=str(lp))
        assert g.label_names == ["red", "blue"]
        assert [(path, num) for _, path, num, _ in parses] == [(str(lp), 3)]


def _count_parses(monkeypatch):
    """The argument tuples of every call to the one-line parser."""
    calls, parse = [], graph._parse_line
    monkeypatch.setattr(graph, "_parse_line", lambda *args: calls.append(args) or parse(*args))
    return calls


def _fields(text):
    """A text's lines as field offsets and lengths, as the loader bounds them."""
    data = text.encode("utf-8")
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return buf, starts, ends - starts


class TestNameKeys:
    def test_word_count(self):
        def words(lens):
            lens = np.array(lens)
            return bytekeys._word_count(lens, 2 * int((lens + 1).sum()))

        assert words([1, 8, 3]) == 1
        assert words([9, 12, 16]) == 2
        # a few long names go to the dict rather than widen every key
        assert words([12] * 200 + [20] * 3) == 2
        assert words([12] * 200 + [20] * 4) == 3
        assert words([3] * 20 + [4096]) == 1
        # names past the cap are all keyed by the dict
        assert words([300] * 4) == 1

    def test_many_long_names_take_the_byte_path(self, tmp_path, monkeypatch):
        parses = _count_parses(monkeypatch)
        rng = np.random.default_rng(3)
        names = [f"node_{v:07d}" for v in range(300)] + ["n" * 60, "m" * 60 + "x"]
        ends = rng.integers(0, len(names), size=(700, 2))
        p, lp = tmp_path / "g.tsv", tmp_path / "l.tsv"
        p.write_text("".join(f"{names[u]}\t{names[w]}\t{u % 7 + 1}\n" for u, w in ends))
        used = dict.fromkeys(names[v] for v in ends.ravel())
        lp.write_text("".join(f"{v}\t{v[-1]}\n" for v in reversed(used)))
        g = load_graph(str(p), str(lp))
        want = oracle_load_graph(str(p), labels_path=str(lp))
        assert g == want and g.node_names == want.node_names
        assert g.label_names == want.label_names
        assert parses == []

    def test_colliding_keys_are_keyed_through_the_dict(self, tmp_path, monkeypatch):
        # with a zero multiplier every key of two or more words is zero
        monkeypatch.setattr(bytekeys, "_MIX", np.uint64(0))
        parses = _count_parses(monkeypatch)
        p, lp = tmp_path / "g.tsv", tmp_path / "l.tsv"
        p.write_text("alexandria\tbob\nbob\talexandrina\n")
        lp.write_text("bob\tx\nalexandria\ty\nalexandrina\tx\n")
        g = load_graph(str(p), str(lp))
        assert parses == []
        assert g == oracle_load_graph(str(p), labels_path=str(lp))
        assert g.node_names == ["alexandria", "bob", "alexandrina"]
        ids, names, index = bytekeys.number(*_fields("alexandria\nbob\nalexandrina\nbob\n"))
        assert ids.tolist() == [0, 1, 2, 1] and names == g.node_names
        assert index.long == {b"alexandria": 0, b"bob": 1, b"alexandrina": 2}

    def test_nul_fields_are_keyed_through_the_dict(self):
        ids, names, index = bytekeys.number(*_fields("a\na\x00\nb\na\x00\n"))
        assert ids.tolist() == [0, 1, 2, 1] and names == ["a", "a\x00", "b"]
        assert index.long == {b"a\x00": 1}
        ids = index.lookup(*_fields("a\x00\nb\x00\na\n"))
        assert ids.tolist() == [1, -1, 0]

    def test_lookup_checks_the_words_of_a_hashed_key(self, monkeypatch):
        monkeypatch.setattr(bytekeys, "_MIX", np.uint64(0))
        index = bytekeys.number(*_fields("alexandria\n"))[2]
        ids = index.lookup(*_fields("alexandrina\nalexandria\nbo\n"))
        assert ids.tolist() == [-1, 0, -1]
