"""``lmgsum verify`` against the oracle's object path.

verify reads the report through its own column reader
(``lmgsum.verify.summary_columns`` and ``correction_columns``), decodes it on
arrays (``lmgsum.verify.decode``) and words every error and mismatch itself.
The corrections are columns of node indices into the report's node names.  The
reference is ``oracle_verify`` in ``tests/oracle.py``: summary objects,
``oracle_validate``, the correction rows one at a time, the dict decompression and
a comparison of sorted text dumps.  On every report, regular or corrupted, the two must
give one exit code, and a MISMATCH line must name the first node, or else
the first edge, on which the input and the oracle's reconstruction differ.
"""

import ast
import contextlib
import copy
import io
import json
import os
import re
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import _planted_multigraph, build_toy
from lmgsum import verify
from lmgsum.cli import main
from lmgsum.config import RunConfig
from lmgsum.graph import LabeledMultiGraph, load_graph
from lmgsum.summarize import run
from lmgsum.summary import (
    Glyph,
    compute_corrections,
    corrections_from_dict,
    corrections_to_dict,
    summary_from_dict,
    summary_to_dict,
)
from lmgsum.synth import planted_graph, random_graph
from oracle import oracle_verify


def _thinned_planted(seed: int) -> LabeledMultiGraph:
    """A planted graph with a tenth of its edges dropped, so its merged
    glyphs miss edges and the report carries negative corrections."""
    g, _groups = planted_graph(seed, 2, 2, 2, size_range=(4, 7), noise=0.05)
    keep = np.random.default_rng([seed, 9]).random(g.edge_count) >= 0.1
    return LabeledMultiGraph.from_arrays(
        g.n, g.out_src[keep], g.out_dst[keep], g.out_mult[keep], g.labels, g.label_names
    )


SOURCES = {
    "random": lambda seed: random_graph(seed, n=30, max_mult=4, max_labels=3),
    "planted": _planted_multigraph,
    "thinned": _thinned_planted,
}


def _write_inputs(directory: str, g: LabeledMultiGraph) -> tuple[str, str]:
    """``g``'s edge and label files; nodes without an edge are left out."""
    names = g.node_names
    edges, labels = (os.path.join(directory, f) for f in ("edges.tsv", "labels.tsv"))
    with open(edges, "w", encoding="utf-8") as f:
        f.writelines(f"{names[u]}\t{names[w]}\t{m}\n" for u, w, m in g.edges())
    touched = sorted(set(g.out_src.tolist()) | set(g.out_dst.tolist()))
    with open(labels, "w", encoding="utf-8") as f:
        f.writelines(f"{names[v]}\t{g.label_names[g.labels[v]]}\n" for v in touched)
    return edges, labels


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    """``case(source, seed)``: input files and the report ``summarize``
    writes for them, made once per (source, seed)."""
    made: dict = {}

    def case(source: str, seed: int) -> tuple[str, str, dict]:
        if (source, seed) not in made:
            directory = str(tmp_path_factory.mktemp(f"{source}{seed}"))
            edges, labels = _write_inputs(directory, SOURCES[source](seed))
            g = load_graph(edges, labels)
            summary, report = run(g, RunConfig(seed=seed))
            payload = {
                "summary": summary_to_dict(g, summary, report.cost),
                "corrections": corrections_to_dict(summary, report.corrections),
            }
            made[source, seed] = (edges, labels, payload)
        return made[source, seed]

    return case


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# -- corruptions: each edits a parsed report in place, using the draw


def _rows(payload, kind: str) -> list[list]:
    """The corrections of ``kind`` as rows [src, dst(, value)]."""
    return [list(row) for row in zip(*payload["corrections"][kind])]


def _set_rows(payload, kind: str, rows: list[list]) -> None:
    """Write ``rows`` back as the columns of ``kind``."""
    columns = payload["corrections"][kind]
    columns[:] = [[row[i] for row in rows] for i in range(len(columns))]


def _index_of(payload, g, u: int) -> int:
    """The report's index of g's node ``u``."""
    return payload["summary"]["node_names"].index(g.node_names[u])


def _wrong_type(payload, g, draw):
    records = payload["summary"]["super_nodes"]
    rec = draw(st.sampled_from(records))
    field, value = draw(st.sampled_from([
        ("rep_mult", "1"), ("rep_mult", 1.0), ("rep_mult", True),
        ("self_loop", 0), ("id", str(rec["id"])), ("members", len(rec["members"])),
    ]))
    rec[field] = value


def _unknown_name(payload, g, draw):
    where = draw(st.sampled_from(["member", "node_names", "label"]))
    if where == "member":
        draw(st.sampled_from(payload["summary"]["super_nodes"]))["members"][0] = "no-such-node"
    elif where == "node_names":
        payload["summary"]["node_names"][0] = "no-such-node"
    else:
        draw(st.sampled_from(payload["summary"]["super_nodes"]))["label"] = "no-such-label"


def _index_out_of_range(payload, g, draw):
    kind = draw(st.sampled_from(["positive", "negative", "mult_deltas"]))
    columns = payload["corrections"][kind]
    assume(columns[0])
    size = len(payload["summary"]["node_names"])
    column = columns[draw(st.sampled_from([0, 1]))]
    column[draw(st.integers(0, len(column) - 1))] = draw(
        st.sampled_from([-1, size, size + 7, 2**63, -(2**64)])
    )


def _wrong_column_count(payload, g, draw):
    columns = payload["corrections"][draw(st.sampled_from(["positive", "negative", "mult_deltas"]))]
    if draw(st.booleans()):
        columns.pop()
    else:
        columns.append(list(columns[0]))


def _unequal_columns(payload, g, draw):
    columns = payload["corrections"][draw(st.sampled_from(["positive", "negative", "mult_deltas"]))]
    assume(columns[0])
    draw(st.sampled_from(columns)).pop()


def _wrong_cell_type(payload, g, draw):
    kind = draw(st.sampled_from(["positive", "negative", "mult_deltas"]))
    columns = payload["corrections"][kind]
    assume(columns[0])
    c = draw(st.integers(0, len(columns) - 1))
    i = draw(st.integers(0, len(columns[c]) - 1))
    value = columns[c][i] = draw(st.sampled_from([True, False, 1.0, "1", None, [1]]))
    # the one bad cell is the first the reader finds, so its message names it
    name = ("src", "dst", "delta" if kind == "mult_deltas" else "mult")[c]
    what = {"positive": "positive correction", "negative": "negative correction",
            "mult_deltas": "multiplicity delta"}[kind]
    return f"{name} of {what} {i}: {value!r} is not an integer"


def _rows_of_names(payload, g, draw):
    # the form every report took before the corrections were columns
    names = payload["summary"]["node_names"]
    for kind in payload["corrections"]:
        payload["corrections"][kind] = [
            [names[u], names[w], *rest] for u, w, *rest in _rows(payload, kind)
        ]


def _repeated_positive(payload, g, draw):
    positive = _rows(payload, "positive")
    assume(positive)
    _set_rows(payload, "positive", positive + [draw(st.sampled_from(positive))])


def _repeated_positive_cancelled(payload, g, draw):
    # reconstruct rejects the repeat before a negative could remove it
    positive = _rows(payload, "positive")
    assume(positive)
    u, w, m = draw(st.sampled_from(positive))
    _set_rows(payload, "positive", positive + [[u, w, m]])
    _set_rows(payload, "negative", _rows(payload, "negative") + [[u, w]])


def _hub_outside_the_star(payload, g, draw):
    # a loop-free singleton becomes an in-star of one spoke whose hub is
    # another super-node's member, standing in for one positive correction:
    # the edges still add up, but a star's hub must be one of its members
    names = payload["summary"]["node_names"]
    records = {rec["members"][0]: rec for rec in payload["summary"]["super_nodes"]
               if rec["glyph"] == "singleton" and not rec["self_loop"]}
    positive = _rows(payload, "positive")
    chosen = [row for row in positive if names[row[0]] in records and row[0] != row[1]]
    assume(chosen)
    row = draw(st.sampled_from(chosen))
    positive.remove(row)
    _set_rows(payload, "positive", positive)
    records[names[row[0]]].update(glyph="in_star", hub=names[row[1]], rep_mult=row[2])


def _negative_for_missing_edge(payload, g, draw):
    u, w = draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
    assume(g.multiplicity(u, w) == 0)
    row = [_index_of(payload, g, u), _index_of(payload, g, w)]
    _set_rows(payload, "negative", _rows(payload, "negative") + [row])


def _dipping_deltas(payload, g, draw):
    # the sum of the two deltas is 0, but the first takes the edge to 0
    u, w, m = draw(st.sampled_from(list(g.edges())))
    u, w = _index_of(payload, g, u), _index_of(payload, g, w)
    _set_rows(payload, "mult_deltas", _rows(payload, "mult_deltas") + [[u, w, -m], [u, w, m]])


def _string_for_a_list(payload, g, draw):
    # a string iterates like the list of its characters
    summary = payload["summary"]
    where = draw(st.sampled_from(["node_names", "label_names", "members", "negative"]))
    if where == "members":
        rec = draw(st.sampled_from(summary["super_nodes"]))
        rec["members"] = "".join(rec["members"])
    elif where == "negative":
        columns = payload["corrections"]["negative"]
        columns[0] = "".join(map(str, columns[0]))
    else:
        summary[where] = "".join(summary[where])


def _repeated_record(payload, g, draw):
    where = draw(st.sampled_from(["super_nodes", "super_edges", "node_names", "label_names"]))
    records = payload["summary"][where]
    assume(records)
    records.append(copy.deepcopy(draw(st.sampled_from(records))))


def _reordered_node_names(payload, g, draw):
    # the corrections' indices follow their names to the new positions
    names = payload["summary"]["node_names"]
    order = draw(st.permutations(range(len(names))))
    position = {old: new for new, old in enumerate(order)}
    names[:] = [names[old] for old in order]
    for columns in payload["corrections"].values():
        columns[0][:] = map(position.__getitem__, columns[0])
        columns[1][:] = map(position.__getitem__, columns[1])


def _reordered_label_names(payload, g, draw):
    names = payload["summary"]["label_names"]
    names[:] = draw(st.permutations(names))


def _swapped_label(payload, g, draw):
    assume(len(g.label_names) > 1)
    rec = draw(st.sampled_from(payload["summary"]["super_nodes"]))
    rec["label"] = draw(st.sampled_from([n for n in g.label_names if n != rec["label"]]))


def _bumped_multiplicity(payload, g, draw):
    corrections = payload["corrections"]
    cells = [(kind, i) for kind in ("positive", "mult_deltas")
             for i in range(len(corrections[kind][2]))]
    assume(cells)
    kind, i = draw(st.sampled_from(cells))
    corrections[kind][2][i] += 1


def _dropped_correction(payload, g, draw):
    columns = payload["corrections"][draw(st.sampled_from(["positive", "negative"]))]
    assume(columns[0])
    i = draw(st.integers(0, len(columns[0]) - 1))
    for column in columns:
        del column[i]


def _unused_label_name(payload, g, draw):
    payload["summary"]["label_names"].append("no-record-uses-this-label")


def _renamed(names, old, new):
    return [new if name == old else name for name in names]


def _node_renamed(payload, g, draw):
    summary = payload["summary"]
    old = draw(st.sampled_from(summary["node_names"]))
    new = old + "-renamed"
    assume(new not in summary["node_names"])
    summary["node_names"] = _renamed(summary["node_names"], old, new)
    # the corrections hold indices, so the name changes nowhere else
    for rec in summary["super_nodes"]:
        rec["members"] = _renamed(rec["members"], old, new)
        rec["hub"] = _renamed([rec["hub"]], old, new)[0]


def _label_renamed(payload, g, draw):
    summary = payload["summary"]
    old = draw(st.sampled_from(sorted({rec["label"] for rec in summary["super_nodes"]})))
    new = old + "-renamed"
    assume(new not in summary["label_names"])
    summary["label_names"] = _renamed(summary["label_names"], old, new)
    for rec in summary["super_nodes"]:
        rec["label"] = _renamed([rec["label"]], old, new)[0]


def _node_dropped(payload, g, draw):
    # a singleton outside every super-edge, with its name and every
    # correction that indexes it; the indices above its own move down one
    summary = payload["summary"]
    linked = {end for edge in summary["super_edges"] for end in (edge["src"], edge["dst"])}
    records = [rec for rec in summary["super_nodes"]
               if rec["glyph"] == "singleton" and rec["id"] not in linked]
    assume(records)
    rec = draw(st.sampled_from(records))
    (name,) = rec["members"]
    summary["super_nodes"].remove(rec)
    at = summary["node_names"].index(name)
    del summary["node_names"][at]
    summary["graph_size"] -= 1
    for kind in payload["corrections"]:
        _set_rows(payload, kind, [
            [u - (u > at), w - (w > at), *rest]
            for u, w, *rest in _rows(payload, kind) if at not in (u, w)
        ])


def _graph_size_plus_one(payload, g, draw):
    payload["summary"]["graph_size"] += 1


CORRUPTIONS = {
    "none": (None, 0),
    "wrong-type": (_wrong_type, 3),
    "unknown-name": (_unknown_name, 3),
    "index-out-of-range": (_index_out_of_range, 3),
    "wrong-column-count": (_wrong_column_count, 3),
    "unequal-columns": (_unequal_columns, 3),
    "wrong-cell-type": (_wrong_cell_type, 3),
    "rows-of-names": (_rows_of_names, 3),
    "repeated-positive": (_repeated_positive, 3),
    "repeated-positive-cancelled": (_repeated_positive_cancelled, 3),
    "hub-outside-the-star": (_hub_outside_the_star, 3),
    "negative-for-missing-edge": (_negative_for_missing_edge, 3),
    "dipping-deltas": (_dipping_deltas, 3),
    "string-for-a-list": (_string_for_a_list, 3),
    "repeated-record": (_repeated_record, 3),
    "reordered-node-names": (_reordered_node_names, 0),
    "reordered-label-names": (_reordered_label_names, 0),
    "swapped-label": (_swapped_label, 1),
    "bumped-multiplicity": (_bumped_multiplicity, 1),
    "dropped-correction": (_dropped_correction, 1),
    "unused-label-name": (_unused_label_name, 0),
    "node-renamed": (_node_renamed, 1),
    "label-renamed": (_label_renamed, 1),
    "node-dropped": (_node_dropped, 1),
    "graph-size-plus-one": (_graph_size_plus_one, 3),
}

#: corruptions that the column reader itself rejects
READER_REJECTS = {
    "string-for-a-list", "repeated-record", "index-out-of-range", "wrong-column-count",
    "unequal-columns", "wrong-cell-type", "rows-of-names",
}


def _by_name(g: LabeledMultiGraph) -> tuple[dict, dict]:
    """g's edge multiplicities and node labels, keyed by node names."""
    names = g.node_names
    edges = {(names[u], names[w]): m for u, w, m in g.edges()}
    labels = {name: g.label_names[label] for name, label in zip(names, g.labels.tolist())}
    return edges, labels


def _first_difference(g: LabeledMultiGraph, recon: LabeledMultiGraph) -> tuple:
    """("node", name, label in g, label in recon) for the first node, in g's
    node order and then recon's, whose label differs (None where a graph
    lacks the node); else ("edge", pair, multiplicity in g, in recon) for
    the first pair, in the order of g's node ids, whose multiplicity differs
    (0 where a graph lacks the edge)."""
    (edges, labels), (r_edges, r_labels) = _by_name(g), _by_name(recon)
    for name in g.node_names + [name for name in recon.node_names if name not in labels]:
        if labels.get(name) != r_labels.get(name):
            return "node", name, labels.get(name), r_labels.get(name)
    rank = {name: v for v, name in enumerate(g.node_names)}
    for pair in sorted(edges.keys() | r_edges.keys(), key=lambda p: (rank[p[0]], rank[p[1]])):
        if edges.get(pair, 0) != r_edges.get(pair, 0):
            return "edge", pair, edges.get(pair, 0), r_edges.get(pair, 0)
    raise AssertionError("the graphs do not differ")


def _named_difference(line: str) -> tuple:
    """What the MISMATCH ``line`` names, in :func:`_first_difference`'s form."""
    edge = re.fullmatch(
        r"MISMATCH: edge (\(.*\)) (?:inside|from) super-node .*: "
        r"original multiplicity (\d+), reconstructed (\d+)", line
    )
    if edge:
        return "edge", ast.literal_eval(edge[1]), int(edge[2]), int(edge[3])
    node = re.fullmatch(
        r"MISMATCH: node ('[^']*')(?: in super-node -?\d+)?: "
        r"original label ('[^']*'|None), reconstructed ('[^']*'|None)", line
    )
    assert node, line
    return "node", *map(ast.literal_eval, node.groups())


@settings(max_examples=240, deadline=None)
@given(
    source=st.sampled_from(sorted(SOURCES)),
    seed=st.integers(0, 5),
    corruption=st.sampled_from(sorted(CORRUPTIONS)),
    data=st.data(),
)
def test_verify_exits_as_the_oracle_does(cases, source, seed, corruption, data):
    edges, labels, written = cases(source, seed)
    g = load_graph(edges, labels)
    payload = copy.deepcopy(written)
    corrupt, expected_code = CORRUPTIONS[corruption]
    # a corruption may return a part of the message it must cause
    needle = None if corrupt is None else corrupt(payload, g, data.draw)
    oracle_code, recon = oracle_verify(g, payload)
    with tempfile.TemporaryDirectory() as d:
        report = os.path.join(d, "report.json")
        with open(report, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        code, out, err = _cli(["verify", "-i", edges, "-l", labels, "--json", report])
    assert code == oracle_code == expected_code
    assert "Traceback" not in err
    if code == 0:
        assert out.startswith("OK:")
    elif code == 1:
        assert _named_difference(out.rstrip("\n")) == _first_difference(g, recon)
    else:
        assert out == ""
        assert "malformed report: " in err or "unknown or missing key" in err
        assert needle is None or needle in err
    if corruption in READER_REJECTS:
        with pytest.raises((TypeError, ValueError)):
            corrections_from_dict(summary_from_dict(payload["summary"]), payload["corrections"])


@pytest.mark.parametrize("retyped", [None, Glyph.DISCONNECTED, Glyph.OUT_STAR])
def test_every_correction_kind_is_applied_on_arrays(retyped):
    g, summary = build_toy()
    if retyped is not None:
        # every multi-member super-node of the toy as a disconnected set, or
        # as an out-star from its first member
        for vid, sn in summary.super_nodes.items():
            if sn.size > 1:
                hub = sn.members[0] if retyped is Glyph.OUT_STAR else None
                summary.super_nodes[vid] = replace(sn, glyph=retyped, hub=hub)
        summary.validate(g)
    cor = compute_corrections(g, summary)
    assert len(cor.positive) and len(cor.negative)
    assert len(cor.mult_deltas) or retyped is Glyph.DISCONNECTED
    summary_dict = summary_to_dict(g, summary)
    corrections = corrections_to_dict(summary, cor)
    assert verify.mismatch(g, summary_dict, corrections) is None
    # one unit more on a corrected multiplicity is a mismatch on its edge
    names = summary_dict["node_names"]
    for kind in ("positive", "mult_deltas"):
        src, dst, values = corrections[kind]
        if values:
            values[0] += 1
            assert verify.mismatch(g, summary_dict, corrections).startswith(
                f"MISMATCH: edge ({names[src[0]]!a}, {names[dst[0]]!a}) "
            )
            values[0] -= 1


@pytest.mark.parametrize("kind", ["positive", "negative", "mult_deltas"])
def test_a_report_missing_one_correction_is_a_mismatch_on_its_edge(tmp_path, kind):
    # the planted multigraph of seed 1 has corrections of every kind; one
    # position is dropped from every column of the kind, which leaves a
    # well-formed report of one correction less
    edges, labels = _write_inputs(str(tmp_path), _planted_multigraph(1))
    report = str(tmp_path / "report.json")
    common = ["-i", edges, "-l", labels, "--json", report]
    assert _cli(["summarize", *common, "--seed", "1"])[0] == 0
    with open(report, encoding="utf-8") as f:
        payload = json.load(f)
    columns = payload["corrections"][kind]
    at = len(columns[0]) // 2
    src, dst, *value = (column.pop(at) for column in columns)
    with open(report, "w", encoding="utf-8") as f:
        json.dump(payload, f)
    code, out, err = _cli(["verify", *common])
    assert (code, err) == (1, "")
    names = payload["summary"]["node_names"]
    what, pair, was, now = _named_difference(out.rstrip("\n"))
    assert (what, pair) == ("edge", (names[src], names[dst]))
    if kind == "positive":
        assert (was, now) == (value[0], 0)
    elif kind == "negative":
        assert was == 0 and now >= 1
    else:
        assert was - now == value[0] != 0


@pytest.mark.parametrize(
    "mult, positive, delta",
    [(2**63 - 1, -(2**63), -1), (2**63 - 5, -5, -(2**63))],
    ids=["base-beyond-bound", "delta-beyond-bound"],
)
def test_deltas_that_would_wrap_int64_are_declined(tmp_path, mult, positive, delta):
    # int64 sums would wrap round to the edge's multiplicity; past the
    # bounds the deltas are summed as Python ints
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"a\tb\t{mult}\n")
    g = load_graph(str(edges))
    summary, report = run(g, RunConfig(seed=0))
    summary_dict = summary_to_dict(g, summary, report.cost)
    corrections = corrections_to_dict(summary, report.corrections)
    assert summary_dict["node_names"] == ["a", "b"]
    assert corrections["positive"] == [[0], [1], [mult]]
    corrections["positive"][2][0] = positive
    corrections["mult_deltas"] = [[0], [1], [delta]]
    with pytest.raises(ValueError, match=r"^multiplicity of \('a', 'b'\) dropped below 1$"):
        verify.mismatch(g, summary_dict, corrections)
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"summary": summary_dict, "corrections": corrections}))
    code, out, err = _cli(["verify", "-i", str(edges), "--json", str(path)])
    assert code == 3
    assert "dropped below 1" in err


@pytest.mark.parametrize("section", ["summary", "corrections"])
@pytest.mark.parametrize("value", [[], "x", None, 3])
def test_sections_that_are_not_objects_are_declined(cases, section, value):
    edges, labels, written = cases("planted", 0)
    g = load_graph(edges, labels)
    payload = dict(written, **{section: value})
    assert verify.mismatch(g, written["summary"], written["corrections"]) is None
    with pytest.raises(TypeError):
        verify.mismatch(g, payload["summary"], payload["corrections"])
