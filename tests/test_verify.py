"""verify's array path (``lmgsum.verify.rebuilds``) against the object path.

The array path may only say "OK"; on anything else it declines, and the
object path (``summary_from_dict`` → ``validate`` → ``corrections_from_dict``
→ ``reconstruct``) decides and words the outcome.  So on every report,
regular or corrupted, the CLI must print and exit exactly as the object
path alone does, and the array path may accept only reports the object
path calls ``OK``.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import _planted_multigraph, build_toy
from lmgsum import verify
from lmgsum.cli import main
from lmgsum.config import RunConfig
from lmgsum.graph import LabeledMultiGraph, load_graph
from lmgsum.summarize import run
from lmgsum.summary import Glyph, compute_corrections, corrections_to_dict, summary_to_dict
from lmgsum.synth import planted_graph, random_graph


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


def _wrong_type(payload, g, draw):
    records = payload["summary"]["super_nodes"]
    rec = draw(st.sampled_from(records))
    field, value = draw(st.sampled_from([
        ("rep_mult", "1"), ("rep_mult", 1.0), ("rep_mult", True),
        ("self_loop", 0), ("id", str(rec["id"])), ("members", len(rec["members"])),
    ]))
    rec[field] = value


def _unknown_name(payload, g, draw):
    where = draw(st.sampled_from(["member", "node_names", "positive", "label"]))
    if where == "member":
        draw(st.sampled_from(payload["summary"]["super_nodes"]))["members"][0] = "no-such-node"
    elif where == "node_names":
        payload["summary"]["node_names"][0] = "no-such-node"
    elif where == "label":
        draw(st.sampled_from(payload["summary"]["super_nodes"]))["label"] = "no-such-label"
    else:
        positive = payload["corrections"]["positive"]
        assume(positive)
        draw(st.sampled_from(positive))[0] = "no-such-node"


def _repeated_positive(payload, g, draw):
    positive = payload["corrections"]["positive"]
    assume(positive)
    positive.append(list(draw(st.sampled_from(positive))))


def _repeated_positive_cancelled(payload, g, draw):
    # reconstruct rejects the repeat before a negative could remove it
    positive = payload["corrections"]["positive"]
    assume(positive)
    u, w, m = draw(st.sampled_from(positive))
    positive.append([u, w, m])
    payload["corrections"]["negative"].append([u, w])


def _hub_outside_the_star(payload, g, draw):
    # a loop-free singleton becomes an in-star of one spoke whose hub is
    # another super-node's member, standing in for one positive correction:
    # the edges still add up, but a star's hub must be one of its members
    records = {rec["members"][0]: rec for rec in payload["summary"]["super_nodes"]
               if rec["glyph"] == "singleton" and not rec["self_loop"]}
    positive = payload["corrections"]["positive"]
    chosen = [row for row in positive if row[0] in records and row[0] != row[1]]
    assume(chosen)
    row = draw(st.sampled_from(chosen))
    positive.remove(row)
    records[row[0]].update(glyph="in_star", hub=row[1], rep_mult=row[2])


def _negative_for_missing_edge(payload, g, draw):
    u, w = draw(st.tuples(*[st.integers(0, g.n - 1)] * 2))
    assume(g.multiplicity(u, w) == 0)
    payload["corrections"]["negative"].append([g.node_names[u], g.node_names[w]])


def _dipping_deltas(payload, g, draw):
    # the sum of the two deltas is 0, but the first takes the edge to 0
    u, w, m = draw(st.sampled_from(list(g.edges())))
    names = g.node_names
    payload["corrections"]["mult_deltas"] += [[names[u], names[w], -m], [names[u], names[w], m]]


def _reordered_node_names(payload, g, draw):
    names = payload["summary"]["node_names"]
    names[:] = draw(st.permutations(names))


def _reordered_label_names(payload, g, draw):
    names = payload["summary"]["label_names"]
    names[:] = draw(st.permutations(names))


def _swapped_label(payload, g, draw):
    assume(len(g.label_names) > 1)
    rec = draw(st.sampled_from(payload["summary"]["super_nodes"]))
    rec["label"] = draw(st.sampled_from([n for n in g.label_names if n != rec["label"]]))


CORRUPTIONS = {
    "none": (None, 0),
    "wrong-type": (_wrong_type, 3),
    "unknown-name": (_unknown_name, 3),
    "repeated-positive": (_repeated_positive, 3),
    "repeated-positive-cancelled": (_repeated_positive_cancelled, 3),
    "hub-outside-the-star": (_hub_outside_the_star, 3),
    "negative-for-missing-edge": (_negative_for_missing_edge, 3),
    "dipping-deltas": (_dipping_deltas, 3),
    "reordered-node-names": (_reordered_node_names, 0),
    "reordered-label-names": (_reordered_label_names, 0),
    "swapped-label": (_swapped_label, 1),
}


@settings(max_examples=120, deadline=None)
@given(
    source=st.sampled_from(sorted(SOURCES)),
    seed=st.integers(0, 5),
    corruption=st.sampled_from(sorted(CORRUPTIONS)),
    data=st.data(),
)
def test_array_path_says_ok_only_where_the_object_path_does(
    cases, source, seed, corruption, data
):
    edges, labels, written = cases(source, seed)
    g = load_graph(edges, labels)
    payload = copy.deepcopy(written)
    corrupt, expected_code = CORRUPTIONS[corruption]
    if corrupt is not None:
        corrupt(payload, g, data.draw)
    with tempfile.TemporaryDirectory() as d:
        report = os.path.join(d, "report.json")
        with open(report, "w", encoding="utf-8") as f:
            json.dump(payload, f)
        argv = ["verify", "-i", edges, "-l", labels, "--json", report]
        decided = verify.rebuilds(g, payload["summary"], payload["corrections"])
        got = _cli(argv)
        with mock.patch.object(verify, "rebuilds", lambda *_args: False):
            object_path = _cli(argv)
    assert got == object_path
    assert got[0] == expected_code
    if decided:
        assert object_path[1].startswith("OK:")
    # the array path decides every regular report itself
    assert decided == (expected_code == 0)


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
    assert cor.positive and cor.negative
    assert cor.mult_deltas or retyped is Glyph.DISCONNECTED
    summary_dict = summary_to_dict(g, summary)
    corrections = corrections_to_dict(summary, cor)
    assert verify.rebuilds(g, summary_dict, corrections)
    # one unit more on a corrected multiplicity is a mismatch
    for kind in ("positive", "mult_deltas"):
        for row in corrections[kind][:1]:
            row[2] += 1
            assert not verify.rebuilds(g, summary_dict, corrections)
            row[2] -= 1


@pytest.mark.parametrize(
    "mult, positive, delta",
    [(2**63 - 1, -(2**63), -1), (2**63 - 5, -5, -(2**63))],
    ids=["base-beyond-bound", "delta-beyond-bound"],
)
def test_deltas_that_would_wrap_int64_are_declined(tmp_path, mult, positive, delta):
    # int64 sums would wrap round to the edge's multiplicity; reconstruct
    # sums Python ints and rejects the running value below 1
    edges = tmp_path / "edges.tsv"
    edges.write_text(f"a\tb\t{mult}\n")
    g = load_graph(str(edges))
    summary, report = run(g, RunConfig(seed=0))
    summary_dict = summary_to_dict(g, summary, report.cost)
    corrections = corrections_to_dict(summary, report.corrections)
    assert corrections["positive"] == [["a", "b", mult]]
    corrections["positive"][0][2] = positive
    corrections["mult_deltas"].append(["a", "b", delta])
    assert not verify.rebuilds(g, summary_dict, corrections)
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
    assert verify.rebuilds(g, written["summary"], written["corrections"])
    assert not verify.rebuilds(g, payload["summary"], payload["corrections"])
