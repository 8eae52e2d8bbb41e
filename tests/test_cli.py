"""In-process tests of the command-line interface: the three subcommands,

their outputs, and the exit-code contract (0 ok, 1 verify mismatch, 2 usage,
3 I/O or format error)."""

import contextlib
import copy
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import lmgsum.summary
from lmgsum import cli
from lmgsum.cli import main
from lmgsum.graph import LabeledMultiGraph
from lmgsum.jsontext import CHUNK
from lmgsum.synth import kout_graph, planted_graph


def write_graph(tmp_path, g, name="graph"):
    """Dump ``g`` as an edge TSV plus a label TSV; returns both paths."""
    edge_path = tmp_path / f"{name}.tsv"
    lines = [
        f"{g.node_names[u]}\t{g.node_names[w]}\t{m}" for u, w, m in g.edges()
    ]
    edge_path.write_text("\n".join(lines) + "\n")
    label_path = tmp_path / f"{name}_labels.tsv"
    label_path.write_text(
        "".join(
            f"{g.node_names[v]}\t{g.label_names[g.labels[v]]}\n"
            for v in range(g.n)
        )
    )
    return str(edge_path), str(label_path)


@pytest.fixture
def planted_files(tmp_path):
    g, _ = planted_graph(2, cliques=2, in_stars=1, out_stars=1,
                         size_range=(6, 10), noise=0.05)
    return write_graph(tmp_path, g) + (g,)


@pytest.mark.parametrize("command", ["summarize", "verify", "eval-labels"])
@pytest.mark.parametrize(
    "bad_file, edge_bytes, label_bytes",
    [
        ("edges", b"a\tb\t1\n\xff\tc\t2\n", b"a\tx\nb\ty\nc\tx\n"),
        ("labels", b"a\tb\t1\nb\tc\t2\n", b"a\tx\n\xff\ty\nc\tx\n"),
    ],
    ids=["edge-file", "label-file"],
)
def test_input_not_utf8_is_io_error(
    tmp_path, capsys, command, bad_file, edge_bytes, label_bytes
):
    edges, labels = tmp_path / "edges.tsv", tmp_path / "labels.tsv"
    edges.write_bytes(edge_bytes)
    labels.write_bytes(label_bytes)
    args = [command, "-i", str(edges), "-l", str(labels)]
    if command == "verify":
        args += ["--json", str(tmp_path / "report.json")]
    assert main(args) == 3
    err = capsys.readouterr().err
    bad = edges if bad_file == "edges" else labels
    assert f"{bad}:2: not valid UTF-8" in err
    assert "Traceback" not in err


class TestSummarize:
    def test_stdout_payload(self, planted_files, capsys):
        edges, labels, _g = planted_files
        assert main(["summarize", "-i", edges, "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"config", "report", "summary", "corrections"}
        assert payload["report"]["bits_after"] < payload["report"]["bits_before"]
        assert payload["config"]["seed"] == 1

    def test_report_states_one_total(self, planted_files, tmp_path, capsys):
        # the report block and the summary's cost block are one number,
        # both read off the merge state's exact ledger
        edges, labels, _g = planted_files
        out_json = tmp_path / "report.json"
        assert main(["summarize", "-i", edges, "-l", labels, "--seed", "1",
                     "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["report"]["bits_after"] == payload["summary"]["cost"]["total_bits"]

    def test_budget_cut_is_reported_on_stderr(self, planted_files, tmp_path, capsys):
        # --cluster-cap 1 allows 8 pair checks per cluster union, fewer than
        # the planted groups' unions take: one stderr line says so, the
        # report keeps its keys and verify reads it back
        edges, labels, _g = planted_files
        out_json = tmp_path / "report.json"
        args = ["-i", edges, "-l", labels, "--seed", "1", "--json", str(out_json)]
        assert main(["summarize", *args, "--cluster-cap", "1"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("bits_before=")
        assert re.fullmatch(
            r"budget: skipped [1-9]\d* pair checks past 8 per cluster union "
            r"\(8 x --cluster-cap\); the candidates may differ from an unbudgeted run\n",
            err,
        )
        cut = json.loads(out_json.read_text())
        assert main(["verify", *args, "--cluster-cap", "1"]) == 0
        assert capsys.readouterr().out.startswith("OK:")
        assert main(["summarize", *args]) == 0
        assert capsys.readouterr().err == ""
        full = json.loads(out_json.read_text())
        assert set(cut) == set(full) and set(cut["report"]) == set(full["report"])

    def test_json_and_dot_outputs(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        out_json = tmp_path / "report.json"
        dot_dir = tmp_path / "dots"
        code = main([
            "summarize", "-i", edges, "-l", labels, "--seed", "1",
            "--checkpoints", "2,10", "--json", str(out_json), "--dot", str(dot_dir),
        ])
        assert code == 0
        stats_line = capsys.readouterr().out
        assert "ratio=" in stats_line and str(out_json) in stats_line
        payload = json.loads(out_json.read_text())
        assert [c["band"] for c in payload["report"]["checkpoints"]] == [2, 10]
        names = sorted(p.name for p in dot_dir.iterdir())
        assert names == ["summary_b10.dot", "summary_b2.dot", "summary_final.dot"]
        for p in dot_dir.iterdir():
            text = p.read_text()
            assert text.startswith("digraph")
            assert "shape=" in text

    def test_seed_flag_is_deterministic(self, planted_files, capsys):
        edges, _labels, _g = planted_files

        def payload():
            assert main(["summarize", "-i", edges, "--seed", "4"]) == 0
            out = json.loads(capsys.readouterr().out)
            out["report"].pop("wall_time_s")
            return out

        assert payload() == payload()

    def test_env_seed_fallback(self, planted_files, capsys, monkeypatch):
        edges, _labels, _g = planted_files
        monkeypatch.setenv("LMGSUM_SEED", "4")
        assert main(["summarize", "-i", edges]) == 0
        via_env = json.loads(capsys.readouterr().out)
        assert via_env["config"]["seed"] == 4
        monkeypatch.delenv("LMGSUM_SEED")
        assert main(["summarize", "-i", edges, "--seed", "4"]) == 0
        via_flag = json.loads(capsys.readouterr().out)
        via_env["report"].pop("wall_time_s")
        via_flag["report"].pop("wall_time_s")
        assert via_env == via_flag

    def test_env_seed_must_be_integer(self, planted_files, monkeypatch, capsys):
        edges, _labels, _g = planted_files
        monkeypatch.setenv("LMGSUM_SEED", "not-a-number")
        assert main(["summarize", "-i", edges]) == 2
        assert "LMGSUM_SEED" in capsys.readouterr().err

    def test_negative_seed_and_nonpositive_cluster_cap_are_usage_errors(
        self, planted_files, monkeypatch, capsys
    ):
        edges, labels, _g = planted_files
        eval_args = ["eval-labels", "-i", edges, "-l", labels, "--shuffles", "1"]
        cases = [
            ({}, eval_args + ["--seed", "-1"], "seed"),
            ({"LMGSUM_SEED": "-1"}, eval_args, "seed"),
            ({}, ["summarize", "-i", edges, "--cluster-cap", "0"], "cluster_cap"),
        ]
        for env, args, needle in cases:
            monkeypatch.delenv("LMGSUM_SEED", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert main(args) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert needle in captured.err and "Traceback" not in captured.err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["summarize", "-i", str(tmp_path / "absent.tsv")]) == 3
        assert "error:" in capsys.readouterr().err

    def test_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.tsv")
        assert main(["summarize", "-i", absent, "-r", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "r and b_max" in captured.err and "Traceback" not in captured.err

    def test_malformed_edge_file_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\t1\na\tb\tnope\n")
        assert main(["summarize", "-i", str(bad)]) == 3
        assert "bad.tsv:2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, line",
        [
            ("a\tb\t1\na\tc\t99999999999999999999\n", 2),
            (f"a\tb\t{2**62}\nb\tc\t1\na\tb\t{2**62}\n", 3),
        ],
        ids=["one-line", "duplicates-sum"],
    )
    def test_multiplicity_beyond_int64_is_io_error(self, tmp_path, capsys, content, line):
        bad = tmp_path / "big.tsv"
        bad.write_text(content)
        assert main(["summarize", "-i", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"big.tsv:{line}:" in err
        assert "exceeds 2^63-1" in err

    def test_corrections_and_cost_computed_once(
        self, planted_files, tmp_path, monkeypatch, capsys
    ):
        import lmgsum.cli
        import lmgsum.summarize
        import lmgsum.summary

        calls = {"compute_corrections": 0, "total_cost": 0}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapper = counting(name, getattr(lmgsum.summary, name))
            for module in (lmgsum.summary, lmgsum.summarize, lmgsum.cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        edges, labels, _g = planted_files
        out_json = tmp_path / "report.json"
        common = ["-i", edges, "-l", labels, "--seed", "1"]
        assert main(["summarize", *common, "--json", str(out_json)]) == 0
        assert calls == {"compute_corrections": 1, "total_cost": 0}
        # no command prices a summary from scratch: the cost comes from the
        # merge state, and verify and eval-labels print no cost
        for argv in (
            ["summarize", *common, "--checkpoints", "2,5,10",
             "--dot", str(tmp_path / "dot"), "--json", str(tmp_path / "cp.json")],
            ["verify", *common, "--json", str(out_json)],
            ["eval-labels", *common, "--shuffles", "2"],
        ):
            assert main(argv) == 0
            assert calls["total_cost"] == 0, argv
        capsys.readouterr()

    def test_bad_checkpoints_are_usage_error(self, planted_files, capsys):
        edges, _labels, _g = planted_files
        code = main([
            "summarize", "-i", edges, "--bands", "5", "--checkpoints", "9",
        ])
        assert code == 2
        assert "checkpoints" in capsys.readouterr().err


def _unknown_super_edge_endpoint(payload):
    first = payload["summary"]["super_nodes"][0]["id"]
    payload["summary"]["super_edges"].append({"src": 999, "dst": first, "rep_mult": 1})


def _node_in_two_super_nodes(payload):
    nodes = payload["summary"]["super_nodes"]
    host = next(sn for sn in nodes if len(sn["members"]) > 1)
    other = next(sn for sn in nodes if sn is not host)
    host["members"].append(other["members"][0])


def _append(payload, kind, row):
    """Append the correction ``row`` to the columns of ``kind``."""
    for column, value in zip(payload["corrections"][kind], row, strict=True):
        column.append(value)


def _repeated_positive(payload, g):
    _append(payload, "positive", [column[0] for column in payload["corrections"]["positive"]])


def _string_multiplicity(payload, g):
    payload["corrections"]["positive"][2][0] = "x"


def _huge_multiplicity(payload, g):
    payload["corrections"]["positive"][2][0] = 10**30


def _delta_for_missing_edge(payload, g):
    # planted graphs have no self-loops; the report lists g's nodes in order
    _append(payload, "mult_deltas", [0, 0, 1])


def _delta_below_one(payload, g):
    u, w, m = next(g.edges())
    _append(payload, "mult_deltas", [u, w, -m])


def _members_string(summary, corrections):
    # a one-character name iterates as the list of itself
    sn = next(
        sn for sn in summary["super_nodes"]
        if sn["glyph"] == "singleton" and len(sn["members"][0]) == 1
    )
    sn["members"] = sn["members"][0]


def _node_name_number(summary, corrections):
    # the JSON number 2 for the name "2" everywhere: the text dumps that
    # compare the graphs print both as 2
    def renamed(names):
        return [2 if name == "2" else name for name in names]

    summary["node_names"] = renamed(summary["node_names"])
    for sn in summary["super_nodes"]:
        sn["members"] = renamed(sn["members"])
        sn["hub"] = renamed([sn["hub"]])[0]


#: one defect each that no report ``summarize`` writes has; a lenient reader
#: lets a repeat overwrite the first and iterates a string as its characters
UNWRITTEN_REPORTS = {
    "super-node-repeated": lambda s, c: s["super_nodes"].append(dict(s["super_nodes"][0])),
    "super-edge-repeated": lambda s, c: s["super_edges"].append(dict(s["super_edges"][0])),
    "label-name-repeated": lambda s, c: s["label_names"].append(s["label_names"][0]),
    "node-names-string": lambda s, c: s.update(node_names="".join(s["node_names"])),
    "label-names-string": lambda s, c: s.update(label_names="".join(s["label_names"])),
    "members-string": _members_string,
    # the src column as the string of its digits
    "negative-string": lambda s, c: c["negative"].__setitem__(
        0, "".join(map(str, c["positive"][0][:2]))
    ),
    # a third column: read as rows, each negative would be a triple
    "negative-row-too-wide": lambda s, c: c["negative"].append(list(c["negative"][0])),
    "node-name-number": _node_name_number,
}


class TestVerify:
    def _report(self, tmp_path, edges, labels, extra=()):
        out_json = tmp_path / "report.json"
        args = ["summarize", "-i", edges, "-l", labels, "--seed", "1",
                "--json", str(out_json), *extra]
        assert main(args) == 0
        return out_json

    def test_round_trip_verifies(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 0
        assert capsys.readouterr().out.startswith("OK:")

    @pytest.mark.parametrize(
        "flags, env, needle",
        [
            (["--seed", "-1"], None, "seed"),
            ([], "-1", "seed"),
            ([], "abc", "LMGSUM_SEED"),
            (["-r", "0"], None, "r and b_max"),
            (["--bands", "0"], None, "r and b_max"),
            (["--cluster-cap", "0"], None, "cluster_cap"),
            (["--threads", "0"], None, "threads"),
        ],
        ids=["seed", "env-seed", "env-not-int", "rows", "bands", "cluster-cap", "threads"],
    )
    def test_shared_flags_are_validated_like_the_other_commands(
        self, planted_files, tmp_path, capsys, monkeypatch, flags, env, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        monkeypatch.delenv("LMGSUM_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("LMGSUM_SEED", env)
        capsys.readouterr()
        args = ["verify", "-i", edges, "-l", labels, "--json", str(out_json), *flags]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert needle in captured.err and "Traceback" not in captured.err

    def test_tampered_summary_fails(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        victim = next(
            sn for sn in payload["summary"]["super_nodes"]
            if len(sn["members"]) > 1
        )
        victim["rep_mult"] += 7
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("section", ["summary", "corrections"])
    def test_missing_section_is_format_error(self, planted_files, tmp_path, capsys, section):
        # a report without a section is malformed; exit 2 is for bad flags
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        del payload[section]
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{out_json}: no '{section}' section" in captured.err

    def test_invalid_json_is_io_error(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(["verify", "-i", edges, "-l", labels, "--json", str(bad)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (lambda p: p["summary"]["super_nodes"][0]["members"].append("ghost"), "'ghost'"),
            (lambda p: p["summary"]["super_nodes"][0].update(glyph="bogus"), "'bogus'"),
        ],
        ids=["unknown-node", "unknown-glyph"],
    )
    def test_report_naming_unknown_entries_is_io_error(
        self, planted_files, tmp_path, capsys, corrupt, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        corrupt(payload)
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        err = capsys.readouterr().err
        assert "report.json:" in err
        assert needle in err

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (_unknown_super_edge_endpoint, "super-edge endpoint missing"),
            (_node_in_two_super_nodes, "in two super-nodes"),
        ],
        ids=["unknown-super-edge-endpoint", "node-in-two-super-nodes"],
    )
    def test_structurally_invalid_summary_is_io_error(
        self, planted_files, tmp_path, capsys, corrupt, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        corrupt(payload)
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        err = capsys.readouterr().err
        assert "report.json:" in err
        assert needle in err

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (_repeated_positive, "positive correction for existing edge"),
            (_string_multiplicity, "malformed report"),
            (_huge_multiplicity, "malformed report"),
            (_delta_for_missing_edge, "multiplicity delta for missing edge"),
            (_delta_below_one, "dropped below 1"),
        ],
        ids=[
            "repeated-positive", "string-multiplicity", "huge-multiplicity",
            "delta-for-missing-edge", "delta-below-one",
        ],
    )
    def test_corrections_contradicting_summary_are_io_error(
        self, planted_files, tmp_path, capsys, corrupt, needle
    ):
        edges, labels, g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        corrupt(payload, g)
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        err = capsys.readouterr().err
        assert "report.json:" in err
        assert needle in err

    @pytest.mark.parametrize(
        "section, value, needle",
        [
            ("positive", "1", "mult of positive correction 0: '1' is not an integer"),
            ("positive", 1.5, "mult of positive correction 0: 1.5 is not an integer"),
            ("positive", True, "mult of positive correction 0: True is not an integer"),
            ("positive", None, "mult of positive correction 0: None is not an integer"),
            ("mult_deltas", "2", "delta of multiplicity delta {at}: '2' is not an integer"),
            ("rep_mult", 1.0, "rep_mult of super-node {id}: 1.0 is not an integer"),
            ("self_loop", 0, "self_loop of super-node {id}: 0 is not a boolean"),
            ("super_edges", "1", "rep_mult of super-edge {id}: '1' is not an integer"),
            ("id", "x", "id of super-node record {at}: 'x' is not an integer"),
            ("id", True, "id of super-node record {at}: True is not an integer"),
            ("src", "x", "src of super-edge {id}: 'x' is not an integer"),
            ("dst", 1.0, "dst of super-edge {id}: 1.0 is not an integer"),
        ],
        ids=["string", "float", "bool", "null", "string-delta", "float-rep-mult",
             "int-self-loop", "string-super-edge-mult", "string-id", "bool-id",
             "string-super-edge-src", "float-super-edge-dst"],
    )
    def test_report_values_of_the_wrong_json_type_are_io_error(
        self, planted_files, tmp_path, capsys, section, value, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        positive = payload["corrections"]["positive"]
        if section == "positive":
            positive[2][0] = value
        elif section == "mult_deltas":
            needle = needle.format(at=len(payload["corrections"]["mult_deltas"][0]))
            _append(payload, "mult_deltas", [positive[0][0], positive[1][0], value])
        elif section in ("super_edges", "src", "dst"):
            se = payload["summary"]["super_edges"][0]
            se["rep_mult" if section == "super_edges" else section] = value
            needle = needle.format(id=(se["src"], se["dst"]))
        else:
            at, sn = next(
                (i, sn) for i, sn in enumerate(payload["summary"]["super_nodes"])
                if sn["rep_mult"] == 1 and sn["self_loop"] is False
            )
            needle = needle.format(id=sn["id"], at=at)
            sn[section] = value
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        assert f"{out_json}: malformed report: {needle}" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", sorted(UNWRITTEN_REPORTS))
    def test_report_summarize_never_writes_is_io_error(
        self, planted_files, tmp_path, capsys, defect
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        assert len(payload["summary"]["super_edges"]) == 8
        names, positive = payload["summary"]["node_names"], payload["corrections"]["positive"]
        assert (names[positive[0][0]], names[positive[1][0]]) == ("2", "5")
        UNWRITTEN_REPORTS[defect](payload["summary"], payload["corrections"])
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"{out_json}: malformed report: " in captured.err
        assert "Traceback" not in captured.err

    def test_match_is_decided_without_text_dumps(
        self, planted_files, tmp_path, capsys, monkeypatch
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)

        def no_dump(self):
            raise AssertionError("canonical_dump called")

        monkeypatch.setattr(LabeledMultiGraph, "canonical_dump", no_dump)
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_regular_report_builds_no_summary_objects(
        self, planted_files, tmp_path, capsys, monkeypatch
    ):
        # OK, a mismatch and a malformed report are all decided on arrays
        edges, labels, g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        written = json.loads(out_json.read_text())
        bumped = copy.deepcopy(written)
        bumped["corrections"]["positive"][2][0] += 1
        repeated = copy.deepcopy(written)
        _repeated_positive(repeated, g)

        def refuse(*_args):
            raise AssertionError("summary objects or text dumps built")

        for name in ("summary_from_dict", "corrections_from_dict", "reconstruct"):
            monkeypatch.setattr(lmgsum.summary, name, refuse)
        monkeypatch.setattr(lmgsum.summary.SummaryGraph, "validate", refuse)
        monkeypatch.setattr(LabeledMultiGraph, "canonical_dump", refuse)
        for payload, code, stream, start in (
            (written, 0, "out", "OK:"),
            (bumped, 1, "out", "MISMATCH: edge ('2', '5') "),
            (repeated, 3, "err", f"error: {out_json}: malformed report: "),
        ):
            out_json.write_text(json.dumps(payload))
            capsys.readouterr()
            assert main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)]) == code
            assert getattr(capsys.readouterr(), stream).startswith(start)

    def test_renamed_ids_need_no_text_dumps(
        self, planted_files, tmp_path, capsys, monkeypatch
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        # members name nodes and the corrections index the name list, so
        # reversing the list and remapping the indices only renumbers the
        # reconstruction's ids; verify maps every name through the input's
        # index and so never sees them
        names = payload["summary"]["node_names"]
        names.reverse()
        for columns in payload["corrections"].values():
            for column in columns[:2]:
                column[:] = [len(names) - 1 - i for i in column]
        out_json.write_text(json.dumps(payload))
        dumps = []
        real_dump = LabeledMultiGraph.canonical_dump

        def counted_dump(self):
            dumps.append(self)
            return real_dump(self)

        monkeypatch.setattr(LabeledMultiGraph, "canonical_dump", counted_dump)
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 0
        assert capsys.readouterr().out.startswith("OK:")
        assert dumps == []

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (lambda c, n: c["positive"].pop(),
             "positive: columns of lengths [{k}, {k}], not 3 of one length (src, dst, mult)"),
            (lambda c, n: c["negative"].append([]),
             "negative: columns of lengths [{m}, {m}, 0], not 2 of one length (src, dst)"),
            (lambda c, n: c["positive"][1].pop(),
             "positive: columns of lengths [{k}, {j}, {k}], "
             "not 3 of one length (src, dst, mult)"),
            (lambda c, n: c["positive"][0].__setitem__(1, True),
             "src of positive correction 1: True is not an integer"),
            (lambda c, n: c["positive"][1].__setitem__(0, 2.0),
             "dst of positive correction 0: 2.0 is not an integer"),
            (lambda c, n: c["positive"][0].__setitem__(2, "2"),
             "src of positive correction 2: '2' is not an integer"),
            (lambda c, n: c["positive"][0].__setitem__(0, "1"),
             "src of positive correction 0: '1' is not an integer"),
            (lambda c, n: c["positive"][1].__setitem__(3, -1),
             "dst of positive correction 3: -1 is not a node index below {n}"),
            (lambda c, n: c["positive"][0].__setitem__(4, n),
             "src of positive correction 4: {n} is not a node index below {n}"),
            (lambda c, n: c["positive"][1].__setitem__(5, 2**64),
             f"dst of positive correction 5: {2**64} is not a node index below {{n}}"),
        ],
        ids=["too-few-columns", "too-many-columns", "unequal-lengths", "bool-index",
             "float-index", "string-index", "first-string-index", "negative-index",
             "index-past-the-names", "index-past-int64"],
    )
    def test_malformed_correction_columns_are_io_error(
        self, planted_files, tmp_path, capsys, corrupt, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        n = len(payload["summary"]["node_names"])
        k, m = (len(payload["corrections"][kind][0]) for kind in ("positive", "negative"))
        assert k > 5
        corrupt(payload["corrections"], n)
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {out_json}: malformed report: {needle.format(n=n, k=k, j=k - 1, m=m)}\n"
        )

    @pytest.mark.parametrize("kept", [None, 3], ids=["all-rows", "as-many-rows-as-columns"])
    def test_report_with_rows_of_names_asks_for_a_new_one(
        self, planted_files, tmp_path, capsys, kept
    ):
        # the corrections as every report held them before they were
        # columns: one [src, dst(, value)] row of node names per correction;
        # three positive rows have the shape of three positive columns
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        names = payload["summary"]["node_names"]
        payload["corrections"] = {
            kind: [[names[u], names[w], *rest] for u, w, *rest in zip(*columns)]
            for kind, columns in payload["corrections"].items()
        }
        payload["corrections"]["positive"] = payload["corrections"]["positive"][:kept]
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {out_json}: malformed report: positive: rows of node names"
        )
        assert "re-run `summarize`" in captured.err and "Traceback" not in captured.err

    def test_tampered_multiplicity_names_the_edge(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        payload["corrections"]["positive"][2][0] += 1
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 1
        assert capsys.readouterr().out == (
            "MISMATCH: edge ('2', '5') from super-node 2 to super-node 5: "
            "original multiplicity 1, reconstructed 2\n"
        )

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (lambda r: r["corrections"]["positive"][2].__setitem__(0, 0),
             "edge ('beta', 'alpha') has multiplicity 0 < 1"),
            (lambda r: _append(r, "positive", [0, 1, 1]),
             "positive correction for existing edge ('beta', 'alpha')"),
            (lambda r: r["summary"]["super_nodes"][1].update(
                glyph="disconnected", members=["alpha", "beta"]),
             "node 'beta' in two super-nodes"),
        ],
        ids=["zero-multiplicity", "repeated-positive", "two-super-nodes"],
    )
    def test_errors_name_nodes_not_ids(self, tmp_path, capsys, corrupt, needle):
        # ids follow first appearance, so 'beta' is node 0 and 'alpha' node 1
        rows = [("beta", "alpha", 2), ("alpha", "gamma", 1), ("gamma", "beta", 1)]
        edges = _write_tsv(tmp_path / "edges.tsv", rows)
        out_json = tmp_path / "report.json"
        assert main(["summarize", "-i", edges, "--json", str(out_json)]) == 0
        payload = json.loads(out_json.read_text())
        assert payload["summary"]["node_names"] == ["beta", "alpha", "gamma"]
        assert [column[0] for column in payload["corrections"]["positive"]] == [0, 1, 2]
        corrupt(payload)
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", "-i", edges, "--json", str(out_json)]) == 3
        assert capsys.readouterr().err == f"error: {out_json}: malformed report: {needle}\n"

    @pytest.mark.parametrize("text", ["3", "[]", '"x"'], ids=["number", "list", "string"])
    def test_report_not_a_json_object_is_io_error(
        self, planted_files, tmp_path, capsys, text
    ):
        edges, labels, _g = planted_files
        report = tmp_path / "report.json"
        report.write_text(text)
        assert main(["verify", "-i", edges, "-l", labels, "--json", str(report)]) == 3
        assert f"{report}: report is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, needle",
        [
            (b'{"summary": "\xff"}', "not valid UTF-8"),
            (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        ],
        ids=["not-utf8", "too-deep"],
    )
    def test_unreadable_report_is_io_error(
        self, planted_files, tmp_path, capsys, content, needle
    ):
        edges, labels, _g = planted_files
        report = tmp_path / "report.json"
        report.write_bytes(content)
        assert main(["verify", "-i", edges, "-l", labels, "--json", str(report)]) == 3
        err = capsys.readouterr().err
        assert f"{report}: " in err and needle in err
        assert "Traceback" not in err

    def test_undirected_round_trip(self, tmp_path, capsys):
        edge_path = tmp_path / "undirected.tsv"
        edge_path.write_text("a\tb\t2\nb\tc\t1\nc\ta\t1\nd\td\t3\n")
        out_json = tmp_path / "report.json"
        args = ["-i", str(edge_path), "--undirected", "--json", str(out_json)]
        assert main(["summarize", *args, "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["verify", *args]) == 0
        assert capsys.readouterr().out.startswith("OK:")

    def test_star_of_multiplicities_near_int64_max_round_trips(self, tmp_path, capsys):
        # the spokes' multiplicities differ by 3 just below 2^63 - 1, where
        # float64 steps by 1024: a float-priced representative can round
        # past the largest multiplicity a report may hold
        edge_path = tmp_path / "star.tsv"
        edge_path.write_text("".join(f"s{i}\thub\t{2**63 - 1 - 3 * i}\n" for i in range(40)))
        out_json = tmp_path / "report.json"
        args = ["-i", str(edge_path), "--json", str(out_json)]
        assert main(["summarize", *args]) == 0
        summary = json.loads(out_json.read_text(encoding="utf-8"))["summary"]
        reps = [r["rep_mult"] for r in summary["super_nodes"] + summary["super_edges"]]
        assert any(rep > 1 for rep in reps)
        assert all(rep <= 2**63 - 1 for rep in reps)
        capsys.readouterr()
        assert main(["verify", *args]) == 0
        assert capsys.readouterr().out.startswith("OK:")


class TestEvalLabels:
    def test_requires_label_file(self, planted_files, capsys):
        edges, _labels, _g = planted_files
        assert main(["eval-labels", "-i", edges]) == 2
        assert "label" in capsys.readouterr().err

    def test_flags_are_checked_before_the_inputs_are_read(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.tsv")
        args = ["eval-labels", "-i", absent, "-l", absent, "--shuffles", "0"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--shuffles" in captured.err and "Traceback" not in captured.err

    def test_single_label_warns(self, planted_files, capsys):
        edges, labels, _g = planted_files
        code = main(["eval-labels", "-i", edges, "-l", labels, "--shuffles", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "actual_ratio=" in out
        assert "warning:" in out

    def test_two_labels_report_gain(self, tmp_path, capsys):
        edge_lines = []
        for base in (0, 5):
            for u in range(base, base + 5):
                for w in range(base, base + 5):
                    if u != w:
                        edge_lines.append(f"n{u}\tn{w}\t2")
        edge_path = tmp_path / "two.tsv"
        edge_path.write_text("\n".join(edge_lines) + "\n")
        label_path = tmp_path / "two_labels.tsv"
        label_path.write_text(
            "".join(f"n{v}\t{'a' if v < 5 else 'b'}\n" for v in range(10))
        )
        out_json = tmp_path / "eval.json"
        code = main([
            "eval-labels", "-i", str(edge_path), "-l", str(label_path),
            "--shuffles", "3", "--seed", "2", "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "normalized_gain=" in out
        result = json.loads(out_json.read_text())
        assert len(result["shuffled"]) == 3
        assert result["normalized_gain"] is not None

    def test_threads_give_identical_outputs(
        self, tmp_path, planted_multigraph, capsys, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        edges, labels = write_graph(tmp_path, planted_multigraph(0))
        runs = []
        for threads in ("1", "2"):
            out_json = tmp_path / f"eval{threads}.json"
            code = main([
                "eval-labels", "-i", edges, "-l", labels, "--shuffles", "4",
                "--threads", threads, "--json", str(out_json),
            ])
            runs.append((code, capsys.readouterr(), out_json.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and "normalized_gain=" in runs[0][1].out
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_failure_exits_3(self, tmp_path, planted_multigraph, capsys, monkeypatch):
        import lmgsum.summarize

        parent = os.getpid()
        real_merge = lmgsum.summarize._merge

        def merge(*args):
            if os.getpid() != parent:
                raise RuntimeError("merge failed")
            return real_merge(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1}, raising=False)
        monkeypatch.setattr(lmgsum.summarize, "_merge", merge)
        edges, labels = write_graph(tmp_path, planted_multigraph(0))
        out_json = tmp_path / "eval.json"
        code = main([
            "eval-labels", "-i", edges, "-l", labels, "--shuffles", "4",
            "--threads", "2", "--json", str(out_json),
        ])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == "" and not out_json.exists()
        assert captured.err.startswith("error: eval-labels worker ")
        assert "Traceback" not in captured.err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _indent2_text(text):
    """The text ``json.dump(..., indent=2)`` and a newline make of ``text``'s value."""
    return json.dumps(json.loads(text), indent=2) + "\n"


@pytest.fixture(params=["planted-multigraph", "kout"])
def output_files(request, tmp_path, planted_multigraph):
    # the k-out graph has no merges, so its report holds more positive
    # corrections than one chunk of the JSON writer
    if request.param == "kout":
        g = kout_graph(0, 600, 4)
    else:
        g = planted_multigraph(0)
    return write_graph(tmp_path, g) + (request.param,)


class TestOutputBytes:
    """Every JSON output holds exactly the bytes of ``json.dump(indent=2)``."""

    def test_summarize_json_file_and_stdout(self, output_files, tmp_path, capsys):
        edges, labels, kind = output_files
        out_json = tmp_path / "report.json"
        args = ["summarize", "-i", edges, "-l", labels, "--seed", "1"]
        assert main(args + ["--json", str(out_json)]) == 0
        text = out_json.read_text()
        assert text == _indent2_text(text)
        if kind == "kout":
            assert len(json.loads(text)["corrections"]["positive"][0]) > CHUNK
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out == _indent2_text(out)

    def test_eval_labels_json(self, output_files, tmp_path, capsys):
        edges, labels, _kind = output_files
        out_json = tmp_path / "eval.json"
        assert main([
            "eval-labels", "-i", edges, "-l", labels, "--shuffles", "2",
            "--json", str(out_json),
        ]) == 0
        text = out_json.read_text()
        assert text == _indent2_text(text)


class TestArgparseContract:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_input_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["summarize"])
        assert exc.value.code == 2


def _two_label_planted(groups: int) -> LabeledMultiGraph:
    """``planted_graph`` with ``groups`` groups per glyph, labeled by group,
    alternating between two labels."""
    g, planted = planted_graph(1, groups, groups, groups, size_range=(5, 10), noise=0.05)
    labels = [0] * g.n
    for i, grp in enumerate(planted):
        for v in grp.members:
            labels[v] = i % 2
    edges = {(u, w): m for u, w, m in g.edges()}
    return LabeledMultiGraph(g.n, edges, labels, label_names=["red", "blue"])


class TestCyclicCollector:
    """``main`` runs every command with the cyclic garbage collector paused.
    That frees everything only while the commands make no reference cycles,
    which these tests pin."""

    @staticmethod
    def _cyclic_garbage(argv) -> int:
        """Objects in unreachable cycles that one ``main(argv)``, run with
        the collector off after a warm-up call, leaves behind."""
        enabled = gc.isenabled()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            gc.collect()
            gc.disable()
            try:
                assert main(argv) == 0
                return gc.collect()
            finally:
                if enabled:
                    gc.enable()

    def test_cyclic_garbage_does_not_grow_with_the_input(self, tmp_path):
        # a cycle made per clique search, proposal or record would leave
        # ~50 times as much garbage on the large input; what remains is a
        # fixed amount per call (argparse's parser)
        sizes = {}
        garbage = {}
        for name, groups in (("small", 2), ("large", 100)):
            g = _two_label_planted(groups)
            sizes[name] = len(list(g.edges()))
            edges, labels = write_graph(tmp_path, g, name)
            report = str(tmp_path / f"{name}.json")
            common = ["-i", edges, "-l", labels, "--seed", "1"]
            commands = {
                "summarize": [
                    "summarize", *common, "--checkpoints", "2,5",
                    "--dot", str(tmp_path / f"{name}_dot"), "--json", report,
                ],
                "verify": ["verify", *common, "--json", report],
                "eval-labels": ["eval-labels", *common, "--shuffles", "2"],
            }
            garbage[name] = {
                command: self._cyclic_garbage(argv) for command, argv in commands.items()
            }
        assert sizes["large"] >= 40 * sizes["small"]
        assert garbage["small"] == garbage["large"]

    def test_checkpoints_leave_no_cyclic_garbage(self, planted_files, tmp_path):
        # the checkpoint records hold a nested dict: a list shape the JSON
        # writer walks item by item, with no pure-Python encoder call
        edges, labels, _g = planted_files
        argv = ["summarize", "-i", edges, "-l", labels, "--seed", "1",
                "--json", str(tmp_path / "report.json")]
        plain = self._cyclic_garbage(argv)
        assert self._cyclic_garbage([*argv, "--checkpoints", "2,5,10"]) == plain

    def test_main_restores_the_collector_state(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        report = tmp_path / "report.json"
        assert main(["summarize", "-i", edges, "-l", labels, "--json", str(report)]) == 0
        # one multiplicity more than the report encodes: a well-formed mismatch
        lines = Path(edges).read_text().splitlines(keepends=True)
        a, b, m = lines[0].split("\t")
        other = tmp_path / "other.tsv"
        other.write_text(f"{a}\t{b}\t{int(m) + 1}\n" + "".join(lines[1:]))
        calls = [
            (0, ["summarize", "-i", edges, "-l", labels]),
            (1, ["verify", "-i", str(other), "-l", labels, "--json", str(report)]),
            (2, ["summarize", "-i", edges, "-r", "0"]),
            (3, ["summarize", "-i", str(tmp_path / "absent.tsv")]),
            (SystemExit, ["no-such-command"]),
        ]
        enabled = gc.isenabled()
        assert gc.get_freeze_count() == 0
        try:
            for state in (True, False):
                for expected, argv in calls:
                    (gc.enable if state else gc.disable)()
                    if expected is SystemExit:
                        with pytest.raises(SystemExit):
                            main(argv)
                    else:
                        assert main(argv) == expected
                    assert gc.isenabled() is state, (argv, state)
                    # only the process entry freezes, after its command
                    assert gc.get_freeze_count() == 0, argv
        finally:
            (gc.enable if enabled else gc.disable)()
        capsys.readouterr()

    def test_commands_run_with_the_collector_paused(self, monkeypatch, tmp_path):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            if len(seen) == 2:
                raise RuntimeError("unexpected")
            return 0

        monkeypatch.setattr(cli, "cmd_summarize", handler)
        argv = ["summarize", "-i", str(tmp_path / "unread.tsv")]
        assert gc.isenabled()
        assert main(argv) == 0
        with pytest.raises(RuntimeError):
            main(argv)
        assert seen == [False, False]
        assert gc.isenabled()


# -- metamorphic tests: rewritings of an input that change no output ----------


def _rows(g: LabeledMultiGraph) -> list[tuple[str, str, int]]:
    return [(g.node_names[u], g.node_names[w], m) for u, w, m in g.edges()]


def _label_rows(g: LabeledMultiGraph) -> list[tuple[str, str]]:
    return [(g.node_names[v], g.label_names[g.labels[v]]) for v in range(g.n)]


def _write_tsv(path: Path, rows) -> str:
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")
    return str(path)


_WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')


def _outputs(directory: Path, edge_rows, label_rows, *flags) -> dict:
    """Exit codes, stdout, report text (``wall_time_s`` nulled), DOT files and
    ``eval-labels`` JSON of both commands on one input.  The output paths
    depend only on ``directory``, so two inputs run there print the same
    paths."""
    edges = _write_tsv(directory / "edges.tsv", edge_rows)
    labels = _write_tsv(directory / "labels.tsv", label_rows)
    report, dot, evaluation = (directory / name for name in ("report.json", "dot", "eval.json"))
    common = ["-i", edges, "-l", labels, "--seed", "3", *flags]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = (
            main(["summarize", *common, "--checkpoints", "2,5", "--dot", str(dot),
                  "--json", str(report)]),
            main(["eval-labels", *common, "--shuffles", "2", "--json", str(evaluation)]),
        )
    outputs = {
        "codes": codes,
        "stdout": stdout.getvalue(),
        "report": _WALL_TIME.sub('"wall_time_s": null', report.read_text()),
        "dot": {p.name: p.read_text() for p in sorted(dot.iterdir())},
        "eval": evaluation.read_text(),
    }
    for p in dot.iterdir():
        p.unlink()
    return outputs


def _split_line(rows, index: int, parts) -> list:
    """``rows`` with line ``index`` split into consecutive lines of the
    multiplicities ``parts``, which sum to its own."""
    a, b, m = rows[index]
    assert sum(parts) == m and min(parts) >= 1
    return rows[:index] + [(a, b, part) for part in parts] + rows[index + 1 :]


def _mirrored(rows) -> list:
    """Every line followed by its reverse; a self-loop is listed once."""
    return [row for a, b, m in rows for row in ([(a, b, m)] if a == b else [(a, b, m), (b, a, m)])]


def _undirected_report(text: str, undirected: bool) -> dict:
    payload = json.loads(text)
    assert payload["config"]["undirected"] is undirected
    del payload["config"]["undirected"]
    return payload


#: small graphs over nodes n0..n7: distinct (src, dst) lines with
#: multiplicities, and one of two labels per node
_small_graphs = st.tuples(
    st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)), st.integers(1, 4),
        min_size=1, max_size=24,
    ),
    st.lists(st.sampled_from("xy"), min_size=8, max_size=8),
)


def _small_graph_rows(graph):
    lines, labels = graph
    rows = [(f"n{u}", f"n{w}", m) for (u, w), m in lines.items()]
    names = dict.fromkeys(name for a, b, _m in rows for name in (a, b))
    return rows, [(name, labels[int(name[1:])]) for name in names]


class TestMetamorphic:
    def test_split_lines_change_no_output_planted(self, planted_multigraph, tmp_path):
        g = planted_multigraph(0)
        rows, label_rows = _rows(g), _label_rows(g)
        split = rows
        # every line of multiplicity m >= 2 becomes a line of 1 and one of m - 1
        for i in reversed(range(len(rows))):
            if rows[i][2] >= 2:
                split = _split_line(split, i, (1, rows[i][2] - 1))
        assert len(split) > len(rows)
        expected = _outputs(tmp_path, rows, label_rows)
        assert expected["codes"] == (0, 0)
        assert _outputs(tmp_path, split, label_rows) == expected

    @settings(max_examples=30, deadline=None)
    @given(graph=_small_graphs, data=st.data())
    def test_split_lines_change_no_output(self, graph, data):
        rows, label_rows = _small_graph_rows(graph)
        splittable = [i for i, (_a, _b, m) in enumerate(rows) if m >= 2]
        assume(splittable)
        index = data.draw(st.sampled_from(splittable))
        m = rows[index][2]
        cuts = sorted(data.draw(st.sets(st.integers(1, m - 1), min_size=1)))
        parts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, m])]
        with tempfile.TemporaryDirectory() as d:
            expected = _outputs(Path(d), rows, label_rows)
            assert expected["codes"] == (0, 0)
            assert _outputs(Path(d), _split_line(rows, index, parts), label_rows) == expected

    @staticmethod
    def _check_undirected(directory: Path, rows, label_rows) -> None:
        undirected = _outputs(directory, rows, label_rows, "--undirected")
        mirrored = _outputs(directory, _mirrored(rows), label_rows)
        assert undirected["codes"] == mirrored["codes"] == (0, 0)
        assert _undirected_report(undirected["report"], True) == _undirected_report(
            mirrored["report"], False
        )
        assert undirected["dot"] == mirrored["dot"]

    def test_undirected_is_the_mirrored_file_planted(self, planted_multigraph, tmp_path):
        g = planted_multigraph(0)
        self._check_undirected(tmp_path, _rows(g), _label_rows(g))

    @settings(max_examples=30, deadline=None)
    @given(graph=_small_graphs)
    def test_undirected_is_the_mirrored_file(self, graph):
        with tempfile.TemporaryDirectory() as d:
            self._check_undirected(Path(d), *_small_graph_rows(graph))


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _round_trip_within_recursion_allowance(edges, tmp_path, capsys):
    """``summarize`` then ``verify`` on ``edges``, with Python's recursion
    limit 150 frames above the caller's depth."""
    report = tmp_path / "report.json"
    args = ["-i", str(edges), "--json", str(report)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        assert main(["summarize", *args]) == 0
        capsys.readouterr()
        assert main(["verify", *args]) == 0
    finally:
        sys.setrecursionlimit(limit)
    assert capsys.readouterr().out.startswith("OK:")
    return json.loads(report.read_text())


def test_star_clique_deeper_than_the_recursion_allowance(tmp_path, capsys):
    """A hub with 300 identical leaves round-trips under the recursion
    allowance.  The leaves are one twin class, one similarity vertex, so
    their 300-member candidate takes no clique search at all."""
    edges = tmp_path / "star.tsv"
    edges.write_text("".join(f"hub\tleaf{i}\n" for i in range(300)))
    _round_trip_within_recursion_allowance(edges, tmp_path, capsys)


def test_twinless_clique_deeper_than_the_recursion_allowance(tmp_path, capsys):
    """A complete digraph on 200 nodes has no twins, since no node is its
    own neighbor, and every two nodes have similarity 198/200: one
    200-vertex similarity clique, which the search finds without recursion
    as deep as the clique."""
    edges = tmp_path / "complete.tsv"
    edges.write_text(
        "".join(f"n{u}\tn{w}\n" for u in range(200) for w in range(200) if u != w)
    )
    payload = _round_trip_within_recursion_allowance(edges, tmp_path, capsys)
    assert payload["report"]["glyph_counts"]["clique"] == 1
    assert payload["report"]["super_node_count"] == 1


def test_non_ascii_names_under_an_ascii_locale(tmp_path):
    """Under the C locale, with neither UTF-8 mode nor locale coercion, the
    output files are still UTF-8 and the MISMATCH line quotes names in
    ASCII."""
    import lmgsum

    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(
        LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
        PYTHONPATH=str(Path(lmgsum.__file__).parents[1]),
    )

    def lmgsum_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "lmgsum.cli", *args],
            env=env, capture_output=True, encoding="utf-8", errors="replace",
        )

    edges = _write_tsv(tmp_path / "edges.tsv", [("名前", "b", 2), ("b", "c", 1), ("c", "名前", 1)])
    labels = _write_tsv(tmp_path / "labels.tsv", [("名前", "ラベル"), ("b", "x"), ("c", "x")])
    report, dot = str(tmp_path / "report.json"), tmp_path / "dot"
    done = lmgsum_cli("summarize", "-i", edges, "-l", labels, "--json", report, "--dot", str(dot))
    assert (done.returncode, done.stderr) == (0, "")
    assert "ラベル" in (dot / "summary_final.dot").read_text(encoding="utf-8")
    done = lmgsum_cli("verify", "-i", edges, "-l", labels, "--json", report)
    assert done.returncode == 0 and done.stdout.startswith("OK:")
    bumped = _write_tsv(tmp_path / "bumped.tsv", [("名前", "b", 3), ("b", "c", 1), ("c", "名前", 1)])
    done = lmgsum_cli("verify", "-i", bumped, "-l", labels, "--json", report)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout == (
        "MISMATCH: edge ('\\u540d\\u524d', 'b') from super-node 0 to super-node 1: "
        "original multiplicity 3, reconstructed 2\n"
    )


def test_process_entry_exits_and_prints_as_main_does(planted_files, tmp_path, capsys):
    """Through ``python -m lmgsum.cli``, usage errors and a malformed report
    exit 2 and 3 with all of what ``main`` prints for them in process."""
    edges, labels, _g = planted_files
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for expected, argv in (
        (2, ["summarize", "-i", edges, "-r", "0"]),
        (2, ["no-such-command"]),
        (3, ["verify", "-i", edges, "-l", labels, "--json", str(broken)]),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "lmgsum.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        out, err = capsys.readouterr()
        assert "error: " in err
        assert (done.returncode, done.stdout, done.stderr) == (expected, out, err)
        assert code == expected


#: byte pieces for loader fuzzing: separators, line ends, NUL, comment marks,
#: digits, signs, stray spaces, invalid UTF-8 and multibyte characters
_FUZZ_PIECES = [b"\t", b"\t", b"\n", b"\n", b"\r", b"\x00", b"#", b"0", b"1", b"7",
                b"9" * 19, b"-", b"+", b"_", b"a", b"b", b"c", b" ", b"\x0b",
                "\xa0".encode(), "名".encode(), "ü".encode(), b"\xff", b"\xc3", b"\x80"]
_fuzz_bytes = st.lists(st.sampled_from(_FUZZ_PIECES), max_size=40).map(b"".join)


@settings(max_examples=150, deadline=None)
@given(edge_bytes=_fuzz_bytes, label_bytes=st.none() | _fuzz_bytes)
def test_arbitrary_input_bytes_exit_0_or_3(edge_bytes, label_bytes):
    with tempfile.TemporaryDirectory() as d:
        edges = Path(d) / "edges.tsv"
        edges.write_bytes(edge_bytes)
        args = ["summarize", "-i", str(edges), "--json", str(Path(d) / "report.json")]
        if label_bytes is not None:
            labels = Path(d) / "labels.tsv"
            labels.write_bytes(label_bytes)
            args += ["-l", str(labels)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 3)
    assert "Traceback" not in err.getvalue()
