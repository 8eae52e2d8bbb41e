"""In-process tests of the command-line interface: the three subcommands,

their outputs, and the exit-code contract (0 ok, 1 verify mismatch, 2 usage,
3 I/O or format error)."""

import json

import pytest

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
        assert main(["summarize", "-i", edges, "-l", labels, "--seed", "1",
                     "--json", str(out_json)]) == 0
        assert calls == {"compute_corrections": 1, "total_cost": 1}

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


def _repeated_positive(payload, g):
    payload["corrections"]["positive"].append(payload["corrections"]["positive"][0])


def _string_multiplicity(payload, g):
    payload["corrections"]["positive"][0][2] = "x"


def _huge_multiplicity(payload, g):
    payload["corrections"]["positive"][0][2] = 10**30


def _delta_for_missing_edge(payload, g):
    # planted graphs have no self-loops
    payload["corrections"]["mult_deltas"].append([g.node_names[0], g.node_names[0], 1])


def _delta_below_one(payload, g):
    u, w, m = next(g.edges())
    payload["corrections"]["mult_deltas"].append([g.node_names[u], g.node_names[w], -m])


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

    def test_missing_corrections_is_usage_error(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        del payload["corrections"]
        out_json.write_text(json.dumps(payload))
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 2
        assert "corrections" in capsys.readouterr().err

    def test_invalid_json_is_io_error(self, planted_files, tmp_path, capsys):
        edges, labels, _g = planted_files
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated")
        assert main(["verify", "-i", edges, "-l", labels, "--json", str(bad)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (lambda p: p["corrections"]["positive"].append(
                ["ghost", p["summary"]["node_names"][0], 1]), "'ghost'"),
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
            ("positive", "1", "positive correction ('2', '5'): '1' is not an integer"),
            ("positive", 1.5, "positive correction ('2', '5'): 1.5 is not an integer"),
            ("positive", True, "positive correction ('2', '5'): True is not an integer"),
            ("positive", None, "positive correction ('2', '5'): None is not an integer"),
            ("mult_deltas", "2", "multiplicity delta ('2', '5'): '2' is not an integer"),
            ("rep_mult", 1.0, "rep_mult of super-node {id}: 1.0 is not an integer"),
            ("self_loop", 0, "self_loop of super-node {id}: 0 is not a boolean"),
            ("super_edges", "1", "rep_mult of super-edge {id}: '1' is not an integer"),
        ],
        ids=["string", "float", "bool", "null", "string-delta", "float-rep-mult",
             "int-self-loop", "string-super-edge-mult"],
    )
    def test_report_values_of_the_wrong_json_type_are_io_error(
        self, planted_files, tmp_path, capsys, section, value, needle
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        first = payload["corrections"]["positive"][0]
        assert first[:2] == ["2", "5"]
        if section == "positive":
            first[2] = value
        elif section == "mult_deltas":
            payload["corrections"]["mult_deltas"].append([*first[:2], value])
        elif section == "super_edges":
            se = payload["summary"]["super_edges"][0]
            se["rep_mult"] = value
            needle = needle.format(id=(se["src"], se["dst"]))
        else:
            sn = next(
                sn for sn in payload["summary"]["super_nodes"]
                if sn["rep_mult"] == 1 and sn["self_loop"] is False
            )
            sn[section] = value
            needle = needle.format(id=sn["id"])
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 3
        assert f"{out_json}: malformed report: {needle}" in capsys.readouterr().err

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

    def test_renamed_ids_fall_back_to_text_dumps(
        self, planted_files, tmp_path, capsys, monkeypatch
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        # members and corrections name nodes, so reversing the name list
        # only renumbers the reconstruction's ids
        payload["summary"]["node_names"].reverse()
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
        assert len(dumps) == 2

    def test_tampered_multiplicity_names_the_first_differing_line(
        self, planted_files, tmp_path, capsys
    ):
        edges, labels, _g = planted_files
        out_json = self._report(tmp_path, edges, labels)
        payload = json.loads(out_json.read_text())
        payload["corrections"]["positive"][0][2] += 1
        out_json.write_text(json.dumps(payload))
        capsys.readouterr()
        code = main(["verify", "-i", edges, "-l", labels, "--json", str(out_json)])
        assert code == 1
        assert capsys.readouterr().out == (
            "MISMATCH at line 70: original='2\\t5\\t1' reconstructed='2\\t5\\t2'\n"
        )

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


class TestEvalLabels:
    def test_requires_label_file(self, planted_files, capsys):
        edges, _labels, _g = planted_files
        assert main(["eval-labels", "-i", edges]) == 2
        assert "label" in capsys.readouterr().err

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
            assert len(json.loads(text)["corrections"]["positive"]) > CHUNK
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
