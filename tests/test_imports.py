"""Each entry point imports only the modules it runs, and only the CLI's
process entry settles the process it runs in.

Every check starts a fresh interpreter, since this one has imported the
whole package already.  The CLI runs there through ``runpy`` as
``python -m lmgsum.cli`` runs it, and the child prints the modules it
loaded, its ``OPENBLAS_NUM_THREADS`` and its thread count after the
command returns.
"""

import json
import os
import subprocess
import sys

import pytest

import lmgsum
from lmgsum.merge import representative_multiplicity
from lmgsum.synth import planted_graph

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lmgsum.__file__)))

RUN_CLI = """
import json, os, runpy, sys
try:
    runpy.run_module("lmgsum.cli", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
tasks = "/proc/self/task"
print(json.dumps({
    "code": code,
    "modules": sorted(sys.modules),
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}))
"""

#: the merge engine and the generators, which verify never runs
ENGINE = {"lmgsum.candidates", "lmgsum.merge", "lmgsum.summarize", "lmgsum.synth"}


def fresh_modules(code: str, *args: str, blas: str | None = None) -> dict:
    """Run ``code`` in a fresh interpreter, with ``OPENBLAS_NUM_THREADS``
    set to ``blas`` or unset; the JSON of its last stdout line."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(*argv: str) -> set[str]:
    """The modules that ``lmgsum <argv>`` loads; the command must exit 0."""
    result = fresh_modules(RUN_CLI, *argv)
    assert result["code"] == 0
    return set(result["modules"])


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    """A planted graph as TSV files, and its report.

    Its summary has super-edges whose pair keys spread too wide for the
    lookup table of ``np.isin``, which would then sort through ``np.unique``.
    """
    g, _ = planted_graph(2, cliques=20, in_stars=20, out_stars=20,
                         size_range=(5, 10), noise=0.05)
    d = tmp_path_factory.mktemp("graph")
    edges, labels, report = d / "edges.tsv", d / "labels.tsv", d / "report.json"
    names = g.node_names
    edges.write_text("".join(f"{names[u]}\t{names[w]}\t{m}\n" for u, w, m in g.edges()))
    labels.write_text(
        "".join(f"{names[v]}\t{g.label_names[g.labels[v]]}\n" for v in range(g.n))
    )
    common = ("-i", str(edges), "-l", str(labels), "--seed", "1")
    modules = run_cli(
        "summarize", *common, "--checkpoints", "2,5", "--dot", str(d / "dot"),
        "--json", str(report),
    )
    with open(report) as f:
        assert json.load(f)["report"]["super_edge_count"] > 0
    return common, report, modules


def test_load_graph_loads_only_the_reader(graph_files):
    common, _report, _modules = graph_files
    modules = fresh_modules(
        "import json, sys, lmgsum; lmgsum.load_graph(sys.argv[1], sys.argv[2]); "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lmgsum'))))",
        common[1], common[3],
    )
    assert modules == ["lmgsum", "lmgsum.bytekeys", "lmgsum.graph"]


def test_verify_never_imports_the_merge_engine(graph_files):
    common, report, _modules = graph_files
    modules = run_cli("verify", *common, "--json", str(report))
    assert "lmgsum.verify" in modules
    # the reader and the decoder live in lmgsum.verify: verify compiles no
    # summary objects either
    assert modules & (ENGINE | {"lmgsum.summary"}) == set()


def test_eval_labels_never_imports_the_decoder(graph_files):
    # summarize decodes its summary to find the corrections; eval-labels
    # only prices labelings and computes no corrections
    common, _report, summarize_modules = graph_files
    assert "lmgsum.verify" in summarize_modules
    assert "lmgsum.verify" not in run_cli("eval-labels", *common, "--shuffles", "2")


def test_importing_the_cli_leaves_the_host_process_as_it_was():
    result = fresh_modules(
        "import gc, json, os, sys\n"
        "import lmgsum.cli\n"
        "print(json.dumps({'numpy': 'numpy' in sys.modules,"
        " 'blas': os.environ.get('OPENBLAS_NUM_THREADS'),"
        " 'gc': gc.isenabled(), 'frozen': gc.get_freeze_count()}))"
    )
    assert result == {"numpy": False, "blas": None, "gc": True, "frozen": 0}


def test_a_command_runs_with_one_blas_thread(graph_files):
    common, report, _modules = graph_files
    result = fresh_modules(RUN_CLI, "verify", *common, "--json", str(report))
    assert result["code"] == 0
    assert "numpy" in result["modules"]
    assert result["blas"] == "1"
    if result["threads"] is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert result["threads"] == 1


def test_the_users_blas_setting_wins(graph_files):
    common, report, _modules = graph_files
    result = fresh_modules(RUN_CLI, "verify", *common, "--json", str(report), blas="3")
    assert (result["code"], result["blas"]) == (0, "3")


@pytest.fixture(scope="module")
def lazy_numpy_ma():
    """Skips where ``import numpy`` itself loads numpy.ma, as before NumPy 2."""
    if fresh_modules("import json, sys, numpy; print(json.dumps('numpy.ma' in sys.modules))"):
        pytest.skip("this NumPy imports numpy.ma with numpy itself")


def test_no_command_imports_numpy_ma(graph_files, lazy_numpy_ma):
    common, report, summarize_modules = graph_files
    assert "lmgsum.merge" in summarize_modules
    for modules in (
        summarize_modules,
        run_cli("verify", *common, "--json", str(report)),
        run_cli("eval-labels", *common, "--shuffles", "2", "--threads", "2"),
    ):
        assert "numpy" in modules
        assert "numpy.ma" not in modules


def test_wide_multiplicity_range_does_not_import_numpy_ma(lazy_numpy_ma):
    # thousands of distinct values over a range ten thousand wide
    mults = list(range(1, 10240, 3))
    result = fresh_modules(
        "import json, sys\n"
        "from lmgsum.merge import representative_multiplicity\n"
        f"rep = representative_multiplicity({mults!r})\n"
        "print(json.dumps({'rep': rep, 'ma': 'numpy.ma' in sys.modules}))"
    )
    assert result == {"rep": list(representative_multiplicity(mults)), "ma": False}
