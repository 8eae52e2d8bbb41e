"""Acceptance gate: one test per shipping criterion, each printing a single

PASS/FAIL line.  These are end-to-end checks of the released behavior:
losslessness, encoding laws, optimizer exactness, structure recovery,
scaling, and the statistical guarantees of the similarity search."""

import gc
import math
import os
import time

import numpy as np
import pytest

from lmgsum.candidates import directed_jaccard, minhash_band
from lmgsum.cli import main
from lmgsum.encoding import cost_entropy_code, ell_diff, len_natural, log2_binomial
from lmgsum.graph import LabeledMultiGraph
from lmgsum.merge import SummaryState, decide_glyph, representative_multiplicity
from lmgsum.summarize import RunConfig, normalized_gain, run
from lmgsum.summary import Glyph, SuperNode, compute_corrections, reconstruct, total_cost
from lmgsum.synth import kout_graph, perfect_edges, planted_graph, random_graph

from oracle import oell_diff, oracle_rep_mult, oracle_total_cost


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[ACCEPTANCE {num:>2}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_lossless_round_trip():
    t0 = time.perf_counter()
    failures = []
    for seed in range(1, 101):
        g = random_graph(seed, symmetric=(seed > 80))
        summary, _ = run(g, RunConfig(seed=seed))
        recon = reconstruct(summary, compute_corrections(g, summary))
        if recon != g:
            failures.append(seed)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "lossless round-trip on 100 random graphs",
        not failures and elapsed < 120.0,
        f"failures={failures}, elapsed={elapsed:.1f}s (budget 120s)",
    )


def test_criterion_02_entropy_code_never_beats_binomial():
    violations = [
        (n, k)
        for n in range(2, 201)
        for k in range(1, n)
        if cost_entropy_code(k, n) < log2_binomial(n, k) - 1e-9
    ]
    report(
        2,
        "entropy code >= binomial code on full grid n<=200",
        not violations,
        f"violations={violations[:5]} ({len(violations)} total)",
    )


def test_criterion_03_encoding_unit_values():
    checks = {
        "len_natural(1)=1": len_natural(1) == 1.0,
        "len_natural(2)=3": len_natural(2) == 3.0,
        "ell_diff(m,m)=1": all(ell_diff(m, m) == 1.0 for m in (1, 2, 7, 10**6)),
        "ell_diff(5,3)=5": ell_diff(5, 3) == 5.0,
    }
    bad = [name for name, ok in checks.items() if not ok]
    report(3, "encoding unit values", not bad, f"failed={bad}")


def test_criterion_04_representative_multiplicity_matches_oracle():
    rng = np.random.default_rng(4)
    mismatches = []
    for trial in range(1000):
        size = int(rng.integers(1, 201))
        lo = int(rng.integers(1, 1_000_000))
        width = int(rng.integers(0, 1025))
        mults = rng.integers(lo, lo + width + 1, size=size).tolist()
        m_prod, c_prod = representative_multiplicity(mults)
        m_orac, c_orac = oracle_rep_mult(mults)
        cost_ok = abs(c_prod - c_orac) <= 1e-9
        # equal-cost ties may pick different m; the pick must be optimal
        pick_ok = m_prod == m_orac or (
            abs(sum(oell_diff(x, m_prod) for x in mults) - c_orac) <= 1e-9
        )
        if not (cost_ok and pick_ok):
            mismatches.append((trial, mults[:4], m_prod, m_orac))
    report(
        4,
        "representative multiplicity equals oracle on 1000 multisets",
        not mismatches,
        f"mismatches={mismatches[:3]} ({len(mismatches)} total)",
    )


def test_criterion_05_glyph_decisions_on_perfect_structures():
    failures = []
    for size in range(2, 13):
        members = tuple(range(size))
        hub = size // 2
        for glyph in (Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR,
                      Glyph.DISCONNECTED):
            want_hub = hub if glyph in (Glyph.IN_STAR, Glyph.OUT_STAR) else None
            edges = perfect_edges(glyph, members, want_hub)
            g = LabeledMultiGraph(size, edges)
            got_glyph, got_hub = decide_glyph(g, members)
            if (got_glyph, got_hub) == (glyph, want_hub):
                continue
            # a size-2 star is the same structure viewed from either end:
            # accept any decision that expands to the exact same edge set
            got = SuperNode(id=0, label=0, glyph=got_glyph, members=members,
                            hub=got_hub)
            if size == 2 and set(got.glyph_pairs()) == set(edges):
                continue
            failures.append((glyph.value, size, got_glyph.value, got_hub))
    report(
        5,
        "glyph decision exact on perfect structures, sizes 2-12",
        not failures,
        f"failures={failures}",
    )


def test_criterion_06_incremental_cost_tracks_oracle():
    g, _ = planted_graph(1, cliques=5, in_stars=5, out_stars=5,
                         size_range=(10, 20), noise=0.05)
    deviations = []
    unequal = 0

    def audit(state: SummaryState, _proposal):
        nonlocal unequal
        summary = state.to_summary_graph()
        expected = oracle_total_cost(state.g, summary)
        deviations.append(abs(state.total_bits - expected))
        unequal += state.cost != total_cost(state.g, summary)

    run(g, RunConfig(seed=1), audit=audit)
    worst = max(deviations) if deviations else float("inf")
    report(
        6,
        "running total equals oracle after every commit, and total_cost exactly",
        bool(deviations) and worst <= 1e-6 and not unequal,
        f"commits={len(deviations)}, worst_deviation={worst:.3e} bits, "
        f"unequal_to_total_cost={unequal}",
    )


def _recovered_groups(groups, summary) -> int:
    count = 0
    for grp in groups:
        planted = set(grp.members)
        for sn in summary.super_nodes.values():
            if sn.glyph is not grp.glyph:
                continue
            got = set(sn.members)
            inter = len(got & planted)
            if 2 * inter > len(planted) and 2 * inter > len(got):
                count += 1
                break
    return count


def test_criterion_07_planted_recovery_and_compression():
    t0 = time.perf_counter()
    recovery, ratios = [], []
    for seed in range(1, 6):
        g, groups = planted_graph(seed, cliques=5, in_stars=5, out_stars=5,
                                  size_range=(10, 20), noise=0.05)
        summary, rep = run(g, RunConfig(r=8, b_max=10, seed=seed))
        recovery.append(_recovered_groups(groups, summary) / len(groups))
        ratios.append(rep.compression_ratio)
    elapsed = time.perf_counter() - t0
    mean_recovery = sum(recovery) / len(recovery)
    mean_ratio = sum(ratios) / len(ratios)
    report(
        7,
        "planted structures recovered with compression",
        mean_recovery >= 0.80 and mean_ratio >= 0.30 and elapsed < 60.0,
        f"recovery={mean_recovery:.1%}, ratio={mean_ratio:.3f}, "
        f"elapsed={elapsed:.1f}s (budget 60s)",
    )


def test_criterion_08_normalized_gain_reference_points():
    first = round(100 * normalized_gain(0.32, 0.28), 1)
    second = 100 * normalized_gain(0.42, 0.33)
    report(
        8,
        "normalized-gain formula reproduces reference points",
        first == 5.6 and abs(second - 13.4) <= 0.3,
        f"(0.28,0.32)->{first}% (want 5.6), (0.33,0.42)->{second:.2f}% "
        f"(want 13.4±0.3)",
    )


def _find_cora():
    root = os.environ.get("CORA_DIR") or os.path.join(
        os.path.dirname(__file__), "data", "cora"
    )
    cites = os.path.join(root, "cora.cites")
    content = os.path.join(root, "cora.content")
    if os.path.exists(cites) and os.path.exists(content):
        return cites, content
    return None


def _load_cora(cites_path: str, content_path: str) -> LabeledMultiGraph:
    labels_by_name: dict[str, str] = {}
    with open(content_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) >= 2:
                labels_by_name[parts[0]] = parts[-1]
    ids: dict[str, int] = {}

    def node_id(name: str) -> int:
        return ids.setdefault(name, len(ids))

    edges: dict[tuple[int, int], int] = {}
    with open(cites_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 2:
                continue
            u, w = node_id(parts[0]), node_id(parts[1])
            if u == w:
                edges[(u, u)] = 1
            else:
                edges[(u, w)] = 1
                edges[(w, u)] = 1
    names = sorted(ids, key=ids.get)
    classes = sorted(set(labels_by_name.values())) or ["node"]
    class_of = {c: i for i, c in enumerate(classes)}
    labels = [class_of.get(labels_by_name.get(nm, classes[0]), 0) for nm in names]
    return LabeledMultiGraph(
        len(names), edges, labels, label_names=classes, node_names=names
    )


def test_criterion_09_cora_compression():
    found = _find_cora()
    if found is None:
        print(
            "[ACCEPTANCE  9] cora citation graph compression: SKIP — dataset "
            "not found in tests/data/cora (or $CORA_DIR) and this build "
            "environment has no network access; the loader and this check "
            "run unchanged once cora.cites/cora.content are placed there "
            "(fetch instructions in README)."
        )
        pytest.skip("cora dataset unavailable: no tests/data/cora, no CORA_DIR")
    g = _load_cora(*found)
    t0 = time.perf_counter()
    ratios = [
        run(g, RunConfig(seed=seed))[1].compression_ratio for seed in range(1, 6)
    ]
    elapsed = time.perf_counter() - t0
    mean_ratio = sum(ratios) / len(ratios)
    report(
        9,
        "cora citation graph compression",
        mean_ratio > 0.15 and elapsed < 300.0,
        f"ratio={mean_ratio:.3f} over 5 seeds, elapsed={elapsed:.1f}s "
        f"(budget 300s)",
    )


def test_criterion_10_runtime_scales_linearly_in_edges():
    t0 = time.perf_counter()
    points = []
    for n in (1_000, 3_000, 10_000, 30_000, 100_000):
        g = kout_graph(0, n, 10)
        start = time.perf_counter()
        run(g, RunConfig(seed=0))
        seconds = time.perf_counter() - start
        points.append((g.edge_count, seconds))
    elapsed = time.perf_counter() - t0
    log_e = np.log([e for e, _ in points])
    log_t = np.log([t for _, t in points])
    slope = float(np.polyfit(log_e, log_t, 1)[0])
    report(
        10,
        "k-out benchmark log-log time/edges slope",
        slope <= 1.3 and elapsed < 900.0,
        f"slope={slope:.3f} (limit 1.3), points={[(e, round(t, 2)) for e, t in points]}, "
        f"elapsed={elapsed:.1f}s (budget 900s)",
    )


def test_criterion_12_runtime_scales_linearly_with_merges():
    # criterion 10's graphs make no merge; these planted ones merge most of
    # their nodes, so scoring and commits are timed too.  Host noise moves
    # the shortest runs the most, so the two smallest sizes take the best of 3
    t0 = time.perf_counter()
    points = []
    for groups, repeats in ((200, 3), (400, 3), (800, 1), (1600, 1)):
        g, _ = planted_graph(0, groups, groups, groups, size_range=(5, 10), noise=0.05)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run(g, RunConfig(seed=0))
            times.append(time.perf_counter() - start)
        points.append((g.edge_count, min(times)))
    elapsed = time.perf_counter() - t0
    log_e = np.log([e for e, _ in points])
    log_t = np.log([t for _, t in points])
    slope = float(np.polyfit(log_e, log_t, 1)[0])
    report(
        12,
        "planted-merge log-log time/edges slope",
        slope <= 1.3 and elapsed < 120.0,
        f"slope={slope:.3f} (limit 1.3), points={[(e, round(t, 2)) for e, t in points]}, "
        f"elapsed={elapsed:.1f}s (budget 120s)",
    )


def _star(hubs: int, leaves: int) -> LabeledMultiGraph:
    """``hubs`` hubs with an edge to each of ``leaves`` leaves."""
    return LabeledMultiGraph(
        hubs + leaves, {(h, hubs + i): 1 for h in range(hubs) for i in range(leaves)}
    )


def test_criterion_13_star_runtime_scales_linearly_in_leaves(tmp_path, capsys):
    # a star's leaves are exact twins: one similarity vertex, however many
    # there are.  Every size takes the best of 3 against host noise, and
    # each repetition times the sizes in turn, so that a drift of the host's
    # speed reaches every size alike.  Each run is timed with the cyclic
    # collector paused, as `cli.main` runs every command, so that passes
    # over the test session's own heap are not timed
    t0 = time.perf_counter()
    sizes = (1_000, 2_000, 4_000, 8_000, 16_000)
    slopes = {}
    enabled = gc.isenabled()
    for hubs in (1, 2):
        graphs = [_star(hubs, leaves) for leaves in sizes]
        best = [math.inf] * len(sizes)
        for _ in range(3):
            for i, g in enumerate(graphs):
                gc.disable()
                try:
                    start = time.perf_counter()
                    run(g, RunConfig(seed=0))
                    best[i] = min(best[i], time.perf_counter() - start)
                finally:
                    if enabled:
                        gc.enable()
        slopes[hubs] = float(np.polyfit(np.log(sizes), np.log(best), 1)[0])
    edges = tmp_path / "star.tsv"
    edges.write_text("".join(f"h{h}\tleaf{i}\n" for h in range(2) for i in range(16_000)))
    args = ["-i", str(edges), "--json", str(tmp_path / "report.json")]
    codes = (main(["summarize", *args]), main(["verify", *args]))
    verified = capsys.readouterr().out.splitlines()[-1]
    elapsed = time.perf_counter() - t0
    report(
        13,
        "one- and two-hub star log-log time/leaves slope, 16k-leaf round trip",
        max(slopes.values()) <= 1.2 and codes == (0, 0) and verified.startswith("OK")
        and elapsed < 120.0,
        f"slopes={ {h: round(v, 3) for h, v in slopes.items()} } (limit 1.2), "
        f"round trip exit codes={codes}, {verified!r}, elapsed={elapsed:.1f}s (budget 120s)",
    )


def test_criterion_11_minhash_collision_rate_matches_similarity():
    # out-neighbor sets sharing 2/8, 4/8, and 6/8 elements
    designs = {
        0.25: (set(range(2, 7)), set(range(5, 10))),
        0.50: (set(range(2, 8)), set(range(4, 10))),
        0.75: (set(range(2, 9)), set(range(3, 10))),
    }
    r, bands = 8, 1250  # 10^4 single-row trials
    results = []
    ok = True
    for j_target, (set_a, set_b) in designs.items():
        edges = {(0, w): 1 for w in set_a}
        edges.update({(1, w): 1 for w in set_b})
        g = LabeledMultiGraph(10, edges)
        assert directed_jaccard(g, 0, 1) == pytest.approx(j_target)
        hits = 0
        for band in range(1, bands + 1):
            sig = minhash_band(g, band, seed=0, r=r)
            hits += int(np.sum(sig[0] == sig[1]))
        trials = bands * r
        sigma = math.sqrt(trials * j_target * (1 - j_target))
        dev = abs(hits - trials * j_target)
        ok = ok and dev <= 3 * sigma
        results.append(f"J={j_target}: {hits}/{trials} ({dev / sigma:.2f}σ)")
    report(
        11,
        "minhash row collisions match similarity within 3σ",
        ok,
        "; ".join(results),
    )
