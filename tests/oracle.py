"""Brute-force reference implementations, independent of production code.

Everything here recomputes costs from first principles with plain loops,
dicts, and exact integer binomials (math.comb), so tests can pin the
incremental engine against values derived by an implementation that shares
no bookkeeping with it.  Deliberately slow; only for small inputs.

The exact references at the end (``oracle_compute_corrections`` and the
correction-cost functions) are the exception: they group edges with plain
dicts, one edge at a time, but call the production per-context cost
functions, so the array grouping in :mod:`lmgsum.summary` must match them
bit for bit, not just within a tolerance.

``oracle_load_graph`` is the per-line edge- and label-file parser that the
whole-file paths of ``load_graph`` must agree with: the same graph, names
and error messages.

``oracle_add_band`` is ``LshState.add_band`` as it was before the batched
verification: one ``directed_jaccard`` call per pair, admitted or cached
as soon as it is computed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from lmgsum.candidates import _band_keys, directed_jaccard, minhash_band, threshold
from lmgsum.encoding import CostBreakdown, cost_node_map, cost_summary
from lmgsum.graph import MAX_MULT, GraphFormatError, LabeledMultiGraph
from lmgsum.summary import (
    STAR_GLYPHS,
    CorrectionSet,
    Glyph,
    node_context_bits,
    pair_context_bits,
)


def olen_natural(k: int) -> float:
    assert k >= 1
    return 2.0 * math.log2(k) + 1.0


def olog2_binomial(n: int, k: int) -> float:
    return math.log2(math.comb(n, k))


def oell_diff(m_prime: int, m: int) -> float:
    if m_prime == m:
        return 1.0
    return 2.0 * math.log2(abs(m - m_prime)) + 3.0


def obundle(n_corrections: int, n_max: int) -> float:
    if n_corrections == 0:
        return 1.0
    return olen_natural(n_corrections) + olog2_binomial(n_max, n_corrections)


def oracle_rep_mult(mults) -> tuple[int, float]:
    """Exhaustive scan of every integer in [min, max]; ties -> smallest."""
    mults = list(mults)
    assert mults
    lo, hi = min(mults), max(mults)
    best_m, best_cost = None, None
    for m in range(lo, hi + 1):
        cost = sum(oell_diff(mp, m) for mp in mults)
        if best_cost is None or cost < best_cost:
            best_m, best_cost = m, cost
    return best_m, best_cost


def _glyph_expansion(glyph: Glyph, members, hub, self_loop: bool):
    """Ordered pairs the glyph covers, self-loop diagonal included."""
    pairs = set()
    if glyph is Glyph.CLIQUE:
        for u in members:
            for w in members:
                if u != w:
                    pairs.add((u, w))
    elif glyph is Glyph.IN_STAR:
        for u in members:
            if u != hub:
                pairs.add((u, hub))
    elif glyph is Glyph.OUT_STAR:
        for w in members:
            if w != hub:
                pairs.add((hub, w))
    if self_loop:
        for u in members:
            pairs.add((u, u))
    return pairs


def oracle_total_cost(g, summary) -> float:
    """Two-part description length recomputed from scratch.

    Walks every ordered node pair exactly once via its owning context:
    the enclosing super-node for internal pairs (diagonal included), the
    ordered super-node pair otherwise.
    """
    snodes = dict(summary.super_nodes)
    sedges = dict(summary.super_edges)
    n_s = len(snodes)
    label_count = summary.label_count

    out_mults: dict[int, list[int]] = {sid: [] for sid in snodes}
    for (a, _b), m in sedges.items():
        out_mults[a].append(m)

    bits = olen_natural(n_s) + olen_natural(label_count)
    for sid, sn in snodes.items():
        bits += math.log2(label_count)
        bits += math.log2(5)
        bits += olen_natural(len(sn.members))
        bits += olen_natural(sn.rep_mult)
        bits += math.log2(n_s + 1)
        bits += olog2_binomial(n_s, len(out_mults[sid]))
        bits += sum(olen_natural(m) for m in out_mults[sid])

    assign = {}
    for sid, sn in snodes.items():
        for u in sn.members:
            assign[u] = sid

    edges = {(u, w): m for u, w, m in g.edges()}
    internal: dict[int, dict] = {sid: {} for sid in snodes}
    cross: dict[tuple[int, int], dict] = {}
    for (u, w), m in edges.items():
        a, b = assign[u], assign[w]
        if a == b:
            internal[a][(u, w)] = m
        else:
            cross.setdefault((a, b), {})[(u, w)] = m

    for sid, sn in snodes.items():
        bits += olog2_binomial(g.n, len(sn.members))
        if sn.glyph in STAR_GLYPHS:
            bits += math.log2(len(sn.members))
        k = len(sn.members)
        region = k * k
        x_pairs = _glyph_expansion(sn.glyph, sn.members, sn.hub, sn.self_loop)
        present = internal[sid]
        covered = [m for (p, m) in present.items() if p in x_pairs]
        positives = [m for (p, m) in present.items() if p not in x_pairs]
        if len(x_pairs) >= 1:
            bits += obundle(len(x_pairs) - len(covered), len(x_pairs))
        if region - len(x_pairs) >= 1:
            bits += obundle(len(positives), region - len(x_pairs))
        bits += sum(oell_diff(m, sn.rep_mult) for m in covered)
        bits += sum(olen_natural(m) for m in positives)

    def ports(sn):
        if sn.glyph in STAR_GLYPHS:
            return (sn.hub,)
        return sn.members

    for a, b in sorted(set(cross) | set(sedges)):
        sa, sb = snodes[a], snodes[b]
        region = len(sa.members) * len(sb.members)
        present = cross.get((a, b), {})
        if (a, b) not in sedges:
            if present:
                bits += obundle(len(present), region)
                bits += sum(olen_natural(m) for m in present.values())
            continue
        rep = sedges[(a, b)]
        x_pairs = {(u, w) for u in ports(sa) for w in ports(sb)}
        covered = [m for (p, m) in present.items() if p in x_pairs]
        positives = [m for (p, m) in present.items() if p not in x_pairs]
        bits += obundle(len(x_pairs) - len(covered), len(x_pairs))
        if region - len(x_pairs) >= 1:
            bits += obundle(len(positives), region - len(x_pairs))
        bits += sum(oell_diff(m, rep) for m in covered)
        bits += sum(olen_natural(m) for m in positives)

    return bits


def oracle_maximal_cliques(adj: dict[int, set[int]], nodes) -> list[tuple[int, ...]]:
    """Every maximal clique of the graph induced on <= 12 nodes, by full

    subset enumeration."""
    nodes = sorted(nodes)
    if len(nodes) > 12:
        raise ValueError("oracle_maximal_cliques is limited to 12 nodes")
    cliques = []
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if all(v in adj.get(u, set()) for u, v in combinations(subset, 2)):
                cliques.append(set(subset))
    maximal = [
        c for c in cliques if not any(c < other for other in cliques)
    ]
    return sorted(tuple(sorted(c)) for c in maximal)


def oracle_best_glyph(g, members) -> tuple[Glyph, int | None]:
    """Glyph (and hub) minimizing the exact internal correction bits.

    For every glyph and every hub choice, prices the data-given-model
    part of the member region exactly: the negative bundle for promised
    but absent pairs, multiplicity deltas against the best representative
    for covered edges, and the positive bundle plus payload for edges the
    glyph does not cover.  The glyph's own encoding overhead (hub pointer,
    representative) is model-side and out of scope: this ranks structure
    shapes by what they explain.  Ties resolve in scan order: clique,
    in-star, out-star, disconnected, each with ascending hubs.
    """
    members = tuple(sorted(members))
    if len(members) > 12:
        raise ValueError("oracle_best_glyph is limited to 12 nodes")
    k = len(members)
    region = k * k
    loops = sum(1 for v in members if g.multiplicity(v, v))
    self_loop = 2 * loops >= k
    present = {
        (u, w): g.multiplicity(u, w)
        for u in members
        for w in members
        if g.multiplicity(u, w)
    }

    configs = (
        [(Glyph.CLIQUE, None)]
        + [(Glyph.IN_STAR, h) for h in members]
        + [(Glyph.OUT_STAR, h) for h in members]
        + [(Glyph.DISCONNECTED, None)]
    )

    best = None
    for glyph, hub in configs:
        x_pairs = _glyph_expansion(glyph, members, hub, self_loop)
        covered = [m for p, m in present.items() if p in x_pairs]
        extra = [m for p, m in present.items() if p not in x_pairs]
        bits = oracle_rep_mult(covered)[1] if covered else 0.0
        if len(x_pairs) >= 1:
            bits += obundle(len(x_pairs) - len(covered), len(x_pairs))
        if region - len(x_pairs) >= 1:
            bits += obundle(len(extra), region - len(x_pairs))
        bits += sum(olen_natural(m) for m in extra)
        if best is None or bits < best[0] - 1e-12:
            best = (bits, glyph, hub)
    return best[1], best[2]


def oracle_decide_glyph(g, nodes) -> tuple[Glyph, int | None]:
    """``decide_glyph`` as it was before it shared the scoring scan: the
    same rules, read off a brute-force count of the set's induced edges."""
    members = sorted(set(int(u) for u in nodes))
    k = len(members)
    member_set = set(members)
    in_deg = dict.fromkeys(members, 0)
    out_deg = dict.fromkeys(members, 0)
    e_c = 0
    # distinct non-loop edges inside the set
    for u, w, _m in g.edges():
        if u != w and u in member_set and w in member_set:
            e_c += 1
            out_deg[u] += 1
            in_deg[w] += 1
    # argmax with ties resolved toward the smallest node id
    max_in_node = min(members, key=lambda v: (-in_deg[v], v))
    max_out_node = min(members, key=lambda v: (-out_deg[v], v))
    max_in, max_out = in_deg[max_in_node], out_deg[max_out_node]
    clique_threshold = k * (k - 1) / 2 if k > 2 else 2
    if e_c >= clique_threshold:
        return Glyph.CLIQUE, None
    cost_in = (k - 1 - max_in) + (e_c - max_in)
    cost_out = (k - 1 - max_out) + (e_c - max_out)
    in_wins = cost_in < e_c
    out_wins = cost_out < e_c
    if in_wins and (not out_wins or cost_in <= cost_out):
        return Glyph.IN_STAR, max_in_node
    if out_wins:
        return Glyph.OUT_STAR, max_out_node
    return Glyph.DISCONNECTED, None


def oracle_harvest(gsim, new_edges, max_clique_size, emitted):
    """Per-edge clique harvest: the reference for ``LshState.harvest_cliques``.

    For every new edge (u, v) whose size bound ``2 + |N(u) & N(v)|`` beats
    the recorded maximum of u or of v, lists the maximal cliques through
    both endpoints as {u, v} plus a maximal clique of the common
    neighborhood, found by pivoted Bron-Kerbosch on plain sets.  Updates
    ``max_clique_size`` and ``emitted`` in place once all edges are done and
    returns sorted ``(nodes, quality)`` pairs, quality being the minimum
    pairwise similarity.
    """
    adj = gsim.adj

    def max_cliques(subset):
        result = []

        def expand(r, p, x):
            if not p and not x:
                result.append(set(r))
                return
            pivot = max(p | x, key=lambda n: len(adj[n] & p))
            for n in sorted(p - adj[pivot]):
                nb = adj[n] & subset
                expand(r | {n}, p & nb, x & nb)
                p = p - {n}
                x = x | {n}

        expand(set(), set(subset), set())
        return result

    found = []
    for u, v in new_edges:
        common = adj[u] & adj[v]
        bound = 2 + len(common)
        if bound <= max_clique_size.get(u, 0) and bound <= max_clique_size.get(v, 0):
            continue
        for c in max_cliques(common) if common else [set()]:
            fs = frozenset(c | {u, v})
            if fs not in emitted:
                emitted.add(fs)
                found.append(fs)
    for fs in found:
        for x in fs:
            max_clique_size[x] = max(max_clique_size.get(x, 0), len(fs))
    return sorted(
        (
            tuple(sorted(fs)),
            min(gsim.jaccard[(a, b)] for a, b in combinations(sorted(fs), 2)),
        )
        for fs in found
    )


# -- exact references for the edge grouping ----------------------------------


def oracle_group_edges(g, summary):
    """Split g's edges into per-super-node internal and per-pair cross lists."""
    assign = summary.node_to_super()
    internal: dict[int, list[tuple[int, int, int]]] = {}
    cross: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for u, w, m in g.edges():
        a, b = assign[u], assign[w]
        if a == b:
            internal.setdefault(a, []).append((u, w, m))
        else:
            cross.setdefault((a, b), []).append((u, w, m))
    return internal, cross


def oracle_compute_corrections(g, summary) -> CorrectionSet:
    """Per-edge reference for ``compute_corrections``, same lists in the
    same order: node contexts in the summary's order, then the cross edges
    of unlinked pairs, then the super-edge contexts, pairs sorted."""
    cor = CorrectionSet()
    internal, cross = oracle_group_edges(g, summary)

    for vid, sn in summary.super_nodes.items():
        present = {(u, w): m for (u, w, m) in internal.get(vid, [])}
        for pair in sn.glyph_pairs():
            if pair in present:
                if present[pair] != sn.rep_mult:
                    cor.mult_deltas.append((*pair, present[pair] - sn.rep_mult))
            else:
                cor.negative.append(pair)
        if sn.self_loop:
            for u in sn.members:
                if (u, u) in present:
                    if present[(u, u)] != sn.rep_mult:
                        cor.mult_deltas.append((u, u, present[(u, u)] - sn.rep_mult))
                else:
                    cor.negative.append((u, u))
        for (u, w), m in sorted(present.items()):
            if not sn.covers_pair(u, w):
                cor.positive.append((u, w, m))

    linked = set(summary.super_edges)
    for (a, b), edges in sorted(cross.items()):
        if (a, b) in linked:
            continue
        for u, w, m in sorted(edges):
            cor.positive.append((u, w, m))

    for (a, b), rep in sorted(summary.super_edges.items()):
        present = {(u, w): m for (u, w, m) in cross.get((a, b), [])}
        ports_a = summary.super_nodes[a].ports()
        ports_b = summary.super_nodes[b].ports()
        for u in ports_a:
            for w in ports_b:
                if (u, w) in present:
                    if present[(u, w)] != rep:
                        cor.mult_deltas.append((u, w, present[(u, w)] - rep))
                else:
                    cor.negative.append((u, w))
        for (u, w), m in sorted(present.items()):
            if not (u in ports_a and w in ports_b):
                cor.positive.append((u, w, m))

    return cor


def oracle_correction_cost(g, summary) -> tuple[float, dict]:
    """Per-edge reference for ``correction_cost``: the same context keys,
    in the same order, priced by the same context functions."""
    internal, cross = oracle_group_edges(g, summary)
    breakdown: dict[tuple, float] = {}
    for vid, sn in summary.super_nodes.items():
        breakdown[("map", vid)] = cost_node_map(
            sn.size, summary.graph_size, sn.glyph in STAR_GLYPHS
        )
        breakdown[("node", vid)] = node_context_bits(sn, internal.get(vid, []))
    for a, b in sorted(set(cross) | set(summary.super_edges)):
        breakdown[("pair", a, b)] = pair_context_bits(
            summary.super_nodes[a],
            summary.super_nodes[b],
            summary.super_edges.get((a, b)),
            cross.get((a, b), []),
        )
    return sum(breakdown.values()), breakdown


def oracle_total_cost_exact(g, summary) -> CostBreakdown:
    """Per-edge reference for ``total_cost``, equal to it bit for bit."""
    corr, _ = oracle_correction_cost(g, summary)
    return CostBreakdown(summary_bits=cost_summary(summary), correction_bits=corr)


def oracle_load_graph(path: str, undirected: bool = False, labels_path: str | None = None):
    """The per-line loader, kept as the reference for the bulk parses.

    One line at a time into a per-edge dict, then the label file one line
    at a time, as ``load_graph`` read every file before it grew its
    whole-file paths.
    """
    name_to_id: dict[str, int] = {}
    edges: dict[tuple[int, int], int] = {}

    def node_id(name: str) -> int:
        if name not in name_to_id:
            name_to_id[name] = len(name_to_id)
        return name_to_id[name]

    with open(path, encoding="utf-8") as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = [p.strip() for p in line.split("\t")]
            if len(parts) == 2:
                src, dst, mult_s = parts[0], parts[1], "1"
            elif len(parts) == 3:
                src, dst, mult_s = parts
            else:
                raise GraphFormatError(
                    f"{path}:{line_num}: expected 'src<TAB>dst[<TAB>mult]', "
                    f"got {len(parts)} fields"
                )
            if not src or not dst:
                raise GraphFormatError(f"{path}:{line_num}: empty node id")
            try:
                mult = int(mult_s)
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{line_num}: multiplicity {mult_s!r} is not an integer"
                ) from None
            if mult < 1:
                raise GraphFormatError(
                    f"{path}:{line_num}: multiplicity must be >= 1, got {mult}"
                )
            u, w = node_id(src), node_id(dst)
            total = edges.get((u, w), 0) + mult
            if total > MAX_MULT:
                raise GraphFormatError(
                    f"{path}:{line_num}: multiplicity {total} of {src!r} -> {dst!r} "
                    f"exceeds 2^63-1"
                )
            edges[(u, w)] = total
            if undirected and u != w:
                edges[(w, u)] = total
    if not name_to_id:
        raise GraphFormatError(f"{path}: no edges found")
    n = len(name_to_id)
    node_names = list(name_to_id)
    if labels_path is None:
        return LabeledMultiGraph(n, edges, node_names=node_names)

    labels = [0] * n
    label_to_id: dict[str, int] = {}
    seen: dict[int, str] = {}
    with open(labels_path, encoding="utf-8") as fh:
        for line_num, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = [p.strip() for p in line.split("\t")]
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise GraphFormatError(
                    f"{labels_path}:{line_num}: expected 'node<TAB>label'"
                )
            name, label = parts
            if name not in name_to_id:
                raise GraphFormatError(
                    f"{labels_path}:{line_num}: unknown node {name!r}"
                )
            v = name_to_id[name]
            if v in seen and seen[v] != label:
                raise GraphFormatError(
                    f"{labels_path}:{line_num}: conflicting label for {name!r}"
                )
            seen[v] = label
            if label not in label_to_id:
                label_to_id[label] = len(label_to_id)
            labels[v] = label_to_id[label]
    if len(seen) < n:
        missing = next(node_names[v] for v in range(n) if v not in seen)
        raise GraphFormatError(
            f"{labels_path}: {n - len(seen)} nodes without a label "
            f"(first: {missing!r})"
        )
    label_names = [""] * len(label_to_id)
    for label, i in label_to_id.items():
        label_names[i] = label
    return LabeledMultiGraph(
        n, edges, labels, label_names=label_names, node_names=node_names
    )


def _oracle_union(state, a: int, b: int, t: float) -> None:
    """Coalesce two clusters, verifying each windowed pair as it is visited."""
    ra, rb = state._find(a), state._find(b)
    if ra == rb:
        return
    small, large = state.members[ra], state.members[rb]
    if len(small) > len(large):
        ra, rb = rb, ra
        small, large = large, small
    checks = 0
    for deg, u in small:
        if checks >= state.merge_budget:
            break
        for _dw, w in state._window(large, deg):
            checks += 1
            key = (u, w) if u < w else (w, u)
            if key not in state.verified:
                state.verified.add(key)
                j = directed_jaccard(state.g, u, w)
                if j >= t:
                    state.gsim.add_edge(u, w, j)
                elif j >= state.t_min:
                    state.cache.push(j, u, w)
            if checks >= state.merge_budget:
                break
    state.parent[ra] = rb
    del state.members[ra]
    large.extend(small)
    large.sort()


def oracle_add_band(state) -> None:
    """The per-pair ``LshState.add_band``: hash, bucket, coalesce, and
    verify every pair on its own, then promote cached pairs."""
    state.bands_added += 1
    t = threshold(state.bands_added, state.r)
    sig = minhash_band(state.g, state.bands_added, state.seed, state.r)
    lengths = np.diff(state.g.token_array()[1])
    active = np.nonzero(lengths > 0)[0]
    if len(active) == 0:
        return
    keys = _band_keys(sig[active])
    order = np.argsort(keys, kind="stable")
    buckets: dict[int, list[int]] = {}
    for key, v in zip(keys[order].tolist(), active[order].tolist()):
        buckets.setdefault(key, []).append(v)
    for key in sorted(buckets):
        first, *others = buckets[key]
        for other in others:
            _oracle_union(state, first, other, t)
    for j, u, v in state.cache.pop_at_least(t):
        state.gsim.add_edge(u, v, j)
