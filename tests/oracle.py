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

``oracle_reconstruct`` is the dict decompression that
:func:`lmgsum.summary.reconstruct` replaced with the array decoding of
:mod:`lmgsum.verify`, and ``oracle_validate`` the per-node check that
``SummaryGraph.validate`` replaced with the same decoding.
``oracle_verify`` is the object path that ``lmgsum verify`` took before it
decided every report on arrays: summary objects, ``oracle_validate``,
the correction set's rows one at a time, the dict decompression and a
comparison of sorted text dumps.

``oracle_score`` is the merge state's proposal scoring as it was before
a proposal was built by extending a partial one: every member's edges are
read anew and every old context touching a member is priced, without the
state's memos.

``OracleLshState`` is the LSH sweep as it was before twin contraction and
batched verification: every node is a similarity vertex, and each pair is
verified by one ``directed_jaccard`` call, admitted or cached as soon as
it is computed.  ``oracle_mix64`` is the splitmix64 finalizer on
Python ints, the reference for the in-place array mixer.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations, product

import numpy as np

from lmgsum.candidates import (
    Candidate,
    PairCache,
    SimilarityGraph,
    _band_keys,
    directed_jaccard,
    minhash_band,
    threshold,
)
from lmgsum.encoding import (
    CostBreakdown,
    cost_node_map,
    summary_width_bits,
    super_edge_bits,
    supernode_own_bits,
)
from lmgsum.graph import MAX_MULT, GraphFormatError, LabeledMultiGraph
from lmgsum.merge import (
    MergeProposal,
    _glyph_of,
    decide_super_edge,
    representative_multiplicity,
)
from lmgsum.summary import (
    STAR_GLYPHS,
    CorrectionSet,
    Glyph,
    SuperNode,
    corrections_from_dict,
    node_context_bits,
    pair_context_bits,
    summary_from_dict,
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


def oracle_context_bits(region: int, x_size: int, rep, covered, free) -> float:
    """A context's correction bits term by term: each covered multiplicity
    against ``rep``, each free one as a positive correction, then the
    bundle of X's pairs without an edge and the bundle of the positives
    outside X, where X (``x_size`` of the ``region`` pairs) or its
    complement is non-empty."""
    bits = sum(oell_diff(m, rep) for m in covered) + sum(olen_natural(m) for m in free)
    if x_size:
        bits += obundle(x_size - len(covered), x_size)
    if region > x_size:
        bits += obundle(len(free), region - x_size)
    return bits


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


def oracle_scan_rep_mult(mults) -> tuple[int, float]:
    """:func:`oracle_rep_mult` as a NumPy scan, for ranges too wide for the
    loop: every integer in [min, max], on exact int64 differences.  Each
    distinct value is priced once and weighted by its count, in that
    order, as the engine sums them, so the costs compare with ``==``."""
    values, counts = np.unique(np.asarray(mults, dtype=np.int64), return_counts=True)
    weights = counts.astype(np.float64)
    lo, width = values[0], int(values[-1] - values[0]) + 1
    rows = max(1, (1 << 18) // len(values))
    best_m, best_cost = None, None
    for start in range(0, width, rows):
        # offsets from lo, so that no step passes 2^63 - 1
        m = lo + np.arange(start, min(start + rows, width), dtype=np.int64)
        diffs = np.abs(m[:, None] - values)
        bits = np.where(diffs == 0, 1.0, 2.0 * np.log2(np.maximum(diffs, 1.0)) + 3.0)
        costs = (bits * weights).sum(axis=1)
        i = int(np.argmin(costs))
        if best_cost is None or costs[i] < best_cost:
            best_m, best_cost = int(m[i]), float(costs[i])
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


def oracle_cliques_through(gsim, u, excluded):
    """The recursive form of ``SimilarityGraph.cliques_through``: the
    reference for the order in which its explicit stack visits branches.

    Its depth is the clique size, so it stops at Python's recursion limit.
    """
    adj = gsim.adj
    nbr_set = adj[u]
    nbrs = sorted(nbr_set)
    bit = {w: 1 << i for i, w in enumerate(nbrs)}
    nb = [None] * len(nbrs)

    def build(i):
        m = 0
        for y in adj[nbrs[i]] & nbr_set:
            m |= bit[y]
        nb[i] = m
        return m

    p = x = 0
    for w, b in bit.items():
        if w in excluded:
            x |= b
        else:
            p |= b
    masks = []

    def expand(r, p, x):
        if not p:
            if not x:
                masks.append(r)
            return
        size_p = p.bit_count()
        best = -1
        scan = p | x
        while scan:
            low = scan & -scan
            scan ^= low
            i = low.bit_length() - 1
            m = nb[i] if nb[i] is not None else build(i)
            covered = (p & m).bit_count()
            if covered > best:
                best, pivot_mask = covered, m
                if covered == size_p:
                    break
        rest = p & ~pivot_mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            m = nb[i] if nb[i] is not None else build(i)
            expand(r | low, p & m, x & m)
            p ^= low
            x |= low

    expand(0, p, x)
    return [
        tuple(sorted([u] + [nbrs[i] for i in range(len(nbrs)) if r >> i & 1]))
        for r in masks
    ]


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


def node_to_super(summary) -> dict[int, int]:
    """Every member node's super-node id."""
    return {u: vid for vid, sn in summary.super_nodes.items() for u in sn.members}


def oracle_group_edges(g, summary):
    """Split g's edges into per-super-node internal and per-pair cross lists."""
    assign = node_to_super(summary)
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
    """Per-edge reference for ``compute_corrections``, the same rows in
    context order: node contexts in the summary's order, then the cross
    edges of unlinked pairs, then the super-edge contexts, pairs sorted;
    ``compute_corrections`` emits each kind's rows sorted."""
    positive, negative, mult_deltas = [], [], []
    internal, cross = oracle_group_edges(g, summary)

    for vid, sn in summary.super_nodes.items():
        present = {(u, w): m for (u, w, m) in internal.get(vid, [])}
        for pair in sn.glyph_pairs():
            if pair in present:
                if present[pair] != sn.rep_mult:
                    mult_deltas.append((*pair, present[pair] - sn.rep_mult))
            else:
                negative.append(pair)
        if sn.self_loop:
            for u in sn.members:
                if (u, u) in present:
                    if present[(u, u)] != sn.rep_mult:
                        mult_deltas.append((u, u, present[(u, u)] - sn.rep_mult))
                else:
                    negative.append((u, u))
        for (u, w), m in sorted(present.items()):
            if not sn.covers_pair(u, w):
                positive.append((u, w, m))

    linked = set(summary.super_edges)
    for (a, b), edges in sorted(cross.items()):
        if (a, b) in linked:
            continue
        for u, w, m in sorted(edges):
            positive.append((u, w, m))

    for (a, b), rep in sorted(summary.super_edges.items()):
        present = {(u, w): m for (u, w, m) in cross.get((a, b), [])}
        ports_a = summary.super_nodes[a].ports()
        ports_b = summary.super_nodes[b].ports()
        for u in ports_a:
            for w in ports_b:
                if (u, w) in present:
                    if present[(u, w)] != rep:
                        mult_deltas.append((u, w, present[(u, w)] - rep))
                else:
                    negative.append((u, w))
        for (u, w), m in sorted(present.items()):
            if not (u in ports_a and w in ports_b):
                positive.append((u, w, m))

    return CorrectionSet(positive, negative, mult_deltas)


# -- the object path: dict decompression and verify ---------------------------


def oracle_expand(summary) -> tuple[dict[tuple[int, int], int], list[int]]:
    """The summary's expansion as an ``{(u, w): mult}`` dict, and each
    node's label."""
    edges: dict[tuple[int, int], int] = {}
    labels = [0] * summary.graph_size
    for sn in summary.super_nodes.values():
        for u in sn.members:
            labels[u] = sn.label
        for pair in sn.glyph_pairs():
            edges[pair] = sn.rep_mult
        if sn.self_loop:
            for u in sn.members:
                edges[(u, u)] = sn.rep_mult
    for (a, b), m in summary.super_edges.items():
        sa, sb = summary.super_nodes[a], summary.super_nodes[b]
        for pair in product(sa.ports(), sb.ports()):
            edges[pair] = m
    return edges, labels


def oracle_validate(summary, g=None) -> None:
    """Check a summary's structure one node and one super-edge at a time,
    and with ``g`` its labels; raises ValueError on violation."""
    seen: set[int] = set()
    for sn in summary.super_nodes.values():
        for u in sn.members:
            if u in seen:
                raise ValueError(f"node {u} in two super-nodes")
            if not (0 <= u < summary.graph_size):
                raise ValueError(f"member {u} out of range")
            seen.add(u)
    if len(seen) != summary.graph_size:
        raise ValueError("super-nodes must cover every node")
    for (a, b), m in summary.super_edges.items():
        if a == b:
            raise ValueError("super-edge endpoints must differ")
        if a not in summary.super_nodes or b not in summary.super_nodes:
            raise ValueError("super-edge endpoint missing")
        if m < 1:
            raise ValueError("super-edge multiplicity must be >= 1")
    if g is not None:
        for sn in summary.super_nodes.values():
            labels = {int(g.labels[u]) for u in sn.members}
            if labels != {sn.label}:
                raise ValueError(f"super-node {sn.id} mixes labels {sorted(labels)}")


def oracle_reconstruct(summary, corrections: CorrectionSet) -> LabeledMultiGraph:
    """Apply the corrections to the dict expansion one at a time: the
    positives, the negatives, then the deltas, in list order."""
    edges, labels = oracle_expand(summary)
    for u, w, m in corrections.positive.tolist():
        if (u, w) in edges:
            raise ValueError(f"positive correction for existing edge ({u}, {w})")
        edges[(u, w)] = m
    for u, w in corrections.negative.tolist():
        if (u, w) not in edges:
            raise ValueError(f"negative correction for missing edge ({u}, {w})")
        del edges[(u, w)]
    for u, w, delta in corrections.mult_deltas.tolist():
        if (u, w) not in edges:
            raise ValueError(f"multiplicity delta for missing edge ({u}, {w})")
        edges[(u, w)] += delta
        if edges[(u, w)] < 1:
            raise ValueError(f"multiplicity of ({u}, {w}) dropped below 1")
    return LabeledMultiGraph(
        summary.graph_size,
        edges,
        labels=labels,
        label_names=summary.label_names or None,
        node_names=summary.node_names or None,
    )


def oracle_verify(g, payload: dict) -> tuple[int, LabeledMultiGraph | None]:
    """``lmgsum verify``'s exit code on the parsed report ``payload``, and
    the reconstruction (None for a malformed report, exit 3)."""
    try:
        summary = summary_from_dict(payload["summary"])
        oracle_validate(summary)
        corrections = corrections_from_dict(summary, payload["corrections"])
        recon = oracle_reconstruct(summary, corrections)
    except (KeyError, OverflowError, TypeError, ValueError):
        return 3, None
    return (0 if g.canonical_dump() == recon.canonical_dump() else 1), recon


def oracle_correction_cost(g, summary) -> tuple[float, dict]:
    """Per-edge reference for the correction side of ``total_cost``: the
    bits of every map and context, keyed ("map", v), ("node", v) and
    ("pair", a, b), priced by the same context functions."""
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
    return math.fsum(breakdown.values()), breakdown


def oracle_summary_terms(summary) -> list[float]:
    """The summary side's terms, counted with plain dicts: the width of the
    out-super-edge-count histogram, each super-node's own bits and each
    super-edge's bits."""
    out_degree = dict.fromkeys(summary.super_nodes, 0)
    for a, _b in summary.super_edges:
        out_degree[a] += 1
    histogram: dict[int, int] = {}
    for d in out_degree.values():
        histogram[d] = histogram.get(d, 0) + 1
    terms = [summary_width_bits(len(summary.super_nodes), summary.label_count, histogram)]
    for sn in summary.super_nodes.values():
        terms.append(supernode_own_bits(len(sn.members), sn.rep_mult))
    for m in summary.super_edges.values():
        terms.append(super_edge_bits(m))
    return terms


def oracle_total_cost_exact(g, summary) -> CostBreakdown:
    """Per-edge reference for ``total_cost``, equal to it bit for bit."""
    corr, _ = oracle_correction_cost(g, summary)
    return CostBreakdown(
        summary_bits=math.fsum(oracle_summary_terms(summary)), correction_bits=corr
    )


def _utf8_lines(path, fh):
    """The numbered lines of a text file opened with ``surrogateescape``;
    the first line that is not valid UTF-8 (it decodes to a lone
    surrogate) raises the loader's error naming it."""
    for line_num, line in enumerate(fh, start=1):
        if any("\udc80" <= c <= "\udcff" for c in line):
            raise GraphFormatError(f"{path}:{line_num}: not valid UTF-8")
        yield line_num, line


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

    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_num, raw in _utf8_lines(path, fh):
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
    with open(labels_path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_num, raw in _utf8_lines(labels_path, fh):
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


def oracle_mix64(x: int) -> int:
    """The splitmix64 finalizer of the low 64 bits of ``x``, on Python ints:
    the reference for ``candidates._mix64``."""
    mask = (1 << 64) - 1
    x &= mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


class OracleLshState:
    """The LSH sweep without twin contraction, pair by pair: the reference
    for :class:`lmgsum.candidates.LshState`.

    Every tokenful node is hashed and bucketed, every bucket member is
    unioned with its bucket's first, each windowed pair is verified with
    ``directed_jaccard`` as it is visited and admitted or cached at once,
    and ``harvest_cliques`` runs :func:`oracle_harvest` on the similarity
    graph over all nodes.  Twins are verified and searched pair by pair.
    """

    def __init__(self, g, r=8, b_max=10, seed=0, cluster_cap=5000):
        self.g = g
        self.r = r
        self.b_max = b_max
        self.seed = seed
        self.t_min = threshold(b_max, r)
        self.bands_added = 0
        self.parent = list(range(g.n))
        degrees = (np.diff(g.out_indptr) + np.diff(g.in_indptr)).tolist()
        self.members = {v: [(d, v)] for v, d in enumerate(degrees)}
        self.verified = set()
        self.gsim = SimilarityGraph()
        self.cache = PairCache()
        self.max_clique_size = {}
        self.emitted = set()
        self.merge_budget = cluster_cap * 8

    def _find(self, x):
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def _window(self, arr, deg):
        lo = int(np.floor(deg * self.t_min))
        hi = int(np.ceil(deg / self.t_min))
        return arr[bisect_left(arr, (lo,)) : bisect_left(arr, (hi + 1,))]

    def _union(self, a, b, t):
        """Coalesce two clusters, verifying each windowed pair as it is visited."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        small, large = self.members[ra], self.members[rb]
        if len(small) > len(large):
            ra, rb = rb, ra
            small, large = large, small
        checks = 0
        for deg, u in small:
            if checks >= self.merge_budget:
                break
            for _dw, w in self._window(large, deg):
                checks += 1
                key = (u, w) if u < w else (w, u)
                if key not in self.verified:
                    self.verified.add(key)
                    j = directed_jaccard(self.g, u, w)
                    if j >= t:
                        self.gsim.add_edge(u, w, j)
                    elif j >= self.t_min:
                        self.cache.push(j, u, w)
                if checks >= self.merge_budget:
                    break
        self.parent[ra] = rb
        del self.members[ra]
        large.extend(small)
        large.sort()

    def add_band(self):
        """Hash, bucket, coalesce and verify every pair on its own, then
        promote cached pairs."""
        self.bands_added += 1
        t = threshold(self.bands_added, self.r)
        sig = minhash_band(self.g, self.bands_added, self.seed, self.r)
        active = np.nonzero(np.diff(self.g.token_array()[1]) > 0)[0]
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
                self._union(first, other, t)
        for j, u, v in self.cache.pop_at_least(t):
            self.gsim.add_edge(u, v, j)

    def harvest_cliques(self):
        new_edges, self.gsim.new_edges = self.gsim.new_edges, []
        return [
            Candidate(nodes, quality, self.bands_added)
            for nodes, quality in oracle_harvest(
                self.gsim, new_edges, self.max_clique_size, self.emitted
            )
        ]


def oracle_score(state, members: list[int]):
    """The proposal that merges ``members`` (label-homogeneous, unmarked,
    two or more) into one super-node of ``state``, priced from scratch.

    This is the merge state's scoring as it was before a proposal was
    built by extension: every member's edges are read from the graph's
    arrays, every old context touching a member is priced, and nothing is
    taken from the state's memos (each context by
    :func:`pair_context_bits` or :func:`node_context_bits`, each bundle by
    :func:`decide_super_edge`).
    """
    g, assign, snodes, out_se = state.g, state.assign, state.snodes, state.out_se
    member_set = set(members)
    k = len(members)

    # every edge touching a member: internal, bundled, and by old pair
    internal: list[tuple[int, int, int]] = []
    out_b: dict[int, list] = {}
    in_b: dict[int, list] = {}
    old_pairs: dict[tuple[int, int], list] = {}
    for u in sorted(member_set):
        a = assign[u]
        targets, mults = g.out_edges(u)
        for w, m in zip(targets.tolist(), mults.tolist()):
            edge = (u, w, m)
            b = assign[w]
            if w in member_set:
                internal.append(edge)
            else:
                out_b.setdefault(b, []).append(edge)
            if a != b:
                old_pairs.setdefault((a, b), []).append(edge)
        sources, mults = g.in_edges(u)
        for w, m in zip(sources.tolist(), mults.tolist()):
            if w not in member_set:
                edge = (w, u, m)
                b = assign[w]
                in_b.setdefault(b, []).append(edge)
                old_pairs.setdefault((b, a), []).append(edge)

    glyph, hub = _glyph_of(members, internal)
    loops = {u: m for u, w, m in internal if u == w}
    new_node = SuperNode(
        id=state.next_id,
        label=int(g.labels[members[0]]),
        glyph=glyph,
        members=tuple(members),
        hub=hub,
        rep_mult=1,
        self_loop=2 * len(loops) >= k,
    )
    covered = [m for u, w, m in internal if new_node.covers_pair(u, w)]
    rep = representative_multiplicity(covered)[0] if covered else 1
    new_node.rep_mult = rep
    absorbed = tuple(sorted(assign[u] for u in members))

    # ---- terms the merge removes, negated
    d_summary: list[float] = [-state._width]
    d_correction: list[float] = []
    odeg_delta: dict[int, int] = {}
    for sid in absorbed:
        sn = snodes[sid]
        out = out_se.get(sid, {})
        (u,) = sn.members
        d_correction.append(-cost_node_map(1, g.n, False))
        d_correction.append(-node_context_bits(sn, [(u, u, loops[u])] if u in loops else []))
        d_summary.append(-supernode_own_bits(1, sn.rep_mult))
        d_summary.extend(-super_edge_bits(m) for m in out.values())
        odeg_delta[len(out)] = odeg_delta.get(len(out), 0) - 1
    se_change: dict[int, int] = {}
    dissolved: list[tuple[int, int]] = []
    for (a, b), edges in sorted(old_pairs.items()):
        rep_ab = out_se.get(a, {}).get(b)
        d_correction.append(-pair_context_bits(snodes[a], snodes[b], rep_ab, edges))
        if rep_ab is not None:
            dissolved.append((a, b))
            if a not in absorbed:
                d_summary.append(-super_edge_bits(rep_ab))
                se_change[a] = se_change.get(a, 0) - 1

    # ---- terms the merge adds
    d_correction.append(cost_node_map(k, g.n, glyph in STAR_GLYPHS))
    d_correction.append(node_context_bits(new_node, internal))
    out_edges: dict[int, int] = {}
    in_edges: dict[int, int] = {}
    for other in sorted(out_b):
        se_rep, bits = decide_super_edge(new_node, snodes[other], out_b[other])
        d_correction.append(bits)
        if se_rep is not None:
            out_edges[other] = se_rep
    for other in sorted(in_b):
        se_rep, bits = decide_super_edge(snodes[other], new_node, in_b[other])
        d_correction.append(bits)
        if se_rep is not None:
            in_edges[other] = se_rep
            se_change[other] = se_change.get(other, 0) + 1
    odeg_delta[len(out_edges)] = odeg_delta.get(len(out_edges), 0) + 1
    for other, change in sorted(se_change.items()):
        if change:
            d_old = len(out_se.get(other, {}))
            odeg_delta[d_old] = odeg_delta.get(d_old, 0) - 1
            odeg_delta[d_old + change] = odeg_delta.get(d_old + change, 0) + 1
    d_summary.append(supernode_own_bits(k, rep))
    d_summary.extend(super_edge_bits(m) for m in [*out_edges.values(), *in_edges.values()])
    new_hist = dict(state.odeg_hist)
    for d, c in odeg_delta.items():
        new_hist[d] = new_hist.get(d, 0) + c
    width = summary_width_bits(
        len(snodes) - len(absorbed) + 1,
        g.label_count,
        {d: c for d, c in new_hist.items() if c},
    )
    d_summary.append(width)
    return MergeProposal(
        node=new_node,
        out_edges=out_edges,
        in_edges=in_edges,
        absorbed=absorbed,
        dissolved=dissolved,
        dcost=math.fsum(d_summary + d_correction),
        d_summary=d_summary,
        d_correction=d_correction,
        odeg_delta=odeg_delta,
        width=width,
    )
