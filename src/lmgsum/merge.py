"""Greedy merge engine: score and commit candidate node sets.

The engine owns a :class:`SummaryState` — a summary graph plus incremental
bookkeeping of its two-part description length.  Candidate node sets are
split by label, scored as merge proposals (glyph choice, self-loop flag,
representative multiplicity, and a super-edge-or-corrections decision for
every bundle of crossing edges), and committed only when they strictly
reduce the total cost.  Scoring never mutates the state, so rejecting a
proposal is free, and committed deltas are exact: after every commit the
running total equals a from-scratch recomputation, float for float.

This module only keeps books.  Every bit it counts, the all-singleton
baseline included, comes from the functions that
:func:`lmgsum.summary.total_cost` uses (the super-node parts in
:mod:`lmgsum.encoding`, the context costs in :mod:`lmgsum.summary`), so a
change to a formula reaches the greedy objective and the reported cost
together.  A proposal's ``dcost`` is the :func:`math.fsum` of the terms a
merge adds and, negated, of those it removes: its sign is the exact sign.

A proposal reads the member edges once: ``_gather_cross`` collects every
edge that touches a member, the glyph is decided from the internal ones
(by the routine :func:`decide_glyph` also uses), and every old context the
merge removes — the absorbed singletons' node contexts and each pair
context with an absorbed endpoint — is priced from those edges, grouped by
the current super-nodes of their endpoints.  Contexts whose price depends
on a small class key only, such as a one-edge pair context without a
super-edge, come from the state's :class:`~lmgsum.summary.ContextPrices`
memo, and each bundle's super-edge decision, which depends on a class key
of the bundle only, from the state's bundle memo (see
:func:`_bundle_choice`).  The width bits are computed once per proposal,
and a commit takes the proposal's value.  The old contexts, found from the
gathered edges, include every super-edge the merge dissolves because of
one invariant: each super-edge has at least one edge of the graph under
it.  A super-edge is only created over a non-empty list of covered edges,
graphs are immutable, and a multi-member super-node never changes, so the
invariant holds from commit to commit.

Only current singletons can be merged; once a node is absorbed into a
multi-member super-node it is marked and never regrouped.  Candidate sets
whose glyph comes out disconnected are additionally scored with one
candidate hub attached (the external singleton most members point to, or
are pointed to by) so that stars whose hub is dissimilar from its spokes —
which is the typical case — remain reachable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .encoding import (
    CostBreakdown,
    cost_node_map,
    ell_diff_array,
    summary_width_bits,
    super_edge_bits,
    supernode_own_bits,
)
from .graph import LabeledMultiGraph
from .summary import (
    Glyph,
    STAR_GLYPHS,
    ContextPrices,
    SummaryGraph,
    SuperNode,
    all_singleton_summary,
    node_context_bits,
    pair_context_bits,
    sorted_distinct,
)

#: exhaustive-scan window for the representative-multiplicity search
SCAN_LIMIT = 1024
PROBE_LIMIT = 256
#: most (candidate, distinct multiplicity) cells priced in one array
_PRICE_CELLS = 1 << 18


#: the smallest subnormal's inverse: every float is a whole number of 1/_UNIT
_UNIT = 1 << 1074


class MergeError(RuntimeError):
    pass


def _units(x: float) -> int:
    """``x`` exactly, in units of 2^-1074."""
    num, den = x.as_integer_ratio()
    # den is a power of two, 2^(bit_length - 1), and at most 2^1074
    return num << (1075 - den.bit_length())


def _exact_units(terms: list[float]) -> int:
    """The exact sum of ``terms``, in units of 2^-1074: each round's
    :func:`math.fsum` rounds what the partials found so far leave over."""
    total = 0
    partials: list[float] = []
    s = math.fsum(terms)
    while s:
        total += _units(s)
        partials.append(-s)
        s = math.fsum(chain(terms, partials))
    return total


def _distinct(values: np.ndarray) -> tuple[list[int], list[int], list[int]]:
    """Sorted distinct values, the index of each one's first occurrence, and
    how often each occurs."""
    uniq, first, counts = np.unique(values, return_index=True, return_counts=True)
    return uniq.tolist(), first.tolist(), counts.tolist()


def split_by_label(g: LabeledMultiGraph, nodes) -> list[list[int]]:
    """Partition a candidate set into label-homogeneous subsets of size >= 2.

    Size-1 subsets are dropped: a lone node cannot form a new super-node.
    """
    by_label: dict[int, list[int]] = {}
    for v in sorted(set(int(u) for u in nodes)):
        by_label.setdefault(int(g.labels[v]), []).append(v)
    return [group for _, group in sorted(by_label.items()) if len(group) >= 2]


def decide_glyph(g: LabeledMultiGraph, nodes) -> tuple[Glyph, int | None]:
    """A node set's glyph by a density and correction-count rule.

    The rule is a proxy: it prices no bits, so its glyph need not be the
    one the objective would pick.  A set with at least half of all possible
    directed edges is a clique.  Otherwise each star orientation counts the
    corrections its explanation needs (missing spokes plus unexplained
    edges); a star wins only when that count is strictly below the count of
    leaving all edges as corrections, ties between the two star
    orientations go to the in-star, and the hub is the member with maximum
    in- (or out-) degree, smallest id on ties.  Two-node sets need both
    directed edges to count as a clique — a single edge is the degenerate
    star, whose expansion matches either orientation exactly.  Self-loops
    count toward none of this.
    """
    members = sorted(set(int(u) for u in nodes))
    if len(members) < 2:
        raise ValueError("glyph decision needs at least two nodes")
    member_set = set(members)
    internal = [
        (u, w, 1) for u in members for w in g.out_neighbors(u).tolist() if w in member_set
    ]
    return _glyph_of(members, internal)


def _glyph_of(members: list[int], internal) -> tuple[Glyph, int | None]:
    """:func:`decide_glyph` of the sorted ``members`` from ``internal``,
    their induced edges ``(u, w, m)``, self-loops included."""
    k = len(members)
    in_deg = dict.fromkeys(members, 0)
    out_deg = dict.fromkeys(members, 0)
    e_c = 0
    for u, w, _m in internal:
        if u != w:
            e_c += 1
            out_deg[u] += 1
            in_deg[w] += 1
    clique_threshold = k * (k - 1) / 2 if k > 2 else 2
    if e_c >= clique_threshold:
        return Glyph.CLIQUE, None
    # argmax with ties resolved toward the smallest node id
    in_hub = min(members, key=lambda v: (-in_deg[v], v))
    out_hub = min(members, key=lambda v: (-out_deg[v], v))
    cost_in = (k - 1 - in_deg[in_hub]) + (e_c - in_deg[in_hub])
    cost_out = (k - 1 - out_deg[out_hub]) + (e_c - out_deg[out_hub])
    in_wins = cost_in < e_c
    out_wins = cost_out < e_c
    if in_wins and (not out_wins or cost_in <= cost_out):
        return Glyph.IN_STAR, in_hub
    if out_wins:
        return Glyph.OUT_STAR, out_hub
    return Glyph.DISCONNECTED, None


def representative_multiplicity(mults) -> tuple[int, float]:
    """Multiplicity minimizing the total multiplicity-correction bits.

    Scans the [min, max] range exhaustively when it spans at most
    SCAN_LIMIT values; that minimum is exact.  Wider ranges are narrowed
    by bisecting on the local slope, then the surviving window is scanned
    together with probes at and next to each distinct multiplicity: between
    consecutive data values the cost is a sum of concave terms, so its
    minimum sits at or adjacent to a data value.  The probes make that
    search exact only up to PROBE_LIMIT distinct values; beyond that they
    sample PROBE_LIMIT of them, and the pick can be worse than the scan's.
    Each distinct multiplicity is priced once and weighted by its count,
    in blocks of candidates, so memory stays bounded.  Ties go to the
    smallest multiplicity.
    """
    counted = sorted(Counter(mults).items())
    if not counted:
        raise ValueError("empty multiplicity list has no representative")
    (lo, count), (hi, _) = counted[0], counted[-1]
    if lo == hi:
        return lo, float(count)
    distinct, counts = zip(*counted)
    priced = np.array(distinct, dtype=np.float64)[None, :]
    weights = np.array(counts, dtype=np.float64)
    # candidates per block of at most _PRICE_CELLS (candidate, value) cells
    rows = max(1, _PRICE_CELLS // len(distinct))

    def batch_cost(candidates: np.ndarray) -> np.ndarray:
        return np.concatenate([
            (ell_diff_array(priced, candidates[i : i + rows, None]) * weights).sum(axis=1)
            for i in range(0, len(candidates), rows)
        ])

    if hi - lo <= SCAN_LIMIT:
        candidates = np.arange(lo, hi + 1, dtype=np.float64)
    else:

        def cost(m: int) -> float:
            return float(batch_cost(np.asarray([m], dtype=np.float64))[0])

        blo, bhi = lo, hi
        while bhi - blo > SCAN_LIMIT:
            mid = (blo + bhi) // 2
            if cost(mid) <= cost(mid + 1):
                bhi = mid
            else:
                blo = mid + 1
        values = np.array(distinct, dtype=np.int64)
        if len(values) > PROBE_LIMIT:
            # the positions lie more than 1 apart, so rounding keeps them distinct
            keep = np.linspace(0, len(values) - 1, PROBE_LIMIT).round().astype(int)
            values = values[keep]
        probes = np.clip(np.concatenate([values - 1, values, values + 1]), lo, hi)
        candidates = sorted_distinct(
            np.concatenate([np.arange(blo, bhi + 1, dtype=np.int64), probes])
        ).astype(np.float64)
    costs = batch_cost(candidates)
    best = int(np.argmin(costs))
    return int(candidates[best]), float(costs[best])


def decide_super_edge(
    src: SuperNode, dst: SuperNode, edges: list[tuple[int, int, int]]
) -> tuple[int | None, float]:
    """Super-edge or plain corrections for the original edges from ``src``'s
    members to ``dst``'s, whichever is cheaper.

    Returns (rep_mult, context_bits): rep_mult is None when the edges stay
    as positive corrections.  context_bits is the correction cost of the
    chosen option; the super-edge option additionally pays super_edge_bits
    on the summary side, which is included in the comparison here but
    charged to the source super-node by the caller.
    """
    without_bits = pair_context_bits(src, dst, None, edges)
    if not edges:
        return None, without_bits
    port_src = set(src.ports())
    port_dst = set(dst.ports())
    covered = [m for u, w, m in edges if u in port_src and w in port_dst]
    if not covered:
        return None, without_bits
    rep, _ = representative_multiplicity(covered)
    with_bits = pair_context_bits(src, dst, rep, edges)
    if with_bits + super_edge_bits(rep) < without_bits:
        return rep, with_bits
    return None, without_bits


def _bundle_choice(
    memo: dict, src: SuperNode, dst: SuperNode, src_ports, dst_ports, edges
) -> tuple[int | None, float]:
    """:func:`decide_super_edge` of a non-empty bundle, computed once per
    class and kept in ``memo``.

    ``src_ports`` and ``dst_ports`` hold the two sides' ports.  The result
    depends only on the region, the expansion size, each edge's cover flag
    and the multiplicities; together they are the key.
    """
    key = (
        src.size * dst.size,
        len(src_ports) * len(dst_ports),
        tuple([u in src_ports and w in dst_ports for u, w, _m in edges]),
        tuple([m for _u, _w, m in edges]),
    )
    choice = memo.get(key)
    if choice is None:
        choice = memo[key] = decide_super_edge(src, dst, edges)
    return choice


@dataclass
class MergeProposal:
    """A scored merge of singleton nodes into one new super-node."""

    node: SuperNode
    out_edges: dict[int, int]  # target super-node id -> rep mult
    in_edges: dict[int, int]  # source super-node id -> rep mult
    absorbed: tuple[int, ...]  # singleton super-node ids that disappear
    dissolved: list[tuple[int, int]]  # super-edge keys removed by absorption
    dcost: float  # the correctly rounded sum of both term lists
    d_summary: list[float]  # summary terms added, and removed ones negated
    d_correction: list[float]  # the same for the correction side
    odeg_delta: dict[int, int]  # out-super-edge count -> change in its tally
    width: float  # the summary's width bits after the merge


class SummaryState:
    """A summary under construction, with exact incremental cost tracking.

    ``snodes`` maps ids to super-nodes and ``assign`` every node to its
    super-node's id.  ``out_se[a][b]`` is the representative multiplicity of
    the super-edge (a, b); it is the one store of super-edges, in the order
    they were added per source, and :meth:`to_summary_graph` reads it.
    Every super-edge has an edge of the graph under it (see the module
    docstring), which is what lets a proposal find the super-edges it
    dissolves among its gathered edges.

    Each part of the cost is kept as the exact sum of its terms, an
    integer in units of 2^-1074, and a commit adds its proposal's terms
    exactly.  ``summary_bits`` and ``correction_bits`` round those sums
    once, so they are the floats :func:`~lmgsum.summary.total_cost` returns
    for the current summary.  The width term depends on the number of
    super-nodes and on the histogram of out-super-edge counts; each
    proposal computes it from its histogram, and a commit swaps it in.
    """

    def __init__(self, g: LabeledMultiGraph):
        self.g = g
        self.next_id = g.n
        self.assign = list(range(g.n))
        self.snodes: dict[int, SuperNode] = all_singleton_summary(g).super_nodes
        self.out_se: dict[int, dict[int, int]] = {}
        self.odeg_hist: dict[int, int] = {0: g.n}

        #: context bits by class, shared by the baseline and every proposal
        self._prices = prices = ContextPrices()
        #: super-edge decisions by bundle class (see :func:`_bundle_choice`)
        self._bundles: dict[tuple, tuple[int | None, float]] = {}
        #: the map bits of any singleton
        self._singleton_map = cost_node_map(1, g.n, False)

        # Baseline: every node is a singleton and every other edge a positive
        # correction in its own 1x1 pair context.  Those costs depend only on
        # a node's loop multiplicity and an edge's multiplicity, so each
        # distinct value is costed once and counted exactly.
        own = 0
        corr = g.n * _units(self._singleton_map)
        for m, v, count in zip(*_distinct(g.self_loop_mults())):
            sn = self.snodes[v]
            own += count * _units(supernode_own_bits(sn.size, sn.rep_mult))
            corr += count * _units(prices.singleton(sn, m))
        plain = np.nonzero(g.out_src != g.out_dst)[0]
        for m, count in zip(*_distinct(g.out_mult[plain])[::2]):
            corr += count * _units(prices.one_edge(1, m))
        #: the summary header plus every super-node's width bits
        self._width = summary_width_bits(g.n, g.label_count, self.odeg_hist)
        #: the exact parts of the cost, in units of 2^-1074
        self._summary = _units(self._width) + own
        self._correction = corr

    @property
    def summary_bits(self) -> float:
        return self._summary / _UNIT

    @property
    def correction_bits(self) -> float:
        return self._correction / _UNIT

    @property
    def cost(self) -> CostBreakdown:
        return CostBreakdown(self.summary_bits, self.correction_bits)

    @property
    def total_bits(self) -> float:
        return self.summary_bits + self.correction_bits

    def is_unmarked(self, v: int) -> bool:
        """A node is mergeable while it still sits in its own singleton."""
        return self.snodes[self.assign[v]].size == 1

    def to_summary_graph(self) -> SummaryGraph:
        s = SummaryGraph(
            graph_size=self.g.n,
            label_count=self.g.label_count,
            label_names=tuple(self.g.label_names),
            node_names=tuple(self.g.node_names),
        )
        s.super_nodes = dict(self.snodes)
        s.super_edges = {
            (a, b): m for a, out in self.out_se.items() for b, m in out.items()
        }
        return s

    # -- proposal scoring ----------------------------------------------------

    def _gather_cross(self, member_set: set[int]):
        """Internal edges, crossing bundles and old pair contexts of a
        prospective member set.

        Returns (internal, out_bundles, in_bundles, old_pairs).  Bundles
        group the crossing edges by the other endpoint's current super-node
        id; ``old_pairs`` groups every gathered edge between two different
        current super-nodes by that ordered pair, which names each old pair
        context touching an absorbed singleton: every super-edge has an
        edge of g under it.
        """
        internal: list[tuple[int, int, int]] = []
        out_b: dict[int, list[tuple[int, int, int]]] = {}
        in_b: dict[int, list[tuple[int, int, int]]] = {}
        old_pairs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        g, assign = self.g, self.assign
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
        return internal, out_b, in_b, old_pairs

    def _score(self, members: list[int]) -> MergeProposal:
        """Score merging ``members`` (label-homogeneous, unmarked, >= 2)."""
        g, assign, prices = self.g, self.assign, self._prices
        k = len(members)
        internal, out_b, in_b, old_pairs = self._gather_cross(set(members))
        glyph, hub = _glyph_of(members, internal)
        loops = {u: m for u, w, m in internal if u == w}
        new_node = SuperNode(
            id=self.next_id,
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
        absorbed_set = set(absorbed)

        # ---- terms the merge removes, negated
        d_summary: list[float] = [-self._width]
        d_correction: list[float] = []
        odeg_delta: dict[int, int] = {}
        for sid in absorbed:
            sn = self.snodes[sid]
            out = self.out_se.get(sid, {})
            (u,) = sn.members
            d_correction.append(-self._singleton_map)
            d_correction.append(-prices.singleton(sn, loops.get(u, 0)))
            d_summary.append(-supernode_own_bits(1, sn.rep_mult))
            for m in out.values():
                d_summary.append(-super_edge_bits(m))
            odeg_delta[len(out)] = odeg_delta.get(len(out), 0) - 1

        # net out-super-edge count change of surviving super-nodes
        se_change: dict[int, int] = {}
        dissolved: list[tuple[int, int]] = []
        for a, b in sorted(old_pairs):
            rep_ab = self.out_se.get(a, {}).get(b)
            d_correction.append(
                -prices.pair(self.snodes[a], self.snodes[b], rep_ab, old_pairs[(a, b)])
            )
            if rep_ab is not None:
                dissolved.append((a, b))
                # the source side loses this super-edge from its own cost
                if a not in absorbed_set:
                    d_summary.append(-super_edge_bits(rep_ab))
                    se_change[a] = se_change.get(a, 0) - 1

        # ---- terms the merge adds
        d_correction.append(cost_node_map(k, g.n, glyph in STAR_GLYPHS))
        d_correction.append(node_context_bits(new_node, internal))
        out_edges: dict[int, int] = {}
        in_edges: dict[int, int] = {}
        ports = set(new_node.ports())
        for other in sorted(out_b):
            sn = self.snodes[other]
            se_rep, ctx_bits = _bundle_choice(
                self._bundles, new_node, sn, ports, sn.ports(), out_b[other]
            )
            d_correction.append(ctx_bits)
            if se_rep is not None:
                out_edges[other] = se_rep
        for other in sorted(in_b):
            sn = self.snodes[other]
            se_rep, ctx_bits = _bundle_choice(
                self._bundles, sn, new_node, sn.ports(), ports, in_b[other]
            )
            d_correction.append(ctx_bits)
            if se_rep is not None:
                in_edges[other] = se_rep
                se_change[other] = se_change.get(other, 0) + 1

        odeg_delta[len(out_edges)] = odeg_delta.get(len(out_edges), 0) + 1
        for other, change in sorted(se_change.items()):
            if change == 0:
                continue
            d_old = len(self.out_se.get(other, {}))
            odeg_delta[d_old] = odeg_delta.get(d_old, 0) - 1
            odeg_delta[d_old + change] = odeg_delta.get(d_old + change, 0) + 1
        # the sources of in-super-edges pay for them in their own bits
        d_summary.append(supernode_own_bits(k, rep))
        for m in chain(out_edges.values(), in_edges.values()):
            d_summary.append(super_edge_bits(m))

        # the width, which depends on the super-node count and every
        # super-node's out-super-edge count
        new_hist = dict(self.odeg_hist)
        for d, c in odeg_delta.items():
            new_hist[d] = new_hist.get(d, 0) + c
            if new_hist[d] == 0:
                del new_hist[d]
        new_width = summary_width_bits(
            len(self.snodes) - len(absorbed) + 1, g.label_count, new_hist
        )
        d_summary.append(new_width)
        return MergeProposal(
            node=new_node,
            out_edges=out_edges,
            in_edges=in_edges,
            absorbed=absorbed,
            dissolved=dissolved,
            dcost=math.fsum(chain(d_summary, d_correction)),
            d_summary=d_summary,
            d_correction=d_correction,
            odeg_delta=odeg_delta,
            width=new_width,
        )

    def _hub_variants(self, members: list[int]) -> list[list[int]]:
        """Candidate hub completions for a set whose glyph came out

        disconnected: when most members point to one same-label unmarked
        singleton (an in-star hub) or are pointed to by one (out-star hub),
        propose absorbing that hub — and, as a second variant, also the
        hub's remaining same-label unmarked singleton neighbors on the spoke
        side, since a star is only cheap when its spokes are inside.
        """
        g = self.g
        member_set = set(members)
        label = int(g.labels[members[0]])
        need = max(2, (len(members) + 1) // 2)

        def eligible(w: int) -> bool:
            return (
                w not in member_set
                and int(g.labels[w]) == label
                and self.is_unmarked(w)
            )

        variants = []
        for direction in ("out", "in"):
            counts: dict[int, int] = {}
            for u in members:
                nbrs = g.out_neighbors(u) if direction == "out" else g.in_neighbors(u)
                for w in nbrs.tolist():
                    if eligible(w):
                        counts[w] = counts.get(w, 0) + 1
            if not counts:
                continue
            h = min(counts, key=lambda w: (-counts[w], w))
            if counts[h] < need:
                continue
            variants.append(sorted(members + [h]))
            spoke_pool = g.in_neighbors(h) if direction == "out" else g.out_neighbors(h)
            completion = {w for w in spoke_pool.tolist() if eligible(w) and w != h}
            if completion:
                variants.append(sorted(member_set | completion | {h}))
        dedup = []
        for var in variants:
            if var not in dedup:
                dedup.append(var)
        return dedup

    def evaluate_proposal(self, nodes) -> MergeProposal | None:
        """Best proposal for a candidate subset, or None when not mergeable.

        Filters out nodes already absorbed by earlier commits; needs at
        least two survivors sharing one label.  The returned proposal may
        include one extra hub node (see class docstring); commit it only
        when dcost < 0.
        """
        members = sorted(v for v in set(nodes) if self.is_unmarked(int(v)))
        if len(members) < 2:
            return None
        labels = {int(self.g.labels[v]) for v in members}
        if len(labels) != 1:
            raise ValueError("evaluate_proposal needs a label-homogeneous set")
        best = self._score(members)
        if best.node.glyph is Glyph.DISCONNECTED:
            for variant in self._hub_variants(members):
                p = self._score(variant)
                if p.dcost < best.dcost:
                    best = p
        return best

    def commit(self, proposal: MergeProposal) -> None:
        """Apply a strictly-improving proposal to the state."""
        if not (proposal.dcost < 0):
            raise MergeError(f"refusing to commit dcost={proposal.dcost:+.6f}")
        new = proposal.node
        if new.id != self.next_id:
            raise MergeError("stale proposal")
        for sid in proposal.absorbed:
            if self.snodes[sid].size != 1:
                raise MergeError("absorbed super-node is no longer a singleton")

        for a, b in proposal.dissolved:
            del self.out_se[a][b]
        for sid in proposal.absorbed:
            del self.snodes[sid]
            self.out_se.pop(sid, None)
        self.snodes[new.id] = new
        for u in new.members:
            self.assign[u] = new.id
        if proposal.out_edges:
            self.out_se[new.id] = dict(proposal.out_edges)
        for other, m in proposal.in_edges.items():
            self.out_se.setdefault(other, {})[new.id] = m

        for d, c in proposal.odeg_delta.items():
            self.odeg_hist[d] = self.odeg_hist.get(d, 0) + c
            if self.odeg_hist[d] == 0:
                del self.odeg_hist[d]
        self.next_id += 1
        self._width = proposal.width
        self._summary += _exact_units(proposal.d_summary)
        self._correction += _exact_units(proposal.d_correction)

    def process_candidate(self, nodes, audit=None) -> list[MergeProposal]:
        """Split a raw candidate by label, then evaluate and commit each

        strictly-improving subset.  Returns the committed proposals.  When
        given, ``audit(state, proposal)`` runs right after every commit.
        """
        committed = []
        for subset in split_by_label(self.g, [v for v in nodes if self.is_unmarked(v)]):
            proposal = self.evaluate_proposal(subset)
            if proposal is not None and proposal.dcost < 0:
                self.commit(proposal)
                committed.append(proposal)
                if audit is not None:
                    audit(self, proposal)
        return committed
