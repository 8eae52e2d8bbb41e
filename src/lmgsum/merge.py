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

A proposal is built in two steps.  :meth:`SummaryState._extend` extends a
partial proposal by a set X of singletons: X's edges are added (an edge to
a member becomes internal, the others join the bundle of the super-node at
their other end), and so are the terms X's absorption removes, X's own and
each old pair context with an endpoint in X and none in the partial set.
:meth:`SummaryState._propose` then prices what the new super-node adds:
glyph (decided from the internal edges by the routine :func:`decide_glyph`
also uses), representative multiplicity, map, node context, bundles and
width.  A subset extends the empty proposal, and each of its hub
completions (see :meth:`SummaryState._hub_variants`) extends the subset's.
That is exact: a context between two singletons never holds a super-edge,
as a commit creates every super-edge with its new multi-member node at one
end, so absorbing X leaves every context the partial set removed as it
was; and sums of terms do not depend on their order.  Contexts priced by a
small class key come from memos: one-edge pair contexts without a
super-edge, which every context between two singletons is, and one-member
node contexts from :class:`~lmgsum.summary.ContextPrices`, each bundle's
super-edge decision from the bundle memo (see :func:`_bundle_choice`), and
representative multiplicities by the sorted covered multiplicities.  A
commit takes the proposal's width.  The old contexts, found from the
gathered edges, include every super-edge the merge dissolves because of
one invariant: each super-edge has at least one edge of the graph under
it.  A super-edge is only created over a non-empty list of covered edges,
graphs are immutable, and a multi-member super-node never changes, so the
invariant holds from commit to commit.

Only current singletons can be merged; once a node is absorbed into a
multi-member super-node it is marked and never regrouped.  Singleton ids
are node ids, so a node is unmarked when it is its own super-node.
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
    # argmax with ties resolved toward the smallest node id: max() keeps the
    # first of equal keys, and the members are sorted
    in_hub = max(members, key=in_deg.__getitem__)
    out_hub = max(members, key=out_deg.__getitem__)
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

    ``src_ports`` and ``dst_ports`` are sets of the two sides' ports, so a
    cover test is one hash lookup however large a side is.  Every bit of
    the decision is a correctly rounded sum and the representative
    multiplicity counts values, so the result depends only on the region,
    the expansion size and the multiset of (cover flag, multiplicity)
    pairs; together they are the key, whatever the edges' order.
    """
    key = (
        src.size * dst.size,
        len(src_ports) * len(dst_ports),
        tuple(sorted([(u in src_ports and w in dst_ports, m) for u, w, m in edges])),
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


@dataclass
class _Partial:
    """A member set's gathered edges and the terms its merge removes.

    ``internal`` holds the edges between members, self-loops included;
    ``out_b`` and ``in_b`` bundle the crossing edges by the super-node at
    their other end; ``se_change`` is the net out-super-edge count change
    of surviving super-nodes.  The other term fields are those of
    :class:`MergeProposal`, so far."""

    members: list[int]
    internal: list[tuple[int, int, int]]
    loops: dict[int, int]
    out_b: dict[int, list[tuple[int, int, int]]]
    in_b: dict[int, list[tuple[int, int, int]]]
    d_summary: list[float]
    d_correction: list[float]
    odeg_delta: dict[int, int]
    se_change: dict[int, int]
    dissolved: list[tuple[int, int]]


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
        self._labels: list[int] = g.labels.tolist()
        self.snodes: dict[int, SuperNode] = all_singleton_summary(g).super_nodes
        self.out_se: dict[int, dict[int, int]] = {}
        self.odeg_hist: dict[int, int] = {0: g.n}

        #: context bits by class, shared by the baseline and every proposal
        self._prices = prices = ContextPrices()
        #: super-edge decisions by bundle class (see :func:`_bundle_choice`)
        self._bundles: dict[tuple, tuple[int | None, float]] = {}
        #: representative multiplicities by sorted covered multiplicities
        self._reps: dict[tuple[int, ...], int] = {}
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
        """A node is mergeable while it still sits in its own singleton,
        whose id is the node's."""
        return self.assign[v] == v

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

    def _extend(self, part: _Partial | None, extra) -> _Partial:
        """``part``, or the empty proposal when None, extended by the
        singletons ``extra`` (see the module docstring)."""
        g, assign, snodes, out_se = self.g, self.assign, self.snodes, self.out_se
        prices = self._prices
        xs = set(extra)
        if part is None:
            new = _Partial(sorted(xs), [], {}, {}, {}, [], [], {}, {}, [])
        else:  # a copy, less the bundles into ``extra``, which are internal now
            new = _Partial(
                sorted(part.members + list(xs)), list(part.internal), dict(part.loops),
                {b: es for b, es in part.out_b.items() if b not in xs},
                {b: es for b, es in part.in_b.items() if b not in xs},
                list(part.d_summary), list(part.d_correction), dict(part.odeg_delta),
                dict(part.se_change), list(part.dissolved),
            )
        members, internal = set(new.members), new.internal
        d_summary, d_correction = new.d_summary, new.d_correction
        out_b: dict[int, list[tuple[int, int, int]]] = {}
        in_b: dict[int, list[tuple[int, int, int]]] = {}
        # a pair context between two singletons holds one edge and no
        # super-edge; ``pairs`` gathers the contexts with a multi-member side
        pairs: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for x in sorted(xs):
            outs, ins = g.edge_lists(x)
            it = iter(outs)
            for w, m in zip(it, it):
                if w in members:
                    internal.append((x, w, m))
                    if w == x:
                        new.loops[x] = m
                    elif w in xs:
                        d_correction.append(-prices.one_edge(1, m))
                else:
                    b = assign[w]
                    e = (x, w, m)
                    out_b.setdefault(b, []).append(e)
                    if b == w:
                        d_correction.append(-prices.one_edge(1, m))
                    else:
                        pairs.setdefault((x, b), []).append(e)
            it = iter(ins)
            for u, m in zip(it, it):
                if u not in members:
                    b = assign[u]
                    e = (u, x, m)
                    in_b.setdefault(b, []).append(e)
                    if b == u:
                        d_correction.append(-prices.one_edge(1, m))
                    else:
                        pairs.setdefault((b, x), []).append(e)
                elif u not in xs:
                    internal.append((u, x, m))

            # ---- the singleton's own terms, negated
            sn = snodes[x]
            d_summary.append(-supernode_own_bits(1, sn.rep_mult))
            d_correction.append(-self._singleton_map)
            d_correction.append(-prices.singleton(sn, new.loops.get(x, 0)))
            out = out_se.get(x, {})
            for m in out.values():
                d_summary.append(-super_edge_bits(m))
            new.odeg_delta[len(out)] = new.odeg_delta.get(len(out), 0) - 1
        for b, es in out_b.items():
            new.out_b[b] = new.out_b.get(b, []) + es
        for b, es in in_b.items():
            new.in_b[b] = new.in_b.get(b, []) + es

        # ---- the old pair contexts, negated, and the super-edges they hold
        for (a, b), edges in pairs.items():
            rep_ab = out_se.get(a, {}).get(b)
            d_correction.append(-prices.pair(snodes[a], snodes[b], rep_ab, edges))
            if rep_ab is not None:
                new.dissolved.append((a, b))
                # a surviving source loses this super-edge from its own cost
                if a not in xs:
                    d_summary.append(-super_edge_bits(rep_ab))
                    new.se_change[a] = new.se_change.get(a, 0) - 1
        return new

    def _propose(self, part: _Partial) -> MergeProposal:
        """The merge of ``part``'s members: the terms the new super-node
        adds, priced here, and the removed terms ``part`` gathered."""
        g, members, internal = self.g, part.members, part.internal
        k = len(members)
        glyph, hub = _glyph_of(members, internal)
        new_node = SuperNode(
            id=self.next_id,
            label=self._labels[members[0]],
            glyph=glyph,
            members=tuple(members),
            hub=hub,
            rep_mult=1,
            self_loop=2 * len(part.loops) >= k,
        )
        covered = tuple(sorted([m for u, w, m in internal if new_node.covers_pair(u, w)]))
        if covered not in self._reps:
            self._reps[covered] = representative_multiplicity(covered)[0] if covered else 1
        new_node.rep_mult = rep = self._reps[covered]

        d_summary = [-self._width, *part.d_summary]
        d_correction = [
            *part.d_correction,
            cost_node_map(k, g.n, glyph in STAR_GLYPHS),
            node_context_bits(new_node, internal),
        ]
        odeg_delta = dict(part.odeg_delta)
        se_change = dict(part.se_change)
        out_edges: dict[int, int] = {}
        in_edges: dict[int, int] = {}
        ports = set(new_node.ports())
        for other in sorted(part.out_b):
            sn = self.snodes[other]
            se_rep, ctx_bits = _bundle_choice(
                self._bundles, new_node, sn, ports, set(sn.ports()), part.out_b[other]
            )
            d_correction.append(ctx_bits)
            if se_rep is not None:
                out_edges[other] = se_rep
        for other in sorted(part.in_b):
            sn = self.snodes[other]
            se_rep, ctx_bits = _bundle_choice(
                self._bundles, sn, new_node, set(sn.ports()), ports, part.in_b[other]
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
        new_width = summary_width_bits(len(self.snodes) - k + 1, g.label_count, new_hist)
        d_summary.append(new_width)
        return MergeProposal(
            node=new_node,
            out_edges=out_edges,
            in_edges=in_edges,
            absorbed=tuple(members),
            dissolved=part.dissolved,
            dcost=math.fsum(chain(d_summary, d_correction)),
            d_summary=d_summary,
            d_correction=d_correction,
            odeg_delta=odeg_delta,
            width=new_width,
        )

    def _hub_variants(self, part: _Partial) -> list[list[int]]:
        """The nodes each hub completion of a disconnected set adds.

        When most members point to one same-label unmarked singleton (an
        in-star hub) or are pointed to by one (an out-star hub), propose
        absorbing that hub, and also the hub and its other such neighbors on
        the spoke side, since a star is only cheap when its spokes are
        inside.  A bundle keyed by a singleton, whose id is its node's,
        holds one edge per member linked to it.
        """
        labels, assign, n = self._labels, self.assign, self.g.n
        members = set(part.members)
        label = labels[part.members[0]]
        need = max(2, (len(members) + 1) // 2)
        variants: list[list[int]] = []
        for bundles, spoke_side in ((part.out_b, 1), (part.in_b, 0)):
            counts = {b: len(es) for b, es in bundles.items() if b < n and labels[b] == label}
            if not counts:
                continue
            h = min(counts, key=lambda w: (-counts[w], w))
            if counts[h] < need:
                continue
            variants.append([h])
            pool = self.g.edge_lists(h)[spoke_side][::2]
            completion = {
                w for w in pool if w not in members and labels[w] == label and assign[w] == w
            } - {h}
            if completion:
                variants.append(sorted(completion | {h}))
        return [var for i, var in enumerate(variants) if var not in variants[:i]]

    def evaluate_proposal(self, nodes) -> MergeProposal | None:
        """Best proposal for a candidate subset, or None when not mergeable.

        Filters out nodes already absorbed by earlier commits; needs at
        least two survivors sharing one label.  A disconnected set's
        proposal may also absorb a hub and its spokes (see
        :meth:`_hub_variants`); commit it only when dcost < 0.
        """
        members = sorted(v for v in set(map(int, nodes)) if self.is_unmarked(v))
        if len(members) < 2:
            return None
        if len({self._labels[v] for v in members}) != 1:
            raise ValueError("evaluate_proposal needs a label-homogeneous set")
        base = self._extend(None, members)
        best = self._propose(base)
        if best.node.glyph is Glyph.DISCONNECTED:
            for extra in self._hub_variants(base):
                p = self._propose(self._extend(base, extra))
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
        strictly-improving subset.

        Returns the committed proposals.  When given, ``audit(state,
        proposal)`` runs right after every commit.
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
