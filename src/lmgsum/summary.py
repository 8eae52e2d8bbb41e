"""Summary graphs: glyph-typed super-nodes, weighted super-edges, corrections.

A summary partitions the input graph's nodes into label-homogeneous
super-nodes, each carrying a structural glyph (clique, in-star, out-star,
disconnected, singleton), an optional self-loop flag, and a representative
edge multiplicity.  Weighted super-edges connect super-nodes.  Decompression
expands glyphs and super-edges back into plain edges; a correction set
(edges to add, edges to drop, multiplicity deltas) makes the round trip
exact.  The one decompression is :func:`lmgsum.verify.decode`, and the
corrections are the difference between the input and its decoding of the
summary alone.

Cost model.  Every ordered region of node pairs is owned by exactly one
context: the region inside a super-node v (S_v x S_v, diagonal included)
belongs to v's node context, and the region between two distinct super-nodes
(a, b) belongs to the pair context (a, b).  Within a context, decompression
produces an expansion X; original edges inside X are "covered" (their
multiplicities are corrected against the representative multiplicity),
original edges outside X are positive corrections (coded with the universal
integer code), and expansion pairs without an original edge are negative
corrections.  Positive and negative corrections are charged per context with
a binomial bundle code; a pair context without a super-edge exists only when
it contains at least one original edge, in which case all its corrections
are positive.  :func:`context_bits` prices every context from its class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .encoding import (
    CostBreakdown,
    Glyph,
    cost_correction_set,
    cost_node_map,
    ell_diff,
    len_natural,
    summary_width_bits,
    super_edge_bits,
    supernode_own_bits,
    transpose,
)
from .graph import LabeledMultiGraph


STAR_GLYPHS = (Glyph.IN_STAR, Glyph.OUT_STAR)

#: graphviz shape per glyph
DOT_SHAPES = {
    Glyph.CLIQUE: "square",
    Glyph.IN_STAR: "triangle",
    Glyph.OUT_STAR: "invtriangle",
    Glyph.DISCONNECTED: "hexagon",
    Glyph.SINGLETON: "circle",
}

DOT_PALETTE = (
    "lightblue", "lightpink", "palegreen", "khaki", "plum",
    "lightsalmon", "lightgray", "aquamarine", "wheat", "thistle",
)


@dataclass
class SuperNode:
    id: int
    label: int
    glyph: Glyph
    members: tuple[int, ...]
    hub: int | None = None
    rep_mult: int = 1
    self_loop: bool = False

    def __post_init__(self):
        self.members = tuple(sorted(self.members))
        if not self.members:
            raise ValueError("super-node needs at least one member")
        if self.rep_mult < 1:
            raise ValueError("representative multiplicity must be >= 1")
        if self.glyph in STAR_GLYPHS:
            if self.hub is None or self.hub not in self.members:
                raise ValueError("star glyph needs a hub among its members")
        if self.glyph is Glyph.SINGLETON and len(self.members) != 1:
            raise ValueError("singleton glyph requires exactly one member")

    @property
    def size(self) -> int:
        return len(self.members)

    def ports(self) -> tuple[int, ...]:
        """Members that super-edges attach to: the hub for stars, else all."""
        if self.glyph in STAR_GLYPHS:
            return (self.hub,)
        return self.members

    def glyph_pairs(self) -> Iterable[tuple[int, int]]:
        """Ordered node pairs the glyph expands to (self-loops excluded)."""
        if self.glyph is Glyph.CLIQUE:
            for u in self.members:
                for w in self.members:
                    if u != w:
                        yield (u, w)
        elif self.glyph is Glyph.IN_STAR:
            for u in self.members:
                if u != self.hub:
                    yield (u, self.hub)
        elif self.glyph is Glyph.OUT_STAR:
            for w in self.members:
                if w != self.hub:
                    yield (self.hub, w)

    def glyph_pair_count(self) -> int:
        k = len(self.members)
        if self.glyph is Glyph.CLIQUE:
            return k * (k - 1)
        if self.glyph in STAR_GLYPHS:
            return k - 1
        return 0

    def covers_pair(self, u: int, w: int) -> bool:
        """Whether the internal pair (u, w) lies in this glyph's expansion."""
        if u == w:
            return self.self_loop
        if self.glyph is Glyph.CLIQUE:
            return True
        if self.glyph is Glyph.IN_STAR:
            return w == self.hub
        if self.glyph is Glyph.OUT_STAR:
            return u == self.hub
        return False


@dataclass
class SummaryGraph:
    """A complete summary: partition into super-nodes plus super-edges."""

    graph_size: int
    label_count: int
    super_nodes: dict[int, SuperNode] = field(default_factory=dict)
    super_edges: dict[tuple[int, int], int] = field(default_factory=dict)
    label_names: tuple[str, ...] = ()
    node_names: tuple[str, ...] = ()

    def validate(self, g: LabeledMultiGraph | None = None) -> None:
        """Check the structure by decoding the summary alone (see
        :func:`_decode`), and with ``g`` that every node carries its
        super-node's label; raises ValueError on violation."""
        labels = _decode(self, CorrectionSet())[2]
        if g is not None and not np.array_equal(labels, g.labels):
            v = int(np.argmax(labels != g.labels))
            raise ValueError(f"node {v} is not labelled like its super-node")

    def glyph_counts(self) -> dict[str, int]:
        counts = {glyph.value: 0 for glyph in Glyph}
        for sn in self.super_nodes.values():
            counts[sn.glyph.value] += 1
        return counts


def all_singleton_summary(g: LabeledMultiGraph) -> SummaryGraph:
    """The trivial summary: one singleton super-node per node, no super-edges.

    A node's self-loop flag mirrors the graph and its representative
    multiplicity is the loop multiplicity (1 when loop-free), so the only
    information carried is the baseline encoding of the edge set via
    positive corrections.
    """
    s = SummaryGraph(
        graph_size=g.n,
        label_count=g.label_count,
        label_names=tuple(g.label_names),
        node_names=tuple(g.node_names),
    )
    labels = g.labels.tolist()
    new = object.__new__
    for v, loop in enumerate(g.self_loop_mults().tolist()):
        # the fields of SuperNode(v, labels[v], Glyph.SINGLETON, (v,),
        # rep_mult=loop or 1, self_loop=loop > 0), set in field order
        # without the per-node __init__ and __post_init__, whose checks
        # every singleton passes
        node = s.super_nodes[v] = new(SuperNode)
        node.id = v
        node.label = labels[v]
        node.glyph = Glyph.SINGLETON
        node.members = (v,)
        node.hub = None
        node.rep_mult = loop or 1
        node.self_loop = loop > 0
    return s


# -- decompression and corrections -------------------------------------------


#: each correction kind's row width: (src, dst, mult), (src, dst), (src, dst, delta)
_WIDTHS = {"positive": 3, "negative": 2, "mult_deltas": 3}


@dataclass
class CorrectionSet:
    """Exact patch from a decompressed summary back to the original graph:
    one int64 row per correction, (src, dst, mult) in ``positive``, (src,
    dst) in ``negative`` and (src, dst, delta) in ``mult_deltas``.  Rows
    given as tuples, lists or an array are converted here, and a row of
    another width or a value outside int64 raises ValueError naming its
    kind.  Two sets are equal when their rows are."""

    positive: np.ndarray = ()
    negative: np.ndarray = ()
    mult_deltas: np.ndarray = ()

    def __post_init__(self):
        for kind, width in _WIDTHS.items():
            try:
                rows = np.asarray(getattr(self, kind))
            except ValueError:  # rows of different lengths
                raise ValueError(f"{kind}: rows of different lengths") from None
            if rows.shape == (0,):
                rows = rows.reshape(0, width)
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(f"{kind}: shape {rows.shape}, not rows of {width} values")
            # NumPy reads a Python int beyond int64 as a float or an object
            if rows.size and (rows.dtype.kind not in "iu" or rows.max() > 2**63 - 1):
                raise ValueError(f"{kind}: values that are not integers within int64")
            setattr(self, kind, rows.astype(np.int64, copy=False))

    def __eq__(self, other):
        return isinstance(other, CorrectionSet) and all(
            np.array_equal(getattr(self, k), getattr(other, k)) for k in _WIDTHS
        )

    def counts(self) -> dict[str, int]:
        return {kind: len(getattr(self, kind)) for kind in _WIDTHS}


def _decode(summary: SummaryGraph, corrections: CorrectionSet):
    """:func:`lmgsum.verify.decode` on ``summary`` and ``corrections``, with
    ids for names: the sorted edge keys ``u * n + w`` for n nodes, their
    multiplicities and each node's label.  An inconsistent summary or
    correction, or a correction's node index outside ``range(n)``, raises
    ValueError."""
    # only code that decodes a summary compiles the decoder
    from .verify import CORRECTION_KINDS, decode, node_indices

    n, label_ids = summary.graph_size, range(summary.label_count)
    rows = ((sn.id, sn.label, sn.glyph.value, sn.members, sn.hub, sn.rep_mult, sn.self_loop)
            for sn in summary.super_nodes.values())
    nodes = transpose(rows, 7)
    edges = transpose(((a, b, m) for (a, b), m in summary.super_edges.items()), 3)
    columns = []
    for key, _names, what in CORRECTION_KINDS:
        src, dst, *rest = getattr(corrections, key).T
        columns.append([node_indices(src, n, f"src of {what}"),
                        node_indices(dst, n, f"dst of {what}"), *rest])
    try:
        keys, mult, labels, _record = decode(
            nodes, edges, columns, dict(zip(range(n), range(n))),
            dict(zip(label_ids, label_ids)), n, (summary.node_names or range(n)).__getitem__,
        )
    except KeyError as e:
        raise ValueError(f"id {e.args[0]!r} out of range") from None
    return keys, mult, labels


def compute_corrections(g: LabeledMultiGraph, summary: SummaryGraph) -> CorrectionSet:
    """Corrections such that reconstruct(summary, corrections) == g exactly:
    the difference between g and the summary's decoding.  Each kind is in
    (u, w) order: g's edges the decoding lacks are positive, the decoded
    pairs g lacks negative, and the edges whose multiplicity differs from
    the decoded one get its delta."""
    n = summary.graph_size
    if g.n != n:
        raise ValueError(f"the summary has {n} nodes, the graph {g.n}")
    keys, mult, _labels = _decode(summary, CorrectionSet())
    # g's out-arrays are sorted by (u, w), and so are the decoded keys
    edge_keys = g.out_src * n + g.out_dst
    at = np.searchsorted(keys, edge_keys)
    covered = at < len(keys)
    covered[covered] = keys[at[covered]] == edge_keys[covered]
    at, free = at[covered], ~covered
    delta = g.out_mult[covered] - mult[at]
    changed = delta != 0
    idx = np.flatnonzero(covered)[changed]
    gone = np.delete(keys, at)
    return CorrectionSet(
        positive=np.column_stack((g.out_src[free], g.out_dst[free], g.out_mult[free])),
        negative=np.column_stack(np.divmod(gone, n)),
        mult_deltas=np.column_stack((g.out_src[idx], g.out_dst[idx], delta[changed])),
    )


def reconstruct(summary: SummaryGraph, corrections: CorrectionSet) -> LabeledMultiGraph:
    """Apply corrections to the decompressed summary; exact inverse of
    compute_corrections for the graph the corrections were derived from.
    :func:`lmgsum.verify.decode` decodes the summary and applies the
    corrections' array columns; an inconsistent pair raises ValueError."""
    keys, mult, labels = _decode(summary, corrections)
    n = summary.graph_size
    return LabeledMultiGraph.from_arrays(
        n, keys // n, keys % n, mult, labels, summary.label_names or None, summary.node_names or None
    )


# -- correction cost ----------------------------------------------------------


def context_bits(region: int, x_size: int, rep: int | None, covered, free) -> float:
    """Correction bits of one context, priced from its class: ``x_size`` of
    its ``region`` node pairs lie in its expansion X, ``covered`` lists the
    multiplicities of its edges inside X and ``free`` those outside X.

    Edges inside X are corrected against the representative multiplicity
    ``rep``, edges outside X are positive corrections, and pairs of X
    without an edge are negative ones.  A pair context without a super-edge
    is the case ``x_size = 0``, where ``covered`` is empty and ``rep``
    unused.  Every bit is the correctly rounded sum of its terms, so the
    order of ``covered`` and ``free`` does not matter.
    """
    terms = [ell_diff(m, rep) for m in covered]
    terms.extend(map(len_natural, free))
    if x_size >= 1:
        terms.append(cost_correction_set(x_size - len(covered), x_size))
    if region - x_size >= 1:
        terms.append(cost_correction_set(len(free), region - x_size))
    return math.fsum(terms)


def node_context(sn: SuperNode, internal: list[tuple[int, int, int]]) -> tuple:
    """The class of ``sn``'s node context, as :func:`context_bits`'s
    arguments with the multiplicities sorted, from ``internal``: the
    original edges (u, w, m) with both endpoints in the super-node,
    self-loops included."""
    covered, free = [], []
    for u, w, m in internal:
        (covered if sn.covers_pair(u, w) else free).append(m)
    k = sn.size
    x_size = sn.glyph_pair_count() + (k if sn.self_loop else 0)
    return k * k, x_size, sn.rep_mult, tuple(sorted(covered)), tuple(sorted(free))


def node_context_bits(sn: SuperNode, internal: list[tuple[int, int, int]]) -> float:
    """Correction bits owned by one super-node's internal region, whose
    edges are ``internal`` (see :func:`node_context`)."""
    return context_bits(*node_context(sn, internal))


def split_bundle(ports_a, ports_b, edges: list[tuple[int, int, int]]):
    """The multiplicities of ``edges`` (u, w, m) that a super-edge covers,
    every port in ``ports_a`` to every port in ``ports_b`` (two sets), and
    those of the others."""
    covered, free = [], []
    for u, w, m in edges:
        (covered if u in ports_a and w in ports_b else free).append(m)
    return covered, free


def pair_context_bits(
    sa: SuperNode,
    sb: SuperNode,
    rep: int | None,
    edges: list[tuple[int, int, int]],
) -> float:
    """Correction bits owned by the ordered super-node pair (sa, sb).

    ``rep`` is the super-edge's representative multiplicity, or None when the
    pair is not linked: then every edge is a positive correction over the
    full region, and with no edge the context does not exist (0 bits).
    """
    region = sa.size * sb.size
    if rep is None:
        return context_bits(region, 0, None, (), [m for _, _, m in edges]) if edges else 0.0
    ports_a, ports_b = set(sa.ports()), set(sb.ports())
    covered, free = split_bundle(ports_a, ports_b, edges)
    return context_bits(region, len(ports_a) * len(ports_b), rep, covered, free)


# NumPy's plain np.unique, and np.union1d through it, checks for a masked
# array and so imports numpy.ma, ~15 ms that no command uses; this does the
# same work without it


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``: ``np.unique(a)``."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _triples(u: np.ndarray, w: np.ndarray, m: np.ndarray) -> list[tuple[int, int, int]]:
    return list(zip(u.tolist(), w.tolist(), m.tolist()))


class _EdgeGroups:
    """g's edges grouped by the super-nodes of a summary, for the
    correction bits of :func:`total_cost`.

    Super-nodes are ranked in ascending id order.  Internal edges (both
    endpoints in one super-node) are grouped by that super-node and cross
    edges by their ordered pair of super-nodes; within a group the edges
    keep g's (u, w) order.  The pair of ranks (a, b) has the key
    ``a * S + b`` for S super-nodes, so keys sort like pairs of ids.  The
    edges are (u, w, m) lists, built once and sliced per group.
    """

    def __init__(self, g: LabeledMultiGraph, summary: SummaryGraph):
        self.ids = sorted(summary.super_nodes)
        self.rank = {vid: r for r, vid in enumerate(self.ids)}
        s_count = len(self.ids)
        members = [summary.super_nodes[vid].members for vid in self.ids]
        sizes = np.fromiter(map(len, members), dtype=np.int64, count=s_count)
        assign = np.full(g.n, -1, dtype=np.int64)
        assign[np.fromiter(chain.from_iterable(members), dtype=np.int64)] = np.repeat(
            np.arange(s_count, dtype=np.int64), sizes
        )
        if (assign < 0).any():
            raise ValueError(f"node {int(np.argmax(assign < 0))} is in no super-node")
        a, b = assign[g.out_src], assign[g.out_dst]
        inside = a == b

        # g's out-arrays are sorted by (u, w); stable sorts keep that order
        idx = np.flatnonzero(inside)
        idx = idx[np.argsort(a[idx], kind="stable")]
        self.int_edges = _triples(g.out_src[idx], g.out_dst[idx], g.out_mult[idx])
        self.int_ptr = np.searchsorted(a[idx], np.arange(s_count + 1)).tolist()

        idx = np.flatnonzero(~inside)
        key = a[idx] * s_count + b[idx]
        order = np.argsort(key, kind="stable")
        idx, self.x_key = idx[order], key[order]
        self.x_edges = _triples(g.out_src[idx], g.out_dst[idx], g.out_mult[idx])

        #: sorted keys of the pairs with a super-edge
        self.linked_keys = np.array(
            sorted(self.rank[a] * s_count + self.rank[b] for a, b in summary.super_edges),
            dtype=np.int64,
        )

    def internal(self, vid: int) -> list[tuple[int, int, int]]:
        """The edges inside super-node ``vid``."""
        r = self.rank[vid]
        return self.int_edges[self.int_ptr[r]:self.int_ptr[r + 1]]

    def contexts(self, keys: np.ndarray) -> Iterator[tuple[tuple[int, int], list]]:
        """((a, b), edges) for each of the sorted pair keys ``keys``: the
        pair's super-node ids and its cross edges."""
        ids, s_count, edges = self.ids, len(self.ids), self.x_edges
        lo = np.searchsorted(self.x_key, keys, "left").tolist()
        hi = np.searchsorted(self.x_key, keys, "right").tolist()
        for key, l, h in zip(keys.tolist(), lo, hi):
            a, b = divmod(key, s_count)
            yield (ids[a], ids[b]), edges[l:h]


def total_cost(g: LabeledMultiGraph, summary: SummaryGraph) -> CostBreakdown:
    """Two-part description length of g under the given summary, each
    part the correctly rounded sum of its terms: the width and each
    super-node's and super-edge's own bits; each map's and context's bits.

    Every context is priced once, by :func:`node_context_bits` or
    :func:`pair_context_bits`: a node context per super-node, and a pair
    context per pair with a cross edge or a super-edge.
    """
    nodes, super_edges = summary.super_nodes, summary.super_edges
    out_degree = Counter(a for a, _b in super_edges)
    width = summary_width_bits(
        len(nodes), summary.label_count, Counter(out_degree[v] for v in nodes)
    )
    own = [supernode_own_bits(sn.size, sn.rep_mult) for sn in nodes.values()]
    summary_bits = math.fsum(chain((width,), own, map(super_edge_bits, super_edges.values())))
    groups = _EdgeGroups(g, summary)
    n = summary.graph_size
    node_terms = (
        bits
        for vid, sn in nodes.items()
        for bits in (
            cost_node_map(sn.size, n, sn.glyph in STAR_GLYPHS),
            node_context_bits(sn, groups.internal(vid)),
        )
    )
    keys = sorted_distinct(np.concatenate((groups.x_key, groups.linked_keys)))
    pair_terms = (
        pair_context_bits(nodes[a], nodes[b], super_edges.get((a, b)), edges)
        for (a, b), edges in groups.contexts(keys)
    )
    corr = math.fsum(chain(node_terms, pair_terms))
    return CostBreakdown(summary_bits=summary_bits, correction_bits=corr)


# -- exports ------------------------------------------------------------------


def summary_to_dict(
    g: LabeledMultiGraph, summary: SummaryGraph, costs: CostBreakdown | None = None
) -> dict:
    """JSON-ready form of a summary, with original node-id strings."""
    names = summary.node_names or tuple(g.node_names)
    label_names = summary.label_names or g.label_names
    if costs is None:
        costs = total_cost(g, summary)
    return {
        "graph_size": summary.graph_size,
        "label_names": list(label_names),
        "node_names": list(names),
        "super_nodes": [
            {
                "id": sn.id,
                "label": label_names[sn.label],
                "glyph": sn.glyph.value,
                "members": [names[u] for u in sn.members],
                "hub": names[sn.hub] if sn.hub is not None else None,
                "rep_mult": sn.rep_mult,
                "self_loop": sn.self_loop,
            }
            for sn in sorted(summary.super_nodes.values(), key=lambda s: s.id)
        ],
        "super_edges": [
            {"src": a, "dst": b, "rep_mult": m}
            for (a, b), m in sorted(summary.super_edges.items())
        ],
        "cost": {
            "summary_bits": costs.summary_bits,
            "correction_bits": costs.correction_bits,
            "total_bits": costs.total_bits,
        },
    }


def summary_from_dict(data: dict) -> SummaryGraph:
    """Inverse of summary_to_dict (ids are re-derived from node_names)."""
    from .verify import summary_columns

    size, names, label_names, nodes, (src, dst, mults) = summary_columns(data)
    node_id = dict(zip(names, range(len(names)))).__getitem__
    label_id = dict(zip(label_names, range(len(label_names)))).__getitem__
    return SummaryGraph(
        graph_size=size,
        label_count=len(label_names),
        super_nodes={
            vid: SuperNode(vid, label_id(label), Glyph(glyph), tuple(map(node_id, members)),
                           None if hub is None else node_id(hub), rep, loop)
            for vid, label, glyph, members, hub, rep, loop in zip(*nodes)
        },
        super_edges=dict(zip(zip(src, dst), mults)),
        label_names=tuple(label_names),
        node_names=tuple(names),
    )


def corrections_to_dict(summary: SummaryGraph, cor: CorrectionSet) -> dict:
    """JSON-ready form of the corrections: each kind as its columns,
    ``src`` and ``dst`` node ids, which index the summary's node names."""
    return {kind: getattr(cor, kind).T.tolist() for kind in _WIDTHS}


def corrections_from_dict(summary: SummaryGraph, data: dict) -> CorrectionSet:
    """Inverse of corrections_to_dict; every node index must be below
    ``summary``'s graph size."""
    from .verify import correction_columns

    return CorrectionSet(*map(np.column_stack, correction_columns(data, summary.graph_size)))


def export_dot(summary: SummaryGraph, graph_name: str = "summary") -> str:
    """Graphviz rendering: shape encodes the glyph, fill color the label,

    node text is "label|member count|representative multiplicity", and each
    super-edge is annotated with its representative multiplicity.  A label
    name's backslashes and double quotes are escaped, so Graphviz shows
    them as they are.
    """
    lines = [f"digraph {graph_name} {{", "  node [style=filled];"]
    for sn in sorted(summary.super_nodes.values(), key=lambda s: s.id):
        label_name = (
            summary.label_names[sn.label] if summary.label_names else str(sn.label)
        ).replace("\\", "\\\\").replace('"', '\\"')
        color = DOT_PALETTE[sn.label % len(DOT_PALETTE)]
        text = f"{label_name}|{sn.size}|{sn.rep_mult}"
        lines.append(
            f'  sn{sn.id} [shape={DOT_SHAPES[sn.glyph]}, fillcolor="{color}", '
            f'label="{text}"];'
        )
    for (a, b), m in sorted(summary.super_edges.items()):
        lines.append(f'  sn{a} -> sn{b} [label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
