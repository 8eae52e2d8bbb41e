"""Summary graphs: glyph-typed super-nodes, weighted super-edges, corrections.

A summary partitions the input graph's nodes into label-homogeneous
super-nodes, each carrying a structural glyph (clique, in-star, out-star,
disconnected, singleton), an optional self-loop flag, and a representative
edge multiplicity.  Weighted super-edges connect super-nodes.  Decompression
expands glyphs and super-edges back into plain edges; a correction set
(edges to add, edges to drop, multiplicity deltas) makes the round trip
exact.

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
are positive.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, product
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .encoding import (
    CostBreakdown,
    cost_correction_set,
    cost_node_map,
    ell_diff,
    len_natural,
    summary_width_bits,
    super_edge_bits,
    supernode_own_bits,
)
from .graph import LabeledMultiGraph


class Glyph(Enum):
    CLIQUE = "clique"
    IN_STAR = "in_star"
    OUT_STAR = "out_star"
    DISCONNECTED = "disconnected"
    SINGLETON = "singleton"


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

    def expansion(self) -> Iterator[tuple[int, int]]:
        """Every internal pair the super-node expands to: the glyph pairs,
        then the self-loop diagonal when flagged."""
        yield from self.glyph_pairs()
        if self.self_loop:
            for u in self.members:
                yield (u, u)

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
        :func:`reconstruct`), and with ``g`` that every node carries its
        super-node's label; raises ValueError on violation."""
        labels = reconstruct(self, CorrectionSet()).labels
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
    for v, loop in enumerate(g.self_loop_mults().tolist()):
        s.super_nodes[v] = SuperNode(
            id=v,
            label=labels[v],
            glyph=Glyph.SINGLETON,
            members=(v,),
            rep_mult=loop if loop else 1,
            self_loop=loop > 0,
        )
    return s


# -- decompression and corrections -------------------------------------------


@dataclass
class CorrectionSet:
    """Exact patch from a decompressed summary back to the original graph."""

    positive: list[tuple[int, int, int]] = field(default_factory=list)
    negative: list[tuple[int, int]] = field(default_factory=list)
    mult_deltas: list[tuple[int, int, int]] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        return {
            "positive": len(self.positive),
            "negative": len(self.negative),
            "mult_deltas": len(self.mult_deltas),
        }


def _triples(u: np.ndarray, w: np.ndarray, m: np.ndarray) -> list[tuple[int, int, int]]:
    return list(zip(u.tolist(), w.tolist(), m.tolist()))


# NumPy's plain np.unique, and np.isin and np.union1d through it, checks for
# a masked array and so imports numpy.ma, ~15 ms that no command uses; these
# two do the same work without it


def sorted_distinct(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``a``: ``np.unique(a)``."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _absent(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that the sorted ``sorted_keys`` lacks:
    ``~np.isin(keys, sorted_keys)``."""
    return np.searchsorted(sorted_keys, keys, "left") == np.searchsorted(
        sorted_keys, keys, "right"
    )


class _EdgeGroups:
    """g's edges grouped by the super-nodes of a summary, as sorted arrays.

    Super-nodes are ranked in ascending id order.  Internal edges (both
    endpoints in one super-node) are grouped by that super-node and cross
    edges by their ordered pair of super-nodes; within a group the edges
    keep g's (u, w) order.  The pair of ranks (a, b) has the key
    ``a * S + b`` for S super-nodes, so keys sort like pairs of ids.
    Corrections and correction bits are both read off this one grouping.
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
        self.int_src, self.int_dst, self.int_mult = (
            g.out_src[idx], g.out_dst[idx], g.out_mult[idx]
        )
        self.int_ptr = np.searchsorted(a[idx], np.arange(s_count + 1)).tolist()

        idx = np.flatnonzero(~inside)
        key = a[idx] * s_count + b[idx]
        order = np.argsort(key, kind="stable")
        idx, self.x_key = idx[order], key[order]
        self.x_src, self.x_dst, self.x_mult = (
            g.out_src[idx], g.out_dst[idx], g.out_mult[idx]
        )

        #: sorted keys of the pairs with a super-edge
        self.linked_keys = np.array(
            sorted(self.rank[a] * s_count + self.rank[b] for a, b in summary.super_edges),
            dtype=np.int64,
        )

    def internal(self, vid: int) -> list[tuple[int, int, int]]:
        """The edges inside super-node ``vid``."""
        r = self.rank[vid]
        lo, hi = self.int_ptr[r], self.int_ptr[r + 1]
        return _triples(self.int_src[lo:hi], self.int_dst[lo:hi], self.int_mult[lo:hi])

    def contexts(self, keys: np.ndarray) -> Iterator[tuple[tuple[int, int], list]]:
        """((a, b), edges) for each of the sorted pair keys ``keys``: the
        pair's super-node ids and its cross edges."""
        ids, s_count = self.ids, len(self.ids)
        src, dst, mult = self.x_src, self.x_dst, self.x_mult
        lo = np.searchsorted(self.x_key, keys, "left").tolist()
        hi = np.searchsorted(self.x_key, keys, "right").tolist()
        for key, l, h in zip(keys.tolist(), lo, hi):
            a, b = divmod(key, s_count)
            yield (ids[a], ids[b]), _triples(src[l:h], dst[l:h], mult[l:h])

    def unlinked_positives(self) -> list[tuple[int, int, int]]:
        """The cross edges of pairs without a super-edge, in (a, b) order."""
        free = _absent(self.x_key, self.linked_keys)
        return _triples(self.x_src[free], self.x_dst[free], self.x_mult[free])


def _correct_context(cor: CorrectionSet, expansion, rep: int, edges, covers) -> None:
    """Append one context's corrections: for each pair of its expansion, in
    order, a negative correction when it has no edge or a multiplicity
    delta against ``rep`` when it has another multiplicity; then, in
    ``edges``' order, the edges that ``covers(u, w)`` leaves outside the
    expansion as positive corrections."""
    present = {(u, w): m for u, w, m in edges}
    for pair in expansion:
        m = present.get(pair)
        if m is None:
            cor.negative.append(pair)
        elif m != rep:
            cor.mult_deltas.append((*pair, m - rep))
    cor.positive.extend(e for e in edges if not covers(e[0], e[1]))


def compute_corrections(g: LabeledMultiGraph, summary: SummaryGraph) -> CorrectionSet:
    """Corrections such that reconstruct(summary, corrections) == g exactly.

    Node contexts come first, in the summary's order, then the edges of
    unlinked pairs, then the super-edge contexts in (a, b) order.
    """
    cor = CorrectionSet()
    groups = _EdgeGroups(g, summary)
    ptr, rank = groups.int_ptr, groups.rank
    for vid, sn in summary.super_nodes.items():
        r = rank[vid]
        if ptr[r] == ptr[r + 1] and not sn.self_loop and not sn.glyph_pair_count():
            continue
        internal = groups.internal(vid)
        _correct_context(cor, sn.expansion(), sn.rep_mult, internal, sn.covers_pair)

    cor.positive.extend(groups.unlinked_positives())

    for (a, b), edges in groups.contexts(groups.linked_keys):
        sa, sb = summary.super_nodes[a], summary.super_nodes[b]
        rep = summary.super_edges[(a, b)]
        _correct_context(
            cor, product(sa.ports(), sb.ports()), rep, edges, _port_cover(sa, sb)
        )
    return cor


def reconstruct(summary: SummaryGraph, corrections: CorrectionSet) -> LabeledMultiGraph:
    """Apply corrections to the decompressed summary; exact inverse of
    compute_corrections for the graph the corrections were derived from.
    The summary is decoded by :func:`lmgsum.verify.decode`, with ids for
    names; an inconsistent pair raises ValueError."""
    # only code that decodes a summary compiles the decoder
    from .verify import decode

    n, label_ids = summary.graph_size, range(summary.label_count)
    rows = ((sn.id, sn.label, sn.glyph.value, sn.members, sn.hub, sn.rep_mult, sn.self_loop)
            for sn in summary.super_nodes.values())
    nodes = _transpose(rows, 7)
    edges = _transpose(((a, b, m) for (a, b), m in summary.super_edges.items()), 3)
    cor = [_transpose(kind, width) for kind, width in (
        (corrections.positive, 3), (corrections.negative, 2), (corrections.mult_deltas, 3))]
    try:
        keys, mult, label, _record = decode(
            nodes, edges, cor, dict(zip(range(n), range(n))), dict(zip(label_ids, label_ids)), n,
            (summary.node_names or range(n)).__getitem__,
        )
    except KeyError as e:
        raise ValueError(f"id {e.args[0]!r} out of range") from None
    return LabeledMultiGraph.from_arrays(
        n, keys // n, keys % n, mult, label, summary.label_names or None, summary.node_names or None
    )


# -- correction cost ----------------------------------------------------------


def _context_bits(region: int, x_size: int, rep: int, edges, covers) -> float:
    """Correction bits of one context whose expansion X holds ``x_size`` of
    its ``region`` node pairs; ``covers(u, w)`` tells whether (u, w) is in X.

    Edges inside X are corrected against ``rep``, edges outside X are
    positive corrections, and pairs of X without an edge are negative ones.
    """
    terms: list[float] = []
    covered = 0
    for u, w, m in edges:
        if covers(u, w):
            terms.append(ell_diff(m, rep))
            covered += 1
        else:
            terms.append(len_natural(m))
    positive = len(terms) - covered
    if x_size >= 1:
        terms.append(cost_correction_set(x_size - covered, x_size))
    if region - x_size >= 1:
        terms.append(cost_correction_set(positive, region - x_size))
    return math.fsum(terms)


def _port_cover(sa: SuperNode, sb: SuperNode):
    """Whether (u, w) lies in the expansion of a super-edge from sa to sb:
    every port of sa to every port of sb."""
    ports_a, ports_b = set(sa.ports()), set(sb.ports())
    return lambda u, w: u in ports_a and w in ports_b


def node_context_bits(sn: SuperNode, internal: list[tuple[int, int, int]]) -> float:
    """Correction bits owned by one super-node's internal region.

    ``internal`` lists the original edges (u, w, m) with both endpoints in
    the super-node, self-loops included.
    """
    k = sn.size
    x_size = sn.glyph_pair_count() + (k if sn.self_loop else 0)
    return _context_bits(k * k, x_size, sn.rep_mult, internal, sn.covers_pair)


def pair_context_bits(
    sa: SuperNode,
    sb: SuperNode,
    rep: int | None,
    edges: list[tuple[int, int, int]],
) -> float:
    """Correction bits owned by the ordered super-node pair (sa, sb).

    ``rep`` is the super-edge's representative multiplicity, or None when the
    pair is not linked (then every edge is a positive correction over the
    full region).
    """
    region = sa.size * sb.size
    if rep is None:
        if not edges:
            return 0.0
        return _unlinked_bits(region, [m for _, _, m in edges])
    x_size = len(sa.ports()) * len(sb.ports())
    return _context_bits(region, x_size, rep, edges, _port_cover(sa, sb))


def _unlinked_bits(region: int, mults: list[int]) -> float:
    """Bits of a pair context without a super-edge over ``region`` node
    pairs: every edge, of multiplicity ``mults[i]``, is a positive one."""
    return math.fsum(chain((cost_correction_set(len(mults), region),), map(len_natural, mults)))


class ContextPrices:
    """Context bits, each class of cheap context priced once.

    A one-edge pair context without a super-edge costs the same for every
    ``(region, m)``, and a one-member node context, whose only possible
    edge is the member's self-loop, the same for every ``(self_loop,
    rep_mult, loop multiplicity)``.  Those two classes are served from one
    memo (2-tuple and 3-tuple keys); every other context is priced by
    :func:`pair_context_bits` or :func:`node_context_bits` on each call.

    Its one owner is the merge state (:class:`lmgsum.merge.SummaryState`),
    which keeps its own instance: a process-wide memo would go on serving
    bits from a formula that has since changed.
    """

    def __init__(self):
        self._memo: dict[tuple, float] = {}

    def one_edge(self, region: int, m: int) -> float:
        """Bits of an unlinked pair context over ``region`` node pairs
        holding one edge of multiplicity ``m``."""
        bits = self._memo.get((region, m))
        if bits is None:
            bits = self._memo[(region, m)] = _unlinked_bits(region, [m])
        return bits

    def singleton(self, sn: SuperNode, loop: int) -> float:
        """Bits of the one-member ``sn``'s node context when its member's
        self-loop has multiplicity ``loop`` (0 for none)."""
        key = (sn.self_loop, sn.rep_mult, loop)
        bits = self._memo.get(key)
        if bits is None:
            (u,) = sn.members
            bits = self._memo[key] = node_context_bits(sn, [(u, u, loop)] if loop else [])
        return bits

    def pair(
        self, sa: SuperNode, sb: SuperNode, rep: int | None, edges: list[tuple[int, int, int]]
    ) -> float:
        """:func:`pair_context_bits`, from the memo for one unlinked edge."""
        if rep is None and len(edges) == 1:
            return self.one_edge(sa.size * sb.size, edges[0][2])
        return pair_context_bits(sa, sb, rep, edges)


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
    if costs is None:
        costs = total_cost(g, summary)
    return {
        "graph_size": summary.graph_size,
        "label_names": list(summary.label_names or g.label_names),
        "node_names": list(names),
        "super_nodes": [
            {
                "id": sn.id,
                "label": summary.label_names[sn.label]
                if summary.label_names
                else g.label_names[sn.label],
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


_NODE_FIELDS = itemgetter("id", "label", "glyph", "members", "hub", "rep_mult", "self_loop")
_EDGE_FIELDS = itemgetter("src", "dst", "rep_mult")
_NOUNS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}


def _exact(values, kind: type, name) -> None:
    """Raise TypeError unless every value's type is exactly ``kind``;
    ``name(i)`` says which value ``values[i]`` is.

    JSON readers hand back ``1.0``, ``"1"`` and ``true`` where an integer
    belongs, and numpy would quietly turn each into 1; ``bool`` is an
    ``int`` subclass, so ``isinstance`` would let ``true`` through too.
    """
    if not set(map(type, values)) <= {kind}:
        i = next(i for i, value in enumerate(values) if type(value) is not kind)
        raise TypeError(f"{name(i)}: {values[i]!r} is not {_NOUNS[kind]}")


def _once(values, what: str) -> None:
    """Raise ValueError when a value repeats in ``values``."""
    if len(set(values)) < len(values):
        repeat = next(value for value, count in Counter(values).items() if count > 1)
        raise ValueError(f"{what} {repeat!r} appears more than once")


def _listed(data: dict, key: str, kind: type, what: str) -> list:
    """``data[key]``, a JSON list of ``kind`` values, each named ``what``."""
    values = data[key]
    _exact((values,), list, lambda _i: key)
    _exact(values, kind, lambda i: f"{what} {i}")
    return values


def _transpose(rows, width: int) -> list[list]:
    """The ``width`` columns of ``width``-long rows (faster than ``zip(*rows)``)."""
    flat = list(chain.from_iterable(rows))
    return [flat[i::width] for i in range(width)]


def summary_columns(data: dict) -> tuple[int, list[str], list[str], list[list], list[list]]:
    """The columns of a report's ``summary`` section: graph size, node
    names, label names, the super-node columns (id, label, glyph, members,
    hub, rep_mult, self_loop) and the super-edge columns (src, dst, rep_mult).

    TypeError unless each value is exactly its JSON type, ValueError when a
    super-node id, super-edge pair, node name or label name repeats.  Names
    and glyphs are checked where they are looked up.
    """
    size = data["graph_size"]
    _exact((size,), int, lambda _i: "graph_size")
    names = _listed(data, "node_names", str, "node name")
    _once(names, "node name")
    label_names = _listed(data, "label_names", str, "label name")
    _once(label_names, "label name")
    records = _listed(data, "super_nodes", dict, "super-node record")
    nodes = _transpose(map(_NODE_FIELDS, records), 7)
    ids, _labels, _glyphs, members, _hubs, reps, loops = nodes
    _exact(ids, int, lambda i: f"id of super-node record {i}")
    _once(ids, "super-node id")
    _exact(reps, int, lambda i: f"rep_mult of super-node {ids[i]}")
    _exact(loops, bool, lambda i: f"self_loop of super-node {ids[i]}")
    _exact(members, list, lambda i: f"members of super-node {ids[i]}")
    records = _listed(data, "super_edges", dict, "super-edge record")
    edges = src, dst, mults = _transpose(map(_EDGE_FIELDS, records), 3)
    for end, column in (("src", src), ("dst", dst), ("rep_mult", mults)):
        _exact(column, int, lambda i: f"{end} of super-edge {(src[i], dst[i])}")
    _once(list(zip(src, dst)), "super-edge")
    return size, names, label_names, nodes, edges


def summary_from_dict(data: dict) -> SummaryGraph:
    """Inverse of summary_to_dict (ids are re-derived from node_names)."""
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
    names = summary.node_names
    return {
        "positive": [[names[u], names[w], m] for u, w, m in cor.positive],
        "negative": [[names[u], names[w]] for u, w in cor.negative],
        "mult_deltas": [[names[u], names[w], d] for u, w, d in cor.mult_deltas],
    }


def correction_columns(data: dict) -> list[list[list]]:
    """The columns of a report's ``corrections`` section: (u, w, m) of the
    positive corrections, (u, w) of the negative ones and (u, w, d) of the
    multiplicity deltas, ``u`` and ``w`` node names.  A row is a JSON list
    of its width, and ``m`` and ``d`` are JSON integers; else TypeError or
    ValueError."""
    kinds = []
    for key, width, what in (
        ("positive", 3, "positive correction"),
        ("negative", 2, "negative correction"),
        ("mult_deltas", 3, "multiplicity delta"),
    ):
        rows = _listed(data, key, list, what)
        if not set(map(len, rows)) <= {width}:
            i = next(i for i, row in enumerate(rows) if len(row) != width)
            raise ValueError(f"{what} {i}: {rows[i]!r} does not have {width} items")
        columns = _transpose(rows, width)
        if width == 3:
            u, w, m = columns
            _exact(m, int, lambda i: f"{what} {(u[i], w[i])}")
        kinds.append(columns)
    return kinds


def corrections_from_dict(summary: SummaryGraph, data: dict) -> CorrectionSet:
    """Inverse of corrections_to_dict, node names read as ``summary``'s ids."""
    node_id = dict(zip(summary.node_names, range(len(summary.node_names)))).__getitem__
    (pu, pw, pm), (nu, nw), (du, dw, dd) = correction_columns(data)
    return CorrectionSet(
        positive=list(zip(map(node_id, pu), map(node_id, pw), pm)),
        negative=list(zip(map(node_id, nu), map(node_id, nw))),
        mult_deltas=list(zip(map(node_id, du), map(node_id, dw), dd)),
    )


def export_dot(summary: SummaryGraph, graph_name: str = "summary") -> str:
    """Graphviz rendering: shape encodes the glyph, fill color the label,

    node text is "label|member count|representative multiplicity", and each
    super-edge is annotated with its representative multiplicity.
    """
    lines = [f"digraph {graph_name} {{", "  node [style=filled];"]
    for sn in sorted(summary.super_nodes.values(), key=lambda s: s.id):
        label_name = (
            summary.label_names[sn.label] if summary.label_names else str(sn.label)
        )
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
