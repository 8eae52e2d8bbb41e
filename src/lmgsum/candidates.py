"""Candidate node sets via minhash LSH over direction-tagged adjacency.

Two nodes are similar when their combined in/out neighbor sets overlap: the
directed Jaccard similarity counts intersections of in-neighbors and of
out-neighbors separately (an in- and an out-neighbor with the same id never
match).  Minhash signatures over the tagged tokens collide row-wise with
probability equal to that similarity, so a full r-row band collision happens
with probability J^r.  Bands are added one at a time; the b-th band admits
pairs down to the threshold t(b) = (1/b)^(1/r), so candidate discovery is a
sweep from high to low similarity.

Nodes sharing a band signature fall into one bucket; buckets are coalesced
into clusters with union-find.  Newly coalesced pairs within a degree window
are verified exactly: pairs at or above the current threshold become edges
of the similarity graph, pairs between the final threshold and the current
one wait in a max-heap cache and are promoted when the threshold drops to
them.  Which pairs a band verifies never depends on a similarity value, so
the band collects them first, computes their similarities with array
operations (:func:`pair_similarities`, bit for bit
:func:`directed_jaccard`; one pass unless the band gathers more than
``_PASS_TOKENS`` tokens), then admits or caches them in visit order.
Candidates are the maximal cliques of the similarity graph that contain at
least one new edge; their quality is the minimum pairwise similarity inside
the clique.  A harvest enumerates the maximal cliques through each endpoint
of a new edge once, by Bron-Kerbosch with Tomita pivoting on integer
bitsets, and keeps those that contain a new edge.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graph import LabeledMultiGraph

SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64_scalar(x: int) -> int:
    x &= _MASK
    x ^= x >> 30
    x = (x * _C1) & _MASK
    x ^= x >> 27
    x = (x * _C2) & _MASK
    x ^= x >> 31
    return x


def _mix64(x: np.ndarray) -> np.ndarray:
    x = x.copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(_C1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_C2)
    x ^= x >> np.uint64(31)
    return x


def _row_key(seed: int, band: int, row: int) -> int:
    return _mix64_scalar(
        _mix64_scalar(seed ^ 0x9E3779B97F4A7C15) ^ (band * 0xD1B54A32D192ED03) ^ row
    )


def threshold(band_count: int, r: int) -> float:
    """Similarity admitted after band_count bands: (1/b)^(1/r)."""
    if band_count < 1 or r < 1:
        raise ValueError("band_count and r must be >= 1")
    return (1.0 / band_count) ** (1.0 / r)


def directed_jaccard(g: LabeledMultiGraph, v: int, w: int) -> float:
    """Directionality-preserving Jaccard similarity of two nodes.

    Intersections and unions of the in-neighbor sets and of the out-neighbor
    sets are summed separately; two nodes without any neighbors score 0.
    """
    iv, iw = g.in_neighbors(v), g.in_neighbors(w)
    ov, ow = g.out_neighbors(v), g.out_neighbors(w)
    ii = np.intersect1d(iv, iw, assume_unique=True).size
    oo = np.intersect1d(ov, ow, assume_unique=True).size
    union = (len(iv) + len(iw) - ii) + (len(ov) + len(ow) - oo)
    if union == 0:
        return 0.0
    return (ii + oo) / union


#: tokens gathered per array pass of :func:`pair_similarities`, which bounds
#: its memory whatever the band's pair count and degrees
_PASS_TOKENS = 1 << 15


def pair_similarities(
    g: LabeledMultiGraph, pairs: list[tuple[int, int]]
) -> list[float]:
    """:func:`directed_jaccard` of every ``(v, w)`` in ``pairs``, bit for
    bit, in array passes of about ``_PASS_TOKENS`` gathered tokens each.

    A node's direction-tagged tokens are unique, so |T_v & T_w| is the
    number of tokens the two slices of ``g.token_array()`` share, which is
    ii + oo.  Each pair's tokens are keyed ``pair * (2n + 2) + token`` and
    sorted; equal neighbors are the shared tokens.  The quotient is the
    same int-by-int division as in :func:`directed_jaccard`.
    """
    if not pairs:
        return []
    tokens, indptr = g.token_array()
    ends = np.array(pairs, dtype=np.int64)
    starts = indptr[ends]
    lengths = indptr[ends + 1] - starts
    cuts = np.flatnonzero(np.diff(np.cumsum(lengths.sum(axis=1)) // _PASS_TOKENS)) + 1
    span = 2 * g.n + 2
    out: list[float] = []
    for part_starts, part_lengths in zip(np.split(starts, cuts), np.split(lengths, cuts)):
        out += _similarity_pass(tokens, part_starts, part_lengths, span)
    return out


def _similarity_pass(
    tokens: np.ndarray, starts: np.ndarray, lengths: np.ndarray, span: int
) -> list[float]:
    """Similarities of the pairs whose token slices start at ``starts`` and
    have ``lengths``, both ``(pairs, 2)`` arrays."""
    count = len(starts)
    first, size = starts.T.ravel(), lengths.T.ravel()  # every v, then every w
    # position of each gathered token in ``tokens``, built in place
    at = np.repeat(first - (np.cumsum(size) - size), size)
    at += np.arange(len(at))
    keys = tokens.view(np.int64)[at]  # token values are below 2n
    del at
    keys += np.repeat(np.tile(np.arange(count, dtype=np.int64) * span, 2), size)
    keys.sort()
    shared = np.bincount(keys[1:][keys[1:] == keys[:-1]] // span, minlength=count)
    union = lengths[:, 0] + lengths[:, 1] - shared
    # a pair without tokens shares none: 0 / 1 is directed_jaccard's 0.0
    return (shared / np.maximum(union, 1)).tolist()


def minhash_band(
    g: LabeledMultiGraph, band_index: int, seed: int, r: int
) -> np.ndarray:
    """(n, r) matrix of row-minimum hashes for one band.

    Row j of node v is the minimum keyed hash over v's direction-tagged
    neighbor tokens.  Nodes without any token get the sentinel value in
    every row; the sentinel never collides because such nodes are excluded
    from bucketing altogether.
    """
    tokens, indptr = g.token_array()
    sig = np.full((g.n, r), SENTINEL, dtype=np.uint64)
    lengths = np.diff(indptr)
    nonempty = np.nonzero(lengths > 0)[0]
    if len(nonempty) == 0:
        return sig
    starts = indptr[:-1][nonempty]
    for j in range(r):
        key = np.uint64(_row_key(seed, band_index, j))
        hashed = _mix64(tokens ^ key)
        sig[nonempty, j] = np.minimum.reduceat(hashed, starts)
    return sig


def _band_keys(sig: np.ndarray) -> np.ndarray:
    """Collapse the r row-minima of each node into one bucket key."""
    key = sig[:, 0].copy()
    for j in range(1, sig.shape[1]):
        key = _mix64(key ^ (sig[:, j] + np.uint64(0x9E3779B97F4A7C15)))
    return key


@dataclass(frozen=True)
class Candidate:
    """A similar node group: maximal clique in the similarity graph."""

    nodes: tuple[int, ...]
    quality: float
    band: int

    @property
    def size(self) -> int:
        return len(self.nodes)


def candidate_sort_key(c: Candidate):
    """Descending size*quality, then larger size, then smallest members."""
    return (-c.size * c.quality, -c.size, c.nodes)


class SimilarityGraph:
    """Exact-similarity graph over verified node pairs.

    An edge is present iff the pair's directed Jaccard similarity reached
    the admission threshold in force when the pair was verified or promoted.
    """

    def __init__(self):
        self.adj: dict[int, set[int]] = {}
        self.jaccard: dict[tuple[int, int], float] = {}
        self.new_edges: list[tuple[int, int]] = []

    def add_edge(self, u: int, v: int, j: float) -> None:
        u, v = (u, v) if u < v else (v, u)
        if (u, v) in self.jaccard:
            return
        self.jaccard[(u, v)] = j
        self.adj.setdefault(u, set()).add(v)
        self.adj.setdefault(v, set()).add(u)
        self.new_edges.append((u, v))

    def neighbors(self, u: int) -> set[int]:
        return self.adj.get(u, set())

    def similarity(self, u: int, v: int) -> float:
        u, v = (u, v) if u < v else (v, u)
        return self.jaccard[(u, v)]

    def quality(self, nodes) -> float:
        nodes = sorted(nodes)
        return min(
            self.jaccard[(u, v)]
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
        )

    def cliques_through(self, u: int, excluded: set[int]) -> list[tuple[int, ...]]:
        """Maximal cliques that contain ``u`` and no node of ``excluded``,
        each once, as sorted node tuples.

        Bron-Kerbosch with Tomita pivoting over u's neighbors, relabeled to
        bits 0..deg-1 so every set is a Python int as wide as u's degree.
        Excluded neighbors start in X: a clique they could extend is not
        maximal here, and one they belong to is left to their own call.
        """
        nbr_set = self.adj[u]
        nbrs = sorted(nbr_set)
        bit = {w: 1 << i for i, w in enumerate(nbrs)}
        nb = []
        for w in nbrs:
            m = 0
            for x in self.adj[w] & nbr_set:
                m |= bit[x]
            nb.append(m)
        p = x = 0
        for w, b in bit.items():
            if w in excluded:
                x |= b
            else:
                p |= b
        masks: list[int] = []

        def expand(r: int, p: int, x: int) -> None:
            if not p:
                if not x:
                    masks.append(r)
                return
            # pivot: the vertex of P | X with the most neighbors in P
            size_p = p.bit_count()
            best = -1
            scan = p | x
            while scan:
                low = scan & -scan
                scan ^= low
                covered = (p & nb[low.bit_length() - 1]).bit_count()
                if covered > best:
                    best, pivot = covered, low.bit_length() - 1
                    if covered == size_p:
                        break
            rest = p & ~nb[pivot]
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                expand(r | low, p & nb[i], x & nb[i])
                p ^= low
                x |= low

        expand(0, p, x)
        cliques = []
        for r in masks:
            nodes = [u]
            while r:
                low = r & -r
                r ^= low
                nodes.append(nbrs[low.bit_length() - 1])
            cliques.append(tuple(sorted(nodes)))
        return cliques

    @property
    def edge_count(self) -> int:
        return len(self.jaccard)


class PairCache:
    """Max-heap of verified pairs still below the admission threshold."""

    def __init__(self):
        self._heap: list[tuple[float, int, int]] = []

    def push(self, j: float, u: int, v: int) -> None:
        heapq.heappush(self._heap, (-j, u, v))

    def pop_at_least(self, t: float) -> list[tuple[float, int, int]]:
        """Remove and return every cached pair with similarity >= t."""
        out = []
        while self._heap and -self._heap[0][0] >= t:
            negj, u, v = heapq.heappop(self._heap)
            out.append((-negj, u, v))
        return out

    def __len__(self):
        return len(self._heap)


class LshState:
    """Incremental LSH: clusters, verified pairs, similarity graph, cliques."""

    def __init__(
        self,
        g: LabeledMultiGraph,
        r: int = 8,
        b_max: int = 10,
        seed: int = 0,
        cluster_cap: int = 5000,
    ):
        self.g = g
        self.r = r
        self.b_max = b_max
        self.seed = seed
        self.cluster_cap = cluster_cap
        self.t_min = threshold(b_max, r)
        self.bands_added = 0
        self.parent = list(range(g.n))
        # degree-sorted member lists, keyed by cluster root
        self.members: dict[int, list[tuple[int, int]]] = {
            v: [(g.degree(v), v)] for v in range(g.n)
        }
        self.verified: set[tuple[int, int]] = set()
        self.gsim = SimilarityGraph()
        self.cache = PairCache()
        self.max_clique_size: dict[int, int] = {}
        self.emitted: set[frozenset] = set()
        # pair-verification budget per cluster merge, to bound worst cases
        self.merge_budget = cluster_cap * 8

    # -- union-find with windowed pair verification -------------------------

    def _find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _window(self, arr: list[tuple[int, int]], deg: int):
        lo = int(np.floor(deg * self.t_min))
        hi = int(np.ceil(deg / self.t_min))
        i = bisect_left(arr, (lo,))
        j = bisect_left(arr, (hi + 1,))
        return arr[i:j]

    def _union(self, a: int, b: int, pairs: list[tuple[int, int]]) -> None:
        """Coalesce the clusters of ``a`` and ``b``, appending the pairs
        across them that fall in the degree window, are within the budget
        and were never verified, in visit order."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        small, large = self.members[ra], self.members[rb]
        if len(small) > len(large):
            ra, rb = rb, ra
            small, large = large, small
        verified = self.verified
        checks = 0
        for deg, u in small:
            if checks >= self.merge_budget:
                break
            for _dw, w in self._window(large, deg):
                checks += 1
                key = (u, w) if u < w else (w, u)
                if key not in verified:
                    verified.add(key)
                    pairs.append((u, w))
                if checks >= self.merge_budget:
                    break
        self.parent[ra] = rb
        del self.members[ra]
        if len(small) < 16:
            for item in small:
                insort(large, item)
        else:
            large.extend(small)
            large.sort()

    # -- band pipeline -------------------------------------------------------

    def add_band(self) -> None:
        """Hash the next band, bucket nodes, coalesce clusters, verify pairs.

        The pairs to verify depend on cluster membership, the degree window
        and the budget only, so the band collects them first, computes all
        their similarities with :func:`pair_similarities`, then admits or
        caches each in visit order.
        """
        self.bands_added += 1
        t = threshold(self.bands_added, self.r)
        sig = minhash_band(self.g, self.bands_added, self.seed, self.r)
        lengths = np.diff(self.g.token_array()[1])
        active = np.nonzero(lengths > 0)[0]
        if len(active) == 0:
            return
        keys = _band_keys(sig[active])
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        sorted_nodes = active[order].tolist()
        # buckets are runs of equal keys; only those of two or more coalesce
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(sorted_nodes)]))
        shared = ends - starts >= 2
        pairs: list[tuple[int, int]] = []
        for lo, hi in zip(starts[shared].tolist(), ends[shared].tolist()):
            first = sorted_nodes[lo]
            for other in sorted_nodes[lo + 1 : hi]:
                self._union(first, other, pairs)
        for (u, v), j in zip(pairs, pair_similarities(self.g, pairs)):
            if j >= t:
                self.gsim.add_edge(u, v, j)
            elif j >= self.t_min:
                self.cache.push(j, u, v)
        for j, u, v in self.cache.pop_at_least(t):
            self.gsim.add_edge(u, v, j)

    def harvest_cliques(self) -> list[Candidate]:
        """Maximal cliques that contain an edge added since the last harvest.

        A new edge (u, v) is skipped when ``2 + |N(u) & N(v)|``, the size
        bound of any clique through it, cannot beat the recorded maximum of
        both endpoints; the others are the live edges.  Each maximal clique
        through an endpoint of a live edge is enumerated once, from the
        first such endpoint in node order, and kept if it contains a live
        edge.  Emitted node sets are never repeated.
        """
        adj = self.gsim.adj
        new_edges = self.gsim.new_edges
        self.gsim.new_edges = []
        live: dict[int, set[int]] = {}
        for u, v in new_edges:
            bound = 2 + len(adj[u] & adj[v])
            known_u = self.max_clique_size.get(u, 0)
            known_v = self.max_clique_size.get(v, 0)
            if bound <= known_u and bound <= known_v:
                continue
            live.setdefault(u, set()).add(v)
            live.setdefault(v, set()).add(u)
        found: list[Candidate] = []
        done: set[int] = set()
        for u in sorted(live):
            for nodes in self.gsim.cliques_through(u, done):
                members = set(nodes)
                if all(members.isdisjoint(live.get(x, ())) for x in nodes):
                    continue
                fs = frozenset(nodes)
                if fs in self.emitted:
                    continue
                self.emitted.add(fs)
                found.append(
                    Candidate(nodes, self.gsim.quality(nodes), self.bands_added)
                )
            done.add(u)
        for c in found:
            for x in c.nodes:
                if self.max_clique_size.get(x, 0) < c.size:
                    self.max_clique_size[x] = c.size
        return found


def prune_redundant(cands: list[Candidate]) -> list[Candidate]:
    """Drop candidates that are strict subsets of an equal-or-better one."""
    by_node: dict[int, list[int]] = {}
    for i, c in enumerate(cands):
        for v in c.nodes:
            by_node.setdefault(v, []).append(i)
    keep = [True] * len(cands)
    for i, c in enumerate(cands):
        probe = min(c.nodes, key=lambda v: len(by_node[v]))
        cset = set(c.nodes)
        for j in by_node[probe]:
            other = cands[j]
            if (
                other.size > c.size
                and other.quality >= c.quality
                and cset.issubset(other.nodes)
            ):
                keep[i] = False
                break
    return [c for i, c in enumerate(cands) if keep[i]]


def candidate_batches(
    state: LshState, checkpoints: tuple[int, ...] = ()
) -> Iterator[tuple[int, list[Candidate]]]:
    """Add bands up to ``state.b_max``, yielding (band, batch) at each
    checkpoint band and at the last one.

    A batch holds the candidates harvested since the previous batch, pruned
    and sorted best first: they compete in one pass, so a complete
    structure outranks its own fragments.
    """
    pending: list[Candidate] = []
    for b in range(state.bands_added + 1, state.b_max + 1):
        state.add_band()
        pending.extend(state.harvest_cliques())
        if b in checkpoints or b == state.b_max:
            yield b, sorted(prune_redundant(pending), key=candidate_sort_key)
            pending = []

