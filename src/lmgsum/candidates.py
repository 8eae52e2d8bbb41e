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

Nodes with equal non-empty token rows are twins, structurally equivalent
in Lorrain and White's sense: they have similarity 1 with each other and
the same similarity to every other node, and they share every band key.
The sweep runs on one representative per twin class (:func:`twin_classes`;
the class's smallest member), so only representatives are hashed,
bucketed, coalesced and verified.  Its similarity graph stands for the one
over all nodes in which each class is a clique and two classes are joined
member to member, so every maximal clique there holds all of a class or
none of it.  A harvest therefore counts members in the clique-size bound
and in the recorded clique sizes, takes each class's internal pairs as new
edges of band 1 (a class without a similar neighbor is a candidate of its
own), computes quality over representatives (1.0 inside a class) and lists
every member of a clique's classes in its candidate.  The candidates equal
the uncontracted sweep's (``tests/oracle.py``): which side of a union the
degree window is read from decides whether some pairs are verified, but
only pairs below the final threshold, so the similarity graph and the cache
do not depend on it.  Only a verification budget that cuts checks can make
the two differ; ``LshState.budget_skips`` counts the checks it cut.
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
#: keys the row hash that proposes twin classes
_ROW_SALT = 0x2545F4914F6CDD1D


def _mix64(x: np.ndarray) -> np.ndarray:
    """Replace every element of ``x`` by its splitmix64 finalizer, in place,
    and return ``x``."""
    # the one temporary: each step's shifted copy
    shifted = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=shifted)
    x ^= shifted
    x *= np.uint64(_C1)
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= np.uint64(_C2)
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def _row_keys(seed: int, band: int, r: int) -> np.ndarray:
    """The hash keys of the band's ``r`` rows."""
    base = _mix64(np.array([(seed ^ 0x9E3779B97F4A7C15) & _MASK], dtype=np.uint64))[0]
    mixed = int(base) ^ (band * 0xD1B54A32D192ED03)
    return _mix64(np.array([(mixed ^ row) & _MASK for row in range(r)], dtype=np.uint64))


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
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(nonempty):
        sig[nonempty] = _row_minima(g, tokens, indptr[:-1][nonempty], band_index, seed, r)
    return sig


def _row_minima(
    g: LabeledMultiGraph,
    tokens: np.ndarray,
    starts: np.ndarray,
    band_index: int,
    seed: int,
    r: int,
) -> np.ndarray:
    """(len(starts), r) row-minimum hashes of the runs of ``tokens`` (some
    of ``g``'s token values) that begin at ``starts``, each run ending
    where the next begins.

    A token's keyed hash depends on its value only, so each row hashes the
    graph's distinct token values (:meth:`LabeledMultiGraph.token_values`)
    into a table indexed by value, and every occurrence reads its hash from
    there.
    """
    values = g.token_values()
    # token values are below 2n, so they index the table directly
    at, slots = tokens.view(np.int64), values.view(np.int64)
    table = np.empty(2 * g.n, dtype=np.uint64)
    hashed = np.empty_like(values)
    sig = np.empty((len(starts), r), dtype=np.uint64)
    for j, key in enumerate(_row_keys(seed, band_index, r)):
        np.bitwise_xor(values, key, out=hashed)
        table[slots] = _mix64(hashed)
        sig[:, j] = np.minimum.reduceat(table[at], starts)
    return sig


def twin_classes(g: LabeledMultiGraph) -> list[tuple[int, ...]]:
    """The twin classes of ``g``: maximal sets of two or more nodes with
    equal non-empty token rows, each sorted, in order of their smallest
    member.  A tokenless node is never a twin.

    A wrapping sum of each row's mixed tokens proposes the classes, and an
    exact comparison of every member's row with its class's first row
    decides them; a proposed class that fails it is split by row bytes.
    """
    tokens, indptr = g.token_array()
    nodes = np.flatnonzero(np.diff(indptr) > 0)
    if len(nodes) < 2:
        return []
    row_hash = np.add.reduceat(_mix64(tokens ^ np.uint64(_ROW_SALT)), indptr[:-1][nodes])
    # stable, so each run of equal hashes lists its nodes in id order
    order = np.argsort(row_hash, kind="stable")
    row_hash, nodes = row_hash[order], nodes[order]
    starts = np.flatnonzero(np.concatenate(([True], row_hash[1:] != row_hash[:-1])))
    sizes = np.diff(np.append(starts, len(nodes)))
    first = np.repeat(nodes[starts], sizes)
    length = np.diff(indptr)[nodes]
    same = length == np.diff(indptr)[first]
    # tokens compared: a node alone in its run is left out
    k = length * (same & np.repeat(sizes > 1, sizes))
    offset = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    differ = tokens[np.repeat(indptr[nodes], k) + offset] != tokens[np.repeat(indptr[first], k) + offset]
    same[np.repeat(np.arange(len(nodes)), k)[differ]] = False
    exact = np.logical_and.reduceat(same, starts)
    ranked = nodes.tolist()
    out: list[tuple[int, ...]] = []
    for i, size, ok in zip(*(x[sizes > 1].tolist() for x in (starts, sizes, exact))):
        if ok:
            out.append(tuple(ranked[i : i + size]))
            continue
        rows: dict[bytes, list[int]] = {}
        for v in ranked[i : i + size]:
            rows.setdefault(tokens[indptr[v] : indptr[v + 1]].tobytes(), []).append(v)
        out += [tuple(c) for c in rows.values() if len(c) > 1]
    out.sort()
    return out


def _band_keys(sig: np.ndarray) -> np.ndarray:
    """Collapse the r row-minima of each node into one bucket key."""
    key = sig[:, 0].copy()
    column = np.empty_like(key)
    for j in range(1, sig.shape[1]):
        np.add(sig[:, j], np.uint64(0x9E3779B97F4A7C15), out=column)
        key ^= column
        _mix64(key)
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
        The mask of N(w) & N(u) is built the first time the pivot scan or a
        branch reads it, so a call whose first pivot covers P builds few.
        The search runs depth-first on an explicit stack, in the order of
        the recursive form (``tests/oracle.py``), so the clique size is not
        bounded by Python's recursion limit.
        """
        adj = self.adj
        nbr_set = adj[u]
        nbrs = sorted(nbr_set)
        bit = {w: 1 << i for i, w in enumerate(nbrs)}
        nb: list[int | None] = [None] * len(nbrs)

        def build(i: int) -> int:
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
        masks: list[int] = []
        # depth-first on an explicit stack of (r, p, x, rest) frames, rest
        # being the branch vertices a node has yet to visit; a node's frame
        # goes back under its child's, so siblings follow the child's subtree
        stack: list[tuple[int, int, int, int]] = []
        r = 0
        while True:
            if p:
                # pivot: the vertex of P | X with the most neighbors in P
                size_p = p.bit_count()
                best = -1
                scan = p | x
                while scan:
                    low = scan & -scan
                    scan ^= low
                    i = low.bit_length() - 1
                    m = nb[i]
                    if m is None:
                        m = build(i)
                    covered = (p & m).bit_count()
                    if covered > best:
                        best, pivot_mask = covered, m
                        if covered == size_p:
                            break
                rest = p & ~pivot_mask
                if rest:
                    stack.append((r, p, x, rest))
            elif not x:
                masks.append(r)
            if not stack:
                break
            r, p, x, rest = stack.pop()
            low = rest & -rest
            rest ^= low
            if rest:
                stack.append((r, p ^ low, x | low, rest))
            i = low.bit_length() - 1
            m = nb[i]
            if m is None:
                m = build(i)
            r, p, x = r | low, p & m, x & m
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
    """Incremental LSH over one similarity vertex per twin class: clusters,
    verified pairs, similarity graph, cliques.

    ``classes`` maps the representative of each :func:`twin_classes` class,
    its smallest member, to the class.  Twins share every band key, have
    Jaccard 1 with each other and the same similarity to every other node,
    so only representatives are hashed, bucketed, coalesced and verified,
    and ``members``, ``verified``, ``cache``, ``gsim`` and
    ``max_clique_size`` hold representatives only.  A harvested clique
    stands for the clique of all its classes' members, and its candidate
    lists them all; ``max_clique_size`` counts members.
    ``budget_skips`` counts the pair checks that ``merge_budget`` cut off.
    """

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
        self.t_min = threshold(b_max, r)
        self.bands_added = 0
        self.classes = {c[0]: c for c in twin_classes(g)}
        tokens, indptr = g.token_array()
        degrees = np.diff(indptr)
        hashed = degrees > 0
        for c in self.classes.values():
            hashed[list(c[1:])] = False
        # the hashed representatives, and their token rows end to end
        self.active = np.flatnonzero(hashed)
        self._tokens = tokens[np.repeat(hashed, degrees)]
        sizes = degrees[self.active]
        self._starts = np.cumsum(sizes) - sizes
        self.parent = list(range(g.n))
        # degree-sorted member lists, keyed by cluster root
        self.members: dict[int, list[tuple[int, int]]] = {
            v: [(d, v)] for v, d in zip(self.active.tolist(), sizes.tolist())
        }
        self.verified: set[tuple[int, int]] = set()
        self.gsim = SimilarityGraph()
        self.cache = PairCache()
        self.max_clique_size: dict[int, int] = {}
        # pair-verification budget per cluster merge, to bound worst cases
        self.merge_budget = cluster_cap * 8
        self.budget_skips = 0
        # members beyond the representative, by representative
        self._extra = {x: len(c) - 1 for x, c in self.classes.items()}
        # classes whose internal pairs are new edges: band 1's, until harvested
        self._fresh: set[int] = set()

    # -- union-find with windowed pair verification -------------------------

    def _find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def _window(self, arr: list[tuple[int, int]], deg: int) -> tuple[int, int]:
        """The slice bounds of ``arr``'s entries whose degree is in the
        window of ``deg``."""
        lo = int(np.floor(deg * self.t_min))
        hi = int(np.ceil(deg / self.t_min))
        return bisect_left(arr, (lo,)), bisect_left(arr, (hi + 1,))

    def _union(self, a: int, b: int, pairs: list[tuple[int, int]]) -> None:
        """Coalesce the clusters of ``a`` and ``b``, appending the pairs
        across them that fall in the degree window and are within the
        budget, in visit order, to ``pairs`` and to ``verified``; the
        others in the window add to ``budget_skips``.

        A pair is verified only when its two clusters merge, and clusters
        never split, so no pair across two clusters was verified before."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        small, large = self.members[ra], self.members[rb]
        if len(small) > len(large):
            ra, rb = rb, ra
            small, large = large, small
        verified = self.verified
        left = self.merge_budget
        for deg, u in small:
            i, j = self._window(large, deg)
            take = min(j - i, left)
            for _dw, w in large[i : i + take]:
                verified.add((u, w) if u < w else (w, u))
                pairs.append((u, w))
            left -= take
            self.budget_skips += j - i - take
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
        caches each in visit order.  A twin class's internal pairs are band
        1's edges without being verified.
        """
        self.bands_added += 1
        if self.bands_added == 1:
            self._fresh = set(self.classes)
        t = threshold(self.bands_added, self.r)
        active = self.active
        if len(active) == 0:
            return
        sig = _row_minima(self.g, self._tokens, self._starts, self.bands_added, self.seed, self.r)
        keys = _band_keys(sig)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # buckets are runs of equal keys; only those of two or more coalesce
        bounds = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        sizes = np.concatenate((bounds, [len(order)])) - starts
        shared = sizes >= 2
        pairs: list[tuple[int, int]] = []
        if shared.any():
            # the members of shared buckets, bucket by bucket; heads[i] is
            # the position of member i's bucket's first member
            members = active[order][np.repeat(shared, sizes)]
            sizes = sizes[shared]
            heads = np.repeat(np.cumsum(sizes) - sizes, sizes)
            # nodes with one root at the band's start stay in one cluster,
            # so only a member whose root then differs from its first's can
            # coalesce anything
            parent = self.parent
            roots = members.tolist()
            while True:
                up = [parent[x] for x in roots]
                if up == roots:
                    break
                roots = up
            roots = np.array(roots)
            apart = roots != roots[heads]
            for first, other in zip(members[heads[apart]].tolist(), members[apart].tolist()):
                self._union(first, other, pairs)
        for (u, v), j in zip(pairs, pair_similarities(self.g, pairs)):
            if j >= t:
                self.gsim.add_edge(u, v, j)
            elif j >= self.t_min:
                self.cache.push(j, u, v)
        for j, u, v in self.cache.pop_at_least(t):
            self.gsim.add_edge(u, v, j)

    def harvest_cliques(self) -> list[Candidate]:
        """Maximal cliques that contain an edge added since the last harvest,
        each expanded by its classes.

        A new edge (u, v) is skipped when the members of u, v and their
        common neighbors, the size bound of any clique through it, cannot
        beat the recorded maximum of both endpoints; the others are the
        live edges.  The first harvest after band 1 also takes every twin
        class as live: its internal pairs are new edges there, so a class
        without a similar neighbor is a clique of its own.  Each maximal
        clique through a live class or an endpoint of a live edge is
        enumerated once, from the first such vertex in node order, and kept
        if it holds a live class or a live edge; a vertex that has an
        earlier such neighbor adjacent to all its other neighbors has none
        left and is not searched.  A kept clique's quality is the least
        similarity between its vertices, 1.0 for a single class, since
        twins have similarity 1 with each other.  No clique is emitted
        twice: within a harvest the enumeration lists each once, and a
        clique emitted earlier holds no new edge, because every edge of it
        existed then and ``add_edge`` admits a pair only once.
        """
        gsim = self.gsim
        adj = gsim.adj
        new_edges = gsim.new_edges
        gsim.new_edges = []
        extra = self._extra
        twinned = extra.keys()
        known = self.max_clique_size
        live: dict[int, set[int]] = {}
        for u, v in new_edges:
            known_u, known_v = known.get(u, 0), known.get(v, 0)
            # the bound is at least 2, so an endpoint in no clique yet is live
            if known_u and known_v:
                common = adj[u] & adj[v]
                bound = 2 + len(common) + extra.get(u, 0) + extra.get(v, 0)
                if twinned:
                    bound += sum(extra[x] for x in common & twinned)
                if bound <= known_u and bound <= known_v:
                    continue
            live.setdefault(u, set()).add(v)
            live.setdefault(v, set()).add(u)
        fresh, self._fresh = self._fresh, set()
        for x in fresh:
            live.setdefault(x, set())
        found: list[tuple[tuple[int, ...], Candidate]] = []
        done: set[int] = set()
        for u in sorted(live):
            nbrs = adj.get(u)
            if nbrs is None:
                cliques = [(u,)]
            else:
                # a done neighbor adjacent to all of u's other neighbors
                # extends every clique through u that avoids done vertices
                earlier = nbrs & done
                if earlier and nbrs - done <= adj[next(iter(earlier))]:
                    cliques = []
                else:
                    cliques = gsim.cliques_through(u, done)
            for nodes in cliques:
                vertices = set(nodes)
                if fresh.isdisjoint(nodes) and all(
                    vertices.isdisjoint(live.get(x, ())) for x in nodes
                ):
                    continue
                quality = gsim.quality(nodes) if len(nodes) > 1 else 1.0
                found.append((nodes, Candidate(self._expand(nodes), quality, self.bands_added)))
            done.add(u)
        for nodes, c in found:
            size = c.size
            for x in nodes:
                if known.get(x, 0) < size:
                    known[x] = size
        return [c for _nodes, c in found]

    def _expand(self, nodes: tuple[int, ...]) -> tuple[int, ...]:
        """The sorted members of the classes of ``nodes``."""
        if self._extra.keys().isdisjoint(nodes):
            return nodes
        classes = self.classes
        return tuple(sorted(v for x in nodes for v in classes.get(x, (x,))))


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

