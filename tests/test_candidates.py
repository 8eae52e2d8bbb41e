"""Tests for similarity search: directed Jaccard, minhash banding, the

incremental LSH state, and candidate harvesting."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmgsum import candidates
from lmgsum.candidates import (
    SENTINEL,
    Candidate,
    LshState,
    PairCache,
    SimilarityGraph,
    candidate_batches,
    candidate_sort_key,
    directed_jaccard,
    minhash_band,
    pair_similarities,
    prune_redundant,
    threshold,
    twin_classes,
)
from lmgsum.graph import LabeledMultiGraph
from lmgsum.synth import kout_graph, planted_graph, random_graph

import oracle
from oracle import (
    OracleLshState,
    oracle_cliques_through,
    oracle_maximal_cliques,
    oracle_mix64,
)


def edge_sets(n):
    """Sets of normalized non-loop node pairs over ``n`` nodes."""
    return st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1])
        .map(lambda p: (min(p), max(p))),
        max_size=20,
    )


def add_similarity_edges(state, adj, pairs):
    """Add ``pairs`` to the state's similarity graph and to ``adj``."""
    for u, v in pairs:
        state.gsim.add_edge(u, v, 1.0)
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)


@st.composite
def small_graph(draw):
    n = draw(st.integers(2, 12))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=30,
        )
    )
    edges = {(u, w): 1 + (u + w) % 5 for u, w in pairs}
    return LabeledMultiGraph(n, edges)


def brute_jaccard(g, v, w):
    inn = {x: set() for x in range(g.n)}
    out = {x: set() for x in range(g.n)}
    for u, x, _m in g.edges():
        out[u].add(x)
        inn[x].add(u)
    ii = len(inn[v] & inn[w])
    oo = len(out[v] & out[w])
    union = len(inn[v] | inn[w]) + len(out[v] | out[w])
    return (ii + oo) / union if union else 0.0


class TestThreshold:
    def test_values(self):
        assert threshold(1, 8) == 1.0
        assert threshold(10, 8) == pytest.approx(0.1 ** (1 / 8))
        assert threshold(4, 2) == pytest.approx(0.5)

    def test_monotone_in_bands(self):
        ts = [threshold(b, 8) for b in range(1, 11)]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            threshold(0, 8)
        with pytest.raises(ValueError):
            threshold(3, 0)


class TestDirectedJaccard:
    def test_identical_neighborhoods(self):
        g = LabeledMultiGraph(4, {(0, 2): 1, (1, 2): 1, (3, 0): 2, (3, 1): 2})
        assert directed_jaccard(g, 0, 1) == 1.0

    def test_direction_never_matches(self):
        # 0 points at 2, 2 points at 1: shared id, opposite directions
        g = LabeledMultiGraph(3, {(0, 2): 1, (2, 1): 1})
        assert directed_jaccard(g, 0, 1) == 0.0

    def test_isolated_pair_scores_zero(self):
        g = LabeledMultiGraph(4, {(2, 3): 1})
        assert directed_jaccard(g, 0, 1) == 0.0

    def test_self_pair_is_one(self):
        g = LabeledMultiGraph(3, {(0, 1): 1, (2, 0): 4})
        assert directed_jaccard(g, 0, 0) == 1.0

    @given(small_graph(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        w = data.draw(st.integers(0, g.n - 1))
        assert directed_jaccard(g, v, w) == pytest.approx(brute_jaccard(g, v, w))


@st.composite
def graph_and_pairs(draw):
    """A small graph (self-loops, reciprocal edges and isolated nodes all
    possible) and a batch of node pairs, possibly empty; optionally every
    pair from node 0, so one node is shared by many pairs."""
    g = draw(small_graph())
    node = st.integers(0, g.n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=25))
    if draw(st.booleans()):
        pairs += [(0, w) for w in range(1, g.n)]
    return g, pairs


class TestPairSimilarities:
    @given(graph_and_pairs())
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_directed_jaccard(self, case):
        g, pairs = case
        got = pair_similarities(g, pairs)
        assert got == [directed_jaccard(g, v, w) for v, w in pairs]
        assert all(type(j) is float for j in got)

    def test_edge_cases(self):
        # 0 and 1 reciprocal, 0 with a self-loop, 3 and 4 isolated
        g = LabeledMultiGraph(5, {(0, 1): 2, (1, 0): 1, (0, 0): 3, (2, 1): 1})
        pairs = [(3, 4), (0, 0), (0, 1), (1, 0), (0, 2), (0, 3), (2, 0)]
        assert pair_similarities(g, pairs) == [
            directed_jaccard(g, v, w) for v, w in pairs
        ]
        assert pair_similarities(g, [(3, 4), (0, 0)]) == [0.0, 1.0]
        assert pair_similarities(g, []) == []

    @given(graph_and_pairs(), st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_small_passes_give_the_same_floats(self, case, pass_tokens):
        # a tiny pass size splits the batch into many passes, some holding
        # a single pair with more tokens than the pass size
        g, pairs = case
        whole = pair_similarities(g, pairs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(candidates, "_PASS_TOKENS", pass_tokens)
            assert pair_similarities(g, pairs) == whole


def members_of(state, x):
    """The members of the class that ``state`` represents by ``x``."""
    return state.classes.get(x, (x,))


def expanded(state, pairs):
    """The node pairs that ``state``'s pairs of representatives stand for,
    ordered, each with its pair's value."""
    out = {}
    for (x, y), j in pairs.items():
        for u in members_of(state, x):
            for v in members_of(state, y):
                out[(u, v) if u < v else (v, u)] = j
    return out


def expanded_graph(state, pairs):
    """:func:`expanded`, plus every class's internal pairs at similarity 1
    once band 1 is added: the similarity graph over all nodes that a graph
    over representatives stands for."""
    out = expanded(state, pairs)
    if state.bands_added:
        for c in state.classes.values():
            out.update(dict.fromkeys(combinations(c, 2), 1.0))
    return out


def cached(state):
    """The state's cached pairs, ordered, with their similarities."""
    return {(u, v) if u < v else (v, u): -negj for negj, u, v in state.cache._heap}


def expanded_clusters(state):
    """The state's clusters, each as the set of all its classes' members."""
    return {
        frozenset(v for _d, x in entries for v in members_of(state, x))
        for entries in state.members.values()
    }


class TestBatchedVerification:
    def test_every_band_equals_the_per_pair_path(self):
        # planted_graph's defaults on seeds 0-3, then planted-merge's and
        # planted-clique's small sizes; the reference unions every bucket
        # pair of every node, production only the representatives whose
        # roots differed at the band's start
        cases = (
            [(s, 5, (10, 20)) for s in range(4)]
            + [(s, 6, (4, 6)) for s in (0, 1)]
            + [(s, 2, (8, 8)) for s in (0, 1)]
        )
        unions = {"prod": 0, "ref": 0}

        def counting(side, union):
            def wrapper(*args):
                unions[side] += 1
                return union(*args)
            return wrapper

        cached_pairs = rejected = twins = 0
        for seed, groups, size_range in cases:
            g, _ = planted_graph(seed, groups, groups, groups, size_range=size_range)
            prod = LshState(g, r=8, b_max=10, seed=seed)
            prod._union = counting("prod", prod._union)
            ref = OracleLshState(g, r=8, b_max=10, seed=seed)
            ref._union = counting("ref", ref._union)
            twins += len(prod.classes)
            for _band in range(10):
                prod.add_band()
                ref.add_band()
                assert expanded_graph(prod, prod.gsim.jaccard) == ref.gsim.jaccard
                # nothing is harvested, so band 1's class pairs stay new
                new = {p: prod.gsim.jaccard[p] for p in prod.gsim.new_edges}
                assert expanded_graph(prod, new) == {p: ref.gsim.jaccard[p] for p in ref.gsim.new_edges}
                assert expanded(prod, cached(prod)) == cached(ref)
                # tokenless nodes are never bucketed: production keeps no
                # cluster for them
                assert expanded_clusters(prod) == {
                    frozenset(v for _d, v in entries)
                    for entries in ref.members.values()
                    if entries[-1][0]
                }
                cached_pairs += len(prod.cache)
            assert ref.gsim.edge_count
            assert prod.budget_skips == 0
            rejected += len(prod.verified) - prod.gsim.edge_count - len(prod.cache)
        # some pairs waited in the cache, some were never admitted, and
        # some nodes were verified as classes
        assert cached_pairs and rejected and twins
        assert 0 < unions["prod"] < unions["ref"]


@st.composite
def banded_graphs(draw):
    """Graphs for the row hashing: matching-like ones, whose 2n token
    values outnumber their tokens, and dense ones with repeated values and
    self-loops; tokenless nodes in both."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        k = draw(st.integers(0, n // 2))
        edges = {(order[2 * i], order[2 * i + 1]): 1 for i in range(k)}
    else:
        pairs = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=80)
        )
        edges = {(u, w): 1 for u, w in pairs}
    return LabeledMultiGraph(n, edges)


def per_occurrence_band(g, band_index, seed, r):
    """``minhash_band`` as it is defined: every token occurrence hashed
    with the row key, then each node's minimum."""
    tokens, indptr = g.token_array()
    sig = np.full((g.n, r), SENTINEL, dtype=np.uint64)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    for j, key in enumerate(candidates._row_keys(seed, band_index, r)):
        hashed = candidates._mix64(tokens ^ key)
        if len(nonempty):
            sig[nonempty, j] = np.minimum.reduceat(hashed, indptr[:-1][nonempty])
    return sig


class TestMinhashBand:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=50))
    def test_array_mix_is_the_scalar_mix_in_place(self, values):
        x = np.array(values, dtype=np.uint64)
        assert candidates._mix64(x) is x
        assert x.tolist() == [oracle_mix64(v) for v in values]

    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6), st.integers(1, 9))
    def test_row_keys_mix_seed_band_and_row(self, seed, band, r):
        assert candidates._row_keys(seed, band, r).tolist() == [
            oracle_mix64(oracle_mix64(seed ^ 0x9E3779B97F4A7C15) ^ (band * 0xD1B54A32D192ED03) ^ row)
            for row in range(r)
        ]

    @given(
        banded_graphs(),
        st.integers(0, 2**64 - 1),
        st.integers(0, 10**6),
        st.integers(1, 9),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_occurrence_hashing(self, g, seed, band, r):
        got = minhash_band(g, band, seed, r)
        want = per_occurrence_band(g, band, seed, r)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_matching_has_fewer_tokens_than_values(self):
        # a perfect matching on 40 nodes plus 60 isolated ones: 40 tokens
        # for 200 possible values
        g = LabeledMultiGraph(100, {(2 * i, 2 * i + 1): 1 for i in range(20)})
        assert len(g.token_array()[0]) < 2 * g.n
        assert np.array_equal(minhash_band(g, 3, 5, 8), per_occurrence_band(g, 3, 5, 8))

    def test_shape_dtype_and_determinism(self):
        g = LabeledMultiGraph(6, {(0, 1): 1, (2, 3): 2, (3, 0): 1})
        sig = minhash_band(g, 1, seed=7, r=8)
        assert sig.shape == (6, 8)
        assert sig.dtype == np.uint64
        assert np.array_equal(sig, minhash_band(g, 1, seed=7, r=8))

    def test_band_and_seed_change_signatures(self):
        g = LabeledMultiGraph(6, {(0, 1): 1, (2, 3): 2, (3, 0): 1})
        sig = minhash_band(g, 1, seed=7, r=8)
        assert not np.array_equal(sig, minhash_band(g, 2, seed=7, r=8))
        assert not np.array_equal(sig, minhash_band(g, 1, seed=8, r=8))

    def test_tokenless_rows_are_sentinel(self):
        g = LabeledMultiGraph(5, {(0, 1): 1})
        sig = minhash_band(g, 1, seed=0, r=4)
        for v in (2, 3, 4):
            assert np.all(sig[v] == SENTINEL)
        assert np.all(sig[0] != SENTINEL)

    def test_identical_token_sets_share_rows(self):
        # 0 and 1 both point only at 2 and 3
        g = LabeledMultiGraph(4, {(0, 2): 1, (0, 3): 5, (1, 2): 2, (1, 3): 1})
        sig = minhash_band(g, 3, seed=11, r=8)
        assert np.array_equal(sig[0], sig[1])

    def test_row_collision_rate_tracks_jaccard(self):
        # out-neighbor sets {2..11} and {7..16}: J = 5 / 15
        edges = {(0, w): 1 for w in range(2, 12)}
        edges.update({(1, w): 1 for w in range(7, 17)})
        g = LabeledMultiGraph(17, edges)
        j = directed_jaccard(g, 0, 1)
        assert j == pytest.approx(1 / 3)
        hits = trials = 0
        for band in range(1, 201):
            sig = minhash_band(g, band, seed=0, r=8)
            hits += int(np.sum(sig[0] == sig[1]))
            trials += 8
        sigma = (trials * j * (1 - j)) ** 0.5
        assert abs(hits - trials * j) < 4 * sigma


class TestCandidateOrdering:
    def test_sort_key_prefers_size_times_quality(self):
        a = Candidate((0, 1, 2), 0.9, 1)  # 2.7
        b = Candidate((3, 4), 1.0, 1)  # 2.0
        assert candidate_sort_key(a) < candidate_sort_key(b)

    def test_ties_prefer_larger_then_lexicographic(self):
        big = Candidate((0, 1, 2, 3), 0.5, 1)  # 2.0
        small = Candidate((4, 5), 1.0, 1)  # 2.0
        assert candidate_sort_key(big) < candidate_sort_key(small)
        first = Candidate((0, 9), 1.0, 1)
        second = Candidate((1, 2), 1.0, 1)
        assert candidate_sort_key(first) < candidate_sort_key(second)

    def test_size_property(self):
        assert Candidate((3, 5, 8), 0.8, 2).size == 3


class TestSimilarityGraph:
    def test_add_edge_normalizes_and_dedups(self):
        gs = SimilarityGraph()
        gs.add_edge(5, 2, 0.9)
        gs.add_edge(2, 5, 0.4)  # duplicate: first similarity wins
        assert gs.edge_count == 1
        assert gs.jaccard == {(2, 5): 0.9}
        assert gs.adj == {2: {5}, 5: {2}}
        assert gs.new_edges == [(2, 5)]

    def test_quality_is_min_pairwise(self):
        gs = SimilarityGraph()
        gs.add_edge(0, 1, 0.9)
        gs.add_edge(0, 2, 0.8)
        gs.add_edge(1, 2, 0.95)
        assert gs.quality((0, 1, 2)) == 0.8


class TestPairCache:
    def test_pop_at_least_returns_descending(self):
        cache = PairCache()
        cache.push(0.8, 0, 1)
        cache.push(0.95, 2, 3)
        cache.push(0.7, 4, 5)
        cache.push(0.8, 0, 0)
        assert cache.pop_at_least(0.8) == [(0.95, 2, 3), (0.8, 0, 0), (0.8, 0, 1)]
        assert len(cache) == 1
        assert cache.pop_at_least(0.0) == [(0.7, 4, 5)]
        assert len(cache) == 0


class TestPruneRedundant:
    def test_drops_dominated_subset(self):
        big = Candidate((1, 2, 3), 0.9, 1)
        sub = Candidate((1, 2), 0.8, 1)
        assert prune_redundant([sub, big]) == [big]

    def test_keeps_higher_quality_subset(self):
        big = Candidate((1, 2, 3), 0.9, 1)
        sub = Candidate((1, 2), 0.95, 2)
        assert set(prune_redundant([sub, big])) == {sub, big}

    def test_keeps_disjoint(self):
        a = Candidate((0, 1), 0.8, 1)
        b = Candidate((2, 3), 0.9, 1)
        assert prune_redundant([a, b]) == [a, b]

    def test_equal_sets_both_survive(self):
        a = Candidate((0, 1), 0.8, 1)
        b = Candidate((0, 1), 0.9, 2)
        assert prune_redundant([a, b]) == [a, b]


class TestLshState:
    def test_identical_neighbor_sets_pair_up_in_first_band(self):
        g = LabeledMultiGraph(5, {(0, 2): 1, (1, 2): 3, (0, 3): 1, (1, 3): 1})
        state = LshState(g, r=4, b_max=10, seed=0)
        state.add_band()
        cands = state.harvest_cliques()
        assert any(c.nodes == (0, 1) and c.quality == 1.0 for c in cands)

    def test_harvest_never_repeats(self):
        g = LabeledMultiGraph(5, {(0, 2): 1, (1, 2): 3, (0, 3): 1, (1, 3): 1})
        state = LshState(g, r=4, b_max=10, seed=0)
        state.add_band()
        first = state.harvest_cliques()
        assert first
        assert state.harvest_cliques() == []

    def test_edgeless_graph_yields_nothing(self):
        g = LabeledMultiGraph(8, {})
        state = LshState(g, r=8, b_max=10, seed=0)
        for _ in range(10):
            state.add_band()
        assert state.harvest_cliques() == []
        assert state.gsim.edge_count == 0

    def test_add_band_promotes_cached_pair_at_first_clearing_band(self):
        # nodes 2 and 3 have no tokens, so only the cache can link them
        g = LabeledMultiGraph(4, {(0, 1): 1})
        state = LshState(g, r=8, b_max=10, seed=0)
        between = (threshold(3, 8) + threshold(4, 8)) / 2
        state.cache.push(between, 2, 3)
        state.cache.push(threshold(6, 8), 1, 2)  # exactly at band 6's bar
        for band in range(1, 11):
            state.add_band()
            assert ((2, 3) in state.gsim.jaccard) == (band >= 4)
            assert ((1, 2) in state.gsim.jaccard) == (band >= 6)
        assert state.gsim.jaccard[(2, 3)] == between
        assert state.gsim.jaccard[(1, 2)] == threshold(6, 8)
        assert len(state.cache) == 0


#: the planted graphs whose every band's harvest is checked
PLANTED_SWEEPS = [(s, 3, (6, 10)) for s in range(4)] + [(s, 2, (8, 8)) for s in (1, 7)]


def sweep_graph(kind, seed, *args):
    if kind == "planted":
        groups, size_range = args
        return planted_graph(seed, groups, groups, groups, size_range=size_range, noise=0.05)[0]
    return random_graph(seed)


class TestSweepInvariants:
    """What the sweep no longer re-checks: no candidate node set is
    harvested twice, and no pair of representatives is verified twice.
    Each band's harvest, with its classes expanded, is the reference's."""

    @pytest.mark.parametrize(
        "case",
        [("planted", *case) for case in PLANTED_SWEEPS]
        # random graphs that harvest several cliques
        + [("random", s) for s in (22, 25, 26)],
    )
    def test_whole_sweep(self, case):
        seed = case[1]
        g = sweep_graph(*case)
        state = LshState(g, r=8, b_max=10, seed=seed)
        ref = OracleLshState(g, r=8, b_max=10, seed=seed)
        union = state._union
        appended = 0

        def counting_union(a, b, pairs):
            nonlocal appended
            before = len(pairs)
            union(a, b, pairs)
            appended += len(pairs) - before

        state._union = counting_union
        harvested = []
        for _band in range(10):
            state.add_band()
            ref.add_band()
            got = state.harvest_cliques()
            assert sorted(got, key=candidate_sort_key) == sorted(
                ref.harvest_cliques(), key=candidate_sort_key
            )
            harvested += [c.nodes for c in got]
        assert harvested
        assert len(set(harvested)) == len(harvested)
        assert len(state.verified) == appended


class TestCliqueEnumeration:
    def test_oracle_reference_shapes(self):
        triangle = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert oracle_maximal_cliques(triangle, [0, 1, 2]) == [(0, 1, 2)]
        path = {0: {1}, 1: {0, 2}, 2: {1}}
        assert oracle_maximal_cliques(path, [0, 1, 2]) == [(0, 1), (1, 2)]
        k5 = {u: set(range(5)) - {u} for u in range(5)}
        assert oracle_maximal_cliques(k5, range(5)) == [(0, 1, 2, 3, 4)]

    def test_oracle_rejects_oversized_input(self):
        with pytest.raises(ValueError):
            oracle_maximal_cliques({}, range(13))

    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), edge_sets(n))))
    @settings(max_examples=120, deadline=None)
    def test_production_enumerator_matches_oracle(self, case):
        n, pairs = case
        state = LshState(LabeledMultiGraph(n, {}), r=4, b_max=4, seed=0)
        adj: dict[int, set[int]] = {}
        add_similarity_edges(state, adj, pairs)
        got = sorted(c.nodes for c in state.harvest_cliques())
        expected = [c for c in oracle_maximal_cliques(adj, range(n)) if len(c) >= 2]
        assert got == expected

    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(st.just(n), edge_sets(n), edge_sets(n))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_second_harvest_keeps_cliques_with_a_live_new_edge(self, case):
        n, first, second = case
        second = second - first
        state = LshState(LabeledMultiGraph(n, {}), r=4, b_max=4, seed=0)
        adj: dict[int, set[int]] = {}
        add_similarity_edges(state, adj, first)
        out1 = {c.nodes for c in state.harvest_cliques()}
        add_similarity_edges(state, adj, second)
        known: dict[int, int] = {}
        for c in out1:
            for x in c:
                known[x] = max(known.get(x, 0), len(c))
        live = {
            (u, v)
            for u, v in second
            if 2 + len(adj[u] & adj[v]) > min(known.get(u, 0), known.get(v, 0))
        }
        expected = {
            c
            for c in oracle_maximal_cliques(adj, range(n))
            if any(pair in live for pair in combinations(c, 2))
        } - out1
        got = [c.nodes for c in state.harvest_cliques()]
        assert len(got) == len(set(got))
        assert set(got) == expected

    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                edge_sets(n),
                st.integers(0, n - 1),
                st.sets(st.integers(0, n - 1), max_size=4),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_stack_search_visits_cliques_in_recursive_order(self, case):
        n, pairs, u, excluded = case
        gsim = SimilarityGraph()
        for a, b in pairs | {(min(u, w), max(u, w)) for w in range(n) if w != u and w % 3}:
            gsim.add_edge(a, b, 1.0)
        if u not in gsim.adj:
            return
        excluded.discard(u)
        assert gsim.cliques_through(u, excluded) == oracle_cliques_through(gsim, u, excluded)

    def test_clique_larger_than_the_recursion_limit(self):
        n = 1_100
        gsim = SimilarityGraph()
        gsim.adj = {v: set(range(n)) - {v} for v in range(n)}
        assert gsim.cliques_through(0, set()) == [tuple(range(n))]
        assert gsim.cliques_through(5, {0}) == []

    @pytest.mark.parametrize("seed, groups, size_range", PLANTED_SWEEPS)
    def test_harvest_matches_per_edge_oracle_every_band(self, seed, groups, size_range):
        # the reference harvests by oracle_harvest over all nodes; the
        # recorded clique sizes count members, so each class's members
        # share their representative's
        g, _ = planted_graph(seed, groups, groups, groups, size_range=size_range, noise=0.05)
        prod = LshState(g, r=8, b_max=10, seed=seed)
        ref = OracleLshState(g, r=8, b_max=10, seed=seed)
        total = 0
        for _band in range(10):
            prod.add_band()
            ref.add_band()
            got = sorted((c.nodes, c.quality) for c in prod.harvest_cliques())
            assert got == sorted((c.nodes, c.quality) for c in ref.harvest_cliques())
            assert {
                v: size
                for x, size in prod.max_clique_size.items()
                for v in members_of(prod, x)
            } == ref.max_clique_size
            total += len(got)
        assert total > 0
        assert prod.classes


def brute_twin_classes(g):
    """Nodes grouped by their direction-tagged neighbor sets, tokenless
    nodes left out: the classes of two or more, sorted."""
    rows: dict[frozenset, list[int]] = {}
    for v in range(g.n):
        row = frozenset(("in", u) for u in g.in_neighbors(v).tolist()) | frozenset(
            ("out", w) for w in g.out_neighbors(v).tolist()
        )
        if row:
            rows.setdefault(row, []).append(v)
    return sorted(tuple(c) for c in rows.values() if len(c) > 1)


@st.composite
def twinned_graphs(draw):
    """Graphs with planted twin classes: each class's members share their
    in- and out-neighbors among a few hubs, hubs may link each other, a few
    noise edges may break a class, some nodes are tokenless, labels are
    drawn per node so classes mix labels, and ids are shuffled so classes
    are not runs of ids."""
    hubs = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    isolated = draw(st.integers(0, 3))
    n = hubs + sum(sizes) + isolated
    hub = st.integers(0, hubs - 1)
    edges: dict[tuple[int, int], int] = {}
    node = hubs
    for size in sizes:
        ins, outs = draw(st.sets(hub)), draw(st.sets(hub))
        for v in range(node, node + size):
            edges.update({(h, v): 1 for h in ins})
            edges.update({(v, h): 2 for h in outs})
        node += size
    linked = st.tuples(st.integers(0, node - 1), st.integers(0, node - 1))
    for u, w in draw(st.lists(st.tuples(hub, hub), max_size=6)) + draw(
        st.lists(linked, max_size=3)
    ):
        edges[(u, w)] = edges.get((u, w), 0) + 1
    perm = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return LabeledMultiGraph(
        n, {(perm[u], perm[w]): m for (u, w), m in edges.items()}, labels, ["a", "b", "c"]
    )


def every_batch(state):
    """The state's candidate batches with a checkpoint at every band."""
    return list(candidate_batches(state, tuple(range(1, state.b_max + 1))))


class TestTwinContraction:
    def test_classes_by_hand(self):
        # 0 and 1 point at 2 and 3, 4 and 5 at 6; 7 has a self-loop like
        # no one else, 8 and 9 are tokenless
        g = LabeledMultiGraph(
            10, {(0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 1, (4, 6): 1, (5, 6): 1, (7, 7): 1}
        )
        assert twin_classes(g) == [(0, 1), (2, 3), (4, 5)] == brute_twin_classes(g)
        assert twin_classes(LabeledMultiGraph(4, {})) == []

    @given(st.one_of(twinned_graphs(), small_graph()), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_classes_equal_grouping_by_neighbor_sets(self, g, collide):
        # with every row hash equal, each row length proposes one class,
        # which the exact comparison must split
        with pytest.MonkeyPatch.context() as mp:
            if collide:
                mp.setattr(candidates, "_mix64", lambda x: x & np.uint64(0))
            assert twin_classes(g) == brute_twin_classes(g)

    @given(twinned_graphs(), st.integers(0, 2**32), st.sampled_from([(8, 10), (2, 4), (4, 16)]))
    @settings(max_examples=150, deadline=None)
    def test_batches_equal_the_uncontracted_sweep(self, g, seed, shape):
        r, b_max = shape
        prod = LshState(g, r=r, b_max=b_max, seed=seed)
        ref = OracleLshState(g, r=r, b_max=b_max, seed=seed)
        assert every_batch(prod) == every_batch(ref)
        assert prod.budget_skips == 0

    @pytest.mark.parametrize(
        "make",
        [
            # the benchmark's three inputs at seed 1: the sweep reads the
            # edge structure only, which planted-merge takes from
            # planted_graph unchanged
            lambda: kout_graph(1, 6_000, 10),
            lambda: planted_graph(1, 150, 150, 150, size_range=(5, 10), noise=0.05)[0],
            lambda: planted_graph(1, 8, 8, 8, size_range=(30, 30), noise=0.05)[0],
            lambda: planted_graph(0, 400, 400, 400, size_range=(5, 10))[0],
        ],
        ids=["kout-io", "planted-merge", "planted-clique", "planted-400"],
    )
    def test_batches_equal_the_uncontracted_sweep_on_large_inputs(self, make):
        g = make()
        seed = 1
        prod = LshState(g, seed=seed)
        assert every_batch(prod) == every_batch(OracleLshState(g, seed=seed))
        # at the default budget nothing is cut
        assert prod.budget_skips == 0

    def test_lone_class_is_its_own_candidate(self):
        # 40 leaves of one hub: one vertex with no similar neighbor, whose
        # class is band 1's only candidate
        g = LabeledMultiGraph(41, {(0, v): 1 for v in range(1, 41)})
        state = LshState(g, seed=0)
        assert state.classes == {1: tuple(range(1, 41))}
        assert state.active.tolist() == [0, 1]
        [(band, batch)] = candidate_batches(state)
        assert batch == [Candidate(tuple(range(1, 41)), 1.0, 1)]
        assert state.max_clique_size == {1: 40}
        assert not state.verified and state.gsim.edge_count == 0

    def test_budget_skips_count_the_cut_checks(self):
        # the clusters and so every union's windowed pairs do not depend on
        # the budget: the checks it cuts are those the full run makes more
        g, _ = planted_graph(0, 3, 3, 3, size_range=(8, 12))
        full, cut = LshState(g, seed=0), LshState(g, seed=0, cluster_cap=1)
        for state in (full, cut):
            every_batch(state)
        assert full.budget_skips == 0 < cut.budget_skips
        assert len(cut.verified) + cut.budget_skips == len(full.verified)


def all_candidates(g, **kwargs):
    """Every band's candidates in one batch, best first."""
    [(_band, cands)] = candidate_batches(LshState(g, **kwargs))
    return cands


class TestGenerateCandidates:
    def test_deterministic_for_seed(self):
        g, _ = planted_graph(2, cliques=1, in_stars=1, out_stars=1,
                             size_range=(6, 9), noise=0.05)
        a = all_candidates(g, seed=4)
        b = all_candidates(g, seed=4)
        assert a == b

    def test_candidates_are_verified_cliques(self):
        g, _ = planted_graph(5, cliques=2, in_stars=1, out_stars=1,
                             size_range=(6, 10), noise=0.1)
        cands = all_candidates(g, r=8, b_max=10, seed=1)
        assert cands
        assert cands == sorted(cands, key=candidate_sort_key)
        t_min = threshold(10, 8)
        for c in cands[:20]:
            pairwise = [
                directed_jaccard(g, u, v)
                for i, u in enumerate(c.nodes)
                for v in c.nodes[i + 1 :]
            ]
            assert min(pairwise) == pytest.approx(c.quality)
            assert c.quality >= t_min - 1e-12
            assert 1 <= c.band <= 10

    def test_planted_groups_appear_as_candidates(self):
        g, groups = planted_graph(3, cliques=2, in_stars=2, out_stars=2,
                                  size_range=(8, 12), noise=0.0)
        found = {frozenset(c.nodes) for c in all_candidates(g, seed=0)}
        for grp in groups:
            if grp.hub is None:
                expected = frozenset(grp.members)
            else:
                expected = frozenset(grp.members) - {grp.hub}
            assert expected in found
