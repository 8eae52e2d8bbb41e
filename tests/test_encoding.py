"""Unit and property tests for the bit-cost primitives."""

import math

import pytest
from hypothesis import given, strategies as st

from lmgsum.encoding import (
    CostBreakdown,
    cost_correction_set,
    cost_entropy_code,
    cost_node_map,
    ell_diff,
    len_natural,
    log2_binomial,
    summary_width_bits,
    super_edge_bits,
    supernode_own_bits,
)
from lmgsum.graph import LabeledMultiGraph
from lmgsum.summary import Glyph, SummaryGraph, SuperNode, total_cost

from oracle import obundle, oell_diff, olen_natural, olog2_binomial


class TestLenNatural:
    def test_frozen_values(self):
        assert len_natural(1) == 1.0
        assert len_natural(2) == 3.0
        assert len_natural(8) == 7.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            len_natural(0)
        with pytest.raises(ValueError):
            len_natural(-3)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_monotone_and_matches_reference(self, k):
        assert len_natural(k) == olen_natural(k)
        if k > 1:
            assert len_natural(k) > len_natural(k - 1)


class TestLog2Binomial:
    def test_frozen_values(self):
        assert log2_binomial(4, 1) == pytest.approx(2.0, abs=1e-12)
        assert log2_binomial(52, 5) == pytest.approx(
            math.log2(math.comb(52, 5)), abs=1e-9
        )
        assert log2_binomial(10, 0) == 0.0
        assert log2_binomial(10, 10) == 0.0

    @given(
        st.integers(min_value=0, max_value=400).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        )
    )
    def test_matches_exact_binomial(self, nk):
        n, k = nk
        assert log2_binomial(n, k) == pytest.approx(olog2_binomial(n, k), abs=1e-8)

    @given(
        st.integers(min_value=0, max_value=1000).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))
        )
    )
    def test_symmetry_is_exact(self, nk):
        n, k = nk
        assert log2_binomial(n, k) == log2_binomial(n, n - k)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            log2_binomial(5, 6)
        with pytest.raises(ValueError):
            log2_binomial(5, -1)


class TestEllDiff:
    def test_frozen_values(self):
        assert ell_diff(3, 3) == 1.0
        assert ell_diff(5, 3) == 5.0
        assert ell_diff(10, 1) == pytest.approx(2 * math.log2(9) + 3, abs=1e-12)

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_positive_and_symmetric_in_difference(self, a, b):
        assert ell_diff(a, b) == oell_diff(a, b)
        assert ell_diff(a, b) >= 1.0
        assert ell_diff(a, b) == ell_diff(b, a)


class TestCorrectionSet:
    def test_frozen_values(self):
        assert cost_correction_set(0, 100) == 1.0
        assert cost_correction_set(1, 4) == pytest.approx(3.0, abs=1e-12)
        assert cost_correction_set(2, 4) == pytest.approx(
            3 + math.log2(6), abs=1e-9
        )

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            cost_correction_set(5, 4)
        with pytest.raises(ValueError):
            cost_correction_set(-1, 4)

    @given(
        st.integers(min_value=1, max_value=300).flatmap(
            lambda n: st.tuples(st.integers(min_value=0, max_value=n), st.just(n))
        )
    )
    def test_matches_reference(self, cn):
        c, n = cn
        assert cost_correction_set(c, n) == pytest.approx(obundle(c, n), abs=1e-9)


class TestEntropyCode:
    def test_frozen_values(self):
        assert cost_entropy_code(1, 4) == pytest.approx(
            4 * -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)), abs=1e-9
        )
        assert cost_entropy_code(2, 4) == pytest.approx(4.0, abs=1e-12)
        assert cost_entropy_code(0, 10) == 0.0
        assert cost_entropy_code(10, 10) == 0.0

    def test_entropy_dominates_binomial_small_grid(self):
        for n in range(2, 64):
            for c in range(1, n):
                assert cost_entropy_code(c, n) >= log2_binomial(n, c) - 1e-9


def singletons(n: int) -> SummaryGraph:
    s = SummaryGraph(graph_size=n, label_count=1)
    for v in range(n):
        s.super_nodes[v] = SuperNode(id=v, label=0, glyph=Glyph.SINGLETON, members=(v,))
    return s


class TestSupernodeCost:
    """A super-node's bits: its width terms and its own bits."""

    def test_singleton_value(self):
        # width: log2(1 label) + log2(5 glyphs) + log2(summary size 1 + 1)
        # + C(1, 0 out-edges), after the header L(1 super-node) + L(1 label);
        # own: L(1 member) + L(rep 1)
        width = summary_width_bits(1, 1, {0: 1})
        assert width == pytest.approx(1 + 1 + math.log2(5) + 1, abs=1e-9)
        assert supernode_own_bits(1, 1) == 2.0

    def test_out_edges_add_their_terms(self):
        # a super-node of a 10-node summary with out-super-edges of
        # multiplicities 1 and 5 instead of none
        base = summary_width_bits(10, 4, {0: 10})
        with_edges = summary_width_bits(10, 4, {0: 9, 2: 1})
        expected_delta = log2_binomial(10, 2) - log2_binomial(10, 0)
        assert with_edges - base == pytest.approx(expected_delta, abs=1e-9)
        assert super_edge_bits(1) + super_edge_bits(5) == len_natural(1) + len_natural(5)

    def test_width_ignores_histogram_order(self):
        hist = {0: 7, 3: 2, 1: 40, 2: 5}
        assert summary_width_bits(50, 3, hist) == summary_width_bits(
            50, 3, dict(reversed(hist.items()))
        )

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            supernode_own_bits(0, 1)
        with pytest.raises(ValueError):
            supernode_own_bits(1, 0)
        with pytest.raises(ValueError):
            super_edge_bits(0)
        # more out-super-edges than super-nodes
        with pytest.raises(ValueError):
            summary_width_bits(1, 1, {2: 1})


class TestSummaryCost:
    """The summary part of :func:`total_cost`."""

    def test_single_singleton_summary(self):
        # L(1 super-node) + L(1 label) + singleton super-node cost
        expected = 1 + 1 + (math.log2(5) + 1 + 1 + 1)
        got = total_cost(LabeledMultiGraph(1, {}), singletons(1)).summary_bits
        assert got == pytest.approx(expected, abs=1e-9)

    def test_super_edge_mult_charged_to_source(self):
        g = LabeledMultiGraph(2, {(0, 1): 7})
        s = singletons(2)
        base = total_cost(g, s).summary_bits
        s.super_edges[(0, 1)] = 7
        linked = total_cost(g, s).summary_bits
        expected_delta = log2_binomial(2, 1) - log2_binomial(2, 0) + len_natural(7)
        assert linked - base == pytest.approx(expected_delta, abs=1e-9)

    def test_empty_summary_rejected(self):
        s = SummaryGraph(graph_size=1, label_count=1)
        with pytest.raises(ValueError):
            total_cost(LabeledMultiGraph(1, {}), s)


class TestNodeMap:
    def test_frozen_values(self):
        assert cost_node_map(1, 4, False) == pytest.approx(2.0, abs=1e-12)
        assert cost_node_map(4, 4, True) == pytest.approx(2.0, abs=1e-9)
        assert cost_node_map(2, 5, False) == pytest.approx(
            math.log2(10), abs=1e-9
        )


class TestCostBreakdown:
    def test_total_is_sum(self):
        cb = CostBreakdown(summary_bits=10.5, correction_bits=4.25)
        assert cb.total_bits == 14.75
