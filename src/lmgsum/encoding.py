"""Bit-cost primitives for two-part MDL scoring of graph summaries.

Every function returns a cost in bits as a float.  Costs are model-selection
scores: nothing is ever serialized to an actual bitstream, so fractional bits
are fine.  The total description length of a graph ``g`` under a summary ``s``
is ``cost_summary(s) + correction_cost(g, s)`` (the latter lives in
:mod:`lmgsum.summary`); the summarizer greedily minimizes that total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LOG2E = math.log2(math.e)

#: Number of structural glyphs a super-node can take
#: (clique, in-star, out-star, disconnected, singleton).
GLYPH_COUNT = 5


def len_natural(k: int) -> float:
    """Universal code length for a positive integer: 2*log2(k) + 1 bits."""
    if k < 1:
        raise ValueError(f"len_natural requires k >= 1, got {k}")
    return 2.0 * math.log2(k) + 1.0


def log2_binomial(n: int, k: int) -> float:
    """log2 of the binomial coefficient C(n, k), via log-gamma.

    Exact symmetry log2_binomial(n, k) == log2_binomial(n, n - k) is
    guaranteed by canonicalizing k to min(k, n - k) before evaluating.
    """
    if k < 0 or k > n:
        raise ValueError(f"log2_binomial requires 0 <= k <= n, got n={n} k={k}")
    k = min(k, n - k)
    if k == 0:
        return 0.0
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) * LOG2E


def ell_diff(m_prime: int, m: int) -> float:
    """Bits to encode one edge multiplicity m_prime against representative m.

    Equal multiplicities cost a single flag bit; otherwise the absolute
    difference is coded with 2*log2|m - m_prime| + 3 bits (flag, sign, and
    the universal integer code for the magnitude).
    """
    if m_prime == m:
        return 1.0
    return 2.0 * math.log2(abs(m - m_prime)) + 3.0


def ell_diff_array(m_prime: np.ndarray, m: np.ndarray) -> np.ndarray:
    """:func:`ell_diff` elementwise over broadcast float arrays."""
    diffs = np.abs(m - m_prime)
    return np.where(diffs == 0, 1.0, 2.0 * np.log2(np.maximum(diffs, 1.0)) + 3.0)


def cost_multiplicity_diff(mults: Iterable[int], m: int) -> float:
    """Total multiplicity-correction bits for edges summarized by m."""
    return sum(ell_diff(m_prime, m) for m_prime in mults)


def summary_header_bits(summary_size: int, label_count: int) -> float:
    """Bits for the summary's super-node count and label alphabet size."""
    return len_natural(summary_size) + len_natural(label_count)


def supernode_width_bits(summary_size: int, label_count: int, n_out: int) -> float:
    """The part of a super-node's bits that depends on the summary size.

    Covers its label, glyph, out-super-edge count (over an alphabet of
    summary_size + 1 so that zero neighbors is encodable) and the choice of
    which n_out super-nodes it points to.
    """
    bits = math.log2(label_count)
    bits += math.log2(GLYPH_COUNT)
    bits += math.log2(summary_size + 1)
    bits += log2_binomial(summary_size, n_out)
    return bits


def super_edge_bits(rep_mult: int) -> float:
    """Bits for one out-super-edge's representative multiplicity."""
    return len_natural(rep_mult)


def supernode_own_bits(
    member_count: int, rep_mult: int, out_edge_mults: Iterable[int]
) -> float:
    """The part of a super-node's bits that is its own: member count,
    representative multiplicity and each out-super-edge's multiplicity."""
    bits = len_natural(member_count) + len_natural(rep_mult)
    return bits + sum(map(super_edge_bits, out_edge_mults))


def cost_supernode(
    member_count: int,
    rep_mult: int,
    out_edge_mults: Sequence[int],
    summary_size: int,
    label_count: int,
) -> float:
    """Bits to encode one super-node in the summary graph.

    The sum of :func:`supernode_width_bits` and :func:`supernode_own_bits`.
    """
    if member_count < 1:
        raise ValueError("super-node needs at least one member")
    if rep_mult < 1:
        raise ValueError("representative multiplicity must be >= 1")
    n_out = len(out_edge_mults)
    if n_out > summary_size:
        raise ValueError("more out-super-edges than super-nodes")
    return supernode_width_bits(summary_size, label_count, n_out) + supernode_own_bits(
        member_count, rep_mult, out_edge_mults
    )


def cost_summary(summary) -> float:
    """Bits for the whole summary graph: sizes plus every super-node.

    ``summary`` must expose ``super_nodes`` (mapping id -> super-node with
    ``members`` and ``rep_mult``), ``super_edges`` (mapping (src, dst) ->
    rep_mult) and ``label_count``.
    """
    n_s = len(summary.super_nodes)
    if n_s < 1:
        raise ValueError("summary must contain at least one super-node")
    out_mults: dict[int, list[int]] = {vid: [] for vid in summary.super_nodes}
    for (src, _dst), m in summary.super_edges.items():
        out_mults[src].append(m)
    bits = summary_header_bits(n_s, summary.label_count)
    for vid, sn in summary.super_nodes.items():
        bits += cost_supernode(
            len(sn.members),
            sn.rep_mult,
            out_mults[vid],
            n_s,
            summary.label_count,
        )
    return bits


def cost_node_map(member_count: int, graph_size: int, is_star: bool) -> float:
    """Bits to identify a super-node's members among the graph's nodes.

    Encodes the member subset with a binomial code, plus hub identification
    within the member set when the glyph is a star.
    """
    bits = log2_binomial(graph_size, member_count)
    if is_star:
        bits += math.log2(member_count)
    return bits


def cost_correction_set(n_corrections: int, n_max: int) -> float:
    """Bits for one correction bundle: which of n_max slots are corrected.

    An empty bundle costs a single zero flag bit; otherwise the correction
    count is coded universally and the subset binomially.
    """
    if n_corrections < 0 or n_corrections > n_max:
        raise ValueError(
            f"need 0 <= n_corrections <= n_max, got {n_corrections}/{n_max}"
        )
    if n_corrections == 0:
        return 1.0
    return len_natural(n_corrections) + log2_binomial(n_max, n_corrections)


def cost_entropy_code(n_corrections: int, n_max: int) -> float:
    """Bits for the same bundle under a Bernoulli entropy code.

    n_max symbols at the empirical correction rate p = n_corrections/n_max.
    Used as an analytical upper bound on the binomial bundle code; the
    summarizer itself always uses :func:`cost_correction_set`.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_corrections < 0 or n_corrections > n_max:
        raise ValueError("need 0 <= n_corrections <= n_max")
    p = n_corrections / n_max
    if p == 0.0 or p == 1.0:
        return 0.0
    h = -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))
    return n_max * h


@dataclass(frozen=True)
class CostBreakdown:
    """Total description length split into its two parts."""

    summary_bits: float
    correction_bits: float

    @property
    def total_bits(self) -> float:
        return self.summary_bits + self.correction_bits
