"""Bit-cost primitives for two-part MDL scoring of graph summaries.

Every function returns a cost in bits as a float.  Costs are model-selection
scores: nothing is ever serialized to an actual bitstream, so fractional bits
are fine.  The total description length of a graph ``g`` under a summary ``s``
is a sum of atomic terms: the summary's width (:func:`summary_width_bits`),
each super-node's own bits (:func:`supernode_own_bits`), each super-edge's
(:func:`super_edge_bits`), and the per-context correction bits of
:mod:`lmgsum.summary`.  Sums of terms are taken with :func:`math.fsum`, which
rounds the exact sum once, so no cost depends on the order of its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def summary_width_bits(
    summary_size: int, label_count: int, out_degrees: dict[int, int]
) -> float:
    """The summary header (super-node count and label alphabet size) plus
    the bits of every super-node that depend on the summary size, where
    ``out_degrees`` maps an out-super-edge count to the number of
    super-nodes that have it.

    A super-node with n_out out-super-edges pays for its label, its glyph,
    n_out (over an alphabet of summary_size + 1, so that zero is encodable)
    and the choice of which n_out super-nodes it points to.
    """
    base = math.log2(label_count) + math.log2(GLYPH_COUNT) + math.log2(summary_size + 1)
    return math.fsum(
        [len_natural(summary_size) + len_natural(label_count)]
        + [
            count * (base + log2_binomial(summary_size, n_out))
            for n_out, count in out_degrees.items()
        ]
    )


def super_edge_bits(rep_mult: int) -> float:
    """Bits for one out-super-edge's representative multiplicity, charged
    to its source super-node."""
    return len_natural(rep_mult)


def supernode_own_bits(member_count: int, rep_mult: int) -> float:
    """The part of a super-node's bits that is its own: member count and
    representative multiplicity."""
    return len_natural(member_count) + len_natural(rep_mult)


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
