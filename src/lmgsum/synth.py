"""Seeded synthetic graph generators used by benchmarks and tests.

Three families:

* random labeled multi-graphs with controllable size, density, multiplicity
  range, label count, and optional symmetric (undirected-style) edges;
* planted-structure benchmarks: disjoint perfect cliques and stars plus a
  percentage of uniform noise edges, with ground truth returned alongside;
* k-out growth graphs: each new node attaches k out-edges to uniformly
  chosen existing nodes, duplicate draws accumulating as multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DEFAULT_LABEL, LabeledMultiGraph, dedup_sum
from .summary import Glyph, SuperNode


def random_graph(
    seed: int,
    n: int | None = None,
    avg_degree: float | None = None,
    max_mult: int = 50,
    max_labels: int = 8,
    symmetric: bool = False,
) -> LabeledMultiGraph:
    """A random labeled multi-graph; every unset knob is drawn from the seed.

    Node count falls in [10, 500], average total degree in [0.5, 10],
    multiplicities in [1, max_mult], labels in [1, max_labels].  Self-loops
    occur naturally.  With ``symmetric`` the edge set is mirrored with equal
    multiplicities (loops kept single).
    """
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(10, 501))
    if avg_degree is None:
        avg_degree = float(rng.uniform(0.5, 10.0))
    label_count = int(rng.integers(1, max_labels + 1))
    labels = rng.integers(0, label_count, n).astype(np.int64)
    m = max(1, int(round(n * avg_degree / 2)))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    mult = rng.integers(1, max_mult + 1, m)
    src, dst, mult = dedup_sum(n, src, dst, mult)
    if symmetric:
        # fold each pair onto (min, max), then mirror the non-loops
        lo, hi, mult = dedup_sum(n, np.minimum(src, dst), np.maximum(src, dst), mult)
        cross = lo != hi
        src = np.concatenate((lo, hi[cross]))
        dst = np.concatenate((hi, lo[cross]))
        mult = np.concatenate((mult, mult[cross]))
    label_names = [f"label{i}" for i in range(label_count)]
    return LabeledMultiGraph.from_arrays(n, src, dst, mult, labels, label_names)


def perfect_edges(glyph: Glyph, members, hub: int | None = None) -> dict[tuple[int, int], int]:
    """Edge dict of a structure that a glyph reproduces without corrections:
    the glyph's pairs (:meth:`SuperNode.glyph_pairs`), each of multiplicity 1."""
    if glyph is Glyph.SINGLETON:
        raise ValueError(f"no planted template for {glyph}")
    return dict.fromkeys(SuperNode(0, 0, glyph, tuple(members), hub).glyph_pairs(), 1)


@dataclass(frozen=True)
class PlantedGroup:
    members: tuple[int, ...]
    glyph: Glyph
    hub: int | None


def planted_graph(
    seed: int,
    cliques: int = 5,
    in_stars: int = 5,
    out_stars: int = 5,
    size_range: tuple[int, int] = (10, 20),
    noise: float = 0.05,
) -> tuple[LabeledMultiGraph, list[PlantedGroup]]:
    """Disjoint perfect structures plus uniform noise edges, single label.

    Noise volume is ``noise`` times the clean edge count; endpoints are
    uniform ordered non-loop pairs over all nodes, duplicates accumulating
    into multiplicity.  Ground truth is returned for recovery scoring.
    """
    rng = np.random.default_rng(seed)
    kinds = (
        [Glyph.CLIQUE] * cliques
        + [Glyph.IN_STAR] * in_stars
        + [Glyph.OUT_STAR] * out_stars
    )
    groups: list[PlantedGroup] = []
    pairs: list[tuple[int, int]] = []
    next_node = 0
    for glyph in kinds:
        size = int(rng.integers(size_range[0], size_range[1] + 1))
        members = tuple(range(next_node, next_node + size))
        next_node += size
        hub = None
        if glyph in (Glyph.IN_STAR, Glyph.OUT_STAR):
            hub = int(members[int(rng.integers(0, size))])
        # the structures are disjoint, so their edges never repeat
        pairs.extend(perfect_edges(glyph, members, hub))
        groups.append(PlantedGroup(members, glyph, hub))
    n = next_node
    n_noise = int(round(noise * len(pairs)))
    added = 0
    while added < n_noise:
        u = int(rng.integers(0, n))
        w = int(rng.integers(0, n))
        if u == w:
            continue
        pairs.append((u, w))
        added += 1
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    src, dst, mult = dedup_sum(n, ends[:, 0], ends[:, 1], np.ones(len(ends), dtype=np.int64))
    g = LabeledMultiGraph.from_arrays(n, src, dst, mult, [0] * n, [DEFAULT_LABEL])
    return g, groups


def kout_graph(seed: int, n: int, k: int = 10) -> LabeledMultiGraph:
    """Growth graph: node i >= 1 draws k uniform targets among nodes < i.

    Repeated draws of the same target sum into the edge multiplicity, so
    the distinct-edge count is at most (n - 1) * k.
    """
    if n < 2:
        raise ValueError("kout_graph needs n >= 2")
    rng = np.random.default_rng(seed)
    src = np.repeat(np.arange(1, n, dtype=np.int64), k)
    bound = np.repeat(np.arange(1, n, dtype=np.int64), k)
    dst = np.floor(rng.random(len(src)) * bound).astype(np.int64)
    src, dst, mult = dedup_sum(n, src, dst, np.ones(len(src), dtype=np.int64))
    return LabeledMultiGraph.from_arrays(n, src, dst, mult, [0] * n, [DEFAULT_LABEL])
