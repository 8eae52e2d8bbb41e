"""Shared fixtures: a hand-built toy graph/summary pair and its golden file,
and a small seeded planted graph with multiplicities, self-loops and labels.

The toy exercises every correction kind at once: a clique with one missing
edge and one deviating multiplicity, an in-star with a missing spoke and a
deviating spoke, a self-loop singleton, an isolated singleton, a super-edge
with a missing port pair, a positive edge inside a node context (an
unflagged self-loop), and positive edges in unlinked pair contexts.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from lmgsum.graph import LabeledMultiGraph
from lmgsum.summary import Glyph, SummaryGraph, SuperNode
from lmgsum.synth import planted_graph

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def build_toy() -> tuple[LabeledMultiGraph, SummaryGraph]:
    edges = {
        # red clique {0,1,2,3}, rep 2: (1,0) missing, (2,3) deviates to 5
        (0, 1): 2, (0, 2): 2, (0, 3): 2,
        (1, 2): 2, (1, 3): 2,
        (2, 0): 2, (2, 1): 2, (2, 3): 5,
        (3, 0): 2, (3, 1): 2, (3, 2): 2,
        # unflagged self-loop inside the clique: positive correction
        (0, 0): 1,
        # blue in-star {6,7,8,9} hub 8, rep 1: (7,8) missing, (6,8) deviates
        (6, 8): 4, (9, 8): 1,
        # self-loop singleton 4 (flagged, rep 3)
        (4, 4): 3,
        # super-edge clique -> star hub (footprint 4x1): (3,8) missing
        (0, 8): 1, (1, 8): 1, (2, 8): 1,
        # positive edges in unlinked pair contexts
        (5, 6): 7,
        (9, 0): 1,
    }
    labels = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    g = LabeledMultiGraph(10, edges, labels, label_names=["red", "blue"])

    s = SummaryGraph(
        graph_size=10,
        label_count=2,
        label_names=("red", "blue"),
        node_names=tuple(str(i) for i in range(10)),
    )
    s.super_nodes[0] = SuperNode(
        id=0, label=0, glyph=Glyph.CLIQUE, members=(0, 1, 2, 3), rep_mult=2
    )
    s.super_nodes[1] = SuperNode(
        id=1, label=1, glyph=Glyph.IN_STAR, members=(6, 7, 8, 9), hub=8, rep_mult=1
    )
    s.super_nodes[2] = SuperNode(
        id=2, label=0, glyph=Glyph.SINGLETON, members=(4,), rep_mult=3, self_loop=True
    )
    s.super_nodes[3] = SuperNode(id=3, label=0, glyph=Glyph.SINGLETON, members=(5,))
    s.super_edges[(0, 1)] = 1
    s.validate(g)
    return g, s


def _planted_multigraph(seed: int) -> LabeledMultiGraph:
    """Two planted groups per glyph (4-7 members, 10 % noise), plus what
    ``planted_graph`` leaves out: 1-3 extra multiplicity on a fifth of the
    edges, self-loops of multiplicity 1-3 on a quarter of the nodes, and
    two labels, alternating from one group to the next."""
    g, groups = planted_graph(seed, 2, 2, 2, size_range=(4, 7), noise=0.1)
    rng = np.random.default_rng([seed, 5])
    edges = {(u, w): m for u, w, m in g.edges()}
    keys = sorted(edges)
    for i in rng.choice(len(keys), len(keys) // 5, replace=False).tolist():
        edges[keys[i]] += int(rng.integers(1, 4))
    for v in rng.choice(g.n, g.n // 4, replace=False).tolist():
        edges[(v, v)] = int(rng.integers(1, 4))
    labels = [0] * g.n
    for i, grp in enumerate(groups):
        for v in grp.members:
            labels[v] = i % 2
    return LabeledMultiGraph(g.n, edges, labels, label_names=["red", "blue"])


@pytest.fixture(scope="session")
def planted_multigraph():
    """The seeded builder ``planted_multigraph(seed) -> LabeledMultiGraph``."""
    return _planted_multigraph


@pytest.fixture(scope="session")
def toy():
    return build_toy()


@pytest.fixture(scope="session")
def toy_golden():
    with open(os.path.join(GOLDEN_DIR, "fig1_toy.json")) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def run_golden():
    with open(os.path.join(GOLDEN_DIR, "run_planted.json")) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def planted_golden():
    with open(os.path.join(GOLDEN_DIR, "planted_bench.json")) as f:
        return json.load(f)
