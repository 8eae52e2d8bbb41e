"""Seeded benchmark inputs: an edge TSV, a label TSV and a ground-truth file.

The CLI under test only ever reads the edge and label files.  The ground
truth (one planted group per line: glyph, then comma-separated member
names) stays with the benchmark and feeds the recovery scorer.  Nodes that
no line names are singleton groups, so a k-out graph, which has no planted
structure, is scored on how many of its nodes stay singletons.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from lmgsum.synth import kout_graph, perfect_edges, planted_graph

EDGES_FILE = "edges.tsv"
LABELS_FILE = "labels.tsv"
TRUTH_FILE = "truth.tsv"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``make(seed, params) -> (n, edges, labels, planted groups)``
    make: Callable
    #: generator parameters, full size and small size
    params: dict
    small_params: dict
    #: extra `summarize` flags; checkpoints are also the run's batch bounds
    checkpoints: tuple[int, ...] = ()
    dot: bool = False


def _planted_merge(seed: int, p: dict):
    """Planted groups with a label and a multiplicity per group.

    Every edge of a group's perfect structure carries the group
    multiplicity, and a further ``bumped_share`` of all edges gains +1, so
    representative multiplicities and multiplicity corrections both occur.
    """
    g, groups = planted_graph(
        seed, p["groups"], p["groups"], p["groups"],
        size_range=p["size_range"], noise=p["noise"],
    )
    rng = np.random.default_rng([seed, 1])
    group_label = rng.integers(0, p["labels"], len(groups))
    group_mult = rng.integers(1, p["max_group_mult"] + 1, len(groups))
    edges = {(u, w): m for u, w, m in g.edges()}
    for grp, mult in zip(groups, group_mult):
        for pair in perfect_edges(grp.glyph, grp.members, grp.hub):
            edges[pair] += int(mult) - 1
    keys = sorted(edges)
    bumped = rng.choice(len(keys), int(round(p["bumped_share"] * len(keys))), replace=False)
    for i in bumped:
        edges[keys[i]] += 1
    labels = [""] * g.n
    for grp, lab in zip(groups, group_label):
        for v in grp.members:
            labels[v] = f"L{lab}"
    return g.n, edges, labels, groups


def _planted_clique(seed: int, p: dict):
    g, groups = planted_graph(
        seed, p["groups"], p["groups"], p["groups"],
        size_range=p["size_range"], noise=p["noise"],
    )
    edges = {(u, w): m for u, w, m in g.edges()}
    return g.n, edges, ["L0"] * g.n, groups


def _kout(seed: int, p: dict):
    g = kout_graph(seed, p["n"], p["k"])
    edges = {(u, w): m for u, w, m in g.edges()}
    return g.n, edges, ["L0"] * g.n, []


# Sizes keep one iteration (summarize, verify, eval-labels) at a few
# seconds, so a run holds enough samples for a steady median.  Clique groups
# have one fixed size: with sizes drawn from a range, the clique-harvest
# work of one seed differed from the next by ~15 %.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kout-io",
            why="zero merges: parse/CSR, banding, corrections, JSON export "
            "and the verify read path carry all the time",
            make=_kout,
            params={"n": 6_000, "k": 10},
            small_params={"n": 300, "k": 4},
        ),
        Workload(
            name="planted-merge",
            why="hundreds of label-split merges with group multiplicities: "
            "proposal scoring, commits, checkpoints and DOT export",
            make=_planted_merge,
            params={"groups": 150, "size_range": (5, 10), "noise": 0.05,
                    "labels": 4, "max_group_mult": 8, "bumped_share": 0.10},
            small_params={"groups": 6, "size_range": (4, 6), "noise": 0.05,
                          "labels": 4, "max_group_mult": 8, "bumped_share": 0.10},
            checkpoints=(2, 5, 10),
            dot=True,
        ),
        Workload(
            name="planted-clique",
            why="large planted groups: maximal-clique harvest over the "
            "similarity graph dominates, I/O is negligible",
            make=_planted_clique,
            params={"groups": 8, "size_range": (30, 30), "noise": 0.05},
            small_params={"groups": 2, "size_range": (8, 8), "noise": 0.05},
        ),
    )
}


@dataclass
class Inputs:
    directory: str
    nodes: int
    edges: int

    @property
    def edges_path(self) -> str:
        return os.path.join(self.directory, EDGES_FILE)

    @property
    def labels_path(self) -> str:
        return os.path.join(self.directory, LABELS_FILE)

    @property
    def truth_path(self) -> str:
        return os.path.join(self.directory, TRUTH_FILE)


def _name(v: int) -> str:
    return f"v{v}"


def generate(workload: Workload, seed: int, directory: str, small: bool = False) -> Inputs:
    """Write the workload's input files for ``seed`` into ``directory``."""
    params = workload.small_params if small else workload.params
    n, edges, labels, groups = workload.make(seed, params)
    os.makedirs(directory, exist_ok=True)
    inputs = Inputs(directory, n, len(edges))
    with open(inputs.edges_path, "w") as f:
        f.writelines(f"{_name(u)}\t{_name(w)}\t{m}\n" for (u, w), m in sorted(edges.items()))
    with open(inputs.labels_path, "w") as f:
        f.writelines(f"{_name(v)}\t{labels[v]}\n" for v in range(n))
    with open(inputs.truth_path, "w") as f:
        for grp in groups:
            f.write(grp.glyph.value + "\t" + ",".join(map(_name, grp.members)) + "\n")
    return inputs


def read_truth(path: str) -> list[tuple[str, list[str]]]:
    with open(path) as f:
        return [
            (glyph, members.split(","))
            for glyph, members in (line.rstrip("\n").split("\t") for line in f)
        ]


def recovery(truth: list[tuple[str, list[str]]], summary: dict) -> float:
    """Share of ground-truth groups recovered by the report's super-nodes.

    A group counts as recovered when one super-node of the same glyph holds
    a strict majority of the group and the group holds a strict majority of
    that super-node (the rule of acceptance criterion 7).  Nodes outside
    every listed group are singleton groups.
    """
    owner: dict[str, int] = {}
    for i, sn in enumerate(summary["super_nodes"]):
        for name in sn["members"]:
            owner[name] = i
    listed = {name for _, members in truth for name in members}
    groups = truth + [("singleton", [n]) for n in summary["node_names"] if n not in listed]
    hits = 0
    for glyph, members in groups:
        overlap: dict[int, int] = {}
        for name in members:
            overlap[owner[name]] = overlap.get(owner[name], 0) + 1
        for i, inter in overlap.items():
            sn = summary["super_nodes"][i]
            if (
                sn["glyph"] == glyph
                and 2 * inter > len(members)
                and 2 * inter > len(sn["members"])
            ):
                hits += 1
                break
    return hits / len(groups)
