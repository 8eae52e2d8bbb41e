"""The run configuration that every command validates its flags through.

It lives apart from :mod:`lmgsum.summarize`, which re-exports it, so that
``verify`` can reject what the other commands reject without importing
the merge engine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunConfig:
    r: int = 8
    b_max: int = 10
    seed: int = 0
    cluster_cap: int = 5000
    undirected: bool = False
    checkpoints: tuple[int, ...] = ()
    #: the most processes ``shuffled_label_eval`` merges labelings in;
    #: ``run`` ignores it
    threads: int = 1
    shuffles: int = 20

    def __post_init__(self):
        if self.r < 1 or self.b_max < 1:
            raise ValueError("r and b_max must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.cluster_cap < 1:
            raise ValueError("cluster_cap must be >= 1")
        if any(b < 1 or b > self.b_max for b in self.checkpoints):
            raise ValueError("checkpoints must lie in [1, b_max]")
        if self.threads < 1 or self.shuffles < 1:
            raise ValueError("threads and shuffles must be >= 1")
