"""Lossless MDL summarization of directed, node-labeled multi-graphs.

The package compresses a graph into a super-graph of glyph-typed
super-nodes (cliques, in-/out-stars, disconnected sets, singletons) and
weighted super-edges, choosing merges that strictly reduce a two-part
minimum-description-length objective.  Encoded corrections make the
summary exactly invertible: ``reconstruct(summary, corrections)`` returns
the original graph bit for bit.
"""

from .candidates import (
    Candidate,
    LshState,
    directed_jaccard,
    minhash_band,
    threshold,
)
from .encoding import (
    CostBreakdown,
    cost_correction_set,
    cost_entropy_code,
    cost_node_map,
    ell_diff,
    len_natural,
    log2_binomial,
)
from .graph import (
    GraphFormatError,
    LabeledMultiGraph,
    load_graph,
)
from .merge import (
    MergeError,
    SummaryState,
    decide_glyph,
    decide_super_edge,
    representative_multiplicity,
    split_by_label,
)
from .summarize import (
    RunConfig,
    RunReport,
    compression_ratio,
    normalized_gain,
    run,
    shuffled_label_eval,
)
from .summary import (
    CorrectionSet,
    Glyph,
    SummaryGraph,
    SuperNode,
    all_singleton_summary,
    compute_corrections,
    export_dot,
    reconstruct,
    total_cost,
)
from .synth import kout_graph, planted_graph, random_graph

__version__ = "0.1.0"

__all__ = [
    "Candidate",
    "CorrectionSet",
    "CostBreakdown",
    "Glyph",
    "GraphFormatError",
    "LabeledMultiGraph",
    "LshState",
    "MergeError",
    "RunConfig",
    "RunReport",
    "SummaryGraph",
    "SummaryState",
    "SuperNode",
    "all_singleton_summary",
    "compression_ratio",
    "compute_corrections",
    "cost_correction_set",
    "cost_entropy_code",
    "cost_node_map",
    "decide_glyph",
    "decide_super_edge",
    "directed_jaccard",
    "ell_diff",
    "export_dot",
    "kout_graph",
    "len_natural",
    "load_graph",
    "log2_binomial",
    "minhash_band",
    "normalized_gain",
    "planted_graph",
    "random_graph",
    "reconstruct",
    "representative_multiplicity",
    "run",
    "shuffled_label_eval",
    "split_by_label",
    "threshold",
    "total_cost",
]
