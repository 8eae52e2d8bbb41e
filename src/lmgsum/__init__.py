"""Lossless MDL summarization of directed, node-labeled multi-graphs.

The package compresses a graph into a super-graph of glyph-typed
super-nodes (cliques, in-/out-stars, disconnected sets, singletons) and
weighted super-edges, choosing merges that strictly reduce a two-part
minimum-description-length objective.  Encoded corrections make the
summary exactly invertible: ``reconstruct(summary, corrections)`` returns
the original graph bit for bit.

Importing the package loads none of its modules: each exported name is
imported from its module the first time it is read, so
``lmgsum.load_graph`` loads only the TSV reader, and the merge engine is
compiled only by code that merges.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the exported names of each module
_MODULE_EXPORTS = {
    "candidates": ("Candidate", "LshState", "directed_jaccard", "minhash_band", "threshold"),
    "config": ("RunConfig",),
    "encoding": (
        "CostBreakdown",
        "Glyph",
        "cost_correction_set",
        "cost_entropy_code",
        "cost_node_map",
        "ell_diff",
        "len_natural",
        "log2_binomial",
    ),
    "graph": ("GraphFormatError", "LabeledMultiGraph", "load_graph"),
    "merge": (
        "MergeError",
        "SummaryState",
        "decide_glyph",
        "decide_super_edge",
        "representative_multiplicity",
        "split_by_label",
    ),
    "summarize": (
        "RunReport",
        "compression_ratio",
        "normalized_gain",
        "run",
        "shuffled_label_eval",
    ),
    "summary": (
        "CorrectionSet",
        "SummaryGraph",
        "SuperNode",
        "all_singleton_summary",
        "compute_corrections",
        "export_dot",
        "reconstruct",
        "total_cost",
    ),
    "synth": ("kout_graph", "planted_graph", "random_graph"),
}
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    # later reads find the name without calling this hook again
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
