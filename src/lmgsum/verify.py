"""The one decompression, on arrays, and verify's one decision path.

:func:`decode` expands a summary's glyphs, self-loop flags and super-edge
port products into sorted int64 edge keys ``u * space + w`` and applies the
corrections with ``searchsorted``: the positives, then the negatives, then
each edge's multiplicity deltas in turn.  An inconsistent summary or
correction raises a :class:`GraphFormatError` that names its nodes.
:func:`mismatch` decodes a parsed report in the input graph's own ids and
words the first difference from the input's arrays;
:func:`lmgsum.summary.reconstruct` builds its graph from the same decoding.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import GraphFormatError, LabeledMultiGraph
from .summary import Glyph, correction_columns, summary_columns

#: each glyph's code is its position in Glyph
_GLYPH_CODE = {glyph.value: code for code, glyph in enumerate(Glyph)}
_CLIQUE, _IN_STAR, _OUT_STAR, _DISCONNECTED, _SINGLETON = range(len(Glyph))


def _ids(index: dict, names) -> np.ndarray:
    """The ids of ``names``; a name outside ``index`` raises KeyError."""
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _spread(sets, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the sets ``rows`` names, set after set, and the position
    in ``rows`` of each one's set.  ``sets`` is (nodes, start, count) of sets
    laid out one after another."""
    nodes, start, count = sets
    k = count[rows]
    ends = np.cumsum(k)
    within = np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - k, k)
    return nodes[np.repeat(start[rows], k) + within], np.repeat(np.arange(len(rows)), k)


def _product(left, a: np.ndarray, right, b: np.ndarray):
    """Every pair of a node of ``left``'s set ``a[i]`` and one of
    ``right``'s set ``b[i]``, as ``(u, w, i)`` arrays."""
    u, i = _spread(left, a)
    w, j = _spread(right, b[i])
    return u[j], w, i[j]


def _find(sorted_keys: np.ndarray, keys: np.ndarray, missing) -> np.ndarray:
    """The positions of ``keys`` in ``sorted_keys``; the first key it lacks
    raises the GraphFormatError that ``missing(key)`` words."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < len(sorted_keys)
    found[found] = sorted_keys[at[found]] == keys[found]
    if not found.all():
        raise GraphFormatError(missing(keys[np.argmin(found)]))
    return at


def decode(nodes, edges, corrections, index: dict, label_of: dict, space: int, name):
    """Decode the summary columns ``nodes`` and ``edges`` and the correction
    columns ``corrections``, as the column reader of :mod:`lmgsum.summary`
    returns them.  ``index`` gives each node name's id below ``space``, and
    the records must cover every one once; ``label_of`` gives each label
    name's id and ``name(u)`` node u's name in messages.  Returns the sorted
    edge keys ``u * space + w``, their multiplicities, and each id's label
    and record (-1 where no record holds it)."""
    ids, rec_labels, glyphs, members, hubs, reps, loops = nodes
    count = len(ids)
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=count)
    glyph = _ids(_GLYPH_CODE, glyphs)
    rep = np.array(reps, dtype=np.int64)
    hub = np.full(count, -1, dtype=np.int64)
    if hubs.count(None) < count:
        named = [i for i, h in enumerate(hubs) if h is not None]
        hub[named] = _ids(index, [hubs[i] for i in named])
    node = _ids(index, list(chain.from_iterable(members)))

    def pair(key) -> str:
        u, w = divmod(int(key), space)
        return f"({name(u)!a}, {name(w)!a})"

    # a star's port is its hub, any other super-node's are its members
    rec = np.repeat(np.arange(count), sizes)
    star = (glyph == _IN_STAR) | (glyph == _OUT_STAR)
    is_port = ~star[rec] | (node == hub[rec])
    ports = np.bincount(rec[is_port], minlength=count)

    # -- the records: each well formed, and every node in exactly one
    for bad, what in (
        (sizes < 1, "needs at least one member"),
        (rep < 1, "representative multiplicity must be >= 1"),
        ((glyph == _SINGLETON) & (sizes != 1), "singleton glyph requires exactly one member"),
        (star & (ports < 1), "star glyph needs a hub among its members"),
    ):
        if bad.any():
            raise GraphFormatError(f"super-node {ids[np.argmax(bad)]}: {what}")
    repeated = np.bincount(node, minlength=space) > 1
    if repeated.any():
        raise GraphFormatError(f"node {name(np.argmax(repeated))!a} in two super-nodes")
    if len(node) != len(index):
        raise GraphFormatError("super-nodes must cover every node")
    assign = np.full(space, -1, dtype=np.int64)
    assign[node] = rec
    labels = np.full(space, -1, dtype=np.int64)
    labels[node] = _ids(label_of, rec_labels)[rec]

    # -- the expansion: glyph pairs, self-loops, super-edge port products
    member = (node, np.cumsum(sizes) - sizes, sizes)
    port = (node[is_port], np.cumsum(ports) - ports, ports)
    parts = []
    for code, left, right in (
        (_CLIQUE, member, member), (_IN_STAR, member, port), (_OUT_STAR, port, member)
    ):
        r = np.flatnonzero(glyph == code)
        u, w, i = _product(left, r, right, r)
        off = u != w
        parts.append((u[off], w[off], rep[r[i[off]]]))
    at = np.flatnonzero(np.array(loops, dtype=bool)[rec])
    parts.append((node[at], node[at], rep[rec[at]]))
    src, dst, se_reps = (np.array(column, dtype=np.int64) for column in edges)
    if len(src):
        rec_id = np.array(ids, dtype=np.int64)
        order = np.argsort(rec_id)  # record of each sorted id
        a, b = (order[_find(rec_id[order], end, lambda _id: "super-edge endpoint missing")]
                for end in (src, dst))
        for bad, what in (
            (a == b, "endpoints must differ"), (se_reps < 1, "multiplicity must be >= 1")
        ):
            if bad.any():
                i = np.argmax(bad)
                raise GraphFormatError(f"super-edge {(edges[0][i], edges[1][i])}: {what}")
        u, w, i = _product(port, a, port, b)
        parts.append((u, w, se_reps[i]))

    # -- the corrections: positives, negatives, then the deltas
    (pos_u, pos_w, pos_m), (neg_u, neg_w), (delta_u, delta_w, delta) = corrections
    parts.append((_ids(index, pos_u), _ids(index, pos_w), np.array(pos_m, dtype=np.int64)))
    del corrections, pos_u, pos_w, pos_m  # the longest lists, dropped before the sort
    u, w, m = (np.concatenate(column) for column in zip(*parts))
    order = np.argsort(u * space + w)
    keys, mult = u[order] * space + w[order], m[order]
    # expansion pairs are distinct, so a repeat is a positive correction
    # for an edge that already exists
    repeated = keys[1:] == keys[:-1]
    if repeated.any():
        what = "positive correction for existing edge"
        raise GraphFormatError(f"{what} {pair(keys[np.argmax(repeated)])}")
    what = "negative correction for missing edge"
    gone = np.sort(_ids(index, neg_u) * space + _ids(index, neg_w))
    repeated = gone[1:] == gone[:-1]
    if repeated.any():  # the second one finds its edge gone
        raise GraphFormatError(f"{what} {pair(gone[np.argmax(repeated)])}")
    at = _find(keys, gone, lambda key: f"{what} {pair(key)}")
    keys, mult = np.delete(keys, at), np.delete(mult, at)

    if delta:
        delta_keys = _ids(index, delta_u) * space + _ids(index, delta_w)
        order = np.argsort(delta_keys, kind="stable")  # each edge's deltas in order
        # Python ints, which int64 sums of deltas could pass
        delta_keys, delta = delta_keys[order], np.array(delta, dtype=object)[order]
        what = "multiplicity delta for missing edge"
        at = _find(keys, delta_keys, lambda key: f"{what} {pair(key)}")
        first = np.ones(len(delta), dtype=bool)
        first[1:] = delta_keys[1:] != delta_keys[:-1]
        total = np.cumsum(delta)
        running = mult[at].astype(object) + total - (total - delta)[first][np.cumsum(first) - 1]
        # every step of the running multiplicity stays >= 1
        low = running < 1
        if low.any():
            raise GraphFormatError(
                f"multiplicity of {pair(delta_keys[np.argmax(low)])} dropped below 1"
            )
        last = np.append(first[1:], True)
        mult[at[last]] = running[last]
    low = mult < 1
    if low.any():
        i = np.argmax(low)
        raise GraphFormatError(f"edge {pair(keys[i])} has multiplicity {mult[i]} < 1")
    return keys, mult, labels, assign


def _index(known: list, listed: list) -> tuple[list, dict]:
    """Every id's name, and the ids of the distinct names ``listed``: a name
    in ``known`` keeps its position there, the others follow in order."""
    index = dict(zip(known, range(len(known))))
    if listed == known:
        return known, index
    extra = [name for name in listed if name not in index]
    index.update(zip(extra, range(len(known), len(known) + len(extra))))
    return known + extra, {name: index[name] for name in listed}


def mismatch(g: LabeledMultiGraph, summary, corrections) -> str | None:
    """None when the report sections ``summary`` and ``corrections`` (parsed
    JSON) decode to ``g``, else the MISMATCH line that names the first
    difference.  A malformed report raises KeyError for a name or key it
    lacks, and TypeError, ValueError or OverflowError for anything else."""
    size, names, label_names, nodes, edges = summary_columns(summary)
    if size != len(names) or size < 1:
        raise GraphFormatError(f"graph_size {size} is not the count of {len(names)} node names")
    # a name the input lacks gets an id after the input's own
    node_name, index = _index(g.node_names, names)
    label_name, label_of = _index(g.label_names, label_names)
    space = len(node_name)
    keys, mult, labels, assign = decode(
        nodes, edges, correction_columns(corrections), index, label_of, space, node_name.__getitem__
    )
    original = np.append(g.labels, np.full(space - g.n, -1))
    differ = labels != original
    if differ.any():
        v = np.argmax(differ)
        was, now = (label_name[x] if x >= 0 else None for x in (original[v], labels[v]))
        held = f" in super-node {nodes[0][assign[v]]}" if assign[v] >= 0 else ""
        return (f"MISMATCH: node {node_name[v]!a}{held}: "
                f"original label {was!a}, reconstructed {now!a}")
    original = g.out_src * space + g.out_dst
    if np.array_equal(keys, original) and np.array_equal(mult, g.out_mult):
        return None
    # the first edge that differs is the smaller key where the two sorted
    # key lists first differ
    common = min(len(keys), len(original))
    differ = (keys[:common] != original[:common]) | (mult[:common] != g.out_mult[:common])
    i = np.argmax(differ) if differ.any() else common
    key = min(int(k[i]) for k in (keys, original) if i < len(k))
    was = g.out_mult[i] if i < len(original) and original[i] == key else 0
    now = mult[i] if i < len(keys) and keys[i] == key else 0
    u, w = divmod(key, space)
    a, b = (nodes[0][assign[v]] for v in (u, w))
    span = f"inside super-node {a}" if a == b else f"from super-node {a} to super-node {b}"
    return (f"MISMATCH: edge ({node_name[u]!a}, {node_name[w]!a}) {span}: "
            f"original multiplicity {was}, reconstructed {now}")
