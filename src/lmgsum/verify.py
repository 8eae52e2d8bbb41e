"""verify's array decision: does a parsed report rebuild the input graph?

:func:`rebuilds` reads the report's ``summary`` and ``corrections``
sections column by column into int64 arrays.  Node names go through the
input graph's name index, so a report that lists the nodes in another
order is read like any other; label names go through its label index.
The glyphs, self-loop flags and super-edge port products expand into
sorted edge keys ``u * n + w``, the corrections are applied with
``searchsorted``, and the result is compared with the graph's out-arrays
and labels.  No :class:`~lmgsum.summary.SummaryGraph`, correction tuple
or edge dict is built.

It answers True only for a report that :func:`~lmgsum.summary.summary_from_dict`,
``validate``, :func:`~lmgsum.summary.corrections_from_dict` and
:func:`~lmgsum.summary.reconstruct` would accept and whose reconstruction
is the input graph up to the order of its names.  Anything else — a value
of the wrong JSON type, an unknown name, a repeated id, edge or
correction, a node not covered exactly once, a correction that contradicts
the summary, or any difference from the graph — returns False, and the
caller's object path decides and words the outcome.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

import numpy as np

from .graph import LabeledMultiGraph
from .summary import Glyph

_NODE_FIELDS = itemgetter("id", "label", "glyph", "members", "hub", "rep_mult", "self_loop")
_EDGE_FIELDS = itemgetter("src", "dst", "rep_mult")
_GLYPH_CODE = {glyph.value: code for code, glyph in enumerate(Glyph)}
_CLIQUE, _IN_STAR, _OUT_STAR, _SINGLETON = (
    _GLYPH_CODE[glyph.value]
    for glyph in (Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR, Glyph.SINGLETON)
)
#: bounds that keep every running sum of multiplicity deltas inside int64
_MAX_DELTA = 2**31
_MAX_DELTA_BASE = 2**62


class _Declined(Exception):
    """The report is not one the array path can call a match."""


def _need(condition) -> None:
    if not condition:
        raise _Declined


def _exact(values, kind: type) -> None:
    """Decline unless every value's type is exactly ``kind`` (so no
    ``true`` for 1, and no ``1.0``)."""
    _need(set(map(type, values)) <= {kind})


def _ids(index: dict, names) -> np.ndarray:
    """The ids of ``names``; a name outside ``index`` raises KeyError."""
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _ragged(counts: np.ndarray) -> np.ndarray:
    """``arange(c)`` for each ``c`` in ``counts``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``keys`` sorted; declines when one repeats."""
    keys = np.sort(keys)
    _need((keys[1:] != keys[:-1]).all())
    return keys


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The positions of ``keys`` in ``sorted_keys``; declines when one is
    missing."""
    at = np.searchsorted(sorted_keys, keys)
    _need((at < len(sorted_keys)).all())
    _need((sorted_keys[at] == keys).all())
    return at


def _transpose(rows, width: int) -> list[list]:
    """The ``width`` columns of ``width``-long rows (faster than ``zip(*rows)``)."""
    flat = list(chain.from_iterable(rows))
    return [flat[i::width] for i in range(width)]


def _columns(rows, width: int) -> list[list]:
    """The ``width`` columns of a JSON list of ``width``-long JSON arrays."""
    _need(type(rows) is list)
    _exact(rows, list)
    _need(set(map(len, rows)) <= {width})
    return _transpose(rows, width)


def _fields(getter: itemgetter, width: int, records) -> list[list]:
    """The ``width`` columns ``getter`` reads from each JSON object of
    ``records``; a missing key raises KeyError."""
    _need(type(records) is list)
    _exact(records, dict)
    return _transpose(map(getter, records), width)


def rebuilds(g: LabeledMultiGraph, summary, corrections) -> bool:
    """Whether the report sections ``summary`` and ``corrections`` (parsed
    JSON) rebuild ``g`` exactly.  False means "not decided here": the
    report may still match, or be malformed, and the object path says
    which."""
    try:
        keys, mult, labels = _rebuild(g, summary, corrections)
    except (_Declined, KeyError, TypeError, OverflowError):
        return False
    return (
        np.array_equal(labels, g.labels)
        and np.array_equal(keys, g.out_src * g.n + g.out_dst)
        and np.array_equal(mult, g.out_mult)
    )


def _rebuild(g: LabeledMultiGraph, summary, corrections):
    """The reconstruction's sorted edge keys, their multiplicities and each
    node's label id, in ``g``'s ids."""
    n = g.n
    _need(type(summary["graph_size"]) is int and summary["graph_size"] == n)
    index = dict(zip(g.node_names, range(n)))
    names = summary["node_names"]
    _need(type(names) is list and len(names) == n)
    if names != g.node_names:
        # the same names in another order: each of g's once
        _need(np.bincount(_ids(index, names), minlength=n).max() == 1)
    label_names = summary["label_names"]
    _need(type(label_names) is list)
    label_index = dict(zip(g.label_names, range(len(g.label_names))))
    label_of = {name: label_index[name] for name in label_names}

    # -- super-nodes, one array per field, and each member's position
    records = summary["super_nodes"]
    _need(records)  # a graph has a node, so a summary has a super-node
    ids, rec_labels, glyphs, members, hubs, reps, loops = _fields(_NODE_FIELDS, 7, records)
    _exact(ids, int)
    _exact(reps, int)
    _exact(loops, bool)
    _exact(members, list)
    count = len(records)
    id_of = np.array(ids, dtype=np.int64)
    sorted_ids = _sorted_unique(id_of)
    rep = np.array(reps, dtype=np.int64)
    _need((rep >= 1).all())
    glyph = np.fromiter(map(_GLYPH_CODE.__getitem__, glyphs), dtype=np.int64, count=count)
    sizes = np.fromiter(map(len, members), dtype=np.int64, count=count)
    _need((sizes >= 1).all() and (sizes[glyph == _SINGLETON] == 1).all())
    flat = list(chain.from_iterable(members))
    _need(len(flat) == n)
    node = _ids(index, flat)  # member positions, record by record
    _need(np.bincount(node, minlength=n).max() == 1)  # every node once
    rec = np.repeat(np.arange(count), sizes)
    start = np.cumsum(sizes) - sizes
    assign = np.empty(n, dtype=np.int64)
    assign[node] = rec
    labels = np.empty(n, dtype=np.int64)
    labels[node] = np.fromiter(map(label_of.__getitem__, rec_labels), np.int64, count)[rec]

    # a named hub must be a node; a star's hub must be one of its members
    hub = np.full(count, -1, dtype=np.int64)
    if hubs.count(None) < count:
        named = [i for i, h in enumerate(hubs) if h is not None]
        hub[named] = _ids(index, [hubs[i] for i in named])
    star = (glyph == _IN_STAR) | (glyph == _OUT_STAR)
    _need((hub[star] >= 0).all())
    _need((assign[hub[star]] == np.flatnonzero(star)).all())

    # -- the expansion: glyph pairs, self-loops, super-edge port products
    us, ws, ms = [], [], []
    at = np.flatnonzero(glyph[rec] == _CLIQUE)
    k = sizes[rec[at]]
    u = np.repeat(node[at], k)
    w = node[np.repeat(start[rec[at]], k) + _ragged(k)]
    off = u != w
    us.append(u[off])
    ws.append(w[off])
    ms.append(np.repeat(rep[rec[at]], k)[off])
    spoke = node != hub[rec]
    at = np.flatnonzero((glyph[rec] == _IN_STAR) & spoke)
    us.append(node[at])
    ws.append(hub[rec[at]])
    ms.append(rep[rec[at]])
    at = np.flatnonzero((glyph[rec] == _OUT_STAR) & spoke)
    us.append(hub[rec[at]])
    ws.append(node[at])
    ms.append(rep[rec[at]])
    at = np.flatnonzero(np.array(loops, dtype=bool)[rec])
    us.append(node[at])
    ws.append(node[at])
    ms.append(rep[rec[at]])

    super_edges = summary["super_edges"]
    _need(type(super_edges) is list)
    if super_edges:
        src, dst, se_reps = _fields(_EDGE_FIELDS, 3, super_edges)
        for column in (src, dst, se_reps):
            _exact(column, int)
        se_rep = np.array(se_reps, dtype=np.int64)
        _need((se_rep >= 1).all())
        order = np.argsort(id_of)  # record of each sorted id
        a = order[_find(sorted_ids, np.array(src, dtype=np.int64))]
        b = order[_find(sorted_ids, np.array(dst, dtype=np.int64))]
        _need((a != b).all())
        _sorted_unique(a * count + b)  # one super-edge per pair
        # a star's port is its hub, any other super-node's are its members
        port = np.flatnonzero(~star[rec] | (node == hub[rec]))
        ports = np.bincount(rec[port], minlength=count)
        port_start = np.cumsum(ports) - ports
        port_node = node[port]
        edge = np.repeat(np.arange(len(a)), ports[a])  # one row per port of a
        u = port_node[np.repeat(port_start[a], ports[a]) + _ragged(ports[a])]
        k = ports[b][edge]
        us.append(np.repeat(u, k))
        ws.append(port_node[np.repeat(port_start[b][edge], k) + _ragged(k)])
        ms.append(np.repeat(se_rep[edge], k))

    # -- the corrections, in reconstruct's order
    u, w, m = _columns(corrections["positive"], 3)
    _exact(m, int)
    us.append(_ids(index, u))
    ws.append(_ids(index, w))
    ms.append(np.array(m, dtype=np.int64))
    u, w, m = (np.concatenate(column) for column in (us, ws, ms))
    # expansion pairs are distinct, so a repeat is a positive correction
    # for an edge that already exists
    order = np.argsort(u * n + w)
    keys = u[order] * n + w[order]
    _need((keys[1:] != keys[:-1]).all())
    mult = m[order]

    u, w = _columns(corrections["negative"], 2)
    gone = _find(keys, _sorted_unique(_ids(index, u) * n + _ids(index, w)))
    keep = np.ones(len(keys), dtype=bool)
    keep[gone] = False
    keys, mult = keys[keep], mult[keep]

    u, w, d = _columns(corrections["mult_deltas"], 3)
    _exact(d, int)
    if d:
        delta_keys = _ids(index, u) * n + _ids(index, w)
        order = np.argsort(delta_keys, kind="stable")  # each edge's deltas in order
        delta_keys = delta_keys[order]
        delta = np.array(d, dtype=np.int64)[order]
        at = _find(keys, delta_keys)
        base = mult[at]
        _need(((delta > -_MAX_DELTA) & (delta < _MAX_DELTA)).all())
        _need(((base > -_MAX_DELTA_BASE) & (base < _MAX_DELTA_BASE)).all())
        first = np.ones(len(delta), dtype=bool)
        first[1:] = delta_keys[1:] != delta_keys[:-1]
        total = np.cumsum(delta)
        before = (total - delta)[first][np.cumsum(first) - 1]
        running = base + total - before
        # every step of the running multiplicity stays >= 1
        _need((running >= 1).all())
        last = np.append(first[1:], True)
        mult[at[last]] = running[last]
    return keys, mult, labels
