"""verify's array decision: does a parsed report rebuild the input graph?

:func:`rebuilds` reads the report through the column reader of
:mod:`lmgsum.summary` (:func:`~lmgsum.summary.summary_columns` and
:func:`~lmgsum.summary.correction_columns`, which ``summary_from_dict`` and
``corrections_from_dict`` read through too) and turns the columns into int64
arrays.  Node and label names go through the input graph's name indexes, so
a report that lists them in another order is read like any other.  The
glyphs, self-loop flags and super-edge port products expand into sorted edge
keys ``u * n + w``, the corrections are applied with ``searchsorted``, and
the result is compared with the graph's out-arrays and labels; no
:class:`~lmgsum.summary.SummaryGraph`, correction tuple or edge dict is built.

It answers True only for a report that the object path (``summary_from_dict``,
``validate``, ``corrections_from_dict``, :func:`~lmgsum.summary.reconstruct`)
would accept and whose reconstruction is the input graph up to the order of
its names.  Anything else returns False, and the caller's object path decides
and words the outcome; it reads the same columns, so it rejects or compares
every report declined here.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import LabeledMultiGraph
from .summary import Glyph, correction_columns, summary_columns

_GLYPH_CODE = {glyph.value: code for code, glyph in enumerate(Glyph)}
_CLIQUE, _IN_STAR, _OUT_STAR, _SINGLETON = (
    _GLYPH_CODE[glyph.value]
    for glyph in (Glyph.CLIQUE, Glyph.IN_STAR, Glyph.OUT_STAR, Glyph.SINGLETON)
)
#: bounds that keep every running sum of multiplicity deltas inside int64
_MAX_DELTA = 2**31
_MAX_DELTA_BASE = 2**62


def _need(condition) -> None:
    """Decline the report (ValueError) unless ``condition`` holds."""
    if not condition:
        raise ValueError("declined")


def _ids(index: dict, names) -> np.ndarray:
    """The ids of ``names``; a name outside ``index`` raises KeyError."""
    return np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))


def _ragged(counts: np.ndarray) -> np.ndarray:
    """``arange(c)`` for each ``c`` in ``counts``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The positions of ``keys`` in ``sorted_keys``; declines when one is
    missing."""
    at = np.searchsorted(sorted_keys, keys)
    _need((at < len(sorted_keys)).all())
    _need((sorted_keys[at] == keys).all())
    return at


def rebuilds(g: LabeledMultiGraph, summary, corrections) -> bool:
    """Whether the report sections ``summary`` and ``corrections`` (parsed
    JSON) rebuild ``g`` exactly.  False means "not decided here": the
    report may still match, or be malformed, and the object path says
    which."""
    try:
        keys, mult, labels = _rebuild(g, summary, corrections)
    except (KeyError, TypeError, ValueError, OverflowError):
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
    size, names, label_names, nodes, edges = summary_columns(summary)
    _need(size == n and len(names) == n)
    index = dict(zip(g.node_names, range(n)))
    if names != g.node_names:
        _ids(index, names)  # n distinct names, so g's in another order
    label_index = dict(zip(g.label_names, range(len(g.label_names))))
    label_of = {name: label_index[name] for name in label_names}

    # -- super-nodes, one array per field, and each member's position
    ids, rec_labels, glyphs, members, hubs, reps, loops = nodes
    count = len(ids)
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

    src, dst, se_reps = edges
    if src:
        se_rep = np.array(se_reps, dtype=np.int64)
        _need((se_rep >= 1).all())
        id_of = np.array(ids, dtype=np.int64)
        order = np.argsort(id_of)  # record of each sorted id
        a = order[_find(id_of[order], np.array(src, dtype=np.int64))]
        b = order[_find(id_of[order], np.array(dst, dtype=np.int64))]
        _need((a != b).all())
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
    (u, w, m), negative, deltas = correction_columns(corrections)
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

    u, w = negative
    gone = np.sort(_ids(index, u) * n + _ids(index, w))
    _need((gone[1:] != gone[:-1]).all())  # reconstruct drops an edge once
    gone = _find(keys, gone)
    keep = np.ones(len(keys), dtype=bool)
    keep[gone] = False
    keys, mult = keys[keep], mult[keep]

    u, w, d = deltas
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
