"""The report's column reader, the one decompression, on arrays, and
verify's one decision path; this module does not import
:mod:`lmgsum.summary`.

:func:`summary_columns` and :func:`correction_columns` read a report's
sections column by column.  :func:`decode` expands a summary's glyphs,
self-loop flags and super-edge port products into sorted int64 edge keys
``u * space + w`` and applies the corrections with ``searchsorted``: the
positives, then the negatives, then each edge's multiplicity deltas in
turn.  An inconsistent summary or correction raises a
:class:`GraphFormatError` that names its nodes.  :func:`mismatch` decodes a
parsed report in the input graph's own ids and words the first difference
from the input's arrays.  The library decodes through it too:
:func:`lmgsum.summary.compute_corrections` takes the input minus the
decoding of the summary alone, and :func:`lmgsum.summary.reconstruct` builds
its graph from the decoding with a correction set's int64 rows, read as
columns.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import itemgetter

import numpy as np

from .encoding import Glyph, transpose
from .graph import GraphFormatError, LabeledMultiGraph

#: each glyph's code is its position in Glyph
_GLYPH_CODE = {glyph.value: code for code, glyph in enumerate(Glyph)}
_CLIQUE, _IN_STAR, _OUT_STAR, _DISCONNECTED, _SINGLETON = range(len(Glyph))


# -- the column reader ---------------------------------------------------------

_NODE_FIELDS = itemgetter("id", "label", "glyph", "members", "hub", "rep_mult", "self_loop")
_EDGE_FIELDS = itemgetter("src", "dst", "rep_mult")
_NOUNS = {int: "an integer", bool: "a boolean", str: "a string", list: "a list", dict: "an object"}
#: each correction kind: its key, its columns and the name of one correction
CORRECTION_KINDS = (
    ("positive", ("src", "dst", "mult"), "positive correction"),
    ("negative", ("src", "dst"), "negative correction"),
    ("mult_deltas", ("src", "dst", "delta"), "multiplicity delta"),
)


def _exact(values, kind: type, name) -> None:
    """Raise TypeError unless every value's type is exactly ``kind``;
    ``name(i)`` says which value ``values[i]`` is.

    JSON readers hand back ``1.0``, ``"1"`` and ``true`` where an integer
    belongs, and numpy would quietly turn each into 1; ``bool`` is an
    ``int`` subclass, so ``isinstance`` would let ``true`` through too.
    """
    if not set(map(type, values)) <= {kind}:
        i = next(i for i, value in enumerate(values) if type(value) is not kind)
        raise TypeError(f"{name(i)}: {values[i]!r} is not {_NOUNS[kind]}")


def _once(values, what: str) -> None:
    """Raise ValueError when a value repeats in ``values``."""
    if len(set(values)) < len(values):
        repeat = next(value for value, count in Counter(values).items() if count > 1)
        raise ValueError(f"{what} {repeat!r} appears more than once")


def _listed(data: dict, key: str, kind: type, what: str) -> list:
    """``data[key]``, a JSON list of ``kind`` values, each named ``what``."""
    values = data[key]
    _exact((values,), list, lambda _i: key)
    _exact(values, kind, lambda i: f"{what} {i}")
    return values


def summary_columns(data: dict) -> tuple[int, list[str], list[str], list[list], list[list]]:
    """The columns of a report's ``summary`` section: graph size, node
    names, label names, the super-node columns (id, label, glyph, members,
    hub, rep_mult, self_loop) and the super-edge columns (src, dst, rep_mult).

    TypeError unless each value is exactly its JSON type, ValueError when a
    super-node id, super-edge pair, node name or label name repeats.  Names
    and glyphs are checked where they are looked up.
    """
    size = data["graph_size"]
    _exact((size,), int, lambda _i: "graph_size")
    names = _listed(data, "node_names", str, "node name")
    _once(names, "node name")
    label_names = _listed(data, "label_names", str, "label name")
    _once(label_names, "label name")
    records = _listed(data, "super_nodes", dict, "super-node record")
    nodes = transpose(map(_NODE_FIELDS, records), 7)
    ids, _labels, _glyphs, members, _hubs, reps, loops = nodes
    _exact(ids, int, lambda i: f"id of super-node record {i}")
    _once(ids, "super-node id")
    _exact(reps, int, lambda i: f"rep_mult of super-node {ids[i]}")
    _exact(loops, bool, lambda i: f"self_loop of super-node {ids[i]}")
    _exact(members, list, lambda i: f"members of super-node {ids[i]}")
    records = _listed(data, "super_edges", dict, "super-edge record")
    edges = src, dst, mults = transpose(map(_EDGE_FIELDS, records), 3)
    for end, column in (("src", src), ("dst", dst), ("rep_mult", mults)):
        _exact(column, int, lambda i: f"{end} of super-edge {(src[i], dst[i])}")
    _once(list(zip(src, dst)), "super-edge")
    return size, names, label_names, nodes, edges


def _int64(column: list, where: str) -> np.ndarray:
    """The ints of ``column`` as an int64 array; else ValueError for the
    first outside int64, ``where`` and its position."""
    try:
        return np.asarray(column, dtype=np.int64)
    except OverflowError:
        i = next(i for i, value in enumerate(column) if not -(2**63) <= value < 2**63)
        raise ValueError(f"{where} {i}: {column[i]} is outside int64") from None


def node_indices(column, size: int, where: str) -> np.ndarray:
    """The ints of ``column``, a list or an array, as int64 indices below
    ``size``; else ValueError for the first that is not, ``where`` and its
    position."""
    try:
        indices = np.asarray(column, dtype=np.int64)
        if ((indices >= 0) & (indices < size)).all():
            return indices
    except OverflowError:
        pass
    i = next(i for i, value in enumerate(column) if not 0 <= value < size)
    raise ValueError(f"{where} {i}: {column[i]} is not a node index below {size}")


def correction_columns(data: dict, size: int) -> list[list]:
    """The columns of a report's ``corrections`` section, as int64 arrays:
    (src, dst, mult) of the positive corrections, (src, dst) of the
    negative ones and (src, dst, delta) of the multiplicity deltas; ``src``
    and ``dst`` index the report's ``size`` node names.  Each kind must be
    a JSON list of its columns, of one length, every cell a JSON integer
    within int64; else TypeError or ValueError, naming the kind and the
    position.
    """
    kinds = []
    for key, names, what in CORRECTION_KINDS:
        columns = _listed(data, key, list, f"{key} column")
        # as earlier reports held them: each a row of its width, two names first
        if all(len(row) == len(names) and type(row[0]) is type(row[1]) is str for row in columns):
            raise ValueError(f"{key}: rows of node names, as corrections were written before "
                             "they were node-index columns; re-run `summarize`")
        lengths = list(map(len, columns))
        if len(lengths) != len(names) or len(set(lengths)) > 1:
            raise ValueError(f"{key}: columns of lengths {lengths}, "
                             f"not {len(names)} of one length ({', '.join(names)})")
        kind = []
        for column, name in zip(columns, names):
            _exact(column, int, lambda i: f"{name} of {what} {i}")
            kind.append(node_indices(column, size, f"{name} of {what}") if name in ("src", "dst")
                        else _int64(column, f"{name} of {what}"))
        kinds.append(kind)
    return kinds


# -- the decompression ---------------------------------------------------------


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
    """Decode the columns that :func:`summary_columns` and
    :func:`correction_columns` read, or a correction set's int64 columns,
    the corrections' ``src`` and ``dst`` ids below ``space``.  ``index``
    gives each node name's id below
    ``space``, and the records must cover every one once; ``label_of`` gives
    each label name's id and ``name(u)`` node u's name in messages.  Returns
    the sorted edge keys ``u * space + w``, their multiplicities, and each
    id's label and record (-1 where no record holds it)."""
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
    parts.append((pos_u, pos_w, np.asarray(pos_m, dtype=np.int64)))
    del corrections, pos_u, pos_w, pos_m  # the longest columns, dropped before the sort
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
    gone = np.sort(neg_u * space + neg_w)
    repeated = gone[1:] == gone[:-1]
    if repeated.any():  # the second one finds its edge gone
        raise GraphFormatError(f"{what} {pair(gone[np.argmax(repeated)])}")
    at = _find(keys, gone, lambda key: f"{what} {pair(key)}")
    keys, mult = np.delete(keys, at), np.delete(mult, at)

    if len(delta):
        delta_keys = delta_u * space + delta_w
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


def _index(known: list, listed: list) -> tuple[list, dict, np.ndarray]:
    """Every id's name, and the ids of the distinct names ``listed``, by name
    and in ``listed``'s order: a name in ``known`` keeps its position there,
    the others follow in order."""
    index = dict(zip(known, range(len(known))))
    if listed == known:
        return known, index, np.arange(len(known))
    extra = [name for name in listed if name not in index]
    index.update(zip(extra, range(len(known), len(known) + len(extra))))
    index = {name: index[name] for name in listed}
    return known + extra, index, np.fromiter(index.values(), dtype=np.int64, count=len(index))


def mismatch(g: LabeledMultiGraph, summary, corrections) -> str | None:
    """None when the report sections ``summary`` and ``corrections`` (parsed
    JSON) decode to ``g``, else the MISMATCH line that names the first
    difference.  A malformed report raises KeyError for a name or key it
    lacks, and TypeError, ValueError or OverflowError for anything else."""
    size, names, label_names, nodes, edges = summary_columns(summary)
    if size != len(names) or size < 1:
        raise GraphFormatError(f"graph_size {size} is not the count of {len(names)} node names")
    # a name the input lacks gets an id after the input's own
    node_name, index, to_id = _index(g.node_names, names)
    label_name, label_of, _ = _index(g.label_names, label_names)
    space = len(node_name)
    # the corrections index the report's names, which to_id maps to ids;
    # no name here holds the columns, so decode can drop them early
    keys, mult, labels, assign = decode(
        nodes, edges,
        [[to_id[src], to_id[dst], *rest]
         for src, dst, *rest in correction_columns(corrections, len(names))],
        index, label_of, space, node_name.__getitem__,
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
