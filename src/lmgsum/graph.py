"""Directed, node-labeled multi-graphs with edge multiplicities.

Nodes are dense integers ``0..n-1``; original string ids from input files are
kept in ``node_names`` so every export can be mapped back.  Adjacency is
stored CSR-style in sorted numpy arrays, once, at construction time — graphs
are immutable after that.  A self-loop appears in both the out- and the
in-adjacency of its node.

Every graph is built by :meth:`LabeledMultiGraph.from_arrays` from unique
``(src, dst, mult)`` edge arrays; the ``edges``-dict constructor is a thin
wrapper over it.  The out-CSR is one ``argsort`` of the int64 key
``src * n + dst`` and the in-CSR one of ``dst * n + src``.  :func:`dedup_sum`
is the one routine that turns repeated edges into unique ones; the file
loader and the generators in :mod:`lmgsum.synth` all go through it.

:func:`load_graph` reads an edge file and a label file from their bytes
with array operations: the field bounds here, the keys and the numbering
in :mod:`lmgsum.bytekeys`.  Only the odd lines, which the arrays do not
clear, go one at a time to :func:`_parse_line`, which words the
``file:line`` errors of malformed lines; the errors that need the whole
file (an overflowing sum, an unknown or relabeled node) are found from the
arrays.
"""

from __future__ import annotations

import os
import re
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .bytekeys import NameIndex, digits, number

DEFAULT_LABEL = "node"
#: largest multiplicity the int64 edge arrays hold
MAX_MULT = 2**63 - 1


class GraphFormatError(ValueError):
    """Raised for malformed input files; message carries the line number."""


def _check_edges(n: int, edges: Iterable[tuple[int, int, int]]) -> None:
    """Raise the ValueError of the first invalid ``(u, w, m)`` edge."""
    for u, w, m in edges:
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge ({u}, {w}) out of node range")
        if m < 1:
            raise ValueError(f"edge ({u}, {w}) has multiplicity {m} < 1")


def _edge_arrays(
    edges: dict[tuple[int, int], int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An ``{(u, w): mult}`` dict as int64 ``(src, dst, mult)`` arrays."""
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    mult = np.fromiter(edges.values(), dtype=np.int64, count=len(edges))
    return ends[0::2], ends[1::2], mult


def dedup_sum(
    n: int, src: np.ndarray, dst: np.ndarray, mult: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the multiplicities of repeated ``(src, dst)`` pairs.

    Returns unique int64 ``(src, dst, mult)`` arrays in ``(src, dst)`` order.
    The sums are int64: callers whose totals may pass ``MAX_MULT`` check
    that before calling.
    """
    key = np.asarray(src, dtype=np.int64) * n + np.asarray(dst, dtype=np.int64)
    order = np.argsort(key)
    key = key[order]
    starts = np.ones(len(key), dtype=bool)
    starts[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(starts)
    sums = np.add.reduceat(np.asarray(mult, dtype=np.int64)[order], first)
    key = key[first]
    return key // n, key % n, sums


class LabeledMultiGraph:
    def __init__(
        self,
        n: int,
        edges: dict[tuple[int, int], int],
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
        node_names: Sequence[str] | None = None,
    ):
        """Build from an ``{(u, w): mult}`` dict; see :meth:`from_arrays`."""
        try:
            src, dst, mult = _edge_arrays(edges)
        except OverflowError:
            _check_edges(n, ((u, w, m) for (u, w), m in edges.items()))
            raise
        self._build(n, src, dst, mult, labels, label_names, node_names)

    @classmethod
    def from_arrays(
        cls,
        n: int,
        src,
        dst,
        mult,
        labels: Sequence[int] | None = None,
        label_names: Sequence[str] | None = None,
        node_names: Sequence[str] | None = None,
    ) -> "LabeledMultiGraph":
        """Build from parallel edge arrays, one entry per distinct edge.

        Repeated ``(src, dst)`` pairs are rejected; :func:`dedup_sum` merges
        them first.  An invalid edge raises the ValueError that names the
        first one in array order.
        """
        g = cls.__new__(cls)
        g._build(n, src, dst, mult, labels, label_names, node_names)
        return g

    def _build(self, n, src, dst, mult, labels, label_names, node_names) -> None:
        if n < 1:
            raise ValueError("graph needs at least one node")
        self.n = n
        self.label_names = list(label_names) if label_names else [DEFAULT_LABEL]
        if labels is None:
            labels = [0] * n
        self.labels = np.asarray(labels, dtype=np.int64)
        if self.labels.shape != (n,):
            raise ValueError("labels must assign one label to every node")
        if len(self.labels) and (
            self.labels.min() < 0 or self.labels.max() >= len(self.label_names)
        ):
            raise ValueError("label id out of range")
        self.node_names = (
            list(node_names) if node_names is not None else [str(i) for i in range(n)]
        )
        if len(self.node_names) != n:
            raise ValueError("node_names must cover every node")

        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        mult = np.asarray(mult, dtype=np.int64)
        if not (src.shape == dst.shape == mult.shape and src.ndim == 1):
            raise ValueError("src, dst and mult must be 1-d arrays of one length")
        if not ((src >= 0) & (src < n) & (dst >= 0) & (dst < n) & (mult >= 1)).all():
            _check_edges(n, zip(src.tolist(), dst.tolist(), mult.tolist()))

        key = src * n + dst
        order = np.argsort(key)
        key = key[order]
        repeated = np.flatnonzero(key[1:] == key[:-1])
        if len(repeated):
            k = int(key[repeated[0]])
            raise ValueError(f"edge ({k // n}, {k % n}) given twice")
        self.out_src = src[order]
        self.out_dst = dst[order]
        self.out_mult = mult[order]
        self.out_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=self.out_indptr[1:])

        order = np.argsort(dst * n + src)
        self.in_src = src[order]
        self.in_dst = dst[order]
        self.in_mult = mult[order]
        self.in_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=n), out=self.in_indptr[1:])

        self._token_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._token_values: np.ndarray | None = None
        #: every edge as Python ints, filled by :meth:`edge_lists`
        self._edge_lists: list = []

    # -- basic accessors ---------------------------------------------------

    @property
    def label_count(self) -> int:
        return len(self.label_names)

    @property
    def edge_count(self) -> int:
        """Number of distinct directed edges (multiplicities not counted)."""
        return len(self.out_dst)

    def out_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (targets, multiplicities) of v's out-edges."""
        lo, hi = self.out_indptr[v], self.out_indptr[v + 1]
        return self.out_dst[lo:hi], self.out_mult[lo:hi]

    def in_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Sorted (sources, multiplicities) of v's in-edges."""
        lo, hi = self.in_indptr[v], self.in_indptr[v + 1]
        return self.in_src[lo:hi], self.in_mult[lo:hi]

    def edge_lists(self, v: int) -> tuple[list[int], list[int]]:
        """v's out-edges as one flat list ``[w, m, w, m, ...]`` of targets
        and multiplicities, and its in-edges as one of sources and
        multiplicities.  The first call converts every edge, with one int
        object per node id, into a cache that shallow copies share."""
        lists = self._edge_lists
        if not lists:
            # imported here: at the top it adds ~0.4 ms to every start-up
            from array import array

            ids = list(range(self.n))
            for ends, mults, indptr in (
                (self.out_dst, self.out_mult, self.out_indptr),
                (self.in_src, self.in_mult, self.in_indptr),
            ):
                flat = [0] * (2 * len(ends))
                flat[::2] = map(ids.__getitem__, ends.tolist())
                flat[1::2] = mults.tolist()
                lists += [array("q", (2 * indptr).tolist()), flat]
        out_at, outs, in_at, ins = lists
        return outs[out_at[v] : out_at[v + 1]], ins[in_at[v] : in_at[v + 1]]

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_edges(v)[0]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_edges(v)[0]

    def multiplicity(self, u: int, w: int) -> int:
        """Multiplicity of edge (u, w), 0 if absent."""
        targets, mults = self.out_edges(u)
        i = np.searchsorted(targets, w)
        if i < len(targets) and targets[i] == w:
            return int(mults[i])
        return 0

    def self_loop_mults(self) -> np.ndarray:
        """Every node's self-loop multiplicity, 0 where it has none."""
        loops = np.zeros(self.n, dtype=np.int64)
        is_loop = self.out_src == self.out_dst
        loops[self.out_src[is_loop]] = self.out_mult[is_loop]
        return loops

    def edges(self) -> Iterator[tuple[int, int, int]]:
        for u, w, m in zip(self.out_src, self.out_dst, self.out_mult):
            yield int(u), int(w), int(m)

    # -- similarity support ------------------------------------------------

    def concat_adjacency(self, v: int) -> list[tuple[str, int]]:
        """Direction-tagged neighbor tokens: in-neighbors then out-neighbors.

        An in-neighbor and an out-neighbor with the same id are distinct
        tokens; a self-loop contributes one "in" and one "out" token.
        """
        return [("in", int(u)) for u in self.in_neighbors(v)] + [
            ("out", int(w)) for w in self.out_neighbors(v)
        ]

    def token_array(self) -> tuple[np.ndarray, np.ndarray]:
        """All nodes' direction-tagged tokens as one flat uint64 array.

        Returns (tokens, indptr): node v's tokens are
        ``tokens[indptr[v]:indptr[v+1]]``, encoded as ``neighbor * 2 + dir``
        with dir 0 for in and 1 for out.  Cached after the first call.
        """
        if self._token_cache is None:
            # node v's in-tokens start at indptr[v] = in_indptr[v] + out_indptr[v]
            # and its out-tokens follow them, at in_indptr[v + 1] + out_indptr[v]
            indptr = self.in_indptr + self.out_indptr
            tokens = np.empty(indptr[-1], dtype=np.uint64)
            at = np.arange(len(self.in_src))
            tokens[at + self.out_indptr[self.in_dst]] = self.in_src.astype(np.uint64) * 2
            tokens[at + self.in_indptr[self.out_src + 1]] = (
                self.out_dst.astype(np.uint64) * 2 + 1
            )
            self._token_cache = (tokens, indptr)
        return self._token_cache

    def token_values(self) -> np.ndarray:
        """The distinct values in :meth:`token_array`'s tokens, sorted, as
        uint64; at most ``min(2n, token count)`` of them.  Cached after the
        first call."""
        if self._token_values is None:
            tokens = self.token_array()[0].view(np.int64)  # values are below 2n
            self._token_values = np.flatnonzero(np.bincount(tokens)).astype(np.uint64)
        return self._token_values

    # -- comparison and export ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabeledMultiGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.labels, other.labels)
            and np.array_equal(self.out_src, other.out_src)
            and np.array_equal(self.out_dst, other.out_dst)
            and np.array_equal(self.out_mult, other.out_mult)
        )

    def canonical_dump(self) -> str:
        """Deterministic text form: sorted edge lines then label lines."""
        lines = [
            f"{self.node_names[u]}\t{self.node_names[w]}\t{m}"
            for u, w, m in self.edges()
        ]
        lines.sort()
        label_lines = sorted(
            f"{self.node_names[v]}\t{self.label_names[self.labels[v]]}"
            for v in range(self.n)
        )
        return "\n".join(lines + label_lines) + "\n"


# -- file loading -----------------------------------------------------------

#: the whitespace ``str.strip`` removes, other than the separators and
#: ``\r``, which ends a line before this applies
_STRAY = "\v\f\x1c\x1d\x1e\x1f \x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + (
    "\u2028\u2029\u202f\u205f\u3000"
)
_STRAY_SPACE = re.compile(f"[{_STRAY}]")
#: the same in UTF-8, and its ASCII bytes
_STRAY_UTF8 = re.compile(b"|".join(re.escape(c.encode()) for c in _STRAY))
_ASCII_SPACE = "".join(c for c in _STRAY if c.isascii()).encode()


def _parse_line(line: bytes, path: str, num: int, edges: bool) -> tuple | None:
    """One edge line, without its newline, as ``(src, dst, mult)``, or
    one label line as ``(node, label)``; None for a blank or ``#`` line.
    A bad line raises the GraphFormatError that names it as
    ``path:num``."""
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise GraphFormatError(f"{path}:{num}: not valid UTF-8") from None
    if not text.strip() or text.lstrip().startswith("#"):
        return None
    parts = [p.strip() for p in text.split("\t")]
    if not edges:
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphFormatError(f"{path}:{num}: expected 'node<TAB>label'")
        return parts[0], parts[1]
    if len(parts) not in (2, 3):
        raise GraphFormatError(
            f"{path}:{num}: expected 'src<TAB>dst[<TAB>mult]', got {len(parts)} fields"
        )
    src, dst, mult_s = parts if len(parts) == 3 else (*parts, "1")
    if not src or not dst:
        raise GraphFormatError(f"{path}:{num}: empty node id")
    try:
        mult = int(mult_s)
    except ValueError:
        raise GraphFormatError(
            f"{path}:{num}: multiplicity {mult_s!r} is not an integer"
        ) from None
    if mult < 1:
        raise GraphFormatError(f"{path}:{num}: multiplicity must be >= 1, got {mult}")
    return src, dst, mult


class _Rows(NamedTuple):
    """A TSV file's data lines, one row each, in file order."""

    #: the file's bytes, the fields of its odd lines, then eight zero bytes
    buf: np.ndarray
    #: offset and byte length of each row's first two fields
    starts: np.ndarray
    lens: np.ndarray
    #: each row's multiplicity in an edge file, None if every one is 1;
    #: object dtype past int64
    mult: np.ndarray | None
    #: which lines are rows, None when every one is
    kept: np.ndarray | None
    #: the first bad line's error: the rows stop before that line
    error: GraphFormatError | None
    #: the leading "#" lines set aside before the first of ``kept``'s lines
    header: int

    def where(self, path: str, row: int) -> str:
        line = row if self.kept is None else int(np.flatnonzero(self.kept)[row])
        return f"{path}:{self.header + line + 1}"


def _read_rows(path: str, edges: bool) -> _Rows:
    """The rows of an edge file (2 or 3 fields a line) or a label file (2).

    Lines end as text mode ends them, at ``\\n``, ``\\r\\n`` or ``\\r``, and
    one that is empty or starts with ``#`` is skipped.  A leading block of
    ASCII ``#`` lines, such as a SNAP header, is set aside before the scan.  A clean line, with
    a right field count, no empty field, no field that starts or ends in
    whitespace, and a third field, if any, of 1 to 18 ASCII digits that
    reads >= 1, is a row as it stands: one array scan finds every line's
    tabs and newlines, and no Python object is made per field.  Every other
    line, and the first that is not valid UTF-8, is odd: :func:`_parse_line`
    reads it alone and skips it, returns its fields, which join the rows in
    file order, or raises.  The first error is kept, and no later line is
    read.
    """
    with open(path, "rb") as fh:
        # a bytearray, which the odd lines' fields extend in place
        data = bytearray(os.fstat(fh.fileno()).st_size)
        size = fh.readinto(data)
        data[size:] = fh.read()  # what the size missed: a file that grew, a pipe
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            data = data.replace(b"\r", b"\n")
    header = end = 0  # the leading ASCII "#" lines, set aside
    while data.startswith(b"#", end):
        stop = data.find(b"\n", end) + 1 or len(data)
        if not data[end:stop].isascii():
            break
        header, end = header + 1, stop
    del data[:end]
    text, bad = "", []
    if not data.isascii():
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            # the line of the first bad byte is odd, even if blank or "#"
            text, bad = data.decode("utf-8", "surrogateescape"), [data.count(b"\n", 0, e.start)]
    raw = np.frombuffer(data, dtype=np.uint8)
    # the byte spans of stray whitespace: one scan rules most files out
    if text:
        spans = [m.span() for m in _STRAY_UTF8.finditer(data)] if _STRAY_SPACE.search(text) else []
        lo, hi = np.array(spans, dtype=np.int64).reshape(-1, 2).T
    else:
        lo = np.flatnonzero(np.isin(raw, list(_ASCII_SPACE))) if any(
            b in data for b in _ASCII_SPACE) else np.zeros(0, dtype=np.int64)
        hi = lo + 1
    del text
    # the tabs (9) and newlines (10); a byte below 9 wraps round to >= 247
    pos = np.flatnonzero(raw - np.uint8(9) < 2)
    ends = raw[pos]
    ends = np.equal(ends, 10, out=ends.view(bool))  # in place: no temporary
    if len(raw) and raw[-1] != 10:  # the last line ends where the file does
        pos, ends = np.append(pos, len(raw)), np.append(ends, True)
    padded = []  # the lines with a field that strip() changes, not a name's inside
    if len(lo):
        edge = (lo == 0) | (hi == len(raw))
        edge |= raw[np.maximum(lo - 1, 0)] - np.uint8(9) < 2
        edge |= raw[np.minimum(hi, len(raw) - 1)] - np.uint8(9) < 2
        padded = np.searchsorted(pos[ends], lo[edge])
    # the odd lines' fields, appended below, take at most the file's size again
    pos = pos.astype(np.int32 if 2 * len(raw) + 8 < 2**31 else np.int64)
    starts = np.empty_like(pos)
    starts[:1] = 0
    np.add(pos[:-1], 1, out=starts[1:])
    lens = np.subtract(pos, starts, out=pos)
    lines = int(np.count_nonzero(ends))
    width = int(np.argmax(ends)) + 1 if lines else 0
    if width >= 2 and len(pos) == lines * width and ends[width - 1 :: width].all():
        # every line has ``width`` fields: a scalar count, one view per column
        count, starts2, lens2 = width, starts.reshape(lines, width), lens.reshape(lines, width)
    else:
        last = np.flatnonzero(ends)  # each line's last separator
        count = np.diff(last, prepend=-1)  # each line's field count
        width = 3 if edges and (count == 3).any() else 2
        cols = np.minimum((last - count + 1)[:, None] + np.arange(width), len(starts) - 1)
        starts2, lens2 = starts[cols], lens[cols]
    del ends, pos

    head = raw[starts2[:, 0]]  # each line's first byte: "#" or, if empty, its newline
    skip = (head == 35) | (head == 10)
    del head
    keep = (count == 2) | (edges & (count == 3))
    keep &= (lens2[:, 0] > 0) & (lens2[:, 1] > 0)
    mult = None
    if edges and starts2.shape[1] > 2:
        mult = digits(raw, starts2[:, 2], lens2[:, 2])
        mult[count == 2] = 1
        keep &= mult > 0
    keep[padded] = False
    keep[bad] = skip[bad] = False
    keep &= ~skip

    odd = np.flatnonzero(~(keep | skip))
    fixed, fields, error = [], [], None
    for i, lo in zip(odd.tolist(), starts2[odd, 0].tolist()):
        hi = data.find(b"\n", lo)
        try:
            line = data[lo:hi] if hi >= 0 else data[lo:]
            parsed = _parse_line(line, path, header + i + 1, edges)
        except GraphFormatError as e:
            keep[i:], error = False, e
            break
        if parsed is not None:
            fixed.append(i)
            fields.append(parsed)
    del raw
    if fixed:
        keep[fixed] = True
        names = [name.encode("utf-8") for parsed in fields for name in parsed[:2]]
        name_lens = np.array([len(name) for name in names], dtype=starts.dtype)
        starts2[fixed, :2] = (len(data) + np.cumsum(name_lens) - name_lens).reshape(-1, 2)
        lens2[fixed, :2] = name_lens.reshape(-1, 2)
        data += b"".join(names)
        if edges:
            values = [parsed[2] for parsed in fields]
            mult = np.ones(lines, dtype=np.int64) if mult is None else mult
            if max(values) > MAX_MULT:  # kept exact for the overflow message
                mult = mult.astype(object)
            mult[fixed] = values
    data += bytes(8)
    kept = None if keep.all() else keep
    if kept is not None:
        starts2, lens2 = starts2.compress(keep, axis=0), lens2.compress(keep, axis=0)
        mult = None if mult is None else mult.compress(keep)
    buf = np.frombuffer(data, dtype=np.uint8)
    return _Rows(buf, starts2[:, :2], lens2[:, :2], mult, kept, error, header)


def _load_edges(
    path: str, undirected: bool
) -> tuple[list[str], NameIndex, np.ndarray, np.ndarray, np.ndarray]:
    """The node names in id order, their index, and the unique ``(src,
    dst, mult)`` arrays of an edge file."""
    rows = _read_rows(path, edges=True)
    if not len(rows.lens):
        raise rows.error or GraphFormatError(f"{path}: no edges found")
    # ids in order of first appearance, as a line-by-line read assigns them
    ids, names, index = number(rows.buf, rows.starts, rows.lens)
    src, dst, mult = ids[0::2], ids[1::2], rows.mult
    if mult is None:  # made after the numbering, so as not to raise its peak
        mult = np.ones(len(src), dtype=np.int64)
    if int(mult.max()) > MAX_MULT // len(mult):  # a sum may pass MAX_MULT
        # each edge's running sum, line by line, in Python ints: exact
        ends = (np.minimum(src, dst), np.maximum(src, dst)) if undirected else (src, dst)
        key = ends[0] * len(names) + ends[1]
        order = np.argsort(key, kind="stable")
        heads = np.flatnonzero(np.diff(key[order], prepend=-1))
        each = mult[order].astype(object)
        sums = np.cumsum(each)
        sums -= np.repeat((sums - each)[heads], np.diff(heads, append=len(key)))
        past = np.flatnonzero(sums > MAX_MULT)
        if len(past):  # the first line where a sum passes MAX_MULT
            i = past[np.argmin(order[past])]
            r = int(order[i])
            raise GraphFormatError(
                f"{rows.where(path, r)}: multiplicity {sums[i]} of {names[src[r]]!r} -> "
                f"{names[dst[r]]!r} exceeds 2^63-1"
            )
    if rows.error is not None:
        raise rows.error
    del rows  # freed before dedup_sum's arrays exist
    if undirected:
        cross = src != dst
        src, dst, mult = (
            np.concatenate((src, dst[cross])),
            np.concatenate((dst, src[cross])),
            np.concatenate((mult, mult[cross])),
        )
    return (names, index, *dedup_sum(len(names), src, dst, mult))


def _load_labels(
    path: str, node_names: list[str], index: NameIndex
) -> tuple[np.ndarray, list[str]]:
    """Each node's label id and the label names in id order, from a label
    file whose node names are looked up in the edge file's ``index``."""
    rows = _read_rows(path, edges=False)
    labels = np.full(len(node_names), -1, dtype=np.int64)
    label_names: list[str] = []
    if len(rows.lens):
        ids = index.lookup(rows.buf, rows.starts[:, 0], rows.lens[:, 0])
        line_labels, label_names, _ = number(rows.buf, rows.starts[:, 1], rows.lens[:, 1])
        unknown = np.flatnonzero(ids < 0)
        known = unknown[0] if len(unknown) else len(ids)  # the rows before the first
        ids, line_labels = ids[:known], line_labels[:known]
        labels[ids] = line_labels
        if (labels[ids] != line_labels).any():
            # a node with two labels: the first row that differs from its first
            _, first = np.unique(ids, return_index=True)
            labels[ids[first]] = line_labels[first]
            r = int(np.argmax(labels[ids] != line_labels))
            raise GraphFormatError(
                f"{rows.where(path, r)}: conflicting label for {node_names[ids[r]]!r}"
            )
        if len(unknown):
            s, n = int(rows.starts[known, 0]), int(rows.lens[known, 0])
            name = rows.buf[s : s + n].tobytes().decode("utf-8")
            raise GraphFormatError(f"{rows.where(path, known)}: unknown node {name!r}")
    if rows.error is not None:
        raise rows.error
    missing = np.flatnonzero(labels < 0)
    if len(missing):
        raise GraphFormatError(
            f"{path}: {len(missing)} nodes without a label "
            f"(first: {node_names[missing[0]]!r})"
        )
    return labels, label_names


def load_graph(
    path: str,
    labels_path: str | None = None,
    undirected: bool = False,
) -> LabeledMultiGraph:
    """Load a graph from a TSV edge list, optionally with a node-label file.

    Edge lines are ``src<TAB>dst[<TAB>mult]`` (mult defaults to 1); duplicate
    lines sum their multiplicities; ``#`` starts a comment line.  With
    ``undirected`` every line materializes both directions (a self-loop line
    stays a single loop).  Label lines are ``node<TAB>label`` and must cover
    exactly the nodes of the edge file; without a label file all nodes share
    one default label.  Node ids are arbitrary strings, remapped to dense
    integers in order of first appearance and kept in ``node_names``.

    Both files are read from their bytes (see ``_read_rows``); only odd
    lines, say one with a padded field or a multiplicity spelled ``+1``,
    are parsed alone.  An error names the first bad line as ``file:line``:
    a line the one-line parser rejects, the line where an edge's summed
    multiplicity passes 2^63-1, or a label line with an unknown node or a
    second label.
    """
    node_names, index, src, dst, mult = _load_edges(path, undirected)
    n = len(node_names)
    labels, label_names = [0] * n, [DEFAULT_LABEL]
    if labels_path is not None:
        labels, label_names = _load_labels(labels_path, node_names, index)
    return LabeledMultiGraph.from_arrays(
        n, src, dst, mult, labels=labels, label_names=label_names, node_names=node_names
    )
