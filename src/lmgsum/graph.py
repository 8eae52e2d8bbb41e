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

:func:`load_graph` reads a clean edge file, and a clean label file, with
whole-file array operations and falls back to a per-line scan, which alone
words the ``file:line`` errors, whenever a file has anything the bulk path
does not handle.
"""

from __future__ import annotations

import re
from itertools import chain, count
from typing import Iterable, Iterator, Sequence

import numpy as np

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

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_edges(v)[0]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_edges(v)[0]

    def degree(self, v: int) -> int:
        """Token degree: in-degree plus out-degree, self-loop counted twice."""
        return int(
            (self.out_indptr[v + 1] - self.out_indptr[v])
            + (self.in_indptr[v + 1] - self.in_indptr[v])
        )

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


def _numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """The lines of a text file, numbered from 1, as text mode splits them.

    A line that is not valid UTF-8 raises a GraphFormatError naming it.
    """
    # undecodable bytes become lone surrogates, which valid UTF-8 never
    # decodes to, so the line that holds one is the line to name
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for line_num, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise GraphFormatError(
                        f"{path}:{line_num}: not valid UTF-8"
                    ) from None
            yield line_num, line


def _parse_edge_file(path: str) -> Iterator[tuple[int, str, str, int]]:
    for line_num, raw in _numbered_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) == 2:
            src, dst, mult_s = parts[0], parts[1], "1"
        elif len(parts) == 3:
            src, dst, mult_s = parts
        else:
            raise GraphFormatError(
                f"{path}:{line_num}: expected 'src<TAB>dst[<TAB>mult]', "
                f"got {len(parts)} fields"
            )
        if not src or not dst:
            raise GraphFormatError(f"{path}:{line_num}: empty node id")
        try:
            mult = int(mult_s)
        except ValueError:
            raise GraphFormatError(
                f"{path}:{line_num}: multiplicity {mult_s!r} is not an integer"
            ) from None
        if mult < 1:
            raise GraphFormatError(
                f"{path}:{line_num}: multiplicity must be >= 1, got {mult}"
            )
        yield line_num, src, dst, mult


#: whitespace other than the tab and newline separators
_STRAY_SPACE = re.compile(r"[^\S\t\n]")

_Edges = tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray]


def _whole_file_fields(path: str, widths: tuple[int, ...]) -> tuple[list[str], int] | None:
    """The fields of a clean TSV file and its line width, or None.

    Clean means valid UTF-8 with at least one line; every line has the same
    number of non-empty tab-separated fields, one of ``widths``, and does
    not start with ``#``; and the only whitespace is tabs and newlines (so
    no ``\\r`` and no padding).  Returns the fields in file order.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if not text or text.startswith("#") or "\n#" in text or _STRAY_SPACE.search(text):
        return None
    # the separators, line by line, must read (TAB, NL), (TAB, TAB, NL), ...
    raw = np.frombuffer(data, dtype=np.uint8)
    seps = raw[(raw == 9) | (raw == 10)]
    if not text.endswith("\n"):
        seps = np.append(seps, np.uint8(10))
    width = int(np.argmax(seps == 10)) + 1
    if width not in widths or len(seps) % width:
        return None
    rows = seps.reshape(-1, width)
    if not ((rows[:, -1] == 10).all() and (rows[:, :-1] == 9).all()):
        return None
    fields = text.split()
    if len(fields) != len(rows) * width:  # some field is empty
        return None
    return fields, width


def _bulk_edges(path: str, undirected: bool) -> _Edges | None:
    """Parse a clean edge file with whole-file operations, or return None.

    Clean means what :func:`_whole_file_fields` takes, with 2 or 3 fields
    per line; every multiplicity parses with ``int`` and is >= 1; and the
    largest multiplicity times the line count is at most ``MAX_MULT``, so
    no sum can overflow.  Anything else returns None, and the caller falls
    back to the per-line scan, which words the error if there is one.
    """
    parsed = _whole_file_fields(path, (2, 3))
    if parsed is None:
        return None
    tokens, width = parsed
    lines = len(tokens) // width
    if width == 2:
        ends = tokens
        mult = np.ones(lines, dtype=np.int64)
    else:
        ends = [""] * (2 * lines)
        ends[0::2] = tokens[0::3]
        ends[1::2] = tokens[1::3]
        try:
            mult = np.fromiter(map(int, tokens[2::3]), dtype=np.int64, count=lines)
        except (ValueError, OverflowError):
            return None
        if mult.min() < 1 or int(mult.max()) > MAX_MULT // lines:
            return None
    # ids in order of first appearance, as the per-line scan assigns them
    name_to_id = dict(zip(dict.fromkeys(ends), count()))
    ids = np.fromiter(map(name_to_id.__getitem__, ends), dtype=np.int64, count=2 * lines)
    src, dst = ids[0::2], ids[1::2]
    if undirected:
        cross = src != dst
        src, dst, mult = (
            np.concatenate((src, dst[cross])),
            np.concatenate((dst, src[cross])),
            np.concatenate((mult, mult[cross])),
        )
    return (name_to_id, *dedup_sum(len(name_to_id), src, dst, mult))


def _scan_edges(path: str, undirected: bool) -> _Edges:
    """The per-line parse: accepts every valid file and names bad lines."""
    name_to_id: dict[str, int] = {}
    edges: dict[tuple[int, int], int] = {}

    def node_id(name: str) -> int:
        i = name_to_id.get(name)
        if i is None:
            i = len(name_to_id)
            name_to_id[name] = i
        return i

    for line_num, src, dst, mult in _parse_edge_file(path):
        u, w = node_id(src), node_id(dst)
        total = edges.get((u, w), 0) + mult
        if total > MAX_MULT:
            raise GraphFormatError(
                f"{path}:{line_num}: multiplicity {total} of {src!r} -> {dst!r} "
                f"exceeds 2^63-1"
            )
        edges[(u, w)] = total
        if undirected and u != w:
            # every line adds to both directions, so they stay equal
            edges[(w, u)] = total

    if not name_to_id:
        raise GraphFormatError(f"{path}: no edges found")
    return (name_to_id, *_edge_arrays(edges))


def _bulk_labels(
    path: str, name_to_id: dict[str, int]
) -> tuple[np.ndarray, list[str]] | None:
    """Read a clean label file with whole-file operations, or return None.

    Clean means what :func:`_whole_file_fields` takes, with 2 fields per
    line, and every line names a node of the edge file, no node gets two
    different labels and every node gets one.  Label ids follow first
    appearance, as in the per-line scan, which words every error.
    """
    parsed = _whole_file_fields(path, (2,))
    if parsed is None:
        return None
    fields, _ = parsed
    names, label_of = fields[0::2], fields[1::2]
    try:
        ids = np.fromiter(map(name_to_id.__getitem__, names), dtype=np.int64, count=len(names))
    except KeyError:
        return None
    label_to_id = dict(zip(dict.fromkeys(label_of), count()))
    line_labels = np.fromiter(
        map(label_to_id.__getitem__, label_of), dtype=np.int64, count=len(label_of)
    )
    labels = np.full(len(name_to_id), -1, dtype=np.int64)
    labels[ids] = line_labels
    # a conflicting line disagrees with what was stored; a missing node is -1
    if (labels[ids] != line_labels).any() or (labels < 0).any():
        return None
    return labels, list(label_to_id)


def _scan_labels(path: str, name_to_id: dict[str, int]) -> tuple[list[int], list[str]]:
    """The per-line label parse: accepts every valid file and names bad lines."""
    n = len(name_to_id)
    labels = [0] * n
    label_to_id: dict[str, int] = {}
    seen: dict[int, str] = {}
    for line_num, raw in _numbered_lines(path):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphFormatError(f"{path}:{line_num}: expected 'node<TAB>label'")
        name, label = parts
        if name not in name_to_id:
            raise GraphFormatError(f"{path}:{line_num}: unknown node {name!r}")
        v = name_to_id[name]
        if v in seen and seen[v] != label:
            raise GraphFormatError(
                f"{path}:{line_num}: conflicting label for {name!r}"
            )
        seen[v] = label
        if label not in label_to_id:
            label_to_id[label] = len(label_to_id)
        labels[v] = label_to_id[label]
    if len(seen) < n:
        missing = next(name for name, v in name_to_id.items() if v not in seen)
        raise GraphFormatError(
            f"{path}: {n - len(seen)} nodes without a label (first: {missing!r})"
        )
    return labels, list(label_to_id)


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

    A clean edge file (see ``_bulk_edges``: uniform 2- or 3-field lines, no
    comment, blank line, ``\\r`` or padding) is read whole: one ``split``,
    ids via ``dict.fromkeys``, multiplicities via ``map(int, ...)`` and
    :func:`dedup_sum`; ``undirected`` mirrors the arrays and stays on this
    path.  A clean label file (see ``_bulk_labels``: uniform 2-field lines
    that give every node exactly one label) is read whole too.  Any
    other file is read line by line, and that scan alone raises the
    ``file:line`` errors, so both paths accept the same files with the same
    messages and build the same graph.
    """
    parsed = _bulk_edges(path, undirected)
    if parsed is None:
        parsed = _scan_edges(path, undirected)
    name_to_id, src, dst, mult = parsed
    node_names = list(name_to_id)
    n = len(node_names)

    labels, label_names = [0] * n, [DEFAULT_LABEL]
    if labels_path is not None:
        parsed_labels = _bulk_labels(labels_path, name_to_id)
        if parsed_labels is None:
            parsed_labels = _scan_labels(labels_path, name_to_id)
        labels, label_names = parsed_labels

    return LabeledMultiGraph.from_arrays(
        n, src, dst, mult, labels=labels, label_names=label_names, node_names=node_names
    )
