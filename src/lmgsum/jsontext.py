"""Indented JSON text written in pieces, at the C encoder's speed.

``write_json(obj, write)`` passes ``write`` the text of
``json.dumps(obj, indent=2)``, byte for byte, in pieces of at most about
``CHUNK`` list elements, so no whole-report string is ever built.  The
standard library uses its C encoder only when ``indent`` is None; with an
indent it walks every value in Python, which made the report's encoding the
slowest layer of a sparse ``summarize``.

Two list shapes, the long ones in a report, are encoded by the C encoder
with a NUL item separator and then indented by ``str.replace``:

- a list of scalars (node names, label names, each correction column);
- a list of records: non-empty dicts that share one order of ``str`` keys,
  whose values are scalars or non-empty lists of scalars (the super-node
  and super-edge records).  Each key's values are encoded as one column,
  split into items, and the items fill a ``%`` template of the record.

``ensure_ascii`` escapes every control character, so a raw NUL in that
output is always an item separator, and ``]`` NUL ``[`` always marks the
seam between two inner lists.  A list of lists, such as a correction kind's
columns, is walked list by list, so each column is written a chunk at a
time.  Scalars here are values whose type is exactly
``str``, ``int``, ``float``, ``bool`` or ``None``; subclasses take the
general path.  Other dicts are walked key by key, and the items of a list
chunk of any other shape one at a time.

A scalar or an empty container met on that walk (a dict value, say) goes
through the C encoder too: its text is one line with or without an indent.
Nothing is left to the pure-Python encoder an indent selects, which leaves
a reference cycle of closures behind on every call.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable

#: most list elements encoded by one call, and so held as text at once
CHUNK = 1024

_SCALARS = frozenset({str, int, float, bool, type(None)})
_encode_nul = json.JSONEncoder(separators=("\x00", ": ")).encode


def write_json(obj, write: Callable[[str], object]) -> None:
    """Write ``json.dumps(obj, indent=2)`` through ``write``, piece by piece.

    A value or key JSON cannot hold raises the ``TypeError`` ``json.dumps``
    raises, possibly after some pieces have been written.
    """
    _write(obj, write, 0)


def _write(obj, write, level: int) -> None:
    if isinstance(obj, dict) and obj:
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in obj.items():
            # the stdlib's own key conversion: '{"1": 0}' for the key 1
            write(sep + json.dumps({key: 0})[1:-4] + ": ")
            _write(value, write, level + 1)
            sep = "," + inner
        write("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        _write_list(obj, write, level)
    else:
        # a scalar or an empty container: one line, the same with or
        # without an indent, so the C encoder writes it
        write(json.dumps(obj))


def _write_list(obj, write, level: int) -> None:
    outer = "\n" + "  " * level
    inner = outer + "  "
    write("[" + inner)
    for start in range(0, len(obj), CHUNK):
        if start:
            write("," + inner)
        chunk = obj[start : start + CHUNK]
        text = _chunk_text(chunk, inner)
        if text is not None:
            write(text)
            continue
        for i, item in enumerate(chunk):
            if i:
                write("," + inner)
            _write(item, write, level + 1)
    write(outer + "]")


def _chunk_text(chunk, inner: str) -> str | None:
    """Items of a non-empty list chunk, each at ``inner``'s indent, joined,
    or None unless the chunk has one of the two shapes of the module
    docstring."""
    types = set(map(type, chunk))
    if types <= _SCALARS:
        return _encode_nul(chunk)[1:-1].replace("\x00", "," + inner)
    if types == {dict}:
        return _records_text(chunk, inner)
    return None


def _scalar_rows(items) -> bool:
    """Whether every one of ``items`` is a non-empty list of scalars."""
    return (
        set(map(type, items)) == {list}
        and all(items)
        and set(map(type, chain.from_iterable(items))) <= _SCALARS
    )


def _records_text(chunk, inner: str) -> str | None:
    """Records of a list chunk of dicts, each at ``inner``'s indent, joined,
    or None unless the chunk is a list of records (see the module
    docstring)."""
    keys = tuple(chunk[0])
    if not keys or set(map(type, keys)) != {str} or set(map(tuple, chunk)) != {keys}:
        return None
    field = inner + "  "
    deeper = field + "  "
    template, columns = [], []
    # every dict has the same key order, so values() lines up the columns
    for key, column in zip(keys, zip(*map(dict.values, chunk))):
        name = field + json.dumps(key).replace("%", "%%") + ": "
        if set(map(type, column)) <= _SCALARS:
            template.append(name + "%s")
            columns.append(_encode_nul(column)[1:-1].split("\x00"))
        elif _scalar_rows(column):
            # a raw \x01, like a raw NUL, never occurs in the encoder's text
            body = _encode_nul(column)[2:-2].replace("]\x00[", "\x01")
            template.append(name + "[" + deeper + "%s" + field + "]")
            columns.append(body.replace("\x00", "," + deeper).split("\x01"))
        else:
            return None
    record = "{" + ",".join(template) + inner + "}"
    return ("," + inner).join(map(record.__mod__, zip(*columns)))
