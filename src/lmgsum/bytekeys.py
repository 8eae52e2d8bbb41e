"""Byte fields of a TSV file as uint64 keys, without a Python object per
field.

The loader in :mod:`lmgsum.graph` finds the fields of a file as offsets
and lengths into its bytes.  Here :func:`number` numbers their distinct
values in order of first appearance by one sort of uint64 keys and
decodes only the distinct ones, :class:`NameIndex` looks names up among
those keys, and :func:`digits` reads plain decimal multiplicities.  A
name is read as 8-byte words, zero-padded: a name of one word is its own
key, a longer one is keyed by a hash of its words.  A dict of their bytes
keys the few names far longer than the rest, those that hold a NUL byte
(the padding would give ``a\\0`` the key of ``a``), and, after two names
share a hashed key, every field of that :func:`number` call.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: every multiplicity of at most this many decimal digits fits in int64
_MAX_DIGITS = 18
#: the most 8-byte words a key covers; longer names are keyed by a dict
_MAX_WORDS = 32
#: odd multiplier of the key hash (2^64 over the golden ratio)
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _word_count(lens: np.ndarray, budget: int) -> int:
    """The 8-byte words per key for fields of these byte lengths.

    The fewest words that hold all but at most 1/64 of the fields, within
    a cap of ``_MAX_WORDS`` and of ``budget`` bytes of words over all the
    fields; if the cap leaves more than that out, the words that hold
    every field under the cap.  The fields left out, a few long names, are
    keyed by a dict, so that they cost no pass per word over every field.
    """
    n = lens.size
    cap = max(1, min(_MAX_WORDS, budget // (8 * n)))
    if cap == 1 or lens.max() <= 8:
        return 1
    need = np.minimum((lens + 7) // 8, cap + 1)
    # tail[j]: the fields that need more than j words
    tail = n - np.cumsum(np.bincount(need.ravel(), minlength=cap + 2))
    return max(1, int(np.argmax((tail <= n // 64) | (tail == tail[cap]))))


def _word(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, j: int) -> np.ndarray:
    """Bytes ``8j`` to ``8j + 8`` of each field as a little-endian uint64,
    zero past the field's end; ``buf`` ends in eight zero bytes."""
    view = np.ndarray(len(buf) - 7, dtype="<u8", buffer=buf, strides=(1,))
    rest = lens - 8 * j  # the field's bytes from this word on
    # fancy indexing, as take() would first copy the strided view; the
    # clamp, applied before the offset, cannot overflow int32 offsets
    word = view[np.minimum(starts, len(view) - 1 - 8 * j) + 8 * j if j else starts]
    # shifting the bytes past the field out the top and back clears them
    spare = (64 - 8 * np.clip(rest, 1, 8)).astype(np.uint8)
    word <<= spare
    word >>= spare
    if j:
        word[rest < 1] = 0
    return word


def _words(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, count: int) -> np.ndarray:
    """Words 0 to ``count - 1`` of the fields, one row per word, the
    fields in row-major order."""
    if count == 1:
        return _word(buf, starts, lens, 0).reshape(1, -1)
    words = np.empty((count, lens.size), dtype=np.uint64)
    for j, row in enumerate(words):
        row[:] = _word(buf, starts, lens, j).ravel()
    return words


def _hash(words: np.ndarray) -> np.ndarray:
    """A uint64 key for each column of ``words``.

    One word is its own key, so equal keys mean equal fields.  More words
    are hashed into one: each step is a bijection of the next word, so
    fields that differ only in their last word never collide, but others
    may, and :func:`number` checks.
    """
    if len(words) == 1:
        return words[0]
    key = np.zeros(words.shape[1], dtype=np.uint64)
    for word in words:
        key ^= word
        key *= _MIX
        key ^= key >> np.uint64(29)
    return key


def _by_dict(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, count: int) -> np.ndarray:
    """Whether each field is keyed by the dict: it is longer than ``count``
    words or holds a NUL byte.  ``buf`` ends in eight zero bytes."""
    out = lens > 8 * count
    body = buf[:-8]
    if np.count_nonzero(body) < len(body):
        nul = np.flatnonzero(body == 0)
        out |= np.searchsorted(nul, starts) < np.searchsorted(nul, starts + lens)
    return out


def _decode(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> list[str]:
    """The fields as ``str``: one gather of their bytes, one decode."""
    ends = np.cumsum(lens + 1)  # each field and the separator after it
    at = np.repeat(starts - (ends - lens - 1), lens + 1) + np.arange(ends[-1])
    blob = buf[at]
    blob[ends - 1] = 10
    return blob.tobytes().decode("utf-8").split("\n")[:-1]


class NameIndex(NamedTuple):
    """Distinct names keyed as :func:`number` keys them."""

    #: the sorted keys of the names of at most ``8 * len(words)`` bytes,
    #: their words (one row per word) and their ids
    keys: np.ndarray
    words: np.ndarray
    ids: np.ndarray
    #: the ids of the names keyed by the dict, by their bytes
    long: dict[bytes, int]

    def lookup(self, buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """The id of each field's name, -1 for a name not in the index."""
        ids = np.full(len(starts), -1, dtype=np.int64)
        count = len(self.words)
        by_dict = _by_dict(buf, starts, lens, count)
        fits = np.flatnonzero(~by_dict)
        if not len(self.keys):  # every name that fits a key is unknown
            fits = fits[:0]
        words = _words(buf, starts[fits], lens[fits], count)
        keys = _hash(words)
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        hit = self.keys[at] == keys
        if count > 1:  # a hashed key matches only if the words do too
            hit &= (self.words[:, at] == words).all(axis=0)
        ids[fits[hit]] = self.ids[at[hit]]
        for i in np.flatnonzero(by_dict).tolist():
            ids[i] = self.long.get(buf[starts[i] : starts[i] + lens[i]].tobytes(), -1)
        return ids


def number(
    buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, count: int | None = None
) -> tuple[np.ndarray, list[str], NameIndex]:
    """Number the fields' distinct values in order of first appearance.

    ``starts`` and ``lens`` may be 2-d and strided; the fields count in
    row-major order, and ``buf`` ends in eight zero bytes.  Returns each
    field's int64 id, the distinct values decoded to ``str`` in id order,
    and their :class:`NameIndex`.  The fields that fit a key of ``count``
    words (see :func:`_word_count`, which callers leave to pick it) are
    numbered by one sort of their keys, the others (see :func:`_by_dict`)
    through a dict of their bytes.  If two different fields get the same
    hashed key, the call keys every field through the dict (``count`` 0).
    """
    if count is None:
        count = _word_count(lens, 2 * len(buf))
    words = _words(buf, starts, lens, count)
    keys = _hash(words)
    if count == 1:
        del words  # they are the keys, which the sorts below free
    by_dict = _by_dict(buf, starts, lens, count)
    long_at = np.flatnonzero(by_dict)
    if len(long_at):
        fit_at = np.flatnonzero(~by_dict)
        keys = keys[fit_at]
    del by_dict
    order = np.argsort(keys)
    keys = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True  # no key at all when every field is long
    new[1:] = keys[1:] != keys[:-1]
    heads = np.flatnonzero(new)
    del new
    keys = keys[heads]
    # a key's first field is the least position among its equal keys
    first = np.minimum.reduceat(order, heads)
    # from here order only indexes the scatter below: int32 halves it
    order = order.astype(np.int32 if lens.size < 2**31 else np.int64)
    long_ids: dict[bytes, int] = {}
    if len(long_at):
        order, first = fit_at[order], fit_at[first]
        long_inverse = np.array(
            [
                long_ids.setdefault(buf[s : s + n].tobytes(), len(long_ids))
                for s, n in zip(starts.flat[long_at].tolist(), lens.flat[long_at].tolist())
            ],
            dtype=np.int64,
        )
        first = np.concatenate((first, long_at[np.unique(long_inverse, return_index=True)[1]]))
    distinct = keys.reshape(1, -1) if count == 1 else words[:, first[: len(keys)]]
    by_first = np.argsort(first)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    first = first[by_first]
    names = _decode(buf, starts.flat[first], lens.flat[first])
    ids = np.empty(lens.size, dtype=np.int64)
    ids[order] = np.repeat(rank[: len(keys)], np.diff(heads, append=len(order)))
    del order
    if len(long_at):
        ids[long_at] = rank[len(keys) :][long_inverse]
    if count > 1:
        # a hashed key is one name only if each field with it has the words
        # of the first such field
        by_id = np.zeros(len(names), dtype=np.uint64)
        for word, head in zip(words, distinct):
            by_id[rank[: len(keys)]] = head
            differs = word != by_id[ids]
            differs[long_at] = False  # the long fields were not keyed
            if differs.any():
                return number(buf, starts, lens, 0)
    long = dict(zip(long_ids, rank[len(keys) :].tolist()))
    return ids, names, NameIndex(keys, distinct, rank[: len(keys)], long)


def digits(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The fields as int64 where one is 1 to ``_MAX_DIGITS`` ASCII digits,
    0 elsewhere."""
    value = np.zeros(len(starts), dtype=np.int64)
    plain = (lens > 0) & (lens <= _MAX_DIGITS)
    for k in range(min(int(lens.max(initial=0)), _MAX_DIGITS)):
        live = lens > k
        # a byte below "0" wraps above 9; "clip" keeps dead lanes in bounds
        digit = buf.take(starts + k, mode="clip") - np.uint8(48)
        plain &= (digit <= 9) | ~live
        np.multiply(value, 10, out=value, where=live)
        np.add(value, digit, out=value, where=live)
    value[~plain] = 0
    return value
