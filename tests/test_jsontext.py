"""The streaming writer against the standard library: for every value,
``write_json`` must produce exactly the text of ``json.dumps(v, indent=2)``
or raise the exception type ``json.dumps`` raises."""

import enum
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from lmgsum import jsontext
from lmgsum.jsontext import write_json
from lmgsum.summary import summary_to_dict


def written(value) -> str:
    parts: list[str] = []
    write_json(value, parts.append)
    return "".join(parts)


def assert_stdlib_text(got: str, value) -> None:
    expected = json.dumps(value, indent=2)
    # assert a bool: pytest's diff of two long texts can take minutes, and
    # Hypothesis would pay for it at every shrinking step
    same = got == expected
    at = len(os.path.commonprefix([got, expected]))
    assert same, f"differs at offset {at}: {got[at:at + 40]!r} != {expected[at:at + 40]!r}"


# characters that could confuse the NUL-separator fast paths if an encoder
# ever let them through raw, next to ordinary ones
_ALPHABET = st.characters() | st.sampled_from(
    ["\x00", "[", "]", '"', "\\", "\n", " ", ",", "\U0001f600", "\ud800", "\udfff"]
)
_TEXT = st.text(_ALPHABET, max_size=6) | st.sampled_from(["]\x00[", "],\n  [", "\x00"])
_FLOATS = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**70)
    | st.integers(min_value=-(2**70), max_value=-(2**63) + 1)
    | _FLOATS
    | _TEXT
)
_KEYS = _TEXT | st.integers() | _FLOATS | st.booleans() | st.none()


def _containers(children):
    scalar_rows = st.lists(_SCALARS, min_size=1, max_size=4)
    return (
        st.lists(children, max_size=6)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=5)
        | st.lists(_SCALARS, max_size=9)
        | st.lists(scalar_rows, max_size=9)
        # one row in the list of rows is empty or nested, or not a list
        | st.tuples(
            st.lists(scalar_rows, max_size=5),
            st.just([]) | st.lists(children, min_size=1, max_size=3) | _SCALARS,
            st.lists(scalar_rows, max_size=5),
        ).map(lambda t: t[0] + [t[1]] + t[2])
    )


_JSON = st.recursive(_SCALARS, _containers, max_leaves=40)


@pytest.mark.parametrize("chunk", [2, jsontext.CHUNK])
@settings(max_examples=200, deadline=None)
@given(value=_JSON)
def test_writer_equals_stdlib(chunk, value):
    # small chunks put chunk seams inside the short lists Hypothesis draws
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsontext, "CHUNK", chunk)
        assert_stdlib_text(written(value), value)


@pytest.mark.parametrize("depth", range(4))
def test_lists_longer_than_a_chunk(depth):
    n = 2 * jsontext.CHUNK + 7
    rows = [[f"v{i}", f"w{i % 13}", i * 3] for i in range(n)]
    value = {
        "names": [f"v{i}" for i in range(n)],
        "rows": rows,
        "mixed": rows[:n - 3] + [[]] + [[[1]]] + [{"x": 1}],
        "records": [{"id": i, "members": [f"v{i}"]} for i in range(n)],
        "full-records": [
            {"id": i, "label": "%s", "members": [f"v{i}", "]\x00["], "hub": None,
             "rep_mult": i / 3, "self_loop": i % 2 == 0}
            for i in range(n)
        ],
    }
    for _ in range(depth):
        value = {"nested": value, "empty": [[], {}]}
    assert_stdlib_text(written(value), value)


def test_pieces_hold_one_chunk_at_most():
    n = 10 * jsontext.CHUNK
    value = {
        "rows": [[f"v{i}", f"w{i}", i] for i in range(n)],
        "records": [{"id": i, "members": [f"v{i}"]} for i in range(n)],
    }
    parts: list[str] = []
    write_json(value, parts.append)
    # each list is ten chunks long, so a piece holding a tenth of the text
    # would hold more than one chunk
    assert max(map(len, parts)) < len("".join(parts)) / 10


# text that could break the record template or the column split: the
# template's own "%", the inner-list seam, escapes and non-ASCII
_RECORD_TEXT = _TEXT | st.sampled_from(
    ["%", "%s", "%%", "%(x)s", "]", "[", '"]\u0000["', r'"]\u0000["', "]\x00[", "\\", "é", "\x01", "\x1f"]
)
_RECORD_SCALARS = _SCALARS | _RECORD_TEXT
_RECORD_ROWS = st.lists(_RECORD_SCALARS, min_size=1, max_size=4)


@st.composite
def record_lists(draw, max_size=12):
    """Lists of dicts sharing one order of ``str`` keys; under each key
    either every value is a scalar or every value a non-empty list of
    scalars."""
    keys = draw(st.lists(_RECORD_TEXT, min_size=1, max_size=5, unique=True))
    kinds = [draw(st.sampled_from([_RECORD_SCALARS, _RECORD_ROWS])) for _ in keys]
    count = draw(st.integers(1, max_size))
    return [{key: draw(kind) for key, kind in zip(keys, kinds)} for _ in range(count)]


def stdlib_items(chunk, inner: str) -> str:
    """The items of ``json.dumps(chunk, indent=2)``, re-indented to ``inner``."""
    outer = inner[:-2]
    text = json.dumps(chunk, indent=2).replace("\n", outer)
    return text[len(inner) + 1 : -len(outer) - 1]


class Colour(enum.IntEnum):
    RED = 1


class Reprless(float):
    def __repr__(self):
        return "not a number"


class Bigint(int):
    def __repr__(self):
        return "not an int"


@pytest.mark.parametrize(
    "value",
    [
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        {float("nan"): 1, float("inf"): 2, Colour.RED: 3, Reprless(0.5): 4},
        [Colour.RED, Reprless(1.5), Bigint(7)],
        [[Colour.RED, 2], [Reprless(2.5)], [Bigint(3)]],
        {"value": Colour.RED, "float": Reprless(-0.0), "rows": [[Bigint(1), 1]]},
        ("tuple", ("rows",), (), [()]),
    ],
    ids=["scalar-keys", "odd-keys", "subclasses", "subclass-rows", "subclass-values",
         "tuples"],
)
def test_subclasses_and_key_types_match_stdlib(value):
    assert_stdlib_text(written(value), value)


@pytest.mark.parametrize(
    "value",
    [
        {(1, 2): "tuple key"},
        {"nested": {frozenset(): 1}},
        [object()],
        {"value": {1, 2}},
        [[1, b"bytes"]],
    ],
    ids=["tuple-key", "nested-set-key", "object", "set-value", "bytes-in-row"],
)
def test_unencodable_values_raise_the_stdlib_exception(value):
    with pytest.raises(Exception) as stdlib:
        json.dumps(value, indent=2)
    with pytest.raises(stdlib.type):
        written(value)


def test_summary_dict_matches_stdlib(toy):
    g, s = toy
    data = summary_to_dict(g, s)
    assert_stdlib_text(written(data), data)


class TestRecords:
    @pytest.mark.parametrize("chunk", [3, jsontext.CHUNK])
    @settings(max_examples=200, deadline=None)
    @given(records=record_lists(), depth=st.integers(0, 2))
    def test_record_path_equals_stdlib(self, chunk, records, depth):
        inner = "\n" + "  " * (depth + 1)
        assert jsontext._records_text(records, inner) == stdlib_items(records, inner)
        value = records
        for _ in range(depth):
            value = {"records": value}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsontext, "CHUNK", chunk)
            assert_stdlib_text(written(value), value)

    @pytest.mark.parametrize(
        "chunk",
        [
            [{"id": 1, "members": ["a"]}, {"id": 2, "members": []}],
            [{"id": 1, "hub": None}, {"id": 2, "hub": {"name": "a"}}],
            [{"id": 1, "rows": [[1]]}],
            [{"id": 1, "hub": None}, {"hub": None, "id": 2}],
            [{"id": 1}, {"id": 2, "hub": None}],
            [{1: "a"}, {1: "b"}],
            [{"id": 1, None: "a"}],
            [{}, {}],
            [{"id": 1, "members": ("a",)}],
            [{"id": Colour.RED}],
            [{"hub": None}, {"hub": ["a"]}],
        ],
        ids=["empty-inner-list", "nested-dict", "nested-list", "mixed-key-order",
             "other-keys", "int-keys", "null-key", "empty-dicts", "tuple-value",
             "subclass-value", "scalars-and-lists-under-one-key"],
    )
    def test_other_dict_lists_decline_to_the_stdlib(self, chunk):
        assert jsontext._records_text(chunk, "\n  ") is None
        assert_stdlib_text(written(chunk), chunk)
