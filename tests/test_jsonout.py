import json

import pytest
from hypothesis import given, settings, strategies as st

from gametree.jsonout import INDENT, dumps

# the characters json escapes, and some it writes as they are only with
# ensure_ascii=False
AWKWARD = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                           " ", "\U0001f600", ""])
TEXT = st.text() | st.lists(AWKWARD, max_size=4).map("".join)
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
DOCS = st.recursive(SCALARS, lambda inner: (st.lists(inner, max_size=5)
                                            | st.dictionaries(TEXT, inner, max_size=5)),
                    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(DOCS)
def test_emitter_writes_what_json_dumps_writes(doc):
    assert dumps(doc, ensure_ascii=False) == json.dumps(doc, indent=2, ensure_ascii=False)
    assert dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.floats() | st.tuples(st.floats(), TEXT),
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(TEXT, inner, max_size=3),
                    max_leaves=12))
def test_emitter_writes_floats_and_tuples_as_json_does(doc):
    # the solve report carries a float (wall_time_s); NaN and the infinities
    # are written as json writes them
    assert dumps(doc) == json.dumps(doc, indent=2)


def test_emitter_refuses_what_it_cannot_write_as_json_does():
    # values json cannot write, and keys other than strings, which json
    # would convert and no document of the package holds
    for doc in ({"a": object()}, [{1, 2}], {(1, 2): "tuple key"}, {1: "int key"},
                {"a": [{None: "null key"}]}):
        with pytest.raises(TypeError):
            dumps(doc)


def test_emitter_writes_any_depth():
    # the layout takes no recursion: nesting beyond the interpreter's
    # recursion limit is written as json would write it
    depth = 1_500
    doc = 1
    for k in range(depth):
        doc = [doc] if k % 2 else {"k": doc}
    heads, tails = [], []
    for k in reversed(range(depth)):  # outermost first
        pad = "\n" + INDENT * (depth - k - 1)
        heads.append(f"[{pad}{INDENT}" if k % 2 else f'{{{pad}{INDENT}"k": ')
        tails.append(pad + ("]" if k % 2 else "}"))
    assert dumps(doc) == "".join(heads) + "1" + "".join(reversed(tails))
