"""Indented JSON text without the json module's pure-Python encoder.

``json.dumps(doc, indent=2)`` always runs the pure-Python encoder, since the
C encoder serves only unindented output. :func:`dumps` returns the same
text: every string goes through json's C string encoder, and the
indentation is laid out here, from an explicit stack of open containers, so
a document of any depth takes no recursion.
"""

from __future__ import annotations

from json.encoder import encode_basestring, encode_basestring_ascii

INDENT = "  "
INFINITY = float("inf")


def dumps(doc, ensure_ascii: bool = True) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=ensure_ascii)``, byte for
    byte, for documents of dicts with string keys, lists, tuples, strings,
    ints, floats, booleans and None; anything else raises
    :class:`TypeError`, and so does a key that is not a string (from the
    string encoder)."""
    enc = encode_basestring_ascii if ensure_ascii else encode_basestring
    out: list[str] = []
    # per open container: its remaining items, whether they are (key, value)
    # pairs, the newline before each item and the text that closes it
    stack: list[tuple] = []
    value, newline, comma = doc, "\n", ""
    while True:
        if isinstance(value, (dict, list, tuple)) and value:
            keyed = isinstance(value, dict)
            stack.append((iter(value.items() if keyed else value), keyed,
                          newline + INDENT, newline + ("}" if keyed else "]")))
            out.append("{" if keyed else "[")
            comma = ""  # none before a container's first item
        else:
            out.append(enc(value) if isinstance(value, str) else _leaf(value))
        # the next item of the innermost container that has one left; the
        # strings on the way are written in place, used-up containers closed
        while stack:
            items, keyed, newline, close = stack[-1]
            for value in items:
                if keyed:
                    key, value = value
                    out.append(f"{comma}{newline}{enc(key)}: ")
                else:
                    out.append(comma + newline)
                comma = ","
                if type(value) is not str:
                    break  # laid out by the outer loop
                out.append(enc(value))
            else:
                stack.pop()
                out.append(close)
                continue
            break
        else:
            return "".join(out)


def _leaf(v) -> str:
    """A value other than a string or a non-empty container."""
    if isinstance(v, dict):
        return "{}"
    if isinstance(v, (list, tuple)):
        return "[]"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v in (INFINITY, -INFINITY):
            return "Infinity" if v > 0 else "-Infinity"
        return float.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
