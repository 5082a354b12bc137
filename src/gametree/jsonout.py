"""Indented JSON text without the json module's pure-Python encoder.

``json.dumps(doc, indent=2)`` always runs the pure-Python encoder, since the
C encoder serves only unindented output. :func:`dumps` returns the same
text: every string goes through json's C string encoder, and the
indentation is laid out here.
"""

from __future__ import annotations

from json.encoder import encode_basestring, encode_basestring_ascii

INDENT = "  "
INFINITY = float("inf")


def dumps(doc, ensure_ascii: bool = True) -> str:
    """``json.dumps(doc, indent=2, ensure_ascii=ensure_ascii)``, byte for
    byte, for documents of dicts with string keys, lists, tuples, strings,
    ints, floats, booleans and None; anything else raises
    :class:`TypeError`."""
    return _value(doc, encode_basestring_ascii if ensure_ascii else encode_basestring, "\n")


def _value(v, enc, newline: str) -> str:
    """``v`` laid out at the indentation ``newline`` ends with. Strings
    inside a container, keys included, are encoded in place, without a call
    per string; the string encoders raise :class:`TypeError` for a key that
    is not a string."""
    if isinstance(v, str):
        return enc(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = newline + INDENT
        return "{" + inner + f",{inner}".join([
            f"{enc(k)}: "
            f"{enc(x) if type(x) is str else _value(x, enc, inner)}"
            for k, x in v.items()]) + newline + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = newline + INDENT
        return "[" + inner + f",{inner}".join([
            enc(x) if type(x) is str else _value(x, enc, inner) for x in v]) + newline + "]"
    return _scalar(v)


def _scalar(v) -> str:
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
