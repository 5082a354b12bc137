"""Exact rational scalars.

Every number this package reads or reports is a ``fractions.Fraction``:
probabilities, payoffs, LP solutions, gaps. Fractions are always stored in
lowest terms with a positive denominator, and arithmetic is exact. The gap
dynamic programs, best responses, the off-path rewrite and the greedy
decomposition work instead on Python ints over one known positive scale (see
:class:`gametree.metrics.ProfileReach` and
:func:`gametree.strategy.decompose`), from
:func:`over_common_denominator`, and the simplex pivots an int tableau whose
rows share one determinant (see :mod:`gametree.lp`): ints are exact too,
keep every comparison and tie at a common scale, and need no gcd per
operation. Each value they report is built once, as
``Fraction(value, scale)``. Floats never enter a
semantic path; the only decimal output is display-side formatting in the
CLI.

Documents serialize rationals as strings "p/q" or "p".
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm

# without re.ASCII, \d would also match other scripts' decimal digits
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$", re.ASCII)


def parse_rational(value) -> Fraction:
    """Parse "p/q" or "p" (also bare ints) into a Fraction.

    Rejects floats, decimal notation, digits other than ASCII ones, and
    non-positive denominators: the serialized form must be unambiguous and
    exact.
    """
    if type(value) is not str:  # documents hold strings: test for them first
        if isinstance(value, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        if not isinstance(value, str):
            raise ValueError(f"expected rational string, got {type(value).__name__}")
    m = _RATIONAL_RE.match(value.strip())
    if not m:
        raise ValueError(f"malformed rational {value!r} (expected 'p' or 'p/q' with q > 0)")
    num, den = m.groups()
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def rational_reader():
    """:func:`parse_rational` that parses each distinct string once: one
    reader per document, where the same few rationals recur. Other values
    (ints, and the booleans it rejects) are never cached, since ``True ==
    1``."""
    cache: dict[str, Fraction] = {}

    def read(value) -> Fraction:
        if type(value) is not str:
            return parse_rational(value)
        q = cache.get(value)
        if q is None:
            q = cache[value] = parse_rational(value)
        return q

    return read


def format_rational(q: Fraction) -> str:
    """Canonical serialization: "p" when integral, else "p/q". Reads the
    numerator and denominator as they stand, so an int (in lowest terms
    over 1) serializes as its ``Fraction`` would."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def over_common_denominator(values) -> tuple[int, tuple[int, ...]]:
    """``(den, ints)`` with ``values[k] == Fraction(ints[k], den)``, where
    ``den`` is the lcm of the values' denominators (1 for no values)."""
    dens = [q.denominator for q in values]
    den = lcm(*dens)
    return den, tuple([q.numerator * (den // d) for q, d in zip(values, dens)])


def decimal_repr(q: Fraction) -> str:
    """Display-only decimal approximation to 20 significant digits.

    Never feeds back into computation.
    """
    with localcontext() as ctx:
        ctx.prec = 20
        d = Decimal(q.numerator) / Decimal(q.denominator)
    return str(d)
