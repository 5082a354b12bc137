import random
from fractions import Fraction

import pytest

from gametree.rational import decimal_repr, format_rational, parse_rational


def test_parse_basic_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)


def test_parse_normalizes_to_lowest_terms():
    q = parse_rational("6/4")
    assert (q.numerator, q.denominator) == (3, 2)


@pytest.mark.parametrize("bad", ["1/0", "1/-2", "1.5", "a/b", "1//2", "", "--3", 1.5, None, True])
def test_parse_rejects_junk(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize("value, message", [
    (True, "booleans are not rationals"),
    (1.5, "expected rational string, got float"),
    (None, "expected rational string, got NoneType"),
    ("1.5", "malformed rational '1.5' (expected 'p' or 'p/q' with q > 0)"),
    ("3/0", "malformed rational '3/0' (expected 'p' or 'p/q' with q > 0)"),
])
def test_parse_rejection_messages(value, message):
    with pytest.raises(ValueError) as e:
        parse_rational(value)
    assert str(e.value) == message


def test_parse_accepts_padding_str_subclasses_and_fractions():
    class Text(str):
        pass

    assert parse_rational(" 3/4 ") == Fraction(3, 4)
    assert parse_rational(Text("-6/4")) == Fraction(-3, 2)
    q = Fraction(2, 3)
    assert parse_rational(q) is q
    assert type(parse_rational("12")) is Fraction and parse_rational("12") == 12


def test_format_round_trips():
    rng = random.Random(3)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        assert parse_rational(format_rational(q)) == q


def test_exact_field_laws():
    # associativity, distributivity and idempotent normalization never drift
    rng = random.Random(4)
    for _ in range(300):
        a = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert Fraction(a.numerator, a.denominator) == a
        assert a.denominator > 0


def test_decimal_repr_is_display_only():
    assert decimal_repr(Fraction(1, 5)) == "0.2"
    assert decimal_repr(Fraction(1, 3)).startswith("0.3333333333333333333")
    assert len(decimal_repr(Fraction(1, 3)).replace("0.", "")) == 20
