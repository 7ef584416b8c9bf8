from fractions import Fraction

import pytest

from thurston.rat import (format_fraction, format_quotients, format_vector,
                          parse_fraction, parse_vector)


def test_parse_fraction_accepts_canonical_forms():
    assert parse_fraction("-1/2") == Fraction(-1, 2)
    assert parse_fraction("2/4") == Fraction(1, 2)
    assert parse_fraction("-3") == Fraction(-3)
    assert parse_fraction(5) == Fraction(5)
    assert parse_fraction(format_fraction(Fraction(-7, 3))) == Fraction(-7, 3)


@pytest.mark.parametrize("text", ["1/-2", "-1/-2", "1/-0", "+1/2", "1/+2",
                                  "1/ 2", "1/2/3", "1_0/3", "1/0x2"])
def test_parse_fraction_rejects_signed_or_malformed_denominator(text):
    """The denominator is ASCII digits only: "1/-2" is not -1/2."""
    with pytest.raises(ValueError):
        parse_fraction(text)


def test_parse_fraction_rejects_booleans_and_zero_denominator():
    with pytest.raises(TypeError):
        parse_fraction(True)
    with pytest.raises(ZeroDivisionError):
        parse_fraction("1/0")


def test_parse_fraction_gives_an_int_when_integral():
    for text, value in (("4/2", 2), ("-6/3", -2), ("0/5", 0), ("7", 7),
                        ("2/1", 2), (" 3/1 ", 3), (9, 9)):
        got = parse_fraction(text)
        assert type(got) is int and got == value, text
    assert parse_vector(["1/2", "4/2", "-3"]) == (Fraction(1, 2), 2, -3)
    assert type(parse_fraction("3/2")) is Fraction


def test_format_fraction_of_ints_and_quotients():
    assert format_vector([0, -3, Fraction(1, 2), Fraction(4)]) == \
        ["0/1", "-3/1", "1/2", "4/1"]
    assert format_quotients((0, 2, 3, 6, -4), 6) == \
        [format_fraction(Fraction(n, 6)) for n in (0, 2, 3, 6, -4)]

