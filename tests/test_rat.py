from fractions import Fraction

import pytest

from thurston.rat import format_fraction, parse_fraction


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
