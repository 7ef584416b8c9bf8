"""Exact rational helpers: parsing/formatting and integer vector utilities.

Every number that crosses a serialization boundary is a string "p/q" with
q > 0 and gcd(|p|, q) = 1, so exactness survives JSON round trips.
"""

from fractions import Fraction
from math import gcd, lcm


def parse_int(text):
    """Parse an optional "-" followed by ASCII digits; unlike int(), no
    sign "+", whitespace, underscore or non-ASCII digit."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer: %r" % text)
    return int(text)


def parse_fraction(s):
    """Parse "p/q" with q > 0, a plain integer string or an int into a
    Fraction; a bool is not a number here, and a signed q is rejected."""
    if isinstance(s, bool):
        raise TypeError("expected a number, got %r" % s)
    if isinstance(s, int):
        return Fraction(s)
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if den.startswith("-"):
            raise ValueError("denominator must be positive: %r" % s)
        return Fraction(parse_int(num), parse_int(den))
    return Fraction(parse_int(text))


def format_fraction(x):
    """Canonical "p/q" string (denominator always present, always positive)."""
    f = x if isinstance(x, Fraction) else Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def format_vector(v):
    return [format_fraction(x) for x in v]


def parse_vector(items):
    return tuple(parse_fraction(s) for s in items)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("dot product of vectors of lengths %d and %d"
                         % (len(u), len(v)))
    return sum(a * b for a, b in zip(u, v))


def normalize_int_vector(v):
    """Divide an integer vector by the gcd of its entries; the zero vector
    maps to itself."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def integer_numerators(vectors):
    """(den, numerators): den the least common denominator of every entry
    of the rational vectors, and each vector times den as a tuple of
    ints."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return den, [tuple(x.numerator * (den // x.denominator) for x in v)
                 for v in vectors]


def primitive_integer_vector(v):
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  The sign is preserved, not normalized.
    """
    den = lcm(*(x.denominator for x in v))
    return normalize_int_vector([x.numerator * (den // x.denominator)
                                 for x in v])
