"""Exact rational helpers: parsing/formatting and integer vector utilities.

Every number that crosses a serialization boundary is a string "p/q" with
q > 0 and gcd(|p|, q) = 1, so exactness survives JSON round trips.
"""

from fractions import Fraction
from math import gcd


def parse_fraction(s):
    """Parse "p/q" or a plain integer string into a Fraction."""
    if isinstance(s, int):
        return Fraction(s)
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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


def primitive_integer_vector(v):
    """Scale a rational vector to coprime integers, preserving direction.

    The zero vector maps to itself.  The sign is preserved, not normalized.
    """
    v = [Fraction(x) for x in v]
    if all(x == 0 for x in v):
        return tuple(0 for _ in v)
    denom_lcm = 1
    for x in v:
        d = x.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(x * denom_lcm) for x in v]
    g = 0
    for n in ints:
        g = gcd(g, abs(n))
    return tuple(n // g for n in ints)
