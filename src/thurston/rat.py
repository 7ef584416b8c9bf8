"""Exact rational helpers: parsing/formatting and integer vector utilities.

Every number that crosses a serialization boundary is a string "p/q" with
q > 0 and gcd(|p|, q) = 1, so exactness survives JSON round trips.  An
exact rational is held as an int when it is integral and as a Fraction
otherwise: an int is an exact rational, and integer arithmetic is cheaper.
"""

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = frozenset((int, Fraction))


def check_rational(*vectors):
    """Raise TypeError unless every entry of the vectors is an int or a
    Fraction: a float or a string would enter the exact arithmetic as a
    number its caller did not write, and a bool is not a number here.
    Returns the set of the entries' types."""
    types = set()
    for v in vectors:
        types.update(map(type, v))
    if not types <= _RATIONAL:
        bad = next(x for v in vectors for x in v if type(x) not in _RATIONAL)
        raise TypeError("expected an int or a Fraction, got %r" % (bad,))
    return types


def parse_int(text):
    """Parse an optional "-" followed by ASCII digits; unlike int(), no
    sign "+", whitespace, underscore or non-ASCII digit."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer: %r" % text)
    return int(text)


def parse_fraction(s):
    """Parse "p/q" with q > 0, a plain integer string or an int into an
    exact rational: an int when the value is integral ("4/2" gives 2), a
    Fraction otherwise.  A bool is not a number here, and a signed q is
    rejected."""
    if isinstance(s, bool):
        raise TypeError("expected a number, got %r" % s)
    if isinstance(s, int):
        return int(s)
    text = s.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        if den.startswith("-"):
            raise ValueError("denominator must be positive: %r" % s)
        p, q = parse_int(num), parse_int(den)
        if q and not p % q:
            return p // q
        return Fraction(p, q)
    return parse_int(text)


def format_fraction(x):
    """Canonical "p/q" string (denominator always present, always positive)
    of an int or a Fraction."""
    if type(x) is int:
        return "%d/1" % x
    f = x if isinstance(x, Fraction) else Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def format_vector(v):
    return [format_fraction(x) for x in v]


def format_quotients(nums, den):
    """The canonical "p/q" strings of n / den for the integers n in nums,
    den > 0: one gcd per entry and no Fraction."""
    out = []
    for n in nums:
        if n:
            g = gcd(n, den)
            out.append("%d/%d" % (n // g, den // g))
        else:
            out.append("0/1")
    return out


def parse_vector(items):
    """A tuple of exact rationals, each parsed by parse_fraction."""
    return tuple(parse_fraction(s) for s in items)


def exact_entries(values):
    """The values as a tuple of exact rationals in canonical form: an
    integral entry as an int, any other as a Fraction.  An entry that is
    neither an int nor a Fraction (a bool, a float, a str) raises
    TypeError."""
    values = tuple(values)
    if check_rational(values) <= {int}:
        return values
    return tuple(x.numerator if x.denominator == 1 else x for x in values)


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
