"""The linear Euler characteristic functional on disc coordinates.

A disc contributes 1 - (#sides)/2 + sum over its corners of 1/degree,
where the degree of an edge class counts the tetrahedron corners it
contains.  Summed over a closed embedded normal surface this telescopes
to V - E + F of the induced cell structure, so the functional evaluates
to the Euler characteristic of the surface.  The value of a single disc's
term does not depend on its transverse orientation.

`chi_star_row` is the one place the functional is built; every Euler
characteristic in the package is read from its integer row.
"""

from fractions import Fraction
from math import lcm

from .coords import disc_edges
from .rat import dot
from .triangulation import EDGE_INDEX


# Per disc kind, the indices (EDGE_INDEX) of the tetrahedron edges its
# corners lie on.
_KIND_EDGES = tuple(tuple(EDGE_INDEX[pair] for pair in disc_edges(kind))
                    for kind in range(7))


def chi_star_row(tri, oriented=True):
    """(nums, den): the functional on column i is nums[i] / den, with
    nums integers and den > 0 a common denominator of every disc's term.
    The oriented row is `oriented_chi_row` of the unoriented one."""
    degrees = tri.degrees
    den = lcm(2, *degrees)
    nums = []
    for tet in range(tri.num_tets):
        # den / degree of the class of each of the tetrahedron's edges.
        corner = [den // degrees[tri.edge_class[tet, e]] for e in range(6)]
        for edges in _KIND_EDGES:
            nums.append(den - len(edges) * den // 2
                        + sum(corner[e] for e in edges))
    row = tuple(nums), den
    return oriented_chi_row(row) if oriented else row


def oriented_chi_row(row):
    """The oriented row of the unoriented row `row` of `chi_star_row`.  A
    disc's term does not depend on its transverse orientation, so each
    entry is repeated twice."""
    nums, den = row
    return tuple(n for n in nums for _ in range(2)), den


def chi_star(tri, x):
    """Exact rational value of the functional on a NormalVector; a vector
    of the wrong length raises ValueError."""
    nums, den = chi_star_row(tri, x.oriented)
    return Fraction(dot(nums, x.coords), den)
