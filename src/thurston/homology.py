"""Second homology coordinates and the homology class of an oriented
normal coordinate vector.

For a closed oriented manifold H_2(M;R) is identified with H^1(M;R) by
Poincare duality, and H^1 is computed from the cellular cochain complex of
the triangulation: C^0 -> C^1 -> C^2 over the vertex, edge and face
classes, with the coboundary maps of the quotient CW structure.

A transversely oriented normal surface meets every edge class
transversely, and its signed intersection count with each edge defines a
1-cocycle representing the Poincare dual of the surface's class.  The
count for edge class e is read off the arc coordinates in a single chosen
face containing e: an arc crossing e counts +1 when its transverse
orientation agrees with the fixed direction of e.  The matching equations
make the choice of face immaterial on the matching kernel; tests assert
this rather than assuming it.
"""

from fractions import Fraction

from .coords import arc_disc_columns, num_coords
from .linalg import nullspace, rank_int, rref, solve_linear
from .rat import primitive_integer_vector
from .record import Record
from .triangulation import EDGES, EDGE_INDEX, FACE_CORNERS


def _apply_rows(rows, vec):
    return tuple(sum(a * v for a, v in zip(row, vec)) for row in rows)


def cochain_complex(tri):
    """Coboundary maps (d0, d1) as integer matrices with rows indexed by
    the target: d0 is edges x vertices, d1 is faces x edges.  They use the
    stored edge class directions and the increasing vertex order of each
    face class representative, and d1 . d0 = 0 is checked exactly."""
    nv = len(tri.vertex_classes)
    d0 = []
    for members in tri.edge_classes:
        # compute_skeleton gives each class's first member direction +1.
        tet, ei = members[0]
        a, b = EDGES[ei]
        row = [0] * nv
        row[tri.vertex_class[(tet, b)]] += 1
        row[tri.vertex_class[(tet, a)]] -= 1
        d0.append(row)
    d1 = []
    for (tet, face), _ in tri.face_classes:
        v0, v1, v2 = FACE_CORNERS[face]
        row = [0] * len(d0)
        for (p, q), sgn in (((v1, v2), 1), ((v0, v2), -1), ((v0, v1), 1)):
            # FACE_CORNERS lists corners increasing, so EDGES[ei] is (p, q).
            ei = EDGE_INDEX[(p, q)]
            row[tri.edge_class[(tet, ei)]] += \
                sgn * tri.edge_direction[(tet, ei)]
        d1.append(row)
    d0_cols = list(zip(*d0))
    if any(any(_apply_rows(d0_cols, row)) for row in d1):
        raise ArithmeticError("d1 . d0 != 0")
    return d0, d1


def betti_numbers(tri):
    """(b0, b1) of the triangulation over the rationals; for a closed
    orientable manifold b2 = b1 and b3 = b0."""
    d0, d1 = cochain_complex(tri)
    r0 = rank_int(d0)
    return len(tri.vertex_classes) - r0, len(d0) - r0 - rank_int(d1)


def h1_basis(d0, d1):
    """H^1 = ker d1 / im d0 from one reduced echelon form, as
    (basis, projection_rows).

    The columns of [d0 | K | I], with K the primitive integer nullspace
    basis of d1, are reduced together.  Each pivot column is independent
    of the columns before it, so the pivots pick in order a basis of
    im d0, then the kernel vectors extending it to a basis of ker d1 (the
    H^1 basis, primitive-integer coset representatives), then the unit
    vectors completing it to a basis F of the whole edge space.  The
    reduction multiplies by F^-1, so the I block of the reduced matrix is
    F^-1, and its rows at the H^1 pivots form the b x ne projection
    returning the basis coordinates of any cocycle (its value on vectors
    outside ker d1 is an artifact of the extension and never used).
    """
    ne, nv = len(d0), len(d0[0]) if d0 else 0
    kernel = [primitive_integer_vector(v) for v in nullspace(d1, ne)]
    nk = len(kernel)
    cols = [d0[i] + [v[i] for v in kernel] + [int(i == j) for j in range(ne)]
            for i in range(ne)]
    m, pivots = rref(cols)
    if len(pivots) != ne:
        raise ArithmeticError("basis completion fell short of the edge count")
    lo = sum(p < nv for p in pivots)
    basis = [tuple(Fraction(x) for x in kernel[p - nv])
             for p in pivots if nv <= p < nv + nk]
    projection_rows = [tuple(m[lo + k][nv + nk:]) for k in range(len(basis))]
    return basis, projection_rows


def edge_intersection_matrix(tri):
    """Integer matrix Z (edge classes x oriented disc types): Z x is the
    signed count of intersections of the surface with coordinates x with
    each edge class, computed from the arc coordinates of one chosen face
    per edge.

    The chosen face is the one containing the lexicographically smallest
    (tet, face, edge) corner of the class.  An arc cutting off the head of
    the directed edge points along it when its own orientation sign is +1,
    an arc cutting off the tail points against it.
    """
    n = num_coords(tri.num_tets, True)
    rows = []
    for members in tri.edge_classes:
        tet, face, ei = min((tet, f, ei) for tet, ei in members
                            for f in range(4) if f not in EDGES[ei])
        p, q = EDGES[ei]
        if tri.edge_direction[(tet, ei)] < 0:
            p, q = q, p
        row = [0] * n
        for cut, weight in ((q, 1), (p, -1)):
            for s in (1, -1):
                for col in arc_disc_columns(tet, face, cut, s, True):
                    row[col] += weight * s
        rows.append(tuple(row))
    return rows


class HomologyMap(Record):
    """The cochain complex (d0, d1), its H^1 basis with the coordinate
    projection, the edge intersection matrix Z, and their product: the
    b rows of length 14t mapping oriented disc coordinates to H^1 basis
    coordinates, valid on the oriented matching kernel.

    Maps are equal when all seven fields are; they are mutable and
    unhashable."""

    __slots__ = _fields = _compared = ("d0", "d1", "basis", "projection_rows",
                                       "edge_rows", "rows", "b")

    def __init__(self, d0, d1, basis, projection_rows, edge_rows, rows, b):
        self.d0 = d0
        self.d1 = d1
        self.basis = basis
        self.projection_rows = projection_rows
        self.edge_rows = edge_rows
        self.rows = rows
        self.b = b

    def class_of(self, x):
        if not x.oriented:
            raise ValueError("expected oriented coordinates")
        if len(x.coords) != len(self.edge_rows[0]):
            raise ValueError("coordinate length mismatch")
        return _apply_rows(self.rows, x.coords)

    def dual_cocycle(self, matching, x):
        """The edge-indexed signed intersection vector of an oriented
        kernel element, checked to be a 1-cocycle."""
        if not x.oriented:
            raise ValueError("expected oriented coordinates")
        if not matching.is_in_kernel(x.coords):
            raise ValueError("matching equations violated")
        z = _apply_rows(self.edge_rows, x.coords)
        if any(_apply_rows(self.d1, z)):
            raise ArithmeticError("not a cocycle")
        return z

    def is_coboundary(self, z):
        """Exact test that an edge vector is d0 of a vertex function."""
        return solve_linear(self.d0, list(z)) is not None


def homology_map_matrix(tri):
    d0, d1 = cochain_complex(tri)
    basis, projection_rows = h1_basis(d0, d1)
    z = edge_intersection_matrix(tri)
    z_cols = list(zip(*z))
    rows = [_apply_rows(z_cols, p) for p in projection_rows]
    return HomologyMap(d0, d1, basis, projection_rows, z, rows, len(basis))
