"""Second homology coordinates and the homology class of an oriented
normal coordinate vector.

For a closed oriented manifold H_2(M;R) is identified with H^1(M;R) by
Poincare duality, and H^1 is computed from the cellular cochain complex of
the triangulation: C^0 -> C^1 -> C^2 over the vertex, edge and face
classes, with the transposed boundary maps of the quotient CW structure.

A transversely oriented normal surface meets every edge class
transversely, and its signed intersection count with each edge defines a
1-cocycle representing the Poincare dual of the surface's class.  The
count for edge class e is read off the arc coordinates in a single chosen
face containing e: an arc crossing e counts +1 when its transverse
orientation agrees with the fixed direction of e.  The matching equations
make the choice of face immaterial on the matching kernel; tests assert
this rather than assuming it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .coords import (disc_index, quad_arc_sign_factor, quad_kind_for_arc,
                     num_coords)
from .linalg import invert_matrix, nullspace, rank_int, solve_linear
from .rat import primitive_integer_vector
from .triangulation import EDGES, EDGE_INDEX, FACE_CORNERS


@dataclass
class CochainComplex:
    """Coboundary maps d0: C^0 -> C^1 and d1: C^1 -> C^2 as integer
    matrices (rows indexed by the target), with d1 . d0 = 0 exactly."""

    d0: list
    d1: list
    num_vertices: int
    num_edges: int
    num_faces: int


def boundary_matrices(tri):
    """Cellular boundary maps del_1 (edges -> vertices) and del_2
    (faces -> edges) of the quotient CW structure, using the stored edge
    class directions and the increasing vertex order of each face class
    representative."""
    nv = len(tri.vertex_classes)
    ne = len(tri.edge_classes)
    nf = len(tri.face_classes)
    d1 = [[0] * ne for _ in range(nv)]
    for e, members in enumerate(tri.edge_classes):
        tet, ei = members[0]
        a, b = EDGES[ei]
        if tri.edge_direction[(tet, ei)] < 0:
            a, b = b, a
        d1[tri.vertex_class[(tet, b)]][e] += 1
        d1[tri.vertex_class[(tet, a)]][e] -= 1
    d2 = [[0] * nf for _ in range(ne)]
    for f, ((tet, face), _) in enumerate(tri.face_classes):
        v0, v1, v2 = FACE_CORNERS[face]
        for (p, q), sgn in (((v1, v2), 1), ((v0, v2), -1), ((v0, v1), 1)):
            ei = EDGE_INDEX[(p, q)]
            e = tri.edge_class[(tet, ei)]
            direction = tri.edge_direction[(tet, ei)]
            if p > q:
                direction = -direction
            d2[e][f] += sgn * direction
    return d1, d2


def cochain_complex(tri):
    d1, d2 = boundary_matrices(tri)
    nv, ne, nf = len(d1), len(d2), len(d2[0]) if d2 else 0
    d0 = [[d1[j][i] for j in range(nv)] for i in range(ne)]
    dd1 = [[d2[j][i] for j in range(ne)] for i in range(nf)]
    cx = CochainComplex(d0, dd1, nv, ne, nf)
    for row in _mat_mul(cx.d1, cx.d0):
        if any(x != 0 for x in row):
            raise ArithmeticError("d1 . d0 != 0")
    return cx


def _mat_mul(a, b):
    if not a or not b:
        return []
    n = len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(n)] for i in range(len(a))]


def betti_numbers(tri):
    """(b0, b1) of the triangulation over the rationals; for a closed
    orientable manifold b2 = b1 and b3 = b0."""
    d1, d2 = boundary_matrices(tri)
    ne = len(d2)
    r1 = rank_int(d1)
    r2 = rank_int(d2)
    b0 = len(d1) - r1
    b1 = ne - r1 - r2
    return b0, b1


@dataclass
class H1Basis:
    """A rational basis of H^1 = ker d1 / im d0 with a projection map.

    basis holds primitive-integer coset representatives; projection_rows
    is the b x ne matrix returning the basis coordinates of any cocycle
    (its value on vectors outside ker d1 is an artifact of the extension
    and never used).
    """

    complex: CochainComplex
    basis: list
    projection_rows: list
    b: int


def compute_h1_basis(tri):
    """Exact basis of ker d1 modulo im d0, with coordinates.

    The basis vectors extend a column basis of im d0 inside ker d1; the
    full square matrix [im-basis | H1-basis | complement] is inverted once
    and the H1 block of the inverse is the coordinate projection.
    """
    cx = cochain_complex(tri)
    ne = cx.num_edges
    kernel = nullspace(cx.d1, ne)
    image_cols = [tuple(Fraction(cx.d0[i][j]) for i in range(ne))
                  for j in range(cx.num_vertices)]
    chosen = _greedy_column_basis(image_cols, ne)
    basis = []
    for v in kernel:
        if rank_int(chosen + basis + [v]) > len(chosen) + len(basis):
            basis.append(v)
    b = len(basis)
    basis = [tuple(Fraction(x) for x in primitive_integer_vector(v))
             for v in basis]
    full = list(chosen) + list(basis)
    for i in range(ne):
        e = tuple(Fraction(1 if j == i else 0) for j in range(ne))
        if len(full) == ne:
            break
        if rank_int(full + [e]) > len(full):
            full.append(e)
    if len(full) != ne:
        raise ArithmeticError("basis completion fell short of the edge count")
    inv = invert_matrix([[full[c][r] for c in range(ne)]
                         for r in range(ne)])
    lo = len(chosen)
    projection_rows = [tuple(inv[lo + k]) for k in range(b)]
    return H1Basis(cx, basis, projection_rows, b)


def _greedy_column_basis(cols, dim):
    chosen = []
    for v in cols:
        if all(x == 0 for x in v):
            continue
        if rank_int(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


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
    t = tri.num_tets
    n = num_coords(t, True)
    rows = []
    for e, members in enumerate(tri.edge_classes):
        corner = min((tet, f, ei) for tet, ei in members
                     for f in range(4) if f not in EDGES[ei])
        tet, face, ei = corner
        p, q = EDGES[ei]
        if tri.edge_direction[(tet, ei)] < 0:
            p, q = q, p
        row = [0] * n
        for cut, weight in ((q, 1), (p, -1)):
            for s in (1, -1):
                row[disc_index(tet, cut, s, True)] += weight * s
                qk = quad_kind_for_arc(face, cut)
                row[disc_index(tet, qk,
                               quad_arc_sign_factor(face, cut) * s,
                               True)] += weight * s
        rows.append(tuple(row))
    return rows


def dual_cocycle(tri, matching, x):
    """The edge-indexed signed intersection vector of an oriented kernel
    element, checked to be a 1-cocycle."""
    if not x.oriented:
        raise ValueError("expected oriented coordinates")
    if not matching.is_in_kernel(x.coords):
        raise ValueError("matching equations violated")
    z = _apply_rows(edge_intersection_matrix(tri), x.coords)
    cx = cochain_complex(tri)
    for row in cx.d1:
        if sum(a * v for a, v in zip(row, z)) != 0:
            raise ArithmeticError("not a cocycle")
    return z


def _apply_rows(rows, vec):
    return tuple(sum(a * v for a, v in zip(row, vec)) for row in rows)


def is_coboundary(tri, z):
    """Exact test that an edge vector is d0 of a vertex function."""
    cx = cochain_complex(tri)
    return solve_linear(cx.d0, list(z)) is not None


@dataclass
class HomologyMapMatrix:
    """The linear map from oriented disc coordinates to H^1 basis
    coordinates; valid on the oriented matching kernel."""

    h1: H1Basis
    rows: list            # b rows of length 14t
    b: int

    def class_of(self, x):
        if not x.oriented:
            raise ValueError("expected oriented coordinates")
        return tuple(sum(a * v for a, v in zip(row, x.coords))
                     for row in self.rows)


def homology_map_matrix(tri):
    h1 = compute_h1_basis(tri)
    z = edge_intersection_matrix(tri)
    rows = []
    for p in h1.projection_rows:
        rows.append(tuple(sum(p[e] * z[e][j] for e in range(len(z)))
                          for j in range(len(z[0]) if z else 0)))
    return HomologyMapMatrix(h1, rows, h1.b)
