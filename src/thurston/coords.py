"""Normal disc and arc coordinates, matching systems, admissibility.

Each tetrahedron carries 7 unoriented disc kinds: a triangle cutting off
each vertex v (kinds 0..3) and a quad separating the vertex pair {0, k}
from its complement for k = 1, 2, 3 (kinds 4..6).  In the transversely
oriented theory every kind splits in two: a triangle's +1 orientation
points toward the vertex it cuts off, and a quad's +1 orientation points
toward its named pair edge {0, k}.  The oriented coordinate of kind d in
tetrahedron tet with sign s sits at index 14*tet + 2*d + (0 if s > 0
else 1); the unoriented one at 7*tet + d.

A normal arc in a face cuts off one corner; its transverse orientation is
+1 when it points toward that corner.  There are 3 unoriented and 6
oriented arc classes per face class, and one matching equation per
oriented (resp. unoriented) arc class saying that the number of discs
inducing the arc agrees on the two sides of the face.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .rat import format_vector, parse_vector
from .triangulation import FACE_CORNERS

NUM_KINDS = 7          # per tetrahedron: 4 triangles then 3 quads
TRI_KINDS = (0, 1, 2, 3)
QUAD_KINDS = (4, 5, 6)

# Vertex pair separated toward the +1 side of each quad kind, and its
# complement.
QUAD_PAIR = {4: (0, 1), 5: (0, 2), 6: (0, 3)}
QUAD_OPP = {4: (2, 3), 5: (1, 3), 6: (1, 2)}


def quad_kind_separating(pair):
    """The quad kind whose two sides are `pair` and its complement."""
    a, b = pair
    if 0 in (a, b):
        return 4 + (a + b) - 1
    return 4 + (6 - a - b) - 1


def disc_edges(kind):
    """Tetrahedron edges met by a disc of this kind, as vertex pairs.

    A triangle at v meets the three edges at v; a quad meets the four
    edges joining its pair to the complement.
    """
    if kind in TRI_KINDS:
        return tuple((kind, w) for w in range(4) if w != kind)
    a, b = QUAD_PAIR[kind]
    c, d = QUAD_OPP[kind]
    return ((a, c), (a, d), (b, c), (b, d))


def disc_cut_corner(kind, face):
    """Corner cut off in `face` by the boundary arc of a disc of `kind`,
    or None when the disc has no arc in that face."""
    if kind in TRI_KINDS:
        return kind if face != kind else None
    pair, opp = QUAD_PAIR[kind], QUAD_OPP[kind]
    if face in pair:
        return pair[0] if face == pair[1] else pair[1]
    return opp[0] if face == opp[1] else opp[1]


def quad_kind_for_arc(face, corner):
    """The quad kind whose arc in `face` cuts off `corner`."""
    return quad_kind_separating((face, corner))


def quad_arc_sign_factor(face, corner):
    """Relative sign between a quad's transverse orientation and the arc
    orientation it induces in `face` at `corner`: the +1 quad orientation
    points toward the cut-off corner exactly when the named pair {0, k}
    contains the face index (equivalently 0 is the face or the corner)."""
    return 1 if (face == 0 or corner == 0) else -1


def num_coords(t, oriented):
    return 14 * t if oriented else 7 * t


def disc_index(tet, kind, sign=None, oriented=True):
    if oriented:
        return 14 * tet + 2 * kind + (0 if sign > 0 else 1)
    return 7 * tet + kind


def disc_of_index(i, oriented=True):
    """Inverse of disc_index: (tet, kind) or (tet, kind, sign)."""
    if oriented:
        tet, r = divmod(i, 14)
        kind, s = divmod(r, 2)
        return tet, kind, (1 if s == 0 else -1)
    tet, kind = divmod(i, 7)
    return tet, kind


@dataclass(frozen=True)
class NormalVector:
    """A vector of exact rationals indexed by disc types."""

    coords: tuple
    oriented: bool

    def __post_init__(self):
        object.__setattr__(self, "coords",
                           tuple(Fraction(c) for c in self.coords))

    def __add__(self, other):
        if self.oriented != other.oriented or \
                len(self.coords) != len(other.coords):
            raise ValueError("vectors live in different theories")
        return NormalVector(tuple(a + b for a, b in
                                  zip(self.coords, other.coords)),
                            self.oriented)

    def scale(self, c):
        c = Fraction(c)
        return NormalVector(tuple(c * a for a in self.coords), self.oriented)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coords)

    def is_nonnegative(self):
        return all(c >= 0 for c in self.coords)

    def to_json_obj(self):
        return {"coords": format_vector(self.coords),
                "oriented": self.oriented}

    @classmethod
    def from_json_obj(cls, obj):
        return cls(parse_vector(obj["coords"]), bool(obj["oriented"]))


def enumerate_disc_types(tri):
    """Index lists for both theories plus the oriented arc classes.

    Returns (oriented_discs, unoriented_discs, arc_classes) where disc
    entries are (tet, kind[, sign]) in index order and arc_classes lists,
    per face class, the six (corner, sign) pairs in the labels of the
    class representative.
    """
    t = tri.num_tets
    oriented = [disc_of_index(i, True) for i in range(14 * t)]
    unoriented = [disc_of_index(i, False) for i in range(7 * t)]
    arcs = []
    for (tet0, f0), _ in tri.face_classes:
        arcs.append([(c, s) for c in FACE_CORNERS[f0] for s in (1, -1)])
    return oriented, unoriented, arcs


@dataclass
class MatchingSystem:
    """Integer matching-equation matrix with its index maps.

    rows[r] is a tuple of length num_coords; row_index maps an arc class
    key to its row and col_index maps a disc type to its column.  Oriented
    arc keys are (face_class, corner, sign) with the corner in the labels
    of the face class representative; unoriented keys drop the sign.
    """

    rows: list
    row_index: dict
    col_index: dict
    oriented: bool
    num_cols: int

    @cached_property
    def sparse_rows(self):
        """Each row as its (column, coefficient) pairs with nonzero
        coefficient: four per row, against 7t or 14t columns."""
        return [tuple((j, a) for j, a in enumerate(row) if a)
                for row in self.rows]

    def is_in_kernel(self, coords):
        """Exact membership of a rational vector.  The kernel is a linear
        subspace, so the vector is first scaled to integers."""
        den = lcm(*(x.denominator for x in coords))
        ints = [x.numerator * (den // x.denominator) for x in coords]
        return all(sum(a * ints[j] for j, a in row) == 0
                   for row in self.sparse_rows)


def _arc_disc_columns(tet, face, corner, sign, oriented):
    """Columns of the discs of `tet` whose boundary contains the arc in
    `face` cutting off `corner`, with transverse orientation `sign` in the
    oriented theory: exactly one triangle and one quad."""
    qk = quad_kind_for_arc(face, corner)
    if oriented:
        tri_col = disc_index(tet, corner, sign, True)
        quad_col = disc_index(
            tet, qk, quad_arc_sign_factor(face, corner) * sign, True)
    else:
        tri_col = disc_index(tet, corner, oriented=False)
        quad_col = disc_index(tet, qk, oriented=False)
    return tri_col, quad_col


def build_matching_system(tri, oriented=True):
    """One equation per (un)oriented arc class per face class.

    The side of a face class owned by the lexicographically larger
    (tet, face) embedding is the + side; the equation is
    (discs on - side) - (discs on + side) = 0.
    """
    t = tri.num_tets
    n = num_coords(t, oriented)
    rows = []
    row_index = {}
    for fc, ((tet_m, f_m), (tet_p, f_p)) in enumerate(tri.face_classes):
        # Embeddings are stored sorted, so the first is the - side.  The
        # gluing permutation of the - side translates its corner labels to
        # the + side.
        g = tri.gluings[tet_m][f_m]
        if (g.tet, g.perm[f_m]) != (tet_p, f_p):
            raise ArithmeticError("face class %d does not match its gluing"
                                  % fc)
        signs = (1, -1) if oriented else (1,)
        for corner in FACE_CORNERS[f_m]:
            for s in signs:
                row = [0] * n
                cols_m = _arc_disc_columns(tet_m, f_m, corner, s, oriented)
                cols_p = _arc_disc_columns(
                    tet_p, f_p, g.perm[corner], s, oriented)
                for c in cols_m:
                    row[c] += 1
                for c in cols_p:
                    row[c] -= 1
                key = (fc, corner, s) if oriented else (fc, corner)
                row_index[key] = len(rows)
                rows.append(tuple(row))
    col_index = {}
    for i in range(n):
        col_index[disc_of_index(i, oriented)] = i
    return MatchingSystem(rows, row_index, col_index, oriented, n)


def forget_orientation(x):
    """The linear map adding the two transverse orientations of each disc
    kind; sends the oriented matching kernel into the unoriented one."""
    if not x.oriented:
        raise ValueError("expected oriented coordinates")
    coords = []
    for i in range(0, len(x.coords), 2):
        coords.append(x.coords[i] + x.coords[i + 1])
    return NormalVector(tuple(coords), False)


def reverse_orientation(x):
    """The involution swapping the two orientations of every disc type."""
    if not x.oriented:
        raise ValueError("expected oriented coordinates")
    coords = list(x.coords)
    for i in range(0, len(coords), 2):
        coords[i], coords[i + 1] = coords[i + 1], coords[i]
    return NormalVector(tuple(coords), True)


def quad_weights(x, tet):
    """Total weight of each quad kind in a tetrahedron, both orientations
    summed in the oriented theory."""
    weights = []
    for kind in QUAD_KINDS:
        if x.oriented:
            w = x.coords[disc_index(tet, kind, 1, True)] + \
                x.coords[disc_index(tet, kind, -1, True)]
        else:
            w = x.coords[disc_index(tet, kind, oriented=False)]
        weights.append(w)
    return weights


def is_admissible(x):
    """At most one quad kind with nonzero weight in each tetrahedron."""
    if not x.is_nonnegative():
        raise ValueError("not in the nonnegative cone")
    t = len(x.coords) // (14 if x.oriented else 7)
    for tet in range(t):
        if sum(1 for w in quad_weights(x, tet) if w != 0) > 1:
            return False
    return True


def quad_conflict_test(num_tets, oriented):
    """Support-bitmask form of inadmissibility: a predicate true on a
    mask (bit i for coordinate i) when some tetrahedron carries two quad
    kinds, both orientations of one kind counting as that kind, as in
    is_admissible.  It is monotone: a superset of a conflicting support
    conflicts.

    In the oriented theory each -1 bit is first folded onto its +1 bit;
    then shifting by a quad kind's offset in the tetrahedron block brings
    that kind of every tetrahedron onto the block's first bit, so three
    ANDs test all tetrahedra at once.
    """
    block = num_coords(1, oriented)
    tets = sum(1 << (block * tet) for tet in range(num_tets))
    sa, sb, sc = (disc_index(0, k, 1, oriented) for k in QUAD_KINDS)

    def conflict(mask):
        if oriented:
            mask |= mask >> 1
        a = (mask >> sa) & tets
        b = (mask >> sb) & tets
        c = (mask >> sc) & tets
        return bool(a & (b | c) | b & c)

    return conflict


def is_compatible(x, y):
    return is_admissible(x + y)


def conflicting_quads(x, y):
    """First (tet, kind, kind') witnessing incompatibility, or None."""
    t = len(x.coords) // (14 if x.oriented else 7)
    for tet in range(t):
        ws = quad_weights(x + y, tet)
        hot = [QUAD_KINDS[i] for i, w in enumerate(ws) if w != 0]
        if len(hot) > 1:
            return tet, hot[0], hot[1]
    return None


def vertex_linking_vector(tri, vclass, sign=1, oriented=True):
    """Coordinate of the linking sphere of a vertex class: one triangle
    per corner, all transversely oriented toward the vertex when sign=+1
    (away when sign=-1) in the oriented theory."""
    n = num_coords(tri.num_tets, oriented)
    coords = [Fraction(0)] * n
    for tet, v in tri.vertex_classes[vclass]:
        if oriented:
            coords[disc_index(tet, v, sign, True)] += 1
        else:
            coords[disc_index(tet, v, oriented=False)] += 1
    return NormalVector(tuple(coords), oriented)
