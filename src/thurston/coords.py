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

This module is the one place that knows what a normal arc is.  In any
tetrahedron the arc cutting off `corner` in `face` bounds the triangle at
`corner` and one quad; `ARC_QUADS[face][corner]` names that quad, whether
its sheets meet the arc in reverse sheet order, and its arc sign.
`arc_classes(tri)` lists every arc class of every face class with its two
sides.  The matching equations (`build_matching_system`) and the arc
stacks of `surfaces.reconstruct_surface` both read these two.
"""

from functools import cached_property

from .rat import (check_rational, exact_entries, format_vector,
                  integer_numerators, parse_vector)
from .record import FrozenRecord, Record
from .triangulation import FACE_CORNERS

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


def quad_kind_for_arc(face, corner):
    """The quad kind whose arc in `face` cuts off `corner`."""
    return quad_kind_separating((face, corner))


def quad_arc_sign_factor(face, corner):
    """Relative sign between a quad's transverse orientation and the arc
    orientation it induces in `face` at `corner`: the +1 quad orientation
    points toward the cut-off corner exactly when the named pair {0, k}
    contains the face index (equivalently 0 is the face or the corner)."""
    return 1 if (face == 0 or corner == 0) else -1


# Per face and corner, the quad whose arc in that face cuts off that
# corner: (quad kind, reverse, sign).  Its sheets, stacked nearest its
# named pair first, run outward from the corner in reverse sheet order
# when the corner lies away from that pair; sign is quad_arc_sign_factor.
# None where the corner is the face's own (opposite) vertex.
ARC_QUADS = tuple(tuple(
    None if c == f else (quad_kind_for_arc(f, c),
                         c not in QUAD_PAIR[quad_kind_for_arc(f, c)],
                         quad_arc_sign_factor(f, c))
    for c in range(4)) for f in range(4))


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


class NormalVector(FrozenRecord):
    """A vector of exact rationals indexed by disc types.

    Each entry is held as an int when it is integral and as a Fraction
    otherwise (`rat.exact_entries`), so an integral vector, the normal
    surfaces' case, is a tuple of ints.  An int compares and hashes equal
    to the same value as a Fraction, so two vectors built from either
    form are equal.  An entry that is neither an int nor a Fraction (a
    float, a str, a bool) raises TypeError.

    Vectors are equal, and hash alike, when `coords` and `oriented` are;
    they are immutable (assignment raises AttributeError)."""

    __slots__ = _fields = _compared = ("coords", "oriented")

    def __init__(self, coords, oriented):
        object.__setattr__(self, "coords", exact_entries(coords))
        object.__setattr__(self, "oriented", oriented)

    def __add__(self, other):
        if self.oriented != other.oriented or \
                len(self.coords) != len(other.coords):
            raise ValueError("vectors live in different theories")
        return NormalVector(tuple(a + b for a, b in
                                  zip(self.coords, other.coords)),
                            self.oriented)

    def scale(self, c):
        """c times the vector, for an int or a Fraction c."""
        check_rational((c,))
        return NormalVector(tuple(c * a for a in self.coords), self.oriented)

    def is_integral(self):
        return all(type(c) is int for c in self.coords)

    def is_nonnegative(self):
        return all(c >= 0 for c in self.coords)

    def to_json_obj(self):
        return {"coords": format_vector(self.coords),
                "oriented": self.oriented}

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj["oriented"], bool):
            raise TypeError('"oriented" must be true or false')
        if not isinstance(obj["coords"], list):
            raise TypeError('"coords" must be an array')
        return cls(parse_vector(obj["coords"]), obj["oriented"])


class MatchingSystem(Record):
    """Integer matching-equation matrix with its index maps.

    One row per arc class and (in the oriented theory) transverse
    orientation.  The rows are stored sparse: sparse_rows[r] holds the
    (column, coefficient) pairs of row r with nonzero coefficient, by
    increasing column, at most four against 7t or 14t columns.  rows[r],
    the dense tuple of length num_cols, is built on first use.

    Systems are equal when `sparse_rows` and `num_cols` are; they are
    mutable and unhashable.
    """

    _fields = _compared = ("sparse_rows", "num_cols")

    def __init__(self, sparse_rows, num_cols):
        self.sparse_rows = sparse_rows
        self.num_cols = num_cols

    @cached_property
    def rows(self):
        dense = []
        for sparse in self.sparse_rows:
            row = [0] * self.num_cols
            for j, a in sparse:
                row[j] = a
            dense.append(tuple(row))
        return dense

    def is_in_kernel(self, coords):
        """Exact membership of a rational vector of length num_cols
        (ValueError otherwise).  The kernel is a linear subspace, so a
        vector with a Fraction entry is first scaled to integers."""
        if len(coords) != self.num_cols:
            raise ValueError("coordinate length mismatch")
        if not all(type(x) is int for x in coords):
            coords = integer_numerators([coords])[1][0]
        return all(sum(a * coords[j] for j, a in row) == 0
                   for row in self.sparse_rows)


def arc_disc_columns(tet, face, corner, sign, oriented):
    """Columns of the discs of `tet` whose boundary contains the arc in
    `face` cutting off `corner`, with transverse orientation `sign` in the
    oriented theory: exactly one triangle and one quad."""
    qk, _, eta = ARC_QUADS[face][corner]
    if oriented:
        return (disc_index(tet, corner, sign, True),
                disc_index(tet, qk, eta * sign, True))
    return (disc_index(tet, corner, oriented=False),
            disc_index(tet, qk, oriented=False))


# Per theory, the arc_disc_columns of tetrahedron 0 keyed by (face,
# corner, sign): the offsets of the two columns in any tetrahedron's block.
_ARC_OFFSETS = {
    oriented: {(f, c, s): arc_disc_columns(0, f, c, s, oriented)
               for f in range(4) for c in FACE_CORNERS[f]
               for s in ((1, -1) if oriented else (1,))}
    for oriented in (True, False)}


def arc_classes(tri):
    """Every arc class of every face class, by face class and then by
    corner, as ((tet_m, f_m, c), (tet_p, f_p, perm[c])): the (tet, face,
    corner) of the arc on the face class's - side, then on its + side.

    The face classes' embeddings are stored sorted, so the first is the -
    side, and the gluing permutation of the - side translates its corner
    labels to the + side.  A face class that the gluing does not carry to
    its own + side raises ArithmeticError."""
    arcs = []
    for fc, ((tet_m, f_m), (tet_p, f_p)) in enumerate(tri.face_classes):
        g = tri.gluings[tet_m][f_m]
        if (g.tet, g.perm[f_m]) != (tet_p, f_p):
            raise ArithmeticError("face class %d does not match its gluing"
                                  % fc)
        arcs.extend(((tet_m, f_m, c), (tet_p, f_p, g.perm[c]))
                    for c in FACE_CORNERS[f_m])
    return arcs


def build_matching_system(tri, oriented=True):
    """One equation per (un)oriented arc class per face class.

    The side of a face class owned by the lexicographically larger
    (tet, face) embedding is the + side; the equation is
    (discs on - side) - (discs on + side) = 0.  Each side meets one
    triangle and one quad column, the triangle's first; when both sides
    lie in one tetrahedron a column can meet both, and its coefficient
    1 - 1 = 0 drops out of the sparse row.  The rows follow
    `arc_classes`, each arc's orientation +1 before -1.
    """
    t = tri.num_tets
    n = num_coords(t, oriented)
    block = num_coords(1, oriented)
    offsets = _ARC_OFFSETS[oriented]
    signs = (1, -1) if oriented else (1,)
    rows = []
    for (tet_m, f_m, c_m), (tet_p, f_p, c_p) in arc_classes(tri):
        base_m, base_p = block * tet_m, block * tet_p
        for s in signs:
            m1, m2 = offsets[f_m, c_m, s]
            p1, p2 = offsets[f_p, c_p, s]
            if tet_m != tet_p:
                # The - side's columns all precede the + side's.
                rows.append(((base_m + m1, 1), (base_m + m2, 1),
                             (base_p + p1, -1), (base_p + p2, -1)))
                continue
            row = {m1: 1, m2: 1}
            row[p1] = row.get(p1, 0) - 1
            row[p2] = row.get(p2, 0) - 1
            rows.append(tuple((base_m + j, a)
                              for j, a in sorted(row.items()) if a))
    return MatchingSystem(rows, n)


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


def conflicting_quads(x):
    """The first (tet, kind, kind'), kind < kind', where tetrahedron tet
    carries two quad kinds, or None.  A kind is carried when one of its
    coordinates is nonzero, both orientations counting as the kind."""
    oriented = x.oriented
    block = num_coords(1, oriented)
    first = disc_index(0, QUAD_KINDS[0], 1, oriented)
    c = x.coords
    for tet in range(len(c) // block):
        start = block * tet + first
        q = c[start:start + block - first]
        if oriented:
            q = (q[0] or q[1], q[2] or q[3], q[4] or q[5])
        a, b, d = q
        if a and (b or d) or b and d:
            hot = [kind for kind, w in zip(QUAD_KINDS, q) if w]
            return tet, hot[0], hot[1]
    return None


def is_admissible(x):
    """No tetrahedron of a nonnegative x carries two quad kinds
    (`conflicting_quads`); a negative entry raises ValueError."""
    if not x.is_nonnegative():
        raise ValueError("not in the nonnegative cone")
    return conflicting_quads(x) is None


def quad_conflict_test(num_tets, oriented):
    """Support-bitmask form of inadmissibility: a predicate true on a
    mask (bit i for coordinate i) when some tetrahedron carries two quad
    kinds, both orientations of one kind counting as that kind: the mask
    form of conflicting_quads.  It is monotone: a superset of a
    conflicting support conflicts.

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


def vertex_linking_vector(tri, vclass, sign=1, oriented=True):
    """Coordinate of the linking sphere of a vertex class: one triangle
    per corner, all transversely oriented toward the vertex when sign=+1
    (away when sign=-1) in the oriented theory."""
    n = num_coords(tri.num_tets, oriented)
    coords = [0] * n
    for tet, v in tri.vertex_classes[vclass]:
        if oriented:
            coords[disc_index(tet, v, sign, True)] += 1
        else:
            coords[disc_index(tet, v, oriented=False)] += 1
    return NormalVector(tuple(coords), oriented)
