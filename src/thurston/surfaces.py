"""Embedded normal surfaces from admissible integral coordinates.

An admissible nonnegative integral solution of the unoriented matching
equations determines a unique embedded normal surface up to normal
isotopy: parallel copies of each disc type are stacked canonically along
the edges they meet (triangle sheets nearest their vertex, quad sheets
nearest their named pair edge), and the boundary arcs of consecutive
sheets match across each face in nested order around each corner.  The
reconstruction glues the discs along those arcs, splits the result into
connected components, decides 2-sidedness by propagating transverse
orientations, and recognizes vertex-linking components by their disc
counts.  Each component is itself a closed embedded normal surface, so
it is determined by its vector of disc counts: its Euler characteristic
is the Euler functional (`chi.chi_star_row`) of that vector, and it is a
vertex link exactly when that vector is a vertex class's unoriented
`coords.vertex_linking_vector`.

The reconstruction runs on the integer disc counts.  Discs are numbered
in (tet, kind, sheet) order, so the discs of (tet, kind) have the
consecutive ids offset[7 * tet + kind] + sheet, with offset the running
count of the discs before them, and an arc stack is two ranges of ids.
The arc stacks read the arcs from `coords`: the arc classes from
`coords.arc_classes` and each arc's quad from `coords.ARC_QUADS`.
The unoriented matching equations are the arc-stack equalities: each
arc class of each face class has stacks of one length on its two sides.
They are checked on the counts, before any disc is built.
"""

from operator import mul

from .chi import chi_star_row
# Unused here; perfbench/spans.py wraps surfaces.build_matching_system.
from .coords import (ARC_QUADS, NormalVector, arc_classes,
                     build_matching_system, conflicting_quads, disc_index,
                     forget_orientation, is_admissible, num_coords,
                     vertex_linking_vector)
from .record import Record


class SurfaceComponent(Record):
    """One connected component of a NormalSurface.  Components are equal
    when all six fields are; they are mutable and unhashable."""

    __slots__ = _fields = _compared = ("discs", "chi", "orientable",
                                       "vertex_linking", "vertex_class",
                                       "genus")

    def __init__(self, discs, chi, orientable, vertex_linking,
                 vertex_class=None, genus=None):
        self.discs = discs              # indices into NormalSurface.discs
        self.chi = chi
        self.orientable = orientable    # equivalently 2-sided, M orientable
        self.vertex_linking = vertex_linking
        self.vertex_class = vertex_class
        self.genus = genus


class NormalSurface(Record):
    """The reconstructed surface: its discs, arc gluings and components.

    discs[i] = (tet, kind, sheet); gluings are 5-tuples
    (disc_a, face_a, disc_b, face_b, rel) where rel is the relative
    transverse orientation of the two discs across the glued arc.  A
    surface built without `components` gets an empty list of its own.

    Surfaces are equal when `x`, `discs`, `gluings` and `components` are;
    they are mutable and unhashable.
    """

    _fields = _compared = ("x", "discs", "gluings", "components")

    def __init__(self, x, discs, gluings, components=None):
        self.x = x
        self.discs = discs
        self.gluings = gluings
        self.components = [] if components is None else components

    @property
    def total_chi(self):
        return sum(c.chi for c in self.components)

    def component_coords(self, comp, sign=1):
        """Oriented coordinate of a 2-sided component when its base disc
        is given transverse orientation `sign`."""
        n = 2 * len(self.x.coords)
        coords = [0] * n
        for i in comp.discs:
            tet, kind, _ = self.discs[i]
            coords[disc_index(tet, kind, sign * self._disc_sign[i], True)] += 1
        return NormalVector(tuple(coords), True)

    def report(self):
        comps = []
        for c in self.components:
            entry = {"chi": c.chi, "orientable": c.orientable,
                     "vertex_linking": c.vertex_linking}
            if c.vertex_linking:
                entry["vertex_class"] = c.vertex_class
            if c.genus is not None:
                entry["genus"] = c.genus
            comps.append(entry)
        return {"components": comps,
                "total_chi": self.total_chi,
                "num_discs": len(self.discs)}


def _arc_count(counts, tet, face, corner):
    """The length of the arc stack cutting off `corner` in `face` of
    `tet`: its triangles plus its quads."""
    t = 7 * tet
    return counts[t + corner] + counts[t + ARC_QUADS[face][corner][0]]


def _arc_stack(counts, offset, tet, face, corner):
    """The disc ids whose boundary arcs cut off `corner` in `face` of
    `tet`, ordered outward from the corner: triangle sheets first, then
    the quad sheets nearest or farthest first according to which side of
    the quad the corner lies on.  Returns (ids, t, eta): the first t ids
    are triangles, and eta is the arc sign of the quads that follow."""
    qk, reverse, eta = ARC_QUADS[face][corner]
    t = 7 * tet + corner
    q = 7 * tet + qk
    quads = range(offset[q], offset[q] + counts[q])
    return ([*range(offset[t], offset[t] + counts[t]),
             *(quads[::-1] if reverse else quads)], counts[t], eta)


def reconstruct_surface(tri, x):
    """The unique embedded normal surface with unoriented coordinate x.

    x must have one entry per unoriented disc type, be integral,
    nonnegative, admissible and satisfy the unoriented matching
    equations; each violated precondition raises its own error.

    The preconditions are checked once, on the integer counts, before any
    disc is built; the matching equations are checked as the arc-stack
    equalities, over the arc classes of `coords.arc_classes`.  An arc
    stack is a range of triangle ids followed by a range of quad ids (see
    the module docstring), its quad read from `coords.ARC_QUADS`, and the
    relative orientation of two glued discs comes from the arc signs of
    those two ranges, one per range rather than one per disc.  A face
    class that disagrees with its gluing raises ArithmeticError, as in
    `coords.build_matching_system`.
    """
    if x.oriented:
        raise ValueError("expected unoriented coordinates")
    if len(x.coords) != num_coords(tri.num_tets, False):
        raise ValueError("coordinate length mismatch")
    check_disc_counts(x)
    counts = x.coords
    if conflicting_quads(x) is not None:
        raise ValueError("not admissible: two quad kinds share a tetrahedron")
    arcs = arc_classes(tri)
    if any(_arc_count(counts, *m) != _arc_count(counts, *p)
           for m, p in arcs):
        raise ValueError("matching equations violated")

    discs = []
    offset = []
    for i, count in enumerate(counts):
        offset.append(len(discs))
        if count:
            tet, kind = divmod(i, 7)
            discs.extend((tet, kind, sheet) for sheet in range(count))

    gluings = []
    for (tet_m, f_m, c_m), (tet_p, f_p, c_p) in arcs:
        side_m, tri_m, eta_m = _arc_stack(counts, offset, tet_m, f_m, c_m)
        side_p, tri_p, eta_p = _arc_stack(counts, offset, tet_p, f_p, c_p)
        n = len(side_m)
        if not n:
            continue
        cuts = sorted({0, tri_m, tri_p, n})
        for lo, hi in zip(cuts, cuts[1:]):
            rel = (1 if lo < tri_m else eta_m) * \
                (1 if lo < tri_p else eta_p)
            for da, db in zip(side_m[lo:hi], side_p[lo:hi]):
                gluings.append((da, f_m, db, f_p, rel))

    surface = NormalSurface(x, discs, gluings)
    _split_components(tri, surface)
    return surface


def check_disc_counts(x):
    """Raise ValueError unless every coordinate of x is a nonnegative
    integer, as the disc counts of an embedded surface are."""
    if not x.is_nonnegative():
        raise ValueError("not in the nonnegative cone")
    if not x.is_integral():
        raise ValueError("coordinates are not integral")


def _split_components(tri, surface):
    """Components of the surface, each read off its unoriented disc-count
    vector: its Euler characteristic is the Euler functional of that
    vector, an integer (a remainder raises ArithmeticError), and it is
    vertex linking exactly when that vector is the link of a vertex
    class.  Only one link can match, that of the class of the
    component's first disc when that disc is a triangle, so that link
    alone is built, and only for a component with one disc per corner of
    the class."""
    discs = surface.discs
    n = len(discs)

    # Transverse orientation signs relative to each component's base disc,
    # its smallest, which also labels the component; a contradiction marks
    # the component 1-sided.
    sign = [0] * n
    comp = [0] * n
    two_sided = {}
    adj = [[] for _ in range(n)]
    for da, _, db, _, rel in surface.gluings:
        adj[da].append((db, rel))
        adj[db].append((da, rel))
    for root in range(n):
        if sign[root] != 0:
            continue
        sign[root] = 1
        comp[root] = root
        ok = True
        queue = [root]
        while queue:
            cur = queue.pop()
            for nxt, rel in adj[cur]:
                want = rel * sign[cur]
                if sign[nxt] == 0:
                    sign[nxt] = want
                    comp[nxt] = root
                    queue.append(nxt)
                elif sign[nxt] != want:
                    ok = False
        two_sided[root] = ok
    surface._disc_sign = sign

    nums, den = chi_star_row(tri, oriented=False)
    comp_discs = {}
    for i in range(n):
        comp_discs.setdefault(comp[i], []).append(i)

    components = []
    for root, ids in sorted(comp_discs.items()):
        counts = [0] * len(nums)
        for i in ids:
            tet, kind, _ = discs[i]
            counts[7 * tet + kind] += 1
        chi, rem = divmod(sum(map(mul, nums, counts)), den)
        if rem:
            raise ArithmeticError("Euler characteristic of a component is "
                                  "not an integer")
        # A triangle's kind is the corner it cuts off; a quad's is none.
        vc = tri.vertex_class.get(discs[root][:2])
        if vc is not None and (len(ids) != len(tri.vertex_classes[vc])
                               or tuple(counts) != vertex_linking_vector(
                                   tri, vc, oriented=False).coords):
            vc = None
        orientable = two_sided[root]
        genus = (2 - chi) // 2 if orientable else None
        components.append(SurfaceComponent(
            ids, chi, orientable, vc is not None, vc, genus))
    surface.components = components


def assign_transverse_orientation(tri, surface, target):
    """Per-component transverse orientations realizing an oriented
    coordinate vector, or None when impossible.

    Each 2-sided component admits exactly two assignments, which
    contribute reversed oriented coordinates; 1-sided components admit
    none.  Returns a list of signs per component on success.
    """
    if not target.oriented:
        raise ValueError("expected oriented coordinates")
    if forget_orientation(target) != surface.x:
        raise ValueError("oriented coordinates do not project onto the "
                         "surface's unoriented coordinates")
    for comp in surface.components:
        if not comp.orientable:
            return None
    options = [(surface.component_coords(c, 1),
                surface.component_coords(c, -1))
               for c in surface.components]
    goal = target.coords
    chosen = []

    def feasible(partial):
        return all(p <= g for p, g in zip(partial, goal))

    def search(i, partial):
        if i == len(options):
            return partial == goal
        for s, vec in ((1, options[i][0]), (-1, options[i][1])):
            nxt = tuple(p + v for p, v in zip(partial, vec.coords))
            if feasible(nxt):
                chosen.append(s)
                if search(i + 1, nxt):
                    return True
                chosen.pop()
        return False

    zero = (0,) * len(goal)
    if search(0, zero):
        return list(chosen)
    return None


def add_compatible(x, y):
    """Coordinate sum of compatible vectors; for integral admissible
    inputs this is the coordinate of the geometric sum of the two
    embedded surfaces."""
    s = x + y
    if not is_admissible(s):
        tet, k1, k2 = conflicting_quads(s)
        raise ValueError(
            "incompatible: tetrahedron %d carries quad kinds %d and %d"
            % (tet, k1 - 4, k2 - 4))
    return s
