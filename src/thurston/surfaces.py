"""Embedded normal surfaces from admissible integral coordinates.

An admissible nonnegative integral solution of the unoriented matching
equations determines a unique embedded normal surface up to normal
isotopy: parallel copies of each disc type are stacked canonically along
the edges they meet (triangle sheets nearest their vertex, quad sheets
nearest their named pair edge), and the boundary arcs of consecutive
sheets match across each face in nested order around each corner.  The
reconstruction glues the discs along those arcs, splits the result into
connected components and computes the Euler characteristic of each from
its cell structure, decides 2-sidedness by propagating transverse
orientations, and recognizes vertex-linking components.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .chi import chi_star_coefficients
from .coords import (NormalVector, build_matching_system, conflicting_quads,
                     disc_edges, disc_index, forget_orientation, is_admissible,
                     is_compatible, quad_arc_sign_factor, quad_kind_for_arc,
                     QUAD_PAIR, TRI_KINDS)
from .linalg import ConeDescription, is_extreme_ray, solve_lp
from .triangulation import EDGE_INDEX, FACE_CORNERS


@dataclass
class SurfaceComponent:
    discs: list                  # indices into NormalSurface.discs
    chi: int
    orientable: bool             # equivalently 2-sided, M being orientable
    vertex_linking: bool
    vertex_class: int = None
    genus: int = None


@dataclass
class NormalSurface:
    """The reconstructed surface: its discs, arc gluings and components.

    discs[i] = (tet, kind, sheet); gluings are 5-tuples
    (disc_a, face_a, disc_b, face_b, rel) where rel is the relative
    transverse orientation of the two discs across the glued arc.
    """

    x: NormalVector
    discs: list
    gluings: list
    components: list = field(default_factory=list)

    @property
    def total_chi(self):
        return sum(c.chi for c in self.components)

    def component_coords(self, comp, sign=1):
        """Oriented coordinate of a 2-sided component when its base disc
        is given transverse orientation `sign`."""
        n = 2 * len(self.x.coords)
        coords = [Fraction(0)] * n
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


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def _arc_stack(x, tet, face, corner, disc_ids):
    """Disc ids whose boundary arcs cut off `corner` in `face` of `tet`,
    ordered outward from the corner: triangle sheets first, then the quad
    sheets nearest or farthest first according to which side of the quad
    the corner lies on."""
    tri_count = int(x.coords[disc_index(tet, corner, oriented=False)])
    stack = [disc_ids[(tet, corner, s)] for s in range(tri_count)]
    qk = quad_kind_for_arc(face, corner)
    quad_count = int(x.coords[disc_index(tet, qk, oriented=False)])
    sheets = range(quad_count)
    if corner not in QUAD_PAIR[qk]:
        sheets = reversed(sheets)
    stack.extend(disc_ids[(tet, qk, s)] for s in sheets)
    return stack


def reconstruct_surface(tri, x, matching=None):
    """The unique embedded normal surface with unoriented coordinate x.

    x must be integral, nonnegative, admissible and satisfy the unoriented
    matching equations; each violated precondition raises its own error.
    """
    if x.oriented:
        raise ValueError("expected unoriented coordinates")
    if not x.is_nonnegative():
        raise ValueError("not in the nonnegative cone")
    if not x.is_integral():
        raise ValueError("coordinates are not integral")
    if not is_admissible(x):
        raise ValueError("not admissible: two quad kinds share a tetrahedron")
    if matching is None:
        matching = build_matching_system(tri, oriented=False)
    if not matching.is_in_kernel(x.coords):
        raise ValueError("matching equations violated")

    discs = []
    disc_ids = {}
    for tet in range(tri.num_tets):
        for kind in range(7):
            count = int(x.coords[disc_index(tet, kind, oriented=False)])
            for sheet in range(count):
                disc_ids[(tet, kind, sheet)] = len(discs)
                discs.append((tet, kind, sheet))

    gluings = []
    for (tet_m, f_m), (tet_p, f_p) in tri.face_classes:
        g = tri.gluings[tet_m][f_m]
        for corner in FACE_CORNERS[f_m]:
            side_m = _arc_stack(x, tet_m, f_m, corner, disc_ids)
            side_p = _arc_stack(x, tet_p, f_p, g.perm[corner], disc_ids)
            if len(side_m) != len(side_p):
                raise ArithmeticError("arc stacks differ across a face")
            for da, db in zip(side_m, side_p):
                rel = _eta(discs[da][1], f_m, corner) * \
                    _eta(discs[db][1], f_p, g.perm[corner])
                gluings.append((da, f_m, db, f_p, rel, corner))

    surface = NormalSurface(x, discs, [gl[:5] for gl in gluings])
    _split_components(tri, surface, gluings)
    return surface


def _eta(kind, face, corner):
    """Sign relating a disc's transverse orientation to the orientation it
    induces on its arc at (face, corner)."""
    if kind in TRI_KINDS:
        return 1
    return quad_arc_sign_factor(face, corner)


def _split_components(tri, surface, gluings):
    discs = surface.discs
    n = len(discs)

    # Transverse orientation signs relative to each component's base disc,
    # its smallest, which also labels the component; a contradiction marks
    # the component 1-sided.
    sign = [0] * n
    comp = [0] * n
    two_sided = {}
    adj = [[] for _ in range(n)]
    for da, _, db, _, rel, _ in gluings:
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

    # Surface vertices: orbits of disc corners (disc, tetrahedron edge)
    # under the identifications induced by the glued arcs.
    corner_ids = {}
    for i, (tet, kind, _) in enumerate(discs):
        for pair in disc_edges(kind):
            corner_ids[(i, EDGE_INDEX[pair])] = len(corner_ids)
    cuf = _UnionFind(len(corner_ids))
    for da, f_a, db, f_b, _, corner in gluings:
        tet_a = discs[da][0]
        g = tri.gluings[tet_a][f_a]
        others = [w for w in FACE_CORNERS[f_a] if w != corner]
        for w in others:
            ca = corner_ids[(da, EDGE_INDEX[(corner, w)])]
            cb = corner_ids[(db, EDGE_INDEX[(g.perm[corner], g.perm[w])])]
            cuf.union(ca, cb)

    comp_discs = {}
    for i in range(n):
        comp_discs.setdefault(comp[i], []).append(i)
    comp_verts = {}
    seen_orbits = set()
    for (i, ei), cid in corner_ids.items():
        orbit = cuf.find(cid)
        if orbit in seen_orbits:
            continue
        seen_orbits.add(orbit)
        comp_verts[comp[i]] = comp_verts.get(comp[i], 0) + 1
    comp_edges = {}
    for da, _, db, _, _, _ in gluings:
        comp_edges[comp[da]] = comp_edges.get(comp[da], 0) + 1

    components = []
    for root in sorted(comp_discs):
        ids = comp_discs[root]
        chi = comp_verts.get(root, 0) - comp_edges.get(root, 0) + len(ids)
        orientable = two_sided[root]
        vl, vc = _vertex_linking(tri, surface, ids)
        genus = (2 - chi) // 2 if orientable else None
        components.append(SurfaceComponent(
            ids, chi, orientable, vl, vc, genus))
    surface.components = components


def _vertex_linking(tri, surface, ids):
    corners = set()
    for i in ids:
        tet, kind, _ = surface.discs[i]
        if kind not in TRI_KINDS:
            return False, None
        corners.add((tet, kind))
    classes = {tri.vertex_class[c] for c in corners}
    if len(classes) != 1:
        return False, None
    vc = classes.pop()
    if len(ids) != len(tri.vertex_classes[vc]):
        return False, None
    if corners != set(tri.vertex_classes[vc]):
        raise ArithmeticError("vertex-link corners do not fill their class")
    return True, vc


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

    zero = tuple(Fraction(0) for _ in goal)
    if search(0, zero):
        return list(chosen)
    return None


def is_algebraically_aspherical(tri, x, matching=None):
    """Decide that no coordinatewise smaller nonnegative solution of the
    oriented matching equations has positive Euler characteristic, that
    is, that max chi*(y) over the cone points 0 <= y <= x is at most 0.

    When x spans an extreme ray of the cone (the matching rows restricted
    to supp(x) have rank |supp(x)| - 1), every such y has support inside
    supp(x), so it lies in the one-dimensional kernel of those restricted
    rows: y = t x with 0 <= t <= 1.  The maximum is then max(0, chi*(x)),
    and the answer is chi*(x) <= 0 with no LP.  Every other x gets the
    LP."""
    if not x.oriented:
        raise ValueError("expected oriented coordinates")
    if not x.is_nonnegative():
        raise ValueError("not in the nonnegative cone")
    if matching is None:
        matching = build_matching_system(tri, oriented=True)
    if not matching.is_in_kernel(x.coords):
        raise ValueError("matching equations violated")
    objective = chi_star_coefficients(tri, oriented=True)
    if is_extreme_ray(ConeDescription(tuple(matching.rows), matching.num_cols),
                      x.coords):
        return sum(c * v for c, v in zip(objective, x.coords)) <= 0
    rhs = [0] * len(matching.rows)
    res = solve_lp(list(objective), (list(matching.rows), rhs), x.coords)
    if not res.optimal:
        raise ArithmeticError("bounded feasible LP reported %s" % res.status)
    return res.value <= 0


def add_compatible(x, y):
    """Coordinate sum of compatible vectors; for integral admissible
    inputs this is the coordinate of the geometric sum of the two
    embedded surfaces."""
    if not is_compatible(x, y):
        tet, k1, k2 = conflicting_quads(x, y)
        raise ValueError(
            "incompatible: tetrahedron %d carries quad kinds %d and %d"
            % (tet, k1 - 4, k2 - 4))
    return x + y
