"""Closed 3-manifold triangulations given by face gluing tables.

A triangulation is a list of tetrahedra, each with four faces; face i is the
face opposite vertex i.  A gluing of face i of tetrahedron A is a pair
(target tetrahedron B, permutation sigma) where sigma maps the vertex labels
of A to those of B, so face i of A is identified with face sigma(i) of B.
Self-identifications (a face of a tetrahedron glued to a different face of
the same tetrahedron) are permitted, so the triangulations are the
pseudo-simplicial ones common in computational topology; a face glued to
itself is rejected.

Validation checks the machine-checkable hypotheses: every face glued, the
gluings form an involution, the triangulation is orientable (consistent
tetrahedron signs exist), no edge is identified with itself in reverse, and
every vertex link is a 2-sphere.  Irreducibility and atoroidality are not
decided here.
"""

import json

# The six edges of a tetrahedron, as ordered pairs a < b; the edge index of
# {a, b} is EDGE_INDEX[a, b].  Face i is opposite vertex i; its corners are
# FACE_CORNERS[i] in increasing order.
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {}
for _i, (_a, _b) in enumerate(EDGES):
    EDGE_INDEX[(_a, _b)] = _i
    EDGE_INDEX[(_b, _a)] = _i
FACE_CORNERS = tuple(tuple(v for v in range(4) if v != f) for f in range(4))

_EVEN_PERMS = {
    (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2),
    (1, 0, 3, 2), (1, 2, 0, 3), (1, 3, 2, 0),
    (2, 0, 1, 3), (2, 1, 3, 0), (2, 3, 0, 1),
    (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0),
}


def perm_sign(perm):
    return 1 if tuple(perm) in _EVEN_PERMS else -1


def perm_inverse(perm):
    inv = [0] * 4
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


class TriangulationError(ValueError):
    """Malformed gluing data (syntax, bounds, or non-bijective permutation)."""


class InvalidTriangulation(ValueError):
    """A parsed triangulation that fails validation.

    The .report attribute lists every detected failure.
    """

    def __init__(self, report):
        super().__init__("; ".join(report))
        self.report = list(report)


class Gluing:
    """One face gluing: target tetrahedron and vertex-label permutation."""

    __slots__ = ("tet", "perm")

    def __init__(self, tet, perm):
        self.tet = tet
        self.perm = tuple(perm)

    def __eq__(self, other):
        return self.tet == other.tet and self.perm == other.perm

    def __repr__(self):
        return "Gluing(%d, %s)" % (self.tet, "".join(map(str, self.perm)))


class Triangulation:
    """Tetrahedra with gluings, plus the derived skeleton once computed.

    Fields filled in stages: parse_triangulation sets .gluings only;
    validate_and_orient adds .tet_signs and caches the vertex and directed
    edge orbits, which compute_skeleton reuses; compute_skeleton adds the
    vertex/edge/face classes and edge degrees.  After compute_skeleton the
    object is treated as immutable and is safe to share between threads.
    """

    def __init__(self, gluings):
        self.gluings = gluings            # gluings[tet][face] -> Gluing
        self.tet_signs = None             # +1/-1 per tetrahedron
        self.vertex_class = None          # (tet, vertex) -> class index
        self.vertex_classes = None        # list of sorted corner lists
        self.edge_class = None            # (tet, edge_index) -> class index
        self.edge_classes = None          # list of sorted (tet, edge_index)
        self.edge_direction = None        # (tet, edge_index) -> +1/-1 vs class
        self.degrees = None               # per edge class, number of corners
        self.face_class = None            # (tet, face) -> class index
        self.face_classes = None          # list of ((tet, face), (tet, face))
        self._orbits = {}                 # orbit function -> its result

    @property
    def num_tets(self):
        return len(self.gluings)

    def gluing(self, tet, face):
        return self.gluings[tet][face]


def parse_triangulation(text):
    """Parse the JSON gluing-file format into a Triangulation.

    Only syntax, index bounds and bijectivity of permutations are checked
    here; geometric validity is the job of validate_and_orient.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise TriangulationError("malformed JSON: %s" % e) from None
    if not isinstance(data, dict) or "tets" not in data:
        raise TriangulationError('missing "tets" key')
    tets = data["tets"]
    if not isinstance(tets, list):
        raise TriangulationError('"tets" must be a list')
    if len(tets) == 0:
        raise TriangulationError("empty triangulation")
    t = len(tets)
    gluings = []
    for k, row in enumerate(tets):
        if not isinstance(row, list) or len(row) != 4:
            raise TriangulationError("tetrahedron %d needs 4 face gluings" % k)
        faces = []
        for f, item in enumerate(row):
            if not isinstance(item, list) or len(item) != 2:
                raise TriangulationError(
                    "tet %d face %d: expected [target, perm]" % (k, f))
            tgt, perm_str = item
            if not isinstance(tgt, int) or isinstance(tgt, bool) \
                    or not 0 <= tgt < t:
                raise TriangulationError(
                    "tet %d face %d: target index out of range" % (k, f))
            if not isinstance(perm_str, str) or len(perm_str) != 4 \
                    or not set(perm_str) <= set("0123"):
                raise TriangulationError(
                    "tet %d face %d: perm must be 4 digits 0-3" % (k, f))
            perm = tuple(int(c) for c in perm_str)
            if len(set(perm)) != 4:
                raise TriangulationError(
                    "tet %d face %d: permutation is not a bijection" % (k, f))
            faces.append(Gluing(tgt, perm))
        gluings.append(faces)
    return Triangulation(gluings)


def _check_involution(tri, report):
    for tet in range(tri.num_tets):
        for face in range(4):
            g = tri.gluings[tet][face]
            tgt_face = g.perm[face]
            if g.tet == tet and tgt_face == face:
                report.append("tet %d face %d is glued to itself" % (tet, face))
                continue
            back = tri.gluings[g.tet][tgt_face]
            if back.tet != tet or back.perm != perm_inverse(g.perm):
                report.append(
                    "gluing of tet %d face %d is not involutive" % (tet, face))


def _check_orientation(tri, report):
    """Propagate tetrahedron signs; a gluing between tets of signs s, s'
    is orientation-compatible when s * s' * sign(perm) = -1."""
    t = tri.num_tets
    signs = [0] * t
    signs[0] = 1
    queue = [0]
    while queue:
        tet = queue.pop(0)
        for face in range(4):
            g = tri.gluings[tet][face]
            want = -signs[tet] * perm_sign(g.perm)
            if signs[g.tet] == 0:
                signs[g.tet] = want
                queue.append(g.tet)
            elif signs[g.tet] != want:
                report.append(
                    "non-orientable: sign contradiction across tet %d face %d"
                    % (tet, face))
                return None
    if 0 in signs:
        report.append("triangulation is not connected")
        return None
    return signs


def _corner_orbits(items, neighbours):
    """Partition `items` into orbits under the gluing maps, numbering the
    classes by their smallest member in lexicographic order."""
    items = sorted(items)
    cls = {}
    classes = []
    for seed in items:
        if seed in cls:
            continue
        idx = len(classes)
        orbit = [seed]
        cls[seed] = idx
        pos = 0
        while pos < len(orbit):
            cur = orbit[pos]
            pos += 1
            for nxt in neighbours(cur):
                if nxt not in cls:
                    cls[nxt] = idx
                    orbit.append(nxt)
        classes.append(sorted(orbit))
    return cls, classes


def _vertex_orbits(tri):
    """Orbits of tetrahedron corners (tet, v): the vertex classes."""
    def neighbours(item):
        tet, v = item
        out = []
        for f in range(4):
            if f != v:
                g = tri.gluings[tet][f]
                out.append((g.tet, g.perm[v]))
        return out

    corners = [(tet, v) for tet in range(tri.num_tets) for v in range(4)]
    return _corner_orbits(corners, neighbours)


def _edge_orbits_directed(tri):
    """Orbits of directed edges (tet, (a, b)); used to orient edge classes
    and to reject edges identified with themselves in reverse."""
    def neighbours(item):
        tet, (a, b) = item
        out = []
        for f in range(4):
            if f != a and f != b:
                g = tri.gluings[tet][f]
                out.append((g.tet, (g.perm[a], g.perm[b])))
        return out

    items = [(tet, (a, b)) for tet in range(tri.num_tets)
             for (a, b) in EDGES] + \
            [(tet, (b, a)) for tet in range(tri.num_tets)
             for (a, b) in EDGES]
    return _corner_orbits(items, neighbours)


def _cached_orbits(tri, orbits):
    """`orbits(tri)`, computed once per triangulation: validation and the
    skeleton share the vertex and directed-edge orbits."""
    if orbits not in tri._orbits:
        tri._orbits[orbits] = orbits(tri)
    return tri._orbits[orbits]


def validate_and_orient(tri):
    """Check closedness, involutivity, orientability, edge validity and that
    all vertex links are 2-spheres; fill in tet_signs.

    Raises InvalidTriangulation listing all failures found.  Returns tri.
    """
    report = []
    _check_involution(tri, report)
    if report:
        raise InvalidTriangulation(report)

    signs = _check_orientation(tri, report)
    if signs is not None:
        tri.tet_signs = tuple(signs)

    # An edge identified with itself in reverse makes the space a
    # non-manifold along that edge.
    dir_cls, _ = _cached_orbits(tri, _edge_orbits_directed)
    for tet in range(tri.num_tets):
        for (a, b) in EDGES:
            if dir_cls[(tet, (a, b))] == dir_cls[(tet, (b, a))]:
                report.append(
                    "edge %s of tet %d is identified with itself in reverse"
                    % ((a, b), tet))
                raise InvalidTriangulation(report)

    _check_vertex_links(tri, report)
    if report:
        raise InvalidTriangulation(report)
    return tri


def _check_vertex_links(tri, report):
    """Euler characteristic of every vertex link must be 2.

    The link of a vertex class is a closed surface built from one triangle
    per corner (tet, v) in the class; its edges are the corner triples
    (tet, v, f) paired across face gluings, and its vertices are the orbits
    of (tet, v, w) for edges {v, w}, so chi = V - 3F/2 + F.
    """
    _, vclasses = _cached_orbits(tri, _vertex_orbits)

    def linkvert_neighbours(item):
        tet, v, w = item
        out = []
        for f in range(4):
            if f != v and f != w:
                g = tri.gluings[tet][f]
                out.append((g.tet, g.perm[v], g.perm[w]))
        return out

    linkverts = [(tet, v, w) for tet in range(tri.num_tets)
                 for v in range(4) for w in range(4) if v != w]
    _, lv_classes = _corner_orbits(linkverts, linkvert_neighbours)

    for i, cls in enumerate(vclasses):
        faces = len(cls)
        if (3 * faces) % 2 != 0:
            report.append("vertex class %d: odd link edge count" % i)
            continue
        corner_set = set(cls)
        verts = sum(1 for orbit in lv_classes
                    if (orbit[0][0], orbit[0][1]) in corner_set)
        chi = verts - 3 * faces // 2 + faces
        if chi != 2:
            report.append(
                "vertex class %d link has Euler characteristic %d, not 2"
                % (i, chi))


def compute_skeleton(tri):
    """Derive vertex, edge and face classes, edge degrees, and a fixed
    direction for every edge class.  Classes are numbered by their smallest
    (tet, index) representative; an edge class is directed by the ordered
    pair of its representative (EDGES pairs are increasing)."""
    tri.vertex_class, tri.vertex_classes = _cached_orbits(
        tri, _vertex_orbits)

    dir_cls, dir_classes = _cached_orbits(tri, _edge_orbits_directed)
    # Undirected classes keyed by (tet, edge index), ordered by smallest
    # member; the directed orbit of the representative fixes the direction.
    und_items = sorted((tet, EDGE_INDEX[pair])
                       for tet in range(tri.num_tets) for pair in EDGES)
    tri.edge_class = {}
    tri.edge_classes = []
    tri.edge_direction = {}
    for tet, ei in und_items:
        if (tet, ei) in tri.edge_class:
            continue
        a, b = EDGES[ei]
        fwd = dir_cls[(tet, (a, b))]
        idx = len(tri.edge_classes)
        members = []
        for tet2, (p, q) in dir_classes[fwd]:
            ei2 = EDGE_INDEX[(p, q)]
            if (tet2, ei2) in tri.edge_direction:
                continue
            tri.edge_class[(tet2, ei2)] = idx
            # +1 when the class direction traverses this edge from its
            # smaller to its larger vertex label.
            tri.edge_direction[(tet2, ei2)] = 1 if p < q else -1
            members.append((tet2, ei2))
        tri.edge_classes.append(sorted(members))
    tri.degrees = tuple(len(m) for m in tri.edge_classes)

    def face_neighbours(item):
        tet, f = item
        g = tri.gluings[tet][f]
        return [(g.tet, g.perm[f])]

    faces = [(tet, f) for tet in range(tri.num_tets) for f in range(4)]
    tri.face_class, fclasses = _corner_orbits(faces, face_neighbours)
    if any(len(pair) != 2 for pair in fclasses):
        raise ArithmeticError("face class must have exactly two embeddings")
    tri.face_classes = [tuple(pair) for pair in fclasses]
    return tri


def triangulation_from_json(text):
    """Parse, validate and compute the skeleton in one call."""
    tri = parse_triangulation(text)
    validate_and_orient(tri)
    compute_skeleton(tri)
    return tri


def is_simplicial(tri):
    """Conservative test that the triangulation is a simplicial complex.

    Requires each simplex to embed (all four vertex classes, six edge
    classes and four face classes of a tetrahedron distinct) and any two
    tetrahedra to share at most one face class.  Skeleton must be computed.
    """
    for tet in range(tri.num_tets):
        vcs = {tri.vertex_class[(tet, v)] for v in range(4)}
        ecs = {tri.edge_class[(tet, e)] for e in range(6)}
        fcs = {tri.face_class[(tet, f)] for f in range(4)}
        if len(vcs) != 4 or len(ecs) != 6 or len(fcs) != 4:
            return False
    shared = {}
    for (t1, f1), (t2, f2) in tri.face_classes:
        if t1 == t2:
            return False
        key = (min(t1, t2), max(t1, t2))
        shared[key] = shared.get(key, 0) + 1
        if shared[key] > 1:
            return False
    return True
