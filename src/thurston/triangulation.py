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
from itertools import permutations

# The six edges of a tetrahedron, as ordered pairs a < b; the edge index of
# {a, b} is EDGE_INDEX[a, b].  Face i is opposite vertex i; its corners are
# FACE_CORNERS[i] in increasing order.
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX = {}
for _i, (_a, _b) in enumerate(EDGES):
    EDGE_INDEX[(_a, _b)] = _i
    EDGE_INDEX[(_b, _a)] = _i
FACE_CORNERS = tuple(tuple(v for v in range(4) if v != f) for f in range(4))

# Integer ids: corner (tet, v) is 4 * tet + v and directed edge (tet, (a, b))
# is 12 * tet + _PAIR_ID[a, b], the pairs a != b in lexicographic order, so
# the id order is the lexicographic order of the items.
_PAIRS = tuple((a, b) for a in range(4) for b in range(4) if a != b)
_PAIR_ID = {pair: i for i, pair in enumerate(_PAIRS)}
# Per face, the directed edges avoiding its opposite vertex: the ones a
# gluing of that face carries across.
_FACE_PAIRS = tuple(tuple(i for i, pair in enumerate(_PAIRS) if f not in pair)
                    for f in range(4))
# Per undirected edge index, the ids of its two directions (a < b first).
_EDGE_PAIRS = tuple((_PAIR_ID[a, b], _PAIR_ID[b, a]) for a, b in EDGES)


def _perm_entry(perm):
    inverse = tuple(perm.index(v) for v in range(4))
    inversions = sum(perm[i] > perm[j] for i in range(4)
                     for j in range(i + 1, 4))
    image = tuple(_PAIR_ID[perm[a], perm[b]] for a, b in _PAIRS)
    return perm, inverse, -1 if inversions % 2 else 1, image


# Per permutation string: (tuple, inverse tuple, sign, directed-edge image
# image[p] = id of (perm[a], perm[b]) for the pair p = (a, b)), and the
# same entries keyed by the tuple.
_PERMS = {"".join(map(str, p)): _perm_entry(p)
          for p in permutations(range(4))}
_PERM_ENTRY = {entry[0]: entry for entry in _PERMS.values()}


def perm_sign(perm):
    return _PERM_ENTRY[tuple(perm)][2]


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
    validate_and_orient adds .tet_signs; compute_skeleton adds the
    vertex/edge/face classes and edge degrees.
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
        self._roots = None                # see _orbit_roots

    @property
    def num_tets(self):
        return len(self.gluings)

    def gluing(self, tet, face):
        return self.gluings[tet][face]


def parse_triangulation(text):
    """Parse the JSON gluing-file format into a Triangulation.

    Only syntax, index bounds and bijectivity of permutations are checked
    here; geometric validity is the job of validate_and_orient.  JSON too
    deeply nested for the decoder, or with an integer too long to convert,
    is malformed JSON too.
    """
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as e:
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
            if type(tgt) is not int or not 0 <= tgt < t:
                raise TriangulationError(
                    "tet %d face %d: target index out of range" % (k, f))
            entry = _PERMS.get(perm_str) if type(perm_str) is str else None
            if entry is None:
                if type(perm_str) is not str or len(perm_str) != 4 \
                        or not set(perm_str) <= set("0123"):
                    raise TriangulationError(
                        "tet %d face %d: perm must be 4 digits 0-3" % (k, f))
                raise TriangulationError(
                    "tet %d face %d: permutation is not a bijection" % (k, f))
            faces.append(Gluing(tgt, entry[0]))
        gluings.append(faces)
    return Triangulation(gluings)


def _check_involution(tri, report):
    gluings = tri.gluings
    for tet, row in enumerate(gluings):
        for face, g in enumerate(row):
            tgt_face = g.perm[face]
            if g.tet == tet and tgt_face == face:
                report.append("tet %d face %d is glued to itself" % (tet, face))
                continue
            back = gluings[g.tet][tgt_face]
            if back.tet != tet or back.perm != _PERM_ENTRY[g.perm][1]:
                report.append(
                    "gluing of tet %d face %d is not involutive" % (tet, face))


def _check_orientation(tri, report):
    """Propagate tetrahedron signs breadth first from tetrahedron 0; a
    gluing between tets of signs s, s' is orientation-compatible when
    s * s' * sign(perm) = -1."""
    signs = [0] * tri.num_tets
    signs[0] = 1
    queue = [0]
    for tet in queue:
        for face, g in enumerate(tri.gluings[tet]):
            want = -signs[tet] * _PERM_ENTRY[g.perm][2]
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


def _orbit_roots(tri):
    """Per corner id and per directed-edge id, the smallest id of its
    orbit under the gluing maps: (corner roots, directed-edge roots).

    One union-find pass over the face gluings, each face pair taken once
    from its smaller side, which covers every gluing map when the gluings
    are involutive.  A root is always the smallest member of its set and a
    parent never exceeds its child, so one ascending sweep resolves every
    id to its root.  Computed once per triangulation: validation and the
    skeleton share it.
    """
    if tri._roots is not None:
        return tri._roots
    t = tri.num_tets
    corner = list(range(4 * t))
    edge = list(range(12 * t))

    def union(parent, x, y):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y

    for tet, row in enumerate(tri.gluings):
        for face, g in enumerate(row):
            perm, _, _, image = _PERM_ENTRY[g.perm]
            other = g.tet
            if (other, perm[face]) < (tet, face):
                continue
            c, c2 = 4 * tet, 4 * other
            for v in FACE_CORNERS[face]:
                union(corner, c + v, c2 + perm[v])
            e, e2 = 12 * tet, 12 * other
            for p in _FACE_PAIRS[face]:
                union(edge, e + p, e2 + image[p])
    for parent in (corner, edge):
        for x in range(len(parent)):
            parent[x] = parent[parent[x]]
    tri._roots = corner, edge
    return tri._roots


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
    corner_root, edge_root = _orbit_roots(tri)
    for tet in range(tri.num_tets):
        for (a, b), (fwd, bwd) in zip(EDGES, _EDGE_PAIRS):
            if edge_root[12 * tet + fwd] == edge_root[12 * tet + bwd]:
                report.append(
                    "edge %s of tet %d is identified with itself in reverse"
                    % ((a, b), tet))
                raise InvalidTriangulation(report)

    _check_vertex_links(corner_root, edge_root, report)
    if report:
        raise InvalidTriangulation(report)
    return tri


def _check_vertex_links(corner_root, edge_root, report):
    """Euler characteristic of every vertex link must be 2.

    The link of a vertex class is a closed surface built from one triangle
    per corner (tet, v) in the class; its edges are the corner triples
    (tet, v, f) paired across face gluings, so chi = V - 3F/2 + F.  Its
    vertices are the orbits of (tet, v, w) for edges {v, w}, where a
    gluing of face f, f not in {v, w}, sends (tet, v, w) to
    (tet', perm[v], perm[w]).  That is exactly how it sends the directed
    edge (tet, (v, w)), across the same faces, so the link vertices are
    the directed-edge orbits, each in the link of its tail's class.
    """
    faces = {}                    # corner root -> corners, in class order
    for root in corner_root:
        faces[root] = faces.get(root, 0) + 1
    verts = dict.fromkeys(faces, 0)
    for e, root in enumerate(edge_root):
        if e == root:
            tet, p = divmod(e, 12)
            verts[corner_root[4 * tet + _PAIRS[p][0]]] += 1

    for i, (root, count) in enumerate(faces.items()):
        if (3 * count) % 2 != 0:
            report.append("vertex class %d: odd link edge count" % i)
            continue
        chi = verts[root] - 3 * count // 2 + count
        if chi != 2:
            report.append(
                "vertex class %d link has Euler characteristic %d, not 2"
                % (i, chi))


def compute_skeleton(tri):
    """Derive vertex, edge and face classes, edge degrees, and a fixed
    direction for every edge class.  Classes are numbered by their smallest
    (tet, index) representative; an edge class is directed by the ordered
    pair of its representative (EDGES pairs are increasing)."""
    corner_root, edge_root = _orbit_roots(tri)
    tri.vertex_class = {}
    tri.vertex_classes = []
    vertex_index = {}             # corner root -> class index
    for x, root in enumerate(corner_root):
        corner = divmod(x, 4)
        if x == root:
            vertex_index[root] = len(tri.vertex_classes)
            tri.vertex_classes.append([])
        tri.vertex_class[corner] = vertex_index[root]
        tri.vertex_classes[vertex_index[root]].append(corner)

    # The representative's directed orbit fixes the class direction: +1
    # when the class direction traverses an edge from its smaller to its
    # larger vertex label.
    tri.edge_class = {}
    tri.edge_classes = []
    tri.edge_direction = {}
    edge_index = {}               # representative's directed root -> class
    for tet in range(tri.num_tets):
        for ei, (fwd, bwd) in enumerate(_EDGE_PAIRS):
            root = edge_root[12 * tet + fwd]
            idx, direction = edge_index.get(root), 1
            if idx is None:
                idx, direction = edge_index.get(edge_root[12 * tet + bwd]), -1
            if idx is None:
                idx = edge_index[root] = len(tri.edge_classes)
                direction = 1
                tri.edge_classes.append([])
            tri.edge_class[tet, ei] = idx
            tri.edge_direction[tet, ei] = direction
            tri.edge_classes[idx].append((tet, ei))
    tri.degrees = tuple(len(m) for m in tri.edge_classes)

    tri.face_class = {}
    tri.face_classes = []
    for tet, row in enumerate(tri.gluings):
        for f, g in enumerate(row):
            if (tet, f) in tri.face_class:
                continue
            mate = g.tet, g.perm[f]
            back = tri.gluings[g.tet][g.perm[f]]
            if mate == (tet, f) or (back.tet, back.perm[mate[1]]) != (tet, f):
                raise ArithmeticError(
                    "face class must have exactly two embeddings")
            tri.face_class[tet, f] = tri.face_class[mate] = \
                len(tri.face_classes)
            tri.face_classes.append(((tet, f), mate))
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
    # A face class with both embeddings in one tetrahedron leaves it fewer
    # than 4 face classes, which the loop above rejects, and
    # compute_skeleton stores the smaller embedding first: so t1 < t2, and
    # (t1, t2) names the pair of tetrahedra sharing the face class.
    pairs = [(t1, t2) for (t1, _), (t2, _) in tri.face_classes]
    return len(set(pairs)) == len(pairs)
