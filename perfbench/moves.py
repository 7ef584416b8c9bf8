"""Seeded 2-3 Pachner moves on gluing tables.

A table is the JSON object the program reads: {"tets": [[[target, perm],
... four faces ...], ...]} where face i of a tetrahedron is opposite its
vertex i and perm is a 4-digit string sending its vertex labels to those
of the target.  A 2-3 move replaces two distinct tetrahedra A and B that
share a face by three tetrahedra around the edge joining the two apexes.
It preserves the manifold, hence b1 and the number of vertices, and adds
exactly one tetrahedron.  This module never imports the program: the
generated tables are checked by running the program on them.
"""

import random

_APEX_A = "a"
_APEX_B = "b"


def _parse(table):
    return [[(tgt, tuple(int(c) for c in perm)) for tgt, perm in row]
            for row in table["tets"]]


def _dump(gluings):
    return {"tets": [[[tgt, "".join(map(str, perm))] for tgt, perm in row]
                     for row in gluings]}


def _inverse(perm):
    inv = [0] * 4
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _compose(outer, inner):
    """The permutation i -> outer[inner[i]]."""
    return tuple(outer[inner[i]] for i in range(4))


def movable_faces(table):
    """(tet, face) pairs whose face is glued to a different tetrahedron,
    each face class listed once, from the side with the smaller index."""
    out = []
    for tet, row in enumerate(_parse(table)):
        for face, (tgt, perm) in enumerate(row):
            if tgt != tet and (tet, face) < (tgt, perm[face]):
                out.append((tet, face))
    return out


def two_three(table, tet_a, face_a):
    """The table after the 2-3 move across face `face_a` of `tet_a`.

    The three new tetrahedra take A's index, B's index and a new last
    index.  New tetrahedron k has vertices (apex of A, apex of B, x_i,
    x_j), where x_i, x_j are the face corners other than x_k, named by
    their labels in A.
    """
    glu = _parse(table)
    tet_b, p = glu[tet_a][face_a]
    if tet_b == tet_a:
        raise ValueError("a 2-3 move needs two distinct tetrahedra")
    a, b = face_a, p[face_a]
    xs = [v for v in range(4) if v != a]
    new_index = [tet_a, tet_b, len(glu)]
    points = []
    for k in range(3):
        xi, xj = [xs[m] for m in range(3) if m != k]
        points.append((_APEX_A, _APEX_B, xi, xj))

    def to_a(k):
        # Label map new tetrahedron k -> A; apex B goes to x_k, the corner
        # of A's face that new tetrahedron k replaces.
        return tuple(a if q == _APEX_A else xs[k] if q == _APEX_B else q
                     for q in points[k])

    def to_b(k):
        return tuple(b if q == _APEX_B else p[xs[k]] if q == _APEX_A
                     else p[q] for q in points[k])

    # Old outer face (tet, face) -> (new tet k, its face, label map to old).
    outer = {}
    for k in range(3):
        outer[(tet_a, xs[k])] = (k, 1, to_a(k))
        outer[(tet_b, p[xs[k]])] = (k, 0, to_b(k))

    def image(tgt, face, perm):
        """Where a gluing that lands on (tgt, face) with label map `perm`
        lands after the move."""
        if (tgt, face) in outer:
            k, _, lab = outer[(tgt, face)]
            return new_index[k], _compose(_inverse(lab), perm)
        return tgt, perm

    out = [list(row) for row in glu]
    out.append([None] * 4)
    for k in range(3):
        row = [None] * 4
        for (tet_old, face_old), (kk, g, lab) in outer.items():
            if kk != k:
                continue
            tgt, perm = glu[tet_old][face_old]
            row[g] = image(tgt, perm[face_old], _compose(perm, lab))
        for g in (2, 3):
            # Internal face opposite points[k][g]: the other new tetrahedron
            # holding its three points shares it, with `missing` sent to
            # that tetrahedron's fourth point.
            missing = points[k][g]
            kept = set(points[k]) - {missing}
            m = next(m for m in range(3) if m != k and kept <= set(points[m]))
            other = (set(points[m]) - kept).pop()
            row[g] = (new_index[m], tuple(
                points[m].index(other if q == missing else q)
                for q in points[k]))
        out[new_index[k]] = row
    for tet, row in enumerate(glu):
        if tet in (tet_a, tet_b):
            continue
        for face, (tgt, perm) in enumerate(row):
            out[tet][face] = image(tgt, perm[face], perm)
    return _dump(out)


def grow(table, seed, steps):
    """Tables after 1, 2, ..., `steps` seeded 2-3 moves, each applied to
    the previous one at a face chosen uniformly among movable faces.

    Raises ValueError when the base has no face between two distinct
    tetrahedra, so no move applies.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(steps):
        faces = movable_faces(table)
        if not faces:
            raise ValueError("no face between two distinct tetrahedra")
        table = two_three(table, *rng.choice(faces))
        out.append(table)
    return out
