import collections
import itertools
import json
import random

import pytest

from thurston.cli import run
from thurston.fixtures import fixture_json, load, names
from thurston.triangulation import (
    InvalidTriangulation, TriangulationError, parse_triangulation,
    validate_and_orient, compute_skeleton, triangulation_from_json,
    is_simplicial, perm_sign,
)


def d2_text():
    return json.dumps({"tets": [
        [[1, "0123"], [1, "0123"], [1, "0123"], [1, "0123"]],
        [[0, "0123"], [0, "0123"], [0, "0123"], [0, "0123"]],
    ]})


def test_parse_d2():
    tri = parse_triangulation(d2_text())
    assert tri.num_tets == 2
    assert tri.gluings[0][2].tet == 1
    assert tri.gluings[0][2].perm == (0, 1, 2, 3)


def test_parse_empty_is_error():
    with pytest.raises(TriangulationError, match="empty"):
        parse_triangulation(json.dumps({"tets": []}))


def test_parse_bad_perm():
    bad = json.dumps({"tets": [
        [[0, "0120"], [0, "0123"], [0, "0123"], [0, "0123"]]]})
    with pytest.raises(TriangulationError, match="bijection"):
        parse_triangulation(bad)


def test_parse_out_of_range_target():
    bad = json.dumps({"tets": [
        [[2, "0123"], [0, "0123"], [0, "0123"], [0, "0123"]]]})
    with pytest.raises(TriangulationError, match="out of range"):
        parse_triangulation(bad)


def test_parse_accepts_noninvolutive_validate_rejects():
    # Face 0 of tet 0 points at tet 1, but tet 1's face 0 points back with
    # a different permutation: parse accepts, validate rejects.
    text = json.dumps({"tets": [
        [[1, "0123"], [1, "0123"], [1, "0123"], [1, "0123"]],
        [[0, "0132"], [0, "0123"], [0, "0123"], [0, "0123"]],
    ]})
    tri = parse_triangulation(text)
    with pytest.raises(InvalidTriangulation, match="involutive"):
        validate_and_orient(tri)


def test_face_glued_to_itself_rejected():
    text = json.dumps({"tets": [
        [[0, "0132"], [0, "0123"], [0, "0123"], [0, "0123"]]]})
    tri = parse_triangulation(text)
    with pytest.raises(InvalidTriangulation, match="glued to itself"):
        validate_and_orient(tri)


def test_d2_orientation_signs():
    tri = validate_and_orient(parse_triangulation(d2_text()))
    assert tri.tet_signs == (1, -1)


def test_d2_odd_replacement_is_rejected():
    # Sign propagation: the three identity gluings force opposite signs on
    # the two tetrahedra, so replacing one gluing by an odd permutation
    # (0213 fixes vertex 0 and swaps 1, 2) contradicts them.
    tets = json.loads(d2_text())["tets"]
    tets[0][0] = [1, "0213"]
    tets[1][0] = [0, "0213"]
    with pytest.raises(InvalidTriangulation, match="non-orientable"):
        validate_and_orient(parse_triangulation(json.dumps({"tets": tets})))


def test_d2_even_replacement_stays_orientable():
    # Replacing an identity gluing by another even permutation keeps the
    # parity condition satisfiable; the result here is a valid closed
    # orientable triangulation (of a different manifold).
    tets = json.loads(d2_text())["tets"]
    tets[0][0] = [1, "0231"]
    tets[1][0] = [0, "0312"]
    tri = validate_and_orient(parse_triangulation(json.dumps({"tets": tets})))
    assert tri.tet_signs == (1, -1)


def test_d2_skeleton_counts():
    tri = triangulation_from_json(d2_text())
    assert len(tri.edge_classes) == 6
    assert tri.degrees == (2, 2, 2, 2, 2, 2)
    assert len(tri.vertex_classes) == 4
    assert len(tri.face_classes) == 4


def test_closed_counting_identities():
    tri = load("d2")
    t = tri.num_tets
    assert len(tri.face_classes) == 2 * t
    assert sum(tri.degrees) == 6 * t


def test_involution_property():
    tri = load("d2")
    for tet in range(tri.num_tets):
        for face in range(4):
            g = tri.gluing(tet, face)
            back = tri.gluing(g.tet, g.perm[face])
            assert back.tet == tet
            assert tuple(back.perm[v] for v in g.perm) == (0, 1, 2, 3)


def test_orientation_parity_per_gluing():
    tri = load("d2")
    for tet in range(tri.num_tets):
        for face in range(4):
            g = tri.gluing(tet, face)
            assert tri.tet_signs[tet] * tri.tet_signs[g.tet] \
                * perm_sign(g.perm) == -1


def test_skeleton_deterministic():
    a = triangulation_from_json(d2_text())
    b = triangulation_from_json(d2_text())
    assert a.edge_class == b.edge_class
    assert a.vertex_classes == b.vertex_classes
    assert a.face_classes == b.face_classes
    assert a.edge_direction == b.edge_direction


SKELETON_FIELDS = ("vertex_class", "vertex_classes", "edge_class",
                   "edge_classes", "edge_direction", "degrees", "face_class",
                   "face_classes")


@pytest.mark.parametrize("name", names())
def test_skeleton_with_orbits_from_validation(name):
    """The skeleton built on the orbits cached by validation equals the
    skeleton of an unvalidated copy, which computes them afresh; building
    it twice changes nothing."""
    text = fixture_json(name)
    validated = triangulation_from_json(text)
    fresh = compute_skeleton(parse_triangulation(text))
    again = compute_skeleton(triangulation_from_json(text))
    for field in SKELETON_FIELDS:
        assert getattr(validated, field) == getattr(fresh, field), field
        assert getattr(again, field) == getattr(fresh, field), field


def test_d2_not_simplicial():
    # Two tetrahedra sharing all four faces do not form a simplicial
    # complex even though every simplex embeds.
    tri = load("d2")
    assert not is_simplicial(tri)


def simplex_boundary_json():
    """The boundary of the 4-simplex, a simplicial 3-sphere: a test-only
    input, outside `fixtures.TABLES`.

    Its 5 tetrahedra are the 4-subsets of {0..4}, each with its local
    labels in increasing order.  Each face is glued to the other
    tetrahedron containing it, the face's three vertices to themselves and
    the opposite vertex to the opposite vertex."""
    tets = list(itertools.combinations(range(5), 4))
    rows = []
    for tet in tets:
        (missing,) = set(range(5)) - set(tet)
        row = []
        for f in range(4):
            mate = tuple(sorted(set(tet) - {tet[f]} | {missing}))
            image = [missing if v == tet[f] else v for v in tet]
            row.append([tets.index(mate),
                        "".join(str(mate.index(v)) for v in image)])
        rows.append(row)
    return json.dumps({"tets": rows})


def test_simplex_boundary_is_simplicial(tmp_path, capsys):
    path = tmp_path / "simplex_boundary.json"
    path.write_text(simplex_boundary_json())
    assert run(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"simplicial":true' in out
    doc = json.loads(out)
    assert (doc["tets"], doc["vertex_classes"], doc["edge_classes"]) == \
        (5, 5, 10)
    assert doc["edge_degrees"] == [3] * 10
    assert is_simplicial(triangulation_from_json(simplex_boundary_json()))


# The load as first written, on tuple keys and breadth-first orbits: the
# reference the integer tables and the union-find pass are checked against.
_REF_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_REF_EVEN = {(0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2), (1, 0, 3, 2),
             (1, 2, 0, 3), (1, 3, 2, 0), (2, 0, 1, 3), (2, 1, 3, 0),
             (2, 3, 0, 1), (3, 0, 2, 1), (3, 1, 0, 2), (3, 2, 1, 0)}


def _ref_inverse(perm):
    inv = [0] * 4
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _ref_parse(text):
    """Gluings as gluings[tet][face] = (target, perm tuple)."""
    data = json.loads(text)
    if not isinstance(data, dict) or "tets" not in data:
        raise TriangulationError('missing "tets" key')
    tets = data["tets"]
    if not isinstance(tets, list):
        raise TriangulationError('"tets" must be a list')
    if len(tets) == 0:
        raise TriangulationError("empty triangulation")
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
                    or not 0 <= tgt < len(tets):
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
            faces.append((tgt, perm))
        gluings.append(faces)
    return gluings


def _ref_orbits(items, neighbours):
    cls = {}
    classes = []
    for seed in sorted(items):
        if seed in cls:
            continue
        orbit = [seed]
        cls[seed] = len(classes)
        for cur in orbit:
            for nxt in neighbours(cur):
                if nxt not in cls:
                    cls[nxt] = len(classes)
                    orbit.append(nxt)
        classes.append(sorted(orbit))
    return cls, classes


def _ref_vertex_orbits(gl):
    def neighbours(item):
        tet, v = item
        return [(gl[tet][f][0], gl[tet][f][1][v]) for f in range(4) if f != v]
    return _ref_orbits([(tet, v) for tet in range(len(gl))
                        for v in range(4)], neighbours)


def _ref_directed_orbits(gl, width):
    """Orbits of (tet, v, w) for width 3 and (tet, (v, w)) for width 2."""
    def neighbours(item):
        tet, v, w = item if width == 3 else (item[0],) + item[1]
        out = []
        for f in range(4):
            if f != v and f != w:
                tgt, perm = gl[tet][f]
                out.append((tgt, perm[v], perm[w]) if width == 3
                           else (tgt, (perm[v], perm[w])))
        return out
    items = [(tet, v, w) if width == 3 else (tet, (v, w))
             for tet in range(len(gl))
             for v in range(4) for w in range(4) if v != w]
    return _ref_orbits(items, neighbours)


def _ref_validate(gl):
    """tet_signs, or raises InvalidTriangulation with the report."""
    t = len(gl)
    report = []
    for tet in range(t):
        for face in range(4):
            tgt, perm = gl[tet][face]
            if tgt == tet and perm[face] == face:
                report.append("tet %d face %d is glued to itself" % (tet, face))
                continue
            if gl[tgt][perm[face]] != (tet, _ref_inverse(perm)):
                report.append(
                    "gluing of tet %d face %d is not involutive" % (tet, face))
    if report:
        raise InvalidTriangulation(report)
    signs = [0] * t
    signs[0] = 1
    queue = [0]
    while queue:
        tet = queue.pop(0)
        for face in range(4):
            tgt, perm = gl[tet][face]
            want = -signs[tet] * (1 if perm in _REF_EVEN else -1)
            if signs[tgt] == 0:
                signs[tgt] = want
                queue.append(tgt)
            elif signs[tgt] != want:
                report.append(
                    "non-orientable: sign contradiction across tet %d face %d"
                    % (tet, face))
                signs = None
                break
        if signs is None:
            break
    if signs is not None and 0 in signs:
        report.append("triangulation is not connected")
        signs = None
    dir_cls, _ = _ref_directed_orbits(gl, 2)
    for tet in range(t):
        for (a, b) in _REF_EDGES:
            if dir_cls[(tet, (a, b))] == dir_cls[(tet, (b, a))]:
                report.append(
                    "edge %s of tet %d is identified with itself in reverse"
                    % ((a, b), tet))
                raise InvalidTriangulation(report)
    _, vclasses = _ref_vertex_orbits(gl)
    _, lv_classes = _ref_directed_orbits(gl, 3)
    for i, cls in enumerate(vclasses):
        faces = len(cls)
        if (3 * faces) % 2 != 0:
            report.append("vertex class %d: odd link edge count" % i)
            continue
        verts = sum(1 for orbit in lv_classes if orbit[0][:2] in set(cls))
        chi = verts - 3 * faces // 2 + faces
        if chi != 2:
            report.append(
                "vertex class %d link has Euler characteristic %d, not 2"
                % (i, chi))
    if report:
        raise InvalidTriangulation(report)
    return tuple(signs)


def _ref_skeleton(gl):
    """The SKELETON_FIELDS, as a dict."""
    out = {}
    out["vertex_class"], out["vertex_classes"] = _ref_vertex_orbits(gl)
    dir_cls, dir_classes = _ref_directed_orbits(gl, 2)
    edge_class, edge_classes, edge_direction = {}, [], {}
    for tet in range(len(gl)):
        for ei, (a, b) in enumerate(_REF_EDGES):
            if (tet, ei) in edge_class:
                continue
            members = []
            for tet2, (p, q) in dir_classes[dir_cls[(tet, (a, b))]]:
                ei2 = _REF_EDGES.index((min(p, q), max(p, q)))
                if (tet2, ei2) in edge_direction:
                    continue
                edge_class[(tet2, ei2)] = len(edge_classes)
                edge_direction[(tet2, ei2)] = 1 if p < q else -1
                members.append((tet2, ei2))
            edge_classes.append(sorted(members))
    out.update(edge_class=edge_class, edge_classes=edge_classes,
               edge_direction=edge_direction,
               degrees=tuple(len(m) for m in edge_classes))
    face_class, fclasses = _ref_orbits(
        [(tet, f) for tet in range(len(gl)) for f in range(4)],
        lambda item: [(gl[item[0]][item[1]][0],
                       gl[item[0]][item[1]][1][item[1]])])
    out["face_class"] = face_class
    out["face_classes"] = [tuple(pair) for pair in fclasses]
    return out


def _ref_load(text):
    try:
        gl = _ref_parse(text)
    except TriangulationError as e:
        return "parse-error", str(e)
    try:
        signs = _ref_validate(gl)
    except InvalidTriangulation as e:
        return "invalid", e.report
    return "ok", signs, _ref_skeleton(gl)


def _load(text):
    try:
        tri = parse_triangulation(text)
    except TriangulationError as e:
        return "parse-error", str(e)
    try:
        validate_and_orient(tri)
    except InvalidTriangulation as e:
        return "invalid", e.report
    compute_skeleton(tri)
    return "ok", tri.tet_signs, {f: getattr(tri, f) for f in SKELETON_FIELDS}


_PERMS = [tuple(int(c) for c in s) for s in
          ("%d%d%d%d" % p for p in itertools.permutations(range(4)))]


def _random_table(rng, t, orientable):
    """A random involutive gluing table of t tetrahedra: a random pairing
    of the 4t faces, each pair glued by a random permutation, of the sign
    that fits random tetrahedron signs when `orientable`."""
    faces = [(tet, f) for tet in range(t) for f in range(4)]
    rng.shuffle(faces)
    signs = [rng.choice((1, -1)) for _ in range(t)]
    tets = [[None] * 4 for _ in range(t)]
    for (a, fa), (b, fb) in zip(faces[::2], faces[1::2]):
        perm = rng.choice([
            p for p in _PERMS if p[fa] == fb and not (
                orientable and perm_sign(p) != -signs[a] * signs[b])])
        tets[a][fa] = [b, "".join(map(str, perm))]
        tets[b][fb] = [a, "".join(map(str, _ref_inverse(perm)))]
    return {"tets": tets}


def _perturbed(rng, table):
    """`table` with one gluing entry broken: a permutation that is not a
    bijection or not 4 digits, a target out of range, or another
    permutation or target, which breaks the involution."""
    tets = json.loads(json.dumps(table["tets"]))
    t = len(tets)
    tet, face = rng.randrange(t), rng.randrange(4)
    tgt, perm = tets[tet][face]
    kind = rng.randrange(6)
    if kind == 0:
        tets[tet][face][1] = perm[:3] + perm[rng.randrange(3)]
    elif kind == 1:
        tets[tet][face][1] = rng.choice(["0124", "012", "x123", 123, None])
    elif kind == 2:
        tets[tet][face][0] = rng.choice([t, -1, True, "0", 0.0])
    elif kind == 3:
        tets[tet][face][1] = "".join(map(str, rng.choice(_PERMS)))
    elif kind == 4:
        tets[tet][face][0] = rng.randrange(t)
    else:
        tets[tet][face] = rng.choice([[tgt], [tgt, perm, 0], "x"])
    return {"tets": tets}


def load_corpus():
    """Gluing files for the differential tests: every fixture, B1_GROWN,
    200 seeded random involutive tables of 1-4 tetrahedra (half of them
    orientable by construction) and one perturbed copy of each."""
    from test_normball import B1_GROWN
    rng = random.Random(20)
    texts = [fixture_json(name) for name in names()] + [B1_GROWN]
    for i in range(200):
        table = _random_table(rng, 1 + i % 4, i % 2 == 0)
        texts += [json.dumps(table), json.dumps(_perturbed(rng, table))]
    return texts


def test_load_matches_reference():
    """Parse, validate and skeleton on the integer tables and the one
    union-find pass agree with the tuple-keyed breadth-first reference:
    the same tet_signs and skeleton fields on every valid input, also
    when the skeleton is computed without validation, and the same
    report or message on every invalid one."""
    outcomes = collections.Counter()
    for text in load_corpus():
        want = _ref_load(text)
        assert _load(text) == want, text
        outcomes[want[0]] += 1
        if want[0] == "ok":
            fresh = compute_skeleton(parse_triangulation(text))
            assert {f: getattr(fresh, f) for f in SKELETON_FIELDS} \
                == want[2], text
        elif want[0] == "invalid":
            outcomes.update({line.split()[0] for line in want[1]})
    assert outcomes["ok"] >= 30 and outcomes["parse-error"] >= 40, outcomes
    # Every kind of report line occurs: a face glued to itself, a gluing
    # not involutive, non-orientable, not connected, an edge reversed, and
    # a bad vertex link.
    for first_word in ("tet", "gluing", "non-orientable:", "triangulation",
                       "edge", "vertex"):
        assert outcomes[first_word] >= 1, outcomes
