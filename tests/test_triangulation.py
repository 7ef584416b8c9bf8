import json

import pytest

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
