import random
from fractions import Fraction

import pytest

from thurston.coords import (
    ARC_QUADS, NormalVector, arc_classes, arc_disc_columns,
    build_matching_system, conflicting_quads,
    disc_index, disc_of_index, forget_orientation, is_admissible, is_compatible, num_coords,
    quad_conflict_test, reverse_orientation, vertex_linking_vector,
    quad_kind_separating, QUAD_PAIR, QUAD_OPP,
)
from thurston.linalg import nullspace
from thurston.fixtures import fixture_json, load, names
from thurston.surfaces import reconstruct_surface
from thurston.triangulation import FACE_CORNERS, triangulation_from_json

from test_homology import t3_json
from test_normball import B1_GROWN
from test_triangulation import load_corpus


@pytest.fixture(scope="module")
def d2():
    return load("d2")


def test_quad_kind_separating_consistency():
    for kind, pair in QUAD_PAIR.items():
        assert quad_kind_separating(pair) == kind
        assert quad_kind_separating(QUAD_OPP[kind]) == kind


def test_matching_dimensions(d2):
    m_or = build_matching_system(d2, oriented=True)
    m_un = build_matching_system(d2, oriented=False)
    assert len(m_or.rows) == 24 and m_or.num_cols == 28
    assert len(m_un.rows) == 12 and m_un.num_cols == 14


def test_oriented_rows_have_four_unit_entries(d2):
    m = build_matching_system(d2, oriented=True)
    for row in m.rows:
        nz = [x for x in row if x != 0]
        assert len(nz) == 4
        assert all(abs(x) == 1 for x in nz)


def test_column_side_counts(d2):
    # Every oriented triangle column meets 3 equations, every quad 4.
    m = build_matching_system(d2, oriented=True)
    for col in range(m.num_cols):
        tet, kind, s = disc_of_index(col)
        hits = sum(1 for row in m.rows if row[col] != 0)
        assert hits == (3 if kind < 4 else 4)


def _reference_dense_rows(tri, oriented):
    """The matching rows as first built: a dense row per equation, +1 per
    disc on the - side and -1 per disc on the + side."""
    n = num_coords(tri.num_tets, oriented)
    rows = []
    for (tet_m, f_m), (tet_p, f_p) in tri.face_classes:
        perm = tri.gluings[tet_m][f_m].perm
        for corner in FACE_CORNERS[f_m]:
            for s in ((1, -1) if oriented else (1,)):
                row = [0] * n
                for c in arc_disc_columns(tet_m, f_m, corner, s, oriented):
                    row[c] += 1
                for c in arc_disc_columns(tet_p, f_p, perm[corner], s,
                                          oriented):
                    row[c] -= 1
                rows.append(tuple(row))
    return rows


def test_sparse_rows_are_the_dense_nonzeros():
    """The sparse rows, built directly, are the nonzero entries of the
    reference dense rows by increasing column, row for row, and the dense
    rows built from them are the reference's, in both theories, on every
    valid table of the load's differential corpus.  Some of those tables
    glue a tetrahedron to itself so that one column lies on both sides of
    an equation, where its coefficients cancel and it is dropped."""
    cancelled = 0
    for text in load_corpus():
        try:
            tri = triangulation_from_json(text)
        except ValueError:
            continue
        for oriented in (True, False):
            m = build_matching_system(tri, oriented)
            want = _reference_dense_rows(tri, oriented)
            assert m.sparse_rows == [
                tuple((j, a) for j, a in enumerate(row) if a)
                for row in want], text
            assert m.rows == want, text
            cancelled += sum(1 for row in m.sparse_rows if len(row) < 4)
    assert cancelled > 0


def test_arc_classes_follow_the_face_classes():
    """Three arcs per face class, in face-class order and by corner, and
    the + side's corner is the gluing's image of the - side's, on every
    fixture, B1_GROWN and T^3."""
    tris = [load(name) for name in names()] + [
        triangulation_from_json(text) for text in (B1_GROWN, t3_json())]
    for tri in tris:
        arcs = arc_classes(tri)
        assert len(arcs) == 3 * len(tri.face_classes)
        for fc, (minus, plus) in enumerate(tri.face_classes):
            perm = tri.gluings[minus[0]][minus[1]].perm
            assert arcs[3 * fc:3 * fc + 3] == [
                (minus + (c,), plus + (perm[c],))
                for c in FACE_CORNERS[minus[1]]]
        assert all(ARC_QUADS[f][c] is not None
                   for side in arcs for _, f, c in side)


@pytest.mark.parametrize("name", names())
def test_face_class_off_its_gluing_raises_alike(name):
    """A face class whose + side the gluing does not reach stops the
    matching build in both theories and the reconstruction with the same
    ArithmeticError."""
    tri = triangulation_from_json(fixture_json(name))
    minus, (tet_p, f_p) = tri.face_classes[0]
    tri.face_classes[0] = (minus, (tet_p, (f_p + 1) % 4))
    zero = NormalVector((0,) * num_coords(tri.num_tets, False), False)
    message = "^face class 0 does not match its gluing$"
    for oriented in (True, False):
        with pytest.raises(ArithmeticError, match=message):
            build_matching_system(tri, oriented)
    with pytest.raises(ArithmeticError, match=message):
        reconstruct_surface(tri, zero)


def test_vertex_linking_in_both_kernels(d2):
    m_or = build_matching_system(d2, oriented=True)
    m_un = build_matching_system(d2, oriented=False)
    for vc in range(len(d2.vertex_classes)):
        for sign in (1, -1):
            link = vertex_linking_vector(d2, vc, sign, oriented=True)
            assert m_or.is_in_kernel(link.coords)
            assert m_un.is_in_kernel(forget_orientation(link).coords)


def _random_kernel_element(system, rng):
    basis = nullspace(system.rows, system.num_cols)
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in basis]
    vec = [Fraction(0)] * system.num_cols
    for c, b in zip(coeffs, basis):
        for i, x in enumerate(b):
            vec[i] += c * x
    return tuple(vec)


def test_forget_orientation_maps_kernels(d2):
    rng = random.Random(7)
    m_or = build_matching_system(d2, oriented=True)
    m_un = build_matching_system(d2, oriented=False)
    for _ in range(10):
        x = NormalVector(_random_kernel_element(m_or, rng), True)
        assert m_or.is_in_kernel(x.coords)
        assert m_un.is_in_kernel(forget_orientation(x).coords)


def test_forget_orientation_values(d2):
    zero = NormalVector((0,) * 28, True)
    assert forget_orientation(zero).coords == (Fraction(0),) * 14
    x = [Fraction(0)] * 28
    x[disc_index(0, 4, 1, True)] = 1
    x[disc_index(0, 4, -1, True)] = 1
    y = forget_orientation(NormalVector(tuple(x), True))
    assert y.coords[disc_index(0, 4, oriented=False)] == 2


def test_reversal_preserves_kernel_and_admissibility(d2):
    rng = random.Random(11)
    m_or = build_matching_system(d2, oriented=True)
    for _ in range(10):
        x = NormalVector(_random_kernel_element(m_or, rng), True)
        assert m_or.is_in_kernel(reverse_orientation(x).coords)
    link = vertex_linking_vector(d2, 0, 1, oriented=True)
    assert is_admissible(link) == is_admissible(reverse_orientation(link))


def test_admissibility_rules(d2):
    x = [0] * 28
    x[disc_index(0, 4, 1, True)] = 1
    x[disc_index(0, 5, 1, True)] = 1
    assert not is_admissible(NormalVector(tuple(x), True))
    y = [0] * 28
    y[disc_index(0, 4, 1, True)] = 1
    y[disc_index(0, 4, -1, True)] = 3
    assert is_admissible(NormalVector(tuple(y), True))


def test_triangles_only_admissible_and_self_compatible(d2):
    link = vertex_linking_vector(d2, 1, 1, oriented=True)
    assert is_admissible(link)
    assert is_compatible(link, link)


def test_admissibility_downward_closed(d2):
    rng = random.Random(3)
    for _ in range(20):
        x = NormalVector(tuple(Fraction(rng.randint(0, 3)) for _ in range(28)),
                         True)
        if not is_admissible(x):
            continue
        y = NormalVector(tuple(Fraction(rng.randint(0, c.numerator))
                               if c > 0 else Fraction(0)
                               for c in x.coords), True)
        assert is_admissible(y)


@pytest.mark.parametrize("oriented", [True, False])
def test_quad_conflict_test_matches_is_admissible(oriented):
    rng = random.Random(5)
    for t in (1, 2, 3):
        conflict = quad_conflict_test(t, oriented)
        n = num_coords(t, oriented)
        for _ in range(400):
            mask = rng.getrandbits(n) & rng.getrandbits(n)
            x = NormalVector(tuple((mask >> i) & 1 for i in range(n)),
                             oriented)
            assert conflict(mask) == (not is_admissible(x)), (t, mask)


@pytest.mark.parametrize("oriented", [True, False])
def test_conflicting_quads_matches_quad_conflict_test(oriented):
    """The vector witness against the mask form, on the masks of
    test_quad_conflict_test_matches_is_admissible with positive weights
    on the support: a witness exactly when the mask conflicts, naming two
    carried kinds in order in the first conflicting tetrahedron."""
    rng = random.Random(5)
    weights = random.Random(6)
    signs = (1, -1) if oriented else (1,)
    for t in (1, 2, 3):
        conflict = quad_conflict_test(t, oriented)
        n = num_coords(t, oriented)
        for _ in range(400):
            mask = rng.getrandbits(n) & rng.getrandbits(n)
            x = NormalVector(tuple(weights.randint(1, 3) if mask >> i & 1
                                   else 0 for i in range(n)), oriented)
            found = conflicting_quads(x)
            assert (found is None) == (not conflict(mask)), (t, mask)
            if found is None:
                continue
            tet, k, k2 = found
            assert 4 <= k < k2 <= 6
            for kind in (k, k2):
                assert any(x.coords[disc_index(tet, kind, s, oriented)]
                           for s in signs)
            before = mask & ((1 << num_coords(tet, oriented)) - 1)
            assert not conflict(before), (t, mask)


def test_negative_coordinate_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        is_admissible(NormalVector((-1,) + (0,) * 27, True))


def test_normal_vector_json_roundtrip():
    x = NormalVector((Fraction(1, 3), Fraction(-2)), True)
    obj = x.to_json_obj()
    assert obj["coords"] == ["1/3", "-2/1"]
    assert NormalVector.from_json_obj(obj) == x


def test_normal_vector_entries_are_ints_exactly_when_integral():
    """Integral entries are held as ints, others as Fractions, whatever
    form they came in; the vector compares and hashes equal to one built
    from Fractions."""
    x = NormalVector((Fraction(4, 2), 3, Fraction(1, 2), Fraction(0), -5),
                     False)
    assert [type(c) for c in x.coords] == [int, int, Fraction, int, int]
    assert x.coords == (2, 3, Fraction(1, 2), 0, -5)
    y = NormalVector(tuple(Fraction(c) for c in x.coords), False)
    assert x == y and hash(x) == hash(y)
    assert hash(NormalVector((1, 2), True)) == hash(
        NormalVector((Fraction(1), Fraction(2)), True))
    assert x.is_integral() is False and y.scale(2).is_integral()
    assert [type(c) for c in x.scale(Fraction(2)).coords] == [int] * 5
    assert (x + y).coords == (4, 6, 1, 0, -10)
    assert all(type(c) is int for c in (x + y).coords)
    assert x != NormalVector(x.coords, True)
    for name in ("coords", "oriented"):
        with pytest.raises(AttributeError):
            setattr(x, name, y.coords)
    assert NormalVector(coords=(1,), oriented=True).coords == (1,)


@pytest.mark.parametrize("entry", [1.0, 0.5, "1", True, False, None])
def test_normal_vector_rejects_non_rational_entries(entry):
    with pytest.raises(TypeError):
        NormalVector((0, entry), False)
    with pytest.raises(TypeError):
        NormalVector((0, 1), False).scale(entry)
