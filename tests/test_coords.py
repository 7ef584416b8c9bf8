import random
from fractions import Fraction

import pytest

from thurston.coords import (
    NormalVector, build_matching_system, disc_index, enumerate_disc_types,
    forget_orientation, is_admissible, is_compatible, num_coords,
    quad_conflict_test, reverse_orientation, vertex_linking_vector,
    quad_kind_separating, QUAD_PAIR, QUAD_OPP,
)
from thurston.linalg import nullspace
from thurston.fixtures import load


@pytest.fixture(scope="module")
def d2():
    return load("d2")


def test_disc_type_counts(d2):
    oriented, unoriented, arcs = enumerate_disc_types(d2)
    assert len(oriented) == 28
    assert len(unoriented) == 14
    assert len(arcs) == 4
    assert all(len(a) == 6 for a in arcs)


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
    for (tet, kind, s), col in m.col_index.items():
        hits = sum(1 for row in m.rows if row[col] != 0)
        assert hits == (3 if kind < 4 else 4)


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


def test_negative_coordinate_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        is_admissible(NormalVector((-1,) + (0,) * 27, True))


def test_normal_vector_json_roundtrip():
    x = NormalVector((Fraction(1, 3), Fraction(-2)), True)
    obj = x.to_json_obj()
    assert obj["coords"] == ["1/3", "-2/1"]
    assert NormalVector.from_json_obj(obj) == x
