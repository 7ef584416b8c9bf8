import random
from fractions import Fraction

import pytest

from thurston.chi import chi_star, chi_star_coefficients
from thurston.coords import (
    NormalVector, build_matching_system, disc_index, forget_orientation,
    reverse_orientation, vertex_linking_vector,
)
from thurston.fixtures import load


@pytest.fixture(scope="module")
def d2():
    return load("d2")


def test_single_disc_values_on_d2(d2):
    # All edge degrees are 2: a triangle gives 1 - 3/2 + 3/2 = 1 and a
    # quad gives 1 - 2 + 4/2 = 1.
    coeffs = chi_star_coefficients(d2, oriented=True)
    assert set(coeffs) == {Fraction(1)}
    coeffs_un = chi_star_coefficients(d2, oriented=False)
    assert set(coeffs_un) == {Fraction(1)}


def test_vertex_linking_sphere_chi(d2):
    for vc in range(4):
        link = vertex_linking_vector(d2, vc, 1, oriented=True)
        assert chi_star(d2, link) == 2


def test_two_quad_sphere_chi(d2):
    x = [0] * 14
    x[disc_index(0, 4, oriented=False)] = 1
    x[disc_index(1, 4, oriented=False)] = 1
    assert chi_star(d2, NormalVector(tuple(x), False)) == 2


def test_linearity(d2):
    rng = random.Random(5)
    for _ in range(10):
        x = NormalVector(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(28)), True)
        y = NormalVector(tuple(Fraction(rng.randint(-4, 4))
                               for _ in range(28)), True)
        lhs = chi_star(d2, x.scale(3) + y.scale(2))
        assert lhs == 3 * chi_star(d2, x) + 2 * chi_star(d2, y)


def test_reversal_invariance(d2):
    rng = random.Random(6)
    for _ in range(10):
        x = NormalVector(tuple(Fraction(rng.randint(-4, 4))
                               for _ in range(28)), True)
        assert chi_star(d2, x) == chi_star(d2, reverse_orientation(x))


def test_factors_through_forgetting_orientation(d2):
    rng = random.Random(8)
    for _ in range(10):
        x = NormalVector(tuple(Fraction(rng.randint(-3, 3))
                               for _ in range(28)), True)
        assert chi_star(d2, x) == chi_star(d2, forget_orientation(x))
