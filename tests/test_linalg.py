import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations

import pytest

import thurston
from thurston.coords import build_matching_system
from thurston.fixtures import load
from thurston.linalg import (
    ConeDescription, Ray, enumerate_extreme_rays, in_convex_hull,
    invert_matrix, is_extreme_ray, nullspace, rank_int,
    remove_redundant_points, solve_linear, solve_lp,
)
from thurston.rat import primitive_integer_vector


def test_rank_and_nullspace():
    a = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rank_int(a) == 2
    ns = nullspace(a, 3)
    assert len(ns) == 1
    v = ns[0]
    for row in a:
        assert sum(c * x for c, x in zip(row, v)) == 0


def test_solve_linear_and_inverse():
    a = [[2, 1], [1, 3]]
    x = solve_linear(a, [5, 10])
    assert x == (Fraction(1), Fraction(3))
    inv = invert_matrix(a)
    assert inv[0][0] == Fraction(3, 5)
    assert solve_linear([[1, 1], [2, 2]], [1, 3]) is None


def test_orthant_rays():
    cone = ConeDescription(rows=(), dim=3)
    rays = enumerate_extreme_rays(cone)
    assert sorted(r.coords for r in rays) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_line_in_orthant():
    cone = ConeDescription(rows=((1, -1),), dim=2)
    rays = enumerate_extreme_rays(cone)
    assert [r.coords for r in rays] == [(1, 1)]


def test_zero_only_cone():
    cone = ConeDescription(rows=((1, 1),), dim=2)
    assert enumerate_extreme_rays(cone) == []


def test_rays_satisfy_equations_and_minimality():
    rows = ((1, -1, 0, 0), (0, 1, -1, -1))
    cone = ConeDescription(rows=rows, dim=4)
    rays = enumerate_extreme_rays(cone)
    assert rays
    supports = set()
    for r in rays:
        for row in rows:
            assert sum(c * x for c, x in zip(row, r.coords)) == 0
        assert all(x >= 0 for x in r.coords)
        assert is_extreme_ray(cone, r.coords)
        assert r.support not in supports
        supports.add(r.support)


def _brute_force_rays(rows, dim):
    """Extreme rays by support: for every support S whose restricted
    nullspace is a line, keep its generator when it has full support S and
    one sign throughout."""
    rays = []
    for k in range(1, dim + 1):
        for cols in combinations(range(dim), k):
            basis = nullspace([[row[j] for j in cols] for row in rows], k)
            if len(basis) != 1:
                continue
            v = basis[0]
            if v[0] < 0:
                v = [-x for x in v]
            if all(x > 0 for x in v):
                full = [0] * dim
                for j, x in zip(cols, primitive_integer_vector(v)):
                    full[j] = x
                rays.append(Ray.from_vector(full))
    return sorted(rays)


def _random_cone(rng):
    """Up to three random rows over -2..2, then up to three integer
    combinations of them.  The dependent rows make the processed row count
    exceed the rank, so the DD cannot rely on its row-count bound and the
    support test has to reject the non-adjacent pairs."""
    dim = rng.randint(1, 8)
    base = [[rng.randint(-2, 2) for _ in range(dim)]
            for _ in range(rng.randint(0, 3))]
    rows = list(base)
    for _ in range(rng.randint(0, 3) if base else 0):
        a, b = rng.choice(base), rng.choice(base)
        s, t = rng.randint(-1, 1), rng.randint(-1, 1)
        rows.append([s * x + t * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return ConeDescription(tuple(map(tuple, rows)), dim)


def test_extreme_rays_match_brute_force_on_random_cones():
    rng = random.Random(17)
    nonempty = 0
    for _ in range(300):
        cone = _random_cone(rng)
        rays = enumerate_extreme_rays(cone)
        assert rays == _brute_force_rays(cone.rows, cone.dim), cone
        nonempty += bool(rays)
    assert nonempty > 100


def _mask(ray):
    return sum(1 << i for i in ray.support)


def _random_forbidden_pairs(rng, dim):
    """A random monotone support predicate: reject a support containing
    any of a few random coordinate pairs; a pair (i, i) forbids
    coordinate i alone."""
    pairs = [(1 << rng.randrange(dim)) | (1 << rng.randrange(dim))
             for _ in range(rng.randint(0, dim))]
    return lambda mask: any(mask & p == p for p in pairs)


def test_filtered_extreme_rays_match_brute_force_on_random_cones():
    """With a monotone reject predicate the DD returns exactly the
    brute-force extreme rays whose supports it accepts."""
    rng = random.Random(23)
    kept = dropped = 0
    for _ in range(300):
        cone = _random_cone(rng)
        reject = _random_forbidden_pairs(rng, cone.dim)
        full = _brute_force_rays(cone.rows, cone.dim)
        expected = [r for r in full if not reject(_mask(r))]
        assert enumerate_extreme_rays(cone, reject=reject) == expected, cone
        kept += len(expected)
        dropped += len(full) - len(expected)
    assert kept > 100 and dropped > 100


@pytest.mark.parametrize("name", ["d2", "two_tet_b1"])
@pytest.mark.parametrize("oriented", [True, False])
def test_fixture_rays_are_extreme_with_distinct_supports(name, oriented):
    m = build_matching_system(load(name), oriented=oriented)
    cone = ConeDescription(tuple(m.rows), m.num_cols)
    rays = enumerate_extreme_rays(cone)
    assert rays
    for r in rays:
        assert is_extreme_ray(cone, r.coords)
    assert len({r.support for r in rays}) == len(rays)


def test_ray_canonical_form():
    r = Ray.from_vector((0, 4, 6))
    assert r.coords == (0, 2, 3)
    assert r.support == frozenset({1, 2})


def test_lp_basic_optimum():
    res = solve_lp([1, 0], ([[1, 1]], [1]), [(0, None), (0, None)])
    assert res.optimal
    assert res.value == 1
    assert res.x == (1, 0)
    assert res.dual is not None


def test_lp_infeasible():
    res = solve_lp([1], ([[1]], [-1]), [(0, None)])
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = solve_lp([1], ([], []), [(None, None)])
    assert res.status == "unbounded"


def test_lp_box_bounds():
    res = solve_lp([1, 1], ([[1, -1]], [0]),
                   [(0, Fraction(3, 2)), (0, 2)])
    assert res.optimal
    assert res.value == 3
    assert res.x == (Fraction(3, 2), Fraction(3, 2))


def test_lp_free_variables():
    res = solve_lp([-1], ([[2]], [3]), [(None, None)])
    assert res.optimal
    assert res.value == Fraction(-3, 2)
    assert res.x == (Fraction(3, 2),)


def test_lp_minimize():
    res = solve_lp([1, 2], ([[1, 1]], [4]), [(0, None), (0, None)],
                   maximize=False)
    assert res.optimal
    assert res.value == 4
    assert res.x == (4, 0)


def test_hull_midpoint_removed():
    pts = [(Fraction(0),), (Fraction(1),), (Fraction(1, 2),)]
    assert remove_redundant_points(pts) == [(0,), (1,)]


def test_hull_square_center_removed():
    pts = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
    out = remove_redundant_points(pts)
    assert (Fraction(0), Fraction(0)) not in out
    assert len(out) == 4


def test_hull_duplicates_keep_first():
    pts = [(0, 0), (1, 1), (0, 0), (2, 2)]
    out = remove_redundant_points(pts)
    assert out == [(0, 0), (2, 2)]


def test_in_convex_hull_dim0():
    assert in_convex_hull((), [()])
    assert not in_convex_hull((), [])


def test_dual_certificate_check_survives_optimize():
    """Under python -O a corrupted dual vector still makes solve_lp raise:
    the certificate checks are not asserts."""
    script = textwrap.dedent("""
        import sys
        import thurston.linalg as linalg
        solve = linalg.solve_linear
        linalg.solve_linear = lambda rows, rhs: tuple(
            y + 1 for y in solve(rows, rhs))
        try:
            linalg.solve_lp([1, 0], ([[1, 1]], [1]), [(0, None), (0, None)])
        except ArithmeticError as e:
            print(sys.flags.optimize, e)
            sys.exit(0)
        sys.exit(1)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(thurston.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[0] == "1"
