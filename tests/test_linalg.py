import hashlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import thurston
import thurston.linalg as linalg
from thurston.coords import build_matching_system
from thurston.fixtures import load
from thurston.linalg import (
    ConeDescription, Ray, enumerate_extreme_rays, in_convex_hull,
    is_extreme_ray, nullspace, rank_int,
    remove_redundant_points, rref, solve_linear, solve_lp,
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
    # The I block of the echelon form of [A | I] is the inverse of A, as
    # homology.h1_basis reads it.
    m, pivots = rref([row + [int(i == j) for j in range(2)]
                      for i, row in enumerate(a)])
    assert pivots == [0, 1]
    assert m[0][2] == Fraction(3, 5)
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
    combinations of them.  A combination sorted after the rows it
    combines vanishes on the cone they cut out, so the DD skips it and
    leaves it out of its row count; the differential tests below check
    that neither the skip nor the row-count bound drops an adjacent
    pair."""
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
    res = solve_lp([1, 0], ([[1, 1]], [1]))
    assert res.optimal
    assert res.value == 1
    assert res.x == (1, 0)
    assert res.dual is not None


def _assert_farkas(y, n, rows, rhs, upper):
    """y certifies that x >= 0, rows.x = rhs, x <= upper has no solution:
    over the standard form [[rows, 0], [I, I]] (x, s) = (rhs, upper), with
    y indexed over the rows and then the bound rows, y.A >= 0 on every
    column (x's and the slacks') and y.(rhs, upper) < 0."""
    m = len(rows)
    ups = list(upper) if upper is not None else []
    assert len(y) == m + len(ups)
    y_rows, y_ups = y[:m], y[m:]
    for j in range(n):
        col = sum(yi * row[j] for yi, row in zip(y_rows, rows))
        assert col + (y_ups[j] if ups else 0) >= 0
    assert all(yu >= 0 for yu in y_ups)
    assert (sum(yi * bi for yi, bi in zip(y_rows, rhs))
            + sum(yu * u for yu, u in zip(y_ups, ups))) < 0


def test_lp_infeasible():
    res = solve_lp([1], ([[1]], [-1]))
    assert res.status == "infeasible"
    assert res.dual == (1,)
    _assert_farkas(res.dual, 1, [[1]], [-1], None)


def _random_lp(rng):
    """Up to three random rows over -3..3, right-hand sides either A.x0 for
    a random x0 >= 0 or random rationals of either sign, up to two
    combinations of the rows with the combined right-hand side, possibly
    off by one, and upper bounds about half the time."""
    n = rng.randint(1, 5)
    base = [[rng.randint(-3, 3) for _ in range(n)]
            for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.5:
        x0 = [rng.randint(0, 2) for _ in range(n)]
        rhs = [Fraction(sum(a * x for a, x in zip(row, x0))) for row in base]
    else:
        rhs = [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
               for _ in base]
    rows, b = list(base), list(rhs)
    for _ in range(rng.randint(0, 2) if base else 0):
        i, j = rng.randrange(len(base)), rng.randrange(len(base))
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        rows.append([s * x + t * y for x, y in zip(base[i], base[j])])
        b.append(s * rhs[i] + t * rhs[j] + rng.choice((0, 0, 1, -1)))
    upper = ([rng.randint(0, 3) for _ in range(n)]
             if rng.random() < 0.5 else None)
    objective = [rng.randint(-3, 3) for _ in range(n)]
    return objective, rows, b, upper, rng.random() < 0.5


def test_farkas_certificates_on_random_lps(monkeypatch):
    """Every infeasible result carries a Farkas certificate, checked here
    against the caller's own rows; everything else is pinned by a digest
    of each result's status and pivot count and each optimal result's
    value, witness and dual, recorded from the simplex before it returned
    certificates for infeasible LPs."""
    pivots = [0]
    pivot = linalg._Tableau.pivot

    def counting(self, r, col):
        pivots[0] += 1
        pivot(self, r, col)

    monkeypatch.setattr(linalg._Tableau, "pivot", counting)
    rng = random.Random(31)
    digest = hashlib.sha256()
    statuses = Counter()
    for _ in range(400):
        objective, rows, rhs, upper, maximize = _random_lp(rng)
        pivots[0] = 0
        res = solve_lp(objective, (rows, rhs), upper, maximize)
        statuses[res.status] += 1
        if res.optimal:
            key = (res.value, res.x, res.dual, pivots[0])
        else:
            key = (res.status, pivots[0])
        if res.status == "infeasible":
            _assert_farkas(res.dual, len(objective), rows, rhs, upper)
        else:
            assert res.optimal or res.dual is None
        digest.update(repr(key).encode())
    assert statuses == {"infeasible": 203, "optimal": 143, "unbounded": 54}
    assert digest.hexdigest() == (
        "228e97d7ed35dc17629a06926213057deb211da8f3fbbffb2222830d7e4d0a8d")


def test_lp_unbounded():
    res = solve_lp([1], ([], []))
    assert res.status == "unbounded"


def test_lp_box_bounds():
    res = solve_lp([1, 1], ([[1, -1]], [0]), upper=[Fraction(3, 2), 2])
    assert res.optimal
    assert res.value == 3
    assert res.x == (Fraction(3, 2), Fraction(3, 2))


def test_lp_minimize():
    res = solve_lp([1, 2], ([[1, 1]], [4]), maximize=False)
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


def _reference_hull(points):
    """The hull as a per-point scan: drop each distinct point that lies in
    the hull of the other points still retained."""
    result = list(dict.fromkeys(tuple(Fraction(x) for x in p)
                                for p in points))
    i = 0
    while i < len(result):
        if in_convex_hull(result[i], result[:i] + result[i + 1:]):
            result.pop(i)
        else:
            i += 1
    return result


def _random_point_set(rng):
    """A random rational point set in dimension 0-4: random corners, or a
    subset of the {-1, 0, 1} grid, or corners on a random line or plane
    (a lower-dimensional set); then convex combinations of two or three
    points (inside edges and faces), sometimes the negatives of all of
    them (centrally symmetric, like a norm ball), then duplicates, and
    shuffled."""
    d = rng.randint(0, 4)
    kind = rng.choice(("corners", "grid", "flat"))
    if kind == "grid" and d <= 3:
        grid = list(product((-1, 0, 1), repeat=d))
        pts = rng.sample(grid, rng.randint(1, min(len(grid), 12)))
    elif kind == "flat" and d >= 2:
        base = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
        dirs = [[rng.randint(-2, 2) for _ in range(d)]
                for _ in range(rng.randint(1, d - 1))]
        pts = []
        for _ in range(rng.randint(1, 6)):
            t = [Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                 for _ in dirs]
            pts.append(tuple(x + sum(ti * v[i] for ti, v in zip(t, dirs))
                             for i, x in enumerate(base)))
    else:
        pts = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
                     for _ in range(d))
               for _ in range(rng.randint(1, 7))]
    pts = [tuple(map(Fraction, p)) for p in pts]
    for _ in range(rng.randint(0, 6)):
        sub = [rng.choice(pts) for _ in range(rng.randint(2, 3))]
        w = [rng.randint(1, 3) for _ in sub]
        pts.append(tuple(sum(Fraction(wi) * q[i] for wi, q in zip(w, sub))
                         / sum(w) for i in range(d)))
    if rng.random() < 0.4:
        pts += [tuple(-x for x in p) for p in pts]
    for _ in range(rng.randint(0, 3)):
        pts.append(rng.choice(pts))
    rng.shuffle(pts)
    return pts


def test_hull_matches_per_point_scan():
    """The output-sensitive hull returns the same list, in the same order,
    as the per-point scan, on random sets that have duplicates, points on
    edges and faces, lower-dimensional and centrally symmetric sets."""
    rng = random.Random(41)
    dims = Counter()
    removed = 0
    for _ in range(150):
        pts = _random_point_set(rng)
        expected = _reference_hull(pts)
        assert remove_redundant_points(pts) == expected, pts
        dims[len(pts[0])] += 1
        removed += len(pts) - len(expected)
    assert set(dims) == {0, 1, 2, 3, 4}
    assert removed > 1000


def _run_optimized(script):
    """stdout of `script` run under python -O with this package importable;
    the script must exit 0."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(thurston.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c",
                           textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dual_certificate_check_survives_optimize():
    """Under python -O a corrupted dual vector still makes solve_lp raise:
    the certificate checks are not asserts."""
    out = _run_optimized("""
        import sys
        import thurston.linalg as linalg
        dual = linalg._Tableau.dual
        linalg._Tableau.dual = lambda t, cols: [y + 1 for y in dual(t, cols)]
        try:
            linalg.solve_lp([1, 0], ([[1, 1]], [1]))
        except ArithmeticError as e:
            print(sys.flags.optimize, e)
            sys.exit(0)
        sys.exit(1)
    """)
    assert out.split()[0] == "1"


def test_primal_witness_check_survives_optimize():
    """Under python -O a corrupted witness still makes solve_lp raise: one
    that misses a row, one with a negative entry and one above its upper
    bound.  The script prints the cases that did not raise."""
    out = _run_optimized("""
        import sys
        import thurston.linalg as linalg
        simplex = linalg._simplex_standard
        cases = {
            "row": ([[1, 1]], [1], None, lambda x: (x[0] + 1,) + x[1:]),
            "sign": ([[1, 1]], [2], None, lambda x: (3, -1)),
            "upper": ([[1, 1]], [2], [1, 1], lambda x: (2, 0, -1, 1)),
        }
        missed = []
        for name, (a, b, upper, corrupt) in cases.items():
            def corrupted(*args):
                status, value, x, y = simplex(*args)
                return status, value, corrupt(x), y
            linalg._simplex_standard = corrupted
            try:
                linalg.solve_lp([1, 0], (a, b), upper)
            except ArithmeticError:
                continue
            missed.append(name)
        print(sys.flags.optimize, " ".join(missed))
    """)
    assert out.split() == ["1"], out


def test_farkas_certificate_check_survives_optimize():
    """Under python -O a corrupted Farkas vector still makes solve_lp
    raise: its checks are not asserts."""
    out = _run_optimized("""
        import sys
        import thurston.linalg as linalg
        dual = linalg._Tableau.dual
        linalg._Tableau.dual = lambda t, cols: [-y for y in dual(t, cols)]
        try:
            linalg.solve_lp([1], ([[1]], [-1]))
        except ArithmeticError as e:
            print(sys.flags.optimize, e)
            sys.exit(0)
        sys.exit(1)
    """)
    assert out.split()[0] == "1"


def test_shape_checks_survive_optimize():
    """Under python -O every shape check below still raises ValueError;
    the script prints the names of the checks that did not."""
    out = _run_optimized("""
        import sys
        from thurston.linalg import (in_convex_hull,
                                     remove_redundant_points, solve_lp)
        checks = {
            "long_objective": lambda: solve_lp([1, 1, 1], ([[1, 1]], [1])),
            "extra_rhs": lambda: solve_lp([1, 1], ([[1, 1]], [1, 2])),
            "missing_rhs": lambda: solve_lp([1, 1], ([[1, 1], [1, 0]], [1])),
            "ragged_rows": lambda: solve_lp([1, 1], ([[1, 1], [1]], [1, 2])),
            "short_upper": lambda: solve_lp([1, 1], ([[1, 1]], [1]), [1]),
            "in_convex_hull": lambda: in_convex_hull((0,), [(1, 5), (-1, 7)]),
            "remove_redundant_points": lambda: remove_redundant_points(
                [(0, 0), (1,), (-1,)]),
        }
        missed = []
        for name, check in checks.items():
            try:
                check()
            except ValueError:
                continue
            except Exception:
                pass
            missed.append(name)
        print(sys.flags.optimize, " ".join(missed))
    """)
    assert out.split() == ["1"], out
