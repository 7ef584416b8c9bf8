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
from thurston.coords import build_matching_system, quad_conflict_test
from thurston.fixtures import load, names
from thurston.linalg import (
    ConeDescription, LpResult, Ray, enumerate_extreme_rays, in_convex_hull,
    is_extreme_ray, nullspace, rank_int,
    remove_redundant_points, rref, solve_linear, solve_lp,
)
from thurston.normball import NormBall, evaluate_norm
from thurston.rat import normalize_int_vector, primitive_integer_vector
from thurston.triangulation import triangulation_from_json


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


def _reference_rays(cone, reject=None):
    """The double description with the adjacency test as a scan of every
    current mask: a pair is adjacent when no third mask lies inside the
    union of its supports.  The same row order, row skip, row-count bound
    and filter as enumerate_extreme_rays."""
    dim = cone.dim
    rows = sorted(set(tuple(int(x) for x in r) for r in cone.rows
                      if any(x != 0 for x in r)))
    rays = []
    masks = []
    for i in range(dim):
        if reject is None or not reject(1 << i):
            rays.append(tuple(1 if j == i else 0 for j in range(dim)))
            masks.append(1 << i)
    cuts = 0
    for a in rows:
        vals = [sum(c * x for c, x in zip(a, r)) for r in rays]
        if not any(vals):
            continue
        zero = [(r, m) for r, m, v in zip(rays, masks, vals) if v == 0]
        pos = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v > 0]
        neg = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v < 0]
        new = list(zero)
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                union = mp | mn
                if union.bit_count() - 2 > cuts:
                    continue
                if reject is not None and reject(union):
                    continue
                if any(m != mp and m != mn and m & union == m
                       for m in masks):
                    continue
                new.append((normalize_int_vector(
                    [vp * b - vn * c for c, b in zip(rp, rn)]), union))
        rays = [r for r, _ in new]
        masks = [m for _, m in new]
        cuts += 1
    return sorted(Ray.from_vector(r) for r in rays)


def _fixture_cone(name, oriented):
    m = build_matching_system(load(name), oriented=oriented)
    return ConeDescription(tuple(m.rows), m.num_cols)


# Every fixture's unoriented cone and the oriented cones whose full double
# description takes well under a second; three_tet's oriented cone (dim 42)
# only filtered, since its full description takes about 40 s.
FIXTURE_CONES = ([(name, False, full) for name in names()
                  for full in (True, False)]
                 + [(name, True, full)
                    for name in ("d2", "two_tet_b1", "two_tet_efficient")
                    for full in (True, False)]
                 + [("three_tet", True, False)])


@pytest.mark.parametrize("name,oriented,full", FIXTURE_CONES)
def test_extreme_rays_match_mask_scan_on_fixtures(name, oriented, full):
    """The packed adjacency test returns the same rays, in the same order,
    as the scan of every mask, with and without the quad-conflict filter."""
    cone = _fixture_cone(name, oriented)
    reject = None if full else quad_conflict_test(
        load(name).num_tets, oriented)
    rays = enumerate_extreme_rays(cone, reject=reject)
    assert rays
    assert rays == _reference_rays(cone, reject)


def _random_large_cone(rng):
    """Dimension 20-45 and two to five sparse rows over -2..2: the cut
    cones have dozens to about a thousand rays, which fill up to sixteen
    packed blocks."""
    dim = rng.randint(20, 45)
    rows = []
    for _ in range(rng.randint(2, 5)):
        row = [0] * dim
        for j in rng.sample(range(dim), rng.randint(4, 12)):
            row[j] = rng.choice((-2, -1, 1, 2))
        rows.append(tuple(row))
    return ConeDescription(tuple(rows), dim)


def test_extreme_rays_match_mask_scan_on_large_random_cones():
    """On cones far wider than the brute-force tests reach, the packed
    adjacency test returns the same rays as the scan of every mask, with
    and without a random monotone filter."""
    rng = random.Random(53)
    counts = []
    for _ in range(24):
        cone = _random_large_cone(rng)
        for reject in (None, _random_forbidden_pairs(rng, cone.dim)):
            rays = enumerate_extreme_rays(cone, reject=reject)
            assert rays == _reference_rays(cone, reject), cone
            counts.append(len(rays))
    assert max(counts) > 100


@pytest.mark.parametrize("name", ["d2", "two_tet_b1"])
@pytest.mark.parametrize("oriented", [True, False])
def test_fixture_rays_are_extreme_with_distinct_supports(name, oriented):
    cone = _fixture_cone(name, oriented)
    rays = enumerate_extreme_rays(cone)
    assert rays
    for r in rays:
        assert is_extreme_ray(cone, r.coords)
    assert len({r.support for r in rays}) == len(rays)


def test_ray_canonical_form():
    r = Ray.from_vector((0, 4, 6))
    assert r.coords == (0, 2, 3)
    assert r.support == frozenset({1, 2})


def test_extreme_rays_scale_fraction_rows():
    """A Fraction row is scaled to the integer row of the same hyperplane:
    3x/2 = y has the ray (2, 3), as 3x = 2y does."""
    for row in ((Fraction(3, 2), -1), (3, -2), (Fraction(-3, 4),
                                                 Fraction(1, 2))):
        assert enumerate_extreme_rays(ConeDescription((row,), 2)) == \
            [Ray((2, 3))], row


@pytest.mark.parametrize("row", [(1.5, -1), ("1", -1), (True, -1),
                                 (0.0, 0)])
def test_extreme_rays_reject_non_rational_rows(row):
    """Rows used to be read through int(), so (1.5, -1) and ("1", -1)
    both gave the ray (1, 1)."""
    with pytest.raises(TypeError):
        enumerate_extreme_rays(ConeDescription((row,), 2))


def test_ray_mask_is_not_compared():
    """A Ray carries its support mask, read off the coordinates when none
    is given; the mask takes no part in comparison, order or hash."""
    r = Ray((0, 2, 3))
    assert r.mask == 0b110 and r.support == frozenset({1, 2})
    assert Ray((0, 2, 3), 0) == r and hash(Ray((0, 2, 3), 0)) == hash(r)
    assert not Ray((0, 2, 3), 0) < r and not r < Ray((0, 2, 3), 0)
    assert Ray((0, 2, 3)) < Ray((1, 0, 0), 0)
    assert Ray((0, 2, 3), 0) <= r <= Ray((0, 2, 3), 7) and r >= r
    assert Ray((1, 0, 0)) > r and Ray((1, 0)) != Ray((0, 1))
    assert sorted([Ray((1, 0)), Ray((0, 1), 5)]) == [Ray((0, 1)), Ray((1, 0))]
    assert r != (0, 2, 3) and repr(r) == "Ray(coords=(0, 2, 3), mask=6)"
    with pytest.raises(TypeError):
        r < (0, 2, 3)
    for name in ("coords", "mask"):
        with pytest.raises(AttributeError):
            setattr(r, name, 0)
    assert r.coords == (0, 2, 3) and r.mask == 0b110


def test_cone_and_lp_result_fields():
    """A cone is an immutable value, built by position or by keyword; an
    LP result takes `status` alone, compares field by field and is
    unhashable."""
    cone = ConeDescription(rows=((1, -1),), dim=2)
    assert cone == ConeDescription(((1, -1),), 2)
    assert hash(cone) == hash(ConeDescription(((1, -1),), 2))
    assert cone != ConeDescription(((1, -1),), 3)
    for name in ("rows", "dim"):
        with pytest.raises(AttributeError):
            setattr(cone, name, ())
    res = LpResult("infeasible")
    assert (res.status, res.value, res.x, res.dual) == \
        ("infeasible", None, None, None)
    assert not res.optimal and LpResult("optimal", 1).optimal
    assert res == LpResult("infeasible", None, None, None)
    assert res != LpResult("infeasible", dual=(1,))
    with pytest.raises(TypeError):
        hash(res)


def test_row_values_match_dot_product():
    """Both evaluation paths, the column sums of a +-1 row and the
    weighted sum of any other row, give every ray's dot product."""
    rng = random.Random(31)
    for _ in range(200):
        dim = rng.randint(1, 9)
        coefs = rng.choice(((1, -1), (1, -1, 2, -3)))
        row = [0] * dim
        for j in rng.sample(range(dim), rng.randint(1, dim)):
            row[j] = rng.choice(coefs)
        rays = [tuple(rng.randint(0, 5) for _ in range(dim))
                for _ in range(rng.randint(0, 6))]
        assert linalg._row_values(row, rays) == [
            sum(c * x for c, x in zip(row, r)) for r in rays]


def _seeded_row(rng, dim, rows):
    """One row of a kind drawn at random: +-1 with two or four nonzeros,
    weights such as 2 or -3, a single nonzero, a copy of an earlier row,
    or all zero."""
    kind = rng.choice(("pm2", "pm4", "weighted", "single", "copy", "zero"))
    if kind == "copy" and rows:
        return rng.choice(rows)
    row = [0] * dim
    if kind == "zero":
        return tuple(row)
    if kind == "single":
        row[rng.randrange(dim)] = rng.choice((1, -1, 2))
        return tuple(row)
    size = {"pm2": 2, "pm4": 4}.get(kind, rng.randint(2, 4))
    cols = rng.sample(range(dim), min(size, dim))
    for j in cols:
        row[j] = rng.choice((1, -1) if kind != "weighted"
                            else (1, -1, 2, -2, 3, -3))
    # A nonzero row with every entry of one sign keeps only the rays off
    # its columns; give it an entry of each sign when it has two columns.
    if len(cols) > 1 and (min(row) >= 0 or max(row) <= 0):
        row[cols[0]] = -row[cols[0]]
    return tuple(row)


def test_extreme_rays_on_seeded_row_kinds():
    """Cones of every row kind _seeded_row draws, against the brute force,
    unfiltered and with a random monotone filter."""
    rng = random.Random(41)
    kept = 0
    for _ in range(120):
        dim = rng.randint(2, 8)
        rows = []
        for _ in range(rng.randint(1, 4)):
            rows.append(_seeded_row(rng, dim, rows))
        cone = ConeDescription(tuple(rows), dim)
        full = _brute_force_rays(rows, dim)
        assert enumerate_extreme_rays(cone) == full, cone
        reject = _random_forbidden_pairs(rng, dim)
        expected = [r for r in full if not reject(_mask(r))]
        assert enumerate_extreme_rays(cone, reject=reject) == expected, cone
        kept += len(expected)
    assert kept > 100


def _block_cone(k, l, rng):
    """A cone whose first row, -1 on k columns and +1 on l more, leaves
    k * l + 1 rays: each pair of its columns and the last coordinate.  The
    second row, x_0 = x_last, then sends every pair of those rays that it
    separates to the adjacency count, so the count packs exactly k * l + 1
    masks.  Two random rows follow; they are 0 on column 0, so they sort
    after the two rows that start with -1."""
    dim = k + l + 1
    rows = [tuple([-1] * k + [1] * l + [0]),
            tuple([-1] + [0] * (dim - 2) + [1])]
    extra = []
    for _ in range(2):
        extra.append(_seeded_row(rng, dim - 1, extra))
    return ConeDescription(tuple(rows + [(0,) + r for r in extra]), dim)


def test_extreme_rays_across_block_boundaries(monkeypatch):
    """Mask lists of exactly 64, 65 and 129 masks, one block, one block
    and one more mask, two blocks and one more, reach the adjacency count;
    the rays match the scan of every mask, with and without a filter."""
    sizes = set()
    pack = linalg._pack_blocks

    def recording_pack(masks, width):
        sizes.add(len(masks))
        return pack(masks, width)
    monkeypatch.setattr(linalg, "_pack_blocks", recording_pack)
    rng = random.Random(59)
    for k, l in ((7, 9), (8, 8), (8, 16)):
        cone = _block_cone(k, l, rng)
        for reject in (None, _random_forbidden_pairs(rng, cone.dim)):
            rays = enumerate_extreme_rays(cone, reject=reject)
            assert rays == _reference_rays(cone, reject), cone
    assert {64, 65, 129} <= sizes


def _frozen_pack_chunks(masks, dim):
    """_pack_chunks as it stood before fixed blocks: chunks of 1, 2, 4,
    ... masks in list order."""
    width = dim + 1
    chunks = []
    start = 0
    while start < len(masks):
        part = masks[start:2 * start + 1]
        start += len(part)
        packed = 0
        for k, m in enumerate(part):
            packed |= m << k * width
        ones = ((1 << width * len(part)) - 1) // ((1 << width) - 1)
        chunks.append((packed, ones, ones * ((1 << dim) - 1), ones << dim,
                       len(part)))
    return chunks


def _frozen_rays(cone, reject=None):
    """enumerate_extreme_rays as it stood before fixed blocks, column sums
    and one-pass bookkeeping, kept to pin its output: the same rays in the
    same order."""
    dim = cone.dim
    full = (1 << dim) - 1
    rows = sorted({tuple(linalg._integer_row(r)[1]) for r in cone.rows}
                  - {(0,) * dim})
    rays = []
    masks = []
    for i in range(dim):
        if reject is None or not reject(1 << i):
            rays.append(tuple(1 if j == i else 0 for j in range(dim)))
            masks.append(1 << i)
    cuts = 0
    for a in rows:
        terms = [(j, c) for j, c in enumerate(a) if c]
        vals = [sum(c * r[j] for j, c in terms) for r in rays]
        if not any(vals):
            continue
        zero = [(r, m) for r, m, v in zip(rays, masks, vals) if v == 0]
        pos = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v > 0]
        neg = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v < 0]
        chunks = None
        new = list(zero)
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                union = mp | mn
                if union.bit_count() - 2 > cuts:
                    continue
                if reject is not None and reject(union):
                    continue
                if chunks is None:
                    chunks = _frozen_pack_chunks(masks, dim)
                outside = full ^ union
                inside = 0
                for packed, ones, low, guards, count in chunks:
                    x = packed & outside * ones
                    inside += count - ((x + low) & guards).bit_count()
                    if inside > 2:
                        break
                else:
                    new.append((normalize_int_vector(
                        [vp * b - vn * c for c, b in zip(rp, rn)]), union))
        rays = [r for r, _ in new]
        masks = [m for _, m in new]
        cuts += 1
    return sorted(Ray.from_vector(r) for r in rays)


def _frozen_tri(name):
    if name != "b1_grown":
        return load(name)
    from test_normball import B1_GROWN
    return triangulation_from_json(B1_GROWN)


# Every fixture and B1_GROWN, unoriented and oriented, full and filtered,
# except the full oriented cone of three_tet, which takes about 40 s.
FROZEN_CASES = [(name, oriented, full)
                for name in names() + ["b1_grown"]
                for oriented in (False, True) for full in (True, False)
                if not (name == "three_tet" and oriented and full)]


@pytest.mark.parametrize("name,oriented,full", FROZEN_CASES)
def test_extreme_rays_match_frozen_routine(name, oriented, full):
    """The same rays, in the same order, as the routine before fixed
    blocks, and each ray's mask is its support."""
    tri = _frozen_tri(name)
    m = build_matching_system(tri, oriented=oriented)
    cone = ConeDescription(tuple(m.rows), m.num_cols)
    reject = None if full else quad_conflict_test(tri.num_tets, oriented)
    rays = enumerate_extreme_rays(cone, reject=reject)
    frozen = _frozen_rays(cone, reject)
    assert rays == frozen
    assert [r.mask for r in rays] == [r.mask for r in frozen]


def test_lp_basic_optimum():
    res = solve_lp([1, 0], ([[1, 1]], [1]))
    assert res.optimal
    assert res.value == 1
    assert res.x == (1, 0)
    assert res.dual is not None


def bounded_lp(objective, rows, rhs, upper):
    """The arguments of solve_lp for x >= 0, rows.x = rhs, x <= upper in
    standard form: one slack column s_j per variable after the variables,
    costing nothing, and the bound rows x_j + s_j = u_j after the rows.
    With upper None the LP is returned as it is.  An optimal result's
    value and x[:n] are those of the bounded LP, and its Farkas vector is
    indexed over the rows and then the bound rows."""
    if upper is None:
        return objective, (rows, rhs)
    n = len(objective)
    unit = [[int(i == j) for i in range(n)] for j in range(n)]
    return (list(objective) + [0] * n,
            ([list(row) + [0] * n for row in rows] + [e + e for e in unit],
             list(rhs) + list(upper)))


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
        res = solve_lp(*bounded_lp(objective, rows, rhs, upper), maximize)
        statuses[res.status] += 1
        if res.optimal:
            key = (res.value, res.x[:len(objective)], res.dual, pivots[0])
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


def _reference_pivot(rows, r, col):
    """One Gauss-Jordan step over Fractions in place: scale row r so that
    its entry in `col` is 1 and clear `col` from every other row."""
    inv = 1 / rows[r][col]
    pr = rows[r] = [inv * x for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(row, pr)]


def _reference_rref(rows):
    """Reduced row echelon form over Fractions, one Fraction pivot step
    per column."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    row = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(row, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        _reference_pivot(m, row, col)
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


class _ReferenceTableau:
    """The simplex tableau over Fractions: rows hold B^-1 [A | b] and z the
    reduced-cost row, pivoted with the other rows; `pivots` counts the
    steps."""

    def __init__(self, rows, basis, c, pivots):
        self.rows, self.basis, self.c, self.pivots = rows, basis, c, pivots
        self.z = c + [Fraction(0)]
        for row, bj in zip(rows, basis):
            if c[bj] != 0:
                self.z = [zj - c[bj] * x for zj, x in zip(self.z, row)]

    def pivot(self, r, col):
        self.pivots[0] += 1
        self.rows.append(self.z)
        _reference_pivot(self.rows, r, col)
        self.z = self.rows.pop()
        self.basis[r] = col

    def solve(self):
        while True:
            enter = next((j for j, zj in enumerate(self.z[:-1]) if zj > 0),
                         None)
            if enter is None:
                return "optimal"
            leave = best = None
            for i, row in enumerate(self.rows):
                if row[enter] > 0:
                    ratio = row[-1] / row[enter]
                    if best is None or ratio < best or (
                            ratio == best
                            and self.basis[i] < self.basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def dual(self, cols):
        return [self.c[j] - self.z[j] for j in cols]


def _reference_simplex(a, b, c, pivots):
    """The two-phase simplex over Fractions with the same contract as
    linalg._simplex_standard: phase 1 gives every artificial the cost -1
    on the unscaled rows, and both certificates are read off the
    tableaux.  Adds its pivot count to pivots[0]."""
    m, n = len(a), len(c)
    flipped = [bi < 0 for bi in b]
    rows = [[Fraction(-x if f else x) for x in row]
            + [Fraction(int(k == i)) for k in range(m)]
            + [Fraction(-bi if f else bi)]
            for i, (row, bi, f) in enumerate(zip(a, b, flipped))]
    art = list(range(n, n + m))
    t = _ReferenceTableau(rows, list(art),
                          [Fraction(0)] * n + [Fraction(-1)] * m, pivots)
    t.solve()
    if t.z[-1] != 0:
        y = [-yi if f else yi for yi, f in zip(t.dual(art), flipped)]
        return "infeasible", None, None, tuple(y)
    keep = []
    for i in range(m):
        if t.basis[i] >= n:
            piv = next((j for j in range(n) if t.rows[i][j] != 0), None)
            if piv is None:
                continue
            t.pivot(i, piv)
        keep.append(i)
    reduced = [t.rows[i][:n] + t.rows[i][-1:] for i in keep]
    basis1 = [t.basis[i] for i in keep]
    t2 = _ReferenceTableau(list(reduced), list(basis1), c, pivots)
    if t2.solve() == "unbounded":
        return "unbounded", None, None, None
    x = [Fraction(0)] * n
    for row, bj in zip(t2.rows, t2.basis):
        x[bj] = row[-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return "optimal", value, tuple(x), tuple(t2.dual(basis1))


@pytest.fixture
def kernels_compared(monkeypatch):
    """Every _simplex_standard call also runs _reference_simplex, and the
    two must agree on status, value, witness, dual and pivot count, with
    the same types (the pinned digest hashes reprs).  Yields the list of
    compared (status, pivots) pairs."""
    pivots = [0]
    pivot = linalg._Tableau.pivot
    simplex = linalg._simplex_standard
    compared = []

    def counting(self, r, col):
        pivots[0] += 1
        pivot(self, r, col)

    def both(a, b, c):
        pivots[0] = 0
        got = simplex(a, b, c)
        ref = [0]
        want = _reference_simplex(a, b, c, ref)
        assert repr(got) == repr(want), (a, b, c)
        assert pivots[0] == ref[0], (a, b, c)
        compared.append((got[0], ref[0]))
        return got

    monkeypatch.setattr(linalg._Tableau, "pivot", counting)
    monkeypatch.setattr(linalg, "_simplex_standard", both)
    yield compared


def _random_rational(rng, lo, hi):
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4, 6)))


def _random_rational_lp(rng):
    """Like _random_lp, but rows, right-hand sides, objectives and upper
    bounds carry denominators up to 6, and rows run up to five."""
    n = rng.randint(1, 6)
    base = [[_random_rational(rng, -4, 4) for _ in range(n)]
            for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.5:
        x0 = [_random_rational(rng, 0, 3) for _ in range(n)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in base]
    else:
        rhs = [_random_rational(rng, -6, 6) for _ in base]
    rows, b = list(base), list(rhs)
    for _ in range(rng.randint(0, 2) if base else 0):
        i, j = rng.randrange(len(base)), rng.randrange(len(base))
        s, t = _random_rational(rng, -2, 2), _random_rational(rng, -2, 2)
        rows.append([s * x + t * y for x, y in zip(base[i], base[j])])
        b.append(s * rhs[i] + t * rhs[j] + rng.choice((0, 0, 1, -1)))
    upper = ([_random_rational(rng, 0, 4) for _ in range(n)]
             if rng.random() < 0.5 else None)
    objective = [_random_rational(rng, -3, 3) for _ in range(n)]
    return objective, rows, b, upper, rng.random() < 0.5


def test_simplex_matches_fraction_reference_on_rational_lps(
        kernels_compared):
    """The integer tableau takes the Fraction tableau's path: the same
    status, pivot count, value, witness and dual on LPs with fractional
    rows, right-hand sides, objectives and bounds."""
    rng = random.Random(61)
    for _ in range(300):
        objective, rows, rhs, upper, maximize = _random_rational_lp(rng)
        res = solve_lp(*bounded_lp(objective, rows, rhs, upper), maximize)
        if res.status == "infeasible":
            _assert_farkas(res.dual, len(objective), rows, rhs, upper)
    statuses = Counter(status for status, _ in kernels_compared)
    assert min(statuses[s] for s in ("infeasible", "optimal", "unbounded")) \
        > 20
    assert max(p for _, p in kernels_compared) >= 6


def _symmetric_plane_points(rng):
    """10-20 rational points in the plane with denominators up to 4, and
    their negatives, shuffled: the shape of a norm ball's vertex list."""
    half = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(rng.randint(10, 20))]
    pts = half + [(-x, -y) for x, y in half]
    rng.shuffle(pts)
    return pts


def test_hull_and_gauge_lps_match_fraction_reference(kernels_compared):
    """Every LP of the hull scan and of the gauge on centrally symmetric
    plane point sets takes the same path and returns the same result in
    both kernels."""
    rng = random.Random(67)
    for _ in range(8):
        pts = _symmetric_plane_points(rng)
        hull = remove_redundant_points(pts)
        ball = NormBall("strict", 2, [[1, 0], [0, 1]], [], hull, [], [], None)
        for _ in range(4):
            evaluate_norm(ball, (rng.randint(-6, 6), rng.randint(-6, 6)))
    statuses = Counter(status for status, _ in kernels_compared)
    assert statuses["infeasible"] > 20 and statuses["optimal"] > 100


def test_tableau_stays_integral_on_rational_lps(monkeypatch):
    """Every tableau of a solve on fractional data holds ints only: its
    rows, reduced costs, costs and denominator d > 0."""
    tableaux = []
    solve = linalg._Tableau.solve

    def recording(self):
        tableaux.append(self)
        return solve(self)

    monkeypatch.setattr(linalg._Tableau, "solve", recording)
    rng = random.Random(71)
    for _ in range(100):
        objective, rows, rhs, upper, maximize = _random_rational_lp(rng)
        solve_lp(*bounded_lp(objective, rows, rhs, upper), maximize)
    assert len(tableaux) > 100
    for t in tableaux:
        assert type(t.d) is int and t.d > 0
        entries = [x for row in t.rows for x in row] + t.z + t.c
        assert all(type(x) is int for x in entries)


def test_rref_matches_fraction_reference():
    """The fraction-free rref returns the same Fraction matrix and pivot
    columns as elimination over Fractions, on random rational matrices
    with dependent rows and zero columns."""
    rng = random.Random(73)
    ranks = Counter()
    for _ in range(300):
        ncols = rng.randint(0, 7)
        rows = [[_random_rational(rng, -5, 5) if rng.random() < 0.7 else 0
                 for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
        if rows and rng.random() < 0.5:
            s = _random_rational(rng, -3, 3)
            rows.append([s * x + y for x, y in zip(rng.choice(rows),
                                                   rng.choice(rows))])
        rng.shuffle(rows)
        got = rref(rows)
        assert repr(got) == repr(_reference_rref(rows)), rows
        ranks[len(got[1])] += 1
    assert len(ranks) >= 6


@pytest.mark.parametrize("objective,rows,rhs", [
    pytest.param([1], [[0.1]], [0.3], id="float-row-and-rhs"),
    pytest.param([1], [[1]], [0.5], id="float-rhs"),
    pytest.param([0.5], [[1]], [1], id="float-objective"),
    pytest.param([1], [[1]], ["1"], id="string-rhs"),
    pytest.param([1, 1], [[1, "1/2"]], [1], id="string-entry"),
    pytest.param(["1"], [[1]], [1], id="string-objective"),
])
def test_lp_rejects_non_rational_input(monkeypatch, objective, rows, rhs):
    """An entry that is neither an int nor a Fraction raises TypeError at
    entry, before the simplex runs: a float would otherwise be read by its
    binary expansion (0.1 as 3602879701896397/36028797018963968)."""
    def unreachable(*args):
        raise AssertionError("the simplex ran on non-rational input")

    monkeypatch.setattr(linalg, "_simplex_standard", unreachable)
    with pytest.raises(TypeError, match="int or a Fraction"):
        solve_lp(objective, (rows, rhs))


def test_rref_rejects_non_rational_input():
    """rref and what is built on it take ints and Fractions only."""
    for rows in ([[1, 0.5]], [[1, 2], ["3", 4]]):
        with pytest.raises(TypeError, match="int or a Fraction"):
            rref(rows)
    with pytest.raises(TypeError):
        rank_int([[0.25]])
    with pytest.raises(TypeError):
        solve_linear([[1, 1]], [0.5])
    assert rref([[Fraction(1, 2), 1]]) == ([[1, 2]], [0])


def test_hull_rejects_non_rational_points():
    """The hull scan reads its points exactly, so a float point raises
    TypeError instead of entering as its binary expansion."""
    for points in ([(0.1,), (0.3,)], [(0, 0), (1, "1/2")]):
        with pytest.raises(TypeError, match="int or a Fraction"):
            remove_redundant_points(points)
    with pytest.raises(TypeError):
        in_convex_hull((0.5,), [(0,), (1,)])


def test_lp_unbounded():
    res = solve_lp([1], ([], []))
    assert res.status == "unbounded"


def test_lp_box_bounds():
    res = solve_lp(*bounded_lp([1, 1], [[1, -1]], [0], [Fraction(3, 2), 2]))
    assert res.optimal
    assert res.value == 3
    assert res.x[:2] == (Fraction(3, 2), Fraction(3, 2))


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
    that misses a row and one with a negative entry.  The script prints
    the cases that did not raise."""
    out = _run_optimized("""
        import sys
        import thurston.linalg as linalg
        simplex = linalg._simplex_standard
        cases = {
            "row": ([[1, 1]], [1], lambda x: (x[0] + 1,) + x[1:]),
            "sign": ([[1, 1]], [2], lambda x: (3, -1)),
        }
        missed = []
        for name, (a, b, corrupt) in cases.items():
            def corrupted(*args):
                status, value, x, y = simplex(*args)
                return status, value, corrupt(x), y
            linalg._simplex_standard = corrupted
            try:
                linalg.solve_lp([1, 0], (a, b))
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
        from thurston.linalg import (ConeDescription, enumerate_extreme_rays,
                                     in_convex_hull, remove_redundant_points,
                                     solve_lp)
        checks = {
            "long_objective": lambda: solve_lp([1, 1, 1], ([[1, 1]], [1])),
            "extra_rhs": lambda: solve_lp([1, 1], ([[1, 1]], [1, 2])),
            "missing_rhs": lambda: solve_lp([1, 1], ([[1, 1], [1, 0]], [1])),
            "ragged_rows": lambda: solve_lp([1, 1], ([[1, 1], [1]], [1, 2])),
            "in_convex_hull": lambda: in_convex_hull((0,), [(1, 5), (-1, 7)]),
            "remove_redundant_points": lambda: remove_redundant_points(
                [(0, 0), (1,), (-1,)]),
            "short_cone_row": lambda: enumerate_extreme_rays(
                ConeDescription(((1, -1),), 3)),
            "long_cone_row": lambda: enumerate_extreme_rays(
                ConeDescription(((1, -1, 0, 0),), 3)),
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
