import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

import thurston
import thurston.cli as cli
import thurston.linalg as linalg
import thurston.normball as normball
from thurston.chi import chi_star, chi_star_row
from thurston.coords import NormalVector, forget_orientation, \
    is_admissible, quad_conflict_test, vertex_linking_vector
from thurston.fixtures import fixture_json, load, names
from thurston.linalg import (enumerate_extreme_rays, is_extreme_ray,
                             remove_redundant_points, solve_lp)
from thurston.normball import (DegenerateNormBall, NormBall, NormBallError,
                               Pipeline, ProjectiveVertex, evaluate_norm)
from thurston.surfaces import (assign_transverse_orientation,
                              reconstruct_surface)
from thurston.triangulation import triangulation_from_json

from test_linalg import bounded_lp
from test_triangulation import simplex_boundary_json

# Every (fixture, theory) whose full double description finishes within a
# second: the oriented three_tet cone takes about 40 s.
FULL_CONES = [(name, oriented) for name in names()
              for oriented in (True, False)
              if (name, oriented) != ("three_tet", True)]


@cache
def _pipe(name):
    return Pipeline(load(name))


@pytest.fixture(scope="module")
def d2_pipe():
    return Pipeline(load("d2"))


@pytest.fixture(scope="module")
def b1_pipe():
    return Pipeline(load("two_tet_b1"))


def test_projective_vertices_d2(d2_pipe):
    verts = d2_pipe.enumerate_vertices(True)
    assert len(verts) == 16
    for v in verts:
        assert sum(v.coords) == 1
    supports = [v.support for v in verts]
    assert len(set(supports)) == len(supports)
    assert len(verts) <= 2 ** 28
    # the eight oriented vertex-linking spheres appear, normalized
    tri = d2_pipe.tri
    coords = {v.coords for v in verts}
    for vc in range(4):
        for sign in (1, -1):
            link = vertex_linking_vector(tri, vc, sign, True)
            normalized = tuple(c / sum(link.coords) for c in link.coords)
            assert normalized in coords
    assert sum(1 for v in verts if v.admissible) == 14
    assert all(v.chi == 1 for v in verts)


def test_build_B_empty_on_small_fixtures():
    for name in ("d2", "one_tet", "two_tet_b1", "two_tet_efficient"):
        bverts, recession = Pipeline(load(name)).build_B("strict")
        assert bverts == []
        assert recession == []


def test_norm_ball_d2(d2_pipe):
    ball = d2_pipe.norm_ball("strict")
    assert ball.b == 0
    assert ball.ball_vertices == [()]
    assert ball.basis == []
    assert evaluate_norm(ball, ()) == 0


def test_norm_ball_b1(b1_pipe):
    ball = b1_pipe.norm_ball("strict")
    assert ball.b == 1
    assert ball.ball_vertices == [(Fraction(0),)]
    assert evaluate_norm(ball, (0,)) == 0
    with pytest.raises(DegenerateNormBall):
        evaluate_norm(ball, (1,))


def test_norm_ball_le_recession(b1_pipe):
    ball = b1_pipe.norm_ball("le")
    assert len(ball.recession_vertices) == len(ball.recession_classes)
    # every chi* = 0 admissible vertex of this fixture is null-homologous
    assert all(all(x == 0 for x in cls) for cls in ball.recession_classes)


def _segment_ball(half_width):
    v = Fraction(half_width)
    return NormBall("strict", 1, [[1]], [], [(v,), (-v,)], [], [], None)


def test_evaluate_norm_gauge():
    ball = _segment_ball(Fraction(1, 2))
    assert evaluate_norm(ball, (3,)) == 6
    assert evaluate_norm(ball, (-3,)) == 6
    assert evaluate_norm(ball, (0,)) == 0
    assert evaluate_norm(ball, (Fraction(2),)) == \
        2 * evaluate_norm(ball, (1,))


def test_evaluate_norm_dimension_checks():
    ball = _segment_ball(1)
    with pytest.raises(NormBallError, match="dimension"):
        evaluate_norm(ball, (1, 2))
    le_ball = NormBall("le", 1, [[1]], [], [(Fraction(1),)], [], [], None)
    with pytest.raises(NormBallError, match="strict"):
        evaluate_norm(le_ball, (1,))


@pytest.mark.parametrize("cls", [(0.1,), (True,), ("1",), (1.0,), (0.0,)])
def test_evaluate_norm_rejects_non_rational_class(monkeypatch, b1_pipe, cls):
    """On the ball {-1, 1}, (0.1,) used to give
    3602879701896397/36028797018963968 and (True,) gave 1.  The taut
    representative search rejects the same classes before it builds the
    ball: on two_tet_b1, (0.0,) used to give the zero representative, and
    (True,) and (1.0,) ran the norm LP."""
    with pytest.raises(TypeError):
        evaluate_norm(_segment_ball(1), cls)
    assert evaluate_norm(_segment_ball(1), (Fraction(1, 10),)) == \
        Fraction(1, 10)

    def unreachable(variant):
        raise AssertionError("the ball was built for a non-rational class")

    monkeypatch.setattr(b1_pipe, "norm_ball", unreachable)
    with pytest.raises(TypeError):
        b1_pipe.find_taut_representative(cls, 1)


def test_evaluate_norm_outside_cone():
    flat = NormBall("strict", 2, [[1, 0], [0, 1]], [],
                    [(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0))],
                    [], [], None)
    with pytest.raises(DegenerateNormBall):
        evaluate_norm(flat, (0, 1))


def test_taut_representative_zero_class(d2_pipe, b1_pipe):
    rep = d2_pipe.find_taut_representative((), 3)
    assert rep.weight == 0
    assert all(c == 0 for c in rep.coords.coords)
    rep = b1_pipe.find_taut_representative((0,), 3)
    assert rep.weight == 0


def test_taut_representative_degenerate(b1_pipe):
    with pytest.raises(DegenerateNormBall):
        b1_pipe.find_taut_representative((1,), 4)


def test_taut_representative_class_checks(b1_pipe):
    with pytest.raises(NormBallError, match="dimension"):
        b1_pipe.find_taut_representative((1, 0), 3)
    with pytest.raises(NormBallError, match="integral"):
        b1_pipe.find_taut_representative((Fraction(1, 2),), 3)


def test_class_checks_and_zero_class_build_no_ball(monkeypatch, b1_pipe):
    """The class alone decides these answers, so the norm ball, whose
    oriented double description is the expensive step, is never built."""
    def unreachable(variant):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(b1_pipe, "norm_ball", unreachable)
    assert b1_pipe.find_taut_representative((0,), 3).weight == 0
    with pytest.raises(NormBallError, match="dimension"):
        b1_pipe.find_taut_representative((1, 0), 3)
    with pytest.raises(NormBallError, match="integral"):
        b1_pipe.find_taut_representative((Fraction(1, 2),), 3)


def test_integral_point_enumeration(d2_pipe):
    """Weight-2 admissible integral oriented kernel points of the doubled
    tetrahedron: eight oriented vertex-linking spheres and six oriented
    two-quad spheres."""
    n = 28
    rows = [list(map(Fraction, r))
            for r in d2_pipe.matching_oriented.rows]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(2)]
    points = list(d2_pipe._integral_points(rows, rhs, 2))
    assert len(points) == 14
    for x in points:
        assert sum(x.coords) == 2
        assert d2_pipe.matching_oriented.is_in_kernel(x.coords)


def _search_system(pipe, w):
    """The oriented matching rows plus the weight row, right-hand side w."""
    n = pipe.matching_oriented.num_cols
    rows = [list(map(Fraction, r)) for r in pipe.matching_oriented.rows]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(w)]
    return rows, rhs


def _compositions(w, n):
    """Every nonnegative integer vector of length n summing to w, in
    lexicographic order."""
    if n == 1:
        yield (w,)
        return
    for v in range(w + 1):
        for rest in _compositions(w - v, n - 1):
            yield (v,) + rest


@pytest.mark.parametrize("name,w", [("one_tet", 1), ("one_tet", 2),
                                    ("one_tet", 3), ("two_tet_b1", 1),
                                    ("d2", 1), ("d2", 2)])
def test_integral_points_match_brute_force(name, w):
    """The DFS yields exactly the admissible kernel points of weight w,
    in the order of a lexicographic brute-force scan."""
    pipe = _pipe(name)
    matching = pipe.matching_oriented
    expected = [c for c in _compositions(w, matching.num_cols)
                if matching.is_in_kernel(c)
                and is_admissible(NormalVector(c, True))]
    if (name, w) == ("d2", 2):
        assert len(expected) == 14
    rows, rhs = _search_system(pipe, w)
    found = [x.coords for x in pipe._integral_points(rows, rhs, w)]
    assert found == expected


@pytest.mark.parametrize("name,w,calls,points", [
    ("one_tet", 1, 3, 0), ("one_tet", 2, 13, 1), ("one_tet", 3, 14, 0),
    ("d2", 2, 24, 14)])
def test_integral_point_search_lp_count(monkeypatch, name, w, calls,
                                        points):
    """A node whose parent's completion gives its column the value just
    chosen reuses that completion instead of solving an LP.  The counts
    are exact on one_tet and a ceiling on d2 (309 LPs with no reuse)."""
    counted = []

    def counting_solve_lp(*args, **kwargs):
        counted.append(None)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(normball, "solve_lp", counting_solve_lp)
    pipe = _pipe(name)
    assert len(list(pipe._integral_points(*_search_system(pipe, w), w))) \
        == points
    if name == "one_tet":
        assert len(counted) == calls
    else:
        assert len(counted) <= calls


def _counting_solve_lp(monkeypatch, module):
    """Patch `module.solve_lp` to append to the returned list on each
    call."""
    counted = []

    def counting(*args, **kwargs):
        counted.append(None)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(module, "solve_lp", counting)
    return counted


ROW_SCALES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), 3, 1)


def _scaled_system(rows, rhs):
    """Row i and its right-hand side times ROW_SCALES[i % 5]."""
    scales = [ROW_SCALES[i % len(ROW_SCALES)] for i in range(len(rows))]
    return ([[s * a for a in row] for row, s in zip(rows, scales)],
            [s * b for b, s in zip(rhs, scales)])


@pytest.mark.parametrize("name,w", [("one_tet", 1), ("one_tet", 2),
                                    ("one_tet", 3), ("two_tet_b1", 1),
                                    ("d2", 1), ("d2", 2)])
def test_integral_points_invariant_under_row_scaling(monkeypatch, name, w):
    """Multiplying rows together with their right-hand sides by 1/2, 1/3,
    2/5 and 3 (every fifth row left as is) changes neither the points, nor
    their order, nor the number of LPs: each row is scaled to the same
    primitive integer row before the search.  Scaling by the lcm of the
    denominators alone would give 2/5 and 3 times a row different integer
    rows, and d2's weight-1 search then solves 14 LPs instead of 13."""
    counted = _counting_solve_lp(monkeypatch, normball)
    pipe = _pipe(name)
    rows, rhs = _search_system(pipe, w)
    expected = [x.coords for x in pipe._integral_points(rows, rhs, w)]
    calls = len(counted)
    scaled_rows, scaled_rhs = _scaled_system(rows, rhs)
    assert scaled_rows != rows
    del counted[:]
    found = [x.coords
             for x in pipe._integral_points(scaled_rows, scaled_rhs, w)]
    assert found == expected
    assert len(counted) == calls


def test_hull_search_and_gauge_hand_solve_lp_integer_rows(monkeypatch):
    """The hull scan, the representative DFS and the gauge scale their
    rational data to integers once: every one of their LPs reaches
    _simplex_standard with int rows and right-hand sides."""
    calls = Counter()
    stage = [None]
    simplex = linalg._simplex_standard

    def spy(a, b, c):
        assert all(type(x) is int for row in a for x in row), a
        assert all(type(x) is int for x in b), b
        calls[stage[0]] += 1
        return simplex(a, b, c)

    monkeypatch.setattr(linalg, "_simplex_standard", spy)
    rng = random.Random(83)
    half = [(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
             Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            for _ in range(12)]
    stage[0] = "hull"
    hull = remove_redundant_points(half + [(-x, -y) for x, y in half])
    stage[0] = "gauge"
    ball = NormBall("strict", 2, [[1, 0], [0, 1]], [], hull, [], [], None)
    for cls in ((1, 0), (0, 1), (3, -2)):
        evaluate_norm(ball, cls)
    stage[0] = "search"
    pipe = _pipe("d2")
    system = _scaled_system(*_search_system(pipe, 2))
    assert len(list(pipe._integral_points(*system, 2))) == 14
    assert calls["hull"] > 10 and calls["gauge"] == 3 and calls["search"] > 0


@pytest.mark.parametrize("name,w", [("one_tet", 2), ("d2", 1)])
def test_integral_points_of_inconsistent_system(name, w):
    """A dependent row with the wrong right-hand side leaves no point.
    The LP sees neither extra row, since both depend on the others, so the
    exact per-row interval checks must reject them: the repeated weight
    row at the root, the weight row plus a matching row with coefficients
    of both signs only deeper in the search."""
    pipe = _pipe(name)
    rows, rhs = _search_system(pipe, w)
    mixed = next(r for r in rows if min(r) < 0 < max(r))
    for extra in (rows[-1], [a + b for a, b in zip(rows[-1], mixed)]):
        system = (rows + [extra], rhs + [Fraction(w + 1)])
        assert list(pipe._integral_points(*system, w)) == []


def test_zero_efficiency_reports():
    d2 = Pipeline(load("d2"))
    res = d2.check_zero_efficiency()
    assert res["status"] == "counterexample"
    comp_kinds = {kind for _, kind, _ in res["surface"].discs}
    assert comp_kinds <= {4, 5, 6}          # a two-quad sphere, no triangles
    assert res["surface"].components[0].chi == 2

    eff = Pipeline(load("two_tet_efficient")).check_zero_efficiency()
    assert eff["status"] == "no-counterexample-among-vertex-surfaces"
    assert eff["vertex_surfaces_checked"] > 0

    b1 = Pipeline(load("two_tet_b1")).check_zero_efficiency()
    assert b1["status"] == "counterexample"


@pytest.mark.parametrize("name", names())
def test_efficiency_builds_the_euler_row_once(monkeypatch, tmp_path,
                                              capsys, name):
    """The `efficiency` command's pipeline walks the tetrahedra for the
    Euler row once, for the unoriented row, and reads its oriented row
    off that one, equal to `chi_star_row`'s."""
    calls = []

    def counted(tri, oriented=True):
        calls.append(oriented)
        return chi_star_row(tri, oriented)

    monkeypatch.setattr(normball, "chi_star_row", counted)
    path = tmp_path / (name + ".json")
    path.write_text(fixture_json(name))
    assert cli.run(["efficiency", str(path)]) == 0
    assert '"status"' in capsys.readouterr().out
    assert calls == [False]
    pipe = Pipeline(load(name))
    assert pipe.chi_row[True] == chi_star_row(pipe.tri, True)
    assert pipe.chi_row[False] == chi_star_row(pipe.tri, False)
    assert calls == [False, False]


def test_hypothesis_warnings_on_d2(d2_pipe):
    ball = d2_pipe.norm_ball("strict")
    warnings = d2_pipe.hypothesis_warnings(ball)
    assert any("non-vertex-linking" in w for w in warnings)


def test_simplicial_warnings_skip_efficiency_search(monkeypatch, d2_pipe):
    """On a simplicial triangulation the 0-efficiency search decides no
    warning, so `hypothesis_warnings` does not run it."""
    def unreachable(self):
        raise AssertionError("0-efficiency search ran")

    ball = d2_pipe.norm_ball("strict")
    monkeypatch.setattr(normball, "is_simplicial", lambda tri: True)
    monkeypatch.setattr(Pipeline, "check_zero_efficiency", unreachable)
    assert d2_pipe.hypothesis_warnings(ball) == []


def test_simplex_boundary_is_not_zero_efficient():
    """The simplicial 3-sphere carries a non-vertex-linking normal sphere
    among its vertex surfaces, which `hypothesis_warnings` does not look
    for on a simplicial triangulation."""
    pipe = Pipeline(triangulation_from_json(simplex_boundary_json()))
    assert pipe.check_zero_efficiency()["status"] == "counterexample"


def test_simplicial_input_warns_without_efficiency_search(monkeypatch):
    """On a real simplicial triangulation, with `is_simplicial` itself
    deciding, `hypothesis_warnings` runs no 0-efficiency search, and a
    ball with no recession classes gets no warning."""
    def unreachable(self):
        raise AssertionError("0-efficiency search ran")

    pipe = Pipeline(triangulation_from_json(simplex_boundary_json()))
    monkeypatch.setattr(Pipeline, "check_zero_efficiency", unreachable)
    ball = NormBall("strict", 0, [], [], [()], [], [], None)
    assert pipe.hypothesis_warnings(ball) == []


# two_tet_b1 after one seeded 2-3 move (perfbench/moves.py, `grow` with
# seed "1/two_tet_b1"): three tetrahedra, and the first input here whose
# B is nonempty.
B1_GROWN = ('{"tets": [[[1, "0231"], [1, "2130"], [1, "0123"], [2, "0132"]], '
            '[[0, "0312"], [0, "3102"], [0, "0123"], [2, "0123"]], '
            '[[2, "1023"], [2, "1023"], [0, "0132"], [1, "0123"]]]}')


@pytest.fixture(scope="module")
def grown_pipe():
    return Pipeline(triangulation_from_json(B1_GROWN))


def test_first_nonempty_B(grown_pipe):
    """The grown two_tet_b1 has four B vertices, the ball {-1/2, 1/2} and
    only the warning that the triangulation is not simplicial."""
    ball = grown_pipe.norm_ball("strict")
    assert ball.b == 1
    assert ball.ball_vertices == [(Fraction(-1, 2),), (Fraction(1, 2),)]
    assert len(ball.B_vertices) == 4
    warnings = grown_pipe.hypothesis_warnings(ball)
    assert len(warnings) == 1 and "not simplicial" in warnings[0]


def test_try_representative_on_doubled_B_vertices(grown_pipe):
    """Twice each B vertex of the grown two_tet_b1 is an integral kernel
    point.  The two B vertices of class 0 give weight 8, each one
    orientable surface with chi = -2 carrying x's transverse orientation.
    The two of class +-1/2 give class +-1 at weight 17, with a 1-sided
    chi = 0 component besides, so neither is a taut representative."""
    tri = grown_pipe.tri
    seen = Counter()
    for v in grown_pipe.norm_ball("strict").B_vertices:
        x = NormalVector(tuple(2 * c for c in v), True)
        assert x.is_integral()
        cls = grown_pipe.hmap.class_of(x)
        surface = grown_pipe._try_representative(x)
        if cls == (0,):
            assert sum(x.coords) == 8
            assert [(c.chi, c.orientable) for c in surface.components] \
                == [(-2, True)]
            assert assign_transverse_orientation(tri, surface, x) is not None
        else:
            assert cls in ((1,), (-1,)) and sum(x.coords) == 17
            assert surface is None
            comps = reconstruct_surface(tri, forget_orientation(x)).components
            assert any(c.chi == 0 and not c.orientable for c in comps)
        seen[cls == (0,)] += 1
    assert seen == {True: 2, False: 2}


def test_asphericity_lp_is_zero_on_B_vertices(grown_pipe):
    """Each B vertex x is a scaled extreme ray of the oriented cone, so a
    cone point y with 0 <= y <= x has support inside supp(x) and is a
    multiple of x.  Maximizing the Euler functional over those y on the
    oriented matching rows therefore gives exactly 0, at y = 0: this is
    why `hypothesis_warnings` checks no B vertex for asphericity."""
    rows = [list(r) for r in grown_pipe.matching_oriented.rows]
    bverts = grown_pipe.norm_ball("strict").B_vertices
    assert bverts
    cone = grown_pipe._cone(True)
    for x in bverts:
        assert is_extreme_ray(cone, x)
        res = solve_lp(*bounded_lp(list(grown_pipe.chi_row[True][0]), rows,
                                   [0] * len(rows), x))
        assert res.optimal and res.value == 0


@pytest.mark.parametrize("name,oriented", FULL_CONES)
def test_filtered_rays_are_admissible_subset_of_full(name, oriented):
    """The quad-conflict filter drops exactly the inadmissible rays of the
    full cone and keeps the order."""
    pipe = _pipe(name)
    full = pipe.oriented_rays if oriented else pipe.unoriented_rays
    expected = [r for r in full
                if is_admissible(NormalVector(r.coords, oriented))]
    reject = quad_conflict_test(pipe.tri.num_tets, oriented)
    assert enumerate_extreme_rays(pipe._cone(oriented),
                                  reject=reject) == expected
    if not oriented:
        assert pipe.admissible_unoriented_rays == expected


def test_filtered_rays_three_tet_oriented():
    """The full oriented three_tet cone does not finish; every ray of the
    filtered one is admissible and extreme in the full cone."""
    pipe = _pipe("three_tet")
    cone = pipe._cone(True)
    rays = enumerate_extreme_rays(
        cone, reject=quad_conflict_test(pipe.tri.num_tets, True))
    assert len(rays) == 8
    for r in rays:
        assert is_admissible(NormalVector(r.coords, True))
        assert is_extreme_ray(cone, r.coords)


@pytest.mark.parametrize("name,oriented", FULL_CONES)
def test_projective_vertex_keeps_its_integer_ray(name, oriented):
    """A vertex holds its coprime integer ray and the ray's sum; its
    sum-one coordinates are ray / total as Fractions, and two vertices
    are equal exactly when their rays are: the tags take no part.  A
    vertex is immutable."""
    pipe = _pipe(name)
    rays = pipe.oriented_rays if oriented else pipe.unoriented_rays
    verts = pipe.enumerate_vertices(oriented)
    for r, v in zip(rays, verts):
        assert v.ray == r.coords and v.total == sum(r.coords)
        assert v.support == r.support
        assert "coords" not in vars(v)
        assert v.coords == tuple(Fraction(c, v.total) for c in r.coords)
        assert all(type(c) is Fraction for c in v.coords)
        other = ProjectiveVertex(v.ray, v.total, frozenset(), v.chi + 1,
                                 not v.admissible)
        assert other == v and hash(other) == hash(v)
        for field in ("ray", "total", "chi", "admissible"):
            with pytest.raises(AttributeError):
                setattr(v, field, None)
    assert len(set(verts)) == len(verts)


@pytest.mark.parametrize("name,oriented", FULL_CONES)
def test_vertex_tags_match_reference(name, oriented):
    """The integer tagging of enumerate_vertices agrees with chi_star and
    is_admissible on the normalized vertex."""
    pipe = _pipe(name)
    for v in pipe.enumerate_vertices(oriented):
        x = NormalVector(v.coords, oriented)
        assert v.chi == chi_star(pipe.tri, x)
        assert v.admissible == is_admissible(x)


def test_input_checks_survive_optimize():
    """Under python -O every input check below still raises ValueError:
    none of them is an assert.  The script prints the names of the checks
    that did not."""
    script = textwrap.dedent("""
        import sys
        from thurston.chi import chi_star
        from thurston.coords import (NormalVector, build_matching_system,
                                     forget_orientation, reverse_orientation)
        from thurston.fixtures import load
        from thurston.homology import homology_map_matrix
        from thurston.normball import Pipeline
        from thurston.rat import dot
        from thurston.surfaces import (assign_transverse_orientation,
                                       reconstruct_surface)

        tri = load("two_tet_b1")
        u = NormalVector((0,) * 14, False)
        o = NormalVector((0,) * 28, True)
        # One tetrahedron: the unoriented 14-vector u has the length of an
        # oriented vector, so only the orientation check can reject it.
        one = load("one_tet")
        surface = reconstruct_surface(one, NormalVector((0,) * 7, False))
        checks = {
            "forget_orientation": lambda: forget_orientation(
                NormalVector((1, 2, 3, 4), False)),
            "reverse_orientation": lambda: reverse_orientation(u),
            "add": lambda: u + o,
            "class_of": lambda: homology_map_matrix(tri).class_of(u),
            "class_of length": lambda: homology_map_matrix(tri).class_of(
                NormalVector((1, 0, 0), True)),
            "chi_star length": lambda: chi_star(
                one, NormalVector((1,) * 5, True)),
            "reconstruct_surface length": lambda: reconstruct_surface(
                one, u),
            "dual_cocycle": lambda: homology_map_matrix(tri).dual_cocycle(
                build_matching_system(tri, False), u),
            "is_in_kernel length": lambda: build_matching_system(
                tri, True).is_in_kernel((0,) * 3),
            "dual_cocycle length": lambda: homology_map_matrix(
                tri).dual_cocycle(build_matching_system(tri, True),
                                  NormalVector((0,) * 30, True)),
            "assign_transverse_orientation":
                lambda: assign_transverse_orientation(one, surface, u),
            "build_B": lambda: Pipeline(tri).build_B("bogus"),
            "dot": lambda: dot((1, 2), (1,)),
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
    src = os.path.dirname(os.path.dirname(os.path.abspath(thurston.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"], proc.stdout
