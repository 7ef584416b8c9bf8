import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import cache

import pytest

import thurston
from thurston.chi import chi_star
from thurston.coords import NormalVector, forget_orientation, \
    is_admissible, quad_conflict_test, vertex_linking_vector
from thurston.fixtures import load, names
from thurston.linalg import enumerate_extreme_rays, is_extreme_ray
from thurston.normball import (DegenerateNormBall, NormBall, NormBallError,
                               Pipeline, evaluate_norm)

# Every (fixture, theory) whose full double description finishes: the
# oriented three_tet cone does not.
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


def test_hypothesis_warnings_on_d2(d2_pipe):
    ball = d2_pipe.norm_ball("strict")
    warnings = d2_pipe.hypothesis_warnings(ball)
    assert any("non-vertex-linking" in w for w in warnings)


def test_hypothesis_warning_flags_nonaspherical_vertex(d2_pipe):
    link = vertex_linking_vector(d2_pipe.tri, 0, 1, True)
    fake = d2_pipe.norm_ball("strict")
    fake.B_vertices = [link.coords]
    warnings = d2_pipe.hypothesis_warnings(fake)
    assert any("not algebraically aspherical" in w for w in warnings)


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
        from thurston.coords import (NormalVector, build_matching_system,
                                     forget_orientation, reverse_orientation)
        from thurston.fixtures import load
        from thurston.homology import dual_cocycle, homology_map_matrix
        from thurston.normball import Pipeline
        from thurston.rat import dot
        from thurston.surfaces import (assign_transverse_orientation,
                                       is_algebraically_aspherical,
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
            "dual_cocycle": lambda: dual_cocycle(
                tri, build_matching_system(tri, False), u),
            "assign_transverse_orientation":
                lambda: assign_transverse_orientation(one, surface, u),
            "is_algebraically_aspherical":
                lambda: is_algebraically_aspherical(tri, u),
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
