from fractions import Fraction

import pytest

from thurston.coords import NormalVector, forget_orientation, \
    vertex_linking_vector
from thurston.fixtures import load
from thurston.normball import (DegenerateNormBall, NormBall, NormBallError,
                               Pipeline, evaluate_norm)


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
