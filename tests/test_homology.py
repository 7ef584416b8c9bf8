import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from thurston.coords import (NormalVector, build_matching_system,
                             reverse_orientation, vertex_linking_vector)
from thurston.fixtures import fixture_json, load, names
from thurston.homology import (betti_numbers, cochain_complex,
                               edge_intersection_matrix, h1_basis,
                               homology_map_matrix)
from thurston.linalg import enumerate_extreme_rays, nullspace, rank_int
from thurston.normball import Pipeline
from thurston.rat import primitive_integer_vector
from thurston.triangulation import (FACE_CORNERS, is_simplicial,
                                   triangulation_from_json)

from test_normball import B1_GROWN


@pytest.fixture(scope="module")
def corpus():
    return {name: load(name) for name in names()}


def _kernel_basis(tri):
    m = build_matching_system(tri, oriented=True)
    return m, nullspace(m.rows, m.num_cols)


def _random_kernel(m, basis, rng):
    vec = [Fraction(0)] * m.num_cols
    for b in basis:
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for i, x in enumerate(b):
            vec[i] += c * x
    return NormalVector(tuple(vec), True)


def test_d1_d0_zero(corpus):
    for tri in corpus.values():
        cochain_complex(tri)  # checks d1 . d0 = 0 internally


def test_cochain_complex_reads_edges_forward(corpus):
    """`cochain_complex` takes each edge class along its first member and
    each face's edges from its corners in increasing order, with no sign
    flip: every class's first member has direction +1, and FACE_CORNERS is
    increasing."""
    for tri in corpus.values():
        assert all(tri.edge_direction[m[0]] == 1 for m in tri.edge_classes)
    assert all(list(c) == sorted(c) for c in FACE_CORNERS)


def test_betti_numbers(corpus):
    assert betti_numbers(corpus["d2"]) == (1, 0)
    assert betti_numbers(corpus["two_tet_b1"]) == (1, 1)
    assert betti_numbers(corpus["two_tet_efficient"])[0] == 1
    for tri in corpus.values():
        b0, _ = betti_numbers(tri)
        assert b0 == 1                      # connected input


def test_h1_basis_dimensions(corpus):
    for name, tri in corpus.items():
        h = homology_map_matrix(tri)
        assert h.b == betti_numbers(tri)[1]
        assert len(h.basis) == h.b
        # basis vectors are integral and primitive
        for v in h.basis:
            assert all(x.denominator == 1 for x in v)


def _assert_h1_contract(d0, d1, basis, projection_rows):
    """projection_rows . basis = I_b, projection_rows . d0 = 0 and
    d1 . basis = 0, with primitive integer basis vectors."""
    d0_cols = [list(col) for col in zip(*d0)]
    for k, p in enumerate(projection_rows):
        assert [sum(a * x for a, x in zip(p, v)) for v in basis] == \
            [int(j == k) for j in range(len(basis))]
        assert all(sum(a * x for a, x in zip(p, col)) == 0
                   for col in d0_cols)
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in d1)
        assert v == primitive_integer_vector(v)


def test_h1_contract_on_fixtures(corpus):
    for tri in corpus.values():
        h = homology_map_matrix(tri)
        _assert_h1_contract(h.d0, h.d1, h.basis, h.projection_rows)
        assert len(h.projection_rows) == h.b == betti_numbers(tri)[1]


def test_h1_contract_on_random_complexes():
    """Random integer complexes with d1 . d0 = 0: the rows of d1 are
    combinations of the left nullspace of d0, so H^1 of dimension two or
    more occurs, which no fixture has."""
    rng = random.Random(5)
    dims = set()
    for _ in range(300):
        ne, nv, nf = rng.randint(1, 8), rng.randint(1, 4), rng.randint(0, 5)
        d0 = [[rng.randint(-2, 2) for _ in range(nv)] for _ in range(ne)]
        left = [primitive_integer_vector(v) for v in
                nullspace([list(c) for c in zip(*d0)], ne)]
        d1 = [[sum(c * v[i] for c, v in zip(coeffs, left))
               for i in range(ne)]
              for coeffs in ([rng.randint(-1, 1) for _ in left]
                             for _ in range(nf))]
        basis, projection_rows = h1_basis(d0, d1)
        _assert_h1_contract(d0, d1, basis, projection_rows)
        assert len(basis) == ne - rank_int(d1) - rank_int(d0)
        dims.add(len(basis))
    assert max(dims) >= 3


def test_cocycle_condition_and_linearity(corpus):
    rng = random.Random(17)
    for name, tri in corpus.items():
        m, basis = _kernel_basis(tri)
        H = homology_map_matrix(tri)
        for _ in range(5):
            x = _random_kernel(m, basis, rng)
            z = H.dual_cocycle(m, x)      # checks the cocycle internally
            z2 = H.dual_cocycle(m, x.scale(2))
            assert z2 == tuple(2 * v for v in z)
            zr = H.dual_cocycle(m, reverse_orientation(x))
            assert zr == tuple(-v for v in z)


def test_noncocycle_input_rejected(corpus):
    tri = corpus["d2"]
    m = build_matching_system(tri, oriented=True)
    bad = NormalVector((1,) + (0,) * 27, True)
    with pytest.raises(ValueError, match="matching equations"):
        homology_map_matrix(tri).dual_cocycle(m, bad)


def test_vertex_linking_cocycles_are_coboundaries(corpus):
    for tri in corpus.values():
        m = build_matching_system(tri, oriented=True)
        H = homology_map_matrix(tri)
        for vc in range(len(tri.vertex_classes)):
            for sign in (1, -1):
                link = vertex_linking_vector(tri, vc, sign, True)
                z = H.dual_cocycle(m, link)
                assert H.is_coboundary(z)


def test_class_of_properties(corpus):
    rng = random.Random(23)
    for name, tri in corpus.items():
        H = homology_map_matrix(tri)
        m, basis = _kernel_basis(tri)
        zero = NormalVector((0,) * m.num_cols, True)
        assert H.class_of(zero) == (Fraction(0),) * H.b
        for vc in range(len(tri.vertex_classes)):
            link = vertex_linking_vector(tri, vc, 1, True)
            assert all(c == 0 for c in H.class_of(link))
        for _ in range(5):
            x = _random_kernel(m, basis, rng)
            cx = H.class_of(x)
            assert H.class_of(reverse_orientation(x)) == \
                tuple(-c for c in cx)
            assert H.class_of(x.scale(3)) == tuple(3 * c for c in cx)


def test_rho_paired_columns_are_negatives(corpus):
    for tri in corpus.values():
        H = homology_map_matrix(tri)
        for row in H.rows:
            for i in range(0, len(row), 2):
                assert row[i] == -row[i + 1]


def test_face_choice_independence(corpus):
    """The intersection count of a kernel element with an edge class is the
    same computed from any face containing the edge, not only the chosen
    one; checked by recomputing through every (tet, face, edge) corner."""
    from thurston.coords import (disc_index, quad_arc_sign_factor,
                                 quad_kind_for_arc)
    from thurston.triangulation import EDGES
    rng = random.Random(31)
    for name, tri in corpus.items():
        m, basis = _kernel_basis(tri)
        H = homology_map_matrix(tri)
        for _ in range(3):
            x = _random_kernel(m, basis, rng)
            z = H.dual_cocycle(m, x)
            for e, members in enumerate(tri.edge_classes):
                for tet, ei in members:
                    p, q = EDGES[ei]
                    if tri.edge_direction[(tet, ei)] < 0:
                        p, q = q, p
                    for face in range(4):
                        if face in EDGES[ei]:
                            continue
                        val = Fraction(0)
                        for cut, wgt in ((q, 1), (p, -1)):
                            for s in (1, -1):
                                val += wgt * s * x.coords[
                                    disc_index(tet, cut, s, True)]
                                qk = quad_kind_for_arc(face, cut)
                                val += wgt * s * x.coords[disc_index(
                                    tet, qk,
                                    quad_arc_sign_factor(face, cut) * s,
                                    True)]
                        assert val == z[e]


def test_surjectivity_at_desk_scale(corpus):
    """On the b = 1 fixture the homology map restricted to the oriented
    matching kernel has full rank."""
    tri = corpus["two_tet_b1"]
    H = homology_map_matrix(tri)
    assert H.b == 1
    m, basis = _kernel_basis(tri)
    image = [H.class_of(NormalVector(v, True)) for v in basis]
    assert rank_int(image) == 1


def test_edge_matrix_shape(corpus):
    for tri in corpus.values():
        z = edge_intersection_matrix(tri)
        assert len(z) == len(tri.edge_classes)
        assert all(len(row) == 14 * tri.num_tets for row in z)


def t3_json():
    """T^3 as the Kuhn subdivision of the unit cube with opposite faces
    identified: a test-only input, outside `fixtures.TABLES`.

    Tetrahedron pi, a permutation of the axes, has vertices 0, e_pi0,
    e_pi0 + e_pi1 and (1, 1, 1).  Faces 1 and 2 glue by 0123 to the
    tetrahedra with (pi0, pi1), resp. (pi1, pi2), swapped.  Face 0 glues
    by 3012 to (pi1, pi2, pi0), translated by -e_pi0, and face 3 by 1230
    to (pi2, pi0, pi1), translated by +e_pi2."""
    perms = list(itertools.permutations(range(3)))
    index = {pi: i for i, pi in enumerate(perms)}
    tets = [[[index[b, c, a], "3012"], [index[b, a, c], "0123"],
             [index[a, c, b], "0123"], [index[c, a, b], "1230"]]
            for a, b, c in perms]
    return json.dumps({"tets": tets})


@pytest.fixture(scope="module")
def t3():
    return triangulation_from_json(t3_json())


def test_t3_skeleton(t3):
    assert t3.num_tets == 6
    assert len(t3.vertex_classes) == 1
    assert len(t3.edge_classes) == 7
    assert not is_simplicial(t3)
    assert betti_numbers(t3) == (1, 3)


def test_t3_admissible_rays_by_euler_sign_and_class(t3):
    """The quad-filtered oriented double description only: the full one
    (`oriented_rays`, hence `build_B` and `norm_ball`) runs for over ten
    minutes on T^3.  Its 41 admissible rays: 7 with chi* < 0 (the B
    vertices), all of class 0, as norm 0 on T^3 requires; 32 with
    chi* = 0, of which 18 carry a nonzero class (the atoroidality
    certificates of the `le` ball); and 2 with chi* > 0."""
    pipe = Pipeline(t3)
    rays = enumerate_extreme_rays(pipe._cone(True),
                                  reject=pipe.quad_conflict[True])
    nums, _ = pipe.chi_row[True]
    counts = Counter()
    for ray in rays:
        p = sum(a * c for a, c in zip(nums, ray.coords))
        cls = pipe.hmap.class_of(NormalVector(ray.coords, True))
        counts[(p > 0) - (p < 0), any(cls)] += 1
    assert counts == {(-1, False): 7, (0, False): 14, (0, True): 18,
                      (1, False): 2}


@pytest.mark.parametrize("text,radius,cocycles", [
    pytest.param(fixture_json("two_tet_b1"), 3, 3, id="two_tet_b1"),
    pytest.param(B1_GROWN, 3, 3, id="b1_grown"),
    pytest.param(t3_json(), 1, 13, id="t3")])
def test_projection_of_integer_cocycles_is_integral(text, radius, cocycles):
    """Every integer cocycle with entries in [-radius, radius] has
    integral coordinates in the H^1 basis."""
    tri = triangulation_from_json(text)
    h = homology_map_matrix(tri)
    found = 0
    for z in itertools.product(range(-radius, radius + 1),
                               repeat=len(h.d0)):
        if any(sum(a * v for a, v in zip(row, z)) for row in h.d1):
            continue
        found += 1
        assert all(Fraction(sum(a * v for a, v in zip(row, z))).denominator
                   == 1 for row in h.projection_rows)
    assert found == cocycles
