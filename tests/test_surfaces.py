import random
from collections import Counter
from fractions import Fraction

import pytest

import thurston.normball as normball
from thurston.chi import chi_star
from thurston.coords import (NormalVector, QUAD_PAIR, TRI_KINDS,
                             build_matching_system, disc_edges, disc_index,
                             forget_orientation, is_admissible,
                             quad_arc_sign_factor, quad_kind_for_arc,
                             vertex_linking_vector)
from thurston.fixtures import load, names
from thurston.normball import Pipeline
from thurston.surfaces import (NormalSurface, SurfaceComponent,
                               add_compatible, assign_transverse_orientation,
                               reconstruct_surface)
from thurston.triangulation import (EDGE_INDEX, FACE_CORNERS,
                                    triangulation_from_json)

from test_homology import t3_json
from test_normball import B1_GROWN


@pytest.fixture(scope="module")
def d2():
    return load("d2")


def _two_quad(kind):
    x = [0] * 14
    x[disc_index(0, kind, oriented=False)] = 1
    x[disc_index(1, kind, oriented=False)] = 1
    return NormalVector(tuple(x), False)


def test_vertex_link_reconstruction(d2):
    x = forget_orientation(vertex_linking_vector(d2, 0, 1, True))
    s = reconstruct_surface(d2, x)
    assert len(s.components) == 1
    c = s.components[0]
    assert (c.chi, c.orientable, c.vertex_linking, c.vertex_class,
            c.genus) == (2, True, True, 0, 0)


def test_two_quad_sphere(d2):
    s = reconstruct_surface(d2, _two_quad(4))
    assert len(s.components) == 1
    c = s.components[0]
    assert c.chi == 2 and c.orientable and not c.vertex_linking


def test_parallel_copies(d2):
    x = forget_orientation(vertex_linking_vector(d2, 0, 1, True)).scale(2)
    s = reconstruct_surface(d2, x)
    assert len(s.components) == 2
    assert all(c.chi == 2 and c.vertex_linking for c in s.components)


def test_reconstruction_preconditions(d2):
    with pytest.raises(ValueError, match="nonnegative"):
        reconstruct_surface(d2, NormalVector((-1,) + (0,) * 13, False))
    with pytest.raises(ValueError, match="integral"):
        reconstruct_surface(
            d2, NormalVector((Fraction(1, 2),) + (0,) * 13, False))
    bad = [0] * 14
    bad[disc_index(0, 4, oriented=False)] = 1
    bad[disc_index(0, 5, oriented=False)] = 1
    with pytest.raises(ValueError, match="admissible"):
        reconstruct_surface(d2, NormalVector(tuple(bad), False))
    nonker = [0] * 14
    nonker[disc_index(0, 0, oriented=False)] = 1
    with pytest.raises(ValueError, match="matching"):
        reconstruct_surface(d2, NormalVector(tuple(nonker), False))


def test_determinism(d2):
    x = _two_quad(5)
    a = reconstruct_surface(d2, x)
    b = reconstruct_surface(load("d2"), x)
    assert a.report() == b.report()
    assert a.discs == b.discs
    assert a.gluings == b.gluings


def test_chi_oracle_on_corpus():
    """Euler functional equals V - E + F of the reference reconstruction's
    cell structure for random admissible integral kernel vectors built
    from compatible vertex surfaces."""
    from thurston.linalg import ConeDescription, enumerate_extreme_rays
    from thurston.coords import is_admissible, num_coords
    rng = random.Random(41)
    checked = 0
    for name in names():
        tri = load(name)
        m = build_matching_system(tri, oriented=False)
        cone = ConeDescription(tuple(m.rows), m.num_cols)
        rays = [r for r in enumerate_extreme_rays(cone)
                if is_admissible(NormalVector(r.coords, False))]
        for _ in range(12):
            total = NormalVector((0,) * m.num_cols, False)
            for r in sorted(rays, key=lambda r: r.coords):
                cand = total + NormalVector(r.coords, False).scale(
                    rng.randint(0, 2))
                if is_admissible(cand):
                    total = cand
            if all(c == 0 for c in total.coords):
                continue
            surface = _reference_reconstruct(tri, total)
            assert chi_star(tri, total) == surface.total_chi
            checked += 1
    assert checked >= 40


def test_assign_orientations(d2):
    link_out = vertex_linking_vector(d2, 0, 1, True)
    link_in = vertex_linking_vector(d2, 0, -1, True)
    x = forget_orientation(link_out)
    s = reconstruct_surface(d2, x)
    assert assign_transverse_orientation(d2, s, link_out) is not None
    assert assign_transverse_orientation(d2, s, link_in) is not None
    mixed = NormalVector(tuple(
        1 if i in (disc_index(0, 0, 1, True), disc_index(1, 0, -1, True))
        else 0 for i in range(28)), True)
    assert assign_transverse_orientation(d2, s, mixed) is None

    both = add_compatible(link_out, link_in)
    s2 = reconstruct_surface(d2, forget_orientation(both))
    assert assign_transverse_orientation(d2, s2, both) == [1, -1]


def test_one_sided_surface_has_no_transverse_orientation():
    """one_tet's admissible vertex surface of one quad is a Klein bottle,
    so neither of its oriented lifts, all of its weight on the +1 or all
    on the -1 orientation, is realized by a transverse orientation."""
    tri = load("one_tet")
    s = reconstruct_surface(tri, NormalVector((0, 0, 0, 0, 0, 1, 0), False))
    [comp] = s.components
    assert (comp.chi, comp.orientable, comp.genus) == (0, False, None)
    for sign in (1, -1):
        lift = [0] * 14
        lift[disc_index(0, 5, sign, True)] = 1
        assert assign_transverse_orientation(
            tri, s, NormalVector(tuple(lift), True)) is None


def test_assign_requires_matching_projection(d2):
    s = reconstruct_surface(
        d2, forget_orientation(vertex_linking_vector(d2, 0, 1, True)))
    wrong = vertex_linking_vector(d2, 1, 1, True)
    with pytest.raises(ValueError, match="project"):
        assign_transverse_orientation(d2, s, wrong)


def test_add_compatible_rules(d2):
    link = vertex_linking_vector(d2, 0, 1, True)
    zero = NormalVector((0,) * 28, True)
    assert (link + zero).coords == link.coords
    with pytest.raises(ValueError, match="tetrahedron 0"):
        add_compatible(_two_quad(4), _two_quad(5))


def test_add_compatible_negative_sum_rejected():
    x = _two_quad(4)
    with pytest.raises(ValueError, match="nonnegative"):
        add_compatible(x, x.scale(-2))


def test_disjoint_links_sum(d2):
    a = forget_orientation(vertex_linking_vector(d2, 0, 1, True))
    b = forget_orientation(vertex_linking_vector(d2, 1, 1, True))
    s = reconstruct_surface(d2, add_compatible(a, b))
    assert len(s.components) == 2
    assert all(c.chi == 2 for c in s.components)


def _reference_reconstruct(tri, x):
    """The reconstruction as it was before it worked on integer counts: a
    Fraction per weight, discs keyed by (tet, kind, sheet) in a dict, a
    per-disc arc sign and a union-find over corners keyed by (disc,
    edge).  Preconditions are the caller's."""
    parent = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def eta(kind, face, corner):
        return 1 if kind in TRI_KINDS else quad_arc_sign_factor(face, corner)

    def count(tet, kind):
        return int(Fraction(x.coords[disc_index(tet, kind, oriented=False)]))

    def arc_stack(tet, face, corner):
        stack = [disc_ids[(tet, corner, s)] for s in range(count(tet, corner))]
        qk = quad_kind_for_arc(face, corner)
        sheets = range(count(tet, qk))
        if corner not in QUAD_PAIR[qk]:
            sheets = reversed(sheets)
        return stack + [disc_ids[(tet, qk, s)] for s in sheets]

    discs = []
    disc_ids = {}
    for tet in range(tri.num_tets):
        for kind in range(7):
            for sheet in range(count(tet, kind)):
                disc_ids[(tet, kind, sheet)] = len(discs)
                discs.append((tet, kind, sheet))
    gluings = []
    for (tet_m, f_m), (tet_p, f_p) in tri.face_classes:
        g = tri.gluings[tet_m][f_m]
        for corner in FACE_CORNERS[f_m]:
            side_m = arc_stack(tet_m, f_m, corner)
            side_p = arc_stack(tet_p, f_p, g.perm[corner])
            assert len(side_m) == len(side_p)
            for da, db in zip(side_m, side_p):
                rel = eta(discs[da][1], f_m, corner) * \
                    eta(discs[db][1], f_p, g.perm[corner])
                gluings.append((da, f_m, db, f_p, rel, corner))
    surface = NormalSurface(x, discs, [gl[:5] for gl in gluings])

    n = len(discs)
    sign = [0] * n
    comp = [0] * n
    two_sided = {}
    adj = [[] for _ in range(n)]
    for da, _, db, _, rel, _ in gluings:
        adj[da].append((db, rel))
        adj[db].append((da, rel))
    for root in range(n):
        if sign[root] != 0:
            continue
        sign[root] = 1
        comp[root] = root
        ok = True
        queue = [root]
        while queue:
            cur = queue.pop()
            for nxt, rel in adj[cur]:
                want = rel * sign[cur]
                if sign[nxt] == 0:
                    sign[nxt] = want
                    comp[nxt] = root
                    queue.append(nxt)
                elif sign[nxt] != want:
                    ok = False
        two_sided[root] = ok
    surface._disc_sign = sign

    corner_ids = {}
    for i, (tet, kind, _) in enumerate(discs):
        for pair in disc_edges(kind):
            corner_ids[(i, EDGE_INDEX[pair])] = len(corner_ids)
    parent.extend(range(len(corner_ids)))
    for da, f_a, db, f_b, _, corner in gluings:
        g = tri.gluings[discs[da][0]][f_a]
        for w in FACE_CORNERS[f_a]:
            if w != corner:
                ra = find(corner_ids[(da, EDGE_INDEX[(corner, w)])])
                rb = find(corner_ids[(db, EDGE_INDEX[(g.perm[corner],
                                                      g.perm[w])])])
                parent[max(ra, rb)] = min(ra, rb)
    comp_discs = {}
    for i in range(n):
        comp_discs.setdefault(comp[i], []).append(i)
    comp_verts = {}
    orbits = set()
    for (i, _), cid in corner_ids.items():
        orbit = find(cid)
        if orbit not in orbits:
            orbits.add(orbit)
            comp_verts[comp[i]] = comp_verts.get(comp[i], 0) + 1
    comp_edges = {}
    for da, _, _, _, _, _ in gluings:
        comp_edges[comp[da]] = comp_edges.get(comp[da], 0) + 1
    for root in sorted(comp_discs):
        ids = comp_discs[root]
        chi = comp_verts.get(root, 0) - comp_edges.get(root, 0) + len(ids)
        vl, vc = _reference_vertex_linking(tri, discs, ids)
        surface.components.append(SurfaceComponent(
            ids, chi, two_sided[root], vl, vc,
            (2 - chi) // 2 if two_sided[root] else None))
    return surface


def test_surfaces_never_share_a_components_list():
    """A surface built without components gets a list of its own; surfaces
    compare field by field and are unhashable."""
    x = NormalVector((0,) * 7, False)
    a, b = NormalSurface(x, [], []), NormalSurface(x, [], [])
    assert a.components == [] and a.components is not b.components
    a.components.append(SurfaceComponent([0], 2, True, True, 0, 0))
    assert b.components == [] and a != b
    b.components.append(SurfaceComponent([0], 2, True, True, 0, 0))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def _reference_vertex_linking(tri, discs, ids):
    corners = set()
    for i in ids:
        tet, kind, _ = discs[i]
        if kind not in TRI_KINDS:
            return False, None
        corners.add((tet, kind))
    classes = {tri.vertex_class[c] for c in corners}
    if len(classes) != 1:
        return False, None
    vc = classes.pop()
    if len(ids) != len(tri.vertex_classes[vc]):
        return False, None
    assert corners == set(tri.vertex_classes[vc])
    return True, vc


def _differential_inputs():
    """(name, tri, x): every admissible vertex of the unoriented cone of
    every fixture and of the grown two_tet_b1, at 1, 2 and 3 times its
    primitive integer ray, and seeded sums of compatible pairs of them."""
    rng = random.Random(18)
    tris = [(name, load(name)) for name in names()]
    tris.append(("b1_grown", triangulation_from_json(B1_GROWN)))
    for name, tri in tris:
        rays = [NormalVector(r.coords, False)
                for r in Pipeline(tri).admissible_unoriented_rays]
        for x in rays:
            for k in (1, 2, 3):
                yield name, tri, x.scale(k)
        pairs = [(x, y) for i, x in enumerate(rays) for y in rays[i + 1:]
                 if is_admissible(x + y)]
        for x, y in rng.sample(pairs, min(len(pairs), 12)):
            yield name, tri, x.scale(rng.randint(1, 3)) + \
                y.scale(rng.randint(1, 3))


def test_reconstruction_matches_reference():
    """Discs, gluings, components and transverse signs agree with the
    reference reconstruction, on vertex surfaces, their multiples and
    sums of compatible pairs."""
    seen = Counter()
    for name, tri, x in _differential_inputs():
        got = reconstruct_surface(tri, x)
        want = _reference_reconstruct(tri, x)
        assert got.discs == want.discs, (name, x)
        assert got.gluings == want.gluings, (name, x)
        assert got.components == want.components, (name, x)
        assert got._disc_sign == want._disc_sign, (name, x)
        seen[name] += 1
        seen["one-sided"] += any(not c.orientable for c in got.components)
        seen["multi"] += len(got.components) > 1
    assert seen["b1_grown"] >= 30 and seen["one-sided"] and seen["multi"]


def test_matching_equations_are_checked_on_the_arc_stacks():
    """reconstruct_surface rejects a vector for the matching equations
    exactly when the unoriented matching system does, on the differential
    inputs and T^3's vertex surfaces, each also with one triangle
    coordinate raised by 1 (still admissible).  Both outcomes occur on
    every triangulation."""
    t3 = _scan_input("t3")
    inputs = [*_differential_inputs(),
              *(("t3", t3, NormalVector(r.coords, False))
                for r in Pipeline(t3).admissible_unoriented_rays)]
    systems = {}
    seen = Counter()
    for name, tri, x in inputs:
        if name not in systems:
            systems[name] = build_matching_system(tri, oriented=False)
        for j in [None, *(disc_index(tet, k, oriented=False)
                          for tet in range(tri.num_tets) for k in TRI_KINDS)]:
            c = list(x.coords)
            if j is not None:
                c[j] += 1
            y = NormalVector(tuple(c), False)
            kernel = systems[name].is_in_kernel(y.coords)
            if kernel:
                reconstruct_surface(tri, y)
            else:
                with pytest.raises(ValueError,
                                   match="^matching equations violated$"):
                    reconstruct_surface(tri, y)
            seen[name, kernel] += 1
    assert {name for name, _ in seen} == {*names(), "b1_grown", "t3"}
    assert all(seen[name, True] and seen[name, False] for name, _ in seen)


# Per input: (admissible unoriented vertex surfaces, non-vertex-linking
# spheres among them, vertex links among them).
VERTEX_SURFACES = {"d2": (7, 3, 4), "one_tet": (2, 0, 1),
                   "three_tet": (3, 0, 1), "two_tet_b1": (4, 1, 1),
                   "two_tet_efficient": (2, 0, 1), "b1_grown": (6, 1, 1),
                   "t3": (11, 0, 1)}


def _scan_input(name):
    """A fixture, the grown two_tet_b1 or T^3, by name."""
    if name == "b1_grown":
        return triangulation_from_json(B1_GROWN)
    if name == "t3":
        return triangulation_from_json(t3_json())
    return load(name)


@pytest.mark.parametrize("name", sorted(VERTEX_SURFACES))
def test_vertex_surfaces_are_read_off_their_rays(name):
    """Every admissible unoriented vertex surface reconstructs to one
    component.  It is a non-vertex-linking sphere exactly when its ray
    has Euler functional 2 and is not a vertex link's vector, and it is
    vertex linking exactly when the reference corner test says so."""
    tri = _scan_input(name)
    pipe = Pipeline(tri)
    nums, den = pipe.chi_row[False]
    links = {vertex_linking_vector(tri, vc, oriented=False).coords
             for vc in range(len(tri.vertex_classes))}
    rays = pipe.admissible_unoriented_rays
    spheres = linked = 0
    for ray in rays:
        c = ray.coords
        surface = reconstruct_surface(tri, NormalVector(c, False))
        (comp,) = surface.components
        assert (comp.vertex_linking, comp.vertex_class) == \
            _reference_vertex_linking(tri, surface.discs, comp.discs)
        sphere = comp.chi == 2 and not comp.vertex_linking
        rule = sum(a * b for a, b in zip(nums, c)) == 2 * den and \
            c not in links
        assert rule == sphere, (name, c)
        spheres += sphere
        linked += comp.vertex_linking
    assert (len(rays), spheres, linked) == VERTEX_SURFACES[name]


def _reference_scan(pipe):
    """The 0-efficiency scan as a search of every reconstructed vertex
    surface for a non-vertex-linking sphere component."""
    rays = pipe.admissible_unoriented_rays
    for ray in rays:
        x = NormalVector(ray.coords, False)
        surface = reconstruct_surface(pipe.tri, x)
        if any(c.chi == 2 and c.orientable and not c.vertex_linking
               for c in surface.components):
            return {"status": "counterexample", "coords": x,
                    "surface": surface}
    return {"status": "no-counterexample-among-vertex-surfaces",
            "vertex_surfaces_checked": len(rays)}


@pytest.mark.parametrize("name,calls", [
    ("d2", 1), ("two_tet_b1", 1), ("b1_grown", 1), ("one_tet", 0),
    ("three_tet", 0), ("two_tet_efficient", 0), ("t3", 0)])
def test_zero_efficiency_rebuilds_only_the_reported_sphere(
        monkeypatch, name, calls):
    """The scan gives the full search's result and reconstructs only the
    ray it reports."""
    pipe = Pipeline(_scan_input(name))
    want = _reference_scan(pipe)
    seen = []

    def counted(*args):
        seen.append(args[1])
        return reconstruct_surface(*args)

    monkeypatch.setattr(normball, "reconstruct_surface", counted)
    assert pipe.check_zero_efficiency() == want
    assert len(seen) == calls


def test_zero_efficiency_certifies_the_reported_sphere(monkeypatch):
    """A reported ray whose surface is not one non-vertex-linking sphere
    raises: here twice the ray, two parallel spheres."""
    def doubled(tri, x):
        return reconstruct_surface(tri, x.scale(2))

    monkeypatch.setattr(normball, "reconstruct_surface", doubled)
    with pytest.raises(ArithmeticError, match="non-vertex-linking sphere"):
        Pipeline(load("d2")).check_zero_efficiency()
