"""The norm-ball pipeline: vertices of the projective solution space, the
scaled polytope of admissible negative-Euler-characteristic vertices, its
image under the homology map, norm evaluation as a gauge, taut
representative search, and the 0-efficiency diagnostic.

Everything is exact.  The strict variant keeps admissible vertices with
negative Euler functional and scales each to value -1; the nonstrict
variant also keeps the admissible zero-value vertices as recession
directions, whose homology classes certify a failed atoroidality
hypothesis when nonzero.
"""

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from operator import mul

from .chi import chi_star_row, oriented_chi_row
from .coords import (NormalVector, build_matching_system, forget_orientation,
                     num_coords, quad_conflict_test, vertex_linking_vector)
from .homology import homology_map_matrix
from .linalg import (ConeDescription, enumerate_extreme_rays,
                     remove_redundant_points, rref, solve_lp)
from .rat import (check_rational, integer_numerators,
                  primitive_integer_vector)
from .record import FrozenRecord, Record
from .surfaces import assign_transverse_orientation, reconstruct_surface
from .triangulation import is_simplicial


class NormBallError(ValueError):
    pass


class DegenerateNormBall(NormBallError):
    """The class lies outside the cone of the computed unit ball; expected
    when the manifold violates the atoroidality or irreducibility
    hypotheses and the strict variant was used."""


class ProjectiveVertex(FrozenRecord):
    """An extreme point of the projective solution space, tagged with its
    Euler functional value and admissibility.

    It keeps the extreme ray's coprime integer coordinates `ray` and their
    sum `total`; `coords`, the point with coordinates summing to one
    (ray / total, as Fractions), is built on first access only.

    Vertices are equal, and hash alike, when `ray` and `total` are; the
    tags take no part.  They are immutable (assignment raises
    AttributeError)."""

    _fields = ("ray", "total", "support", "chi", "admissible")
    _compared = ("ray", "total")

    def __init__(self, ray, total, support, chi, admissible):
        object.__setattr__(self, "ray", ray)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "admissible", admissible)

    @cached_property
    def coords(self):
        total = self.total
        return tuple(Fraction(c, total) if c else _ZERO for c in self.ray)


class NormBall(Record):
    """The computed unit ball of one variant in H^1 basis coordinates,
    with the B vertices and recession vertices it was built from.  Balls
    are equal when all eight fields are; they are mutable and
    unhashable."""

    __slots__ = _fields = _compared = (
        "variant", "b", "basis", "B_vertices", "ball_vertices",
        "recession_vertices", "recession_classes", "hmap")

    def __init__(self, variant, b, basis, B_vertices, ball_vertices,
                 recession_vertices, recession_classes, hmap):
        self.variant = variant
        self.b = b
        self.basis = basis
        self.B_vertices = B_vertices
        self.ball_vertices = ball_vertices
        self.recession_vertices = recession_vertices
        self.recession_classes = recession_classes
        self.hmap = hmap


_ZERO = Fraction(0)


class Pipeline:
    """Caches the derived systems of one triangulation across operations.

    Every stage is pure, so the cache never changes an output.

    `oriented_rays` and `unoriented_rays` are the full cones: every
    extreme ray, admissible or not.  `enumerate_vertices` reports them,
    and `build_B` (hence `norm_ball`, `find_taut_representative` and the
    `ball`, `norm` and `representative` commands) filters the oriented one
    with `quad_conflict`, before it builds a vertex's rational
    coordinates.  `admissible_unoriented_rays` is the
    unoriented cone enumerated with the quad-conflict filter, so its
    double description never builds an inadmissible ray; only
    `check_zero_efficiency` (the `efficiency` command and the warnings of
    `ball`) uses it, reading a non-vertex-linking sphere off each ray and
    reconstructing only the one it reports.  Those warnings check no B
    vertex on its own (see `hypothesis_warnings`).

    `chi_row` holds the Euler functional once per theory, as integer
    numerators over one common denominator (`chi_star_row`); every Euler
    value the pipeline computes reads it.
    """

    def __init__(self, tri):
        self.tri = tri

    @cached_property
    def matching_oriented(self):
        return build_matching_system(self.tri, oriented=True)

    @cached_property
    def matching_unoriented(self):
        return build_matching_system(self.tri, oriented=False)

    @cached_property
    def chi_row(self):
        """Per theory (keyed by `oriented`), the Euler functional as
        `chi_star_row` gives it: integer numerators over one common
        denominator.  The oriented row is read off the unoriented one
        (`oriented_chi_row`), so the tetrahedra are walked once."""
        row = chi_star_row(self.tri, oriented=False)
        return {True: oriented_chi_row(row), False: row}

    @cached_property
    def hmap(self):
        return homology_map_matrix(self.tri)

    def _cone(self, oriented):
        m = self.matching_oriented if oriented else self.matching_unoriented
        return ConeDescription(tuple(m.rows), m.num_cols)

    @cached_property
    def quad_conflict(self):
        """Per theory (keyed by `oriented`), the monotone support-mask
        predicate of inadmissibility."""
        t = self.tri.num_tets
        return {o: quad_conflict_test(t, o) for o in (True, False)}

    @cached_property
    def oriented_rays(self):
        return enumerate_extreme_rays(self._cone(True))

    @cached_property
    def unoriented_rays(self):
        return enumerate_extreme_rays(self._cone(False))

    @cached_property
    def admissible_unoriented_rays(self):
        """The admissible members of `unoriented_rays`, in the same order,
        from the filtered double description."""
        return enumerate_extreme_rays(self._cone(False),
                                      reject=self.quad_conflict[False])

    def enumerate_vertices(self, oriented=True):
        """Sum-one normalizations of the extreme rays of the chosen cone,
        tagged with Euler functional value and admissibility.  A vertex's
        value is the row's numerators dotted with the integer ray, over
        den times the ray's sum: one Fraction, and no coordinate becomes
        a Fraction here."""
        rays = self.oriented_rays if oriented else self.unoriented_rays
        nums, den = self.chi_row[oriented]
        conflict = self.quad_conflict[oriented]
        verts = []
        for ray in rays:
            coords = ray.coords
            total = sum(coords)
            chi = Fraction(sum(map(mul, nums, coords)), den * total)
            verts.append(ProjectiveVertex(coords, total, ray.support, chi,
                                          not conflict(ray.mask)))
        return verts

    def build_B(self, variant="strict"):
        """Scaled vertex sets: (B_vertices, recession_vertices).

        On an admissible integer ray c with p = nums . c, the B vertex
        (the ray scaled to Euler functional -1) is c * den / -p when
        p < 0, and the recession vertex is c / sum(c) when p = 0."""
        if variant not in ("strict", "le"):
            raise ValueError("unknown variant %r" % (variant,))
        bverts = []
        recession = []
        conflict = self.quad_conflict[True]
        nums, den = self.chi_row[True]
        for ray in self.oriented_rays:
            if conflict(ray.mask):
                continue
            c = ray.coords
            p = sum(map(mul, nums, c))
            if p < 0:
                bverts.append(tuple(Fraction(ci * den, -p) for ci in c))
            elif p == 0 and variant == "le":
                total = sum(c)
                recession.append(tuple(Fraction(ci, total) for ci in c))
        return bverts, recession

    def norm_ball(self, variant="strict"):
        bverts, recession = self.build_B(variant)
        hmap = self.hmap
        b = hmap.b
        images = [hmap.class_of(NormalVector(w, True)) for w in bverts]
        if images:
            ball = remove_redundant_points(images)
        else:
            ball = [tuple(Fraction(0) for _ in range(b))]
        rec_classes = [hmap.class_of(NormalVector(w, True))
                       for w in recession]
        return NormBall(variant, b, [list(v) for v in hmap.basis],
                        bverts, ball, recession, rec_classes, hmap)

    # -- representative search ---------------------------------------------

    def find_taut_representative(self, alpha, w_max):
        """First admissible integral oriented kernel point of total weight
        <= w_max mapping to alpha with Euler functional -|alpha| whose
        surface has no sphere, torus or 1-sided component and admits the
        prescribed transverse orientation.

        Points are visited in increasing total weight, lexicographically
        within each weight.  Returns a TautRepresentative or None.  The
        class is checked first: its entries must be ints or Fractions
        (TypeError otherwise), b of them and all integral (NormBallError
        otherwise).  The zero class is answered with the empty surface;
        only a nonzero class builds the norm ball.
        """
        check_rational(alpha)
        if len(alpha) != self.hmap.b:
            raise NormBallError("class dimension mismatch")
        if any(a.denominator != 1 for a in alpha):
            raise NormBallError("class must be integral")
        n = num_coords(self.tri.num_tets, True)
        if not any(alpha):
            return TautRepresentative(NormalVector((0,) * n, True), None,
                                      Fraction(0), 0)
        norm = evaluate_norm(self.norm_ball("strict"), alpha)

        # Equality system over the oriented coordinates: matching rows,
        # homology rows = alpha, Euler row = -norm, weight row = w.
        nums, den = self.chi_row[True]
        matching = self.matching_oriented.rows
        rows = [*matching, *self.hmap.rows, nums, (1,) * n]
        rhs = [0] * len(matching) + list(alpha) + [-norm * den]
        for w in range(1, w_max + 1):
            for x in self._integral_points(rows, rhs + [w], w):
                # x meets the Euler and weight rows exactly, so its Euler
                # functional is -norm and its weight w.
                surface = self._try_representative(x)
                if surface is not None:
                    return TautRepresentative(x, surface, -norm, w)
        return None

    def _integral_points(self, rows, rhs, w):
        """Lexicographic DFS over nonnegative integer vectors satisfying
        the equality system, with admissibility pruning on the prefix's
        support bitmask (`quad_conflict`), incremental per-row interval
        pruning, and an exact LP relaxation at surviving interior nodes.

        Each row is first scaled together with its right-hand side to the
        primitive integer row: a positive multiple, so the solution set is
        the same, and one that does not depend on how the caller scaled
        the row.  Residuals, interval bounds and the LPs' rows are then
        all integers.

        The relaxation asks whether the remaining coordinates have a
        nonnegative rational completion.  It keeps only a subset of `rows`
        spanning their row space: when the system is consistent, every
        other row's residual is the same combination of the kept rows'
        residuals at every node, so the feasible set is unchanged.  It
        needs no bound on a variable: the weight row (all ones, right-hand
        side `w`) already bounds every remaining coordinate by the weight
        left.

        A node at depth k hands its completion x, over columns k, k+1,
        ..., down to its children; `solve_lp` checks its witness exactly
        before returning it.  The child that sets column k to x[0] needs
        no LP: its residual on the kept rows is the node's minus column k
        times x[0], which x[1:] meets exactly, and x[1:] is nonnegative,
        so x[1:] is that child's completion.  A node whose completion came
        from its parent passes it on in the same way.

        Either way the output is exact, because the LP only prunes: the
        DFS itself never exceeds the weight `w`, and every leaf is checked
        against all rows exactly, so a looser relaxation (an inconsistent
        system, or no weight row) costs time but cannot add or drop a
        point."""
        n = self.matching_oriented.num_cols
        scaled = [primitive_integer_vector(list(row) + [b])
                  for row, b in zip(rows, rhs)]
        rows = [r[:-1] for r in scaled]
        nrows = len(rows)
        # Achievable range of each row's tail given a shared weight budget:
        # tail_min[i][k] and tail_max[i][k] are the least and greatest of 0
        # and row i's coefficients over columns >= k, so both are 0 at
        # k = n.
        tail_min = [list(accumulate(reversed(row), min, initial=0))[::-1]
                    for row in rows]
        tail_max = [list(accumulate(reversed(row), max, initial=0))[::-1]
                    for row in rows]
        residual = [r[-1] for r in scaled]
        prefix = []
        # The pivot columns of the transpose index rows spanning the row
        # space.
        spanning = rref([list(col) for col in zip(*rows)])[1]

        def intervals_ok(k, rem):
            for i in range(nrows):
                if not rem * tail_min[i][k] <= residual[i] \
                        <= rem * tail_max[i][k]:
                    return False
            return True

        def completion(k, parent):
            """A nonnegative completion of columns k, k+1, ... on the
            spanning rows, or None: the tail of the parent's completion
            when that gave column k - 1 the value just chosen, else the
            LP's witness."""
            if parent is not None and parent[0] == prefix[-1]:
                return parent[1:]
            return solve_lp([0] * (n - k),
                            ([rows[i][k:] for i in spanning],
                             [residual[i] for i in spanning])).x

        conflict = self.quad_conflict[True]

        def rec(mask, x):
            k = len(prefix)
            if k == n:
                yield NormalVector(tuple(prefix), True)
                return
            used = sum(prefix)
            for v in range(0, w - used + 1):
                prefix.append(v)
                if v:
                    for i in range(nrows):
                        residual[i] -= rows[i][k] * v
                rem = w - used - v
                supp = mask | 1 << k if v else mask
                if not conflict(supp) and intervals_ok(k + 1, rem):
                    if k + 1 == n:
                        yield from rec(supp, None)
                    elif (child := completion(k + 1, x)) is not None:
                        yield from rec(supp, child)
                if v:
                    for i in range(nrows):
                        residual[i] += rows[i][k] * v
                prefix.pop()

        yield from rec(0, None)

    def _try_representative(self, x):
        """The surface of x when it is a taut representative: no sphere,
        torus or 1-sided component, and x's transverse orientation
        realized on it; else None."""
        surface = reconstruct_surface(self.tri, forget_orientation(x))
        # assign_transverse_orientation rejects a 1-sided component.
        if any(comp.chi in (0, 2) for comp in surface.components) or \
                assign_transverse_orientation(self.tri, surface, x) is None:
            return None
        return surface

    # -- diagnostics ---------------------------------------------------------

    def check_zero_efficiency(self):
        """Search the admissible vertex surfaces of the unoriented cone
        for a sphere that is not vertex linking, reading each off its ray.

        A vertex surface, the primitive integer point c of an extreme ray,
        is connected: the vectors of its pieces would be cone points on
        that ray summing to c, so smaller integer multiples of a
        primitive vector, which do not exist.  A connected closed surface
        with Euler characteristic 2 is a sphere.  So c is a counterexample
        exactly when nums . c = 2 * den (`chi_row`) and c is not a vertex
        link's vector.  Only the first such ray is reconstructed, for the
        report, and ArithmeticError is raised unless it is one
        non-vertex-linking sphere.

        Completeness of this filter rests on vertex-surface theory beyond
        what is implemented here, so a clean pass is reported as "no
        counterexample among vertex surfaces", not as a certificate.
        """
        rays = self.admissible_unoriented_rays
        nums, den = self.chi_row[False]
        links = {vertex_linking_vector(self.tri, vc, oriented=False).coords
                 for vc in range(len(self.tri.vertex_classes))}
        for ray in rays:
            c = ray.coords
            if sum(map(mul, nums, c)) != 2 * den or c in links:
                continue
            x = NormalVector(c, False)
            surface = reconstruct_surface(self.tri, x)
            if [(comp.chi, comp.orientable, comp.vertex_linking)
                    for comp in surface.components] != [(2, True, False)]:
                raise ArithmeticError("a vertex surface with Euler "
                                      "characteristic 2 is not one "
                                      "non-vertex-linking sphere")
            return {"status": "counterexample", "coords": x,
                    "surface": surface}
        return {"status": "no-counterexample-among-vertex-surfaces",
                "vertex_surfaces_checked": len(rays)}

    def hypothesis_warnings(self, ball):
        """Deterministic warning list for a computed ball: a
        non-vertex-linking normal sphere on a non-simplicial
        triangulation, and each recession vertex with a nonzero class.

        No B vertex is checked for algebraic asphericity, that is for a
        cone point 0 <= y <= x with chi*(y) > 0.  Each B vertex x is a
        scaled extreme ray of the oriented matching cone, and such a y has
        support inside supp(x), so y = t x with 0 <= t <= 1: the maximum
        of chi*(y) is 0, at y = 0, and the check cannot fail on a ball
        that `norm_ball` builds."""
        warnings = []
        if not is_simplicial(self.tri) and \
                self.check_zero_efficiency()["status"] == "counterexample":
            warnings.append(
                "hypotheses unverified: triangulation is not simplicial and "
                "a non-vertex-linking normal sphere exists among vertex "
                "surfaces")
        for i, cls in enumerate(ball.recession_classes):
            if any(x != 0 for x in cls):
                warnings.append(
                    "atoroidality certificate: recession vertex %d has "
                    "nonzero homology class (unit ball is non-compact)" % i)
        return warnings


class TautRepresentative(Record):
    """A taut representative found by `Pipeline.find_taut_representative`:
    its oriented coordinates, its surface (None for the zero class), its
    Euler functional and its weight.  Representatives are equal when all
    four fields are; they are mutable and unhashable."""

    __slots__ = _fields = _compared = ("coords", "surface", "chi", "weight")

    def __init__(self, coords, surface, chi, weight):
        self.coords = coords
        self.surface = surface
        self.chi = chi
        self.weight = weight


def evaluate_norm(ball, c):
    """The norm of a class in basis coordinates, as the gauge of the
    computed unit ball: the least total mass of a nonnegative combination
    of ball vertices representing c.

    The class's entries must be ints or Fractions (TypeError otherwise).
    The vertices and the class are scaled to integers by one common
    denominator; the combinations, and so the value, stay the same."""
    if ball.variant != "strict":
        raise NormBallError("norm evaluation requires the strict ball")
    check_rational(c)
    if len(c) != ball.b:
        raise NormBallError("class dimension mismatch")
    if all(x == 0 for x in c):
        return Fraction(0)
    _, (rhs, *verts) = integer_numerators([c] + list(ball.ball_vertices))
    a = [[w[i] for w in verts] for i in range(ball.b)]
    res = solve_lp([1] * len(verts), (a, list(rhs)), maximize=False)
    if not res.optimal:
        raise DegenerateNormBall("norm ball degenerate or hypotheses violated")
    return res.value
