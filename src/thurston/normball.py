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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .chi import chi_star_coefficients
from .coords import (NormalVector, build_matching_system, forget_orientation,
                     num_coords, quad_conflict_test)
from .homology import homology_map_matrix
from .linalg import (ConeDescription, enumerate_extreme_rays,
                     remove_redundant_points, rref, solve_lp)
from .rat import dot
from .surfaces import (assign_transverse_orientation,
                       is_algebraically_aspherical, reconstruct_surface)
from .triangulation import is_simplicial


class NormBallError(ValueError):
    pass


class DegenerateNormBall(NormBallError):
    """The class lies outside the cone of the computed unit ball; expected
    when the manifold violates the atoroidality or irreducibility
    hypotheses and the strict variant was used."""


@dataclass(frozen=True)
class ProjectiveVertex:
    """An extreme point of the projective solution space: coordinates sum
    to one, tagged with its Euler functional value and admissibility."""

    coords: tuple
    support: frozenset = field(compare=False)
    chi: Fraction = field(compare=False)
    admissible: bool = field(compare=False)


@dataclass
class NormBall:
    variant: str
    b: int
    basis: list
    B_vertices: list
    ball_vertices: list
    recession_vertices: list
    recession_classes: list
    hmap: object


_ZERO = Fraction(0)


class Pipeline:
    """Caches the derived systems of one triangulation across operations.

    Every stage is pure, so the cache never changes an output.

    `oriented_rays` and `unoriented_rays` are the full cones: every
    extreme ray, admissible or not.  `enumerate_vertices` reports them,
    and `build_B` (hence `norm_ball`, `find_taut_representative` and the
    `ball`, `norm` and `representative` commands) filters the oriented one
    by the admissible flag.  `admissible_unoriented_rays` is the
    unoriented cone enumerated with the quad-conflict filter, so its
    double description never builds an inadmissible ray; only
    `check_zero_efficiency` (the `efficiency` command and the warnings of
    `ball`) uses it.
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
    def chi_coeffs(self):
        return chi_star_coefficients(self.tri, oriented=True)

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

    @cached_property
    def chi_coeffs_unoriented(self):
        return chi_star_coefficients(self.tri, oriented=False)

    @cached_property
    def _chi_integer(self):
        """Per theory, the Euler functional as integer numerators over one
        common denominator.  A disc's term does not depend on its
        transverse orientation, so oriented column 2i repeats unoriented
        column i twice."""
        coeffs = self.chi_coeffs_unoriented
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(int(c * den) for c in coeffs)
        return {False: (nums, den),
                True: (tuple(n for n in nums for _ in (1, -1)), den)}

    def _tag_vertex(self, ray, oriented=True):
        total = sum(ray.coords)
        coords = tuple(Fraction(c, total) if c else _ZERO
                       for c in ray.coords)
        nums, den = self._chi_integer[oriented]
        chi = Fraction(sum(nums[i] * ray.coords[i] for i in ray.support),
                       den * total)
        mask = sum(1 << i for i in ray.support)
        adm = not self.quad_conflict[oriented](mask)
        return ProjectiveVertex(coords, ray.support, chi, adm)

    def enumerate_vertices(self, oriented=True):
        """Sum-one normalizations of the extreme rays of the chosen cone,
        tagged with Euler functional value and admissibility."""
        rays = self.oriented_rays if oriented else self.unoriented_rays
        return [self._tag_vertex(r, oriented) for r in rays]

    def build_B(self, variant="strict"):
        """Scaled vertex sets: (B_vertices, recession_vertices)."""
        if variant not in ("strict", "le"):
            raise ValueError("unknown variant %r" % (variant,))
        bverts = []
        recession = []
        for v in self.enumerate_vertices(True):
            if not v.admissible:
                continue
            if v.chi < 0:
                bverts.append(tuple(c / abs(v.chi) for c in v.coords))
            elif v.chi == 0 and variant == "le":
                recession.append(v.coords)
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
        within each weight.  Returns a TautRepresentative or None.
        """
        ball = self.norm_ball("strict")
        alpha = tuple(Fraction(a) for a in alpha)
        if len(alpha) != ball.b:
            raise NormBallError("class dimension mismatch")
        if any(a.denominator != 1 for a in alpha):
            raise NormBallError("class must be integral")
        if all(a == 0 for a in alpha):
            zero = NormalVector((0,) * num_coords(self.tri.num_tets, True),
                                True)
            return TautRepresentative(zero, None, Fraction(0), 0)
        norm = evaluate_norm(ball, alpha)
        target_chi = -norm
        n = num_coords(self.tri.num_tets, True)

        # Equality system over the oriented coordinates: matching rows,
        # homology rows = alpha, Euler row = -norm, weight row = w.
        eq_rows = [list(map(Fraction, r)) for r in self.matching_oriented.rows]
        eq_rhs = [Fraction(0)] * len(eq_rows)
        for hrow, aval in zip(self.hmap.rows, alpha):
            eq_rows.append(list(hrow))
            eq_rhs.append(aval)
        eq_rows.append(list(self.chi_coeffs))
        eq_rhs.append(target_chi)

        for w in range(1, w_max + 1):
            rows = eq_rows + [[Fraction(1)] * n]
            rhs = eq_rhs + [Fraction(w)]
            for x in self._integral_points(rows, rhs, w):
                found = self._try_representative(x)
                if found is not None:
                    return found
        return None

    def _integral_points(self, rows, rhs, w):
        """Lexicographic DFS over nonnegative integer vectors satisfying
        the equality system, with admissibility pruning on the prefix's
        support bitmask (`quad_conflict`), incremental per-row interval
        pruning, and an exact LP relaxation at surviving interior nodes.

        The relaxation asks whether the remaining coordinates have a
        nonnegative rational completion.  It keeps only a subset of `rows`
        spanning their row space: when the system is consistent, every
        other row's residual is the same combination of the kept rows'
        residuals at every node, so the feasible set is unchanged.  It
        passes no upper bounds: the weight row (all ones, right-hand side
        `w`) already bounds every remaining coordinate by the weight left.

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
        nrows = len(rows)
        # Achievable range of each row's tail given a shared weight budget:
        # tail_min/tail_max hold min and max coefficients over columns >= k.
        tail_min = [[0] * (n + 1) for _ in range(nrows)]
        tail_max = [[0] * (n + 1) for _ in range(nrows)]
        for i, row in enumerate(rows):
            for k in range(n - 1, -1, -1):
                tail_min[i][k] = min(row[k], tail_min[i][k + 1]) \
                    if k < n - 1 else row[k]
                tail_max[i][k] = max(row[k], tail_max[i][k + 1]) \
                    if k < n - 1 else row[k]
        residual = [r for r in rhs]
        prefix = []
        # The pivot columns of the transpose index rows spanning the row
        # space.
        spanning = rref([list(col) for col in zip(*rows)])[1]

        def intervals_ok(k, rem):
            for i in range(nrows):
                r = residual[i]
                if k == n:
                    if r != 0:
                        return False
                    continue
                lo = rem * min(0, tail_min[i][k])
                hi = rem * max(0, tail_max[i][k])
                if not lo <= r <= hi:
                    return False
            return True

        def completion(k, parent):
            """A nonnegative completion of columns k, k+1, ... on the
            spanning rows, or None: the tail of the parent's completion
            when that gave column k - 1 the value just chosen, else the
            LP's witness."""
            if parent is not None and parent[0] == prefix[-1]:
                return parent[1:]
            return solve_lp([Fraction(0)] * (n - k),
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
        surface = reconstruct_surface(self.tri, forget_orientation(x),
                                      self.matching_unoriented)
        for comp in surface.components:
            if not comp.orientable:
                return None
            if comp.chi in (0, 2):
                return None
        assignment = assign_transverse_orientation(self.tri, surface, x)
        if assignment is None:
            return None
        weight = int(sum(x.coords))
        return TautRepresentative(x, surface, dot(self.chi_coeffs, x.coords),
                                  weight)

    # -- diagnostics ---------------------------------------------------------

    def check_zero_efficiency(self):
        """Search the admissible vertex surfaces of the unoriented cone
        for a sphere component that is not vertex linking.

        Completeness of this filter rests on vertex-surface theory beyond
        what is implemented here, so a clean pass is reported as "no
        counterexample among vertex surfaces", not as a certificate.
        """
        rays = self.admissible_unoriented_rays
        for ray in rays:
            x = NormalVector(ray.coords, False)
            surface = reconstruct_surface(self.tri, x,
                                          self.matching_unoriented)
            for comp in surface.components:
                if comp.chi == 2 and comp.orientable \
                        and not comp.vertex_linking:
                    return {"status": "counterexample",
                            "coords": x,
                            "surface": surface}
        return {"status": "no-counterexample-among-vertex-surfaces",
                "vertex_surfaces_checked": len(rays)}

    def hypothesis_warnings(self, ball):
        """Deterministic warning list for a computed ball."""
        warnings = []
        simplicial = is_simplicial(self.tri)
        efficiency = self.check_zero_efficiency()
        if not simplicial and efficiency["status"] == "counterexample":
            warnings.append(
                "hypotheses unverified: triangulation is not simplicial and "
                "a non-vertex-linking normal sphere exists among vertex "
                "surfaces")
        for i, w in enumerate(ball.B_vertices):
            if not is_algebraically_aspherical(
                    self.tri, NormalVector(w, True), self.matching_oriented):
                warnings.append(
                    "hypothesis warning: B vertex %d is not algebraically "
                    "aspherical" % i)
        for i, cls in enumerate(ball.recession_classes):
            if any(x != 0 for x in cls):
                warnings.append(
                    "atoroidality certificate: recession vertex %d has "
                    "nonzero homology class (unit ball is non-compact)" % i)
        return warnings


@dataclass
class TautRepresentative:
    coords: NormalVector
    surface: object
    chi: Fraction
    weight: int


def evaluate_norm(ball, c):
    """The norm of a class in basis coordinates, as the gauge of the
    computed unit ball: the least total mass of a nonnegative combination
    of ball vertices representing c."""
    if ball.variant != "strict":
        raise NormBallError("norm evaluation requires the strict ball")
    c = tuple(Fraction(x) for x in c)
    if len(c) != ball.b:
        raise NormBallError("class dimension mismatch")
    if all(x == 0 for x in c):
        return Fraction(0)
    verts = ball.ball_vertices
    a = [[Fraction(w[i]) for w in verts] for i in range(ball.b)]
    res = solve_lp([Fraction(1)] * len(verts), (a, list(c)), maximize=False)
    if not res.optimal:
        raise DegenerateNormBall("norm ball degenerate or hypotheses violated")
    return res.value
