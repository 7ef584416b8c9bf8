"""Exact rational polyhedral computation.

Extreme-ray enumeration for cones {x >= 0 : Ax = 0} by the double
description method, exact two-phase simplex with verified dual and
Farkas certificates, and output-sensitive convex-hull redundancy removal
by linear programming.  No floating point anywhere: matrices are
integers or Fractions and every identity checked here is exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .rat import normalize_int_vector


# ---------------------------------------------------------------------------
# exact matrix utilities


def _pivot(rows, r, col):
    """One Gauss-Jordan step in place: scale row r so that its entry in
    `col` is 1 and clear `col` from every other row."""
    inv = 1 / rows[r][col]
    pr = rows[r] = [inv * x for x in rows[r]]
    for i, row in enumerate(rows):
        f = row[col]
        if i != r and f != 0:
            rows[i] = [a - f * b for a, b in zip(row, pr)]


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    row = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        _pivot(m, row, col)
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots


def rank_int(rows):
    """Rank of a rational matrix: the pivot count of its echelon form."""
    return len(rref(rows)[1])


def nullspace(rows, ncols):
    """Basis of the rational nullspace of the matrix, one vector per free
    column of the reduced echelon form."""
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(tuple(v))
    return basis


def solve_linear(rows, rhs):
    """One exact solution of (rows) x = rhs, or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = m[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# rays and the double description method


@dataclass(frozen=True, order=True)
class Ray:
    """An extreme ray with coprime nonnegative integer coordinates."""

    coords: tuple
    support: frozenset = field(compare=False)

    @classmethod
    def from_vector(cls, v):
        ints = normalize_int_vector(v)
        return cls(ints, frozenset(i for i, x in enumerate(ints) if x != 0))


@dataclass(frozen=True)
class ConeDescription:
    """The cone {x >= 0 : Ax = 0} with integer equation rows."""

    rows: tuple
    dim: int


def enumerate_extreme_rays(cone, reject=None):
    """All extreme rays of {x >= 0 : Ax = 0}, one canonical representative
    each, sorted by coordinates; with `reject`, only those whose support
    it accepts.

    Double description: start from the nonnegative orthant (rays e_i) and
    intersect with each hyperplane a.x = 0 in turn, keeping incident rays
    and combining adjacent rays from opposite open sides.  Hyperplanes are
    inserted in lexicographic order of their rows and evaluated over
    their nonzero columns only.  Adjacency of two rays in the current
    cone is decided combinatorially: with S the union of their supports,
    the pair is adjacent exactly when no third current ray has its
    support inside S.  The cone lies in the orthant, so it is pointed, and
    the current rays are exactly its extreme rays, one per support; under
    these two conditions the combinatorial test is exact (Fukuda and
    Prodon, "Double description method revisited", 1996).  A new ray is a
    positive combination of two nonnegative rays, so its support is
    exactly S, and it lies inside the 2-face its pair spans, which no
    other pair spans, so the new rays need no deduplication.  A cheaper
    necessary condition runs first: the face spanned by S has dimension
    at least |S| minus the processed row count, so a pair with |S| - 2
    above that count is not adjacent.

    `reject(mask)` is a predicate on support bitmasks (bit i for
    coordinate i) and must be monotone: if it rejects S it rejects every
    superset of S.  Supports only grow under combination, so a rejected
    ray never has an accepted descendant, and rejected initial rays and
    pairs whose union is rejected are dropped as they appear (Burton,
    "Optimizing the double description method for normal surface
    enumeration", Math. Comp. 79, 2010).  The adjacency test stays exact:
    a third ray of the full current cone with support inside an accepted
    union is itself accepted, hence still in the list.  The result is
    the accepted subset of the unfiltered result, in the same order.
    """
    dim = cone.dim
    rows = sorted(set(tuple(int(x) for x in r) for r in cone.rows
                      if any(x != 0 for x in r)))
    rays = []
    masks = []
    for i in range(dim):
        if reject is None or not reject(1 << i):
            rays.append(tuple(1 if j == i else 0 for j in range(dim)))
            masks.append(1 << i)
    for nproc, a in enumerate(rows):
        terms = [(j, c) for j, c in enumerate(a) if c]
        vals = [sum(c * r[j] for j, c in terms) for r in rays]
        zero = [(r, m) for r, m, v in zip(rays, masks, vals) if v == 0]
        pos = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v > 0]
        neg = [(r, m, v) for r, m, v in zip(rays, masks, vals) if v < 0]
        new = list(zero)
        for rp, mp, vp in pos:
            for rn, mn, vn in neg:
                union = mp | mn
                if union.bit_count() - 2 > nproc:
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
    return sorted(Ray.from_vector(r) for r in rays)


def is_extreme_ray(cone, coords):
    """Exact extremality check: the nullspace of A restricted to the
    support is one-dimensional."""
    supp = [i for i, x in enumerate(coords) if x != 0]
    if not supp:
        return False
    sub = [[row[j] for j in supp] for row in cone.rows]
    return len(supp) - rank_int(sub) == 1


# ---------------------------------------------------------------------------
# exact linear programming (two-phase simplex, Bland's rule)


@dataclass
class LpResult:
    """Outcome of solve_lp.  status is "optimal", "infeasible" or
    "unbounded".

    For optimal results x is a vertex witness and dual is a dual
    certificate, verified exactly against the standard-form data after
    redundant rows are dropped.  For infeasible results dual is a Farkas
    certificate y, indexed over the equality rows and then the bound rows
    that solve_lp appends: y.A >= 0 on every column of the standard-form
    matrix A and y.b < 0, both verified exactly.  Unbounded results carry
    neither."""

    status: str
    value: Fraction = None
    x: tuple = None
    dual: tuple = None

    @property
    def optimal(self):
        return self.status == "optimal"


class _Tableau:
    """Dense simplex tableau over Fractions for max c.x, Ax = b, x >= 0."""

    def __init__(self, a, b, c):
        self.m = len(a)
        self.n = len(a[0]) if a else len(c)
        self.rows = [[Fraction(x) for x in row] + [Fraction(bi)]
                     for row, bi in zip(a, b)]
        self.c = [Fraction(x) for x in c]
        self.basis = [None] * self.m

    def pivot(self, r, col):
        _pivot(self.rows, r, col)
        self.basis[r] = col

    def solve(self):
        """Bland's rule primal simplex from the current basis; the basis
        must already be feasible.  Returns "optimal" or "unbounded"."""
        zrow = self._objective_row()
        while True:
            enter = None
            for j in range(self.n):
                if j not in self.basis and zrow[j] > 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i in range(self.m):
                aij = self.rows[i][enter]
                if aij > 0:
                    ratio = self.rows[i][-1] / aij
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)
            zrow = self._objective_row()

    def _objective_row(self):
        z = list(self.c)
        for i, bj in enumerate(self.basis):
            cb = self.c[bj]
            if cb != 0:
                for j in range(self.n):
                    z[j] -= cb * self.rows[i][j]
        return z

    def solution(self):
        x = [Fraction(0)] * self.n
        for i, bj in enumerate(self.basis):
            x[bj] = self.rows[i][-1]
        return x

    def objective(self):
        return sum(self.c[j] * xj for j, xj in enumerate(self.solution()))


def _phase1_dual(t, n):
    """y = c_B B^-1 of a phase-1 tableau whose columns from n on started as
    the identity: those columns of the tableau now hold B^-1."""
    return [sum(t.c[bj] * t.rows[i][n + k] for i, bj in enumerate(t.basis))
            for k in range(t.m)]


def _simplex_standard(a, b, c):
    """max c.x s.t. Ax = b, x >= 0 with verified certificates.

    Returns (status, value, x, y).  When status is optimal, y satisfies
    A^T y >= c and y.b == value on the system with redundant rows dropped.
    When it is infeasible, y is a Farkas certificate for the rows of A as
    given: y.A >= 0 on every column and y.b < 0.  Phase 1 maximizes minus
    the sum of the artificials, so at its optimum its dual y' satisfies
    y'.A' >= 0 and y'.b' = objective < 0, where A', b' have the rows with
    negative right-hand side negated; negating those entries of y' gives y.
    """
    m = len(a)
    n = len(c)
    a_in, b_in = a, b
    a = [list(row) for row in a]
    b = list(b)
    flipped = [bi < 0 for bi in b]
    for i in range(m):
        if flipped[i]:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # Phase 1: artificial variables, minimize their sum.
    art = list(range(n, n + m))
    a1 = [row + [Fraction(1 if k == i else 0) for k in range(m)]
          for i, row in enumerate(a)]
    c1 = [Fraction(0)] * n + [Fraction(-1)] * m
    t = _Tableau(a1, b, c1)
    for i in range(m):
        t.basis[i] = art[i]
    if t.solve() != "optimal":
        raise ArithmeticError("phase 1 objective unbounded")
    if t.objective() != 0:
        y = [-yi if f else yi for yi, f in zip(_phase1_dual(t, n), flipped)]
        if any(sum(yi * row[j] for yi, row in zip(y, a_in)) < 0
               for j in range(n)):
            raise ArithmeticError("Farkas certificate violated")
        if sum(yi * bi for yi, bi in zip(y, b_in)) >= 0:
            raise ArithmeticError("Farkas certificate does not separate")
        return "infeasible", None, None, tuple(y)
    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(t.m):
        if t.basis[i] >= n:
            piv = None
            for j in range(n):
                if t.rows[i][j] != 0:
                    piv = j
                    break
            if piv is None:
                continue          # redundant equation
            t.pivot(i, piv)
        keep.append(i)
    a2 = [[t.rows[i][j] for j in range(n)] for i in keep]
    b2 = [t.rows[i][-1] for i in keep]
    # Phase 2 on the reduced (row-equivalent, full-rank) system.
    t2 = _Tableau(a2, b2, c)
    t2.basis = [t.basis[i] for i in keep]
    status = t2.solve()
    if status == "unbounded":
        return "unbounded", None, None, None
    x = t2.solution()
    value = sum(ci * xi for ci, xi in zip(c, x))
    # Dual certificate for the reduced system: y^T B = c_B over the final
    # basis, verified exactly for dual feasibility and strong duality.
    basis_cols = t2.basis
    sys = [[a2[i][j] for i in range(len(a2))] for j in basis_cols]
    y = solve_linear(sys, [c[j] for j in basis_cols])
    if y is None:
        raise ArithmeticError("final basis is singular")
    for j in range(n):
        red = c[j] - sum(yi * row[j] for yi, row in zip(y, a2))
        if red > 0:
            raise ArithmeticError("dual certificate violated")
    if sum(yi * bi for yi, bi in zip(y, b2)) != value:
        raise ArithmeticError("dual objective mismatch")
    return "optimal", value, tuple(x), tuple(y)


def solve_lp(objective, equalities, upper=None, maximize=True):
    """Exact LP over x >= 0: optimize objective.x subject to A x = rhs
    and, when `upper` is given, x <= upper coordinatewise.

    equalities is (matrix, rhs).  Each upper bound u_j becomes the row
    x_j + s_j = u_j with its own slack column s_j, after the equality
    rows and the variables; minimizing maximizes -objective.x.  Returns an
    LpResult whose value and witness are exact rationals; infeasible and
    unbounded are statuses, not exceptions.  An infeasible result's dual is
    a Farkas certificate over the equality rows, then the bound rows, in
    that order (see LpResult).  Raises ValueError when a row's length, the
    number of right-hand sides or the length of `upper` does not match.
    """
    a, rhs = equalities
    n = len(objective)
    if any(len(row) != n for row in a):
        raise ValueError("every row needs one entry per variable (%d)" % n)
    if len(rhs) != len(a):
        raise ValueError("%d right-hand sides for %d rows"
                         % (len(rhs), len(a)))
    if upper is not None and len(upper) != n:
        raise ValueError("%d upper bounds for %d variables"
                         % (len(upper), n))
    c = [Fraction(x) if maximize else -Fraction(x) for x in objective]
    b = list(rhs)
    if upper is not None:
        unit = [[int(i == j) for i in range(n)] for j in range(n)]
        a = [list(row) + [0] * n for row in a] + [e + e for e in unit]
        b += list(upper)
        c += [Fraction(0)] * n
    status, value, x, y = _simplex_standard(a, b, c)
    if status == "infeasible":
        return LpResult(status, dual=y)
    if status != "optimal":
        return LpResult(status)
    return LpResult("optimal", value if maximize else -value, x[:n], y)


# ---------------------------------------------------------------------------
# convex hull redundancy removal


def _check_lengths(points, d):
    if any(len(q) != d for q in points):
        raise ValueError("points of unequal length")


def _hull_lp(point, points):
    """The LP for convex weights on `points` that reproduce `point`: one
    row per coordinate, then the weights summing to 1; no objective."""
    d = len(point)
    a = [[Fraction(q[i]) for q in points] for i in range(d)]
    a.append([Fraction(1)] * len(points))
    rhs = [Fraction(x) for x in point] + [Fraction(1)]
    return solve_lp([Fraction(0)] * len(points), (a, rhs))


def in_convex_hull(point, points):
    """Exact membership of `point` in the convex hull of `points`."""
    _check_lengths(points, len(point))
    if not points:
        return False
    return _hull_lp(point, points).optimal


def remove_redundant_points(points):
    """Vertices of the convex hull of a point list, in the order of their
    first occurrence; exact duplicates count once.

    Clarkson's output-sensitive scan ("More output-sensitive geometric
    algorithms", FOCS 1994).  V holds the hull vertices found so far, and
    each distinct point p in turn is tested against conv(V) by one LP over
    |V| columns.  If that LP is infeasible, its Farkas certificate y gives
    c = -y[:d] with c.p > c.q for every q in V, so the point maximizing c.x
    over all the points, the lexicographically largest among ties, is a
    hull vertex that is not in V yet; it joins V (with V empty, c = 0).
    The test repeats until p is in V or in conv(V).  The scan solves at
    most n + h LPs of at most h columns each, for n points and h vertices.
    """
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    d = len(pts[0]) if pts else 0
    _check_lengths(pts, d)
    verts = []
    for i, p in enumerate(pts):
        while i not in verts:
            c = [0] * d
            if verts:
                res = _hull_lp(p, [pts[k] for k in verts])
                if res.optimal:
                    break
                c = [-y for y in res.dual[:d]]
            verts.append(max(range(len(pts)), key=lambda k: (
                sum(ci * x for ci, x in zip(c, pts[k])), pts[k])))
    return [pts[k] for k in sorted(verts)]
