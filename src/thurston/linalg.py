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
    other pair spans, so the new rays need no deduplication.

    A row that vanishes on every listed ray is skipped: it removes no ray
    and adds none.  A cheaper necessary condition runs before the support
    test.  Let r count the rows not skipped so far.  The face of the
    current cone with support inside S holds a point of full support S,
    the sum of the pair, so its dimension is |S| minus the rank of the
    processed rows restricted to S, and adjacency needs dimension 2.  That
    rank is at most r, so a pair with |S| - 2 > r is not adjacent.  The
    reason is that a skipped row restricted to S lies in the span of the
    earlier rows restricted to S, whenever `reject` (below) accepts S; a
    pair whose union it rejects is dropped anyway.  The face with support
    inside S of the cone those earlier rows cut out is spanned by its
    extreme rays.  They were listed when the row came, because their
    supports lie inside S and the filter is monotone, so the row vanishes
    on them.  That face also holds the same point of full support S, so
    it spans the kernel of the earlier rows restricted to S, and the row
    vanishes on that kernel.

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
    cuts = 0
    for a in rows:
        terms = [(j, c) for j, c in enumerate(a) if c]
        vals = [sum(c * r[j] for j, c in terms) for r in rays]
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

    For optimal results x is a vertex witness, checked exactly against
    x >= 0, the caller's rows and its upper bounds, and dual is a dual
    certificate over the rows of the phase-1 tableau with the redundant
    rows dropped, that is over B1^-1 A for the final phase-1 basis B1, not
    over the caller's rows.  With c the maximized objective (its negation
    when minimizing), y.(B1^-1 A) >= c and y.(B1^-1 b) = c.x are verified
    exactly inside the solver, but a caller cannot check y against its own
    system.  For infeasible results dual is a Farkas
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
    """Simplex tableau over Fractions for max c.x, Ax = b, x >= 0.

    `rows` holds B^-1 [A | b] for the basis listed in `basis`, and `z` is
    the reduced-cost row [c | 0] - c_B B^-1 [A | b], which `pivot`
    eliminates along with the other rows: z is 0 on basic columns and
    z[-1] is minus the objective value of the basic solution."""

    def __init__(self, rows, basis, c):
        self.rows = rows
        self.basis = basis
        self.c = c
        self.z = c + [Fraction(0)]
        for row, bj in zip(rows, basis):
            if c[bj] != 0:
                self.z = [zj - c[bj] * x for zj, x in zip(self.z, row)]

    def pivot(self, r, col):
        self.rows.append(self.z)
        _pivot(self.rows, r, col)
        self.z = self.rows.pop()
        self.basis[r] = col

    def solve(self):
        """Bland's rule primal simplex from the current basis; the basis
        must already be feasible.  Returns "optimal" or "unbounded"."""
        while True:
            enter = next((j for j, zj in enumerate(self.z[:-1]) if zj > 0),
                         None)
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                aij = row[enter]
                if aij > 0:
                    ratio = row[-1] / aij
                    if best is None or ratio < best or \
                            (ratio == best and self.basis[i] < self.basis[leave]):
                        best = ratio
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def dual(self, cols):
        """y = c_B B^-1 read from columns that started as the identity:
        there z[j] = c[j] - y.e_k."""
        return [self.c[j] - self.z[j] for j in cols]


def _simplex_standard(a, b, c):
    """max c.x s.t. Ax = b, x >= 0 with verified certificates.

    Returns (status, value, x, y).  Phase 1 maximizes minus the sum of one
    artificial column per row, on the rows with negative right-hand side
    negated.  When its optimum is below 0, the system is infeasible and its
    dual y', read from the artificial columns, satisfies y'.A' >= 0 and
    y'.b' < 0 for the negated system; negating those entries of y' gives a
    Farkas certificate y for the rows of A as given.  Otherwise each
    artificial still basic is pivoted out on a nonzero entry of its row in
    A; a row with none is redundant and dropped.  Phase 2 runs on the
    remaining phase-1 rows, B1^-1 A, in which the phase-1 basis columns
    are unit vectors.  When it is optimal,
    y is the dual read from those columns: it satisfies y.(B1^-1 A) >= c
    and y.(B1^-1 b) == value, over the rows of that reduced system, not
    over the rows of A.
    """
    m = len(a)
    n = len(c)
    flipped = [bi < 0 for bi in b]
    rows = [[Fraction(-x if f else x) for x in row]
            + [Fraction(int(k == i)) for k in range(m)]
            + [Fraction(-bi if f else bi)]
            for i, (row, bi, f) in enumerate(zip(a, b, flipped))]
    art = list(range(n, n + m))
    t = _Tableau(rows, list(art), [Fraction(0)] * n + [Fraction(-1)] * m)
    if t.solve() != "optimal":
        raise ArithmeticError("phase 1 objective unbounded")
    if t.z[-1] != 0:
        y = [-yi if f else yi for yi, f in zip(t.dual(art), flipped)]
        if any(sum(yi * row[j] for yi, row in zip(y, a)) < 0
               for j in range(n)):
            raise ArithmeticError("Farkas certificate violated")
        if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
            raise ArithmeticError("Farkas certificate does not separate")
        return "infeasible", None, None, tuple(y)
    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if t.basis[i] >= n:
            piv = next((j for j in range(n) if t.rows[i][j] != 0), None)
            if piv is None:
                continue          # redundant equation
            t.pivot(i, piv)
        keep.append(i)
    reduced = [t.rows[i][:n] + t.rows[i][-1:] for i in keep]
    basis1 = [t.basis[i] for i in keep]
    t2 = _Tableau(list(reduced), list(basis1), c)
    if t2.solve() == "unbounded":
        return "unbounded", None, None, None
    x = [Fraction(0)] * n
    for row, bj in zip(t2.rows, t2.basis):
        x[bj] = row[-1]
    value = sum(ci * xi for ci, xi in zip(c, x))
    # Dual feasibility and strong duality, checked on the reduced system.
    y = t2.dual(basis1)
    for j in range(n):
        if c[j] - sum(yi * row[j] for yi, row in zip(y, reduced)) > 0:
            raise ArithmeticError("dual certificate violated")
    if sum(yi * row[-1] for yi, row in zip(y, reduced)) != value:
        raise ArithmeticError("dual objective mismatch")
    return "optimal", value, tuple(x), tuple(y)


def solve_lp(objective, equalities, upper=None, maximize=True):
    """Exact LP over x >= 0: optimize objective.x subject to A x = rhs
    and, when `upper` is given, x <= upper coordinatewise.

    equalities is (matrix, rhs).  Each upper bound u_j becomes the row
    x_j + s_j = u_j with its own slack column s_j, after the equality
    rows and the variables; minimizing maximizes -objective.x.  Returns an
    LpResult whose value and witness are exact rationals; infeasible and
    unbounded are statuses, not exceptions.  An optimal result's witness
    is checked exactly against x >= 0, the equalities and `upper` before
    it is returned.  An infeasible result's dual is
    a Farkas certificate over the equality rows, then the bound rows, in
    that order; an optimal result's dual is over the rows of the phase-1
    tableau with the redundant rows dropped, not over these rows (see
    LpResult).  Raises ValueError when a row's length, the
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
    # The witness over the standard form: x >= 0 with every row met, the
    # bound rows x_j + s_j = u_j included, is x >= 0, A x = rhs and
    # x <= upper for the caller's system.
    support = [(j, xj) for j, xj in enumerate(x) if xj]
    if any(xj < 0 for _, xj in support) or any(
            sum(row[j] * xj for j, xj in support) != bi
            for row, bi in zip(a, b)):
        raise ArithmeticError("primal witness violated")
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
