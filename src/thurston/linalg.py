"""Exact rational polyhedral computation.

Extreme-ray enumeration for cones {x >= 0 : Ax = 0} by the double
description method, exact two-phase simplex with verified dual and
Farkas certificates, and output-sensitive convex-hull redundancy removal
by linear programming.  No floating point anywhere, and every identity
checked here is exact.  Inputs are integers or Fractions, and rref, the
LP, the hull and the double description raise TypeError on anything
else; elimination is fraction-free: each row is scaled to integers, and
rref and the simplex tableau hold integer rows over one shared positive
denominator, divided exactly at each pivot (Bareiss), so only results are
Fractions.  A caller that scales its rows to integers once saves the
solver that work on every call.
"""

from fractions import Fraction
from functools import total_ordering
from math import lcm
from operator import add, itemgetter, neg, sub

from .rat import check_rational, integer_numerators, normalize_int_vector
from .record import FrozenRecord, Record


# ---------------------------------------------------------------------------
# exact matrix utilities


def _integer_row(values):
    """(s, s * values, as a list) for the least positive integer s that
    makes every entry an integer.  A row of ints is returned as is, with
    s = 1, and an entry that is neither an int nor a Fraction raises
    TypeError."""
    if check_rational(values) <= {int}:
        return 1, values
    s, (row,) = integer_numerators([values])
    return s, list(row)


def _pivot(rows, r, col, d):
    """One fraction-free Gauss-Jordan step in place on integer rows that
    stand for the matrix rows / d, with d > 0; returns the new
    denominator.

    With p the entry of row r in `col`, the step clears `col` from every
    other row: a row with entry f there becomes (p*a - f*b) // d, for a
    its entries and b those of row r, and row r is kept, all over the new
    denominator p.  When p < 0 row r is negated first, which negates every
    row, so the new denominator |p| stays positive.  The division is exact
    (Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 22, 1968): when the rows start as
    integers over d = 1, every entry is a minor of the starting matrix and
    d the absolute value of the pivot minor.  A row with f = 0 is still
    rescaled by p / d."""
    pr = rows[r]
    p = pr[col]
    if p < 0:
        p = -p
        pr = rows[r] = [-x for x in pr]
    for i, row in enumerate(rows):
        if i == r:
            continue
        f = row[col]
        if f:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, pr)]
        elif p != d:
            rows[i] = [p * a // d for a in row]
    return p


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column list).

    Entries are ints or Fractions (anything else raises TypeError).  Each
    row is first scaled to integers by the lcm of its denominators, which
    leaves the (unique) reduced echelon form unchanged.  The
    elimination then runs fraction-free with _pivot over one shared
    denominator d, and the result is the final integer rows divided by d,
    as Fractions."""
    m = [_integer_row(row)[1] for row in rows]
    d = 1
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
        d = _pivot(m, row, col, d)
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return [[Fraction(x, d) for x in r] for r in m], pivots


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
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    x = [Fraction(0)] * n
    for r, pc in enumerate(pivots):
        if pc == n:
            return None
        x[pc] = m[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# rays and the double description method


@total_ordering
class Ray(FrozenRecord):
    """An extreme ray with coprime nonnegative integer coordinates.

    `mask` is the support as a bitmask, bit i for a nonzero coordinate i.
    The double description hands over the masks it built; when none is
    given, it is read off the coordinates.  Rays compare, order and hash
    by their coordinates only, and are immutable (assignment raises
    AttributeError)."""

    __slots__ = _fields = ("coords", "mask")
    _compared = ("coords",)

    def __init__(self, coords, mask=None):
        if mask is None:
            mask = sum(1 << i for i, x in enumerate(coords) if x)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "mask", mask)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.coords < other.coords
        return NotImplemented

    @property
    def support(self):
        """The indices of the nonzero coordinates."""
        m = self.mask
        return frozenset(i for i in range(m.bit_length()) if m >> i & 1)

    @classmethod
    def from_vector(cls, v):
        return cls(normalize_int_vector(v))


class ConeDescription(FrozenRecord):
    """The cone {x >= 0 : Ax = 0} with integer equation rows.

    Cones are equal, and hash alike, when `rows` and `dim` are; they are
    immutable (assignment raises AttributeError)."""

    __slots__ = _fields = _compared = ("rows", "dim")

    def __init__(self, rows, dim):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dim", dim)


# Masks per packed block of the adjacency count (enumerate_extreme_rays).
# Measured by replaying the adjacency tests recorded from real runs
# (CPython 3.11): on vertex-scan's 47 unoriented cones, full and
# filtered, the full oriented cones of d2 after two seeded 2-3 moves and
# two_tet_b1 after one, and the filtered oriented cones of three_tet after
# three and four moves and two_tet_b1 after four, blocks of 64 masks took
# 0.40-0.74 of the time of chunks of 1, 2, 4, ... masks on every input.
# The lists packed on vertex-scan average 42 masks, which doubling chunks
# read in six loop iterations and one block in one.  A single block of
# the whole list took 0.39-0.50 on vertex-scan but 0.96-2.07 on the
# oriented cones, whose lists run to hundreds of masks: there most pairs
# have a third ray inside their union, and the first block stops them.
_BLOCK = 64


def _pack_blocks(masks, width):
    """The masks packed into integers, _BLOCK masks to a block in list
    order, mask k of a block in bits k * width up to (k + 1) * width - 1.
    Each block comes with the number of masks up to and including it,
    less 2.  _BLOCK records the measurement behind the block size."""
    blocks = []
    for start in range(0, len(masks), _BLOCK):
        packed = 0
        for k, m in enumerate(masks[start:start + _BLOCK]):
            packed |= m << k * width
        blocks.append((packed, min(len(masks), start + _BLOCK) - 2))
    return blocks


def _row_values(row, rays):
    """row . r for every ray r, as a list.

    A row whose nonzero entries are all +1 or -1 is the difference of the
    sums of the rays' entries over its +1 and its -1 columns; each column
    is read by itemgetter, and the sums are taken column by column, so no
    Python code runs per ray.  Any other row is a weighted sum over its
    nonzero columns."""
    terms = [(j, c) for j, c in enumerate(row) if c]
    if any(c not in (1, -1) for _, c in terms):
        return [sum(c * r[j] for j, c in terms) for r in rays]
    (j, c), rest = terms[0], terms[1:]
    acc = map(itemgetter(j), rays)
    if c < 0:
        acc = map(neg, acc)
    for j, c in rest:
        acc = map(add if c > 0 else sub, acc, map(itemgetter(j), rays))
    return list(acc)


def enumerate_extreme_rays(cone, reject=None):
    """All extreme rays of {x >= 0 : Ax = 0}, one canonical representative
    each, sorted by coordinates; with `reject`, only those whose support
    it accepts.  Each Ray carries its support mask.

    Double description: start from the nonnegative orthant (rays e_i) and
    intersect with each hyperplane a.x = 0 in turn, keeping incident rays
    and combining adjacent rays from opposite open sides.  Each row is
    first scaled by the least positive integer that makes it integral,
    which keeps its hyperplane.  Hyperplanes are inserted in
    lexicographic order of those integer rows and evaluated over their
    nonzero columns only (_row_values).  Adjacency of two rays in the
    current cone is decided combinatorially: with S the union of their
    supports, the pair is adjacent exactly when no third current ray has
    its support inside S.  The cone lies in the orthant, so it is pointed,
    and the current rays are exactly its extreme rays, one per support;
    under these two conditions the combinatorial test is exact (Fukuda
    and Prodon, "Double description method revisited", 1996).  A new ray
    p b + n c, for a pair of rays b and c with row values -n < 0 < p, is a
    positive combination of two nonnegative rays, so its support is
    exactly S, and it lies inside the 2-face its pair spans, which no
    other pair spans, so the new rays need no deduplication.

    The test counts the current rays with support inside S using integer
    arithmetic over many masks at once.  Once per hyperplane, when the
    first pair reaches this test, the masks are packed into integers of
    _BLOCK masks each (_pack_blocks), each mask in a field of dim + 1
    bits: its dim support bits under a clear guard bit.  ANDing a block
    with the complement of S, repeated into every field, leaves a field
    zero exactly when its mask lies inside S.  Adding 2**dim - 1 to every
    field then sets the guard bit of exactly the nonzero fields, and no
    carry passes a guard: a field holds less than 2**dim, so its sum
    stays below 2**(dim + 1).  The fields past the last mask of a short
    block are zero and set no guard.  So the masks counted minus the
    guard bits set is the number of masks inside S.  That number includes
    the pair itself, and the pair is adjacent when it is 2; the count
    stops at the first block that takes it past 2.

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

    By the same argument every current ray has at most r + 1 nonzero
    coordinates: its support T is accepted, the processed rows restricted
    to T have rank at most r, and their kernel on T is the ray's line.
    So neither mask of a pair ever exceeds the bound by itself, and
    sorting the rays by popcount would drop no pair: the bound bites only
    on what one support adds to the other, |supp(c) - supp(b)| <= r + 2 -
    |supp(b)| with - the set difference.  Measured, 0 of the 155,372 pairs
    of vertex-scan's full descriptions and 0 of the 723,045 of the full
    oriented descriptions of the seven ball-ladder rungs that finish were
    cut by the popcount of one mask.

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
    if any(len(r) != dim for r in cone.rows):
        raise ValueError("every row needs one entry per coordinate (%d)"
                         % dim)
    full = (1 << dim) - 1
    width = dim + 1
    ones = ((1 << width * _BLOCK) - 1) // ((1 << width) - 1)
    low = ones * full
    guards = ones << dim
    rows = sorted({tuple(_integer_row(r)[1]) for r in cone.rows}
                  - {(0,) * dim})
    rays = []
    masks = []
    for i in range(dim):
        if reject is None or not reject(1 << i):
            rays.append(tuple(1 if j == i else 0 for j in range(dim)))
            masks.append(1 << i)
    bound = 2
    for a in rows:
        vals = _row_values(a, rays)
        if not any(vals):
            continue
        new_rays = []
        new_masks = []
        pos = []
        negs = []
        for r, m, v in zip(rays, masks, vals):
            if v > 0:
                pos.append((r, m, v))
            elif v:
                negs.append((r, m, -v))
            else:
                new_rays.append(r)
                new_masks.append(m)
        blocks = None
        for rp, mp, vp in pos:
            for rn, mn, vn in negs:
                union = mp | mn
                if union.bit_count() > bound:
                    continue
                if reject is not None and reject(union):
                    continue
                if blocks is None:
                    blocks = _pack_blocks(masks, width)
                spread = (full ^ union) * ones
                nonzero = 0
                for packed, most in blocks:
                    nonzero += (((packed & spread) + low) & guards).bit_count()
                    if nonzero < most:
                        break
                else:
                    # vp rn + vn rp; with vp == vn it is vp (rn + rp), which
                    # normalizes to the same ray as rn + rp.
                    new_rays.append(normalize_int_vector(
                        list(map(add, rp, rn)) if vp == vn else
                        [vp * b + vn * c for c, b in zip(rp, rn)]))
                    new_masks.append(union)
        rays = new_rays
        masks = new_masks
        bound += 1
    return [Ray(r, m) for r, m in sorted(zip(rays, masks))]


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


class LpResult(Record):
    """Outcome of solve_lp.  status is "optimal", "infeasible" or
    "unbounded".  value, x and dual are exact Fractions.

    For optimal results x is a vertex witness, checked exactly against
    x >= 0 and the caller's rows, and dual is a dual certificate over the
    rows of the phase-1 tableau with the redundant rows dropped, that is
    over B1^-1 A for the final phase-1 basis B1, not over the caller's
    rows.  B1^-1 A does not change when a row of A is scaled, so it is the
    same system for the integer-scaled rows that the solver pivots on.
    With c the maximized objective (its negation when minimizing),
    y.(B1^-1 A) >= c and y.(B1^-1 b) = c.x are verified exactly inside the
    solver, but a caller cannot check y against its own system.  For
    infeasible results dual is a Farkas certificate y over the caller's
    rows: y.A >= 0 on every column and y.b < 0, both verified exactly.
    Unbounded results carry neither.

    Results are equal when all four fields are; they are mutable and
    unhashable."""

    __slots__ = _fields = _compared = ("status", "value", "x", "dual")

    def __init__(self, status, value=None, x=None, dual=None):
        self.status = status
        self.value = value
        self.x = x
        self.dual = dual

    @property
    def optimal(self):
        return self.status == "optimal"


class _Tableau:
    """Fraction-free simplex tableau for max c.x, Ax = b, x >= 0, with
    integer A, b and c.

    `rows` holds d B^-1 [A | b] as integer rows for the basis listed in
    `basis`, and `z` holds d times the reduced-cost row [c | 0] - c_B B^-1
    [A | b], as integers too; d > 0 is the shared denominator that _pivot
    keeps, and `pivot` eliminates z along with the other rows.  So z is 0
    on basic columns, its entries have the signs of the reduced costs, and
    z[-1] / d is minus the objective value of the basic solution.  A
    tableau starts from integer rows over a given d: 1 for a starting
    identity basis, or the d of the tableau they were read from."""

    def __init__(self, rows, basis, c, d=1):
        self.rows = rows
        self.basis = basis
        self.c = c
        self.d = d
        self.z = [d * cj for cj in c] + [0]
        for row, bj in zip(rows, basis):
            if c[bj] != 0:
                self.z = [zj - c[bj] * x for zj, x in zip(self.z, row)]

    def pivot(self, r, col):
        self.rows.append(self.z)
        self.d = _pivot(self.rows, r, col, self.d)
        self.z = self.rows.pop()
        self.basis[r] = col

    def solve(self):
        """Bland's rule primal simplex from the current basis; the basis
        must already be feasible.  The ratio test compares row[-1] / row[j]
        by cross-multiplication.  Returns "optimal" or "unbounded"."""
        while True:
            enter = next((j for j, zj in enumerate(self.z[:-1]) if zj > 0),
                         None)
            if enter is None:
                return "optimal"
            leave = None
            for i, row in enumerate(self.rows):
                aij = row[enter]
                if aij > 0:
                    if leave is None:
                        leave, num, den = i, row[-1], aij
                        continue
                    lhs, rhs = row[-1] * den, num * aij
                    if lhs < rhs or (lhs == rhs
                                     and self.basis[i] < self.basis[leave]):
                        leave, num, den = i, row[-1], aij
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)

    def dual(self, cols):
        """d times the exact y = c_B B^-1, as integers, read from columns
        that started as the identity: there z[j] / d = c[j] - y.e_k."""
        d = self.d
        return [self.c[j] * d - self.z[j] for j in cols]


def _simplex_standard(a, b, c):
    """max c.x s.t. Ax = b, x >= 0 with verified certificates.

    Returns (status, value, x, y), all exact Fractions.  Row i of [A | b]
    is scaled to integers by the lcm s_i of its denominators, and c by the
    lcm of its own; a row of ints is taken as is, with s_i = 1.  The
    tableaux pivot on integers only (_Tableau), and every certificate
    check runs on integer numerators over the tableau's d; each returned
    entry is one Fraction built from its numerator and denominator.

    Phase 1 maximizes minus the sum of one artificial column per row, on
    the rows with negative right-hand side negated.  Artificial i stands
    for s_i times the unscaled row's artificial, so with L the lcm of the
    s_i it gets the integer cost -L/s_i: the phase-1 problem is then the
    unscaled one with its objective times L and artificial i rescaled by
    s_i, which changes no sign of a reduced cost, no ratio comparison and
    no index, so Bland's rule takes the unscaled path pivot for pivot.  A
    uniform cost of -1 would be a different problem with its own path.
    When the phase-1 optimum is below 0, the system is infeasible and the
    dual y^ = u / d, read from the artificial columns as integers u,
    satisfies y^.A' >= 0 and y^.b' < 0 for the scaled, negated system;
    y_i = +-u_i s_i / (L d), negated on the negated rows, is then the
    Farkas certificate of the unscaled phase 1, for the rows of A as
    given.  Its checks run on the scaled rows with the multipliers
    y_i / s_i, whose numerators over L d are +-u_i.  Otherwise each
    artificial still basic is pivoted out on a nonzero entry of its row
    in A; a row with none is redundant and dropped.  Phase 2 runs on the
    remaining phase-1 rows, B1^-1 A (which no row scaling changes), in
    which the phase-1 basis columns are unit vectors, starting from
    phase 1's denominator d1.  When it is optimal with denominator d2, x
    and the value are numerators over d2 (the value's over sigma d2, for
    sigma the objective's scale), and y is the dual read from the phase-1
    basis columns as integers u, over sigma d2: it satisfies
    y.(B1^-1 A) >= c and y.(B1^-1 b) == value, over the rows of that
    reduced system, not over the rows of A.  With B1^-1 [A | b] held as
    integer rows over d1, both checks multiply through by sigma d1 d2 > 0.
    All four certificate checks run in integers and raise ArithmeticError.
    """
    m = len(a)
    n = len(c)
    scaled = [_integer_row(list(row) + [bi]) for row, bi in zip(a, b)]
    scales = [s for s, _ in scaled]
    ints = [r for _, r in scaled]
    flipped = [r[-1] < 0 for r in ints]
    rows = [[-x if f else x for x in r[:-1]]
            + [int(k == i) for k in range(m)]
            + [-r[-1] if f else r[-1]]
            for i, (r, f) in enumerate(zip(ints, flipped))]
    big = lcm(*scales)
    art = list(range(n, n + m))
    t = _Tableau(rows, list(art), [0] * n + [-(big // s) for s in scales])
    if t.solve() != "optimal":
        raise ArithmeticError("phase 1 objective unbounded")
    if t.z[-1] != 0:
        u = [-ui if f else ui for ui, f in zip(t.dual(art), flipped)]
        if any(sum(ui * r[j] for ui, r in zip(u, ints)) < 0
               for j in range(n)):
            raise ArithmeticError("Farkas certificate violated")
        if sum(ui * r[-1] for ui, r in zip(u, ints)) >= 0:
            raise ArithmeticError("Farkas certificate does not separate")
        den = big * t.d
        return "infeasible", None, None, tuple(
            Fraction(ui * s, den) for ui, s in zip(u, scales))
    # Drive remaining artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if t.basis[i] >= n:
            piv = next((j for j in range(n) if t.rows[i][j] != 0), None)
            if piv is None:
                continue          # redundant equation
            t.pivot(i, piv)
        keep.append(i)
    # B1^-1 [A | b] is reduced / d1.
    reduced = [t.rows[i][:n] + t.rows[i][-1:] for i in keep]
    basis1 = [t.basis[i] for i in keep]
    d1 = t.d
    sigma, cint = _integer_row(c)
    t2 = _Tableau(list(reduced), list(basis1), cint, d1)
    if t2.solve() == "unbounded":
        return "unbounded", None, None, None
    d2 = t2.d
    x = [Fraction(0)] * n
    for row, bj in zip(t2.rows, t2.basis):
        x[bj] = Fraction(row[-1], d2)
    num = sum(cint[bj] * row[-1] for row, bj in zip(t2.rows, t2.basis))
    # Dual feasibility and strong duality on the reduced system, times
    # sigma * d1 * d2: y = u / (sigma d2), B1^-1 [A | b] = reduced / d1,
    # c = cint / sigma and value = num / (sigma d2).
    u = t2.dual(basis1)
    for j in range(n):
        if cint[j] * d1 * d2 > sum(uk * row[j] for uk, row in zip(u, reduced)):
            raise ArithmeticError("dual certificate violated")
    if sum(uk * row[-1] for uk, row in zip(u, reduced)) != d1 * num:
        raise ArithmeticError("dual objective mismatch")
    den = sigma * d2
    return "optimal", Fraction(num, den), tuple(x), tuple(
        Fraction(uk, den) for uk in u)


def solve_lp(objective, equalities, maximize=True):
    """Exact LP over x >= 0: optimize objective.x subject to A x = rhs.

    equalities is (matrix, rhs); every entry of the objective, the matrix
    and rhs is an int or a Fraction, and anything else raises TypeError
    before any work.  Minimizing maximizes -objective.x.  The simplex
    pivots on integers only: each row is scaled to integers, and the
    tableau is kept fraction-free over one shared denominator
    (_simplex_standard).  Rows of ints skip that scaling, so a caller that
    solves many LPs on rational data scales it to integers once.  Returns
    an LpResult whose value and witness are exact rationals; infeasible
    and unbounded are statuses, not exceptions.  An optimal result's
    witness is checked exactly against x >= 0 and the equalities before
    it is returned, on its integer numerators over one common
    denominator.  An infeasible result's dual is a Farkas certificate over
    the equality rows; an optimal result's dual is over the rows of the
    phase-1 tableau with the redundant rows dropped, not over these rows
    (see LpResult).  Raises ValueError when a row's length or the number
    of right-hand sides does not match.
    """
    a, rhs = equalities
    n = len(objective)
    if any(len(row) != n for row in a):
        raise ValueError("every row needs one entry per variable (%d)" % n)
    if len(rhs) != len(a):
        raise ValueError("%d right-hand sides for %d rows"
                         % (len(rhs), len(a)))
    check_rational(objective, rhs, *a)
    c = [Fraction(x) if maximize else -Fraction(x) for x in objective]
    status, value, x, y = _simplex_standard(a, rhs, c)
    if status == "infeasible":
        return LpResult(status, dual=y)
    if status != "optimal":
        return LpResult(status)
    # The witness is checked on x's numerators over their common
    # denominator den: x >= 0 and A (den x) = den rhs.
    den, (xn,) = integer_numerators([x])
    support = [(j, xj) for j, xj in enumerate(xn) if xj]
    if any(xj < 0 for _, xj in support) or any(
            sum(row[j] * xj for j, xj in support) != bi * den
            for row, bi in zip(a, rhs)):
        raise ArithmeticError("primal witness violated")
    return LpResult("optimal", value if maximize else -value, x, y)


# ---------------------------------------------------------------------------
# convex hull redundancy removal


def _check_lengths(points, d):
    if any(len(q) != d for q in points):
        raise ValueError("points of unequal length")


def _hull_lp(point, points):
    """The LP for convex weights on `points` that reproduce `point`: one
    row per coordinate, then the weights summing to 1; no objective.  The
    rows hold the coordinates as given, so integer points give integer
    rows."""
    d = len(point)
    a = [[q[i] for q in points] for i in range(d)]
    a.append([1] * len(points))
    return solve_lp([0] * len(points), (a, list(point) + [1]))


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

    The scan runs on integers: the distinct points are scaled once by
    their common denominator D > 0, c is scaled to integers by a positive
    factor, and the new vertex is picked by an integer dot product with
    ties broken on the integer points.  Positive scalings change neither
    the hull nor the order of the key, and the hull's vertex set is
    unique, so the output does not depend on which certificate each LP
    returns.
    """
    check_rational(*points)
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in p) for p in points))
    d = len(pts[0]) if pts else 0
    _check_lengths(pts, d)
    ints = integer_numerators(pts)[1]
    verts = []
    for i, p in enumerate(ints):
        while i not in verts:
            c = [0] * d
            if verts:
                res = _hull_lp(p, [ints[k] for k in verts])
                if res.optimal:
                    break
                c = _integer_row([-y for y in res.dual[:d]])[1]
            verts.append(max(range(len(ints)), key=lambda k: (
                sum(ci * x for ci, x in zip(c, ints[k])), ints[k])))
    return [pts[k] for k in sorted(verts)]
