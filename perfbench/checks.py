"""Output checks that do not come from the program.

Known answers per committed fixture, invariants of 2-3 moves, and
independent references for the LP-bound operations: brute-force
enumeration for the representative DFS, an exact monotone-chain hull for
redundancy removal, and the maximum of the facet functionals for the
gauge.  Every check returns None when the output is right and a one-line
reason when it is not.
"""

import json
from fractions import Fraction
from itertools import combinations

# Known answers per base: b (first Betti number, which the 2-3 moves keep),
# vertex classes (also kept), and the 0-efficiency status of the fixture
# itself where the program's tests pin it.
BASES = {
    "d2": {"b": 0, "vertices": 4, "efficiency": "counterexample"},
    "one_tet": {"b": 0, "vertices": 1},
    "two_tet_b1": {"b": 1, "vertices": 1, "efficiency": "counterexample"},
    "two_tet_efficient": {"b": 0, "vertices": 1,
                          "efficiency": "no-counterexample-among-vertex-"
                                        "surfaces"},
    "three_tet": {"b": 0, "vertices": 1},
}

# The doubled tetrahedron's oriented projective solution space.
D2_ORIENTED_VERTICES = 16
D2_ORIENTED_ADMISSIBLE = 14


def _doc(out, codes=(0,)):
    if out["code"] not in codes:
        raise ValueError("exit code %s" % out["code"])
    try:
        return json.loads(out["stdout"])
    except json.JSONDecodeError:
        raise ValueError("stdout is not one JSON document")


def checked(fn):
    """Turn a check that raises ValueError into one returning a reason."""
    def run(out):
        try:
            fn(out)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return "%s: %s" % (fn.__name__, e)
        return None
    return run


def validate(base, tets):
    @checked
    def validate_output(out):
        doc = _doc(out)
        if not doc["valid"] or doc["tets"] != tets:
            raise ValueError("expected a valid %d-tet table" % tets)
        if doc["vertex_classes"] != BASES[base]["vertices"]:
            raise ValueError("vertex count %d, base has %d"
                             % (doc["vertex_classes"],
                                BASES[base]["vertices"]))
    return validate_output


def ball(base, variant="strict"):
    b = BASES[base]["b"]

    @checked
    def ball_output(out):
        doc = _doc(out, (0, 2))
        if doc["variant"] != variant or doc["b"] != b:
            raise ValueError("b = %s, base has %d" % (doc["b"], b))
        if len(doc["basis"]) != b or any(
                len(v) != b for v in doc["ball_vertices"]):
            raise ValueError("basis or ball vertices of wrong dimension")
        certificate = any(w.startswith("atoroidality certificate")
                          for w in doc["warnings"])
        if (out["code"] == 2) != certificate:
            raise ValueError("exit code disagrees with the warnings")
    return ball_output


def norm(base):
    """`norm --class 1,...,1`: zero for b = 0; the b = 1 fixture's strict
    ball is degenerate, so it must refuse with exit code 2."""
    b = BASES[base]["b"]

    @checked
    def norm_output(out):
        if b == 0:
            if _doc(out)["norm"] != "0/1":
                raise ValueError("nonzero norm with b = 0")
        elif _doc(out, (2,))["error"]["code"] != "degenerate-norm-ball":
            raise ValueError("expected a degenerate-norm-ball refusal")
    return norm_output


def representative(base):
    b = BASES[base]["b"]

    @checked
    def representative_output(out):
        if b == 0:
            doc = _doc(out)
            if not doc["found"] or doc["weight"] != 0:
                raise ValueError("the zero class has the empty surface")
        elif _doc(out, (2,))["error"]["code"] != "degenerate-norm-ball":
            raise ValueError("expected a degenerate-norm-ball refusal")
    return representative_output


def enumerate_vertices(base, oriented):
    @checked
    def enumerate_output(out):
        doc = _doc(out)
        if doc["oriented"] != oriented:
            raise ValueError("wrong theory")
        verts = doc["vertices"]
        for v in verts:
            coords = [Fraction(c) for c in v["coords"]]
            if sum(coords) != 1 or min(coords) < 0:
                raise ValueError("vertex not on the sum-one simplex")
            if v["support"] != [i for i, c in enumerate(coords) if c]:
                raise ValueError("support disagrees with coordinates")
            if v["admissible"] != admissible(coords, oriented):
                raise ValueError("admissibility flag is wrong")
        if oriented and base == "d2" and (
                len(verts) != D2_ORIENTED_VERTICES
                or sum(v["admissible"] for v in verts)
                != D2_ORIENTED_ADMISSIBLE):
            raise ValueError("d2 has 16 oriented vertices, 14 admissible")
    return enumerate_output


def efficiency(base, admissible_count, fixture):
    """The scan covers every admissible unoriented vertex unless it stops
    at a counterexample, which must be a non-vertex-linking sphere."""
    @checked
    def efficiency_output(out):
        doc = _doc(out)
        want = BASES[base].get("efficiency") if fixture else None
        if want is not None and doc["status"] != want:
            raise ValueError("status %s, expected %s" % (doc["status"], want))
        if doc["status"] == "counterexample":
            if not any(c["chi"] == 2 and c["orientable"]
                       and not c["vertex_linking"]
                       for c in doc["surface"]["components"]):
                raise ValueError("counterexample is not a normal sphere")
        elif doc["vertex_surfaces_checked"] != admissible_count:
            raise ValueError("checked %d vertex surfaces of %d"
                             % (doc["vertex_surfaces_checked"],
                                admissible_count))
    return efficiency_output


def surface(total_chi):
    """The reconstructed surface's Euler characteristic equals the Euler
    functional of its coordinates, computed from the enumeration."""
    @checked
    def surface_output(out):
        doc = _doc(out)
        if not doc["components"]:
            raise ValueError("empty surface")
        if Fraction(doc["total_chi"]) != total_chi:
            raise ValueError("total chi %s, functional gives %s"
                             % (doc["total_chi"], total_chi))
        if sum(c["chi"] for c in doc["components"]) != doc["total_chi"]:
            raise ValueError("component chi does not add up")
    return surface_output


# -- references for lp-search --------------------------------------------


def admissible(coords, oriented):
    """At most one quad kind (kinds 4, 5, 6) carries weight in each
    tetrahedron; in oriented coordinates both orientations of a kind
    count as that kind."""
    per_tet = 14 if oriented else 7
    width = 2 if oriented else 1
    for t in range(len(coords) // per_tet):
        hot = 0
        for kind in (4, 5, 6):
            start = per_tet * t + width * kind
            if any(coords[start:start + width]):
                hot += 1
        if hot > 1:
            return False
    return True


def compositions(n, w):
    """All nonnegative integer vectors of length n and sum w, by stars
    and bars, in no particular order."""
    for bars in combinations(range(n + w - 1), n - 1):
        prev = -1
        out = []
        for b in bars + (n + w - 1,):
            out.append(b - prev - 1)
            prev = b
        yield out


def search_reference(rows, w):
    n = len(rows[0])
    pts = [x for x in compositions(n, w)
           if admissible(x, True)
           and all(sum(a * v for a, v in zip(r, x)) == 0 for r in rows)]
    return sorted(pts)


def search(rows, w):
    want = search_reference(rows, w)

    @checked
    def search_output(out):
        if out["points"] != want:
            raise ValueError("%d points, brute force finds %d"
                             % (len(out["points"]), len(want)))
    return search_output


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_reference(points):
    """Vertices of the convex hull of 2-D points, counter-clockwise, with
    no point in the relative interior of an edge (Andrew's monotone
    chain over exact rationals)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def gauge_reference(polygon, c):
    """The gauge of a polygon containing the origin in its interior: the
    largest value at c of the functionals equal to 1 on an edge."""
    best = None
    for p, q in zip(polygon, polygon[1:] + polygon[:1]):
        det = p[0] * q[1] - p[1] * q[0]
        val = ((q[1] - p[1]) * c[0] + (p[0] - q[0]) * c[1]) / det
        best = val if best is None else max(best, val)
    return best


def hull(points):
    want = set(hull_reference(points))

    @checked
    def hull_output(out):
        got = [tuple(Fraction(x) for x in v) for v in out["vertices"]]
        if len(got) != len(set(got)) or set(got) != want:
            raise ValueError("%d vertices, monotone chain finds %d"
                             % (len(got), len(want)))
    return hull_output


def gauge(polygon, classes):
    want = [gauge_reference(polygon, c) for c in classes]

    @checked
    def gauge_output(out):
        got = [Fraction(x) for x in out["norms"]]
        if got != want:
            raise ValueError("norms %s, facet functionals give %s"
                             % ([str(x) for x in got],
                                [str(x) for x in want]))
    return gauge_output
