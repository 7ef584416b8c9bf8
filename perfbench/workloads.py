"""What one pass of each workload runs, built from the seed.

A workload function drives a Session: it asks for one operation at a
time and sees whether it finished with a checked output.  The climbing
rule of the ladders lives here: a base grows one tetrahedron per rung by
seeded 2-3 moves and stops at its first rung with a failed operation, so
a pass pays the time limit at most once per chain.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import checks
import moves

# ball-ladder: every base climbs until its first failure; the cap only
# bounds a pass once the oriented double description gets fast.
LADDER_MAX_TETS = 8

# vertex-scan: each base climbs in VSCAN_CHAINS independently seeded
# chains.  Above 4 tetrahedra one unoriented enumeration takes from 0.03 s
# to 2 s depending on the seed, so higher rungs would make a pass's time
# depend on the seed more than on the program.
VSCAN_MAX_TETS = 4
VSCAN_CHAINS = 6

# lp-search: the representative DFS as the program's test calls it, on
# one_tet at weights 1-3.  The DFS on d2 is left out: at weight 1 it is one
# operation of about 14 s, too long to time steadily on a machine whose
# speed changes by up to 1.8x within seconds, and at weight 2 it takes
# over a minute.
SEARCHES = (("one_tet", 1), ("one_tet", 2), ("one_tet", 3))
HULL_SETS = 6
GAUGE_CLASSES = 6


def _ones(b):
    return ",".join(["1"] * b)


def _growths(table, seed, max_tets):
    """The seeded 2-3 growth of a base up to max_tets, or [] when the
    base has no face between two distinct tetrahedra."""
    try:
        return moves.grow(table, seed, max_tets - len(table["tets"]))
    except ValueError:
        return []


def ball_ladder(s):
    for base in sorted(s.tables):
        fixture = s.tables[base]
        tables = [fixture] + _growths(fixture, "%s/%s" % (s.seed, base),
                                      LADDER_MAX_TETS)
        for rung, table in enumerate(tables):
            tets = len(table["tets"])
            tag = "%s/%d" % (base, rung)
            path = s.write_table(tag, table)
            if s.cli(tag + "/validate", "validate", ["validate", path],
                     checks.validate(base, tets)) is None:
                break
            if s.cli(tag + "/ball", "ball", ["ball", path],
                     checks.ball(base)) is None:
                break
            s.decided(tets)
            if rung == 0:
                b = checks.BASES[base]["b"]
                s.cli(tag + "/ball-le", "ball",
                      ["ball", path, "--variant", "le"],
                      checks.ball(base, "le"))
                s.cli(tag + "/norm", "norm",
                      ["norm", path, "--class", _ones(b)],
                      checks.norm(base))
                s.cli(tag + "/enumerate", "enumerate", ["enumerate", path],
                      checks.enumerate_vertices(base, True))
                s.cli(tag + "/representative", "representative",
                      ["representative", path, "--class", _ones(b),
                       "--max-weight", "2"],
                      checks.representative(base))


def _primitive(coords):
    den = lcm(*(c.denominator for c in coords))
    ints = [int(c * den) for c in coords]
    g = gcd(*ints)
    return [x // g for x in ints]


def _scan(s, base, tag, table, fixture):
    """validate, enumerate --unoriented, efficiency, and surface on each
    admissible vertex; False at the first failed operation."""
    tets = len(table["tets"])
    path = s.write_table(tag, table)
    if s.cli(tag + "/validate", "validate", ["validate", path],
             checks.validate(base, tets)) is None:
        return False
    out = s.cli(tag + "/enumerate", "enumerate",
                  ["enumerate", path, "--unoriented"],
                  checks.enumerate_vertices(base, False))
    if out is None:
        return False
    verts = [v for v in s.doc(out)["vertices"] if v["admissible"]]
    if s.cli(tag + "/efficiency", "efficiency", ["efficiency", path],
             checks.efficiency(base, len(verts), fixture)) is None:
        return False
    for i, v in enumerate(verts):
        coords = [Fraction(c) for c in v["coords"]]
        ints = _primitive(coords)
        total_chi = Fraction(v["chi_star"]) * sum(ints)
        payload = s.dumps({"coords": ["%d/1" % c for c in ints],
                           "oriented": False})
        if s.cli("%s/surface/%d" % (tag, i), "surface",
                 ["surface", path, "--coords", payload],
                 checks.surface(total_chi)) is None:
            return False
    s.decided(tets)
    return True


def vertex_scan(s):
    for base in sorted(s.tables):
        fixture = s.tables[base]
        if not _scan(s, base, base + "/0", fixture, True):
            continue
        for chain in range(VSCAN_CHAINS):
            seed = "%s/%s/%d" % (s.seed, base, chain)
            for rung, table in enumerate(
                    _growths(fixture, seed, VSCAN_MAX_TETS), 1):
                if not _scan(s, base, "%s/%d.%d" % (base, chain, rung),
                             table, False):
                    break


def point_sets(seed):
    """Seeded centrally symmetric rational point sets in the plane, 20 to
    40 points each, whose hull contains the origin in its interior."""
    out = []
    for i in range(HULL_SETS):
        rng = random.Random("%s/hull/%d" % (seed, i))
        while True:
            half = []
            for _ in range(rng.randint(10, 20)):
                p = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                if p != (0, 0):
                    half.append(p)
            pts = half + [(-x, -y) for x, y in half]
            rng.shuffle(pts)
            if len(checks.hull_reference(pts)) >= 3:
                break
        classes = []
        while len(classes) < GAUGE_CLASSES:
            c = [rng.randint(-6, 6), rng.randint(-6, 6)]
            if c != [0, 0]:
                classes.append(c)
        out.append((pts, classes))
    return out


def lp_search(s):
    for table, w in SEARCHES:
        if s.call("%s/search/%d" % (table, w), "search",
                  {"op": "search", "table": table, "weight": w},
                  checks.search(s.matching_rows(table), w)) is not None:
            s.decided(len(s.tables[table]["tets"]))
    for i, (pts, classes) in enumerate(point_sets(s.seed)):
        s.call("hull/%d" % i, "hull",
               {"op": "hull", "points": [[str(x) for x in p] for p in pts]},
               checks.hull(pts))
        # The gauge gets the reference hull, so a wrong hull fails one
        # operation, not two.
        polygon = checks.hull_reference(pts)
        s.call("gauge/%d" % i, "gauge",
               {"op": "gauge",
                "vertices": [[str(x) for x in p] for p in polygon],
                "classes": classes},
               checks.gauge(polygon, classes))


WORKLOADS = {
    "ball-ladder": ball_ladder,
    "vertex-scan": vertex_scan,
    "lp-search": lp_search,
}

# Command metrics each workload reports, summed over its inputs per pass.
COMMANDS = {
    "ball-ladder": ("ball", "norm", "enumerate", "representative"),
    "vertex-scan": ("enumerate", "efficiency", "surface"),
    "lp-search": ("search", "hull", "gauge"),
}
