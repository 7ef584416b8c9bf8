"""Benchmark worker: one process that imports the program once and runs
operations sent to it, one at a time.

Protocol: one JSON request per line on standard input, one JSON reply per
line on the original standard output.  The first line written is the
ready message, sent after `thurston.cli` and the modules the operations
use are imported.  Each reply carries the operation's output ("out"),
its own wall time, the machine's speed around it, the process's peak
resident set size so far, and, when tracing is on, the spans recorded
during the operation.

The speed is REFERENCE_S over the time a fixed exact-arithmetic kernel,
independent of the program, takes just then.  On a shared machine the
processor's speed changes by up to 1.8x within seconds; times multiplied
by the speed are in seconds at the reference speed, so runs made at
different moments compare.

Run it only through run.py, which sets PYTHONPATH to the checkout's src.
"""

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import thurston  # noqa: E402
import thurston.cli  # noqa: E402
from thurston import fixtures, linalg, normball  # noqa: E402
from thurston.triangulation import triangulation_from_json  # noqa: E402

from spans import Tracer  # noqa: E402


# Seconds the reference kernel takes at the reference speed, its fastest
# time on a 2-vCPU x86-64 virtual machine running Python 3.11.
REFERENCE_S = 0.0007


def _reference_kernel():
    """Exact Gauss-Jordan elimination on a fixed 6 x 7 rational matrix."""
    m = [[Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + j) % 3)
          for j in range(7)] for i in range(6)]
    for c in range(6):
        p = m[c][c] or Fraction(1)
        for r in range(6):
            if r != c:
                f = m[r][c] / p
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def machine_speed():
    """REFERENCE_S over the best of two timings of the reference kernel,
    with the garbage collector off so the program's heap does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(2):
            t0 = time.perf_counter()
            _reference_kernel()
            t = time.perf_counter() - t0
            best = t if best is None else min(best, t)
    finally:
        if enabled:
            gc.enable()
    return REFERENCE_S / best


def op_cli(req, tracer):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = thurston.cli.run(req["argv"])
    return {"code": code, "stdout": out.getvalue()}


def op_search(req, tracer):
    """The representative DFS over the matching rows plus a weight row, as
    the program's own test calls it."""
    with tracer.span("triangulation.load"):
        tri = triangulation_from_json(fixtures.fixture_json(req["table"]))
    pipe = normball.Pipeline(tri)
    w = req["weight"]
    n = pipe.matching_oriented.num_cols
    rows = [list(map(Fraction, r)) for r in pipe.matching_oriented.rows]
    rows.append([Fraction(1)] * n)
    rhs = [Fraction(0)] * (len(rows) - 1) + [Fraction(w)]
    points = [[int(c) for c in x.coords]
              for x in pipe._integral_points(rows, rhs, w)]
    return {"points": points}


def op_hull(req, tracer):
    pts = [tuple(map(Fraction, p)) for p in req["points"]]
    with tracer.span("linalg.hull") as s:
        kept = linalg.remove_redundant_points(pts)
        s.counts["points_in"] = len(pts)
        s.counts["points_out"] = len(kept)
    return {"vertices": [[str(c) for c in p] for p in kept]}


def op_gauge(req, tracer):
    verts = [tuple(map(Fraction, p)) for p in req["vertices"]]
    b = len(verts[0])
    ball = normball.NormBall("strict", b, [], [], verts, [], [], None)
    norms = [str(normball.evaluate_norm(ball, c)) for c in req["classes"]]
    return {"norms": norms}


def op_tables(req, tracer):
    return {"tables": fixtures.TABLES}


def op_rows(req, tracer):
    """The oriented matching rows op_search uses, for the reference."""
    tri = triangulation_from_json(fixtures.fixture_json(req["table"]))
    return {"rows": [list(r) for r in
                     normball.Pipeline(tri).matching_oriented.rows]}


OPS = {"cli": op_cli, "search": op_search, "hull": op_hull,
       "gauge": op_gauge, "tables": op_tables, "rows": op_rows}


def main():
    # The protocol owns the real stdout; the program's own prints go to
    # the per-operation buffer in op_cli, anything else to stderr.
    proto = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    src = os.path.join(ROOT, "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(
            thurston.__file__))) != src:
        sys.exit("thurston imported from %s, not %s"
                 % (thurston.__file__, src))
    proto.write(json.dumps({"ready": True, "speed": machine_speed()}) + "\n")
    proto.flush()
    tracer = Tracer()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "trace":
            tracer.install()
            reply = {}
        else:
            before = machine_speed()
            with tracer.operation(req["op"]) as root:
                try:
                    out = OPS[req["op"]](req, tracer)
                except Exception:
                    # A program error fails this operation, not the run.
                    out = {"exception": traceback.format_exc()}
            reply = {"out": out, "seconds": root.end - root.start,
                     "speed": (before + machine_speed()) / 2,
                     "spans": tracer.drain()}
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
