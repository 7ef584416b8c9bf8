"""Benchmark of the thurston program: the oriented ball ladder, the
unoriented vertex scan and the LP-bound search.

    python3 perfbench/run.py --workload ball-ladder --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's src directory by one worker process (worker.py), which runs
one operation at a time: a CLI command or a public entry point.  Each
operation has a time limit per workload; an operation that hits it is
killed, counted as failed and charged the full limit, and the worker is
started again outside the timed interval.  Every finished output is
checked (checks.py), and at the default seed also compared byte for byte
with the output recorded in expected/.

The run makes at least MIN_PASSES passes over the workload, more while
another fits in --seconds, then prints a report and, as its last line,
one JSON object with the end-to-end metrics.  With --trace 1 one traced
pass follows, and the JSON object has the per-layer metrics from its
spans, which are also written to .perfbench/ in the checkout.  README.md
describes the workloads and metrics.

--record rewrites expected/<workload>.json.gz, the outputs of every
operation that finishes at the default seed, from the program.
"""

import argparse
import gzip
import json
import os
import select
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
EXPECTED = os.path.join(HERE, "expected")

DEFAULT_SEED = 1
# Per-operation time limit by workload, in seconds at the reference speed
# (see worker.py); the wall-clock deadline is the limit over the speed last
# measured.  Each limit sits in a wide gap of the operation times, so no
# operation flips between finished and failed from pass to pass: in
# ball-ladder d2's 4-tet ball takes 1.0-1.2 s and the fastest operation
# that fails, two_tet_b1's 3-tet ball, takes 24 s or more; in the other
# workloads no operation takes over 2 s.
LIMITS = {"ball-ladder": 3.0, "vertex-scan": 5.0, "lp-search": 10.0}
SETUP_STARTS = 2
MIN_PASSES = 3
READY_TIMEOUT = 60.0


class WorkerError(RuntimeError):
    pass


class Worker:
    """The worker process and its line protocol."""

    def __init__(self):
        self.proc = None
        self.buf = bytearray()
        self.speed = 1.0

    def start(self):
        """Start a fresh worker; the seconds until it is ready, at the
        reference speed (see worker.py)."""
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
                   PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        self.buf = bytearray()
        msg = self._read(t0 + READY_TIMEOUT)
        if msg is None or not msg.get("ready"):
            self.kill()
            raise WorkerError("worker did not start")
        self.speed = msg["speed"]
        return (time.perf_counter() - t0) * self.speed

    def _read(self, deadline):
        fd = self.proc.stdout.fileno()
        while True:
            end = self.buf.find(b"\n")
            if end >= 0:
                line = bytes(self.buf[:end])
                del self.buf[:end + 1]
                return json.loads(line)
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise WorkerError("worker exited with code %s"
                                  % self.proc.wait())
            self.buf += chunk

    def call(self, req, limit):
        """The reply, or None when the limit passed first; the worker is
        then killed."""
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        reply = self._read(time.perf_counter() + limit)
        if reply is None:
            self.kill()
        elif "speed" in reply:
            self.speed = reply["speed"]
        return reply

    def kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def stop(self):
        if self.proc is not None:
            self.proc.stdin.close()
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                pass
            self.kill()


class Session:
    """One run's worker, inputs and checks; the workloads call cli() and
    call() one operation at a time."""

    def __init__(self, workload, seed, expected, recording):
        self.workload = workload
        self.seed = seed
        self.limit = LIMITS[workload]
        self.expected = expected
        self.recording = recording
        self.tracing = False
        self.worker = Worker()
        self.setup_times = []
        self._rows = {}
        self.records = []
        self.trace = []
        self.timed_out = {}
        self.verified = {}
        self.max_tets = 0
        self.peak_rss_kb = 0

    def setup(self):
        """Start the worker; the first start compiles the sources, which
        later starts read back, so it is not timed."""
        self.worker.start()
        self.tables = self._setup_call({"op": "tables"})["out"]["tables"]

    def time_setup(self):
        """Time SETUP_STARTS fresh workers and keep the last one.  Called
        before every pass, so the samples spread over the run."""
        for _ in range(SETUP_STARTS):
            self.worker.stop()
            self.setup_times.append(self._start())

    def _setup_call(self, req):
        reply = self.worker.call(req, READY_TIMEOUT)
        if reply is None:
            raise WorkerError("set-up operation %s timed out" % req["op"])
        return reply

    def _start(self):
        """Start a fresh worker, traced if tracing is on; the seconds it
        took to be ready, tracing excluded."""
        seconds = self.worker.start()
        if self.tracing:
            self._setup_call({"op": "trace"})
        return seconds

    def enable_tracing(self):
        """Trace from the next pass on, whose fresh workers get the
        wrappers."""
        self.tracing = True

    def matching_rows(self, table):
        if table not in self._rows:
            self._rows[table] = self._setup_call(
                {"op": "rows", "table": table})["out"]["rows"]
        return self._rows[table]

    def write_table(self, tag, table):
        """Write a gluing table for the CLI; the path is relative to the
        checkout root, the worker's working directory."""
        rel = os.path.join(".perfbench", "tables", self.workload,
                           tag.replace("/", "_") + ".json")
        with open(os.path.join(ROOT, rel), "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        return rel

    @staticmethod
    def doc(out):
        """The JSON document a CLI command printed."""
        return json.loads(out["stdout"])

    @staticmethod
    def dumps(obj):
        return json.dumps(obj, separators=(",", ":"))

    def decided(self, tets):
        self.max_tets = max(self.max_tets, tets)

    def cli(self, op_id, metric, argv, check):
        return self.call(op_id, metric, {"op": "cli", "argv": argv}, check)

    def call(self, op_id, metric, req, check):
        """Run one operation; its output when it finished with a correct
        one, else None.  An operation that hit the limit, or killed the
        worker, in an earlier pass of the run is charged the limit again
        without running, so a failure costs one limit per run."""
        rec = {"id": op_id, "metric": metric, "seconds": self.limit,
               "status": self.timed_out.get(op_id)}
        self.records.append(rec)
        if rec["status"]:
            return None
        try:
            reply = self.worker.call(req, self.limit / self.worker.speed)
        except WorkerError:
            reply = None
            rec["status"] = "worker died"
        if reply is None:
            rec["status"] = rec["status"] or "timeout"
            self.timed_out[op_id] = rec["status"]
            self.worker.kill()
            self._start()
            return None
        self.peak_rss_kb = max(self.peak_rss_kb, reply["rss_kb"])
        self.trace.append({"op": op_id, "speed": reply["speed"],
                           "spans": reply["spans"]})
        out = reply["out"]
        text = out["stdout"] if "stdout" in out else self.dumps(out)
        # An output already checked in an earlier pass is checked again
        # only if it changed.
        if "exception" in out:
            error = out["exception"].strip().splitlines()[-1]
        elif self.verified.get(op_id) == text:
            error = None
        else:
            error = check(out) or self._compare(op_id, text)
        if error is None:
            self.verified[op_id] = text
        rec.update(status="wrong" if error else "ok",
                   seconds=reply["seconds"] * reply["speed"], error=error)
        return None if error else out

    def _compare(self, op_id, text):
        if self.recording:
            self.expected[op_id] = text
            return None
        want = self.expected.get(op_id)
        if want is not None and want != text:
            return "output differs from expected/%s.json.gz" % self.workload
        return None

    def run_pass(self):
        """One pass over the workload; its operation records."""
        self.time_setup()
        self.records = []
        self.trace = []
        workloads.WORKLOADS[self.workload](self)
        return self.records


def summarize(workload, passes, max_tets, peak_rss_kb):
    """Metrics of a run from its passes.  Each operation counts once: as
    failed if it failed in any pass, charged the limit, else at its median
    time over the passes."""
    runs = {}
    for recs in passes:
        for r in recs:
            runs.setdefault(r["id"], []).append(r)
    best = {}
    for op_id, rs in runs.items():
        bad = [r for r in rs if r["status"] != "ok"]
        best[op_id] = bad[0] if bad else dict(
            rs[0], seconds=statistics.median(r["seconds"] for r in rs))
    recs = list(best.values())
    failed = [r for r in recs if r["status"] != "ok"]
    out = {
        "wall_s": sum(r["seconds"] for r in recs),
        "finished_share": 1 - len(failed) / len(recs),
        "max_tets_decided": max_tets,
        "peak_rss_mb": peak_rss_kb / 1024,
        "attempted": len(recs),
        "failed": len(failed),
        "wrong": sum(1 for r in failed if r["status"] == "wrong"),
        "failures": ["%s (%s)" % (r["id"], r.get("error") or r["status"])
                     for r in failed],
    }
    for metric in workloads.COMMANDS[workload]:
        out[metric + "_s"] = sum(r["seconds"] for r in recs
                                 if r["metric"] == metric)
    return out


# -- per-layer metrics from spans -----------------------------------------

LAYER_TIMES = {
    "triangulation.load_s": "triangulation.load",
    "coords.matching_s": "coords.matching",
    "homology.map_s": "homology.map",
    "linalg.dd_oriented_s": "linalg.dd_oriented",
    "linalg.dd_unoriented_s": "linalg.dd_unoriented",
    "linalg.lp_s": "linalg.lp",
    "linalg.hull_s": "linalg.hull",
    "normball.norm_ball_s": "normball.norm_ball",
    "normball.warnings_s": "normball.warnings",
    "normball.efficiency_s": "normball.efficiency",
    "surfaces.reconstruct_s": "surfaces.reconstruct",
}


def layer_metrics(trace, traced_wall, untraced_wall):
    """Self time per layer (a span's duration minus its children's), the
    counts recorded at the same boundaries, and the ratios built from
    them."""
    self_time = {}
    counts = {}
    calls = {}
    search_s = search_lp_s = cli_overhead = 0.0
    for op in trace:
        spans = op["spans"]
        scale = op["speed"]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child[s["parent"]] += (s["end"] - s["start"]) * scale
        for i, s in enumerate(spans):
            dur = (s["end"] - s["start"]) * scale
            name = s["name"]
            if s["parent"] is None:
                if name == "cli":
                    cli_overhead += dur - child[i]
                continue
            self_time[name] = self_time.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            for k, v in s["counts"].items():
                counts[name, k] = counts.get((name, k), 0) + v
            if name == "normball.search":
                search_s += dur
            elif name == "linalg.lp" and \
                    spans[s["parent"]]["name"] == "normball.search":
                search_lp_s += dur

    def share(num, den):
        return num / den if den else 0.0

    out = {k: self_time.get(v, 0.0) for k, v in LAYER_TIMES.items()}
    for kind in ("oriented", "unoriented"):
        name = "linalg.dd_" + kind
        rays = counts.get((name, "rays"), 0)
        out[name + "_rays"] = rays
        out[name + "_useful_share"] = share(
            counts.get((name, "admissible"), 0), rays)
    out["linalg.lp_calls"] = calls.get("linalg.lp", 0)
    out["linalg.hull_points_in"] = counts.get(("linalg.hull", "points_in"), 0)
    out["linalg.hull_points_out"] = counts.get(
        ("linalg.hull", "points_out"), 0)
    out["normball.search_s"] = search_s
    out["normball.search_points"] = counts.get(
        ("normball.search", "points"), 0)
    out["normball.search_lp_share"] = share(search_lp_s, search_s)
    out["surfaces.reconstruct_calls"] = calls.get("surfaces.reconstruct", 0)
    out["surfaces.discs"] = counts.get(("surfaces.reconstruct", "discs"), 0)
    out["cli.overhead_s"] = cli_overhead
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# -- report ----------------------------------------------------------------


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected/<workload>.json.gz")
    args = parser.parse_args(argv)
    if args.record and args.seed != DEFAULT_SEED:
        parser.error("--record needs the default seed %d" % DEFAULT_SEED)
    if not os.path.isdir(os.path.join(ROOT, "src", "thurston")):
        sys.exit("no src/thurston under %s: run from a checkout" % ROOT)
    bench = load_benchmark()
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}

    expected_path = os.path.join(EXPECTED, args.workload + ".json.gz")
    expected = {}
    if args.seed == DEFAULT_SEED and not args.record \
            and os.path.exists(expected_path):
        with gzip.open(expected_path, "rt", encoding="utf-8") as fh:
            expected = json.load(fh)
    os.makedirs(os.path.join(WORK, "tables", args.workload), exist_ok=True)

    session = Session(args.workload, args.seed, expected, args.record)
    try:
        session.setup()
        t0 = time.perf_counter()
        passes = []
        while not passes or not args.record and (
                len(passes) < MIN_PASSES
                or (time.perf_counter() - t0) * (len(passes) + 1)
                / len(passes) <= args.seconds):
            passes.append(session.run_pass())
        summary = summarize(args.workload, passes, session.max_tets,
                            session.peak_rss_kb)
        if args.trace:
            session.enable_tracing()
            traced_wall = sum(r["seconds"] for r in session.run_pass())
            trace = session.trace
    finally:
        session.worker.stop()

    if args.record:
        text = json.dumps(session.expected, indent=0, sort_keys=True) + "\n"
        with gzip.GzipFile(expected_path, "wb", mtime=0) as fh:
            fh.write(text.encode("utf-8"))

    e2e = dict(summary, setup_s=statistics.median(session.setup_times))
    print("workload %s  seed %d  passes %d  limit %g s per operation"
          % (args.workload, args.seed, len(passes), session.limit))
    # value: the run's metric; median, q1, q3 over the n samples it
    # comes from (starts for setup_s, passes for the times).
    print("%-20s %-6s %12s %12s %12s %12s %3s"
          % ("metric", "unit", "value", "median", "q1", "q3", "n"))
    samples = {"setup_s": session.setup_times,
               "wall_s": [sum(r["seconds"] for r in p) for p in passes]}
    for metric in workloads.COMMANDS[args.workload]:
        samples[metric + "_s"] = [sum(r["seconds"] for r in p
                                      if r["metric"] == metric)
                                  for p in passes]
    for key, values in samples.items():
        q1, q3 = _quartiles(values)
        print("%-20s %-6s %12.6g %12.6g %12.6g %12.6g %3d"
              % (key, "s", e2e[key], statistics.median(values), q1, q3,
                 len(values)))
    for key in ("finished_share", "max_tets_decided", "peak_rss_mb"):
        print("%-20s %-6s %12.6g" % (key, units[key], e2e[key]))
    print("%-20s %-6s %12.6g (%d of %d operations)"
          % ("failed_share", "share", 1 - e2e["finished_share"],
             summary["failed"], summary["attempted"]))
    for failure in summary["failures"]:
        print("failed: " + failure)

    if args.trace:
        untraced = statistics.median(samples["wall_s"])
        layers = layer_metrics(trace, traced_wall, untraced)
        out = os.path.join(WORK, "trace-%s-%d.json"
                           % (args.workload, args.seed))
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        print("traced pass %.6g s, untraced median %.6g s; spans in %s"
              % (traced_wall, untraced, os.path.relpath(out, ROOT)))
        for key, value in layers.items():
            print("%-34s %-6s %.6g" % (key, units.get(key, ""), value))
        names = [m["name"] for m in bench["per_layer"]]
        metrics = {k: {"value": layers[k], "unit": units[k]} for k in names}
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        metrics = {k: {"value": e2e[k], "unit": units[k]} for k in names}

    print(json.dumps({"correct": summary["wrong"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
