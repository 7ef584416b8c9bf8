"""Spans around the calls into each layer of the program, recorded from
the benchmark's side.

`Tracer.install` wraps, by name, the functions the program's modules call
across layer boundaries.  Each span records its name, its start and end
on the worker's clock, the index of the span that caused it (the
operation's root span has none) and any counts.  Spans stay in memory
until the worker sends them with the operation's reply.  The program is
not modified: only the names its modules look up change while tracing is
on, and tracing is on only in the worker of a traced run.
"""

import contextlib
import functools
import time
from functools import cached_property


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.counts = {}
        self.start = time.perf_counter()
        self.end = None

    def to_json(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.enabled = False
        self._spans = []
        self._stack = []

    @contextlib.contextmanager
    def operation(self, name):
        """The root span of one operation; timed whether or not tracing is
        on, recorded only when it is."""
        self._spans = []
        self._stack = []
        with self.span(name, force=True) as root:
            yield root

    @contextlib.contextmanager
    def span(self, name, force=False):
        s = Span(name, self._stack[-1] if self._stack else None)
        if not (self.enabled or force):
            yield s
            s.end = time.perf_counter()
            return
        self._spans.append(s)
        self._stack.append(len(self._spans) - 1)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def drain(self):
        """The recorded spans of the last operation, as JSON objects."""
        out = [s.to_json() for s in self._spans] if self.enabled else []
        self._spans = []
        return out

    def wrap(self, name, fn, count=None):
        """`fn` inside a span; `count(span, args, result)` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                count(s, args, result)
            return result
        return traced

    def wrap_generator(self, name, fn):
        """A generator function whose every step runs inside a span; the
        span of a step that yields counts one point."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                with self.span(name) as s:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    s.counts["points"] = 1
                yield item
        return traced

    def install(self):
        """Wrap the layer entry points; idempotent."""
        if self.enabled:
            return
        from thurston import cli, coords, normball, surfaces

        def count_rays(oriented):
            def count(s, args, rays):
                s.counts["rays"] = len(rays)
                s.counts["admissible"] = sum(
                    1 for r in rays
                    if coords.is_admissible(
                        coords.NormalVector(r.coords, oriented)))
            return count

        def count_hull(s, args, kept):
            s.counts["points_in"] = len(args[0])
            s.counts["points_out"] = len(kept)

        def count_discs(s, args, surface):
            s.counts["discs"] = len(surface.discs)

        load = "triangulation.load"
        for fn in ("parse_triangulation", "validate_and_orient",
                   "compute_skeleton"):
            setattr(cli, fn, self.wrap(load, getattr(cli, fn)))
        for mod in (normball, surfaces):
            mod.build_matching_system = self.wrap(
                "coords.matching", mod.build_matching_system)
            mod.reconstruct_surface = self.wrap(
                "surfaces.reconstruct", mod.reconstruct_surface, count_discs)
        cli.reconstruct_surface = normball.reconstruct_surface
        normball.homology_map_matrix = self.wrap(
            "homology.map", normball.homology_map_matrix)
        normball.solve_lp = self.wrap("linalg.lp", normball.solve_lp)
        normball.remove_redundant_points = self.wrap(
            "linalg.hull", normball.remove_redundant_points, count_hull)

        pipe = normball.Pipeline
        for attr, name, oriented in (
                ("oriented_rays", "linalg.dd_oriented", True),
                ("unoriented_rays", "linalg.dd_unoriented", False)):
            prop = cached_property(self.wrap(
                name, pipe.__dict__[attr].func, count_rays(oriented)))
            prop.__set_name__(pipe, attr)
            setattr(pipe, attr, prop)
        for attr, name in (("norm_ball", "normball.norm_ball"),
                           ("hypothesis_warnings", "normball.warnings"),
                           ("check_zero_efficiency", "normball.efficiency")):
            setattr(pipe, attr, self.wrap(name, getattr(pipe, attr)))
        pipe._integral_points = self.wrap_generator(
            "normball.search", pipe._integral_points)
        self.enabled = True
