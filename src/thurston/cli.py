"""Command-line front end.

Subcommands: validate, enumerate, ball, norm, surface, representative,
efficiency.  Standard output carries exactly one JSON document per run
with all numbers as exact rational strings "p/q"; logging goes to
standard error.  Exit codes: 0 success, 1 invalid input (a usage error
included), 2 hypothesis-violation certificate.
"""

import argparse
import json
import logging
import sys

from .coords import NormalVector, forget_orientation, num_coords
from .normball import (DegenerateNormBall, NormBallError, Pipeline,
                       evaluate_norm)
from .rat import format_fraction, format_vector, parse_int
from .surfaces import reconstruct_surface
from .triangulation import (InvalidTriangulation, TriangulationError,
                            parse_triangulation, validate_and_orient,
                            compute_skeleton, is_simplicial)

log = logging.getLogger("thurston")


class CliError(Exception):
    def __init__(self, code, message, exit_code=1):
        super().__init__(message)
        self.code = code
        self.exit_code = exit_code


def _dump(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _load_triangulation(path, validate_only=False):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise CliError("io-error", str(e))
    except UnicodeDecodeError as e:
        raise CliError("parse-error", "gluing file is not UTF-8: %s" % e)
    try:
        tri = parse_triangulation(text)
    except TriangulationError as e:
        raise CliError("parse-error", str(e))
    try:
        validate_and_orient(tri)
    except InvalidTriangulation as e:
        if validate_only:
            return tri, list(e.report)
        raise CliError("invalid-triangulation", "; ".join(e.report))
    compute_skeleton(tri)
    return tri, []


def _vertex_entry(v):
    return {"coords": format_vector(v.coords),
            "support": sorted(v.support),
            "chi_star": format_fraction(v.chi),
            "admissible": v.admissible}


def cmd_validate(args):
    tri, errors = _load_triangulation(args.file, validate_only=True)
    valid = not errors
    out = {"valid": valid, "errors": errors, "tets": tri.num_tets}
    if valid:
        out.update({
            "tet_signs": list(tri.tet_signs),
            "vertex_classes": len(tri.vertex_classes),
            "edge_classes": len(tri.edge_classes),
            "face_classes": len(tri.face_classes),
            "edge_degrees": list(tri.degrees),
            "simplicial": is_simplicial(tri),
        })
    _dump(out)
    return 0 if valid else 1


def cmd_enumerate(args):
    tri, _ = _load_triangulation(args.file)
    pipe = Pipeline(tri)
    verts = pipe.enumerate_vertices(oriented=not args.unoriented)
    _dump({"oriented": not args.unoriented,
           "vertices": [_vertex_entry(v) for v in verts]})
    return 0


def cmd_ball(args):
    tri, _ = _load_triangulation(args.file)
    pipe = Pipeline(tri)
    ball = pipe.norm_ball(args.variant)
    warnings = pipe.hypothesis_warnings(ball)
    out = {
        "variant": ball.variant,
        "b": ball.b,
        "basis": [format_vector(v) for v in ball.basis],
        "basis_normalization": "primitive integer, denominators cleared",
        "B_vertices": [format_vector(v) for v in ball.B_vertices],
        "ball_vertices": [format_vector(v) for v in ball.ball_vertices],
        "warnings": warnings,
    }
    if args.variant == "le":
        out["recession_vertices"] = [format_vector(v)
                                     for v in ball.recession_vertices]
        out["recession_classes"] = [format_vector(v)
                                    for v in ball.recession_classes]
    if args.emit_homology:
        out["homology"] = {
            "b": ball.b,
            "basis": [format_vector(v) for v in ball.basis],
            "map_rows": [format_vector(row) for row in ball.hmap.rows],
        }
    _dump(out)
    certificate = any(w.startswith("atoroidality certificate")
                      for w in warnings)
    return 2 if certificate else 0


def _parse_class(text, b):
    try:
        values = [parse_int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise CliError("bad-class", "class vector must be integers")
    if len(values) != b:
        raise CliError("class-dimension-mismatch",
                       "class dimension mismatch: expected %d entries" % b)
    return values


def cmd_norm(args):
    tri, _ = _load_triangulation(args.file)
    pipe = Pipeline(tri)
    ball = pipe.norm_ball("strict")
    alpha = _parse_class(args.cls, ball.b)
    try:
        value = evaluate_norm(ball, alpha)
    except DegenerateNormBall as e:
        raise CliError("degenerate-norm-ball", str(e), exit_code=2)
    _dump({"class": alpha, "norm": format_fraction(value)})
    return 0


def cmd_surface(args):
    tri, _ = _load_triangulation(args.file)
    try:
        obj = json.loads(args.coords)
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        x = NormalVector.from_json_obj(obj)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as e:
        raise CliError("bad-coords", "cannot parse coordinates: %s" % e)
    if len(x.coords) != num_coords(tri.num_tets, x.oriented):
        raise CliError("bad-coords", "coordinate length mismatch")
    if x.oriented:
        x = forget_orientation(x)
    try:
        surface = reconstruct_surface(tri, x)
    except ValueError as e:
        raise CliError("bad-surface", str(e))
    _dump(surface.report())
    return 0


def cmd_representative(args):
    tri, _ = _load_triangulation(args.file)
    pipe = Pipeline(tri)
    alpha = _parse_class(args.cls, pipe.hmap.b)
    try:
        rep = pipe.find_taut_representative(alpha, args.max_weight)
    except DegenerateNormBall as e:
        raise CliError("degenerate-norm-ball", str(e), exit_code=2)
    except NormBallError as e:
        raise CliError("bad-class", str(e))
    if rep is None:
        _dump({"found": False, "max_weight": args.max_weight})
        return 0
    out = {"found": True,
           "coords": rep.coords.to_json_obj(),
           "weight": rep.weight,
           "chi_star": format_fraction(rep.chi)}
    if rep.surface is not None:
        out["surface"] = rep.surface.report()
    _dump(out)
    return 0


def cmd_efficiency(args):
    tri, _ = _load_triangulation(args.file)
    pipe = Pipeline(tri)
    result = pipe.check_zero_efficiency()
    out = {"status": result["status"]}
    if result["status"] == "counterexample":
        out["coords"] = result["coords"].to_json_obj()
        out["surface"] = result["surface"].report()
    else:
        out["vertex_surfaces_checked"] = result["vertex_surfaces_checked"]
    _dump(out)
    return 0


def _weight(text):
    """--max-weight: a nonnegative integer in ASCII digits."""
    try:
        value = parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError("negative weight: %r" % text)
    return value


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into a CliError, hence a JSON error with exit
    code 1; the usage line still goes to standard error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError("usage-error", message)


def build_parser():
    parser = _Parser(
        prog="thurston",
        description="Thurston norm unit balls of closed triangulated "
                    "3-manifolds via transversely oriented normal surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a gluing file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("enumerate",
                       help="vertices of the projective solution space")
    p.add_argument("file")
    p.add_argument("--unoriented", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("ball", help="compute the norm ball")
    p.add_argument("file")
    p.add_argument("--variant", choices=("strict", "le"), default="strict")
    p.add_argument("--emit-homology", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("norm", help="evaluate the norm of a class")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True,
                   help="comma-separated integers in the emitted basis")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("surface", help="reconstruct a normal surface")
    p.add_argument("file")
    p.add_argument("--coords", required=True,
                   help="NormalVector JSON")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("representative",
                       help="search for a taut normal representative")
    p.add_argument("file")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--max-weight", type=_weight, required=True)
    p.set_defaults(func=cmd_representative)

    p = sub.add_parser("efficiency", help="0-efficiency diagnostic")
    p.add_argument("file")
    p.set_defaults(func=cmd_efficiency)
    return parser


_parser = None


def run(argv):
    """One command; the parser is built on the first call of a process
    and reused by later ones."""
    global _parser
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        _dump({"error": {"code": e.code, "message": str(e)}})
        return e.exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
