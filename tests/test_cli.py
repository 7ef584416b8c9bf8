import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import thurston
from thurston.cli import run
from thurston.coords import NormalVector, vertex_linking_vector
from thurston.fixtures import fixture_json, load, names
from thurston.homology import homology_map_matrix
from thurston.normball import Pipeline, TautRepresentative
from thurston.rat import parse_fraction, primitive_integer_vector
from thurston.surfaces import reconstruct_surface
from thurston.triangulation import triangulation_from_json

from test_normball import B1_GROWN


@pytest.fixture()
def paths(tmp_path):
    out = {}
    for name in ("d2", "two_tet_b1", "two_tet_efficient"):
        p = tmp_path / (name + ".json")
        p.write_text(fixture_json(name))
        out[name] = str(p)
    return out


def _run(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_ok(paths, capsys):
    code, out = _run(capsys, ["validate", paths["d2"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["tets"] == 2
    assert doc["edge_degrees"] == [2] * 6


def test_validate_invalid_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tets": [
        [[1, "0123"], [1, "0123"], [1, "0123"], [1, "0123"]],
        [[0, "0132"], [0, "0123"], [0, "0123"], [0, "0123"]]]}))
    code, out = _run(capsys, ["validate", str(bad)])
    assert code == 1
    doc = json.loads(out)
    assert not doc["valid"] and doc["errors"]


def test_boolean_target_is_parse_error(tmp_path, capsys):
    """JSON true is not tetrahedron 1."""
    bad = tmp_path / "bool.json"
    bad.write_text(fixture_json("d2").replace("[1,", "[true,"))
    code, out = _run(capsys, ["validate", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = _run(capsys, ["validate", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize("text", [
    pytest.param("[" * 200000, id="deeply-nested"),
    pytest.param('{"tets": [[[1%s, "0123"]]]}' % ("0" * 5000),
                 id="integer-over-4300-digits"),
])
def test_undecodable_json_is_parse_error(tmp_path, capsys, text):
    """JSON the decoder gives up on (a RecursionError, or a ValueError
    from int conversion) is a parse-error, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out = _run(capsys, ["validate", str(bad)])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "parse-error"


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    for command in ("validate", "enumerate", "ball", "efficiency"):
        code, out = _run(capsys, [command, str(bad)])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "parse-error"


@pytest.mark.parametrize("options", [
    ["--class", "1", "--max-weight", "x"],
    ["--max-weight", "2"],
    ["--class", "", "--max-weight", "-1"],
])
def test_usage_error_is_json_exit_1(paths, capsys, options):
    code, out = _run(capsys, ["representative", paths["d2"]] + options)
    assert code == 1
    assert json.loads(out)["error"]["code"] == "usage-error"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as e:
        run(["norm", "-h"])
    assert e.value.code == 0
    assert capsys.readouterr().out.startswith("usage: thurston norm")


def test_enumerate_oriented(paths, capsys):
    code, out = _run(capsys, ["enumerate", paths["d2"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["oriented"] and len(doc["vertices"]) == 16
    for v in doc["vertices"]:
        total = sum(parse_fraction(c) for c in v["coords"])
        assert total == 1


def test_enumerate_unoriented_includes_quad_spheres(paths, capsys):
    code, out = _run(capsys, ["enumerate", paths["d2"], "--unoriented"])
    doc = json.loads(out)
    assert not doc["oriented"]
    # two-quad sphere rays: supports of size 2 inside the quad block
    quad_supports = [v for v in doc["vertices"]
                     if all(i % 7 >= 4 for i in v["support"])]
    assert len(quad_supports) == 3


def test_ball_d2(paths, capsys):
    code, out = _run(capsys, ["ball", paths["d2"]])
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == 0
    assert doc["basis"] == []
    assert doc["B_vertices"] == []
    assert doc["ball_vertices"] == [[]]


def test_ball_emit_homology(paths, capsys):
    code, out = _run(capsys, ["ball", paths["two_tet_b1"],
                              "--emit-homology"])
    assert code == 0
    doc = json.loads(out)
    assert doc["b"] == 1
    assert len(doc["homology"]["map_rows"]) == 1
    assert len(doc["homology"]["map_rows"][0]) == 28


# `ball --emit-homology` stdout, byte for byte, on every fixture whose
# oriented cone enumerates in seconds (three_tet's does not); recorded
# from the program before the H^1 basis came from a single echelon form.
EMIT_HOMOLOGY = {
    "d2": (
        '{"B_vertices":[],"b":0,"ball_vertices":[[]],"basis":[],"basis_no'
        'rmalization":"primitive integer, denominators cleared","homology'
        '":{"b":0,"basis":[],"map_rows":[]},"variant":"strict","warnings"'
        ':["hypotheses unverified: triangulation is not simplicial and a '
        'non-vertex-linking normal sphere exists among vertex surfaces"]}' "\n"),
    "one_tet": (
        '{"B_vertices":[],"b":0,"ball_vertices":[[]],"basis":[],"basis_no'
        'rmalization":"primitive integer, denominators cleared","homology'
        '":{"b":0,"basis":[],"map_rows":[]},"variant":"strict","warnings"'
        ':[]}' "\n"),
    "two_tet_b1": (
        '{"B_vertices":[],"b":1,"ball_vertices":[["0/1"]],"basis":[["3/1"'
        ',"2/1","1/1"]],"basis_normalization":"primitive integer, '
        'denominators cleared","homology":{"b":1,"basis":[["3/1","2/1","1'
        '/1"]],"map_rows":[["0/1","0/1","1/1","-1/1","-1/1","1/1","0/1","'
        '0/1","1/1","-1/1","-1/1","1/1","0/1","0/1","0/1","0/1","0/1","0/'
        '1","0/1","0/1","0/1","0/1","0/1","0/1","0/1","0/1","0/1","0/1"]]'
        '},"variant":"strict","warnings":["hypotheses unverified: '
        'triangulation is not simplicial and a non-vertex-linking normal '
        'sphere exists among vertex surfaces"]}' "\n"),
    "two_tet_efficient": (
        '{"B_vertices":[],"b":0,"ball_vertices":[[]],"basis":[],"basis_no'
        'rmalization":"primitive integer, denominators cleared","homology'
        '":{"b":0,"basis":[],"map_rows":[]},"variant":"strict","warnings"'
        ':[]}' "\n"),
}


@pytest.mark.parametrize("name", sorted(EMIT_HOMOLOGY))
def test_ball_emit_homology_pinned(tmp_path, capsys, name):
    path = tmp_path / (name + ".json")
    path.write_text(fixture_json(name))
    assert _run(capsys, ["ball", "--emit-homology", str(path)]) == \
        (0, EMIT_HOMOLOGY[name])


def test_norm_dimension_mismatch(paths, capsys):
    code, out = _run(capsys, ["norm", paths["d2"], "--class", "1"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "class-dimension-mismatch"


@pytest.mark.parametrize("cls", ["1_0", "\u0661", "+1", " 1"])
def test_norm_class_needs_ascii_digits(paths, capsys, cls):
    """int() would read "1_0" as 10 and the Arabic-Indic digit one as 1."""
    code, out = _run(capsys, ["norm", paths["two_tet_b1"], "--class", cls])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-class"


def test_norm_zero_class(paths, capsys):
    code, out = _run(capsys, ["norm", paths["d2"], "--class", ""])
    assert code == 0
    assert json.loads(out)["norm"] == "0/1"


def test_norm_builds_no_ball_for_zero_or_bad_class(paths, capsys,
                                                  monkeypatch):
    def unreachable(self, variant="strict"):
        raise AssertionError("the ball was built")

    monkeypatch.setattr(thurston.normball.Pipeline, "norm_ball", unreachable)
    code, out = _run(capsys, ["norm", paths["d2"], "--class", ""])
    assert (code, out) == (0, '{"class":[],"norm":"0/1"}\n')
    code, out = _run(capsys, ["norm", paths["two_tet_b1"], "--class", "0"])
    assert (code, out) == (0, '{"class":[0],"norm":"0/1"}\n')
    code, out = _run(capsys, ["norm", paths["d2"], "--class", "1"])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "class-dimension-mismatch"


def test_norm_degenerate_exit_2(paths, capsys):
    code, out = _run(capsys, ["norm", paths["two_tet_b1"], "--class", "1"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "degenerate-norm-ball"


def test_ball_exit_code_reads_recession_classes(tmp_path, capsys,
                                               monkeypatch):
    """`ball` exits 2 when a recession vertex has a nonzero class, whatever
    the warnings say."""
    path = tmp_path / "b1_grown.json"
    path.write_text(B1_GROWN)
    monkeypatch.setattr(thurston.normball.Pipeline, "hypothesis_warnings",
                        lambda self, ball: [])
    code, out = _run(capsys, ["ball", str(path), "--variant", "le"])
    assert code == 2
    doc = json.loads(out)
    assert doc["warnings"] == []
    assert any(any(parse_fraction(c) for c in cls)
               for cls in doc["recession_classes"])


def test_surface_roundtrip_from_enumerate(paths, capsys):
    """Every admissible vertex of the unoriented enumeration reconstructs
    through the surface command once scaled to its integral
    representative."""
    code, out = _run(capsys, ["enumerate", paths["d2"], "--unoriented"])
    doc = json.loads(out)
    tested = 0
    for v in doc["vertices"]:
        if not v["admissible"]:
            continue
        ints = primitive_integer_vector(
            [parse_fraction(c) for c in v["coords"]])
        payload = json.dumps({"coords": ["%d/1" % c for c in ints],
                              "oriented": False})
        code, sout = _run(capsys, ["surface", paths["d2"],
                                   "--coords", payload])
        assert code == 0
        assert json.loads(sout)["components"]
        tested += 1
    assert tested == 7


def test_surface_oriented_input_projected(paths, capsys):
    payload = json.dumps({
        "coords": ["1/1" if i in (0, 14) else "0/1" for i in range(28)],
        "oriented": True})
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", payload])
    assert code == 0
    doc = json.loads(out)
    assert doc["components"][0]["vertex_linking"]


def test_surface_bad_coords(paths, capsys):
    payload = json.dumps({"coords": ["1/1"] * 14, "oriented": False})
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", payload])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-surface"


@pytest.mark.parametrize("payload", [
    '{"oriented": true, "coords": [1]}',
    '[1,2]',
    '{"oriented": false, "coords": 5}',
    '{"oriented": false, "coords": [1.5]}',
    '{"oriented": false, "coords": ["1/0"]}',
    pytest.param(json.dumps({"oriented": False, "coords": [True] + [0] * 13}),
                 id="boolean-coordinate"),
    pytest.param(json.dumps({"oriented": "false", "coords": [0] * 28}),
                 id="string-oriented-flag"),
    pytest.param(json.dumps({"oriented": False, "coords": ["1_0/1"] * 14}),
                 id="underscore-numerator"),
    pytest.param(json.dumps({"oriented": False,
                             "coords": ["1/\u0661"] * 14}),
                 id="non-ascii-denominator"),
    pytest.param("[" * 100000, id="deeply-nested"),
])
def test_surface_malformed_coords(paths, capsys, payload):
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", payload])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-coords"


@pytest.mark.parametrize("coords", [
    pytest.param("00000000000000", id="digit-string"),
    pytest.param({"0": 0}, id="object"),
    pytest.param(["1/-2"] * 14, id="signed-denominator"),
])
def test_surface_coords_must_be_an_array_of_fractions(paths, capsys, coords):
    """"coords" that is not a JSON array of "p/q" strings with q > 0 is
    bad-coords with exit code 1.  A string used to be read digit by digit,
    and on d2 the 14 digits above printed an empty surface with exit code
    0."""
    payload = json.dumps({"coords": coords, "oriented": False})
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", payload])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-coords"


def test_surface_coords_in_any_form_print_alike(paths, capsys):
    """"4/2" is the integer 2: the surface is the one "2/1" gives, and
    so is the plain integer 2."""
    link = vertex_linking_vector(load("d2"), 0, oriented=False).scale(2)
    outs = set()
    for two in ("2/1", "4/2", 2, "2"):
        coords = [two if c else "0/1" for c in link.coords]
        code, out = _run(capsys, ["surface", paths["d2"], "--coords",
                                  json.dumps({"coords": coords,
                                              "oriented": False})])
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert json.loads(outs.pop())["num_discs"] == 4


def test_surface_non_integral_coords_are_bad_surface(paths, capsys):
    for half in ("1/2", "3/2"):
        coords = [half] + ["0/1"] * 13
        code, out = _run(capsys, ["surface", paths["d2"], "--coords",
                                  json.dumps({"coords": coords,
                                              "oriented": False})])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "bad-surface", "message": "coordinates are not integral"}


def test_surface_oriented_weights_checked_before_projection(paths, capsys):
    """An oriented input must itself be nonnegative and integral.  On d2
    a pair (-1, 1) projects to the empty surface and all-1/2 pairs on the
    vertex link's discs to the vertex-linking sphere; each used to print
    with exit code 0."""
    link = vertex_linking_vector(load("d2"), 0, oriented=False)
    halves = [h if c else "0/1" for c in link.coords for h in ("1/2", "1/2")]
    for coords, message in (
            (["-1/1", "1/1"] + ["0/1"] * 26, "not in the nonnegative cone"),
            (halves, "coordinates are not integral")):
        code, out = _run(capsys, ["surface", paths["d2"], "--coords",
                                  json.dumps({"coords": coords,
                                              "oriented": True})])
        assert code == 1
        assert json.loads(out)["error"] == {"code": "bad-surface",
                                            "message": message}


def test_surface_builds_no_matching_system(paths, capsys, monkeypatch):
    """The surface command decides the matching equations on the arc
    stacks: with every matching-system builder raising it prints what
    it prints unpatched."""
    link = vertex_linking_vector(load("d2"), 0, oriented=False)
    argv = ["surface", paths["d2"], "--coords", json.dumps(
        {"coords": ["%d/1" % c for c in link.coords], "oriented": False})]
    want = _run(capsys, argv)

    def unreachable(tri, oriented=True):
        raise AssertionError("a matching system was built")

    for mod in (thurston.coords, thurston.normball, thurston.surfaces):
        monkeypatch.setattr(mod, "build_matching_system", unreachable)
    assert _run(capsys, argv) == want
    assert want[0] == 0 and json.loads(want[1])["components"]


def test_surface_rejects_a_huge_non_solution_before_any_disc(paths,
                                                             capsys):
    """10**18 discs of one triangle type would never be built; the
    matching equations reject them on the counts first."""
    coords = [10 ** 18] + [0] * 13
    with pytest.raises(ValueError, match="^matching equations violated$"):
        reconstruct_surface(load("d2"), NormalVector(tuple(coords), False))
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", json.dumps(
        {"coords": ["%d/1" % c for c in coords], "oriented": False})])
    assert code == 1
    assert json.loads(out)["error"] == {
        "code": "bad-surface", "message": "matching equations violated"}


def test_representative_zero_class(paths, capsys):
    code, out = _run(capsys, ["representative", paths["d2"],
                              "--class", "", "--max-weight", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["weight"] == 0


def test_representative_not_found(tmp_path, capsys):
    """On the grown two_tet_b1 class 1 has norm 2 and no taut
    representative of weight at most 4: the search runs to the end."""
    path = tmp_path / "b1_grown.json"
    path.write_text(B1_GROWN)
    code, out = _run(capsys, ["representative", str(path), "--class", "1",
                              "--max-weight", "4"])
    assert (code, out) == (0, '{"found":false,"max_weight":4}\n')


def test_representative_prints_the_found_surface(monkeypatch, tmp_path,
                                                capsys):
    """The `found` branch with a surface: the search is patched to return
    twice a class-0 B vertex of the grown two_tet_b1, an orientable
    surface of weight 8 and chi -2, and `representative` prints its
    coordinates, weight, Euler functional and surface report."""
    pipe = Pipeline(triangulation_from_json(B1_GROWN))
    x = next(x for x in (NormalVector(tuple(2 * c for c in v), True)
                         for v in pipe.norm_ball("strict").B_vertices)
             if pipe.hmap.class_of(x) == (0,))
    surface = pipe._try_representative(x)
    assert surface is not None and surface.total_chi == -2
    rep = TautRepresentative(x, surface, Fraction(-2), sum(x.coords))
    monkeypatch.setattr(Pipeline, "find_taut_representative",
                        lambda self, alpha, w_max: rep)
    path = tmp_path / "b1_grown.json"
    path.write_text(B1_GROWN)
    code, out = _run(capsys, ["representative", str(path), "--class", "1",
                              "--max-weight", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True and doc["weight"] == 8
    assert doc["coords"] == x.to_json_obj() and doc["chi_star"] == "-2/1"
    assert doc["surface"] == surface.report()


def test_representative_degenerate_exit_2(paths, capsys):
    code, out = _run(capsys, ["representative", paths["two_tet_b1"],
                              "--class", "1", "--max-weight", "2"])
    assert code == 2


def test_efficiency_reports(paths, capsys):
    code, out = _run(capsys, ["efficiency", paths["d2"]])
    assert code == 0
    assert json.loads(out)["status"] == "counterexample"
    code, out = _run(capsys, ["efficiency", paths["two_tet_efficient"]])
    assert json.loads(out)["status"] == \
        "no-counterexample-among-vertex-surfaces"


def test_byte_determinism(paths, capsys):
    for argv in (["validate", paths["d2"]],
                 ["enumerate", paths["d2"]],
                 ["ball", paths["d2"]],
                 ["efficiency", paths["d2"]]):
        _, out1 = _run(capsys, argv)
        _, out2 = _run(capsys, argv)
        assert out1 == out2


def test_parser_reuse_matches_fresh_processes(paths, capsys):
    """One process running several commands through run() prints what a
    fresh process prints for each, with the same exit code."""
    d2, b1 = paths["d2"], paths["two_tet_b1"]
    link = json.dumps(vertex_linking_vector(load("d2"), 0, oriented=False)
                      .to_json_obj())
    calls = [["enumerate", d2, "--unoriented"], ["enumerate", d2],
             ["ball", b1, "--variant", "le"], ["ball", b1],
             ["surface", d2, "--coords", '{"oriented": true, "coords": [1]}'],
             ["surface", d2, "--coords", link]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(thurston.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        fresh = subprocess.run([sys.executable, "-m", "thurston.cli"] + argv,
                               env=env, capture_output=True, text=True,
                               timeout=60)
        assert _run(capsys, argv) == (fresh.returncode, fresh.stdout), argv


# One sha256 over the argv, exit code and stdout of every invocation below,
# in order: `enumerate` in both theories (three_tet's oriented cone does
# not finish), `efficiency`, and `surface` on every admissible vertex of
# the unoriented enumeration at 1, 2 and 3 times its primitive integer
# representative, on every fixture; then `representative --max-weight 2`
# at the all-ones class on d2, one_tet and two_tet_b1.  Recorded from the
# program before normal coordinates were carried as integers.
STDOUT_DIGEST = (
    71, "acbfe31651e3f1c9de2ddd66a90b14d7edb5274bcc4defc192bec579362692b1")


def _digest_invocations(tmp_path, capsys):
    for name in names():
        path = tmp_path / (name + ".json")
        path.write_text(fixture_json(name))
        path = str(path)
        theories = ([["--unoriented"]] if name == "three_tet"
                    else [[], ["--unoriented"]])
        for extra in theories:
            yield ["enumerate", path] + extra
        yield ["efficiency", path]
        _, out = _run(capsys, ["enumerate", path, "--unoriented"])
        for v in json.loads(out)["vertices"]:
            if not v["admissible"]:
                continue
            ints = primitive_integer_vector(
                [parse_fraction(c) for c in v["coords"]])
            for k in (1, 2, 3):
                payload = json.dumps({"coords": ["%d/1" % (k * c)
                                                 for c in ints],
                                      "oriented": False})
                yield ["surface", path, "--coords", payload]
    for name in ("d2", "one_tet", "two_tet_b1"):
        path = tmp_path / (name + ".json")
        b = homology_map_matrix(load(name)).b
        yield ["representative", str(path), "--class", ",".join(["1"] * b),
               "--max-weight", "2"]


def test_stdout_digest_pinned(tmp_path, capsys):
    """CLI stdout and exit codes are byte-identical to the recorded ones on
    every fixture and the commands that read normal coordinates."""
    h = hashlib.sha256()
    count = 0
    for argv in _digest_invocations(tmp_path, capsys):
        code, out = _run(capsys, argv)
        h.update(("%s\0%d\0%s\0" % (
            "\0".join(a.replace(str(tmp_path), "") for a in argv),
            code, out)).encode())
        count += 1
    assert (count, h.hexdigest()) == STDOUT_DIGEST


# sha256 over argv (temporary directory stripped), exit code and stdout,
# in order: `ball`, `ball --variant le` and `ball --emit-homology` on every
# fixture but three_tet (its oriented cone takes about 20 s) and on the
# grown two_tet_b1, the one input with a nonempty B, each followed by
# `norm --class 1,...,1` when b >= 1.  Recorded from the program that
# still ran the asphericity check on every B vertex.
BALL_DIGEST = (
    17, "f06ec1d7c3bcd635a5b63d0c4dbc1d504511232833b69389694184b514897dba")


def _ball_invocations(tmp_path):
    inputs = [(name, fixture_json(name)) for name in names()
              if name != "three_tet"] + [("b1_grown", B1_GROWN)]
    for name, text in inputs:
        path = tmp_path / (name + ".json")
        path.write_text(text)
        path = str(path)
        for extra in ([], ["--variant", "le"], ["--emit-homology"]):
            yield ["ball", path] + extra
        b = homology_map_matrix(triangulation_from_json(text)).b
        if b:
            yield ["norm", path, "--class", ",".join(["1"] * b)]


def test_ball_digest_pinned(tmp_path, capsys):
    """`ball` and `norm` stdout and exit codes are byte-identical to the
    recorded ones on the fixtures and on the one input whose B is
    nonempty."""
    h = hashlib.sha256()
    count = 0
    for argv in _ball_invocations(tmp_path):
        code, out = _run(capsys, argv)
        h.update(("%s\0%d\0%s\0" % (
            "\0".join(a.replace(str(tmp_path), "") for a in argv),
            code, out)).encode())
        count += 1
    assert (count, h.hexdigest()) == BALL_DIGEST
