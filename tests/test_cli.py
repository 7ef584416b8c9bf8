import json
import os
import subprocess
import sys

import pytest

import thurston
from thurston.cli import run
from thurston.coords import vertex_linking_vector
from thurston.fixtures import fixture_json, load
from thurston.rat import parse_fraction, primitive_integer_vector


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


def test_norm_degenerate_exit_2(paths, capsys):
    code, out = _run(capsys, ["norm", paths["two_tet_b1"], "--class", "1"])
    assert code == 2
    assert json.loads(out)["error"]["code"] == "degenerate-norm-ball"


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
])
def test_surface_malformed_coords(paths, capsys, payload):
    code, out = _run(capsys, ["surface", paths["d2"], "--coords", payload])
    assert code == 1
    assert json.loads(out)["error"]["code"] == "bad-coords"


def test_representative_zero_class(paths, capsys):
    code, out = _run(capsys, ["representative", paths["d2"],
                              "--class", "", "--max-weight", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] and doc["weight"] == 0


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
