"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the program's own test collection; the
smoke passes start worker processes and take about twenty seconds.
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import moves  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from thurston.fixtures import TABLES  # noqa: E402
from thurston.homology import betti_numbers  # noqa: E402
from thurston.triangulation import triangulation_from_json  # noqa: E402

E2E = ["setup_s", "wall_s", "failed_share", "max_tets_decided",
       "peak_rss_mb"]
COMMAND_METRICS = {
    "ball-ladder": ["ball_s", "norm_s", "enumerate_s", "representative_s"],
    "vertex-scan": ["enumerate_s", "efficiency_s", "surface_s"],
    "lp-search": ["search_s", "hull_s", "gauge_s"],
}
PER_LAYER = [
    "triangulation.load_s", "coords.matching_s", "homology.map_s",
    "linalg.dd_oriented_s", "linalg.dd_oriented_rays",
    "linalg.dd_oriented_useful_share", "linalg.dd_unoriented_s",
    "linalg.dd_unoriented_rays", "linalg.dd_unoriented_useful_share",
    "linalg.lp_calls", "linalg.lp_s", "linalg.hull_s",
    "linalg.hull_points_in", "linalg.hull_points_out",
    "normball.norm_ball_s", "normball.warnings_s", "normball.efficiency_s",
    "normball.search_s", "normball.search_points",
    "normball.search_lp_share", "surfaces.reconstruct_s",
    "surfaces.reconstruct_calls", "surfaces.discs", "cli.overhead_s",
    "trace.overhead_s",
]


def test_growth_is_deterministic_per_seed():
    for name, table in TABLES.items():
        if name == "one_tet":
            continue
        assert moves.grow(table, "7/x", 3) == moves.grow(table, "7/x", 3)
    seeds = {json.dumps(moves.grow(TABLES["three_tet"], s, 2))
             for s in range(6)}
    assert len(seeds) > 1


@pytest.mark.parametrize("name", sorted(TABLES))
def test_every_base_gets_a_valid_move(name):
    table = TABLES[name]
    if name == "one_tet":
        assert moves.movable_faces(table) == []
        with pytest.raises(ValueError):
            moves.grow(table, 0, 1)
        return
    base = triangulation_from_json(json.dumps(table))
    for tet, face in moves.movable_faces(table):
        grown = moves.two_three(table, tet, face)
        tri = triangulation_from_json(json.dumps(grown))
        assert tri.num_tets == base.num_tets + 1
        assert len(tri.vertex_classes) == len(base.vertex_classes) \
            == checks.BASES[name]["vertices"]
        assert betti_numbers(tri) == betti_numbers(base)
        assert betti_numbers(tri)[1] == checks.BASES[name]["b"]


def test_ladders_stay_valid():
    for seed in range(3):
        for table in moves.grow(TABLES["two_tet_b1"], seed, 4):
            triangulation_from_json(json.dumps(table))


def test_search_reference_and_check():
    rows = [[1, -1, 0, 0]]
    # Admissibility only looks at quad blocks, absent in 4 coordinates.
    assert checks.search_reference(rows, 2) == [
        [0, 0, 0, 2], [0, 0, 1, 1], [0, 0, 2, 0], [1, 1, 0, 0]]
    check = checks.search(rows, 2)
    assert check({"points": [[0, 0, 0, 2], [0, 0, 1, 1], [0, 0, 2, 0],
                             [1, 1, 0, 0]]}) is None
    assert check({"points": [[0, 0, 0, 2]]}) is not None


def test_quad_admissibility_reference():
    x = [0] * 14
    x[8] = x[11] = 1            # quad kinds 4 and 5 of tetrahedron 0
    assert not checks.admissible(x, True)
    x[11] = 0
    x[9] = 1                    # both orientations of kind 4
    assert checks.admissible(x, True)


def test_hull_and_gauge_references():
    square = [(Fraction(x), Fraction(y))
              for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1), (0, 1),
                           (0, 0), (1, 1))]
    poly = checks.hull_reference(square)
    assert set(poly) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}
    assert checks.gauge_reference(poly, (3, 1)) == 3
    assert checks.gauge_reference(poly, (-2, -5)) == 5
    hull = checks.hull(square)
    assert hull({"vertices": [["1", "1"], ["-1", "1"], ["-1", "-1"],
                              ["1", "-1"]]}) is None
    assert hull({"vertices": [["1", "1"], ["-1", "1"], ["-1", "-1"],
                              ["1", "-1"], ["0", "1"]]}) is not None
    gauge = checks.gauge(poly, [(3, 1)])
    assert gauge({"norms": ["3"]}) is None
    assert gauge({"norms": ["5/2"]}) is not None


def test_point_sets_are_seeded_and_symmetric():
    assert workloads.point_sets(3) == workloads.point_sets(3)
    assert workloads.point_sets(3) != workloads.point_sets(4)
    for pts, classes in workloads.point_sets(3):
        assert 20 <= len(pts) <= 40
        assert sorted(pts) == sorted((-x, -y) for x, y in pts)
        assert len(classes) == workloads.GAUGE_CLASSES


def test_cli_checks_catch_wrong_answers():
    ok = {"code": 0, "stdout": json.dumps({
        "valid": True, "tets": 3, "vertex_classes": 4})}
    assert checks.validate("d2", 3)(ok) is None
    assert checks.validate("d2", 4)(ok) is not None
    assert checks.validate("three_tet", 3)(ok) is not None
    assert checks.norm("d2")({"code": 0,
                              "stdout": '{"norm":"1/1"}'}) is not None
    assert checks.surface(Fraction(2))(
        {"code": 0, "stdout": json.dumps({
            "components": [{"chi": 0}], "total_chi": 0})}) is not None


@pytest.fixture()
def small(monkeypatch):
    """Shrink every workload to a few seconds: two bases, one chain, low
    ladders, one search and one point set."""
    original = run.Session.setup

    def setup(self):
        original(self)
        self.tables = {k: self.tables[k] for k in ("d2", "one_tet")}

    monkeypatch.setattr(run.Session, "setup", setup)
    monkeypatch.setattr(run, "MIN_PASSES", 2)
    monkeypatch.setattr(workloads, "LADDER_MAX_TETS", 3)
    monkeypatch.setattr(workloads, "VSCAN_MAX_TETS", 3)
    monkeypatch.setattr(workloads, "VSCAN_CHAINS", 1)
    monkeypatch.setattr(workloads, "SEARCHES", (("one_tet", 1),))
    monkeypatch.setattr(workloads, "HULL_SETS", 1)


def _run(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass_reports_every_metric(small, capsys, workload):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    report, result = _run(capsys, workload, 0)
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in bench["end_to_end"])
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    named = {line.split()[0] for line in report if line.strip()}
    assert set(E2E + COMMAND_METRICS[workload]) <= named

    report, result = _run(capsys, workload, 1)
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in bench["per_layer"])
    named = {line.split()[0] for line in report if line.strip()}
    assert set(PER_LAYER) <= named
    assert set(PER_LAYER) <= set(result["metrics"])
