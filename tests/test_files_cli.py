import csv
import dataclasses
import gc
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxspan import cli, files, generators
from boxspan.cli import main
from boxspan.geodesic import GridTooLargeError
from boxspan.generators import GenConfig, random_instance
from boxspan.geometry import AxisBox, Environment, Point3
from boxspan.spanner import SpannerGraph, build_spanner
from test_spanner import dict_graph


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_instance_round_trip(tmp_path):
    env = random_instance(GenConfig(seed=13, n=15, m=4))
    path = str(tmp_path / "inst.json")
    files.save_instance(path, env)
    assert files.load_instance(path) == env


def test_graph_round_trip_preserves_weights_exactly(tmp_path):
    env = random_instance(GenConfig(seed=13, n=15, m=4))
    g = build_spanner(env)
    path = str(tmp_path / "graph.json")
    files.save_graph(path, g)
    loaded = files.load_graph(path)
    assert loaded.n == g.n
    assert loaded.edges == g.edges


def test_load_instance_rejects_bad_schema(tmp_path):
    path = str(tmp_path / "bad.json")
    for payload in ([1, 2], {"points": [[1, 2]]}, {"points": [[1, "a", 3]]},
                    {"points": [], "obstacles": [{"lo": [0, 0, 0]}]}, {"points": 5},
                    {"points": [[0, 0, 0], [1, 1, 1]], "obstacles": 7},
                    {"points": [[0, 0, 10 ** 400]]},
                    {"points": [[0, 0, 0]], "obstacles": [{"lo": [0, 0, 0],
                                                           "hi": [1, 1, -10 ** 400]}]}):
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(files.FormatError):
            files.load_instance(path)


def test_load_graph_rejects_bad_edges(tmp_path):
    path = str(tmp_path / "bad.json")
    for edges in ([[0, 0, 1.0]], [[1, 0, 1.0]], [[0, 5, 1.0]], [[0, 1, -2.0]],
                  [[0, 1, 1.0], [0, 1, 2.0]], [[0.5, 1, 1.0]],
                  [[0, 1, None]], [[0, 1, [1.0]]], [[0, 1, "1.5"]], [[True, 2, 1.0]],
                  [[0, 1, False]], [[0, 1, float("nan")]], [[0, 1, float("inf")]]):
        with open(path, "w") as fh:
            json.dump({"n": 3, "edges": edges, "metric": "L1-geodesic"}, fh)
        with pytest.raises(files.FormatError):
            files.load_graph(path)
    # "n" must be an integer, and a weight that overflows a float is not finite
    for text in ('{"n": true, "edges": []}', '{"n": 8, "edges": 5}',
                 '{"n": 3, "edges": [[0, 1, 1e400]]}',
                 '{"n": 3, "edges": [[0, 1, 1%s]]}' % ("0" * 400)):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(files.FormatError):
            files.load_graph(path)


def test_atomic_write_leaves_no_temp(tmp_path):
    path = str(tmp_path / "out.json")
    files.write_json_atomic(path, {"ok": True})
    assert _load_json(path) == {"ok": True}
    assert [p for p in os.listdir(tmp_path) if p.endswith(".tmp")] == []


def test_cli_pipeline_round_trip(tmp_path):
    inst = str(tmp_path / "inst.json")
    graph = str(tmp_path / "graph.json")
    report = str(tmp_path / "verify.json")
    assert main(["generate", "--mode", "random", "--n", "20", "--m", "3",
                 "--seed", "7", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph,
                 "--report", str(tmp_path / "build.json")]) == 0
    assert main(["verify", "--instance", inst, "--graph", graph,
                 "--detour-samples", "200", "--report", report]) == 0
    payload = _load_json(report)
    assert payload["bounds_hold"] is True
    assert payload["max_stretch_l1"] <= 8 + 1e-6
    assert payload["stretch_l2_analytic"] == pytest.approx(
        payload["max_stretch_l1"] * 3 ** 0.5)
    assert payload["detour_passes"] == payload["detour_samples"] == 200

    # the file pipeline and the in-memory pipeline build identical graphs
    env = random_instance(GenConfig(seed=7, n=20, m=3))
    g = build_spanner(env)
    stored = _load_json(graph)
    assert stored["n"] == g.n
    assert stored["metric"] == "L1-geodesic"
    assert [(i, j) for i, j, _ in stored["edges"]] == sorted(g.edges)
    for i, j, w in stored["edges"]:
        assert w == g.edges[(i, j)]

    build_report = _load_json(str(tmp_path / "build.json"))
    assert build_report["edge_count"] == g.edge_count
    assert build_report["edge_count"] <= 6 * sum(build_report["pair_size_sums"].values())


def test_cli_generate_slabs(tmp_path):
    inst = str(tmp_path / "slabs.json")
    assert main(["generate", "--mode", "slabs", "--n", "10", "--eps", "0.1",
                 "--s", "2.1", "--delta", "1e-3", "--out", inst]) == 0
    payload = _load_json(inst)
    assert len(payload["obstacles"]) == 9
    assert len(payload["points"]) == 10


def test_cli_usage_errors(tmp_path, monkeypatch, capsys):
    # invalid generator parameters
    assert main(["generate", "--mode", "slabs", "--n", "10", "--delta", "-1",
                 "--out", str(tmp_path / "x.json")]) == 2
    for flags in (["--extent", "inf"], ["--extent", "nan"], ["--gap", "nan", "--m", "2"]):
        capsys.readouterr()
        assert main(["generate", "--n", "4", *flags, "--out", str(tmp_path / "x.json")]) == 2
        assert f"{flags[0][2:]} must be finite" in capsys.readouterr().err, flags
    for flags in (["--eps", "nan"], ["--s", "inf"], ["--delta", "nan"]):
        capsys.readouterr()
        assert main(["generate", "--mode", "slabs", "--n", "4", *flags,
                     "--out", str(tmp_path / "x.json")]) == 2, flags
        assert f"{flags[0][2:]} must be finite" in capsys.readouterr().err, flags
    # an eps whose square overflows
    assert main(["generate", "--mode", "slabs", "--n", "4", "--eps", "1e200",
                 "--out", str(tmp_path / "x.json")]) == 2
    # missing input file
    assert main(["build", "--in", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "g.json")]) == 2
    # an instance without points
    empty = tmp_path / "empty.json"
    empty.write_text('{"points": []}')
    assert main(["build", "--in", str(empty), "--out", str(tmp_path / "g.json")]) == 2
    # a negative via-point sample count
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    assert main(["generate", "--n", "3", "--seed", "1", "--out", inst]) == 0
    files.save_graph(graph, SpannerGraph(n=3))
    assert main(["verify", "--instance", inst, "--graph", graph,
                 "--detour-samples", "-5"]) == 2
    # a graph file whose weight is not a number
    with open(graph, "w") as fh:
        json.dump({"n": 3, "edges": [[0, 1, None]], "metric": "L1-geodesic"}, fh)
    assert main(["verify", "--instance", inst, "--graph", graph]) == 2
    # fields that are not lists
    for name, text in (("points.json", '{"points": 5}'),
                       ("obstacles.json", '{"points": [[0,0,0],[1,1,1]], "obstacles": 7}')):
        (tmp_path / name).write_text(text)
        assert main(["build", "--in", str(tmp_path / name),
                     "--out", str(tmp_path / "g.json")]) == 2, name
    (tmp_path / "edges.json").write_text('{"n": 3, "edges": 5}')
    assert main(["verify", "--instance", inst, "--graph", str(tmp_path / "edges.json")]) == 2
    # a negative seed is named before any command runs
    capsys.readouterr()
    for argv in (["generate", "--n", "3", "--out", str(tmp_path / "x.json")],
                 ["verify", "--instance", inst, "--graph", graph],
                 ["bench", "--sizes", "8", "--trials", "1"]):
        assert main([*argv, "--seed", "-1"]) == 2, argv
        assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
    # bench parameters out of range
    capsys.readouterr()
    for flags, err in ((["--trials", "0"], "error: trials must be at least 1\n"),
                       (["--sizes", "-3"], "error: sizes must be at least 1, got -3\n"),
                       (["--m", "-1"], "error: m must be nonnegative\n")):
        assert main(["bench", "--sizes", "8", "--trials", "1", *flags]) == 2, flags
        assert capsys.readouterr().err == err
    assert main(["bench", "--sizes", "8,-3", "--trials", "1"]) == 2
    assert "sizes must be at least 1, got -3" in capsys.readouterr().err
    # a request the generator cannot place is bad input, not a violated bound;
    # two boxes 1.0 apart do not fit in the unit cube, and that fails fast
    real = generators.random_instance
    monkeypatch.setattr(generators, "random_instance",
                        lambda cfg: real(dataclasses.replace(cfg, gap=1.0)))
    assert main(["bench", "--sizes", "8", "--trials", "1", "--m", "2"]) == 2
    assert "region too crowded" in capsys.readouterr().err

    # a grid over the node cap is not a bound violation
    def too_large(*args, **kwargs):
        raise GridTooLargeError("grid needs 36 nodes, cap is 10")

    monkeypatch.setattr(cli, "scaling_sweep", too_large)
    assert main(["bench", "--sizes", "8"]) == 2
    # unknown subcommand exits with the argparse usage code
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_cli_rejects_invalid_instance(tmp_path):
    inst = str(tmp_path / "bad_inst.json")
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                      [Point3(0.5, 0.5, 0.5)])  # point inside the obstacle
    files.save_instance(inst, env)
    assert main(["build", "--in", inst, "--out", str(tmp_path / "g.json")]) == 2


def test_cli_rejects_overflowing_coordinates(tmp_path, capsys):
    """Coordinates whose spans overflow a float are bad input for both
    commands, not a graph with an infinite weight."""
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    files.save_graph(graph, dict_graph(2, {(0, 1): 1.0}))
    # spans that overflow, and an integer coordinate of 401 digits
    for text in ('{"points": [[0, 0, 1e308], [0, 0, -1e308]]}',
                 '{"points": [[0, 0, 1%s], [0, 0, 0]]}' % ("0" * 400)):
        with open(inst, "w") as fh:
            fh.write(text)
        for argv in (["build", "--in", inst, "--out", str(tmp_path / "out.json")],
                     ["verify", "--instance", inst, "--graph", graph]):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "instance coordinates overflow" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out.json")


def test_cli_verify_detects_mismatched_n(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    graph = str(tmp_path / "graph.json")
    assert main(["generate", "--n", "5", "--seed", "1", "--out", inst]) == 0
    files.save_graph(graph, SpannerGraph(n=4))
    capsys.readouterr()
    assert main(["verify", "--instance", inst, "--graph", graph]) == 2
    assert capsys.readouterr() == ("", "error: instance has 5 points but graph has 4 vertices\n")


@pytest.mark.parametrize("kind, message", [
    ("report", "graph 'edges' must be a list"),
    ("bare", "graph 'metric' must be 'L1-geodesic', got None"),
    ("l2", "graph 'metric' must be 'L1-geodesic', got 'L2-geodesic'"),
], ids=["report", "bare", "l2"])
def test_cli_verify_rejects_files_that_are_not_graphs(tmp_path, capsys, kind, message):
    """A build report, an object with an integer n and an empty edge list
    but no metric, and a graph of another metric each exit 2 with an error
    that says what is wrong, rather than load as a graph."""
    inst, graph, report = (str(tmp_path / name)
                           for name in ("inst.json", "graph.json", "build.json"))
    assert main(["generate", "--n", "3", "--seed", "1", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph, "--report", report]) == 0
    other = _load_json(graph)
    other["metric"] = "L2-geodesic"
    (tmp_path / "l2.json").write_text(json.dumps(other))
    (tmp_path / "bare.json").write_text('{"n": 3, "edges": []}')
    path = {"report": report, "bare": str(tmp_path / "bare.json"),
            "l2": str(tmp_path / "l2.json")}[kind]
    capsys.readouterr()
    assert main(["verify", "--instance", inst, "--graph", path]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv, flags", [
    (["build", "--in", "inst.json", "--out", "inst.json"], "--out and --in"),
    (["build", "--in", "inst.json", "--out", "graph.json", "--report", "graph.json"],
     "--out and --report"),
    (["build", "--in", "inst.json", "--out", "new.json", "--report", "./inst.json"],
     "--report and --in"),
    (["verify", "--instance", "inst.json", "--graph", "graph.json", "--report", "graph.json"],
     "--report and --graph"),
    (["verify", "--instance", "inst.json", "--graph", "graph.json", "--report",
      "sub/../inst.json"], "--report and --instance"),
], ids=["build-out-in", "build-out-report", "build-report-in", "verify-report-graph",
        "verify-report-instance"])
def test_cli_output_naming_another_path_of_the_command_exits_2(tmp_path, monkeypatch, capsys,
                                                               argv, flags):
    """An output path that names the same file as another path of its
    command exits 2 before any work, naming both flags, and every file is
    left byte for byte as it was."""
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "6", "--seed", "1", "--out", "inst.json"]) == 0
    assert main(["build", "--in", "inst.json", "--out", "graph.json"]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {flags} name the same file: ")
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_cli_verify_single_point(tmp_path):
    inst, graph, report = (str(tmp_path / name)
                           for name in ("inst.json", "graph.json", "report.json"))
    assert main(["generate", "--n", "1", "--seed", "1", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0
    assert main(["verify", "--instance", inst, "--graph", graph, "--report", report]) == 0
    assert _load_json(report)["detour_samples"] == 0


def test_cli_verify_flags_bound_violation(tmp_path):
    # an edgeless graph on 2 points has infinite stretch
    inst = str(tmp_path / "inst.json")
    graph = str(tmp_path / "graph.json")
    assert main(["generate", "--n", "2", "--seed", "3", "--out", inst]) == 0
    files.save_graph(graph, SpannerGraph(n=2))
    assert main(["verify", "--instance", inst, "--graph", graph,
                 "--detour-samples", "10"]) == 1


def test_cli_verify_norm_sandwich_at_large_coordinates(tmp_path, capsys):
    """Two points on the main diagonal, 3e9 apart per axis: l2 = l1 / sqrt(3)
    up to rounding, which an absolute margin of 1e-9 does not cover."""
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    with open(inst, "w") as fh:
        json.dump({"points": [[0, 0, 0], [3e9, 3e9, 3e9]]}, fh)
    assert main(["build", "--in", inst, "--out", graph]) == 0
    assert main(["verify", "--instance", inst, "--graph", graph]) == 0
    assert "norm sandwich ok" in capsys.readouterr().out


def test_cli_verify_norm_sandwich_at_a_huge_scale(tmp_path, capsys):
    """An instance with obstacles scaled by 2**520, where sums of squared
    coordinate differences overflow a float: build and verify pass."""
    def scaled(p):
        return Point3(*np.ldexp(p.as_tuple(), 520).tolist())

    env = random_instance(GenConfig(seed=3, n=12, m=4))
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    files.save_instance(inst, Environment(
        [AxisBox(scaled(box.lo), scaled(box.hi)) for box in env.obstacles],
        [scaled(p) for p in env.points]))
    assert main(["build", "--in", inst, "--out", graph]) == 0
    assert main(["verify", "--instance", inst, "--graph", graph]) == 0
    assert "norm sandwich ok" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [3, 4])
def test_cli_accepts_an_instance_at_any_power_of_two_scale(tmp_path, seed):
    """Scaled by 2**k, a valid instance stays valid: obstacles are disjoint
    exactly, not by an absolute margin.  The builder gives the same edges in
    the same order with each weight scaled exactly, and build and verify
    report the unscaled edge count and stretch."""
    env = random_instance(GenConfig(seed=seed, n=24, m=6))
    unscaled = build_spanner(env)
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    build_report, verify_report = str(tmp_path / "build.json"), str(tmp_path / "verify.json")
    outcomes = set()
    for k in (0, -30, -100, -300, 300):
        def scaled(p):
            return Point3(*(math.ldexp(c, k) for c in p.as_tuple()))

        env_k = Environment([AxisBox(scaled(box.lo), scaled(box.hi)) for box in env.obstacles],
                            [scaled(p) for p in env.points])
        edges = build_spanner(env_k).edges
        assert list(edges) == list(unscaled.edges), k
        assert list(edges.values()) == [math.ldexp(w, k) for w in unscaled.edges.values()], k
        files.save_instance(inst, env_k)
        assert main(["build", "--in", inst, "--out", graph, "--report", build_report]) == 0, k
        assert main(["verify", "--instance", inst, "--graph", graph,
                     "--report", verify_report]) == 0, k
        with open(build_report) as fh, open(verify_report) as gh:
            outcomes.add((json.load(fh)["edge_count"], json.load(gh)["max_stretch_l1"]))
    assert len(outcomes) == 1


def test_cli_verify_rejects_understated_weights(tmp_path, capsys):
    """A graph shorter than the geodesic distances breaks the bounds: a star
    of tiny weights and the real spanner with every weight scaled down both
    exit 1, and the first such pair is named."""
    inst, graph, star = (str(tmp_path / name) for name in
                         ("inst.json", "graph.json", "star.json"))
    assert main(["generate", "--n", "64", "--m", "8", "--seed", "11", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0
    files.save_graph(star, dict_graph(64, {(0, j): 1e-6 for j in range(1, 64)}))
    scaled = files.load_graph(graph)
    scaled.edges.update({e: w * 1e-3 for e, w in scaled.edges.items()})
    files.save_graph(graph, scaled)
    for path in (star, graph):
        report = str(tmp_path / "report.json")
        capsys.readouterr()
        assert main(["verify", "--instance", inst, "--graph", path, "--detour-samples", "10",
                     "--report", report]) == 1, path
        assert "graph distance of points 0 and 1 is below" in capsys.readouterr().err
        with open(report) as fh:
            assert json.load(fh)["bounds_hold"] is False


def test_cli_bench(tmp_path):
    report = str(tmp_path / "bench.json")
    assert main(["bench", "--sizes", "8,16", "--trials", "1", "--seed", "2",
                 "--m", "2", "--report", report]) == 0
    rows = _load_json(report)["rows"]
    assert [r["n"] for r in rows] == [8, 16]
    assert all(r["max_stretch"] <= 8 + 1e-6 for r in rows)

    csv_report = str(tmp_path / "bench.csv")
    assert main(["bench", "--sizes", "8", "--trials", "1", "--seed", "2",
                 "--m", "0", "--report", csv_report]) == 0
    with open(csv_report) as fh:
        header = fh.readline().strip().split(",")
    assert "normalized_edges" in header


def test_cli_bench_rejects_empty_sizes():
    assert main(["bench", "--sizes", " ", "--trials", "1"]) == 2


def test_cli_bench_runs_carry_each_instance(tmp_path):
    """bench's JSON rows carry the sweep's per-run data, and a run's seed
    rebuilds its instance with the placement the sweep was given."""
    report = str(tmp_path / "r.json")
    assert main(["bench", "--sizes", "12", "--trials", "2", "--m", "3",
                 "--placement", "mixed", "--report", report]) == 0
    (row,) = _load_json(report)["rows"]
    assert [run["trial"] for run in row["runs"]] == [0, 1]
    run = row["runs"][0]
    graph = build_spanner(random_instance(GenConfig(run["seed"], 12, 3, placement="mixed")))
    assert run["edges"] == graph.edge_count
    assert row["max_stretch"] == max(r["max_stretch"] for r in row["runs"])


def _write_commands(tmp_path, out):
    """Each command whose output goes to ``out``, with what it reads made."""
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0
    return {
        "generate --out": ["generate", "--n", "6", "--out", out],
        "build --out": ["build", "--in", inst, "--out", out],
        "build --report": ["build", "--in", inst, "--out", graph, "--report", out],
        "verify --report": ["verify", "--instance", inst, "--graph", graph,
                            "--detour-samples", "10", "--report", out],
        "bench --report": ["bench", "--sizes", "8", "--trials", "1", "--m", "1",
                           "--report", out],
    }


@pytest.mark.parametrize("command,suffix", [
    ("generate --out", ".json"), ("build --out", ".json"), ("build --report", ".json"),
    ("verify --report", ".json"), ("bench --report", ".json"), ("bench --report", ".csv"),
])
def test_cli_write_into_a_missing_directory_exits_2(tmp_path, monkeypatch, capsys, command,
                                                    suffix):
    """The error names the path as given, not a temporary file beside it."""
    monkeypatch.chdir(tmp_path)
    out = os.path.join("missing", f"out{suffix}")
    argv = _write_commands(tmp_path, out)[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert f"No such file or directory: '{out}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["graph.json", "inst.json"]


def test_cli_build_checks_its_out_before_the_build(tmp_path, monkeypatch, capsys):
    """A graph that cannot be written exits 2, naming --out, before the build."""
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0

    def build(*args, **kwargs):
        raise AssertionError("the build ran")

    monkeypatch.setattr(cli, "build_spanner", build)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["build", "--in", inst, "--out", os.path.join("missing", "g.json")]) == 2
    assert os.path.join("missing", "g.json") in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["inst.json"]


def test_cli_bench_checks_its_report_before_the_sweep(tmp_path, monkeypatch, capsys):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "scaling_sweep", sweep)
    for name in ("x.csv", "x.json"):
        assert main(["bench", "--sizes", "8", "--trials", "1",
                     "--report", str(tmp_path / "missing" / name)]) == 2
        assert "No such file or directory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_bench_csv_report_is_replaced_atomically(tmp_path, monkeypatch):
    """A CSV report is written in full or not at all: a failed write keeps
    the report that was there."""
    report = tmp_path / "bench.csv"
    report.write_bytes(b"n,m\r\n8,0\r\n")

    def full_disk(self, rows):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(csv.DictWriter, "writerows", full_disk)
    assert main(["bench", "--sizes", "8", "--trials", "1", "--m", "0",
                 "--report", str(report)]) == 2
    assert report.read_bytes() == b"n,m\r\n8,0\r\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bench.csv"]


def test_cli_lets_a_program_fault_raise(tmp_path, monkeypatch):
    """main maps input and output errors to exit 2, but not a RuntimeError,
    which means the program is at fault: it keeps its traceback."""
    inst = str(tmp_path / "inst.json")
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0

    def no_route(*args, **kwargs):
        raise RuntimeError("geodesic query found no route")

    monkeypatch.setattr(cli, "build_spanner", no_route)
    with pytest.raises(RuntimeError, match="no route"):
        main(["build", "--in", inst, "--out", str(tmp_path / "graph.json")])


def test_cli_build_checks_its_report_before_writing_the_graph(tmp_path, capsys):
    """A build report that cannot be written exits 2 before the build, and
    the graph already at --out stays as it was."""
    inst, graph = str(tmp_path / "inst.json"), tmp_path / "g2.json"
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0
    graph.write_bytes(b"old graph")
    capsys.readouterr()
    assert main(["build", "--in", inst, "--out", str(graph),
                 "--report", str(tmp_path / "missing" / "r.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert graph.read_bytes() == b"old graph"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g2.json", "inst.json"]


def test_cli_verify_checks_its_report_before_the_scan(tmp_path, monkeypatch, capsys):
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0

    def scan(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "spanning_ratio", scan)
    capsys.readouterr()
    assert main(["verify", "--instance", inst, "--graph", graph,
                 "--report", str(tmp_path / "missing" / "r.json")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"not json", b"\xff"], ids=["not_json", "not_utf8"])
@pytest.mark.parametrize("command", ["build --in", "verify --instance", "verify --graph"])
def test_cli_names_a_file_that_is_not_json(tmp_path, capsys, command, content):
    """A file that is not JSON, or not UTF-8, exits 2 with an error that
    names it, so verify tells which of its two files failed."""
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    assert main(["generate", "--n", "6", "--m", "1", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = {
        "build --in": ["build", "--in", str(bad), "--out", str(tmp_path / "out.json")],
        "verify --instance": ["verify", "--instance", str(bad), "--graph", graph],
        "verify --graph": ["verify", "--instance", inst, "--graph", str(bad)],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert ("Expecting value" if content == b"not json" else "can't decode byte 0xff") in err


@pytest.mark.parametrize("params", [dict(n=64, m=8, placement="free"), dict(n=40, m=0)],
                         ids=["scatter", "open"])
def test_cli_build_and_verify_never_make_the_edge_dict(tmp_path, monkeypatch, params):
    """The builder, save_graph, load_graph and the verifier pass the graph's
    (i, j, w) columns along: no command reads SpannerGraph.edges."""
    inst, graph = str(tmp_path / "inst.json"), str(tmp_path / "graph.json")
    files.save_instance(inst, random_instance(GenConfig(seed=3, **params)))

    def no_dict(self):
        raise AssertionError("the edge dict was made")

    monkeypatch.setattr(SpannerGraph, "edges", property(no_dict))
    assert main(["build", "--in", inst, "--out", graph, "--report",
                 str(tmp_path / "build.json")]) == 0
    assert main(["verify", "--instance", inst, "--graph", graph, "--detour-samples", "50",
                 "--report", str(tmp_path / "verify.json")]) == 0
    assert _load_json(tmp_path / "verify.json")["edge_count"] == len(_load_json(graph)["edges"])


def test_load_graph_rejects_endpoints_past_int64(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"n": %d, "edges": [[0, %d, 1.0]]}' % (2 ** 70, 2 ** 64))
    with pytest.raises(files.FormatError, match="below 2"):
        files.load_graph(str(path))


def test_cli_outputs_stay_pinned(tmp_path):
    """Edge set and verify report of ``generate --n 64 --m 8 --seed 11``.

    The staircase certificate, batched edge weights and the via-point
    sampler must leave these bit-identical.
    """
    inst, graph, report = (str(tmp_path / name) for name in
                           ("inst.json", "graph.json", "report.json"))
    files.save_instance(inst, random_instance(GenConfig(seed=11, n=64, m=8)))
    assert main(["build", "--in", inst, "--out", graph]) == 0
    with open(graph, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == "cf7151bbe6365413488d7c85f6b4254ac2c530dee64cea9961694146362354b0"
    assert main(["verify", "--instance", inst, "--graph", graph, "--detour-samples", "1000",
                 "--seed", "11", "--report", report]) == 0
    with open(report) as fh:
        got = json.load(fh)
    assert got["max_stretch_l1"] == 1.3320154875474195
    assert got["detour_max_ratio"] == 1.087927786771605
    assert got["detour_passes"] == 1000


def test_cli_obstacle_free_outputs_stay_pinned(tmp_path):
    """The same pin without obstacles, for ``generate --n 256 --m 0 --seed 11``:
    every decomposition pair is box-free there and settled on arrays."""
    inst, graph, built, report = (str(tmp_path / name) for name in
                                  ("inst.json", "graph.json", "build.json", "report.json"))
    files.save_instance(inst, random_instance(GenConfig(seed=11, n=256, m=0)))
    assert main(["build", "--in", inst, "--out", graph, "--report", built]) == 0
    with open(graph, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == "7e135771084baede62cbba15183714405bbec910c0fecdee3662c1f290d611c6"
    with open(built) as fh:
        assert json.load(fh)["edge_count"] == 9673
    assert main(["verify", "--instance", inst, "--graph", graph, "--detour-samples", "1000",
                 "--seed", "11", "--report", report]) == 0
    with open(report) as fh:
        got = json.load(fh)
    assert got["max_stretch_l1"] == 1.6775849503762488
    assert got["detour_passes"] == 1000


def test_cli_maze_outputs_stay_pinned(tmp_path):
    """The same pin on a maze of 40 boxes, where many pairs are blocked and
    take the grid stage: the monotone test and both Dijkstra runs."""
    inst, graph, report = (str(tmp_path / name) for name in
                           ("inst.json", "graph.json", "report.json"))
    files.save_instance(inst, random_instance(GenConfig(
        seed=11, n=32, m=40, placement="mixed", min_side=0.05, max_side=0.3, gap=0.01)))
    assert main(["build", "--in", inst, "--out", graph]) == 0
    with open(graph, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == "37a42726c37d5f183afbf90baed9d454fed0358d796307e6778e2093542228be"
    assert main(["verify", "--instance", inst, "--graph", graph, "--detour-samples", "1000",
                 "--seed", "11", "--report", report]) == 0
    with open(report) as fh:
        got = json.load(fh)
    assert got["max_stretch_l1"] == 1.2220450778392775
    assert got["detour_max_ratio"] == 1.237699691289396
    assert got["detour_passes"] == 1000


def test_build_report_counts_grid_stage_runs(tmp_path):
    """``build --report`` counts the builder's grid-stage runs.  On the maze
    pin instance center selection asks the grid stage only for members whose
    L1 can still beat the best distance found, 84 runs; asking it for every
    grid-stage member took 162 runs, for the same graph."""
    inst, graph, built = (str(tmp_path / name) for name in
                          ("inst.json", "graph.json", "build.json"))
    files.save_instance(inst, random_instance(GenConfig(
        seed=11, n=32, m=40, placement="mixed", min_side=0.05, max_side=0.3, gap=0.01)))
    assert main(["build", "--in", inst, "--out", graph, "--report", built]) == 0
    assert _load_json(built)["grid_stage_runs"] == 84


@pytest.mark.parametrize("n,edges", [
    (0, {}),
    (1, {}),
    (5, {(0, 1): 1e-07, (0, 4): 0.1 + 0.2, (1, 2): 1e16, (2, 3): float("inf"),
         (3, 4): 2.5, (1, 3): 1.0, (2, 4): 123456789.125, (0, 2): float("-inf"),
         (0, 3): float("nan")}),
], ids=["empty", "one-point", "weights"])
def test_save_graph_writes_json_dump_bytes(tmp_path, n, edges):
    """save_graph streams exactly what json.dump with indent=2 writes."""
    graph = dict_graph(n, edges)
    expected = str(tmp_path / "expected.json")
    with open(expected, "w") as fh:
        json.dump({"n": n, "edges": [[i, j, w] for (i, j), w in sorted(graph.edges.items())],
                   "metric": files.GRAPH_METRIC}, fh, indent=2)
        fh.write("\n")
    files.save_graph(str(tmp_path / "graph.json"), graph)
    with open(expected, "rb") as fh, open(tmp_path / "graph.json", "rb") as gh:
        assert gh.read() == fh.read()


def _json_dump_bytes(n, edges):
    """What write_json_atomic writes for a graph: json.dump, indent=2, newline."""
    buf = io.StringIO()
    json.dump({"n": n, "edges": [[i, j, w] for (i, j), w in sorted(edges.items())],
               "metric": files.GRAPH_METRIC}, buf, indent=2)
    buf.write("\n")
    return buf.getvalue().encode()


_SPECIAL_WEIGHTS = (5e-324, 2.5e-310, 1e16, 1e-7, 0.1 + 0.2, float("nan"), float("inf"),
                    float("-inf"), 1.0, 0.0, -0.0, 123456789.125)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_save_graph_blocks_write_json_dump_bytes(tmp_path_factory, data):
    """Edge sets inserted in shuffled order, with block - 1, block, block + 1
    and 2 * block + 1 edges, for small blocks and the writer's own, are
    written as json.dump writes them."""
    block = data.draw(st.sampled_from([1, 2, 3, 7, files._WRITE_BLOCK]), label="block")
    count = data.draw(st.sampled_from([block - 1, block, block + 1, 2 * block + 1]),
                      label="count")
    least_n = next(n for n in range(count + 2) if n * (n - 1) // 2 >= count)
    n = data.draw(st.integers(least_n, max(least_n, 300)), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    rows, cols = np.triu_indices(n, 1)
    picked = rng.choice(len(rows), size=count, replace=False)  # a shuffled order
    drawn = data.draw(st.lists(st.floats(), max_size=count), label="weights")
    weights = drawn + [_SPECIAL_WEIGHTS[k] if k < len(_SPECIAL_WEIGHTS) else float(x)
                       for k, x in zip(rng.integers(0, 2 * len(_SPECIAL_WEIGHTS),
                                                    size=count - len(drawn)).tolist(),
                                       rng.lognormal(0.0, 8.0, size=count - len(drawn)))]
    edges = {(int(rows[k]), int(cols[k])): w for k, w in zip(picked.tolist(), weights)}
    path = str(tmp_path_factory.mktemp("graph") / "graph.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_WRITE_BLOCK", block)
        files.save_graph(path, dict_graph(n, edges))
    with open(path, "rb") as fh:
        assert fh.read() == _json_dump_bytes(n, edges)


def test_save_graph_rejects_weights_that_are_not_floats(tmp_path):
    """json.dump would write an integer weight as 3 or true, but the writer
    writes floats: like the writer that formatted one edge at a time, it
    raises TypeError, and it writes nothing.  Endpoints outside 0..n-1 raise
    ValueError."""
    path = str(tmp_path / "graph.json")
    for weight in (3, True, np.float32(1.5)):
        with pytest.raises(TypeError):
            files.save_graph(path, dict_graph(3, {(0, 1): 1.0, (1, 2): weight}))
        assert os.listdir(tmp_path) == []
    for key in ((0, 3), (-1, 2), (3, 4)):
        with pytest.raises(ValueError):
            files.save_graph(path, dict_graph(3, {(0, 1): 1.0, key: 2.0}))
        assert os.listdir(tmp_path) == []
    edges = {(0, 1): np.float64(1.5)}  # a float subclass is written as its float
    files.save_graph(path, dict_graph(2, edges))
    with open(path, "rb") as fh:
        assert fh.read() == _json_dump_bytes(2, edges)


def _instance_json_bytes(env):
    """What write_json_atomic writes for an instance: json.dump, indent=2, newline."""
    buf = io.StringIO()
    json.dump({"points": [[p.x, p.y, p.z] for p in env.points],
               "obstacles": [{"lo": [b.lo.x, b.lo.y, b.lo.z], "hi": [b.hi.x, b.hi.y, b.hi.z]}
                             for b in env.obstacles]}, buf, indent=2)
    buf.write("\n")
    return buf.getvalue().encode()


_COORDINATES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-2 ** 80, 2 ** 80),
    st.booleans(),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2]),
)


def _box(corners):
    lo, hi = zip(*(sorted(pair) for pair in zip(corners[:3], corners[3:])))
    return AxisBox(Point3(*lo), Point3(*hi))


@settings(max_examples=80, deadline=None)
@example(block=1, points=[], boxes=[])
@example(block=2, points=[(0.0, -0.0, 5e-324)] * 3, boxes=[(0, False, -1e308, 1, True, 1e308)])
@given(st.sampled_from([1, 2, 3, 7, files._WRITE_BLOCK]),
       st.lists(st.tuples(_COORDINATES, _COORDINATES, _COORDINATES), max_size=17),
       st.lists(st.tuples(*[_COORDINATES] * 6), max_size=9))
def test_save_instance_writes_json_dump_bytes(tmp_path_factory, block, points, boxes):
    """Points and obstacles, none or a few blocks of them, with float, int,
    bool and numpy float coordinates, are written as json.dump writes them."""
    env = Environment([_box(c) for c in boxes], [Point3(*p) for p in points])
    path = str(tmp_path_factory.mktemp("instance") / "instance.json")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(files, "_WRITE_BLOCK", block)
        files.save_instance(path, env)
    with open(path, "rb") as fh:
        assert fh.read() == _instance_json_bytes(env)


def test_save_instance_rejects_what_json_rejects(tmp_path, monkeypatch):
    """A coordinate json cannot write raises json's TypeError before any file
    is opened, wherever it sits."""
    def no_open(path):
        raise AssertionError("save_instance opened a file")

    path = str(tmp_path / "instance.json")
    good = [Point3(0.5, 1, True) for _ in range(5)]
    for env in (Environment([], good + [Point3(0.5, np.int64(2), 0.0)]),
                Environment([AxisBox(Point3(0.0, 0.0, 0.0), Point3(1.0, 1.0, np.int64(1)))],
                            good)):
        with pytest.raises(TypeError):
            _instance_json_bytes(env)
        with pytest.raises(TypeError, match="int64"), monkeypatch.context() as mp:
            mp.setattr(files, "_atomic_open", no_open)
            files.save_instance(path, env)
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv,digest", [
    (["--n", "50", "--m", "5", "--seed", "7"],
     "c44c8605ebd8b8a678ab96d510887a186267291a4fac80ba87689b668df02077"),
    (["--n", "40", "--m", "20", "--seed", "3", "--placement", "mixed"],
     "f660ba29dcb06d399696bfd077f6e33c795e74e60ee882bc0d2a5ae354e23306"),
], ids=["readme", "mixed"])
def test_generate_output_stays_pinned(tmp_path, argv, digest):
    """The bytes of ``boxspan generate`` for the README example and a
    mixed-placement instance, as the per-try generator and json.dump wrote them."""
    out = str(tmp_path / "inst.json")
    assert main(["generate", "--mode", "random", *argv, "--out", out]) == 0
    with open(out, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


@pytest.mark.parametrize("enabled", [True, False])
def test_load_graph_restores_the_collector(tmp_path, enabled):
    """load_graph leaves the cyclic collector as it found it: after a normal
    return, a FormatError and an OSError, when it was enabled and when the
    caller had disabled it."""
    path = str(tmp_path / "graph.json")
    files.save_graph(path, dict_graph(3, {(0, 1): 1.0, (1, 2): 2.5}))
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"n": 3, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}')
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert files.load_graph(path).edges == {(0, 1): 1.0, (1, 2): 2.5}
        assert gc.isenabled() is enabled
        with pytest.raises(files.FormatError):
            files.load_graph(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(OSError):
            files.load_graph(str(tmp_path / "missing.json"))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def reference_load_graph(path):
    """load_graph as it checked one edge at a time with isinstance tests,
    kept as the reference for the loader's messages and results."""
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not is_int(data.get("n")):
        raise files.FormatError("graph file must be an object with an integer 'n'")
    if not isinstance(data.get("edges"), list):
        raise files.FormatError("graph 'edges' must be a list")
    n = data["n"]
    graph = SpannerGraph(n=n)
    for entry in data["edges"]:
        if not isinstance(entry, list) or len(entry) != 3:
            raise files.FormatError(f"edge must be [i, j, weight], got {entry!r}")
        i, j, w = entry
        if not is_int(i) or not is_int(j):
            raise files.FormatError(f"edge endpoints must be integers, got {entry!r}")
        if not 0 <= i < j < n:
            raise files.FormatError(f"edge ({i},{j}) out of range or not i < j for n={n}")
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise files.FormatError(f"edge ({i},{j}) weight must be a number, got {w!r}")
        try:
            w = float(w)
        except OverflowError:
            w = math.inf
        if not (w > 0 and math.isfinite(w)):
            raise files.FormatError(f"edge ({i},{j}) must have finite positive weight, got {w}")
        if (i, j) in graph.edges:
            raise files.FormatError(f"duplicate edge ({i},{j})")
        graph.edges[(i, j)] = w
    if data.get("metric") != "L1-geodesic":
        raise files.FormatError(f"graph 'metric' must be 'L1-geodesic', got {data.get('metric')!r}")
    return graph


# The corruptions of test_load_graph_rejects_bad_edges as edge texts, on
# vertices 0..5 of a graph with n = 3 + _FILLER_N; "[0, 5, 1.0]" became an
# endpoint equal to n.  The filler edges use vertices 10 and up.
_FILLER_N = 40
_BAD_EDGES = ("[0, 0, 1.0]", "[1, 0, 1.0]", f"[0, {3 + _FILLER_N}, 1.0]", "[0, 1, -2.0]",
              "[0, 1, 1.0], [0, 1, 2.0]", "[0.5, 1, 1.0]", "[0, 1, null]", "[0, 1, [1.0]]",
              '[0, 1, "1.5"]', "[true, 2, 1.0]", "[0, 1, false]", "[0, 1, NaN]",
              "[0, 1, Infinity]", "[0, 1, 1e400]", "[0, 1, 1%s]" % ("0" * 400),
              "[0, 1]", "[0, 1, 1.0, 2.0]", "7", '{"i": 0}', "[0, 1, 0]", "[0, 1, -Infinity]")


def _filler_edges(rng, count):
    rows, cols = np.triu_indices(3 + _FILLER_N, 1)
    rows, cols = rows[rows >= 10], cols[rows >= 10]
    picked = rng.choice(len(rows), size=count, replace=False)
    weights = [1.5, 2, 1e-300, 10 ** 30, 0.1 + 0.2, 7.25e15]
    return [f"[{rows[k]}, {cols[k]}, {weights[k % len(weights)]!r}]" for k in picked]


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_load_graph_messages_match_reference_loop(tmp_path, where):
    """Each corruption, placed first, in the middle or last among valid
    edges, raises the reference loop's FormatError message."""
    path = str(tmp_path / "graph.json")
    rng = np.random.default_rng(3)
    for bad in _BAD_EDGES:
        filler = _filler_edges(rng, 20)
        at = {"first": 0, "middle": len(filler) // 2, "last": len(filler)}[where]
        texts = filler[:at] + [bad] + filler[at:]
        with open(path, "w") as fh:
            fh.write('{"n": %d, "edges": [%s], "metric": "L1-geodesic"}'
                     % (3 + _FILLER_N, ", ".join(texts)))
        with pytest.raises(files.FormatError) as expected:
            reference_load_graph(path)
        with pytest.raises(files.FormatError) as got:
            files.load_graph(path)
        assert str(got.value) == str(expected.value), bad


def test_load_graph_matches_reference_loop_on_valid_files(tmp_path):
    """A valid file loads to the reference's dict: equal keys and float
    values, in the same insertion order."""
    path = str(tmp_path / "graph.json")
    rng = np.random.default_rng(4)
    for count in (0, 1, 25, 300):
        with open(path, "w") as fh:
            fh.write('{"n": %d, "edges": [%s], "metric": "L1-geodesic"}'
                     % (3 + _FILLER_N, ", ".join(_filler_edges(rng, count))))
        expected = reference_load_graph(path)
        got = files.load_graph(path)
        assert got.n == expected.n
        assert list(got.edges) == list(expected.edges)
        assert all(type(w) is float for w in got.edges.values())
        assert [w.hex() for w in got.edges.values()] == [w.hex() for w in expected.edges.values()]
    for text in ('{"n": true, "edges": []}', '{"n": 8, "edges": 5}', '{"n": 2.0}', "[]",
                 '{"n": 3}', '{"n": 3, "edges": []}', '{"n": 3, "edges": [], "metric": "L2"}'):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(files.FormatError) as expected:
            reference_load_graph(path)
        with pytest.raises(files.FormatError) as got:
            files.load_graph(path)
        assert str(got.value) == str(expected.value)


_FUZZ_VALUES = [0, -1, 2 ** 63, 1e308, 5e-324, True, None, "x", [], {}, math.nan, math.inf,
                -math.inf]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory and the JSON of a valid instance and of its graph."""
    where = tmp_path_factory.mktemp("fuzz")
    inst, graph = str(where / "inst.json"), str(where / "graph.json")
    assert main(["generate", "--n", "8", "--m", "3", "--seed", "11", "--out", inst]) == 0
    assert main(["build", "--in", inst, "--out", graph]) == 0
    return where, {"instance": _load_json(inst), "graph": _load_json(graph)}


def _json_paths(doc, at=()):
    """The path of every value of a JSON document, the root's () first."""
    yield at
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _json_paths(value, at + (key,))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["instance", "graph"]), st.data())
def test_cli_exits_0_1_or_2_on_mutated_files(valid_files, which, data):
    """build and verify --detour-samples 20 on a valid instance and graph,
    one of them with one to three values replaced by an odd value (huge,
    tiny, non-finite, of another type) or deleted, exit 0, 1 or 2 and raise
    nothing."""
    where, docs = valid_files
    docs = json.loads(json.dumps(docs))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_json_paths(docs[which]))))
        value = data.draw(st.sampled_from(_FUZZ_VALUES))
        if not path:
            docs[which] = value
            continue
        parent = docs[which]
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    inst, graph = str(where / "inst.json"), str(where / "graph.json")
    for name, path in (("instance", inst), ("graph", graph)):
        with open(path, "w") as fh:
            json.dump(docs[name], fh)
    assert main(["build", "--in", inst, "--out", str(where / "out.json")]) in (0, 1, 2)
    assert main(["verify", "--instance", inst, "--graph", graph,
                 "--detour-samples", "20"]) in (0, 1, 2)
