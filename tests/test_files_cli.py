import dataclasses
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxspan import cli, files, generators
from boxspan.cli import main
from boxspan.geodesic import GridTooLargeError
from boxspan.generators import GenConfig, random_instance
from boxspan.geometry import AxisBox, Environment, Point3
from boxspan.spanner import SpannerGraph, build_spanner


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
    for flags in (["--trials", "0"], ["--sizes", "-3"], ["--m", "-1"]):
        assert main(["bench", "--sizes", "8", "--trials", "1", *flags]) == 2, flags
    capsys.readouterr()
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
    files.save_graph(graph, SpannerGraph(n=2, edges={(0, 1): 1.0}))
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


def test_cli_verify_detects_mismatched_n(tmp_path):
    inst = str(tmp_path / "inst.json")
    graph = str(tmp_path / "graph.json")
    assert main(["generate", "--n", "5", "--seed", "1", "--out", inst]) == 0
    files.save_graph(graph, SpannerGraph(n=4))
    assert main(["verify", "--instance", inst, "--graph", graph]) == 2


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
    files.save_graph(star, SpannerGraph(n=64, edges={(0, j): 1e-6 for j in range(1, 64)}))
    scaled = files.load_graph(graph)
    scaled.edges = {e: w * 1e-3 for e, w in scaled.edges.items()}
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


@pytest.mark.parametrize("n,edges", [
    (0, {}),
    (1, {}),
    (5, {(0, 1): 1e-07, (0, 4): 0.1 + 0.2, (1, 2): 1e16, (2, 3): float("inf"),
         (3, 4): 2.5, (1, 3): 1.0, (2, 4): 123456789.125, (0, 2): float("-inf"),
         (0, 3): float("nan")}),
], ids=["empty", "one-point", "weights"])
def test_save_graph_writes_json_dump_bytes(tmp_path, n, edges):
    """save_graph streams exactly what json.dump with indent=2 writes."""
    graph = SpannerGraph(n=n, edges=dict(edges))
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
        files.save_graph(path, SpannerGraph(n=n, edges=edges))
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
            files.save_graph(path, SpannerGraph(n=3, edges={(0, 1): 1.0, (1, 2): weight}))
        assert os.listdir(tmp_path) == []
    for key in ((0, 3), (-1, 2), (3, 4)):
        with pytest.raises(ValueError):
            files.save_graph(path, SpannerGraph(n=3, edges={(0, 1): 1.0, key: 2.0}))
        assert os.listdir(tmp_path) == []
    edges = {(0, 1): np.float64(1.5)}  # a float subclass is written as its float
    files.save_graph(path, SpannerGraph(n=2, edges=edges))
    with open(path, "rb") as fh:
        assert fh.read() == _json_dump_bytes(2, edges)


def reference_load_graph(path):
    """load_graph as it checked one edge at a time with isinstance tests,
    kept as the reference for the loader's messages and results."""
    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or not is_int(data.get("n")):
        raise files.FormatError("graph file must be an object with an integer 'n'")
    if not isinstance(data.get("edges", []), list):
        raise files.FormatError("graph 'edges' must be a list")
    n = data["n"]
    graph = SpannerGraph(n=n)
    for entry in data.get("edges", []):
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
            fh.write('{"n": %d, "edges": [%s]}' % (3 + _FILLER_N,
                                                   ", ".join(_filler_edges(rng, count))))
        expected = reference_load_graph(path)
        got = files.load_graph(path)
        assert got.n == expected.n
        assert list(got.edges) == list(expected.edges)
        assert all(type(w) is float for w in got.edges.values())
        assert [w.hex() for w in got.edges.values()] == [w.hex() for w in expected.edges.values()]
    for text in ('{"n": true, "edges": []}', '{"n": 8, "edges": 5}', '{"n": 2.0}', "[]"):
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(files.FormatError) as expected:
            reference_load_graph(path)
        with pytest.raises(files.FormatError) as got:
            files.load_graph(path)
        assert str(got.value) == str(expected.value)
