"""Self-test of the benchmark at tiny sizes.

Every workload must emit exactly the metrics BENCHMARK.json names, and a
broken program must show up as a failed operation, never as a fast run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json

import pytest

import run

run.import_package()

from boxspan.generators import GenConfig, random_instance  # noqa: E402
from boxspan.geodesic import GeodesicSolver  # noqa: E402
from boxspan import files  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {name: {"instances": 2, "params": dict(w["params"], n=8, m=min(w["params"]["m"], 4))}
        for name, w in run.WORKLOADS.items()}


def _names(kind):
    return {metric["name"] for metric in SPEC[kind]}


def test_spec_lists_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_named_metric_is_emitted(name, tmp_path):
    plain = run.measure(name, 3, 0.0, False, tmp_path, TINY[name])["result"]
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert {m["unit"] for m in plain["metrics"].values()} <= {m["unit"] for m in SPEC["end_to_end"]}

    traced = run.measure(name, 3, 0.0, True, tmp_path, TINY[name])["result"]
    assert traced["correct"] and traced["failed"] == 0
    metrics = {k: m["value"] for k, m in traced["metrics"].items()}
    assert set(metrics) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(traced["metrics"][k]["unit"] == units[k] for k in metrics)
    assert metrics["cspd.build_cspd.calls"] == 4 * 2
    for cmd in ("build", "verify"):
        parts = sum(metrics[f"{cmd}.geodesic.{k}.n"]
                    for k in ("repeat", "box_free", "obstructed_l1", "detour"))
        assert parts == metrics[f"{cmd}.geodesic.distance.calls"]
    assert metrics["verification.via_samples.n"] == 3 * run.DETOUR_SAMPLES * 2


def test_graph_with_a_deleted_edge_is_a_failed_operation(tmp_path, monkeypatch):
    save_graph = files.save_graph

    def drop_first_edge(path, graph):
        del graph.edges[min(graph.edges)]
        save_graph(path, graph)

    monkeypatch.setattr(files, "save_graph", drop_first_edge)
    out = run.measure("open", 0, 0.0, False, tmp_path,
                      {"instances": 1, "params": dict(n=2, m=0)})
    assert out["result"]["correct"] is False
    assert out["result"]["failed"] == 1
    assert any("verify of instance 0" in note and "exit code 1" in note for note in out["notes"])


def test_spot_check_accepts_the_engine_and_rejects_a_wrong_one(monkeypatch):
    env = random_instance(GenConfig(seed=5, n=10, m=6, placement="mixed", max_side=0.3))
    assert run.spot_check(env, 5) is None

    distance = GeodesicSolver.distance
    monkeypatch.setattr(GeodesicSolver, "distance",
                        lambda self, p, q: 1.5 * distance(self, p, q))
    assert "engine" in run.spot_check(env, 5)
