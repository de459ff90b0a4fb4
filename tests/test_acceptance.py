"""Acceptance suite: every promised bound checked at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them).  The
heavy artifacts (the twenty stretch-bound runs) are built once and shared.
"""

import itertools
import math
import time

import numpy as np
import pytest

from boxspan.cspd import CONES, build_cspd, certify_cspd
from boxspan.geodesic import GeodesicSolver, oracle_fine_grid_distance
from boxspan.generators import GenConfig, random_instance, slab_instance
from boxspan.geometry import Environment, Point3
from boxspan.spanner import SpannerGraph, build_spanner
from boxspan.verification import (STRETCH_BOUND_L1, STRETCH_SLACK, VIA_DETOUR_FACTOR,
                                  scaling_sweep, spanning_ratio, via_triples)
from test_geometry import l1_distance, l2_distance

SQRT3 = math.sqrt(3.0)

# 16 grid combinations plus 4 repeats under fresh seeds = 20 runs
STRETCH_COMBOS = [(n, m) for n in (25, 50, 100, 200) for m in (0, 5, 10, 20)]
STRETCH_COMBOS += [(25, 20), (50, 10), (100, 5), (200, 20)]


def _announce(number: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")


@pytest.fixture(scope="module")
def stretch_runs():
    runs = []
    t0 = time.perf_counter()
    for idx, (n, m) in enumerate(STRETCH_COMBOS):
        env = random_instance(GenConfig(seed=1000 + idx, n=n, m=m))
        solver = GeodesicSolver(env)
        graph = build_spanner(env, solver)
        report = spanning_ratio(env, graph, solver=solver)
        runs.append({"env": env, "solver": solver, "graph": graph, "report": report})
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_stretch_bound(stretch_runs):
    runs, elapsed = stretch_runs
    worst = max(r["report"].max_ratio for r in runs)
    ok = worst <= STRETCH_BOUND_L1 + STRETCH_SLACK and elapsed < 900
    _announce(1, "max L1 stretch <= 8 on 20 seeded instances", ok,
              f"max stretch {worst:.6f}, total {elapsed:.1f}s")
    assert worst <= STRETCH_BOUND_L1 + STRETCH_SLACK
    assert elapsed < 900


def test_criterion_2_edge_count_scaling():
    # scaling_sweep raises unless every run keeps the 6x pair-size budget
    # and the stretch bound
    rows = scaling_sweep([16, 32, 64, 128, 256, 512], trials=3, seed=20, m=8)
    normalized = [row.normalized_edges for row in rows]
    worst_stretch = max(row.max_stretch for row in rows)
    ratios = [b / a for a, b in zip(normalized, normalized[1:])]
    ok = all(r <= 2.0 for r in ratios)
    _announce(2, "edges within 6x pair-size budget, n log^3 n scaling", ok,
              f"normalized {['%.4f' % v for v in normalized]}, "
              f"row ratios {['%.2f' % r for r in ratios]}, "
              f"max stretch {worst_stretch:.4f}")
    assert ok


def test_criterion_3_via_detour_inequality(stretch_runs):
    runs, _ = stretch_runs
    rng = np.random.default_rng(3000)
    per_env = -(-10_000 // len(runs))  # ceil; >= 10^4 samples overall
    total = passes = 0
    worst = 0.0
    for run in runs:
        env, solver = run["env"], run["solver"]
        for p, q, o in via_triples(env, per_env, rng):
            lhs = solver.distance(p, o) + solver.distance(o, q)
            sigma = solver.distance(p, q)
            worst = max(worst, lhs / sigma)
            total += 1
            if lhs <= VIA_DETOUR_FACTOR * sigma + 1e-6:
                passes += 1
    ok = passes == total and total >= 10_000
    _announce(3, "two-leg trip via box point <= 4x direct", ok,
              f"{passes}/{total} samples, max ratio {worst:.4f} (bound 4)")
    assert ok
    assert worst <= VIA_DETOUR_FACTOR + 1e-6


def test_criterion_4_cspd_certification():
    rng = np.random.default_rng(4000)
    checked = 0
    for n in (10, 50, 200, 500):
        uniform = [Point3(*rng.uniform(0, 1, 3)) for _ in range(n)]
        pool = rng.uniform(0, 1, max(6, int(round(n ** (1 / 2)))))
        tied = []
        seen = set()
        while len(tied) < n:
            p = Point3(*(float(rng.choice(pool)) for _ in range(3)))
            if p.as_tuple() not in seen:
                seen.add(p.as_tuple())
                tied.append(p)
        for pts in (uniform, tied):
            for cone in CONES:
                violations = certify_cspd(pts, cone, build_cspd(pts, cone))
                assert violations == [], (n, cone, violations[:3])
                checked += 1
    _announce(4, "unique coverage and cone separation, brute-force certified", True,
              f"{checked} decompositions over n in (10, 50, 200, 500)")


def test_criterion_5_slab_lower_bound():
    n, eps, s, delta = 10, 0.1, 2.1, 1e-3
    env = slab_instance(n, eps, s, delta)
    solver = GeodesicSolver(env)
    complete = SpannerGraph(n=n)
    for i in range(n):
        for j in range(i + 1, n):
            sigma = solver.distance(env.points[i], env.points[j])
            assert s - 1e-9 <= sigma <= s + eps + 4 * delta + 1e-9, (i, j, sigma)
            complete.edges[(i, j)] = sigma
    worst_ratio = math.inf
    for victim in list(complete.edges):
        pruned = SpannerGraph(n=n)
        for edge, w in complete.edges.items():
            if edge != victim:
                pruned.edges[edge] = w
        # every other pair keeps its edge, so the dropped one sets the stretch
        report = spanning_ratio(env, pruned, solver)
        assert report.argmax == victim
        worst_ratio = min(worst_ratio, report.max_ratio)
    ok = worst_ratio > 2 - eps
    _announce(5, "dropping any edge forces ratio above 2 - eps", ok,
              f"min ratio {worst_ratio:.4f} > {2 - eps}")
    assert ok


def test_criterion_6_engine_vs_lattice_oracle():
    resolutions = (1 / 8, 1 / 16, 1 / 32)
    worst_gap = 0.0
    pairs = 0
    for idx in range(10):
        m = idx % 6  # covers m = 0..5
        env = random_instance(GenConfig(seed=600 + idx, n=8, m=m, max_side=0.15))
        solver = GeodesicSolver(env)
        for i, j in itertools.combinations(range(env.n), 2):
            p, q = env.points[i], env.points[j]
            engine = solver.distance(p, q)
            ladder = [oracle_fine_grid_distance(env, p, q, r) for r in resolutions]
            assert ladder[0] >= ladder[1] - 1e-12 >= ladder[2] - 2e-12, (idx, i, j)
            assert ladder[2] >= engine - 1e-9, (idx, i, j)
            gap = abs(engine - ladder[2])
            worst_gap = max(worst_gap, gap)
            assert gap <= 6 / 32, (idx, i, j, gap)
            pairs += 1
    _announce(6, "engine within 6/32 of fine-lattice oracle", True,
              f"{pairs} pairs over 10 instances, worst gap {worst_gap:.4f} <= {6 / 32:.4f}")


def test_criterion_7_norm_conversion(stretch_runs):
    rng = np.random.default_rng(7000)
    for _ in range(10_000):
        p = Point3(*rng.uniform(-50, 50, 3))
        q = Point3(*rng.uniform(-50, 50, 3))
        l1 = l1_distance(p, q)
        l2 = l2_distance(p, q)
        assert l1 / SQRT3 <= l2 + 1e-9
        assert l2 <= l1 + 1e-9
    runs, _ = stretch_runs
    worst_l2 = 0.0
    for run in runs:
        report = run["report"]
        assert report.l2_ratio_analytic == pytest.approx(SQRT3 * report.max_ratio)
        worst_l2 = max(worst_l2, report.l2_ratio_analytic)
    ok = worst_l2 <= 8 * SQRT3 + 2e-6
    _announce(7, "norm sandwich and analytic L2 stretch", ok,
              f"10000 pairs, max L2 figure {worst_l2:.6f} <= {8 * SQRT3:.6f}")
    assert ok


def test_criterion_8_trivial_instances():
    two_point_envs = [
        Environment([], [Point3(0, 0, 0), Point3(1, 2, 3)]),
        random_instance(GenConfig(seed=8000, n=2, m=5)),
        slab_instance(2, eps=0.1, s=2.1, delta=1e-3),
    ]
    for env in two_point_envs:
        graph = build_spanner(env)
        assert graph.edge_count == 1
        report = spanning_ratio(env, graph)
        assert report.max_ratio == 1.0
    single = build_spanner(Environment([], [Point3(4, 4, 4)]))
    assert single.edge_count == 0
    _announce(8, "n=2 gives the direct edge at stretch exactly 1, n=1 gives none",
              True, "3 two-point environments plus a singleton")
