import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from boxspan import geodesic, verification
from boxspan.geodesic import GeodesicSolver
from boxspan.geometry import AxisBox, Environment, Point3, points_array
from boxspan.generators import GenConfig, random_instance, slab_instance
from boxspan.spanner import SpannerGraph, build_spanner
from boxspan.verification import (STRETCH_BOUND_L1, STRETCH_SLACK, VIA_DETOUR_FACTOR,
                                  VIA_SLACK, StretchReport, check_via_triples, norm_conversion_check,
                                  scaling_sweep, spanning_ratio, via_triples)
from test_geometry import bounding_box, l1_distance, l2_distance
from test_spanner import _faces_instance, _scaled, _scaled_point


def _graph(n, edges):
    return SpannerGraph(n=n, edges={(i, j): w for i, j, w in edges})


def test_spanning_ratio_of_complete_geodesic_graph_is_one():
    env = random_instance(GenConfig(seed=3, n=12, m=2))
    solver = GeodesicSolver(env)
    g = SpannerGraph(n=env.n)
    for i in range(env.n):
        for j in range(i + 1, env.n):
            g.edges[(i, j)] = solver.distance(env.points[i], env.points[j])
    report = spanning_ratio(env, g, solver=solver)
    assert report.max_ratio == pytest.approx(1.0, abs=1e-12)


def test_spanning_ratio_of_built_spanner(tmp_path):
    env = random_instance(GenConfig(seed=8, n=30, m=4))
    solver = GeodesicSolver(env)
    g = build_spanner(env, solver)
    report = spanning_ratio(env, g, solver=solver)
    dist_graph = dijkstra(verification._graph_csr(g), directed=False)
    ratios = {}
    for i in range(env.n - 1):
        sigma = solver.distances_from(env.points[i], env.points[i + 1:])
        for k, r in enumerate(dist_graph[i, i + 1:] / sigma):
            ratios[(i, i + 1 + k)] = float(r)
    assert report.within_bound()
    assert report.max_ratio >= 1.0
    assert report.argmax in ratios
    assert ratios[report.argmax] == report.max_ratio
    # graph distances never undercut the geodesic metric
    for (i, j), ratio in ratios.items():
        assert ratio >= 1.0 - 1e-9
    # edges of the graph realize ratio 1 exactly
    for (i, j) in g.edges:
        assert ratios[(i, j)] == pytest.approx(1.0, abs=1e-9)
    assert report.l2_ratio_analytic == pytest.approx(math.sqrt(3) * report.max_ratio)


def reference_spanning_ratio(env, g, solver):
    """The stretch scan with one distances_from call per row, as a reference."""
    dist_graph = dijkstra(verification._graph_csr(g), directed=False)
    P = points_array(env.points)
    best, arg, understated = 0.0, None, None
    for i in range(g.n - 1):
        sigma = solver.distances_from(P[i], P[i + 1:])
        ratios = dist_graph[i, i + 1:] / sigma
        j_rel = int(np.argmax(ratios))
        if ratios[j_rel] > best:
            best = float(ratios[j_rel])
            arg = (i, i + 1 + j_rel)
        if understated is None:
            below = np.nonzero(ratios < 1 - STRETCH_SLACK)[0]
            if len(below):
                understated = (i, i + 1 + int(below[0]))
    return StretchReport(max_ratio=best, argmax=arg, understated=understated)


def _built(env):
    return env, build_spanner(env, GeodesicSolver(env))


def _understated(env):
    env, g = _built(env)
    victim = sorted(g.edges)[len(g.edges) // 2]
    g.edges[victim] *= 0.5
    return env, g


def _disconnected(env):
    """A path over the first half of the points, the rest isolated."""
    solver = GeodesicSolver(env)
    half = env.n // 2
    return env, SpannerGraph(n=env.n, edges={
        (i, i + 1): solver.distance(env.points[i], env.points[i + 1]) for i in range(half)})


def _tied_path():
    """40 points on a line, joined in a path of unit edges but for three of
    weight 3.0: the ratio 3.0 is reached by (4, 5), (4, 6) and (5, 6), within
    one block of 100 pairs, and again by (30, 31), in a later block."""
    env = Environment([], [Point3(float(x), 0.0, 0.0) for x in range(40)])
    return env, _graph(40, [(i, i + 1, 3.0 if i in (4, 5, 30) else 1.0) for i in range(39)])


_MAZE = GenConfig(seed=0, n=32, m=40, placement="mixed", min_side=0.05, max_side=0.3,
                  gap=0.01)


@pytest.mark.parametrize("case, block", [
    (lambda: _built(random_instance(GenConfig(seed=11, n=64, m=8))), None),
    (lambda: _built(random_instance(_MAZE)), None),
    (lambda: _built(_faces_instance()), None),
    (lambda: _built(random_instance(GenConfig(seed=4, n=300, m=0))), 200),
    (lambda: _disconnected(random_instance(GenConfig(seed=5, n=40, m=6, max_side=0.3))), 100),
    (lambda: _understated(random_instance(GenConfig(seed=12, n=64, m=8))), 300),
    (_tied_path, 100),
], ids=["scatter", "maze", "faces", "open-split", "disconnected", "understated", "tied"])
def test_spanning_ratio_matches_the_per_row_scan(case, block, monkeypatch):
    """The scan by blocks of rows gives the per-row scan's report, compared
    with ==, and leaves the same cache in the same order.  It asks sigma
    once per block, never once per row, unless a row fills a block alone."""
    env, g = case()
    if block is not None:
        monkeypatch.setattr(verification, "_STRETCH_BLOCK", block)
    solver, reference_solver = GeodesicSolver(env), GeodesicSolver(env)
    calls = []
    distances_from = solver.distances_from
    solver.distances_from = lambda S, T: calls.append(len(T)) or distances_from(S, T)
    got = spanning_ratio(env, g, solver)
    expected = reference_spanning_ratio(env, g, reference_solver)
    assert got == expected
    assert list(solver._cache.items()) == list(reference_solver._cache.items())
    assert sum(calls) == env.n * (env.n - 1) // 2
    assert max(calls) <= max(verification._STRETCH_BLOCK, env.n - 1)
    assert len(calls) == 1 if block is None else 1 < len(calls) < env.n - 1


def test_spanning_ratio_scan_covers_the_edge_cases():
    """The cases above exercise what they are named for."""
    env, g = _disconnected(random_instance(GenConfig(seed=5, n=40, m=6, max_side=0.3)))
    assert math.isinf(spanning_ratio(env, g).max_ratio)
    env, g = _understated(random_instance(GenConfig(seed=12, n=64, m=8)))
    assert spanning_ratio(env, g).understated is not None
    env, g = _tied_path()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verification, "_STRETCH_BLOCK", 100)
        blocks = [set(zip(rows.tolist(), cols.tolist()))
                  for rows, cols in verification._pair_blocks(env.n)]
        report = spanning_ratio(env, g)
    tied = [(4, 5), (4, 6), (5, 6), (30, 31)]
    dist = dijkstra(verification._graph_csr(g), directed=False)
    assert [dist[i, j] / (j - i) for i, j in tied] == [3.0] * 4
    at = [k for pair in tied for k, block in enumerate(blocks) if pair in block]
    assert at[0] == at[1] == at[2] < at[3]
    assert report == StretchReport(max_ratio=3.0, argmax=(4, 5))
    env = random_instance(_MAZE)
    states = GeodesicSolver(env).classify(*np.broadcast_arrays(
        *(points_array(env.points)[k] for k in np.triu_indices(env.n, 1))))
    assert (states == geodesic.GRID_STAGE).sum() > 100


def test_spanning_ratio_checks_vertex_count():
    env = random_instance(GenConfig(seed=1, n=5, m=0))
    with pytest.raises(ValueError):
        spanning_ratio(env, SpannerGraph(n=4))


# -- the certified scan: two-hop bounds, exact rows only where they can matter

def _sigma_graph(env, pairs):
    """The graph on env's points with the given edges, each weighted by its
    geodesic distance."""
    solver = GeodesicSolver(env)
    return SpannerGraph(n=env.n, edges={
        (i, j): solver.distance(env.points[i], env.points[j]) for i, j in pairs})


def _exact_rows(monkeypatch):
    """The sources of the scan's single-source Dijkstra runs, as recorded
    by a wrapper of verification.dijkstra."""
    rows = []
    run = verification.dijkstra
    monkeypatch.setattr(verification, "dijkstra", lambda graph, directed, indices:
                        rows.extend(np.atleast_1d(indices).tolist())
                        or run(graph, directed=directed, indices=indices))
    return rows


def _scan_matches_reference(env, g, block=None):
    """The scan's report, compared with ==, and its cache, entry for entry,
    are the per-row reference scan's; returns the report."""
    solver, reference_solver = GeodesicSolver(env), GeodesicSolver(env)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(verification, "_STRETCH_BLOCK", block)
        got = spanning_ratio(env, g, solver)
    assert got == reference_spanning_ratio(env, g, reference_solver)
    assert list(solver._cache.items()) == list(reference_solver._cache.items())
    return got


_SCAN_INSTANCES = {
    "maze": lambda seed: random_instance(GenConfig(
        seed=seed, n=20, m=24, placement="mixed", min_side=0.05, max_side=0.3, gap=0.01)),
    "faces": lambda seed: _faces_instance(),
    "lattice": lambda seed: Environment(_VIA_ENV.obstacles, [
        _VIA_ENV.points[k] for k in
        np.sort(np.random.default_rng(seed).choice(_VIA_ENV.n, 24, replace=False))]),
    "slab": lambda seed: slab_instance(4 + seed % 7, 0.1, 2.1, 1e-3),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_SCAN_INSTANCES)), st.integers(0, 40),
       st.sampled_from(["built", "thinned", "scaled", "star", "path"]),
       st.sampled_from([None, 1, 37]), st.data())
def test_certified_scan_matches_the_all_pairs_reference(kind, seed, graph, block, data):
    """On maze, faces, lattice and slab instances, with built spanners,
    spanners with edges dropped or one weight scaled, stars and paths, the
    scan gives the report and the cache of the per-row scan on all-pairs
    Dijkstra distances, also with blocks of one row and of 37 pairs."""
    env = _SCAN_INSTANCES[kind](seed)
    if graph in ("built", "thinned", "scaled"):
        g = build_spanner(env, GeodesicSolver(env))
        edges = sorted(g.edges)
        if graph == "thinned":
            drop = data.draw(st.sets(st.sampled_from(edges), max_size=len(edges) // 2))
            g = SpannerGraph(n=env.n, edges={e: w for e, w in g.edges.items() if e not in drop})
        elif graph == "scaled":
            victim = data.draw(st.sampled_from(edges))
            g.edges[victim] *= data.draw(st.sampled_from([0.5, 1 - 2.0 ** -40, 1.5])
                                         | st.floats(0.1, 4.0))
    elif graph == "star":
        center = data.draw(st.integers(0, env.n - 1))
        g = _sigma_graph(env, [(center, j) for j in range(env.n) if j != center])
    else:
        order = data.draw(st.permutations(range(env.n)))
        g = _sigma_graph(env, list(zip(order, order[1:])))
    _scan_matches_reference(env, g, block)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]), st.integers(0, 3)))), st.sampled_from([None, 1, 5]))
def test_certified_scan_breaks_ties_as_the_reference(graph, block):
    """Points on a line at the integers, edges of weight their length plus
    0 to 3, stored in either orientation: small integer ratios tie often,
    and two-hop bounds are often loose or inf, yet the scan picks the
    reference's pair."""
    n, extra = graph
    env = Environment([], [Point3(float(x), 0.0, 0.0) for x in range(n)])
    g = _graph(n, [(i, j, float(abs(i - j) + w)) for (i, j), w in extra.items()])
    _scan_matches_reference(env, g, block)


def _edge_below_l1():
    """A built spanner with one weight 2**-40 relative below the L1 of its
    ends: no pair is understated, but the L1 lower bound fails."""
    env, g = _built(random_instance(GenConfig(seed=12, n=64, m=8)))
    i, j = victim = sorted(g.edges)[len(g.edges) // 2]
    g.edges[victim] = l1_distance(env.points[i], env.points[j]) * (1 - 2.0 ** -40)
    return env, g


def _understated_at_l1():
    """Six points and a thin box in their way, so that geodesics past it
    exceed L1 by 2e-4; every weight is at least the L1 of its ends, and
    (2, 3) has that L1.  (0, 3) is the first understated pair, at 1 - 6e-5
    over a path of three edges, but its two-hop bound is its own edge, at
    ratio 1; (1, 3) comes later, with a bound of 1 - 9e-5.  Row 4 holds the
    max, 2, at (4, 5), so only the search for understated pairs makes row 0
    go exact, and only if a geodesic 6e-5 above L1 counts as wide."""
    env = Environment([AxisBox(Point3(0.0, -1e-4, -1.0), Point3(1.0, 1e-4, 1.0))],
                      [Point3(-2.1, 0.0, 0.0), Point3(-1.1, 0.0, 0.0), Point3(-0.1, 0.0, 0.0),
                       Point3(1.1, 0.0, 0.0), Point3(5.0, 5.0, 0.0), Point3(6.0, 5.0, 0.0)])
    g = _sigma_graph(env, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    g.edges[(2, 3)] = l1_distance(env.points[2], env.points[3])
    g.edges[(4, 5)] = 2.0
    return env, g


def _tied_bound():
    """Seven points on a line.  (0, 1) has the two-hop bound 16, through 6,
    but a path of 12 through 4 and 3; (1, 2) has no two-hop path and the
    ratio 16.  Row 1 goes exact first, and row 0, whose bound only ties the
    best ratio, must go exact too for the argmax to be (1, 2)."""
    env = Environment([], [Point3(float(x), 0.0, 0.0) for x in range(7)])
    return env, _graph(7, [(0, 2, 4.0), (0, 4, 7.0), (0, 5, 5.0), (0, 6, 9.0), (1, 3, 3.0),
                           (1, 6, 7.0), (3, 4, 2.0), (3, 6, 3.0), (4, 5, 4.0), (4, 6, 5.0)])


def _missing_edges():
    """A built spanner with point 0 left on one edge, to its nearest
    neighbour: a path of three edges joins it to some points, but none of
    at most two, so their two-hop bound is inf."""
    env, g = _built(random_instance(GenConfig(seed=11, n=64, m=8)))
    keep = min((e for e in g.edges if 0 in e), key=g.edges.get)
    return env, SpannerGraph(n=env.n, edges={
        e: w for e, w in g.edges.items() if 0 not in e or e == keep})


def _star():
    env = random_instance(GenConfig(seed=13, n=48, m=6))
    return env, _sigma_graph(env, [(7, j) for j in range(env.n) if j != 7])


def _path():
    env = random_instance(GenConfig(seed=14, n=48, m=6))
    return env, _sigma_graph(env, [(i, i + 1) for i in range(env.n - 1)])


@pytest.mark.parametrize("case", [
    _understated_at_l1, _edge_below_l1, _missing_edges, _star, _path, _tied_bound,
], ids=["understated-at-l1", "below-l1", "missing-edges", "star", "path", "tied-bound"])
def test_certified_scan_fixed_cases(case, monkeypatch):
    """Graphs the two-hop bound certifies poorly or not at all give the
    reference's report and cache, with blocks of 300 pairs; the rows that
    must go exact do.  An understated edge, a disconnected graph and the
    tied path are cases of the per-row scan test above."""
    env, g = case()
    rows = _exact_rows(monkeypatch)
    report = _scan_matches_reference(env, g, block=300)
    assert len(rows) == len(set(rows))
    if case is _understated_at_l1:
        assert (report.max_ratio, report.argmax, report.understated) == (2.0, (4, 5), (0, 3))
    if case is _tied_bound:
        assert (report.max_ratio, report.argmax) == (16.0, (1, 2))
    if case is _edge_below_l1:
        # the weight is not understated, but only exact rows can tell
        assert report.understated is None
        assert sorted(rows) == list(range(env.n - 1))
    if case is _missing_edges:
        assert 0 in rows
    if case in (_star, _path):
        assert report.max_ratio > 1.5


def _scaled_spanner(env, k):
    """env with every coordinate scaled by 2**k, and its spanner built
    unscaled with every weight scaled by 2**k; both are exact."""
    g = build_spanner(env, GeodesicSolver(env))
    return _scaled(env, k), SpannerGraph(n=env.n, edges={e: math.ldexp(w, k)
                                                         for e, w in g.edges.items()})


@pytest.mark.parametrize("k", [-300, -126, 0, 300])
@pytest.mark.parametrize("kind", ["maze", "scatter"])
def test_certified_scan_matches_the_reference_at_any_scale(kind, k):
    """Spanners scaled by 2**k, weights and coordinates alike, give the
    reference's report and cache: the float32 matrix of the two-hop bounds
    is scaled by a power of two of the largest weight."""
    env = (_SCAN_INSTANCES["maze"](3) if kind == "maze"
           else random_instance(GenConfig(seed=15, n=48, m=8)))
    for block in (None, 37):
        report = _scan_matches_reference(*_scaled_spanner(env, k), block)
        assert 1.0 < report.max_ratio < STRETCH_BOUND_L1


def test_certified_scan_floors_tiny_weights():
    """Points on a line with gaps from 2**-140 to 3, joined in a path and a
    few longer edges, two of them a quarter above their length: the weights
    span more than 2**130, so the smallest fall below 2**-126 once scaled
    for the float32 matrix and are raised to it, and the scan still gives
    the reference's report and cache."""
    xs = [0.0, 2.0 ** -140, 3 * 2.0 ** -140, 1.0, 2.0, 2.5, 4.0, 7.0]
    env = Environment([], [Point3(float(x), 0.0, 0.0) for x in xs])
    edges = [(i, i + 1) for i in range(env.n - 1)] + [(0, 2), (1, 4), (2, 6), (3, 7)]
    g = _graph(env.n, [(i, j, (xs[j] - xs[i]) * (1.25 if i in (3, 5) else 1.0))
                       for i, j in edges])
    weights = np.array(list(g.edges.values()))
    assert weights.max() / weights.min() > 2.0 ** 130
    csr = verification._graph_csr(g)
    W, _ = verification._weight_matrix(
        env.n, np.repeat(np.arange(env.n), np.diff(csr.indptr)), csr.indices, csr.data)
    assert W.min() == np.float32(2.0 ** -126)
    for block in (None, 3):
        report = _scan_matches_reference(env, g, block)
        assert report.max_ratio > 1.0 and report.understated is None


def test_certified_scan_of_a_graph_without_edges():
    """With no edge every graph distance is inf: the first pair holds the
    max, inf, as in the reference."""
    env = random_instance(GenConfig(seed=16, n=24, m=4))
    for block in (None, 40):
        report = _scan_matches_reference(env, SpannerGraph(n=env.n), block)
        assert (report.max_ratio, report.argmax, report.understated) == (math.inf, (0, 1), None)


@pytest.fixture(scope="module")
def open_768():
    env = random_instance(GenConfig(seed=1, n=768, m=0))
    return env, build_spanner(env, GeodesicSolver(env))


def test_certified_scan_on_open_needs_few_exact_rows(open_768, monkeypatch):
    """On an obstacle-free n=768 spanner the scan gives the reference's
    report with fewer than n/8 exact rows, so a silent fall-back to all
    rows fails here."""
    env, g = open_768
    rows = _exact_rows(monkeypatch)
    report = spanning_ratio(env, g, GeodesicSolver(env))
    assert report == reference_spanning_ratio(env, g, GeodesicSolver(env))
    assert report.understated is None and report.max_ratio > 1.0
    assert 0 < len(set(rows)) < env.n / 8


def test_certified_scan_memory_is_one_dense_matrix(open_768):
    """The scan's traced peak on an n=768 instance stays near one n x n
    float32 matrix plus block temporaries: no per-pair arrays over all pairs,
    no float64 matrix and no second n x n copy."""
    env, g = open_768
    env.point_coords
    solver = GeodesicSolver(env)
    tracemalloc.start()
    try:
        spanning_ratio(env, g, solver)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * env.n ** 2 + 3_000_000


def test_via_detour_free_space_is_tight_at_one():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    p, q = env.points
    # inside the box with no obstacles the two legs add up to the direct trip
    passes, worst = check_via_triples([(p, q, Point3(0.3, 0.8, 0.1))], GeodesicSolver(env))
    assert passes == 1
    assert worst == pytest.approx(1.0, abs=1e-12)


def test_via_detour_identity_endpoint():
    env = Environment([], [Point3(0, 0, 0), Point3(2, 1, 0)])
    p, q = env.points
    passes, worst = check_via_triples([(p, q, p)], GeodesicSolver(env))
    assert passes == 1 and worst == 1.0


def test_via_detour_rejects_outside_box():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    with pytest.raises(ValueError, match="via point must lie in the closed box"):
        check_via_triples([(*env.points, Point3(2, 0, 0))], GeodesicSolver(env))


def test_via_detour_holds_amid_obstacles():
    env = random_instance(GenConfig(seed=77, n=14, m=6))
    solver = GeodesicSolver(env)
    triples = via_triples(env, 60, np.random.default_rng(77))
    assert len(triples) == 60
    assert all(p != q for p, q, _ in triples)
    # raises unless each o is in the box of p and q and outside every obstacle
    passes, worst = check_via_triples(triples, solver)
    assert passes == 60
    assert worst <= VIA_DETOUR_FACTOR


class _PlantedSolver(GeodesicSolver):
    """A solver whose distance() answers from a table of planted values,
    keyed by the unordered pair, and as the engine does for other pairs."""

    def __init__(self, env, table):
        super().__init__(env)
        self.table = table

    def distance(self, p, q):
        key = frozenset((p, q))
        return self.table[key] if key in self.table else super().distance(p, q)


@pytest.mark.parametrize("k", [-300, -40, 0, 40, 300])
def test_via_check_slack_is_relative(k):
    """At every scale 2**k, a triple whose detour exceeds 4 sigma(p, q) by
    2**-20 relative fails, and one that exceeds it by 2**-40, the size of
    rounding, passes: the slack scales with the distances.  An absolute
    1e-9 let the bad triple pass at 2**-40 and failed the good one at
    2**40."""
    s = 2.0 ** k
    env = Environment([], [Point3(0.0, 0.0, 0.0), Point3(2 * s, s, 0.0)])
    (p, q), o = env.points, Point3(s, 0.0, 0.0)
    for excess, holds in [(2.0 ** -40, True), (2.0 ** -20, False)]:
        leg = 6 * s * (1 + excess)
        solver = _PlantedSolver(env, {frozenset((p, q)): 3 * s, frozenset((p, o)): leg,
                                      frozenset((o, q)): leg})
        assert check_via_triples([(p, q, o)], solver) == (int(holds), 4 * (1 + excess))
        lhs, rhs, ok = reference_via_detour(env, p, q, o, solver)
        assert (lhs / rhs, ok) == (1 + excess, holds)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_via_check_on_maze_scales_exactly(seed):
    """On maze instances scaled by 2**k, via_triples draws the scaled
    triples, and the via check gives the same passes and bit for bit the
    same worst ratio.  A planted triple whose pair (p, q) needs the grid
    stage, with sigma(p, o) set 2**-20 relative above 4 sigma(p, q), fails
    at every k."""
    env = random_instance(GenConfig(seed=seed, n=32, m=40, placement="mixed", min_side=0.05,
                                    max_side=0.3, gap=0.01))
    triples = via_triples(env, 100, np.random.default_rng(seed))
    P, Q = (points_array(column) for column in list(zip(*triples))[:2])
    grid = GeodesicSolver(env).classify(P, Q) == geodesic.GRID_STAGE
    bad = next(t for t, g in zip(triples, grid) if g and t[2] not in t[:2])
    results = []
    for k in (-300, -40, 0, 40, 300):
        scaled = _scaled(env, k)
        drawn = via_triples(scaled, 100, np.random.default_rng(seed))
        assert drawn == [tuple(_scaled_point(x, k) for x in t) for t in triples], k
        solver = GeodesicSolver(scaled)
        results.append(check_via_triples(drawn, solver))
        p, q, o = (_scaled_point(x, k) for x in bad)
        planted = _PlantedSolver(scaled, {
            frozenset((p, o)): VIA_DETOUR_FACTOR * solver.distance(p, q) * (1 + 2.0 ** -20)})
        assert check_via_triples([(p, q, o)], planted)[0] == 0, k
    assert results[0][0] == 100
    assert results == [results[0]] * len(results)


def reference_via_detour(env, p, q, o, solver):
    """One via check, validated on Point3 and AxisBox, as a reference:
    (lhs, rhs, holds) of sigma(p,o) + sigma(o,q) <= 4 * sigma(p,q)."""
    if not (min(p.x, q.x) <= o.x <= max(p.x, q.x)
            and min(p.y, q.y) <= o.y <= max(p.y, q.y)
            and min(p.z, q.z) <= o.z <= max(p.z, q.z)):
        raise ValueError("via point must lie in the closed box of p and q")
    for pt in (p, q, o):
        for box in env.obstacles:
            if box.contains_interior(pt):
                raise ValueError("query points must lie outside obstacle interiors")
    lhs = solver.distance(p, o) + solver.distance(o, q)
    rhs = VIA_DETOUR_FACTOR * solver.distance(p, q)
    return lhs, rhs, lhs <= rhs * (1 + VIA_SLACK)


def _via_loop(env, triples, check):
    """(passes, worst) of check called triple by triple on a fresh solver,
    or the ValueError message it raises; and the cache it leaves."""
    solver, passes, worst = GeodesicSolver(env), 0, 0.0
    try:
        for p, q, o in triples:
            lhs, rhs, holds = check(env, p, q, o, solver)
            worst = max(worst, VIA_DETOUR_FACTOR * lhs / rhs)
            passes += holds
    except ValueError as exc:
        return str(exc), None
    return (passes, worst), list(solver._cache.items())


# Two boxes whose faces lie on the planes of a lattice: points of the
# lattice sit on their faces, edges and corners, and via points drawn from
# the same planes sit on the boundary of the box of p and q.
_VIA_PLANES = (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
_VIA_ENV = Environment(
    [AxisBox(Point3(0.0, 0.0, 0.0), Point3(1.0, 1.0, 1.0)),
     AxisBox(Point3(1.5, 0.0, 0.5), Point3(2.0, 2.0, 1.0))],
    [Point3(*c) for c in itertools.product(_VIA_PLANES, repeat=3)
     if not (0 < c[0] < 1 and 0 < c[1] < 1 and 0 < c[2] < 1)
     and not (1.5 < c[0] < 2 and 0 < c[1] < 2 and 0.5 < c[2] < 1)])


def _via_pairs():
    """Index pairs of _VIA_ENV: those the grid stage settles, and those
    whose box holds the unit cube's center."""
    pts = points_array(_VIA_ENV.points)
    i, j = np.triu_indices(len(pts), 1)
    grid = GeodesicSolver(_VIA_ENV).classify(pts[i], pts[j]) == geodesic.GRID_STAGE
    around = ((np.minimum(pts[i], pts[j]) < 0.5) & (np.maximum(pts[i], pts[j]) > 0.5)).all(axis=1)
    return [list(zip(i[mask].tolist(), j[mask].tolist())) for mask in (grid, around)]


_GRID_PAIRS, _AROUND_CENTER = _via_pairs()


@st.composite
def _via_triple(draw, kind):
    """A triple (p, q, o) of the given kind: "valid"; "outside", with o
    outside the box of p and q on one axis; "inside", with o at the center
    of the unit cube.  Half the valid pairs need the grid stage."""
    if kind == "inside":
        i, j = draw(st.sampled_from(_AROUND_CENTER))
    else:
        index = st.integers(0, _VIA_ENV.n - 1)
        i, j = draw(st.sampled_from(_GRID_PAIRS) | st.tuples(index, index).filter(
            lambda ij: ij[0] != ij[1]))
    p, q = _VIA_ENV.points[i], _VIA_ENV.points[j]
    if draw(st.booleans()):
        p, q = q, p
    if kind == "inside":
        return p, q, Point3(0.5, 0.5, 0.5)
    coords = []
    for a, b in zip(p.as_tuple(), q.as_tuple()):
        lo, hi = min(a, b), max(a, b)
        coords.append(draw(st.sampled_from([c for c in _VIA_PLANES if lo <= c <= hi])
                           | st.floats(lo, hi)))
    if kind == "outside":
        axis = draw(st.integers(0, 2))
        lo, hi = sorted((p.coord(axis), q.coord(axis)))
        beyond = [c for c in _VIA_PLANES if not lo <= c <= hi]
        assume(beyond)
        coords[axis] = draw(st.sampled_from(beyond))
    o = Point3(*coords)
    assume(kind == "outside" or not any(box.contains_interior(o) for box in _VIA_ENV.obstacles))
    return p, q, o


@settings(max_examples=80, deadline=None)
@given(st.lists(_via_triple("valid"), max_size=12),
       st.lists(st.sampled_from(["outside", "inside"]).flatmap(_via_triple), max_size=2),
       st.data())
def test_check_via_triples_matches_a_loop_of_checks(triples, bad, data):
    """check_via_triples gives the (passes, worst) of checking the triples
    one at a time, and leaves the same cache; with a triple whose via point
    falls outside the box of p and q or inside an obstacle, it raises the
    ValueError the loop raises at the first such triple."""
    for triple in bad:
        triples.insert(data.draw(st.integers(0, len(triples))), triple)
    expected, cache = _via_loop(_VIA_ENV, triples, reference_via_detour)
    solver = GeodesicSolver(_VIA_ENV)
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=re.escape(expected)):
            check_via_triples(triples, solver)
    else:
        assert check_via_triples(triples, solver) == expected
        assert list(solver._cache.items()) == cache


def test_check_via_triples_validates_without_point_tests(monkeypatch):
    """The via checks make three distance calls per sample and no
    per-point obstacle test."""
    env = random_instance(GenConfig(seed=77, n=14, m=6))
    triples = via_triples(env, 50, np.random.default_rng(7))
    calls = []
    distance = GeodesicSolver.distance
    monkeypatch.setattr(GeodesicSolver, "distance",
                        lambda self, p, q: calls.append(1) or distance(self, p, q))
    monkeypatch.setattr(AxisBox, "contains_interior", None)
    assert check_via_triples(triples, GeodesicSolver(env))[0] == 50
    assert len(calls) == 3 * 50


def reference_via_triples(env, count, rng):
    """The sampler's loop on Point3 and AxisBox objects, as a reference."""
    n = env.n
    if n < 2:
        return []
    triples = []
    for _ in range(count):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        p, q = env.points[i], env.points[j]
        box = bounding_box(p, q)
        o = p
        for _ in range(64):
            u = rng.random(3)
            cand = Point3(
                min(max(p.x + u[0] * (q.x - p.x), box.lo.x), box.hi.x),
                min(max(p.y + u[1] * (q.y - p.y), box.lo.y), box.hi.y),
                min(max(p.z + u[2] * (q.z - p.z), box.lo.z), box.hi.z),
            )
            if not any(b.contains_interior(cand) for b in env.obstacles):
                o = cand
                break
        triples.append((p, q, o))
    return triples


def _reprs(triples):
    return [[repr(float(c)) for pt in triple for c in pt.as_tuple()] for triple in triples]


@pytest.mark.parametrize("env", [
    random_instance(GenConfig(seed=21, n=30, m=8, placement="mixed", max_side=0.3)),
    random_instance(GenConfig(seed=22, n=64, m=8)),
    random_instance(GenConfig(seed=23, n=10, m=0)),
    random_instance(GenConfig(seed=24, n=1, m=2)),
    # draws between two points of one face lie on that face, outside the cube
    Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                [Point3(0, 0.2, 0.2), Point3(0, 0.8, 0.8), Point3(1, 0.2, 0.8),
                 Point3(1, 0.8, 0.2)]),
    # every draw between two opposite faces falls inside the cube: o = p
    Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                [Point3(0, 0.5, 0.5), Point3(1, 0.5, 0.5)]),
], ids=["mixed", "scatter", "open", "one-point", "face-points", "all-draws-blocked"])
def test_via_triples_match_reference_draws(env):
    for seed in range(4):
        got = via_triples(env, 200, np.random.default_rng(seed))
        expected = reference_via_triples(env, 200, np.random.default_rng(seed))
        assert _reprs(got) == _reprs(expected)
    if env.n == 2 and env.obstacles:
        assert all(o == p for p, _, o in got)


def test_norm_conversion_check():
    env = random_instance(GenConfig(seed=5, n=20, m=0))
    assert norm_conversion_check(env)


def _norm_sandwich_loop(env):
    """Plain-python reference: the pairwise loop over the scalar distances."""
    for p, q in itertools.combinations(env.points, 2):
        l1, l2 = l1_distance(p, q), l2_distance(p, q)
        if not (l1 / math.sqrt(3.0) <= l2 + 1e-9 and l2 <= l1 + 1e-9):
            return False
    return True


@pytest.mark.parametrize("line", ["axis", "diagonal"])
def test_norm_conversion_check_on_a_line(line):
    # On an axis line l2 == l1 exactly (the upper bound is tight); on the
    # main diagonal l2 == l1 / sqrt(3) up to rounding (the lower bound is).
    ts = (-7.5, -1.0, 0.0, 0.125, 2.0, 3e3)
    if line == "axis":
        env = Environment([], [Point3(t, 0.25, -3.0) for t in ts])
        assert all(l2_distance(p, q) == l1_distance(p, q)
                   for p, q in itertools.combinations(env.points, 2))
    else:
        env = Environment([], [Point3(t, t, t) for t in ts])
    assert _norm_sandwich_loop(env)
    assert norm_conversion_check(env)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e9, 1e12])
def test_norm_conversion_check_margin_is_relative(scale, monkeypatch):
    """On a diagonal line the sandwich holds at every scale, and a ratio one
    part in 1e9 below sqrt(3) makes it fail at every scale."""
    ts = (-7.5, -1.0, 0.0, 0.125, 2.0, 3e3)
    env = Environment([], [Point3(t * scale, t * scale, t * scale) for t in ts])
    assert norm_conversion_check(env)
    monkeypatch.setattr(verification, "NORM_RATIO", verification.NORM_RATIO * (1 - 1e-9))
    assert not norm_conversion_check(env)


def reference_norm_conversion_check(env):
    """norm_conversion_check as it ran, one row of pairs per numpy call,
    with each pair's differences scaled by a power of two as it now does."""
    pts = points_array(env.points)
    for i in range(len(pts) - 1):
        diff = np.abs(pts[i + 1:] - pts[i])
        diff = np.ldexp(diff, -np.frexp(diff.max(axis=1))[1][:, None])
        l1 = diff.sum(axis=1)
        l2 = np.sqrt((diff * diff).sum(axis=1))
        if not np.all((l1 / verification.NORM_RATIO <= l2 * (1 + 1e-12))
                      & (l2 <= l1 * (1 + 1e-12))):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(cloud=st.lists(st.tuples(*[st.floats(-1e3, 1e3, allow_subnormal=False)] * 3),
                      min_size=0, max_size=40),
       t=st.floats(1e-3, 1e3), s=st.floats(1e-3, 1e3),
       tilt=st.tuples(*[st.integers(-30, 30).map(lambda k: k * 1e-9)] * 2),
       where=st.sampled_from(["first", "middle", "last"]),
       margin=st.sampled_from([0.0, 1e-12, 2e-12]),
       block=st.sampled_from([1, 5, 64, verification._STRETCH_BLOCK]))
def test_norm_check_blocks_match_per_row_loop(cloud, t, s, tilt, where, margin, block):
    """A random cloud and one pair on or near the main diagonal, at the
    bound (margin 0), at the 1e-12 margin, where rounding decides, or just
    past it: the block check gives the per-row loop's verdict.  The tilt
    makes the pair's coordinate differences unequal, so the order of the
    sums can matter."""
    points = [Point3(*c) for c in dict.fromkeys(cloud)]
    pair = [Point3(t, t, t), Point3(-s, -s * (1 + tilt[0]), -s * (1 + tilt[1]))]
    at = {"first": 0, "middle": len(points) // 2, "last": len(points)}[where]
    points = points[:at] + pair + points[at:]
    assume(len(set(points)) == len(points))
    env = Environment([], points)
    with pytest.MonkeyPatch.context() as mp:
        # l1 / NORM_RATIO on a diagonal pair is l2 * (1 + margin), up to rounding
        mp.setattr(verification, "NORM_RATIO", math.sqrt(3.0) / (1 + margin))
        mp.setattr(verification, "_STRETCH_BLOCK", block)
        expected = reference_norm_conversion_check(env)
        assert norm_conversion_check(env) == expected
    if margin == 2e-12 and tilt == (0.0, 0.0):
        assert not expected


def test_norm_check_matches_per_row_loop_at_the_margin(monkeypatch):
    """Pairs within a few ulps of the lower bound's margin, where rounding
    decides the verdict either way: each gives the per-row loop's verdict."""
    monkeypatch.setattr(verification, "NORM_RATIO", math.sqrt(3.0) / (1 + 1e-12))
    rng = np.random.default_rng(7)
    verdicts = []
    for t, s, tx, ty in zip(*rng.uniform(1e-3, 1e3, (2, 400)), *rng.uniform(-1e-8, 1e-8, (2, 400))):
        env = Environment([], [Point3(t, t, t), Point3(-s, -s * (1 + tx), -s * (1 + ty))])
        verdicts.append(reference_norm_conversion_check(env))
        assert norm_conversion_check(env) == verdicts[-1]
    assert 50 < sum(verdicts) < 350


@pytest.mark.parametrize("exponent", [-600, -560, 512, 600])
def test_norm_conversion_check_holds_where_squares_leave_the_float_range(exponent):
    """Scaled by 2**exponent, the sum of squares of some pair's coordinate
    differences overflows (positive exponents) or falls below the normal
    range (negative ones); the sandwich still holds, as it does unscaled."""
    env = random_instance(GenConfig(seed=3, n=64, m=0))
    scaled = Environment([], [Point3(*np.ldexp(p.as_tuple(), exponent).tolist())
                              for p in env.points])
    diff = np.subtract(*(points_array(scaled.points)[k] for k in np.triu_indices(env.n, 1)))
    with np.errstate(over="ignore", under="ignore"):
        squares = (diff * diff).sum(axis=1)
    assert not (np.isfinite(squares) & (squares >= np.finfo(float).tiny)).all()
    assert norm_conversion_check(env)
    assert norm_conversion_check(scaled)
    assert reference_norm_conversion_check(scaled)


def test_missing_edge_on_slab_instance_doubles_the_trip():
    """Dropping any edge of the complete graph forces a two-leg detour."""
    eps, s = 0.1, 2.1
    env = slab_instance(6, eps, s, 1e-3)
    solver = GeodesicSolver(env)
    full = SpannerGraph(n=env.n)
    for i in range(env.n):
        for j in range(i + 1, env.n):
            full.edges[(i, j)] = solver.distance(env.points[i], env.points[j])
    victim = (0, env.n - 1)
    pruned = SpannerGraph(n=env.n)
    for (i, j), w in full.edges.items():
        if (i, j) != victim:
            pruned.edges[(i, j)] = w
    report = spanning_ratio(env, pruned, solver)
    assert report.argmax == victim
    sigma = full.edges[victim]
    assert report.max_ratio * sigma >= 2 * s - 1e-9
    assert report.max_ratio > 2 - eps


def test_scaling_sweep_smoke():
    rows = scaling_sweep([8, 16], trials=2, seed=42, m=2)
    assert [r.n for r in rows] == [8, 16]
    for row in rows:
        assert row.max_stretch <= STRETCH_BOUND_L1 + 1e-6
        assert len(row.runs) == 2
        for run in row.runs:
            assert run["edges"] <= 6 * run["size_sum"]


def test_scaling_sweep_rejects_empty_sizes():
    with pytest.raises(ValueError):
        scaling_sweep([], trials=1, seed=0)


def test_scaling_sweep_rejects_a_size_below_one_by_value():
    # checked before any seeding, so the message names the size, not numpy's
    with pytest.raises(ValueError, match="sizes must be at least 1, got -3"):
        scaling_sweep([8, -3], trials=1, seed=0)
