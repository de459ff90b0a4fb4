import heapq
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxspan import geodesic
from boxspan.geodesic import (GeodesicSolver, GridTooLargeError, _grid_distance, _grid_links,
                              _l1, _monotone_clear, oracle_fine_grid_distance)
from boxspan.generators import GenConfig, random_instance
from boxspan.geometry import AxisBox, Environment, Point3, points_array, validate_environment
from boxspan.verification import via_triples
from test_geometry import l1_distance

UNIT_CUBE = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))


# -- independent reference implementation ------------------------------------
#
# Plain-python grid construction and heap Dijkstra, shared with nothing in the
# package: the reference for every solver fast path.

def _segment_blocked(a, b, box):
    axis = next(i for i in range(3) if a[i] != b[i])
    lo, hi = min(a[axis], b[axis]), max(a[axis], b[axis])
    for other in range(3):
        if other == axis:
            continue
        if not (box.lo.coord(other) < a[other] < box.hi.coord(other)):
            return False
    return lo < box.hi.coord(axis) and hi > box.lo.coord(axis)


def brute_sigma(env, p, q):
    """Heap Dijkstra over the full grid of all obstacle faces plus p and q."""
    cuts = []
    for axis in range(3):
        vals = {p.coord(axis), q.coord(axis)}
        for box in env.obstacles:
            vals.add(box.lo.coord(axis))
            vals.add(box.hi.coord(axis))
        cuts.append(sorted(vals))
    nodes = [triple for triple in itertools.product(*cuts)
             if not any(b.contains_interior(Point3(*triple)) for b in env.obstacles)]
    index = {t: i for i, t in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for t in nodes:
        for axis in range(3):
            pos = cuts[axis].index(t[axis])
            if pos + 1 < len(cuts[axis]):
                u = list(t)
                u[axis] = cuts[axis][pos + 1]
                u = tuple(u)
                if u in index and not any(_segment_blocked(t, u, b) for b in env.obstacles):
                    w = u[axis] - t[axis]
                    adj[index[t]].append((index[u], w))
                    adj[index[u]].append((index[t], w))
    src, dst = index[p.as_tuple()], index[q.as_tuple()]
    dist = [math.inf] * len(nodes)
    dist[src] = 0.0
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if u == dst:
            break
        for v, w in adj[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist[dst]


def reference_grid_csr(cuts, links):
    """The one-way grid graph, one edge per link from its lower node, built
    with a node-id closure and one branch per axis; with its transpose, the
    reference for the strided _grid_graph."""
    cx, cy, cz = cuts
    ny, nz = len(cy), len(cz)
    n_nodes = len(cx) * ny * nz

    def node_id(i, j, k):
        return (i * ny + j) * nz + k

    rows, cols, weights = [], [], []
    steps = (np.diff(cx), np.diff(cy), np.diff(cz))
    for axis in range(3):
        i, j, k = np.nonzero(links[axis])
        if len(i) == 0:
            continue
        u = node_id(i, j, k)
        if axis == 0:
            v = node_id(i + 1, j, k)
            w = steps[0][i]
        elif axis == 1:
            v = node_id(i, j + 1, k)
            w = steps[1][j]
        else:
            v = node_id(i, j, k + 1)
            w = steps[2][k]
        rows.append(u)
        cols.append(v)
        weights.append(w)
    if rows:
        data = np.concatenate(weights)
        return csr_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n_nodes, n_nodes))
    return csr_matrix((n_nodes, n_nodes))


def reference_grid_links(cuts, obs_lo, obs_hi):
    """Node validity and link arrays marked obstacle by obstacle on
    searchsorted index ranges, as a reference for the mask-product
    _grid_links."""
    cx, cy, cz = cuts
    shape = (len(cx), len(cy), len(cz))

    # Index ranges of cut values strictly inside an obstacle's open interval.
    def strict(c, lo_v, hi_v):
        return slice(np.searchsorted(c, lo_v, side="right"),
                     np.searchsorted(c, hi_v, side="left"))

    inside = np.zeros(shape, dtype=bool)
    for k in range(len(obs_lo)):
        inside[strict(cx, obs_lo[k, 0], obs_hi[k, 0]),
               strict(cy, obs_lo[k, 1], obs_hi[k, 1]),
               strict(cz, obs_lo[k, 2], obs_hi[k, 2])] = True
    valid = ~inside

    links = []
    all_cuts = (cx, cy, cz)
    for axis in range(3):
        c = all_cuts[axis]
        blocked = np.zeros([len(v) - 1 if a == axis else len(v)
                            for a, v in enumerate(all_cuts)], dtype=bool)
        for k in range(len(obs_lo)):
            # segment c[i]..c[i+1] overlaps (lo, hi) iff c[i] < hi and c[i+1] > lo
            i0 = max(np.searchsorted(c, obs_lo[k, axis], side="right") - 1, 0)
            i1 = np.searchsorted(c, obs_hi[k, axis], side="left")
            region = [slice(None)] * 3
            region[axis] = slice(i0, i1)
            for other in range(3):
                if other == axis:
                    continue
                region[other] = strict(all_cuts[other], obs_lo[k, other], obs_hi[k, other])
            blocked[tuple(region)] = True
        head = [slice(None)] * 3
        head[axis] = slice(None, -1)
        tail = [slice(None)] * 3
        tail[axis] = slice(1, None)
        links.append(valid[tuple(head)] & valid[tuple(tail)] & ~blocked)
    return valid, links


def reference_monotone_clear(solver, s, t, over):
    """Monotone reachability from s to t by a fixed-point sweep on a grid of
    its own: the overlapping obstacles' faces clipped to the pair's box, all
    signs flipped where s > t; the reference for _monotone_clear."""
    flip = s > t
    sgn = np.where(flip, -1.0, 1.0)
    a = s * sgn
    b = t * sgn
    lo = np.where(flip, -solver.obs_hi[over], solver.obs_lo[over])
    hi = np.where(flip, -solver.obs_lo[over], solver.obs_hi[over])
    cuts = []
    for axis in range(3):
        vals = np.concatenate([[a[axis], b[axis]],
                               np.clip(lo[:, axis], a[axis], b[axis]),
                               np.clip(hi[:, axis], a[axis], b[axis])])
        cuts.append(np.unique(vals))
    valid, links = reference_grid_links(tuple(cuts), lo, hi)
    reach = np.zeros(valid.shape, dtype=bool)
    if not valid[0, 0, 0]:
        return False
    reach[0, 0, 0] = True
    while True:
        grew = reach.copy()
        grew[1:, :, :] |= reach[:-1, :, :] & links[0]
        grew[:, 1:, :] |= reach[:, :-1, :] & links[1]
        grew[:, :, 1:] |= reach[:, :, :-1] & links[2]
        if grew[-1, -1, -1]:
            return True
        if np.array_equal(grew, reach):
            return False
        reach = grew


# -- solver grids -------------------------------------------------------------

def test_track_graph_cuts_and_nodes_match_hand_enumeration():
    # the cuts of the grid for (-1, .5, .5) -> (2, .5, .5) around the unit cube
    cuts = (np.array([-1, 0, 1, 2.0]), np.array([0, 0.5, 1]), np.array([0, 0.5, 1]))
    valid, _ = reference_grid_links(cuts, np.zeros((1, 3)), np.ones((1, 3)))
    links = _grid_links(cuts, np.zeros((1, 3)), np.ones((1, 3)))
    # no cut is strictly inside the cube on any axis, so every node is valid
    assert valid.size == 36 and int(valid.sum()) == 36
    # links crossing the open interior are absent; hand-check the x-row at
    # y = 0.5, z = 0.5 (indices 1, 1): segments -1..0 and 1..2 exist, 0..1 not
    assert list(links[0][:, 1, 1]) == [True, False, True]
    # the same row on the bottom face z = 0 is free to cross
    assert list(links[0][:, 1, 0]) == [True, True, True]


def test_track_graph_node_cap(monkeypatch):
    # the pair's box meets the cube, so the query needs a 36-node Dijkstra grid
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    monkeypatch.setattr(geodesic, "NODE_CAP", 10)
    with pytest.raises(GridTooLargeError):
        GeodesicSolver(env).distance(*env.points)


# -- pairwise distances -------------------------------------------------------

def test_geodesic_distance_free_space():
    env = Environment([], [Point3(0, 0, 0), Point3(1, 2, 3)])
    assert GeodesicSolver(env).distance(*env.points) == 6.0


def test_geodesic_distance_detour_and_symmetry():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    p, q = env.points
    assert GeodesicSolver(env).distance(p, q) == pytest.approx(3.0, abs=1e-12)
    assert GeodesicSolver(env).distance(q, p) == pytest.approx(3.0, abs=1e-12)


def test_geodesic_distance_surface_travel():
    # opposite faces of the cube: the route runs along the surface, never inside
    env = Environment([UNIT_CUBE], [Point3(0, 0.5, 0.5), Point3(1, 0.5, 0.5)])
    assert GeodesicSolver(env).distance(*env.points) == pytest.approx(2.0, abs=1e-12)


def _random_env(rng, n, m, max_side=0.4):
    obstacles = []
    while len(obstacles) < m:
        side = rng.uniform(0.1, max_side, 3)
        lo = rng.uniform(0, 1 - side)
        box = AxisBox(Point3(*lo), Point3(*(lo + side)))
        if not validate_environment(Environment(obstacles + [box], [])):
            obstacles.append(box)
    points = []
    while len(points) < n:
        pt = Point3(*rng.uniform(-0.2, 1.2, 3))
        if not any(b.contains_interior(pt) for b in obstacles):
            points.append(pt)
    return Environment(obstacles, points)


def test_solver_matches_brute_reference():
    """Every fast path of the solver agrees with the plain-python reference."""
    rng = np.random.default_rng(5)
    for trial in range(12):
        env = _random_env(rng, n=6, m=int(rng.integers(1, 4)))
        solver = GeodesicSolver(env)
        for i in range(env.n):
            for j in range(i + 1, env.n):
                expected = brute_sigma(env, env.points[i], env.points[j])
                got = solver.distance(env.points[i], env.points[j])
                assert got == pytest.approx(expected, abs=1e-9), (trial, i, j)


def test_solver_blocked_box_still_exact():
    # a slab wider than the pair's box forces the second Dijkstra phase
    slab = AxisBox(Point3(0.4, -5, -5), Point3(0.6, 5, 5))
    env = Environment([slab], [Point3(0, 0, 0), Point3(1, 0, 0)])
    solver = GeodesicSolver(env)
    assert solver.distance(*env.points) == pytest.approx(11.0, abs=1e-9)
    assert brute_sigma(env, *env.points) == pytest.approx(11.0, abs=1e-9)


def test_distances_from_matches_pairwise():
    rng = np.random.default_rng(11)
    env = _random_env(rng, n=8, m=2)
    solver = GeodesicSolver(env)
    source = env.points[0]
    batch = solver.distances_from(source, list(env.points))
    for k, p in enumerate(env.points):
        assert batch[k] == pytest.approx(solver.distance(source, p), abs=1e-12)


def _certificate_instances():
    """Random boxes with points around them; seeded instances with a third
    of the points snapped onto obstacle faces; and points of a lattice whose
    planes cut the unit cube at its faces and inside, so that many pairs lie
    on faces, edges and corners or are blocked by the cube alone."""
    rng = np.random.default_rng(23)
    for _ in range(8):
        yield _random_env(rng, n=9, m=int(rng.integers(1, 5)))
    for seed in range(4):
        yield random_instance(GenConfig(seed=seed, n=16, m=8, placement="mixed"))
    lattice = [Point3(*c) for c in itertools.product((-0.5, 0, 0.25, 0.75, 1, 1.5), repeat=3)
               if not UNIT_CUBE.contains_interior(Point3(*c))]
    pick = np.sort(np.random.default_rng(0).choice(len(lattice), size=70, replace=False))
    yield Environment([UNIT_CUBE], [lattice[i] for i in pick])


@pytest.fixture(scope="module")
def staircase_vs_grid():
    """(staircase says clear, grid-only test says clear, overlapping count)
    for every pair whose box meets an obstacle."""
    out = []
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for i in range(env.n - 1):
            s, targets = pts[i], pts[i + 1:]
            clear = solver._staircase_clear(s, targets)
            for t, fast in zip(targets, clear):
                over = solver._overlapping(np.minimum(s, t), np.maximum(s, t))
                if len(over):
                    _, links, ends = solver._grid(s, t, over)
                    out.append((bool(fast), _monotone_clear(links, ends), len(over)))
    return out


def test_staircase_never_clears_a_pair_the_grid_blocks(staircase_vs_grid):
    assert not [r for r in staircase_vs_grid if r[0] and not r[1]]
    # both answers occur, so the comparison is not vacuous
    assert {fast for fast, _, _ in staircase_vs_grid} == {True, False}
    assert {grid for _, grid, _ in staircase_vs_grid} == {True, False}


def test_staircase_is_exact_when_one_obstacle_meets_the_box(staircase_vs_grid):
    """One-box lemma: a single box blocks every monotone path iff no
    three-leg staircase avoids it, so both tests agree both ways."""
    one = [(fast, grid) for fast, grid, k in staircase_vs_grid if k == 1]
    assert all(fast == grid for fast, grid in one)
    assert {grid for _, grid in one} == {True, False}


def test_single_obstacle_pairs_skip_the_monotone_grid(monkeypatch):
    """With one obstacle meeting the pair's box, a staircase "not clear" goes
    straight to Dijkstra, and the distances still match the reference."""
    def single_obstacle_pairs_only(links, ends):
        raise AssertionError("monotone test run for a single-obstacle pair")

    monkeypatch.setattr(geodesic, "_monotone_clear", single_obstacle_pairs_only)
    blocked = 0
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for i, j in itertools.combinations(range(env.n), 2):
            s, t = pts[i], pts[j]
            if len(solver._overlapping(np.minimum(s, t), np.maximum(s, t))) != 1:
                continue
            got = solver.distance(env.points[i], env.points[j])
            if not solver._staircase_clear(s, t[None, :])[0]:
                blocked += 1
                assert got == pytest.approx(brute_sigma(env, env.points[i], env.points[j]),
                                            abs=1e-9)
    assert blocked > 0


def test_grid_stage_pruning_keeps_a_tied_detour_at_every_scale(monkeypatch):
    """A pair on a line through box A, whose first grid distance d1 is 5:
    box O lies outside the pair's box with a through-detour of exactly 5,
    and box F far away, with 54.  At every scale 2**k the second grid is
    cut by A and O, never by F, and sigma is 5 * 2**k."""
    def env_at(k):
        def at(*c):
            return Point3(*(math.ldexp(x, k) for x in c))
        return Environment([AxisBox(at(1, 0, 0), at(3, 2, 1)), AxisBox(at(3.2, 0, 1), at(3.8, 1, 2)),
                            AxisBox(at(10, 10, 10), at(11, 11, 11))],
                           [at(0, 0.5, 0.5), at(4, 0.5, 0.5)])

    grid = GeodesicSolver._grid
    for k in (-300, -60, -40, 0, 40, 300):
        env = env_at(k)
        solver = GeodesicSolver(env)
        cut_sets = []
        monkeypatch.setattr(GeodesicSolver, "_grid", lambda self, s, t, cut_set: cut_sets.append(
            np.atleast_1d(cut_set).tolist()) or grid(self, s, t, cut_set))
        sigma = solver.distance(*env.points)
        s, t = env.point_coords
        assert solver._min_detours(s, t).tolist() == [math.ldexp(d, k) for d in (4, 5, 54)], k
        assert sigma == math.ldexp(5.0, k), k
        assert cut_sets == [[0], [0, 1]], k


def test_settle_runs_the_staircase_once_per_chunk(monkeypatch):
    """distances_from on targets that are all staircase-blocked runs the
    staircase broadcast once per chunk of 64 targets, and the grid stage never
    runs it again for a pair."""
    runs = []
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for s in pts:
            blocked = pts[solver.meets_obstacles(np.minimum(pts, s), np.maximum(pts, s))
                          & ~solver._staircase_clear(s, pts)]
            if len(blocked):
                runs.append((env, s, np.concatenate([blocked] * (130 // len(blocked) + 1))))
    assert runs
    staircase_clear = GeodesicSolver._staircase_clear
    calls = []

    def counting(self, s, pts):
        calls.append(len(pts))
        return staircase_clear(self, s, pts)

    monkeypatch.setattr(GeodesicSolver, "_staircase_clear", counting)
    for env, s, targets in runs:
        calls.clear()
        GeodesicSolver(env).distances_from(s, targets)
        assert calls == [min(64, len(targets) - k) for k in range(0, len(targets), 64)]


def _layouts(X: np.ndarray) -> list[np.ndarray]:
    """The (k, 3) rows X as C-contiguous rows and as a transposed view of
    (3, k) columns."""
    return [np.ascontiguousarray(X), np.ascontiguousarray(X.T).T]


def test_l1_is_the_row_sum_on_every_layout():
    """_l1 gives np.abs(S - T).sum(axis=1) to the bit on rows of signed
    zeros, subnormals, ordinary values and magnitudes up to 1e308 with
    finite differences and sums: C-contiguous, transposed and broadcast (stride 0),
    and on single rows the float of the 1-D sum."""
    pool = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 3e-320, 0.1, -1.0, 3.5, 1e308,
                     6e307, -1e308, -7e307, 2.0 ** 52, -(2.0 ** 52) + 0.5])
    rng = np.random.default_rng(0)
    S, T = pool[rng.integers(len(pool), size=(2, 4000, 3))]
    with np.errstate(over="ignore"):
        keep = np.isfinite(np.abs(S - T).sum(axis=1))
    S, T = S[keep], T[keep]
    assert len(S) > 1000

    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    expected = np.abs(S - T).sum(axis=1)
    for s in _layouts(S):
        for t in _layouts(T):
            assert bits(_l1(s, t)) == bits(expected)
            assert bits(_l1(t, s)) == bits(expected)
    for row in (0, 1, 17):
        with np.errstate(over="ignore"):
            near = T[np.isfinite(np.abs(S[row] - T).sum(axis=1))]
        wide = np.broadcast_to(S[row], near.shape)
        assert wide.strides[0] == 0
        assert bits(_l1(wide, near)) == bits(np.abs(S[row] - near).sum(axis=1))
    for s, t in zip(S[:200], T[:200]):
        assert bits(float(_l1(s, t))) == bits(float(np.abs(s - t).sum()))


def test_box_test_matches_a_per_box_loop_on_every_layout(monkeypatch):
    """meets_obstacles agrees with a loop over boxes and obstacles on boxes
    whose faces meet the obstacles' faces, on points (blo is bhi) and on
    boxes given as C-contiguous rows, transposed views and broadcast rows,
    in one chunk and in chunks of five boxes and of one."""
    env = random_instance(GenConfig(seed=5, n=4, m=8))
    solver = GeodesicSolver(env)
    obstacles = list(zip(solver.obs_lo.tolist(), solver.obs_hi.tolist()))
    rng = np.random.default_rng(1)
    values = np.concatenate([solver.obs_lo, solver.obs_hi, rng.uniform(0, 1, (8, 3))])
    A, B = (values[rng.integers(len(values), size=(300, 3)), np.arange(3)] for _ in range(2))
    blo, bhi = np.minimum(A, B), np.maximum(A, B)

    def loop(lo_rows, hi_rows):
        return [any(all(olo[a] < hi[a] and ohi[a] > lo[a] for a in range(3))
                    for olo, ohi in obstacles)
                for lo, hi in zip(lo_rows.tolist(), hi_rows.tolist())]

    cases = [(lo, hi) for lo in _layouts(blo) for hi in _layouts(bhi)]
    cases += [(X, X) for X in _layouts(A)]
    cases += [(np.broadcast_to(blo[3], bhi.shape), bhi), (blo, np.broadcast_to(bhi[4], blo.shape))]
    expected = [loop(lo, hi) for lo, hi in cases]
    assert any(map(any, expected)) and not all(map(all, expected))
    for chunk in (geodesic._BOX_TEST_CHUNK, 15 * len(obstacles), 1):
        monkeypatch.setattr(geodesic, "_BOX_TEST_CHUNK", chunk)
        for (lo, hi), want in zip(cases, expected):
            got = solver.meets_obstacles(lo, hi)
            assert got.dtype == bool and got.tolist() == want


def reference_state(obstacles, s, t):
    """How a pair is settled, decided by hand: 0 when no obstacle's open
    interior meets the pair's closed box, 1 when one of the six three-leg
    staircases misses every open interior, leg by leg, 2 otherwise."""
    def meets(box, lo, hi):
        return all(box.lo.coord(a) < hi[a] and box.hi.coord(a) > lo[a] for a in range(3))

    def blocked(a, b):
        lo, hi = [min(u, v) for u, v in zip(a, b)], [max(u, v) for u, v in zip(a, b)]
        return any(meets(box, lo, hi) for box in obstacles)

    if not blocked(s, t):
        return 0
    for order in itertools.permutations(range(3)):
        corners = [list(s)]
        for axis in order:
            corners.append(corners[-1][:axis] + [t[axis]] + corners[-1][axis + 1:])
        if not any(blocked(a, b) for a, b in zip(corners, corners[1:])):
            return 1
    return 2


@st.composite
def _tied_instances(draw):
    """Disjoint boxes on the integer lattice and points whose coordinates
    are integers or half-integers: many ties, and many points on obstacle
    faces, edges and corners."""
    obstacles = []
    for _ in range(draw(st.integers(1, 4))):
        lo = draw(st.tuples(*[st.integers(0, 4)] * 3))
        side = draw(st.tuples(*[st.integers(1, 2)] * 3))
        box = AxisBox(Point3(*lo), Point3(*(a + b for a, b in zip(lo, side))))
        if not validate_environment(Environment(obstacles + [box], [])):
            obstacles.append(box)
    coords = st.tuples(*[st.integers(0, 12).map(lambda v: v / 2)] * 3)
    points = [p for p in draw(st.lists(coords, min_size=2, max_size=12, unique=True))
              if not any(box.contains_interior(Point3(*p)) for box in obstacles)]
    return obstacles, points, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(_tied_instances())
def test_classify_matches_per_pair_decisions_and_is_symmetric(instance):
    """classify on a batch of ordered pairs, shuffled and repeated so that
    its box-meeting pairs span several staircase chunks, also with small
    box-test chunks, marks as grid stage exactly the pairs that a box test
    and then _staircase_clear leave open asked alone, whose state (box-free,
    staircase-clear or grid stage) is the one decided by hand leg by leg; it
    is symmetric in (S, T), and one source row gives that source's row of
    the mask."""
    obstacles, points, seed = instance
    env = Environment(obstacles, [Point3(*p) for p in points])
    solver = GeodesicSolver(env)
    pts = points_array(env.points)
    n = len(pts)
    expected = []
    for s, t in itertools.product(pts, repeat=2):
        lo, hi = np.minimum(s, t)[None], np.maximum(s, t)[None]
        state = (0 if not solver.meets_obstacles(lo, hi)[0]
                 else 1 if solver._staircase_clear(s, t[None])[0] else 2)
        assert state == reference_state(obstacles, s.tolist(), t.tolist())
        expected.append(state)
    expected = np.array(expected).reshape(n, n)
    grid = expected == 2
    for k in range(n):
        assert solver.classify(pts[k], pts).tolist() == grid[k].tolist()
    meeting = int((expected > 0).sum())
    rows = np.tile(np.arange(n * n), 2 * geodesic._STAIRCASE_CHUNK // max(meeting, 1) + 1)
    rows = np.random.default_rng(seed).permutation(rows)
    i, j = np.divmod(rows, n)
    mask = solver.classify(pts[i], pts[j])
    assert mask.dtype == bool
    assert np.array_equal(mask, grid[i, j])
    assert np.array_equal(solver.classify(pts[j], pts[i]), mask)
    # five pairs per box-test chunk
    with mock.patch.object(geodesic, "_BOX_TEST_CHUNK", 15 * len(obstacles)):
        assert np.array_equal(solver.classify(pts[i], pts[j]), mask)


def test_grid_graph_matches_reference(monkeypatch):
    """The strided _grid_graph gives the CSR arrays of the reference graph
    plus its transpose on the grids of the certificate instances, on an
    oracle lattice and on grids with no links or a one-node axis."""
    grids = []
    kinds = set()
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        pts = points_array(env.points)
        for s, t in itertools.combinations(pts, 2):
            over = solver._overlapping(np.minimum(s, t), np.maximum(s, t))
            if len(over):
                cuts, links, _ = solver._grid(s, t, over)
                grids.append((cuts, links))
                kinds.add(len(over) > 1)
    assert kinds == {True, False}
    lattice = len(grids)
    grid_graph = geodesic._grid_graph
    monkeypatch.setattr(geodesic, "_grid_graph",
                        lambda cuts, links: grids.append((cuts, links)) or grid_graph(cuts, links))
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.25, 0.5)])
    oracle_fine_grid_distance(env, *env.points, resolution=1 / 8)
    assert len(grids) == lattice + 1
    cuts = (np.array([0.0, 1.0]), np.array([0.0, 0.5, 2.0]), np.array([3.0]))
    grids.append((cuts, [np.zeros((1, 3, 1), bool), np.zeros((2, 2, 1), bool),
                         np.zeros((2, 3, 0), bool)]))
    grids.append((cuts, [np.ones((1, 3, 1), bool), np.ones((2, 2, 1), bool),
                         np.ones((2, 3, 0), bool)]))
    for cuts, links in grids:
        reference = reference_grid_csr(cuts, links)
        got, expected = grid_graph(cuts, links), reference + reference.T
        assert got.shape == expected.shape
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(expected, attr)), attr


def test_grid_distance_matches_the_undirected_reference(monkeypatch):
    """The symmetric graph of _grid_distance is the reference graph plus its
    transpose, and its directed Dijkstra gives, to the bit, an undirected
    Dijkstra on the reference graph, from s to every node: on every
    Dijkstra grid of the certificate instances and on an oracle lattice."""
    grids = []
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        for s, t in itertools.combinations(points_array(env.points), 2):
            over = solver._overlapping(np.minimum(s, t), np.maximum(s, t))
            if len(over):
                grids.append(solver._grid(s, t, over))
    lattices = []
    grid_graph = geodesic._grid_graph
    monkeypatch.setattr(geodesic, "_grid_graph", lambda cuts, links:
                        lattices.append((cuts, links)) or grid_graph(cuts, links))
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.25, 0.5)])
    oracle_fine_grid_distance(env, *env.points, resolution=1 / 8)
    (cuts, links), = lattices
    grids.append((cuts, links, np.array([np.searchsorted(c, (p, q)) for c, p, q
                                         in zip(cuts, *(pt.as_tuple() for pt in env.points))])))
    for cuts, links, ends in grids:
        reference = reference_grid_csr(cuts, links)
        both = grid_graph(cuts, links)
        assert (both != reference + reference.T).nnz == 0
        source, target = np.ravel_multi_index(ends, tuple(len(c) for c in cuts))
        expected = dijkstra(reference, directed=False, indices=source)
        assert np.array_equal(dijkstra(both, directed=True, indices=source), expected)
        assert _grid_distance(cuts, links, ends) == expected[target]
    assert len(grids) > 1000


def test_grid_links_and_monotone_match_reference():
    """The mask-product _grid_links gives the reference's links on every grid
    a blocked pair's grid stage builds, on the certificate instances and a
    maze, also with no obstacle and with cuts on faces; and the
    mask-sweep _monotone_clear on that grid answers as the reference's
    sweep on its own clipped grid, in both orientations."""
    def check_links(cuts, lo, hi):
        links = _grid_links(cuts, lo, hi)
        _, expected = reference_grid_links(cuts, lo, hi)
        assert len(links) == 3
        assert all(np.array_equal(a, b) for a, b in zip(links, expected))

    maze = random_instance(GenConfig(seed=0, n=24, m=40, placement="mixed",
                                     min_side=0.05, max_side=0.3, gap=0.01))
    answers = set()
    for env in [*_certificate_instances(), maze]:
        solver = GeodesicSolver(env)
        for s, t in itertools.permutations(points_array(env.points), 2):
            over = solver._overlapping(np.minimum(s, t), np.maximum(s, t))
            if not len(over):
                continue
            cuts, links, ends = solver._grid(s, t, over)
            check_links(cuts, solver.obs_lo, solver.obs_hi)
            clear = _monotone_clear(links, ends)
            assert clear == reference_monotone_clear(solver, s, t, over)
            answers.add(clear)
    assert answers == {True, False}
    faces = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
    for cuts, lo, hi in [((faces, faces[:3], faces[2:]), np.empty((0, 3)), np.empty((0, 3))),
                         ((faces, faces, faces), np.zeros((1, 3)), np.ones((1, 3))),
                         ((faces, faces[1:2], faces), np.array([[0, -1, 0], [1, 0.5, 1.5]]),
                          np.array([[0.5, 1, 1], [2, 2, 2]]))]:
        check_links(cuts, lo, hi)


def plain_monotone_clear(links, ends):
    """Forward search from s over the links, one step at a time toward t on
    each axis: the reference for _monotone_clear on synthetic link masks."""
    s, t = tuple(int(i) for i in ends[:, 0]), tuple(int(i) for i in ends[:, 1])
    seen, todo = {s}, [s]
    while todo:
        u = todo.pop()
        for axis in range(3):
            if u[axis] == t[axis]:
                continue
            v = u[:axis] + (u[axis] + (1 if t[axis] > u[axis] else -1),) + u[axis + 1:]
            # u and v differ on this axis only: the lesser is the link's lower node
            if links[axis][min(u, v)] and v not in seen:
                seen.add(v)
                todo.append(v)
    return t in seen


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_monotone_sweep_matches_plain_search_on_random_masks(data):
    """On random link masks of grids up to 6 x 6 x 6, one-node axes
    included, _monotone_clear answers as a plain forward search for any two
    distinct nodes s and t, in both orientations."""
    shape = data.draw(st.tuples(*[st.integers(1, 6)] * 3))
    density = data.draw(st.floats(0, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    links = [rng.random(tuple(n - (a == axis) for a, n in enumerate(shape))) < density
             for axis in range(3)]
    s = data.draw(st.tuples(*[st.integers(0, n - 1) for n in shape]))
    t = data.draw(st.tuples(*[st.integers(0, n - 1) for n in shape]))
    assume(s != t)
    ends = np.array([s, t]).T
    for e in (ends, ends[:, ::-1]):
        assert _monotone_clear(links, e) == plain_monotone_clear(links, e)


def test_monotone_sweep_follows_a_snake_against_the_sweep_order():
    """A mask whose only monotone path steps z, y, x, z, y, x, ..., the axis
    order opposite to the sweep's, so that each round of sweeps gains one
    step: it is clear, and its twin with one link cut is blocked, in both
    orientations."""
    n = 6
    links = [np.zeros(tuple(n - (a == axis) for a in range(3)), dtype=bool)
             for axis in range(3)]
    node = [0, 0, 0]
    for step in range(3 * (n - 1)):
        axis = 2 - step % 3
        links[axis][tuple(node)] = True
        node[axis] += 1
    ends = np.array([[0, n - 1]] * 3)
    for e in (ends, ends[:, ::-1]):
        assert _monotone_clear(links, e) and plain_monotone_clear(links, e)
    links[1][2, 2, 3] = False
    for e in (ends, ends[:, ::-1]):
        assert not _monotone_clear(links, e) and not plain_monotone_clear(links, e)


def test_distances_from_is_bitwise_pairwise():
    for env in _certificate_instances():
        solver = GeodesicSolver(env)
        for source in env.points[:3]:
            fresh = GeodesicSolver(env)
            expected = [fresh.distance(source, p) for p in env.points]
            assert np.array_equal(solver.distances_from(source, env.points), expected)


_PER_ROW_ENVS = [random_instance(GenConfig(seed=5, n=24, m=8, placement="mixed", max_side=0.3)),
                 list(_certificate_instances())[-1]]


def _recorded(env, ask):
    """ask(solver) on a fresh solver, the _sigma calls it made and the cache
    it left, in insertion order."""
    solver, calls = GeodesicSolver(env), []
    sigma = solver._sigma
    solver._sigma = lambda s, t: calls.append((s.tolist(), t.tolist())) or sigma(s, t)
    return ask(solver).tobytes(), calls, list(solver._cache.items())


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_distances_from_per_row_sources_match_one_call_per_row(data):
    """One distances_from call with a source row per target, with or without
    the grid mask, gives what one call per row in order gives: the same values to
    the bit, the same _sigma calls and the same cache in insertion order.
    The rows always hold grid-stage pairs, and repeat pairs in both
    orientations."""
    env = data.draw(st.sampled_from(_PER_ROW_ENVS))
    pts = points_array(env.points)
    i, j = np.divmod(np.arange(env.n ** 2), env.n)
    grid = np.flatnonzero(GeodesicSolver(env).classify(pts[i], pts[j]))
    index = st.integers(0, env.n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), max_size=30))
    pairs += [divmod(k, env.n) for k in data.draw(st.lists(st.sampled_from(grid.tolist()),
                                                           min_size=1, max_size=8))]
    again = data.draw(st.lists(st.sampled_from(pairs), max_size=20))
    pairs += [(b, a) for a, b in again] + again
    rows = np.array(data.draw(st.permutations(pairs)))
    S, T = pts[rows[:, 0]], pts[rows[:, 1]]
    expected = _recorded(env, lambda solver: np.array(
        [solver.distances_from(s, t[None])[0] for s, t in zip(S, T)]))
    assert expected[1]
    assert _recorded(env, lambda solver: solver.distances_from(S, T)) == expected
    assert _recorded(env, lambda solver: solver.distances_from(
        S, T, grid=solver.classify(S, T))) == expected


def test_distances_from_rejects_rows_that_miss_a_target():
    env = _PER_ROW_ENVS[0]
    solver = GeodesicSolver(env)
    pts = points_array(env.points)
    with pytest.raises(ValueError):
        solver.distances_from(pts[:2], pts[:3])
    with pytest.raises(ValueError):
        solver.distances_from(pts[0], pts[:3], grid=np.zeros(2, dtype=bool))
    with pytest.raises(ValueError):
        solver.distances_from(pts[:3], pts[:3], grid=np.zeros(4, dtype=bool))


def test_pair_distances_rejects_row_counts_that_differ():
    """pair_distances pairs S[k] with T[k]: rows that differ in number are
    an error, in either order, raised before any pair is answered."""
    env = _PER_ROW_ENVS[0]
    solver = GeodesicSolver(env)
    pts = points_array(env.points)
    for S, T in ((pts[:1], pts[:3]), (pts[:3], pts[:1]), (pts[:2], pts[:3])):
        with pytest.raises(ValueError, match=f"{len(S)} source rows for {len(T)} targets"):
            solver.pair_distances(S, T)
    assert solver._cache == {}


def _pair_batch(env, count, seed):
    """count random point pairs of env (some with equal endpoints), the
    first 40 again reversed and repeated, and via pairs (p, o), (o, q),
    (p, q) with o drawn in the box of p and q."""
    rng = np.random.default_rng(seed)
    pts = points_array(env.points)
    S, T = pts[rng.integers(env.n, size=count)], pts[rng.integers(env.n, size=count)]
    via = [(p, o, o, q, p, q) for p, q, o in via_triples(env, 40, rng)]
    via = np.array([[pt.as_tuple() for pt in row] for row in via]).reshape(-1, 2, 3)
    return (np.concatenate([S, T[:40], S[:40], via[:, 0]]),
            np.concatenate([T, S[:40], T[:40], via[:, 1]]))


@pytest.mark.parametrize("env", [
    random_instance(GenConfig(seed=3, n=30, m=0)),
    random_instance(GenConfig(seed=11, n=64, m=8)),
    random_instance(GenConfig(seed=5, n=24, m=8, placement="mixed", max_side=0.3)),
    list(_certificate_instances())[-1],
], ids=["open", "scatter", "mixed", "lattice"])
def test_pair_distances_match_sequential_distance(env):
    """Values to the bit and the cache, entry for entry and in order, match
    distance() asked pair by pair, also on a solver that has already answered
    some pairs in the other orientation; a batch of 600 pairs spans several
    staircase chunks."""
    S, T = _pair_batch(env, 600, seed=env.n)
    warm = [(Point3(*t), Point3(*s)) for s, t in zip(S[:600:7].tolist(), T[:600:7].tolist())]
    solver, fresh = GeodesicSolver(env), GeodesicSolver(env)
    for p, q in warm:
        assert solver.distance(p, q) == fresh.distance(p, q)
    got = solver.pair_distances(S, T)
    expected = [fresh.distance(Point3(*s), Point3(*t)) for s, t in zip(S.tolist(), T.tolist())]
    assert np.array_equal(got, expected)
    assert solver._cache == fresh._cache
    assert list(solver._cache) == list(fresh._cache)
    assert (S == T).all(axis=1).any()
    empty = GeodesicSolver(env)
    assert empty.pair_distances(np.empty((0, 3)), np.empty((0, 3))).shape == (0,)
    assert empty._cache == {}


def test_pair_distances_keep_the_first_orientation():
    """On an instance where sigma(p, q) and sigma(q, p) differ in the last
    bits, a batch that asks both orientations returns the first one's value
    for both, as distance() does."""
    env = random_instance(GenConfig(seed=5, n=24, m=8, placement="mixed", max_side=0.3))
    split = []
    for p, q in itertools.combinations(env.points, 2):
        forward, backward = GeodesicSolver(env).distance(p, q), GeodesicSolver(env).distance(q, p)
        if forward != backward:
            split.append((p.as_tuple(), q.as_tuple(), forward, backward))
    assert split
    for p, q, forward, backward in split:
        got = GeodesicSolver(env).pair_distances(np.array([q, p, q]), np.array([p, q, p]))
        assert got.tolist() == [backward, backward, backward]


def test_lower_bound_and_triangle_inequality():
    rng = np.random.default_rng(3)
    env = _random_env(rng, n=7, m=3)
    solver = GeodesicSolver(env)
    pts = env.points
    for i, j in itertools.combinations(range(env.n), 2):
        assert solver.distance(pts[i], pts[j]) >= l1_distance(pts[i], pts[j]) - 1e-12
    for i, j, k in itertools.permutations(range(4), 3):
        assert (solver.distance(pts[i], pts[j])
                <= solver.distance(pts[i], pts[k]) + solver.distance(pts[k], pts[j]) + 1e-9)


# -- lattice oracle -----------------------------------------------------------

def test_oracle_free_space_exact():
    env = Environment([], [Point3(0, 0, 0), Point3(0.7, 0.3, 0.9)])
    assert oracle_fine_grid_distance(env, *env.points, resolution=1 / 8) == pytest.approx(
        1.9, abs=1e-12)


def test_oracle_identity():
    env = Environment([], [Point3(0.2, 0.2, 0.2)])
    p = env.points[0]
    assert oracle_fine_grid_distance(env, p, p, resolution=1 / 4) == 0.0


def test_oracle_monotone_and_brackets_engine():
    env = Environment([UNIT_CUBE], [Point3(-0.5, 0.5, 0.5), Point3(1.5, 0.5, 0.5)])
    p, q = env.points
    engine = GeodesicSolver(env).distance(p, q)
    values = [oracle_fine_grid_distance(env, p, q, r) for r in (1 / 8, 1 / 16, 1 / 32)]
    assert values[0] >= values[1] >= values[2] >= engine - 1e-9
    assert abs(engine - values[2]) <= 6 / 32
    assert values[2] == pytest.approx(3.0, abs=1e-12)


def test_oracle_monotone_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(3):
        env = _random_env(rng, n=4, m=2, max_side=0.3)
        solver = GeodesicSolver(env)
        for i, j in itertools.combinations(range(env.n), 2):
            p, q = env.points[i], env.points[j]
            vals = [oracle_fine_grid_distance(env, p, q, r) for r in (1 / 8, 1 / 16, 1 / 32)]
            assert vals[0] >= vals[1] - 1e-12
            assert vals[1] >= vals[2] - 1e-12
            assert vals[2] >= solver.distance(p, q) - 1e-9


def test_oracle_rejects_bad_resolution_and_cap(monkeypatch):
    env = Environment([], [Point3(0, 0, 0), Point3(1, 1, 1)])
    for resolution in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="resolution"):
            oracle_fine_grid_distance(env, *env.points, resolution=resolution)
    monkeypatch.setattr(geodesic, "NODE_CAP", 10)
    with pytest.raises(GridTooLargeError):
        oracle_fine_grid_distance(env, *env.points, resolution=1 / 64)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_solver_free_space_is_l1(seed):
    rng = np.random.default_rng(seed)
    env = Environment([], [Point3(*rng.uniform(-5, 5, 3)) for _ in range(3)])
    solver = GeodesicSolver(env)
    for i, j in itertools.combinations(range(3), 2):
        p, q = env.points[i], env.points[j]
        assert solver.distance(p, q) == l1_distance(p, q)
