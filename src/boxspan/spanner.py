"""Spanner construction: cone decompositions, apex exit points, center selection.

For each cone and each decomposition pair, the apex is projected out of any
obstacle containing it (six axis exits); for each distinct exit point the
member with the smallest geodesic distance to it becomes a center, and the
center is connected to every other member with geodesic edge weights.  Edges
are deduplicated over all cones; the first emission of each edge sets its
weight and its place in the edge order.  Pairs whose member box no obstacle
meets are settled on numpy arrays, all of a cone at once; only the others
query the geodesic solver, with their queries classified in bulk ahead of
the loop that resolves them in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cspd import CONES, Cspd, CspdPair, build_cspd
from .geodesic import GeodesicSolver
from .geometry import Environment, Point3, points_array, project_out

# Point pairs per block of the builder's lazy all-pairs classification.
_CLASSIFY_BLOCK = 1 << 11


@dataclass
class SpannerGraph:
    """Weighted graph on point indices; edge weight = L1 geodesic distance."""

    n: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.edges[(i, j)]) for (i, j) in sorted(self.edges)]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_edge(self, i: int, j: int, weight: float) -> None:
        if i == j:
            raise ValueError("self-loops are not allowed")
        key = (i, j) if i < j else (j, i)
        if key not in self.edges:
            self.edges[key] = weight


def candidate_points(pair: CspdPair, env: Environment) -> tuple[Point3, ...]:
    """The six axis exit points of the pair's apex (all equal the apex when
    it is not interior to any obstacle)."""
    return project_out(pair.apex, env)


def select_center(pair: CspdPair, env: Environment, candidate: Point3,
                  solver: GeodesicSolver | None = None,
                  states: np.ndarray | None = None) -> int:
    """Member of A u B geodesically nearest to the candidate point.

    Ties break to the smallest point index.  states, when given, is the
    solver's classification of (candidate, member) for the members in index
    order, computed earlier (see :meth:`GeodesicSolver.classify`).
    """
    if solver is None:
        solver = GeodesicSolver(env)
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, [env.points[i] for i in members], states=states)
    return members[int(dists.argmin())]


def build_spanner(env: Environment, solver: GeodesicSolver | None = None) -> SpannerGraph:
    """Build the full spanner over all four cones.

    Edge budget: at most 6 * (|A| + |B|) edges are emitted per pair before
    deduplication, so the edge count is at most six times the total pair
    size over the four cones.

    Box-free pairs, whose closed member box meets no obstacle interior, are
    settled on arrays (see :func:`_box_free_emissions`); every other pair goes
    through :func:`candidate_points`, :func:`select_center` and the solver,
    in pair order (see :func:`_obstructed_emissions`).  The emissions of a cone are sorted by (pair, exit,
    member), the order a loop over the pairs would make them in; over the
    cones in order, the first emission of each edge is kept.

    The geodesic queries of the other pairs are classified in bulk and
    resolved in order.  Per cone, one :meth:`GeodesicSolver.classify` call
    covers the selection query of every (pair, exit, member); the (center,
    member) pairs the edge weights need are classified lazily, a block of
    point rows against all points at a time.  The loop over (pair, exit)
    then passes these states to the solver, which only resolves: it reads
    and writes the cache and runs the grid stage, in the old order and
    orientation.  This is exact because the classification is a pure
    function of the coordinates and the obstacles, symmetric in the pair,
    and touches no cache; so the edges, the grid-stage calls and the
    solver's cache, entry for entry and in insertion order, are those of
    classifying query by query.
    """
    n = env.n
    if n < 1:
        raise ValueError("need at least one point")
    graph = SpannerGraph(n=n)
    graph.stats = {
        "pair_counts": {},
        "size_sums": {},
        "apex_interior": 0,
        "apex_free": 0,
        "emissions": 0,
    }
    if n < 2:
        return graph
    if solver is None:
        solver = GeodesicSolver(env)
    P = points_array(env.points)
    weight_states = _lazy_row_states(solver, P)
    keys, edge_weights = [], []
    for cone in CONES:
        decomposition = build_cspd(env.points, cone)
        code = cone.code()
        graph.stats["pair_counts"][code] = len(decomposition)
        graph.stats["size_sums"][code] = decomposition.size_sum
        if not len(decomposition):
            continue
        starts = decomposition.offsets[:-1]
        box = P[decomposition.members]
        free = ~solver.meets_obstacles(np.minimum.reduceat(box, starts),
                                       np.maximum.reduceat(box, starts))
        graph.stats["apex_free"] += int(free.sum())
        rows = [_box_free_emissions(P, decomposition, free),
                _obstructed_emissions(env, P, decomposition, np.nonzero(~free)[0], solver,
                                      weight_states, graph.stats)]
        pair_ids, cand_ids, centers, targets, weights = map(np.concatenate, zip(*rows))
        order = np.lexsort((targets, cand_ids, pair_ids))
        graph.stats["emissions"] += len(order)
        keys.append((np.minimum(centers, targets) * n + np.maximum(centers, targets))[order])
        edge_weights.append(weights[order])
    key, weight = np.concatenate(keys), np.concatenate(edge_weights)
    first = np.sort(np.unique(key, return_index=True)[1])
    i, j = np.divmod(key[first], n)
    graph.edges = dict(zip(zip(i.tolist(), j.tolist()), weight[first].tolist()))
    return graph


def _obstructed_emissions(env: Environment, P: np.ndarray, decomposition: Cspd,
                          pair_ids: np.ndarray, solver: GeodesicSolver, weight_states,
                          stats: dict):
    """(pair, exit, center, member, weight) rows of the given pairs, in
    (pair, exit) order, and their apex counts added to stats.

    Each pair goes through :func:`candidate_points` and, per distinct exit,
    :func:`select_center` and one :meth:`GeodesicSolver.distances_from` call
    for the center's edge weights.  Both queries get precomputed states: one
    :meth:`GeodesicSolver.classify` call covers the selection queries of all
    (exit, member) of the pairs, and weight_states gives the center's row.
    """
    queries = []  # (pair id, pair, members, exit id, exit) per distinct exit
    for pair_id in pair_ids.tolist():
        pair = decomposition.pair(pair_id)
        candidates = candidate_points(pair, env)
        stats["apex_free" if candidates[0] == pair.apex else "apex_interior"] += 1
        seen: set[tuple[float, float, float]] = set()
        for cand_id, cand in enumerate(candidates):
            if cand.as_tuple() not in seen:
                seen.add(cand.as_tuple())
                queries.append((pair_id, pair, sorted(pair.a + pair.b), cand_id, cand))
    if not queries:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty, empty, np.zeros(0)
    sizes = [len(q[2]) for q in queries]
    exits = np.repeat(points_array([q[4] for q in queries]), sizes, axis=0)
    select_states = np.split(solver.classify(exits, P[np.concatenate([q[2] for q in queries])]),
                             np.cumsum(sizes)[:-1])
    centers, others, weights = [], [], []
    for (_, pair, members, _, cand), states in zip(queries, select_states):
        center = select_center(pair, env, cand, solver, states)
        rest = np.array([q for q in members if q != center])
        weights.append(solver.distances_from(P[center], P[rest],
                                             states=weight_states(center)[rest]))
        centers.append(center)
        others.append(rest)
    counts = [len(rest) for rest in others]
    return (np.repeat([q[0] for q in queries], counts), np.repeat([q[3] for q in queries], counts),
            np.repeat(centers, counts), np.concatenate(others), np.concatenate(weights))


def _lazy_row_states(solver: GeodesicSolver, P: np.ndarray):
    """A function from a point index i to ``solver.classify(P[i], P)``.

    Rows are classified on first use, a block of rows against all points at
    a time, so a build holds only the blocks its centers need, and a call
    classifies at most _CLASSIFY_BLOCK pairs, or one row when a row is
    longer.
    """
    n = len(P)
    step = max(1, _CLASSIFY_BLOCK // n)
    blocks: dict[int, np.ndarray] = {}

    def row(i: int) -> np.ndarray:
        block, offset = divmod(i, step)
        if block not in blocks:
            lo, hi = block * step, min(n, block * step + step)
            blocks[block] = solver.classify(np.repeat(P[lo:hi], n, axis=0),
                                            np.tile(P, (hi - lo, 1))).reshape(hi - lo, n)
        return blocks[block][offset]

    return row


def _box_free_emissions(P: np.ndarray, decomposition: Cspd, free: np.ndarray):
    """(pair, exit, center, member, weight) rows of the pairs marked free.

    The apex of a pair lies in its closed member box (between its sides), so
    when no obstacle interior meets that box the apex is interior to none and
    its six exits all equal it: exit 0 alone emits.  Every target box of the
    center query and of the edge queries lies in the member box as well, so
    each distance is plain L1, and the float expression here is the one
    :meth:`GeodesicSolver.distances_from` evaluates for such targets, which
    it neither caches nor sends to :meth:`GeodesicSolver.distance`.  The
    center is the first L1-nearest member in index order, as
    :func:`select_center` picks it.
    """
    pair_of = np.repeat(np.arange(len(decomposition)),
                        decomposition.len_a + decomposition.len_b)
    take = free[pair_of]
    pair_ids, members = pair_of[take], decomposition.members[take]
    to_apex = np.abs(P[members] - decomposition.apex[pair_ids]).sum(axis=1)
    nearest = np.lexsort((members, to_apex, pair_ids))
    head = nearest[np.diff(pair_ids[nearest], prepend=-1) != 0]
    center = np.empty(len(decomposition), dtype=members.dtype)
    center[pair_ids[head]] = members[head]
    centers = center[pair_ids]
    other = members != centers
    pair_ids, centers, members = pair_ids[other], centers[other], members[other]
    weights = np.abs(P[members] - P[centers]).sum(axis=1)
    return pair_ids, np.zeros_like(pair_ids), centers, members, weights
