"""Spanner construction: cone decompositions, apex exit points, center selection.

For each cone and each decomposition pair, the apex is projected out of any
obstacle containing it (six axis exits); for each distinct exit point the
member with the smallest geodesic distance to it becomes a center, and the
center is connected to every other member with geodesic edge weights.  Edges
are deduplicated over all cones; the first emission of each edge sets its
weight and its place in the edge order.  Pairs whose member box no obstacle
meets are settled on numpy arrays, all of a cone at once; only the others
query the geodesic solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cspd import CONES, Cspd, CspdPair, build_cspd
from .geodesic import GeodesicSolver
from .geometry import Environment, Point3, points_array, project_out


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
                  solver: GeodesicSolver | None = None) -> int:
    """Member of A u B geodesically nearest to the candidate point.

    Ties break to the smallest point index.
    """
    if solver is None:
        solver = GeodesicSolver(env)
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, [env.points[i] for i in members])
    return members[int(dists.argmin())]


def build_spanner(env: Environment, solver: GeodesicSolver | None = None) -> SpannerGraph:
    """Build the full spanner over all four cones.

    Edge budget: at most 6 * (|A| + |B|) edges are emitted per pair before
    deduplication, so the edge count is at most six times the total pair
    size over the four cones.

    Box-free pairs, whose closed member box meets no obstacle interior, are
    settled on arrays (see :func:`_box_free_emissions`); every other pair goes
    through :func:`candidate_points`, :func:`select_center` and the solver,
    in pair order.  The emissions of a cone are sorted by (pair, exit,
    member), the order a loop over the pairs would make them in; over the
    cones in order, the first emission of each edge is kept.
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
        rows = [_box_free_emissions(P, decomposition, free)]
        for pair_id in np.nonzero(~free)[0].tolist():
            pair = decomposition.pair(pair_id)
            members = sorted(pair.a + pair.b)
            candidates = candidate_points(pair, env)
            if candidates[0] == pair.apex:
                graph.stats["apex_free"] += 1
            else:
                graph.stats["apex_interior"] += 1
            seen: set[tuple[float, float, float]] = set()
            for cand_id, cand in enumerate(candidates):
                if cand.as_tuple() in seen:
                    continue
                seen.add(cand.as_tuple())
                center = select_center(pair, env, cand, solver)
                others = [q for q in members if q != center]
                weights = solver.distances_from(env.points[center],
                                                [env.points[q] for q in others])
                rows.append((np.full(len(others), pair_id), np.full(len(others), cand_id),
                             np.full(len(others), center), np.array(others), weights))
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
