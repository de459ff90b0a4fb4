"""Spanner construction: cone decompositions, apex exit points, center selection.

For each cone and each decomposition pair, the apex is projected out of any
obstacle containing it (six axis exits); for each distinct exit point the
member with the smallest geodesic distance to it becomes a center, and the
center is connected to every other member with geodesic edge weights.  Edges
are deduplicated; the first emission keeps its provenance tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cspd import CONES, CspdPair, build_cspd
from .geodesic import GeodesicSolver, _solver_for
from .geometry import Environment, Point3, project_out


@dataclass
class SpannerGraph:
    """Weighted graph on point indices; edge weight = L1 geodesic distance."""

    n: int
    edges: dict[tuple[int, int], float] = field(default_factory=dict)
    provenance: dict[tuple[int, int], tuple[str, int, int]] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def edge_list(self) -> list[tuple[int, int, float]]:
        return [(i, j, self.edges[(i, j)]) for (i, j) in sorted(self.edges)]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def add_edge(self, i: int, j: int, weight: float,
                 tag: tuple[str, int, int] | None = None) -> None:
        if i == j:
            raise ValueError("self-loops are not allowed")
        key = (i, j) if i < j else (j, i)
        if key not in self.edges:
            self.edges[key] = weight
            if tag is not None:
                self.provenance[key] = tag


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
        solver = _solver_for(env)
    members = sorted(set(pair.a) | set(pair.b))
    dists = solver.distances_from(candidate, [env.points[i] for i in members])
    return members[int(dists.argmin())]


def build_spanner(env: Environment, solver: GeodesicSolver | None = None) -> SpannerGraph:
    """Build the full spanner over all four cones.

    Edge budget: at most 6 * (|A| + |B|) edges are emitted per pair before
    deduplication, so the edge count is at most six times the total pair
    size over the four cones.
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
        solver = _solver_for(env)
    for cone in CONES:
        decomposition = build_cspd(env.points, cone)
        graph.stats["pair_counts"][cone.code()] = len(decomposition.pairs)
        graph.stats["size_sums"][cone.code()] = decomposition.size_sum
        for pair_id, pair in enumerate(decomposition.pairs):
            members = sorted(set(pair.a) | set(pair.b))
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
                graph.stats["emissions"] += len(others)
                for q, weight in zip(others, weights.tolist()):
                    graph.add_edge(center, q, weight, (cone.code(), pair_id, cand_id))
    return graph
