"""Independent checks of every quantitative bound the construction promises.

The stretch of the built spanner is measured against engine-computed geodesic
distances over all point pairs; the via-point detour inequality and the norm
sandwich are checked directly; the scaling sweep tracks edge counts against
the n * log^3 n budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .geodesic import GeodesicSolver
from .geometry import EPS_GEOM, Environment, Point3, bounding_box, points_array
from .spanner import SpannerGraph, build_spanner

STRETCH_BOUND_L1 = 8.0
STRETCH_SLACK = 1e-6
VIA_DETOUR_FACTOR = 4.0
NORM_RATIO = math.sqrt(3.0)


@dataclass
class StretchReport:
    """Measured worst-case ratio of graph distance to geodesic distance."""

    max_ratio: float
    argmax: tuple[int, int] | None

    @property
    def l2_ratio_analytic(self) -> float:
        """Stretch in the Euclidean norm implied by the norm sandwich."""
        return NORM_RATIO * self.max_ratio

    def within_bound(self) -> bool:
        return self.max_ratio <= STRETCH_BOUND_L1 + STRETCH_SLACK


def _graph_csr(g: SpannerGraph) -> csr_matrix:
    if not g.edges:
        return csr_matrix((g.n, g.n))
    rows = np.fromiter((i for (i, _) in g.edges), dtype=np.int64, count=len(g.edges))
    cols = np.fromiter((j for (_, j) in g.edges), dtype=np.int64, count=len(g.edges))
    data = np.fromiter(g.edges.values(), dtype=float, count=len(g.edges))
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def graph_distances(g: SpannerGraph, source: int) -> np.ndarray:
    """Single-source shortest-path distances in the spanner; inf if unreachable."""
    if not 0 <= source < g.n:
        raise IndexError(f"source {source} out of range for {g.n} vertices")
    return dijkstra(_graph_csr(g), directed=False, indices=source)


def spanning_ratio(env: Environment, g: SpannerGraph,
                   solver: GeodesicSolver | None = None) -> StretchReport:
    """Max over all pairs of graph distance divided by geodesic distance."""
    if g.n != env.n:
        raise ValueError("graph and environment disagree on the number of points")
    if solver is None:
        solver = GeodesicSolver(env)
    if g.n < 2:
        return StretchReport(max_ratio=1.0, argmax=None)
    dist_graph = dijkstra(_graph_csr(g), directed=False)
    best = 0.0
    arg: tuple[int, int] | None = None
    for i in range(g.n - 1):
        targets = list(env.points[i + 1:])
        sigma = solver.distances_from(env.points[i], targets)
        ratios = dist_graph[i, i + 1:] / sigma
        j_rel = int(np.argmax(ratios))
        if ratios[j_rel] > best:
            best = float(ratios[j_rel])
            arg = (i, i + 1 + j_rel)
    return StretchReport(max_ratio=best, argmax=arg)


def via_triples(env: Environment, count: int,
                rng: np.random.Generator) -> list[tuple[Point3, Point3, Point3]]:
    """Draw count via-point triples (p, q, o) with p != q from the point set.

    o is uniform in the box of p and q, redrawn up to 64 times while it falls
    in an obstacle interior, and p itself if every draw does.  Draws nothing
    when there are fewer than two points.
    """
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


def check_via_detour(env: Environment, p: Point3, q: Point3, o: Point3,
                     solver: GeodesicSolver | None = None) -> tuple[float, float, bool]:
    """Check sigma(p,o) + sigma(o,q) <= 4 * sigma(p,q) for o in the box of p and q.

    Returns (lhs, rhs, holds).  The via point must lie in the closed box
    spanned by p and q, and all three points outside obstacle interiors.
    """
    if not bounding_box(p, q).contains(o):
        raise ValueError("via point must lie in the closed box of p and q")
    for pt in (p, q, o):
        for box in env.obstacles:
            if box.contains_interior(pt):
                raise ValueError("query points must lie outside obstacle interiors")
    if solver is None:
        solver = GeodesicSolver(env)
    lhs = solver.distance(p, o) + solver.distance(o, q)
    rhs = VIA_DETOUR_FACTOR * solver.distance(p, q)
    return lhs, rhs, lhs <= rhs + EPS_GEOM


def norm_conversion_check(env: Environment) -> bool:
    """Verify the norm sandwich l1/sqrt(3) <= l2 <= l1 on all point pairs.

    This is the computational content behind quoting the measured L1 stretch
    times sqrt(3) as the Euclidean stretch; the conversion itself is
    analytic, not measured.
    """
    pts = points_array(env.points)
    for i in range(len(pts) - 1):
        diff = np.abs(pts[i + 1:] - pts[i])
        l1 = diff.sum(axis=1)
        l2 = np.sqrt((diff * diff).sum(axis=1))
        if not np.all((l1 / NORM_RATIO <= l2 + EPS_GEOM) & (l2 <= l1 + EPS_GEOM)):
            return False
    return True


@dataclass
class SweepRow:
    n: int
    m: int
    trials: int
    median_edges: float
    median_size_sum: float
    max_stretch: float
    normalized_edges: float
    runs: list[dict] = field(default_factory=list)


def scaling_sweep(sizes: list[int], trials: int, seed: int, m: int = 8) -> list[SweepRow]:
    """Generate, build, and verify across sizes; assert the stretch bound.

    Each run checks the exact edge budget (edges <= 6 * total pair size) and
    the stretch bound with slack; a violation raises RuntimeError.  Bad
    sizes, trials or generator parameters raise ValueError, and a request
    the generator cannot place raises its CrowdedRegionError.  Rows carry
    medians over the trials plus the per-run data.
    """
    from .generators import GenConfig, random_instance

    if not sizes:
        raise ValueError("sizes must be nonempty")
    for n in sizes:
        if n < 1:
            raise ValueError(f"sizes must be at least 1, got {n}")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows: list[SweepRow] = []
    for n in sizes:
        runs = []
        for trial in range(trials):
            child_seed = int(np.random.SeedSequence((seed, n, trial)).generate_state(1)[0])
            env = random_instance(GenConfig(seed=child_seed, n=n, m=m))
            solver = GeodesicSolver(env)
            g = build_spanner(env, solver)
            size_sum = sum(g.stats["size_sums"].values())
            if g.edge_count > 6 * size_sum:
                raise RuntimeError(
                    f"edge budget violated at n={n}: {g.edge_count} > 6*{size_sum}")
            report = spanning_ratio(env, g, solver)
            if not report.within_bound():
                raise RuntimeError(
                    f"stretch bound violated at n={n}: {report.max_ratio}")
            runs.append({"n": n, "m": m, "trial": trial, "seed": child_seed,
                         "edges": g.edge_count, "size_sum": size_sum,
                         "max_stretch": report.max_ratio})
        med_edges = float(np.median([r["edges"] for r in runs]))
        med_size = float(np.median([r["size_sum"] for r in runs]))
        norm = med_edges / (n * math.log2(n) ** 3) if n > 1 else float(med_edges)
        rows.append(SweepRow(n=n, m=m, trials=trials,
                             median_edges=med_edges, median_size_sum=med_size,
                             max_stretch=max(r["max_stretch"] for r in runs),
                             normalized_edges=norm, runs=runs))
    return rows
