"""Independent checks of every quantitative bound the construction promises.

The stretch of the built spanner is measured against engine-computed geodesic
distances over all point pairs; the via-point detour inequality and the norm
sandwich are checked directly; the scaling sweep tracks edge counts against
the n * log^3 n budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .geodesic import GeodesicSolver
from .geometry import EPS_GEOM, Environment, Point3, points_array
from .spanner import SpannerGraph, build_spanner

STRETCH_BOUND_L1 = 8.0
STRETCH_SLACK = 1e-6
VIA_DETOUR_FACTOR = 4.0
NORM_RATIO = math.sqrt(3.0)

# Most point pairs in one block of the pair scans (the stretch scan and the
# norm check): their arrays hold a few floats per pair.
_STRETCH_BLOCK = 1 << 13


@dataclass
class StretchReport:
    """Measured worst-case ratio of graph distance to geodesic distance."""

    max_ratio: float
    argmax: tuple[int, int] | None
    understated: tuple[int, int] | None = None

    @property
    def l2_ratio_analytic(self) -> float:
        """Stretch in the Euclidean norm implied by the norm sandwich."""
        return NORM_RATIO * self.max_ratio

    def within_bound(self) -> bool:
        return self.understated is None and self.max_ratio <= STRETCH_BOUND_L1 + STRETCH_SLACK


def _graph_csr(g: SpannerGraph) -> csr_matrix:
    rows, cols, data = g.edge_columns()
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def _pair_blocks(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pairs (i, j), i < j < n, in row-major order, in blocks of whole
    rows of at most _STRETCH_BLOCK pairs (a longer row is a block of its
    own): per block, the i and the j of its pairs."""
    # Row i holds the pairs (i, i+1), ..., (i, n-1), at the row-major
    # positions ends[i] - lengths[i] to ends[i] - 1, so the pair at position
    # k has j = k - (ends[i] - n).
    lengths = np.arange(n - 1, 0, -1)
    ends = np.cumsum(lengths)
    first = 0
    while first < n - 1:
        done = ends[first] - lengths[first]
        last = max(first + 1, int(np.searchsorted(ends, done + _STRETCH_BLOCK, side="right")))
        rows = np.repeat(np.arange(first, last), lengths[first:last])
        cols = np.arange(done, ends[last - 1]) - np.repeat(ends[first:last] - n, lengths[first:last])
        yield rows, cols
        first = last


def spanning_ratio(env: Environment, g: SpannerGraph,
                   solver: GeodesicSolver | None = None) -> StretchReport:
    """Max over all pairs of graph distance divided by geodesic distance.

    The pairs (i, j), j > i, are taken in row-major order, in blocks of
    whole rows of at most _STRETCH_BLOCK pairs (a longer row is a block of
    its own).  Each block is one :meth:`GeodesicSolver.distances_from` call
    with one source row per target.  That call returns, and leaves in the
    cache, what one call per row would, in the same order, so sigma, the
    grid-stage calls and the cache, entry for entry and in insertion order,
    are those of asking row by row.  Block by block, the block's first
    argmax in row-major order replaces the best ratio only when it is
    strictly greater, so ``argmax`` is the first pair in row order with the
    largest ratio, as a scan row by row finds it.  No ratio is NaN, which
    np.argmax would pick: the points are distinct, so sigma is positive and
    finite, and a graph distance is at least 0, or inf.

    Also records as ``understated`` the first pair, in row order, whose
    graph distance falls below (1 - STRETCH_SLACK) times its geodesic
    distance: no path amid the obstacles is shorter than the geodesic, so
    only understated edge weights can cause it.  Above L1, sigma(p, q) and
    sigma(q, p) can differ by an ulp (see :class:`GeodesicSolver`), and the
    builder's solver may have met a pair in the other orientation, so an
    edge weight can sit an ulp off the sigma here; STRETCH_SLACK covers it.
    """
    if g.n != env.n:
        raise ValueError("graph and environment disagree on the number of points")
    if solver is None:
        solver = GeodesicSolver(env)
    n = g.n
    if n < 2:
        return StretchReport(max_ratio=1.0, argmax=None)
    dist_graph = dijkstra(_graph_csr(g), directed=False)
    P = env.point_coords
    best = 0.0
    arg: tuple[int, int] | None = None
    understated: tuple[int, int] | None = None
    for rows, cols in _pair_blocks(n):
        ratios = dist_graph[rows, cols] / solver.distances_from(P[rows], P[cols])
        k = int(np.argmax(ratios))
        if ratios[k] > best:
            best = float(ratios[k])
            arg = (int(rows[k]), int(cols[k]))
        if understated is None:
            below = np.flatnonzero(ratios < 1 - STRETCH_SLACK)
            if len(below):
                understated = (int(rows[below[0]]), int(cols[below[0]]))
    return StretchReport(max_ratio=best, argmax=arg, understated=understated)


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
    coords = env.point_coords.tolist()
    boxes = np.hstack([env.obstacle_lo, env.obstacle_hi]).tolist()
    triples = []
    for _ in range(count):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        (px, py, pz), (qx, qy, qz) = coords[i], coords[j]
        lx, ly, lz = min(px, qx), min(py, qy), min(pz, qz)
        hx, hy, hz = max(px, qx), max(py, qy), max(pz, qz)
        o = env.points[i]
        for _ in range(64):
            ux, uy, uz = rng.random(3).tolist()
            x = min(max(px + ux * (qx - px), lx), hx)
            y = min(max(py + uy * (qy - py), ly), hy)
            z = min(max(pz + uz * (qz - pz), lz), hz)
            if not any(ax < x < bx and ay < y < by and az < z < bz
                       for ax, ay, az, bx, by, bz in boxes):
                o = Point3(x, y, z)
                break
        triples.append((env.points[i], env.points[j], o))
    return triples


def _check_via_points(solver: GeodesicSolver, P: np.ndarray, Q: np.ndarray,
                      O: np.ndarray) -> None:
    """Raise ValueError at the first triple (P[k], Q[k], O[k]) whose via
    point lies outside the closed box of p and q, or with a point strictly
    inside an obstacle; the message says which, the box test first."""
    outside = ~((np.minimum(P, Q) <= O) & (O <= np.maximum(P, Q))).all(axis=1)
    X = np.stack([P, Q, O], axis=1).reshape(-1, 3)
    inside = solver.meets_obstacles(X, X).reshape(-1, 3).any(axis=1)
    bad = np.flatnonzero(outside | inside)
    if len(bad):
        if outside[bad[0]]:
            raise ValueError("via point must lie in the closed box of p and q")
        raise ValueError("query points must lie outside obstacle interiors")


def check_via_triples(triples: list[tuple[Point3, Point3, Point3]],
                      solver: GeodesicSolver) -> tuple[int, float]:
    """Check sigma(p,o) + sigma(o,q) <= 4 * sigma(p,q) for every via triple
    (p, q, o); return (passes, worst 4 * lhs / rhs), that is, the largest
    lhs / sigma(p,q).

    Each via point must lie in the closed box spanned by p and q, and all
    three points outside obstacle interiors: all triples are validated
    first, on arrays, by :func:`_check_via_points`.  One
    :meth:`GeodesicSolver.pair_distances` call then settles all via pairs in
    the order the checks ask them, (p, o), (o, q), (p, q), so each check
    reads its three distances from the cache, one
    :meth:`GeodesicSolver.distance` call each.  The order matters above L1,
    where the orientation asked first fixes the last bits of a cached value.
    """
    if not triples:
        return 0, 0.0
    P, Q, O = (points_array(column) for column in zip(*triples))
    _check_via_points(solver, P, Q, O)
    solver.pair_distances(np.stack([P, O, P], axis=1).reshape(-1, 3),
                          np.stack([O, Q, Q], axis=1).reshape(-1, 3))
    passes, worst = 0, 0.0
    for p, q, o in triples:
        lhs = solver.distance(p, o) + solver.distance(o, q)
        rhs = VIA_DETOUR_FACTOR * solver.distance(p, q)
        worst = max(worst, VIA_DETOUR_FACTOR * lhs / rhs)
        passes += lhs <= rhs + EPS_GEOM
    return passes, worst


def norm_conversion_check(env: Environment) -> bool:
    """Verify the norm sandwich l1/sqrt(3) <= l2 <= l1 on all point pairs.

    This is the computational content behind quoting the measured L1 stretch
    times sqrt(3) as the Euclidean stretch; the conversion itself is
    analytic, not measured.

    Each bound has a relative margin of 1e-12, so the check means the same
    at every scale.  With u = 2**-53 and the coordinate differences as exact
    inputs, to first order: l1 (two additions) is within 2u; l2 within 2.5u
    (squares and additions 3u, halved by the root, plus u for it); l1 /
    NORM_RATIO within 4u.  Rounding thus moves a comparison by at most 6.5u,
    about 7e-16, far below the margin, while a ratio off by more than the
    margin fails on a diagonal line.  So that the squares neither overflow
    nor underflow, each pair's differences are first scaled by the power of
    two that brings the largest into [0.5, 1).  That is exact for normal
    numbers, and every later step and both sides of each bound scale with
    it, so the verdict is the unscaled arithmetic's wherever that stays in
    range, and the same at any other scale.

    The pairs are taken in the stretch scan's blocks of whole rows, one
    coordinate array at a time; the sums run x, y, z as on a row of three.
    """
    X, Y, Z = env.point_coords.T
    for rows, cols in _pair_blocks(env.n):
        dx, dy, dz = np.abs(X[cols] - X[rows]), np.abs(Y[cols] - Y[rows]), np.abs(Z[cols] - Z[rows])
        exponent = -np.frexp(np.maximum(np.maximum(dx, dy), dz))[1]
        dx, dy, dz = np.ldexp(dx, exponent), np.ldexp(dy, exponent), np.ldexp(dz, exponent)
        l1 = dx + dy + dz
        l2 = np.sqrt(dx * dx + dy * dy + dz * dz)
        if not np.all((l1 / NORM_RATIO <= l2 * (1 + 1e-12)) & (l2 <= l1 * (1 + 1e-12))):
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
