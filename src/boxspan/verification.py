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

from .cspd import _ranges
from .geodesic import GeodesicSolver, _l1
from .geometry import Environment, Point3
from .spanner import SpannerGraph, build_spanner

STRETCH_BOUND_L1 = 8.0
STRETCH_SLACK = 1e-6
VIA_DETOUR_FACTOR = 4.0
NORM_RATIO = math.sqrt(3.0)
# Relative slack of the via check, sized in check_via_triples.
VIA_SLACK = 1e-9

# Most point pairs in one block of the pair scans (the stretch scan and the
# norm check): their arrays hold a few floats per pair.
_STRETCH_BLOCK = 1 << 13

# Most floats in the temporaries of one fold of neighbours into a row's
# two-hop bounds.
_FOLD_FLOATS = 1 << 16


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
    lengths = np.arange(n - 1, 0, -1)
    ends = np.cumsum(lengths)
    first = 0
    while first < n - 1:
        done = ends[first] - lengths[first]
        last = max(first + 1, int(np.searchsorted(ends, done + _STRETCH_BLOCK, side="right")))
        rows, cols = _ranges(np.arange(first + 1, last + 1), np.full(last - first, n))
        rows += first
        yield rows, cols
        first = last


def _weight_matrix(n: int, tails: np.ndarray, heads: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, float]:
    """The dense float32 weight matrix W of the graph Dijkstra sees, scaled
    and rounded up, and the factor widen that reads a two-hop bound of W
    back as an upper bound in float64 (see :func:`spanning_ratio`).

    W[i, j] is the smaller weight where both directions are stored, inf
    where no edge joins i and j.  Each weight w is scaled by 2**-E, which
    brings the largest into [0.5, 1) (E clipped to [-1021, 1023], so that
    widen is a normal float64), rounded up to float32 where the nearest
    float32 falls below it, and raised to 2**-126 where smaller, so W[i, j]
    >= w * 2**-E and every entry and two-hop sum is a normal float32 below
    4.  widen = (1 + 2**-20) * 2**E.
    """
    exponent = int(np.clip(np.frexp(weights.max(initial=0.0))[1], -1021, 1023))
    scaled = np.ldexp(weights, -exponent)
    w32 = scaled.astype(np.float32)
    low = w32 < scaled
    w32[low] = np.nextafter(w32[low], np.float32(np.inf))
    np.maximum(w32, np.float32(2.0 ** -126), out=w32)
    W = np.full((n, n), np.inf, dtype=np.float32)
    np.minimum.at(W, (tails, heads), w32)
    np.minimum.at(W, (heads, tails), w32)
    return W, math.ldexp(1 + 2.0 ** -20, exponent)


def _two_hop_bounds(W: np.ndarray, widen: float, order: np.ndarray, sigma: np.ndarray,
                    first: int, last: int, best: float) -> np.ndarray:
    """Upper bounds on the ratios of the rows first <= i < last, pairs
    (i, j), j > i, in row-major order, against their geodesic distances
    sigma: fl64(fl64(U * widen) / sigma), with U(i, j) = min(W[i, j], min
    over common neighbours c of W[i, c] + W[c, j]) on the matrix W and
    factor widen of :func:`_weight_matrix`, inf where no path of at most two
    edges joins i and j.

    A row's neighbours are folded in the order ``order``, at most
    _FOLD_FLOATS // n at a time, so a fold's temporaries hold at most
    _FOLD_FLOATS floats.  After each fold but the last the row stops,
    keeping the bounds it has, once none exceeds best: a min over some of
    the common neighbours is still at least the graph distance.
    """
    chunk = max(1, _FOLD_FLOATS // len(W))
    out = []
    at = 0
    for i in range(first, last):
        s = sigma[at:at + len(W) - 1 - i]
        at += len(s)
        u = W[i, i + 1:].copy()
        nbrs = order[W[i, order] < np.inf]
        for start in range(0, len(nbrs), chunk):
            c = nbrs[start:start + chunk]
            hops = W[c, i + 1:]
            hops += W[i, c][:, None]
            np.minimum(u, hops.min(axis=0), out=u)
            if (start + chunk < len(nbrs)
                    and (np.multiply(u, widen, dtype=np.float64) / s).max() <= best):
                break
        out.append(u)
    return np.multiply(np.concatenate(out), widen, dtype=np.float64) / sigma


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

    Graph distances come from single-source Dijkstra runs on the rows that
    need them, not from all pairs.  Every other pair is settled by a bound
    from its two-hop paths w(i, c) + w(c, j), over the common neighbours c,
    and its edge w(i, j), if any, on the graph Dijkstra sees, with the
    smaller weight where both directions are stored.  The Dijkstra distance
    d satisfies d <= fl64(w(i, c) + w(c, j)) to the bit: Dijkstra from i
    reaches c at most at 0 + w(i, c) = w(i, c), relaxes c's edge to j from
    there, and rounding is monotone.  The bounds are screened in float32
    (:func:`_weight_matrix`, :func:`_two_hop_bounds`): W holds each weight
    w scaled by 2**-E and rounded up, a two-hop sum U32 = fl32(W[i, c] +
    W[c, j]) is a normal float32, within 2**-24 relative of W[i, c] +
    W[c, j], and the bound is read back as fl64(fl64(U32 * widen) / sigma),
    with widen = (1 + 2**-20) * 2**E.  With w = w(i, c), w' = w(c, j):

        d <= fl64(w + w') <= (w + w')(1 + 2**-53)
          <= U32 * 2**E * (1 + 2**-53) / (1 - 2**-24) <= U32 * widen,

    the last because (1 + 2**-53) / (1 - 2**-24) < 1 + 2**-20.  d is a
    float64 no greater than the exact product, so rounding, monotone, keeps
    d <= fl64(U32 * widen); the direct edge, unrounded, bounds d the same
    way, and so does the min over all of them.  Dividing by sigma keeps the
    order, so each pair's ratio is at most its bound.  A row whose largest
    bound is at most the best ratio of the earlier blocks, which a new best
    must exceed, or below the largest exact ratio found so far in its block,
    which the block's first argmax must reach, changes neither.  So a row
    stops folding in neighbours, largest degree first, once its bounds are
    at most that best: a min over fewer neighbours is still a bound.
    Within a block the candidate rows go exact best-first, largest bound
    first, in batches of one, two, four... rows, each batch one
    ``dijkstra(..., indices=rows)`` call, until no candidate is left; every
    other pair keeps its bound in the block's ratios, where it can be
    neither the new best nor the argmax.  A graph the bound cannot certify,
    such as a disconnected one, where the bound is inf, sends rows exact in
    the same loop.

    Also records as ``understated`` the first pair, in row order, whose
    graph distance falls below (1 - STRETCH_SLACK) times its geodesic
    distance: no path amid the obstacles is shorter than the geodesic, so
    only understated edge weights can cause it.  Above L1, sigma(p, q) and
    sigma(q, p) can differ by an ulp (see :class:`GeodesicSolver`), and the
    builder's solver may have met a pair in the other orientation, so an
    edge weight can sit an ulp off the sigma here; STRETCH_SLACK covers it.
    Until such a pair is found, the rows that might hold one go exact too,
    in the block's first batch.  Let l be the L1 distance of two points,
    the solver's :func:`~boxspan.geodesic._l1`, and u = 2**-53.  Each l
    is within a factor (1 +- u)**3 of the exact L1: three rounded
    differences, two additions.  When every stored weight is at least the l
    of its ends, a graph distance d, the left-fold sum of the k <= n - 1
    weights of a path, is at least (1 - u)**(k - 1) times their exact sum,
    and the exact L1 obeys the triangle inequality, so d >= l * (1 - (n +
    4)u).  A pair with sigma <= fl(l * (1 + STRETCH_SLACK / 2)) then has a
    computed ratio of at least (1 - (n + 7)u) / (1 + STRETCH_SLACK / 2),
    which exceeds 1 - STRETCH_SLACK while (n + 7)u < STRETCH_SLACK / 2,
    that is, for any n below 4 * 10**9.  So only rows holding a pair whose
    sigma exceeds l by more than that go exact for this check; where sigma
    is L1, as on obstacle-free instances, none do.  A block whose points
    lie in a closed box that no obstacle meets has sigma = l on every pair
    (step 1 of :class:`GeodesicSolver`), so it skips the comparison.  If
    some weight falls below its l, every row goes exact until the pair is
    found.
    """
    if g.n != env.n:
        raise ValueError(f"instance has {env.n} points but graph has {g.n} vertices")
    if solver is None:
        solver = GeodesicSolver(env)
    n = g.n
    if n < 2:
        return StretchReport(max_ratio=1.0, argmax=None)
    csr = _graph_csr(g)
    P = env.point_coords
    i, j, w = g.edge_columns()
    above_l1 = bool(np.all(w >= _l1(P[i], P[j])))
    W, widen = _weight_matrix(n, i, j, w)
    order = np.argsort(-np.count_nonzero(W < np.inf, axis=1), kind="stable")
    best = 0.0
    arg: tuple[int, int] | None = None
    understated: tuple[int, int] | None = None
    for rows, cols in _pair_blocks(n):
        S, T = P.take(rows, axis=0), P.take(cols, axis=0)
        sigma = solver.distances_from(S, T)
        first, last = int(rows[0]), int(rows[-1]) + 1
        lengths = n - 1 - np.arange(first, last)
        starts = np.cumsum(lengths) - lengths
        ratios = _two_hop_bounds(W, widen, order, sigma, first, last, best)
        row_bound = np.maximum.reduceat(ratios, starts)
        if understated is None and above_l1:
            # The block's points are first, ..., n - 1.
            box = P[first:]
            batch = np.empty(0, int)
            if solver.meets_obstacles(box.min(axis=0, keepdims=True),
                                      box.max(axis=0, keepdims=True))[0]:
                wide = sigma > _l1(S, T) * (1 + STRETCH_SLACK / 2)
                batch = np.flatnonzero(np.logical_or.reduceat(wide, starts))
        else:
            batch = np.arange(last - first) if understated is None else np.empty(0, int)
        exact = np.zeros(last - first, dtype=bool)
        block_best, size = -np.inf, 1
        while True:
            open_rows = np.flatnonzero(~exact & (row_bound > best) & (row_bound >= block_best))
            pick = open_rows[np.argsort(-row_bound[open_rows], kind="stable")[:size]]
            batch = np.union1d(batch, pick)
            if not len(batch):
                break
            for r, dist in zip(batch, dijkstra(csr, directed=False, indices=first + batch)):
                at = slice(starts[r], starts[r] + lengths[r])
                ratios[at] = dist[first + r + 1:] / sigma[at]
                block_best = max(block_best, ratios[at].max())
            exact[batch] = True
            batch, size = batch[:0], 2 * size
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
    when there are fewer than two points; a negative count raises ValueError.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    n = env.n
    if n < 2:
        return []
    coords = env.point_coords.tolist()
    boxes = np.hstack([env.obstacle_lo, env.obstacle_hi]).tolist()
    points, integers, random = env.points, rng.integers, rng.random
    triples = []
    for _ in range(count):
        i = int(integers(n))
        j = int(integers(n - 1))
        if j >= i:
            j += 1
        (px, py, pz), (qx, qy, qz) = coords[i], coords[j]
        # Clamped to the box of p and q by comparisons: min(max(v, lo), hi),
        # with lo and hi the least and the greatest of the two coordinates.
        lx, hx = (qx, px) if qx < px else (px, qx)
        ly, hy = (qy, py) if qy < py else (py, qy)
        lz, hz = (qz, pz) if qz < pz else (pz, qz)
        o = points[i]
        for _ in range(64):
            ux, uy, uz = random(3).tolist()
            x = px + ux * (qx - px)
            x = lx if x < lx else hx if x > hx else x
            y = py + uy * (qy - py)
            y = ly if y < ly else hy if y > hy else y
            z = pz + uz * (qz - pz)
            z = lz if z < lz else hz if z > hz else z
            for ax, ay, az, bx, by, bz in boxes:
                if ax < x < bx and ay < y < by and az < z < bz:
                    break
            else:
                o = Point3(x, y, z)
                break
        triples.append((points[i], points[j], o))
    return triples


def _check_via_points(solver: GeodesicSolver, X: np.ndarray) -> None:
    """Raise ValueError at the first triple (p, q, o) = X[k], a (k, 3, 3)
    array, whose via point lies outside the closed box of p and q, or with a
    point strictly inside an obstacle; the message says which, the box test
    first."""
    P, Q, O = X[:, 0], X[:, 1], X[:, 2]
    outside = ~((np.minimum(P, Q) <= O) & (O <= np.maximum(P, Q))).all(axis=1)
    points = X.reshape(-1, 3)
    inside = solver.meets_obstacles(points, points).reshape(-1, 3).any(axis=1)
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

    A check passes when lhs <= rhs * (1 + VIA_SLACK), a slack relative to
    the distances, so the check means the same at every scale.  Each sigma
    is a left-fold sum of the step lengths of one path (the L1, three
    steps, when no grid is needed), each step one rounded coordinate
    difference; with u = 2**-53, a sum of k steps is within 2ku of its
    exact value, to first order.  So where the exact distances meet the
    inequality, rounding (the addition on the left included) moves the
    computed sides apart by at most (4k + 1)u relative, for paths of at
    most k steps: below VIA_SLACK = 1e-9 for k up to 2**21.  A violation by
    more than 1e-9 relative fails at any scale.
    """
    if not triples:
        return 0, 0.0
    # The nine coordinates of each triple, packed in one pass.
    X = np.array([(p.x, p.y, p.z, q.x, q.y, q.z, o.x, o.y, o.z) for p, q, o in triples],
                 dtype=float).reshape(-1, 3, 3)
    _check_via_points(solver, X)
    solver.pair_distances(X[:, [0, 2, 0]].reshape(-1, 3), X[:, [2, 1, 1]].reshape(-1, 3))
    passes, worst = 0, 0.0
    for p, q, o in triples:
        lhs = solver.distance(p, o) + solver.distance(o, q)
        rhs = VIA_DETOUR_FACTOR * solver.distance(p, q)
        worst = max(worst, VIA_DETOUR_FACTOR * lhs / rhs)
        passes += lhs <= rhs * (1 + VIA_SLACK)
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


def scaling_sweep(sizes: list[int], trials: int, seed: int, m: int = 8,
                  placement: str = "free") -> list[SweepRow]:
    """Generate, build, and verify across sizes; assert the stretch bound.

    Each run checks the exact edge budget (edges <= 6 * total pair size) and
    the stretch bound with slack; a violation raises RuntimeError.  Bad
    sizes, trials or generator parameters raise ValueError, and a request
    the generator cannot place raises its CrowdedRegionError.  Instances
    are drawn with the given ``placement`` ("free" or "mixed").  Rows carry
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
            env = random_instance(GenConfig(seed=child_seed, n=n, m=m, placement=placement))
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
