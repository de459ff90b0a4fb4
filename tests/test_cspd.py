import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxspan.cspd import CONES, ConeId, Cspd, CspdPair, build_cspd, certify_cspd
from boxspan.geometry import Point3, points_array

# coordinates from a small pool to exercise ties on every axis
tied_coord = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0])
tied_point = st.builds(Point3, tied_coord, tied_coord, tied_coord)


def distinct_points(draw_list):
    seen = set()
    out = []
    for p in draw_list:
        if p.as_tuple() not in seen:
            seen.add(p.as_tuple())
            out.append(p)
    return out


def _as_cspd(cone, pairs):
    """A decomposition holding exactly the given pairs."""
    return Cspd(cone, np.array([p.apex.as_tuple() for p in pairs], dtype=float).reshape(-1, 3),
                np.array([len(p.a) for p in pairs], dtype=int),
                np.array([len(p.b) for p in pairs], dtype=int),
                np.array([i for p in pairs for i in p.a + p.b], dtype=int))


# -- reference: cone membership and certification, one pair at a time --------
#
# certify_cspd must return exactly reference_certify_cspd's list.

def _lex_less(p, q):
    return (p.z, p.y, p.x) < (q.z, q.y, q.x)


def _direction(p, q, axis):
    """Signed direction from p to q on one axis, ties resolved by (z,y,x) order."""
    a, b = p.coord(axis), q.coord(axis)
    if a < b:
        return 1
    if a > b:
        return -1
    return 1 if _lex_less(p, q) else -1


def classify(p, q):
    """The unique signed octant of q relative to p.

    Returns (cone, reflected).  When reflected is False, q lies in the
    cone translated to p; when True, p lies in that cone translated to q,
    so the ordered pair is covered as (q, p).
    """
    if p == q:
        raise ValueError("classify requires two distinct points")
    dx = _direction(p, q, 0)
    dy = _direction(p, q, 1)
    dz = _direction(p, q, 2)
    if dz > 0:
        return ConeId(dx, dy), False
    return ConeId(-dx, -dy), True


def in_cone(p, q, cone):
    """Whether q lies in the given cone translated to p (half-open convention)."""
    return classify(p, q) == (cone, False)


def reference_certify_cspd(points, cone, cspd):
    """certify_cspd as a loop over the pairs and over every ordered point pair."""
    violations = []
    coverage = {}
    for pid, pair in enumerate(cspd.pairs):
        if not pair.a or not pair.b:
            violations.append(f"pair {pid}: empty side")
        if set(pair.a) & set(pair.b):
            violations.append(f"pair {pid}: sides not disjoint")
        for i in pair.a:
            for j in pair.b:
                coverage[(i, j)] = coverage.get((i, j), 0) + 1
                if not in_cone(points[i], points[j], cone):
                    violations.append(
                        f"pair {pid}: cross pair ({i},{j}) not cone-related")
        for i in pair.a:
            for axis, sign in ((0, cone.sx), (1, cone.sy), (2, 1)):
                d = sign * (pair.apex.coord(axis) - points[i].coord(axis))
                if d < 0:
                    violations.append(f"pair {pid}: apex does not dominate point {i}")
                    break
        for j in pair.b:
            for axis, sign in ((0, cone.sx), (1, cone.sy), (2, 1)):
                d = sign * (points[j].coord(axis) - pair.apex.coord(axis))
                if d < 0:
                    violations.append(f"pair {pid}: point {j} does not dominate apex")
                    break
    n = len(points)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            expected = 1 if in_cone(points[i], points[j], cone) else 0
            got = coverage.get((i, j), 0)
            if got != expected:
                violations.append(
                    f"ordered pair ({i},{j}) covered {got} times, expected {expected}")
    return violations


# -- reference: the decomposition as three nested recursions -----------------
#
# Plain-python median splits on (coordinate, rank) keys, emitting pairs in
# depth-first order; build_cspd must reproduce its pairs, order and apexes.

def reference_cspd(points, cone):
    n = len(points)
    order = sorted(range(n), key=lambda i: (points[i].z, points[i].y, points[i].x, i))
    rank = [0] * n
    for pos, i in enumerate(order):
        rank[i] = pos
    kx = [(cone.sx * points[i].x, cone.sx * rank[i]) for i in range(n)]
    ky = [(cone.sy * points[i].y, cone.sy * rank[i]) for i in range(n)]
    kz = [(points[i].z, rank[i]) for i in range(n)]

    pairs = []

    def rec3(u, x_pivot, x_split, y_split):
        if len(u) < 2:
            return
        far = sum(1 for i in u if kx[i] >= x_pivot)
        if far == 0 or far == len(u):
            return
        mid = len(u) // 2
        z_split = points[u[mid]].z
        side_a = tuple(i for i in u[:mid] if kx[i] < x_pivot)
        side_b = tuple(i for i in u[mid:] if kx[i] >= x_pivot)
        if side_a and side_b:
            pairs.append(CspdPair(cone, side_a, side_b, Point3(x_split, y_split, z_split)))
        rec3(u[:mid], x_pivot, x_split, y_split)
        rec3(u[mid:], x_pivot, x_split, y_split)

    def rec2(sy, sz, x_pivot, x_split):
        if len(sy) < 2:
            return
        far = sum(1 for i in sy if kx[i] >= x_pivot)
        if far == 0 or far == len(sy):
            return
        mid = len(sy) // 2
        y_pivot = ky[sy[mid]]
        y_split = points[sy[mid]].y
        u = [i for i in sz if (kx[i] >= x_pivot) == (ky[i] >= y_pivot)]
        rec3(u, x_pivot, x_split, y_split)
        rec2(sy[:mid], [i for i in sz if ky[i] < y_pivot], x_pivot, x_split)
        rec2(sy[mid:], [i for i in sz if ky[i] >= y_pivot], x_pivot, x_split)

    def rec1(sx, sy, sz):
        if len(sx) < 2:
            return
        mid = len(sx) // 2
        x_pivot = kx[sx[mid]]
        x_split = points[sx[mid]].x
        rec2(sy, sz, x_pivot, x_split)
        rec1(sx[:mid],
             [i for i in sy if kx[i] < x_pivot], [i for i in sz if kx[i] < x_pivot])
        rec1(sx[mid:],
             [i for i in sy if kx[i] >= x_pivot], [i for i in sz if kx[i] >= x_pivot])

    rec1(sorted(range(n), key=lambda i: kx[i]), sorted(range(n), key=lambda i: ky[i]),
         sorted(range(n), key=lambda i: kz[i]))
    return tuple(pairs)


def assert_matches_reference(pts):
    for cone in CONES:
        got = build_cspd(pts, cone)
        expected = reference_cspd(pts, cone)
        assert got.pairs == expected
        # bit for bit, so a lost -0.0 sign shows
        assert [tuple(map(repr, p.apex.as_tuple())) for p in got.pairs] == \
            [tuple(map(repr, p.apex.as_tuple())) for p in expected]
        assert got.size_sum == sum(len(p.a) + len(p.b) for p in expected)


def test_classify_examples():
    assert classify(Point3(0, 0, 0), Point3(1, 2, 3)) == (ConeId(1, 1), False)
    assert classify(Point3(0, 0, 0), Point3(-1, 2, 3)) == (ConeId(-1, 1), False)
    # ties on x and y resolve through the (z, y, x) order: still cone (+, +)
    assert classify(Point3(0, 0, 0), Point3(0, 0, 1)) == (ConeId(1, 1), False)


def test_classify_rejects_equal_points():
    with pytest.raises(ValueError):
        classify(Point3(1, 2, 3), Point3(1, 2, 3))


def test_cone_id_rejects_bad_signs():
    with pytest.raises(ValueError):
        ConeId(0, 1)


@given(tied_point, tied_point)
def test_classify_antisymmetric_partition(p, q):
    """Each ordered pair lands in exactly one signed octant, consistently."""
    if p == q:
        return
    cone, reflected = classify(p, q)
    assert classify(q, p) == (cone, not reflected)
    hits = [c for c in CONES if in_cone(p, q, c)]
    if reflected:
        assert hits == []
        assert [c for c in CONES if in_cone(q, p, c)] == [cone]
    else:
        assert hits == [cone]


def test_build_two_points():
    pts = [Point3(0, 0, 0), Point3(1, 1, 1)]
    result = build_cspd(pts, ConeId(1, 1))
    assert len(result.pairs) == 1
    pair = result.pairs[0]
    assert pair.a == (0,) and pair.b == (1,)
    for axis in range(3):
        assert 0 <= pair.apex.coord(axis) <= 1
    assert result.size_sum == 2


def test_build_two_points_non_dominating_cone():
    result = build_cspd([Point3(0, 0, 0), Point3(1, 1, -1)], ConeId(1, 1))
    assert result.pairs == ()


def test_build_three_diagonal_points_exact_coverage():
    pts = [Point3(0, 0, 0), Point3(1, 1, 1), Point3(2, 2, 2)]
    result = build_cspd(pts, ConeId(1, 1))
    covered = set()
    for pair in result.pairs:
        for i in pair.a:
            for j in pair.b:
                assert (i, j) not in covered
                covered.add((i, j))
    assert covered == {(0, 1), (0, 2), (1, 2)}
    assert certify_cspd(pts, ConeId(1, 1), result) == []


def test_build_rejects_degenerate_input():
    with pytest.raises(ValueError):
        build_cspd([Point3(0, 0, 0)], ConeId(1, 1))
    with pytest.raises(ValueError):
        build_cspd([Point3(0, 0, 0), Point3(0, 0, 0)], ConeId(1, 1))


def _random_points(rng, n, pool_size=None):
    if pool_size:
        pool = [rng.uniform(0, 1) for _ in range(pool_size)]
        pts, seen = [], set()
        while len(pts) < n:
            p = Point3(rng.choice(pool), rng.choice(pool), rng.choice(pool))
            if p.as_tuple() not in seen:
                seen.add(p.as_tuple())
                pts.append(p)
        return pts
    return [Point3(rng.random(), rng.random(), rng.random()) for _ in range(n)]


@pytest.mark.parametrize("n,pool", [(10, None), (10, 4), (50, None), (50, 8),
                                    (1000, None), (1000, 16)])
def test_certified_on_random_sets(n, pool):
    rng = random.Random(1000 + n + (pool or 0))
    pts = _random_points(rng, n, pool)
    for cone in CONES:
        assert certify_cspd(pts, cone, build_cspd(pts, cone)) == []


@settings(max_examples=40, deadline=None)
@given(st.lists(tied_point, min_size=2, max_size=24))
def test_certified_on_tie_heavy_sets(raw):
    pts = distinct_points(raw)
    if len(pts) < 2:
        return
    for cone in CONES:
        assert certify_cspd(pts, cone, build_cspd(pts, cone)) == []


@pytest.mark.parametrize("n,pool", [(10, None), (10, 4), (50, None), (50, 8),
                                    (200, None), (200, 7)])
def test_build_matches_reference_on_random_sets(n, pool):
    rng = random.Random(2000 + n + (pool or 0))
    assert_matches_reference(_random_points(rng, n, pool))


@settings(max_examples=60, deadline=None)
@given(st.lists(tied_point, min_size=2, max_size=24))
def test_build_matches_reference_on_tie_heavy_sets(raw):
    pts = distinct_points(raw)
    if len(pts) >= 2:
        assert_matches_reference(pts)


def test_build_matches_reference_on_two_and_three_points():
    """Every ordering of two or three corners of a cube whose low corner
    carries -0.0, so that ties and signed zeros meet on every axis."""
    corners = [Point3(*c) for c in itertools.product((-0.0, 1.0), repeat=3)]
    for n in (2, 3):
        for pts in itertools.permutations(corners, n):
            assert_matches_reference(list(pts))


def test_certify_flags_corrupted_pair():
    pts = [Point3(0, 0, 0), Point3(1, 1, 1), Point3(2, 2, 2)]
    cone = ConeId(1, 1)
    good = build_cspd(pts, cone)
    pair = next(p for p in good.pairs if len(p.a) + len(p.b) > 2)
    moved = CspdPair(cone, pair.a + (pair.b[0],), pair.b[1:], pair.apex)
    corrupted = _as_cspd(cone, tuple(moved if p is pair else p for p in good.pairs))
    report = certify_cspd(pts, cone, corrupted)
    assert any("not cone-related" in v or "covered" in v for v in report)


def test_certify_flags_missing_coverage():
    pts = [Point3(0, 0, 0), Point3(1, 1, 1)]
    cone = ConeId(1, 1)
    empty = _as_cspd(cone, ())
    report = certify_cspd(pts, cone, empty)
    assert any("covered 0 times, expected 1" in v for v in report)


def test_certify_reports_shared_member():
    """A member on both sides of a pair is a violation, not an error."""
    pts = [Point3(0, 0, 0), Point3(1, 1, 1), Point3(2, 2, 2)]
    cone = ConeId(1, 1)
    pairs = build_cspd(pts, cone).pairs
    first = pairs[0]
    shared = CspdPair(cone, first.a, first.b + (first.a[0],), first.apex)
    report = certify_cspd(pts, cone, _as_cspd(cone, (shared,) + pairs[1:]))
    assert "pair 0: sides not disjoint" in report


def _move_to_a(pairs, k, cone):
    p = pairs[k]
    return pairs[:k] + (CspdPair(cone, p.a + p.b[:1], p.b[1:], p.apex),) + pairs[k + 1:]


def _shift_apex(pairs, k, cone, axis, by):
    p = pairs[k]
    apex = list(p.apex.as_tuple())
    apex[axis] += by
    return pairs[:k] + (CspdPair(cone, p.a, p.b, Point3(*apex)),) + pairs[k + 1:]


@settings(max_examples=60, deadline=None)
@given(st.lists(tied_point, min_size=2, max_size=16), st.sampled_from(CONES),
       st.lists(st.sampled_from(["move", "drop", "apex"]), max_size=3), st.data())
def test_certify_matches_reference(raw, cone, corruptions, data):
    """The same messages in the same order as the loop, on built
    decompositions and on ones with up to three corruptions, from points or
    from their array."""
    pts = distinct_points(raw)
    if len(pts) < 2:
        return
    pairs = build_cspd(pts, cone).pairs
    for corruption in corruptions:
        if not pairs:
            break
        k = data.draw(st.integers(0, len(pairs) - 1))
        if corruption == "move":
            pairs = _move_to_a(pairs, k, cone)
        elif corruption == "drop":
            pairs = pairs[:k] + pairs[k + 1:]
        else:
            pairs = _shift_apex(pairs, k, cone, data.draw(st.integers(0, 2)),
                                data.draw(st.sampled_from([-4.0, -0.5, 0.5, 4.0])))
    cspd = _as_cspd(cone, pairs)
    expected = reference_certify_cspd(pts, cone, cspd)
    assert certify_cspd(pts, cone, cspd) == expected
    assert certify_cspd(points_array(pts), cone, cspd) == expected


def test_apex_between_sides_componentwise():
    rng = random.Random(7)
    pts = _random_points(rng, 60, pool_size=9)
    for cone in CONES:
        for pair in build_cspd(pts, cone).pairs:
            for axis, sign in ((0, cone.sx), (1, cone.sy), (2, 1)):
                apex_c = pair.apex.coord(axis)
                for i in pair.a:
                    assert sign * (apex_c - pts[i].coord(axis)) >= 0
                for j in pair.b:
                    assert sign * (pts[j].coord(axis) - apex_c) >= 0


# calibrated on uniform and tie-heavy point sets across several seeds; the
# observed per-cone maxima were 0.0625 (size) and 0.168 (multiplicity)
SIZE_CONSTANT = 0.15
MULTIPLICITY_CONSTANT = 0.35


def test_size_sum_scaling():
    rng = random.Random(123)
    for k in range(4, 13):
        n = 2 ** k
        pts = _random_points(rng, n)
        budget = n * math.log2(n) ** 3
        for cone in CONES:
            assert build_cspd(pts, cone).size_sum <= SIZE_CONSTANT * budget


def test_per_point_membership_bound():
    rng = random.Random(321)
    for n in (64, 256, 1024):
        pts = _random_points(rng, n)
        cap = MULTIPLICITY_CONSTANT * math.log2(n) ** 3
        for cone in CONES:
            counts: dict[int, int] = {}
            for pair in build_cspd(pts, cone).pairs:
                for i in pair.a + pair.b:
                    counts[i] = counts.get(i, 0) + 1
            assert max(counts.values()) <= cap


def test_build_is_deterministic():
    rng = random.Random(55)
    pts = _random_points(rng, 40, pool_size=6)
    for cone in CONES:
        assert build_cspd(pts, cone) == build_cspd(pts, cone)
