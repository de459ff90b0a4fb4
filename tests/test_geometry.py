import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxspan import files
from boxspan.generators import GenConfig, random_instance
from boxspan.geometry import AxisBox, Environment, Point3, project_out, validate_environment

SQRT3 = math.sqrt(3.0)


# -- reference helpers, also used by the other test modules

def l1_distance(p, q):
    """Manhattan distance |dx| + |dy| + |dz|."""
    return abs(p.x - q.x) + abs(p.y - q.y) + abs(p.z - q.z)


def l2_distance(p, q):
    """Euclidean distance; satisfies l1/sqrt(3) <= l2 <= l1."""
    return math.hypot(p.x - q.x, p.y - q.y, p.z - q.z)


def bounding_box(p, q):
    """The box with p and q as opposite corners (componentwise min/max)."""
    return AxisBox(
        Point3(min(p.x, q.x), min(p.y, q.y), min(p.z, q.z)),
        Point3(max(p.x, q.x), max(p.y, q.y), max(p.z, q.z)),
    )


def box_contains(box, pt):
    """Closed containment: box.lo <= pt <= box.hi componentwise."""
    return (box.lo.x <= pt.x <= box.hi.x
            and box.lo.y <= pt.y <= box.hi.y
            and box.lo.z <= pt.z <= box.hi.z)


coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coords, coords, coords)


def test_l1_examples():
    assert l1_distance(Point3(0, 0, 0), Point3(1, 2, 3)) == 6
    assert l1_distance(Point3(4, -1, 2.5), Point3(4, -1, 2.5)) == 0
    assert l1_distance(Point3(0, 0, 0), Point3(1, 1, 1)) == 3


def test_l2_examples():
    assert l2_distance(Point3(0, 0, 0), Point3(3, 4, 0)) == 5
    assert l2_distance(Point3(0, 0, 0), Point3(1, 1, 1)) == pytest.approx(SQRT3)
    # equality case of the norm inequality: l1 = sqrt(3) * l2 on the diagonal
    assert l1_distance(Point3(0, 0, 0), Point3(1, 1, 1)) == pytest.approx(
        SQRT3 * l2_distance(Point3(0, 0, 0), Point3(1, 1, 1)))


@given(points, points)
def test_norm_sandwich(p, q):
    l1 = l1_distance(p, q)
    l2 = l2_distance(p, q)
    assert l1 / SQRT3 <= l2 + 1e-12
    assert l2 <= l1 + 1e-12


@given(points, points)
def test_l1_symmetry_and_identity(p, q):
    assert l1_distance(p, q) == l1_distance(q, p)
    assert (l1_distance(p, q) == 0) == (p.as_tuple() == q.as_tuple())


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point3(math.nan, 0, 0)
    with pytest.raises(ValueError):
        Point3(0, math.inf, 0)


def test_bounding_box_examples():
    b = bounding_box(Point3(0, 0, 0), Point3(1, 1, 1))
    assert b == AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))
    b = bounding_box(Point3(1, 0, 2), Point3(0, 3, 1))
    assert b == AxisBox(Point3(0, 0, 1), Point3(1, 3, 2))
    p = Point3(2, -1, 5)
    assert bounding_box(p, p) == AxisBox(p, p)


@given(points, points)
def test_bounding_box_symmetric_and_contains_corners(p, q):
    b = bounding_box(p, q)
    assert b == bounding_box(q, p)
    assert box_contains(b, p) and box_contains(b, q)


def test_box_rejects_unordered_corners():
    with pytest.raises(ValueError):
        AxisBox(Point3(1, 0, 0), Point3(0, 1, 1))


def test_contains_closed_vs_open():
    box = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))
    assert box_contains(box, Point3(0, 0, 0))
    assert not box.contains_interior(Point3(0, 0, 0))
    assert not box_contains(box, Point3(2, 0, 0))
    assert box.contains_interior(Point3(0.5, 0.5, 0.5))


def test_project_out_interior():
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))], [])
    exits = project_out(Point3(0.5, 0.5, 0.5), env)
    assert exits == (Point3(1, 0.5, 0.5), Point3(0, 0.5, 0.5),
                     Point3(0.5, 1, 0.5), Point3(0.5, 0, 0.5),
                     Point3(0.5, 0.5, 1), Point3(0.5, 0.5, 0))


def test_project_out_free_and_boundary():
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))], [])
    o = Point3(5, 5, 5)
    assert project_out(o, env) == (o,) * 6
    face = Point3(0, 0.5, 0.5)
    assert project_out(face, env) == (face,) * 6


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_project_out_exits_on_boundary_never_interior(x, y, z):
    box = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))
    env = Environment([box], [])
    for exit_pt in project_out(Point3(x, y, z), env):
        assert box_contains(box, exit_pt)
        assert not box.contains_interior(exit_pt)


def test_validation_catches_touching_obstacles():
    shared_face = Environment(
        [AxisBox(Point3(0, 0, 0), Point3(1, 1, 1)),
         AxisBox(Point3(1, 0, 0), Point3(2, 1, 1))], [])
    assert any("touch" in v for v in validate_environment(shared_face))


def test_validation_catches_point_inside_obstacle():
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))],
                      [Point3(0.5, 0.5, 0.5)])
    assert any("inside obstacle" in v for v in validate_environment(env))


def test_validation_catches_degenerate_and_duplicates():
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 0))],
                      [Point3(2, 2, 2), Point3(2, 2, 2)])
    report = validate_environment(env)
    assert any("extent" in v for v in report)
    assert any("coincide" in v for v in report)


def test_validation_accepts_valid_instance():
    env = Environment(
        [AxisBox(Point3(0, 0, 0), Point3(1, 1, 1)),
         AxisBox(Point3(2, 0, 0), Point3(3, 1, 1))],
        [Point3(-1, 0, 0), Point3(5, 5, 5), Point3(0, 0.5, 0.5)])
    assert validate_environment(env) == []


def separation(a, b):
    """Largest axis gap between two boxes; > 0 iff disjoint as closed sets."""
    best = -math.inf
    for axis in range(3):
        gap = max(b.lo.coord(axis) - a.hi.coord(axis), a.lo.coord(axis) - b.hi.coord(axis))
        best = max(best, gap)
    return best


def reference_validate_environment(env):
    """validate_environment as a loop over points and obstacles, as a
    reference.  ``+ 0.0`` prints a zero separation as 0, whichever signed
    zero the maxima pick."""
    violations = []
    for i, box in enumerate(env.obstacles):
        for axis in range(3):
            if box.hi.coord(axis) - box.lo.coord(axis) <= 0.0:
                violations.append(f"obstacle {i} has non-positive extent on axis {axis}")
    for i in range(len(env.obstacles)):
        for j in range(i + 1, len(env.obstacles)):
            sep = separation(env.obstacles[i], env.obstacles[j])
            if sep <= 0.0:
                violations.append(
                    f"obstacles {i} and {j} touch or overlap (separation {sep + 0.0:.3g})")
    for k, pt in enumerate(env.points):
        for i, box in enumerate(env.obstacles):
            if box.contains_interior(pt):
                violations.append(f"point {k} lies strictly inside obstacle {i}")
    seen = {}
    for k, pt in enumerate(env.points):
        key = pt.as_tuple()
        if key in seen:
            violations.append(f"points {seen[key]} and {k} coincide")
        else:
            seen[key] = k
    return violations


def raw_box(lo, hi):
    """An AxisBox whose corners are not checked, so its extents may be negative."""
    box = object.__new__(AxisBox)
    object.__setattr__(box, "lo", Point3(*lo))
    object.__setattr__(box, "hi", Point3(*hi))
    return box


halves = st.one_of(st.integers(-4, 4).map(lambda k: k / 2), st.just(-0.0))
triples = st.tuples(halves, halves, halves)


@st.composite
def lattice_instances(draw):
    """Boxes and points on a half-integer lattice: boxes sharing faces, edges
    and corners, with zero and negative extents; points inside boxes, on
    their corners and faces, and repeated with zeros of either sign."""
    boxes = []
    for lo in draw(st.lists(triples, max_size=6)):
        sides = draw(st.tuples(*[st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5])] * 3))
        boxes.append(raw_box(lo, [a + d for a, d in zip(lo, sides)]))
    points = draw(st.lists(triples, max_size=8))
    for _ in range(draw(st.integers(0, 6))):
        if boxes and draw(st.booleans()):
            box = draw(st.sampled_from(boxes))
            points.append(tuple(draw(st.sampled_from([lo, hi, (lo + hi) / 2]))
                                for lo, hi in zip(box.lo.as_tuple(), box.hi.as_tuple())))
        elif points:
            signs = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
            points.append(tuple(-0.0 if c == 0.0 and flip else c + 0.0
                                for c, flip in zip(draw(st.sampled_from(points)), signs)))
    order = draw(st.permutations(range(len(points))))
    return Environment(boxes, [Point3(*points[k]) for k in order])


# Every kind of message: a shared face, edge and corner, a zero and a
# negative extent, a point inside, and repeats of a -0.0 point.
EVERY_KIND = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1)),
                          AxisBox(Point3(1, 0, 0), Point3(2, 1, 1)),
                          AxisBox(Point3(1, 1, 0), Point3(2, 2, 1)),
                          AxisBox(Point3(-1, -1, -1), Point3(0, 0, 0)),
                          raw_box((3, 3, 3), (3, 2, 4))],
                         [Point3(0.5, 0.5, 0.5), Point3(-0.0, 7, 7), Point3(0.0, 7, 7),
                          Point3(0.5, 0.5, 0.5)])


@settings(max_examples=300, deadline=None)
@given(lattice_instances())
@example(EVERY_KIND)
def test_validation_matches_reference_loop(env):
    assert validate_environment(env) == reference_validate_environment(env)


def test_validation_reports_every_kind_in_reference_order():
    assert validate_environment(EVERY_KIND) == [
        "obstacle 4 has non-positive extent on axis 0",
        "obstacle 4 has non-positive extent on axis 1",
        "obstacles 0 and 1 touch or overlap (separation 0)",
        "obstacles 0 and 2 touch or overlap (separation 0)",
        "obstacles 0 and 3 touch or overlap (separation 0)",
        "obstacles 1 and 2 touch or overlap (separation 0)",
        "point 0 lies strictly inside obstacle 0",
        "point 3 lies strictly inside obstacle 0",
        "points 1 and 2 coincide",
        "points 0 and 3 coincide",
    ]


def test_validation_spans_the_float_range():
    """Corners near the ends of the float range, where extents and gaps
    overflow to infinities, validate without a warning; boxes one subnormal
    apart are disjoint, boxes that meet at a signed zero are not."""
    big = 1.5e308
    far = [AxisBox(Point3(-big, -big, -big), Point3(-1e308, big, big)),
           AxisBox(Point3(1e308, -big, -big), Point3(big, big, big))]
    points = [Point3(0, 0, 0), Point3(-1e308, 0, 0), Point3(big, big, big)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_environment(Environment(far, points)) == []
        crowded = Environment(far + [AxisBox(Point3(-big, -1, -1), Point3(big, 1, 1))], points)
        report = validate_environment(crowded)
    assert report == reference_validate_environment(crowded)
    assert "obstacles 0 and 2 touch or overlap (separation -5e+307)" in report
    assert "point 0 lies strictly inside obstacle 2" in report

    left = AxisBox(Point3(-1, 0, 0), Point3(-0.0, 1, 1))
    assert validate_environment(Environment([left, AxisBox(Point3(5e-324, 0, 0),
                                                           Point3(1, 1, 1))])) == []
    assert validate_environment(Environment([left, AxisBox(Point3(0.0, 0, 0),
                                                           Point3(1, 1, 1))])) == [
        "obstacles 0 and 1 touch or overlap (separation 0)"]


def test_environment_arrays_are_read_only_and_outside_equality(tmp_path):
    env = random_instance(GenConfig(seed=5, n=12, m=3))
    path = str(tmp_path / "inst.json")
    files.save_instance(path, env)
    digest = hash(env)
    arrays = (env.point_coords, env.obstacle_lo, env.obstacle_hi)
    assert [a.shape for a in arrays] == [(12, 3), (3, 3), (3, 3)]
    assert env.point_coords.tolist() == [list(p.as_tuple()) for p in env.points]
    assert env.point_coords is arrays[0]  # packed once
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    loaded = files.load_instance(path)
    assert loaded == env and env == loaded
    assert hash(loaded) == hash(env) == digest
    assert "array" not in repr(env)


def test_separation_signs():
    a = AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))
    assert separation(a, AxisBox(Point3(2, 0, 0), Point3(3, 1, 1))) == 1
    assert separation(a, AxisBox(Point3(1, 0, 0), Point3(2, 1, 1))) == 0
    assert separation(a, AxisBox(Point3(0.5, 0.5, 0.5), Point3(2, 2, 2))) < 0


def test_boundary_contact_is_allowed():
    env = Environment([AxisBox(Point3(0, 0, 0), Point3(1, 1, 1))], [Point3(0, 0.5, 0.5)])
    assert validate_environment(env) == []

