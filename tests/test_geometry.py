import math

import numpy as np
import pytest

import risplan.geometry as geometry
from risplan.geometry import (GeometryError, Point2D, Sector, Segment2D,
                              angular_separation, azimuth, circular_distance,
                              first_crossing, minimal_covering_arc, segments_cross,
                              segments_intersect, within_fov)

TWO_PI = 2 * math.pi


def P(x, y):
    return Point2D(float(x), float(y))


def S(ax, ay, bx, by):
    return Segment2D(P(ax, ay), P(bx, by))


class TestAzimuth:
    def test_reference_direction(self):
        assert azimuth(P(0, 0), P(1, 0)) == 0.0

    def test_axis_case(self):
        assert azimuth(P(0, 0), P(0, 1)) == pytest.approx(math.pi / 2)

    def test_symmetry(self):
        assert azimuth(P(0, 0), P(-1, -1)) == pytest.approx(5 * math.pi / 4)

    def test_degenerate_direction(self):
        with pytest.raises(GeometryError, match="degenerate direction"):
            azimuth(P(3, 4), P(3, 4))

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            b = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if a == b:
                continue
            assert 0.0 <= azimuth(a, b) < TWO_PI


class TestAngularSeparation:
    def test_orthogonal_rays(self):
        assert angular_separation(P(0, 0), P(1, 0), P(0, 1)) == pytest.approx(math.pi / 2)

    def test_collinear_same_side(self):
        assert angular_separation(P(0, 0), P(1, 0), P(2, 0)) == 0.0

    def test_opposite_rays(self):
        assert angular_separation(P(0, 0), P(1, 0), P(-3, 0)) == pytest.approx(math.pi)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            v, p1, p2 = (P(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(3))
            if v == p1 or v == p2:
                continue
            dx, dy = rng.uniform(-100, 100), rng.uniform(-100, 100)
            moved = angular_separation(P(v.x + dx, v.y + dy),
                                       P(p1.x + dx, p1.y + dy),
                                       P(p2.x + dx, p2.y + dy))
            assert moved == pytest.approx(angular_separation(v, p1, p2), abs=1e-9)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            ang1, ang2, rot = rng.uniform(0, TWO_PI, size=3)
            r1, r2 = rng.uniform(0.5, 50.0, size=2)
            v = P(rng.uniform(-10, 10), rng.uniform(-10, 10))
            def at(angle, radius):
                return P(v.x + radius * math.cos(angle), v.y + radius * math.sin(angle))
            base = angular_separation(v, at(ang1, r1), at(ang2, r2))
            rotated = angular_separation(v, at(ang1 + rot, r1), at(ang2 + rot, r2))
            assert rotated == pytest.approx(base, abs=1e-9)


class TestSegmentsIntersect:
    def test_crossing_diagonals(self):
        assert segments_intersect(S(0, 0, 2, 2), S(0, 2, 2, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect(S(0, 0, 1, 0), S(0, 1, 1, 1))

    def test_shared_endpoint_counts(self):
        assert segments_intersect(S(0, 0, 1, 1), S(1, 1, 2, 0))

    def test_collinear_overlap_counts(self):
        assert segments_intersect(S(0, 0, 2, 0), S(1, 0, 3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect(S(0, 0, 1, 0), S(2, 0, 3, 0))

    def test_touch_interior(self):
        assert segments_intersect(S(0, 0, 2, 0), S(1, 0, 1, 1))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            pts = rng.uniform(-4, 4, size=8)
            try:
                s1 = S(pts[0], pts[1], pts[2], pts[3])
                s2 = S(pts[4], pts[5], pts[6], pts[7])
            except GeometryError:
                continue
            assert segments_intersect(s1, s2) == segments_intersect(s2, s1)

    def test_lattice_matches_scalar_oracle(self):
        # Integer endpoints make many orientation products exactly 0, so
        # touching, collinear and grazing cases are all exercised.
        coords = [(x, y) for x in range(4) for y in range(4)]
        segs = [(a, b) for a in coords for b in coords if a != b]
        ends = np.array([a + b for a, b in segs], dtype=float)       # (n, 4)
        grid = segments_cross(*(ends[:, None, i] for i in range(4)),
                              *(ends[None, :, i] for i in range(4)))
        for i, (a, b) in enumerate(segs):
            for j, (c, d) in enumerate(segs):
                want = _closed_segments_meet(*a, *b, *c, *d)
                assert grid[i, j] == want, (a, b, c, d)
                assert segments_intersect(S(*a, *b), S(*c, *d)) == want, (a, b, c, d)


def _lattice_segments():
    """Every segment between two distinct points of the 4 x 4 integer
    lattice, as an (n, 4) array: axis-parallel segments (zero-width
    boxes), shared endpoints and collinear overlaps all occur."""
    coords = [(x, y) for x in range(4) for y in range(4)]
    return np.array([a + b for a in coords for b in coords if a != b], dtype=float)


def _first_crossing_brute(segs, obstacles):
    """First crossing from the full segment x obstacle grid."""
    grid = segments_cross(*(segs[:, None, i] for i in range(4)),
                          *(obstacles[None, :, i] for i in range(4)))
    return np.where(grid.any(axis=1), grid.argmax(axis=1), len(obstacles))


class TestFirstCrossing:
    @pytest.mark.parametrize("cells", [1 << 16, 64, 1])
    def test_lattice_matches_full_grid(self, monkeypatch, cells):
        monkeypatch.setattr(geometry, "CROSSING_BLOCK_CELLS", cells)
        segs = _lattice_segments()
        rng = np.random.default_rng(8)
        for obstacles in (segs, segs[rng.permutation(len(segs))]):
            got = first_crossing(*segs.T, obstacles)
            assert got.tolist() == _first_crossing_brute(segs, obstacles).tolist()

    @pytest.mark.parametrize("cells", [1 << 16, 64, 1])
    def test_trial_batch_matches_one_call_per_trial(self, monkeypatch, cells):
        monkeypatch.setattr(geometry, "CROSSING_BLOCK_CELLS", cells)
        segs = _lattice_segments()
        rng = np.random.default_rng(9)
        batch = np.stack([segs[rng.permutation(len(segs))[:40]] for _ in range(6)])
        got = first_crossing(*segs.T, batch)
        assert got.shape == (6, len(segs))
        for trial, obstacles in zip(got, batch):
            assert trial.tolist() == _first_crossing_brute(segs, obstacles).tolist()

    def test_empty_inputs(self):
        segs = _lattice_segments()
        assert first_crossing(*segs.T, np.zeros((0, 4))).tolist() == [0] * len(segs)
        assert first_crossing([], [], [], [], segs).shape == (0,)
        assert first_crossing(*segs[:2].T, np.zeros((3, 0, 4))).tolist() == [[0, 0]] * 3


def _closed_segments_meet(ax, ay, bx, by, cx, cy, dx, dy):
    """Scalar closed-segment test, kept here as the oracle."""
    def orient(px, py, qx, qy, rx, ry):
        return (qx - px) * (ry - py) - (qy - py) * (rx - px)

    def in_box(px, py, qx, qy, rx, ry):
        return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)
    d1, d2 = orient(cx, cy, dx, dy, ax, ay), orient(cx, cy, dx, dy, bx, by)
    d3, d4 = orient(ax, ay, bx, by, cx, cy), orient(ax, ay, bx, by, dx, dy)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0
            and (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0):
        return True
    return ((d1 == 0 and in_box(cx, cy, dx, dy, ax, ay))
            or (d2 == 0 and in_box(cx, cy, dx, dy, bx, by))
            or (d3 == 0 and in_box(ax, ay, bx, by, cx, cy))
            or (d4 == 0 and in_box(ax, ay, bx, by, dx, dy)))


def holds(sector: Sector, target: Point2D) -> bool:
    """Whether the sector holds the direction toward ``target``: the test
    ``evaluate`` applies to a test point's body sector."""
    return bool(within_fov(sector.center_azimuth, azimuth(sector.origin, target), sector.span))


class TestSector:
    def test_on_axis(self):
        sec = Sector(P(0, 0), 0.0, 2 * math.pi / 3)
        assert holds(sec, P(1, 0))

    def test_opposite_direction(self):
        sec = Sector(P(0, 0), 0.0, 2 * math.pi / 3)
        assert not holds(sec, P(-1, 0))

    def test_boundary_inclusive(self):
        sec = Sector(P(0, 0), 0.0, 2 * math.pi / 3)
        target = P(math.cos(math.pi / 3), math.sin(math.pi / 3))
        assert holds(sec, target)

    def test_target_at_origin_errors(self):
        # A target at the sector's origin has no direction.
        sec = Sector(P(1, 1), 0.0, 1.0)
        with pytest.raises(GeometryError):
            holds(sec, P(1, 1))

    def test_span_validation(self):
        with pytest.raises(GeometryError):
            Sector(P(0, 0), 0.0, 0.0)
        with pytest.raises(GeometryError):
            Sector(P(0, 0), 0.0, TWO_PI)

    def test_wide_span_approaches_always_true(self):
        sec = Sector(P(0, 0), 1.234, TWO_PI - 1e-9)
        rng = np.random.default_rng(4)
        for _ in range(1000):
            target = P(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if target == sec.origin:
                continue
            assert holds(sec, target)


class TestWithinFov:
    def test_centered(self):
        assert within_fov(0.0, 0.0, math.pi)

    def test_outside_half_angle(self):
        assert not within_fov(0.0, 3 * math.pi / 4, math.pi)

    def test_wraparound(self):
        # circular distance between 0.1 and 2*pi - 0.1 is 0.2 <= pi/4
        assert within_fov(0.1, TWO_PI - 0.1, math.pi / 2)

    def test_full_circle_always_true(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            o, r = rng.uniform(0, TWO_PI, size=2)
            assert within_fov(o, r, TWO_PI)

    def test_self_always_true(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            o = rng.uniform(0, TWO_PI)
            f = rng.uniform(1e-9, TWO_PI)
            assert within_fov(o, o, f)


class TestCircularDistance:
    def test_arrays_match_the_scalar_form_bit_for_bit(self):
        rng = np.random.default_rng(8)
        a, b = rng.uniform(-2 * TWO_PI, 2 * TWO_PI, size=(2, 20_000))
        got = circular_distance(a, b)
        assert got.shape == a.shape
        for x, y, d in zip(a.tolist(), b.tolist(), got.tolist()):
            scalar = abs(x - y) % TWO_PI
            assert d == min(scalar, TWO_PI - scalar) == circular_distance(x, y)

    def test_broadcasts(self):
        rays = np.array([0.0, math.pi / 2, math.pi, 1.5 * math.pi])
        grid = circular_distance(rays[:, None], rays[None, :])
        assert grid.shape == (4, 4)
        assert np.array_equal(grid, grid.T) and not grid.diagonal().any()
        assert grid[0].tolist() == [0.0, math.pi / 2, math.pi, math.pi / 2]


class TestMinimalCoveringArc:
    def test_single_angle(self):
        width, center = minimal_covering_arc([1.3])
        assert width == 0.0
        assert center == pytest.approx(1.3)

    def test_wraparound_cluster(self):
        width, center = minimal_covering_arc([0.1, TWO_PI - 0.1])
        assert width == pytest.approx(0.2)
        assert circular_distance(center, 0.0) < 1e-12

    def test_covers_all_angles(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            angles = rng.uniform(0, TWO_PI, size=rng.integers(1, 8))
            width, center = minimal_covering_arc(angles)
            assert 0.0 <= width < TWO_PI + 1e-12
            for a in angles:
                assert circular_distance(a, center) <= width / 2 + 1e-9

    def test_empty_errors(self):
        with pytest.raises(GeometryError):
            minimal_covering_arc([])


class TestTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            Point2D(math.nan, 0.0)
        with pytest.raises(GeometryError):
            Point2D(0.0, math.inf)

    def test_zero_length_segment_rejected(self):
        with pytest.raises(GeometryError):
            Segment2D(P(1, 2), P(1, 2))

    def test_segment_length(self):
        assert S(0, 0, 3, 4).length == pytest.approx(5.0)

    def test_sector_normalizes_center(self):
        sec = Sector(P(0, 0), TWO_PI + 0.5, 1.0)
        assert sec.center_azimuth == pytest.approx(0.5)
