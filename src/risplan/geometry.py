"""Planar geometric primitives: azimuths, angular separations, segment
intersection and angular-sector membership.

All angles are radians. Azimuths are measured counter-clockwise from the
+x axis and normalized to [0, 2*pi); angular distances are circular, so
0.1 and 2*pi - 0.1 are 0.2 rad apart. ``circular_distance`` is the one
place such a distance is taken, for scalars and arrays alike, and
``within_fov`` the one sector and aperture test. Everything here is pure
and stateless.

Segment intersection has one implementation, the numpy kernel
``segments_cross``, for closed segments (touching endpoints and collinear
overlap cross); obstacle masks and blockage scan with ``first_crossing``.
``first_crossing`` answers many segments against one obstacle list, or
against one list per trial, and runs the kernel only on the pairs whose
closed bounding boxes overlap. It works in blocks of at most
CROSSING_BLOCK_CELLS (trial, segment, obstacle) cells, so no temporary
grid grows with the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
# (segment, obstacle) pairs ``first_crossing`` tests per kernel call.
CROSSING_BLOCK_CELLS = 1 << 16


class GeometryError(ValueError):
    """Raised for degenerate geometric inputs (coincident points etc.)."""


@dataclass(frozen=True)
class Point2D:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class Segment2D:
    a: Point2D
    b: Point2D

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise GeometryError("zero-length segment")

    @property
    def length(self) -> float:
        return distance(self.a, self.b)


@dataclass(frozen=True)
class Sector:
    """Angular sector anchored at ``origin``: all directions whose circular
    distance to ``center_azimuth`` is at most ``span / 2``."""

    origin: Point2D
    center_azimuth: float
    span: float

    def __post_init__(self) -> None:
        if not 0.0 < self.span < TWO_PI:
            raise GeometryError(f"sector span {self.span!r} outside (0, 2*pi)")
        object.__setattr__(self, "center_azimuth", self.center_azimuth % TWO_PI)


def distance(p: Point2D, q: Point2D) -> float:
    return math.hypot(q.x - p.x, q.y - p.y)


def azimuth(origin: Point2D, target: Point2D) -> float:
    """Angle of the vector origin -> target, CCW from +x, in [0, 2*pi).

    Raises GeometryError for coincident points ("degenerate direction").
    """
    dx = target.x - origin.x
    dy = target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise GeometryError("degenerate direction: coincident points")
    return math.atan2(dy, dx) % TWO_PI


def circular_distance(a, b):
    """Shortest angular distance between angles, in [0, pi], broadcast over
    arrays (a numpy float for two scalars)."""
    d = np.abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def angular_separation(vertex: Point2D, p1: Point2D, p2: Point2D) -> float:
    """Smallest angle at ``vertex`` between the rays toward p1 and p2."""
    return circular_distance(azimuth(vertex, p1), azimuth(vertex, p2))


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_box(px, py, qx, qy, rx, ry):
    return ((np.minimum(px, qx) <= rx) & (rx <= np.maximum(px, qx))
            & (np.minimum(py, qy) <= ry) & (ry <= np.maximum(py, qy)))


def segments_cross(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Closed-segment test of a-b against c-d, broadcast over coordinate
    arrays. Touching endpoints and collinear overlap count as intersecting:
    a grazing contact with an obstacle blocks the line of sight. Verdicts
    are elementwise float64 arithmetic, whatever the shape of the input."""
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    proper = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    zero = np.asarray((d1 == 0) | (d2 == 0) | (d3 == 0) | (d4 == 0))
    if not zero.any():     # no touching or collinear pair: skip the box tests
        return proper
    return (proper & ~zero
            | (d1 == 0) & _in_box(cx, cy, dx, dy, ax, ay)
            | (d2 == 0) & _in_box(cx, cy, dx, dy, bx, by)
            | (d3 == 0) & _in_box(ax, ay, bx, by, cx, cy)
            | (d4 == 0) & _in_box(ax, ay, bx, by, dx, dy))


def segments_intersect(s1: Segment2D, s2: Segment2D) -> bool:
    """Closed-segment intersection test of two segments (``segments_cross``)."""
    return bool(segments_cross(s1.a.x, s1.a.y, s1.b.x, s1.b.y,
                               s2.a.x, s2.a.y, s2.b.x, s2.b.y))


def segment_coords(segments: Sequence[Segment2D]) -> np.ndarray:
    """(n, 4) float array of x1, y1, x2, y2 per segment."""
    return np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments]).reshape(-1, 4)


def first_crossing(ax, ay, bx, by, obstacles: np.ndarray) -> np.ndarray:
    """Index of the first row of ``obstacles`` that crosses each segment
    a_i-b_i, or n where none does. ``obstacles`` is (n, 4) as x1, y1, x2,
    y2, giving an (m,) result, or (trials, n, 4), giving one row of
    indices per trial, (trials, m).

    Only pairs whose closed, axis-aligned bounding boxes overlap reach
    ``segments_cross``. Two closed segments that meet share a point, and
    that point lies in both boxes, so a skipped pair cannot meet. (The
    orientation arithmetic of ``segments_cross`` rounds, so on nearly
    collinear pairs whose boxes are apart it could report a crossing that
    the box test rightly rules out.)"""
    ax, ay, bx, by = (np.asarray(v, dtype=float) for v in (ax, ay, bx, by))
    obstacles = np.asarray(obstacles, dtype=float)
    trials, n, m = obstacles.shape[:-2], obstacles.shape[-2], ax.shape[0]
    grid = obstacles.reshape(math.prod(trials), n, 4)
    rows = grid.reshape(-1, 4)
    first = np.full(grid.shape[0] * m, n)       # per (trial, segment)
    seg_box = [np.minimum(ax, bx)[:, None], np.minimum(ay, by)[:, None],
               np.maximum(ax, bx)[:, None], np.maximum(ay, by)[:, None]]
    obs_box = [np.minimum(grid[..., 0], grid[..., 2])[:, None, :],
               np.minimum(grid[..., 1], grid[..., 3])[:, None, :],
               np.maximum(grid[..., 0], grid[..., 2])[:, None, :],
               np.maximum(grid[..., 1], grid[..., 3])[:, None, :]]
    # Blocks of at most CROSSING_BLOCK_CELLS cells: several whole trials,
    # or a run of obstacles of one trial.
    o_step = max(1, min(n, CROSSING_BLOCK_CELLS // max(1, m)))
    t_step = max(1, CROSSING_BLOCK_CELLS // max(1, m * o_step))
    for t0 in range(0, grid.shape[0], t_step):
        for o0 in range(0, n, o_step):
            block = np.s_[t0:t0 + t_step, :, o0:o0 + o_step]
            near = ((seg_box[0] <= obs_box[2][block]) & (obs_box[0][block] <= seg_box[2])
                    & (seg_box[1] <= obs_box[3][block]) & (obs_box[1][block] <= seg_box[3]))
            # key: the (trial, segment) entry of ``first``; obs: the obstacle.
            key, obs = np.divmod(np.flatnonzero(near), near.shape[2])
            key += t0 * m
            obs += o0
            seg = key % m
            hit = segments_cross(ax[seg], ay[seg], bx[seg], by[seg],
                                 *rows[key // m * n + obs].T)
            np.minimum.at(first, key[hit], obs[hit])
    return first.reshape(trials + (m,))


def within_fov(orientation, ray_azimuth, fov):
    """Boundary-inclusive membership of rays in an aperture (or a sector)
    of ``fov`` radians centred on ``orientation``, broadcast over arrays.
    Expects fov in (0, 2*pi]."""
    return circular_distance(orientation, ray_azimuth) <= fov / 2.0


# Slack on aperture width: a set of rays fits in an aperture of F radians
# when its smallest covering arc is at most F + APERTURE_TOL wide.
APERTURE_TOL = 1e-9


def minimal_covering_arc(angles: Sequence[float]) -> tuple[float, float]:
    """Smallest circular arc containing every angle in ``angles``.

    Returns (width, center_azimuth). The width of a single distinct angle
    is 0; the largest possible width approaches 2*pi. Used to decide
    whether one aperture can cover a set of rays and to pick the aperture
    orientation (the arc midpoint).
    """
    a = sorted(x % TWO_PI for x in angles)
    if not a:
        raise GeometryError("empty angle set")
    n = len(a)
    # The minimal covering arc is the complement of the largest gap
    # between circularly consecutive angles.
    best_gap = -1.0
    best_i = 0
    for i in range(n):
        nxt = a[0] + TWO_PI if i == n - 1 else a[i + 1]
        gap = nxt - a[i]
        if gap > best_gap:
            best_gap = gap
            best_i = i
    width = max(0.0, TWO_PI - best_gap)
    start = a[(best_i + 1) % n]
    center = (start + width / 2.0) % TWO_PI
    return width, center
