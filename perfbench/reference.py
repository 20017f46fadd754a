"""Reference computations the benchmark checks the program against.

Nothing here imports ``risplan``: every quantity is rebuilt from the
formulas the README states and the conventions the program documents.

* ``link_activation``: a numpy link budget (log-distance path loss,
  thermal noise, array gains, the N^2 surface law, the inclusive CQI
  ladder) with fixed-obstacle masking, giving the access pairs and the
  (test point, station, surface) triples a model may assign.
* ``segments_intersect_many``: a vectorized closed-segment test with the
  same orientation arithmetic as ``geometry.segments_intersect``, so
  touching endpoints and collinear overlap count as crossings and every
  verdict is bit-identical to the scalar test.
* ``redraw_trial`` / ``served_shares``: a redraw of one blockage trial
  in the draw order ``resilience.sample_trial`` documents, and the served
  share per obstacle count under the rule ``resilience.evaluate``
  documents.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

# README "Defaults worth knowing": radio parameters and the rate ladder.
TX_POWER_DBM = 30.0
BS_ARRAY_ELEMENTS = 64
RIS_ELEMENTS = 10_000
RIS_APERTURE_DB = 20.0 * math.log10(math.pi)
BANDWIDTH_HZ = 400e6
NOISE_FIGURE_DB = 7.0
PATHLOSS_INTERCEPT_DB = 61.4
PATHLOSS_SLOPE_DB = 20.0
LOWEST_SNR_DB = -6.7          # first ladder entry; thresholds are inclusive
# A link whose reference SNR lies this close to the lowest threshold is
# too close to call across two floating-point evaluation orders.
BORDERLINE_DB = 1e-9

# README "How the plan survives blockage".
OBSTACLE_LENGTH_M = 5.0
SECTOR_SPANS = (2.0 * math.pi / 3.0, 8.0 * math.pi / 9.0)

# Obstacles scanned at once by ``blocked_pairs``.
OBSTACLE_CHUNK = 64


# -- geometry -------------------------------------------------------------


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _in_box(px, py, qx, qy, rx, ry):
    return ((np.minimum(px, qx) <= rx) & (rx <= np.maximum(px, qx))
            & (np.minimum(py, qy) <= ry) & (ry <= np.maximum(py, qy)))


def segments_intersect_many(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """Closed-segment test of a-b against c-d, broadcast over arrays.

    Touching endpoints and collinear overlap count as intersecting.
    """
    d1 = _orient(cx, cy, dx, dy, ax, ay)
    d2 = _orient(cx, cy, dx, dy, bx, by)
    d3 = _orient(ax, ay, bx, by, cx, cy)
    d4 = _orient(ax, ay, bx, by, dx, dy)
    proper = (((d1 > 0) != (d2 > 0)) & (d1 != 0) & (d2 != 0)
              & ((d3 > 0) != (d4 > 0)) & (d3 != 0) & (d4 != 0))
    touch = ((d1 == 0) & _in_box(cx, cy, dx, dy, ax, ay)
             | (d2 == 0) & _in_box(cx, cy, dx, dy, bx, by)
             | (d3 == 0) & _in_box(ax, ay, bx, by, cx, cy)
             | (d4 == 0) & _in_box(ax, ay, bx, by, dx, dy))
    return proper | touch


def first_crossing(ax, ay, bx, by, obstacles: np.ndarray) -> np.ndarray:
    """Index of the first obstacle crossing each segment a_i-b_i, or the
    obstacle count when none does. ``obstacles`` is (O, 4): x1, y1, x2, y2.
    """
    ax, ay, bx, by = (np.asarray(v, dtype=float)[:, None] for v in (ax, ay, bx, by))
    o = np.asarray(obstacles, dtype=float).reshape(-1, 4)
    if o.shape[0] == 0:
        return np.zeros(ax.shape[0], dtype=int)
    hit = segments_intersect_many(ax, ay, bx, by, o[:, 0], o[:, 1], o[:, 2], o[:, 3])
    return np.where(hit.any(axis=1), hit.argmax(axis=1), o.shape[0])


def blocked_pairs(px, py, qx, qy, obstacles: np.ndarray) -> np.ndarray:
    """blocked[i, j]: segment p_i-q_j crosses an obstacle. Obstacles are
    scanned in chunks so memory stays at (len(p), len(q), OBSTACLE_CHUNK)."""
    px, py = np.asarray(px, float)[:, None, None], np.asarray(py, float)[:, None, None]
    qx, qy = np.asarray(qx, float)[None, :, None], np.asarray(qy, float)[None, :, None]
    blocked = np.zeros((px.shape[0], qx.shape[1]), dtype=bool)
    o = np.asarray(obstacles, dtype=float).reshape(-1, 4)
    for s in range(0, o.shape[0], OBSTACLE_CHUNK):
        b = o[s:s + OBSTACLE_CHUNK]
        blocked |= segments_intersect_many(px, py, qx, qy,
                                           b[:, 0], b[:, 1], b[:, 2], b[:, 3]).any(axis=2)
    return blocked


# -- link budget ------------------------------------------------------------


def _noise_dbm() -> float:
    return -174.0 + 10.0 * math.log10(BANDWIDTH_HZ) + NOISE_FIGURE_DB


def _path_loss_db(d: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return PATHLOSS_INTERCEPT_DB + PATHLOSS_SLOPE_DB * np.log10(d)


def link_snr_db(sites: np.ndarray, tps: np.ndarray):
    """SNR in dB of every direct (T, C) and reflected (T, C, R) link.
    ``sites`` is (C, 2), ``tps`` is (T, 2)."""
    bs_gain = 10.0 * math.log10(BS_ARRAY_ELEMENTS)
    noise = _noise_dbm()
    d_tc = np.hypot(tps[:, None, 0] - sites[None, :, 0], tps[:, None, 1] - sites[None, :, 1])
    d_cc = np.hypot(sites[:, None, 0] - sites[None, :, 0], sites[:, None, 1] - sites[None, :, 1])
    direct = TX_POWER_DBM + bs_gain - _path_loss_db(d_tc) - noise
    reflected = (TX_POWER_DBM + bs_gain + 20.0 * math.log10(RIS_ELEMENTS) + RIS_APERTURE_DB
                 - noise - _path_loss_db(d_cc)[None, :, :] - _path_loss_db(d_tc)[:, None, :])
    return direct, reflected


def link_activation(sites: np.ndarray, tps: np.ndarray, obstacles: np.ndarray):
    """Access pairs and source triples a planning model may assign.

    Returns (acc, src, borderline): acc[t, c] and src[t, c, r] are bool
    arrays; borderline[t, c, r] marks triples whose direct or reflected
    SNR is within BORDERLINE_DB of the lowest threshold, which callers
    leave out of an exact comparison.
    """
    direct, reflected = link_snr_db(sites, tps)
    n_c = sites.shape[0]
    blocked_tc = blocked_pairs(tps[:, 0], tps[:, 1], sites[:, 0], sites[:, 1], obstacles)
    blocked_cc = blocked_pairs(sites[:, 0], sites[:, 1], sites[:, 0], sites[:, 1], obstacles)
    np.fill_diagonal(blocked_cc, False)
    acc = (direct >= LOWEST_SNR_DB) & ~blocked_tc
    src = (acc[:, :, None] & ~blocked_cc[None, :, :] & ~blocked_tc[:, None, :]
           & (reflected >= LOWEST_SNR_DB) & ~np.eye(n_c, dtype=bool)[None, :, :])
    near_direct = np.abs(direct - LOWEST_SNR_DB) <= BORDERLINE_DB
    borderline = (near_direct[:, :, None]
                  | (np.abs(reflected - LOWEST_SNR_DB) <= BORDERLINE_DB))
    return acc, src, borderline


# -- blockage ---------------------------------------------------------------


def redraw_trial(width: float, height: float, n_obstacles: int, n_tps: int, seed: int):
    """Redraw one trial from its seed: for each obstacle centre x, centre y
    and angle in [0, pi); then for each test point a span choice (first
    span when the draw is below 0.5) and a sector centre in [0, 2*pi).

    Returns (obstacles (O, 4), spans (T,), centres (T,)).
    """
    rng = np.random.default_rng(seed)
    draws = rng.random((n_obstacles, 3)) * np.array([width, height, math.pi])
    half = OBSTACLE_LENGTH_M / 2.0
    obstacles = np.empty((n_obstacles, 4))
    for i, (cx, cy, ang) in enumerate(draws.tolist()):
        dx, dy = half * math.cos(ang), half * math.sin(ang)
        obstacles[i] = (cx - dx, cy - dy, cx + dx, cy + dy)
    sector = rng.random((n_tps, 2))
    spans = np.where(sector[:, 0] < 0.5, SECTOR_SPANS[0], SECTOR_SPANS[1])
    centres = sector[:, 1] * TWO_PI
    return obstacles, spans, centres


def _circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def served_shares(tps: np.ndarray, sites: np.ndarray, assignments, counts,
                  obstacles: np.ndarray, spans, centres) -> tuple[float, ...]:
    """Served share at each obstacle count: a test point is served while
    one of its two access links (test point to each assigned site) is
    outside its self-blockage sector and crosses none of the first k
    obstacles."""
    n_t = len(assignments)
    ends = np.array([[sites[a], sites[b]] for a, b in assignments])   # (T, 2, 2)
    start = np.repeat(tps[:n_t], 2, axis=0)
    stop = ends.reshape(-1, 2)
    first = first_crossing(start[:, 0], start[:, 1], stop[:, 0], stop[:, 1],
                           obstacles).reshape(n_t, 2)
    in_sector = np.zeros((n_t, 2), dtype=bool)
    for t in range(n_t):
        for leg in range(2):
            ray = math.atan2(ends[t, leg, 1] - tps[t, 1], ends[t, leg, 0] - tps[t, 0]) % TWO_PI
            in_sector[t, leg] = (_circular_distance(ray, float(centres[t]))
                                 <= float(spans[t]) / 2.0)
    shares = []
    for k in counts:
        served = ((~in_sector) & (first >= k)).any(axis=1).sum()
        shares.append(int(served) / n_t)
    return tuple(shares)


# -- planning objective ------------------------------------------------------


def plan_objective(tps: np.ndarray, sites: np.ndarray, assignments, mu: float,
                   theta_norm: float, len_norm: float) -> float:
    """mu * sum(theta_t) / theta_norm - (1 - mu) * sum(l_t) / len_norm, with
    theta_t the angle at test point t between its two assigned sites and
    l_t the mean of the two distances, from coordinates alone."""
    theta_sum = len_sum = 0.0
    for t, (a, b) in enumerate(assignments):
        tx, ty = float(tps[t, 0]), float(tps[t, 1])
        az_a = math.atan2(sites[a, 1] - ty, sites[a, 0] - tx) % TWO_PI
        az_b = math.atan2(sites[b, 1] - ty, sites[b, 0] - tx) % TWO_PI
        theta_sum += _circular_distance(az_a, az_b)
        len_sum += 0.5 * (math.hypot(sites[a, 0] - tx, sites[a, 1] - ty)
                          + math.hypot(sites[b, 0] - tx, sites[b, 1] - ty))
    return mu * theta_sum / theta_norm - (1.0 - mu) * len_sum / len_norm
