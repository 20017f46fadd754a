"""Monte Carlo blockage evaluation of a deployed plan.

Each trial drops short linear obstacles at uniform positions and
orientations and gives every test point a self-blockage sector (span
2*pi/3 or 8*pi/9 with equal probability, uniform center). A test point
is served while at least one of its two access links survives; station
to station and station to surface legs are exempt from nomadic blockage
(their fixed-obstacle exposure was already settled at planning time).
``evaluate`` is the one implementation of this rule.

Within one trial the obstacle list is a fixed ordered sample and count k
activates its first k entries, so the served set shrinks monotonically
as k grows; trial seeds are spawned from (base_seed, trial_index) via
numpy's SeedSequence, making serial and parallel runs agree bit for bit.

Trials are drawn as arrays, many at a time (``_draw_trials``): each
trial's raw uniforms come from its own generator, then one elementwise
transform turns all of them into obstacles and sectors. ``evaluate``
answers every (trial, leg, obstacle) triple of a batch through one
``first_crossing`` call, which skips pairs whose bounding boxes do not
overlap and bounds its temporary grids; ``sample_trial`` is the same
draw for one seed, wrapped in objects. Batches hold at most
TRIAL_BLOCK_OBSTACLES drawn obstacles, so memory does not grow with the
number of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (TWO_PI, Point2D, Sector, Segment2D, azimuth, first_crossing,
                       within_fov)
from .planner import MODE_BASELINE, MODE_RIS, NetworkPlan
from .scenario import Scenario

DEFAULT_OBSTACLE_LENGTH_M = 5.0
# Obstacles drawn per batch of trials in ``evaluate`` (at least one trial).
TRIAL_BLOCK_OBSTACLES = 1 << 18
SECTOR_SPANS = (2.0 * math.pi / 3.0, 8.0 * math.pi / 9.0)


class ResilienceError(ValueError):
    """Bad evaluation inputs (mismatched grids, structurally broken plan)."""


@dataclass(frozen=True)
class BlockageTrial:
    trial_seed: int
    obstacles: tuple[Segment2D, ...]
    self_blockage: tuple[Sector, ...]


@dataclass(frozen=True)
class ResilienceReport:
    obstacle_counts: tuple[int, ...]
    served_mean: tuple[float, ...]
    served_std: tuple[float, ...]
    per_trial: tuple[tuple[float, ...], ...]  # [trial][count index]
    n_trials: int
    base_seed: int


def trial_seed_for(base_seed: int, trial_index: int) -> int:
    """Splittable per-trial seed: 64-bit word 0 of
    SeedSequence([base_seed, trial_index])."""
    ss = np.random.SeedSequence([base_seed, trial_index])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _draw_trials(area_width: float, area_height: float, n_obstacles: int, n_tps: int,
                 seeds, obstacle_length_m: float):
    """Trials as arrays, one per seed: obstacles (trials, n_obstacles, 4)
    as x1, y1, x2, y2, then sector spans and centers (trials, n_tps). Each
    trial draws from ``default_rng(seed)``, per obstacle, center x, center
    y and angle in [0, pi); then, per test point, a span choice (the
    narrow span below 0.5) and a center in [0, 2*pi). The transform of
    the draws is elementwise, so a trial does not depend on its batch."""
    if n_obstacles < 0:
        raise ResilienceError("max_obstacles must be non-negative")
    if not (math.isfinite(obstacle_length_m) and obstacle_length_m > 0.0):
        raise ResilienceError(f"obstacle length {obstacle_length_m!r} must be finite and > 0")
    raw = np.empty((len(seeds), n_obstacles, 3))
    sector = np.empty((len(seeds), n_tps, 2))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=raw[i])
        rng.random(out=sector[i])
    draws = raw * np.array([area_width, area_height, math.pi])
    # math.cos / math.sin, not numpy's: endpoints stay on the platform libm.
    angles, half = draws[..., 2].ravel().tolist(), obstacle_length_m / 2.0
    dx, dy = (half * np.fromiter(map(f, angles), float, len(angles)).reshape(draws.shape[:2])
              for f in (math.cos, math.sin))
    cx, cy = draws[..., 0], draws[..., 1]
    obstacles = np.stack((cx - dx, cy - dy, cx + dx, cy + dy), axis=-1)
    # A length lost in rounding against the center leaves a point, not an obstacle.
    points = (obstacles[..., 0] == obstacles[..., 2]) & (obstacles[..., 1] == obstacles[..., 3])
    if points.any():
        raise ResilienceError(f"obstacle length {obstacle_length_m!r} is too short: obstacle "
                              f"{int(points.argmax()) % n_obstacles} has coincident endpoints")
    spans = np.where(sector[..., 0] < 0.5, SECTOR_SPANS[0], SECTOR_SPANS[1])
    return obstacles, spans, (sector[..., 1] * TWO_PI) % TWO_PI


def sample_trial(area_width: float, area_height: float, max_obstacles: int,
                 tp_positions: tuple[Point2D, ...], seed: int,
                 obstacle_length_m: float = DEFAULT_OBSTACLE_LENGTH_M) -> BlockageTrial:
    """Draw one trial as objects: ``max_obstacles`` ordered obstacles, then
    one sector per test point, in ``_draw_trials``'s fixed order."""
    obstacles, spans, centers = _draw_trials(area_width, area_height, max_obstacles,
                                             len(tp_positions), [seed], obstacle_length_m)
    return BlockageTrial(
        trial_seed=int(seed),
        obstacles=tuple(Segment2D(Point2D(x1, y1), Point2D(x2, y2))
                        for x1, y1, x2, y2 in obstacles[0].tolist()),
        self_blockage=tuple(Sector(origin=tp, center_azimuth=c, span=w) for tp, c, w
                            in zip(tp_positions, centers[0].tolist(), spans[0].tolist())))


def _check_plan_structure(plan: NetworkPlan, scenario: Scenario) -> None:
    if plan.mode not in (MODE_RIS, MODE_BASELINE):
        raise ResilienceError(f"unknown plan mode {plan.mode!r}")
    if len(plan.assignments) != scenario.n_test_points:
        raise ResilienceError("plan does not assign every test point")
    n_c = scenario.n_sites
    for t, (a, b) in enumerate(plan.assignments):
        if not (0 <= a < n_c and 0 <= b < n_c):
            raise ResilienceError(f"assignment of test point {t} references unknown site")


def evaluate(plan: NetworkPlan, scenario: Scenario, obstacle_counts: list[int],
             n_trials: int, base_seed: int, self_blockage: bool = True,
             obstacle_length_m: float = DEFAULT_OBSTACLE_LENGTH_M) -> ResilienceReport:
    """Served-test-point statistics across trials and obstacle counts.

    One trial samples max(obstacle_counts) obstacles; count k activates
    the first k of them (nested prefixes), so per-trial served counts are
    non-increasing in k. A test point is served if its primary or its
    secondary terminal-side link is unblocked. ``self_blockage=False``
    drops the sector rule, leaving only obstacle crossings.
    """
    counts = list(obstacle_counts)
    if not counts or any(k < 0 for k in counts) or counts != sorted(counts):
        raise ResilienceError("obstacle_counts must be non-negative and ascending")
    if n_trials < 1:
        raise ResilienceError("n_trials must be >= 1")
    if base_seed < 0:
        raise ResilienceError(f"base_seed must be non-negative, not {base_seed}")
    _check_plan_structure(plan, scenario)

    tps, sites, n_t = scenario.test_points, scenario.candidate_sites, scenario.n_test_points
    # Terminal-side legs, (primary, secondary) per test point: endpoint
    # coordinates and azimuths, shared by every trial.
    legs = [(tps[t], sites[c]) for t, pair in enumerate(plan.assignments) for c in pair]
    ends = np.array([(a.x, a.y, b.x, b.y) for a, b in legs]).T
    rays = np.array([azimuth(a, b) for a, b in legs]).reshape(n_t, 2)
    active = np.array(counts)[:, None, None, None]

    per_trial: list[tuple[float, ...]] = []
    block = max(1, TRIAL_BLOCK_OBSTACLES // max(1, counts[-1]))
    for start in range(0, n_trials, block):
        seeds = [trial_seed_for(base_seed, i)
                 for i in range(start, min(n_trials, start + block))]
        obstacles, spans, centers = _draw_trials(
            scenario.area_width, scenario.area_height, counts[-1], n_t, seeds,
            obstacle_length_m)
        first = first_crossing(*ends, obstacles).reshape(len(seeds), n_t, 2)
        usable = first >= active                                    # (K, B, T, 2)
        if self_blockage:
            usable &= ~within_fov(centers[..., None], rays, spans[..., None])
        served = usable.any(axis=3).sum(axis=2).T                   # (B, K)
        per_trial.extend(tuple(v / n_t for v in row) for row in served.tolist())

    matrix = np.array(per_trial)
    return ResilienceReport(
        obstacle_counts=tuple(counts),
        served_mean=tuple(float(v) for v in matrix.mean(axis=0)),
        served_std=tuple(float(v) for v in matrix.std(axis=0)),
        per_trial=tuple(per_trial),
        n_trials=n_trials,
        base_seed=int(base_seed),
    )


def resilience_gain(ris_report: ResilienceReport,
                    baseline_report: ResilienceReport) -> tuple[float, ...]:
    """Per-count relative gain of one report over another:
    mean_a / mean_b - 1, with 0 where both means are 0."""
    if (ris_report.obstacle_counts != baseline_report.obstacle_counts
            or ris_report.n_trials != baseline_report.n_trials):
        raise ResilienceError("mismatched report grids")
    gains = []
    for a, b in zip(ris_report.served_mean, baseline_report.served_mean):
        if a == 0.0 and b == 0.0:
            gains.append(0.0)
        elif b == 0.0:
            gains.append(math.inf)
        else:
            gains.append(a / b - 1.0)
    return tuple(gains)


# -- report serialization -------------------------------------------------


def report_trials_csv(report: ResilienceReport) -> str:
    lines = ["obstacle_count,trial,served_fraction"]
    for j, k in enumerate(report.obstacle_counts):
        for i in range(report.n_trials):
            lines.append(f"{k},{i},{report.per_trial[i][j]!r}")
    return "\n".join(lines) + "\n"


def report_summary_csv(report: ResilienceReport) -> str:
    lines = ["obstacle_count,mean,std"]
    for j, k in enumerate(report.obstacle_counts):
        lines.append(f"{k},{report.served_mean[j]!r},{report.served_std[j]!r}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: ResilienceReport, plan_digest: str | None = None,
                   scenario_digest: str | None = None) -> dict:
    doc = {
        "obstacle_counts": list(report.obstacle_counts),
        "served_mean": list(report.served_mean),
        "served_std": list(report.served_std),
        "per_trial": [list(row) for row in report.per_trial],
        "n_trials": report.n_trials,
        "base_seed": report.base_seed,
        "trial_seeds": [trial_seed_for(report.base_seed, i)
                        for i in range(report.n_trials)],
    }
    if plan_digest is not None:
        doc["plan_digest"] = plan_digest
    if scenario_digest is not None:
        doc["scenario_digest"] = scenario_digest
    return doc
