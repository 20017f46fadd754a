"""Planning instances: rectangular area, candidate sites, test points,
fixed obstacles, plus the knobs of the optimization itself.

Instances are generated from a seed (uniform i.i.d. points with a 1 m
minimum-separation rule) and persist as versioned JSON that round-trips
coordinates bit-exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .atomic import field, is_int, is_number, list_of, read_json, row_of, write_json
from .geometry import Point2D, Segment2D

FORMAT_VERSION = 1
MIN_SEPARATION_M = 1.0
_MAX_DRAW_ATTEMPTS = 1000


class ScenarioError(ValueError):
    """Invalid scenario contents (points outside the area, coincidences...)."""


class ScenarioFormatError(ScenarioError):
    """Malformed or unsupported scenario file."""


def _check_area(width: float, height: float) -> None:
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise ScenarioError(f"area dimensions must be finite and positive, not "
                            f"{width} x {height}")


@dataclass(frozen=True)
class Scenario:
    area_width: float
    area_height: float
    candidate_sites: tuple[Point2D, ...]
    test_points: tuple[Point2D, ...]
    fixed_obstacles: tuple[Segment2D, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        _check_area(self.area_width, self.area_height)
        if len(self.candidate_sites) < 1:
            raise ScenarioError("at least one candidate site required")
        if len(self.test_points) < 1:
            raise ScenarioError("at least one test point required")
        for label, pts in (("candidate_sites", self.candidate_sites),
                           ("test_points", self.test_points)):
            for p in pts:
                if not (0.0 <= p.x <= self.area_width and 0.0 <= p.y <= self.area_height):
                    raise ScenarioError(
                        f"{label} point ({p.x}, {p.y}) outside "
                        f"[0, {self.area_width}] x [0, {self.area_height}]")
        if len(set(self.candidate_sites)) != len(self.candidate_sites):
            raise ScenarioError("candidate sites must be pairwise distinct")
        cs_set = set(self.candidate_sites)
        for p in self.test_points:
            if p in cs_set:
                raise ScenarioError(f"test point ({p.x}, {p.y}) coincides with a candidate site")

    @property
    def n_sites(self) -> int:
        return len(self.candidate_sites)

    @property
    def n_test_points(self) -> int:
        return len(self.test_points)


@dataclass(frozen=True)
class PlanningConfig:
    """Knobs of the placement optimization.

    mu weighs angular separation (1) against link length (0) in the
    objective; budget caps installation cost at price_iab per base
    station and price_ris per surface; each test point demands
    demand_mbps on its primary link and xi * demand_mbps on the backup;
    fov_rad is the horizontal aperture of a surface. theta_norm_rad and
    len_norm_m only rescale the two objective terms (defaults: pi and the
    300x400 m reference-area diagonal). wired_capacity_mbps caps the
    donor's core attachment in the station-only model; the default stands
    in for "unlimited" while keeping coefficients finite.
    """

    mu: float = 0.5
    budget: float = 5.0
    demand_mbps: float = 100.0
    xi: float = 0.5
    price_iab: float = 1.0
    price_ris: float = 0.1
    fov_rad: float = math.pi
    theta_norm_rad: float = math.pi
    len_norm_m: float = 500.0
    wired_capacity_mbps: float = 1e9

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ScenarioError(f"{f.name} must be finite")
        if not 0.0 <= self.mu <= 1.0:
            raise ScenarioError("mu must lie in [0, 1]")
        if not 0.0 <= self.xi <= 1.0:
            raise ScenarioError("xi must lie in [0, 1]")
        for name in ("budget", "demand_mbps", "price_iab", "price_ris",
                     "fov_rad", "wired_capacity_mbps"):
            if getattr(self, name) < 0:
                raise ScenarioError(f"{name} must be non-negative")
        if self.theta_norm_rad <= 0 or self.len_norm_m <= 0:
            raise ScenarioError("normalizers must be positive")


def generate(width: float, height: float, n_cs: int, n_tp: int, seed: int) -> Scenario:
    """Draw a random instance: n_cs sites then n_tp test points, uniform
    i.i.d. over the rectangle, redrawing any point closer than 1 m to a
    previously accepted one. Deterministic per seed; no fixed obstacles.
    """
    if n_cs < 1 or n_tp < 1:
        raise ScenarioError("need at least one candidate site and one test point")
    _check_area(width, height)
    if seed < 0:
        raise ScenarioError(f"seed must be non-negative, not {seed}")
    rng = np.random.default_rng(seed)
    accepted: list[Point2D] = []
    for _ in range(n_cs + n_tp):
        for _attempt in range(_MAX_DRAW_ATTEMPTS):
            p = Point2D(float(rng.uniform(0.0, width)), float(rng.uniform(0.0, height)))
            if all(math.hypot(p.x - q.x, p.y - q.y) >= MIN_SEPARATION_M for q in accepted):
                accepted.append(p)
                break
        else:
            raise ScenarioError(
                f"could not place {n_cs} + {n_tp} points with "
                f"{MIN_SEPARATION_M} m separation in {width} x {height} m")
    return Scenario(
        area_width=float(width),
        area_height=float(height),
        candidate_sites=tuple(accepted[:n_cs]),
        test_points=tuple(accepted[n_cs:]),
        fixed_obstacles=(),
        seed=int(seed),
    )


def planning_from_dict(doc: dict) -> PlanningConfig | None:
    """The planning block of a scenario document, or None when it has none."""
    if "planning" not in doc:
        return None
    raw = field(ScenarioFormatError, doc, "planning", lambda value: isinstance(value, dict))
    unknown = set(raw) - {f.name for f in fields(PlanningConfig)}
    if unknown:
        raise ScenarioFormatError(f"unknown planning keys: {sorted(unknown)}")
    return PlanningConfig(**{key: field(ScenarioFormatError, raw, key, is_number,
                                        f"planning.{key}") for key in raw})


def scenario_to_dict(scenario: Scenario, planning: PlanningConfig | None = None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "area": {"width": scenario.area_width, "height": scenario.area_height},
        "candidate_sites": [[p.x, p.y] for p in scenario.candidate_sites],
        "test_points": [[p.x, p.y] for p in scenario.test_points],
        "fixed_obstacles": [[[s.a.x, s.a.y], [s.b.x, s.b.y]]
                            for s in scenario.fixed_obstacles],
        "seed": scenario.seed,
    }
    if planning is not None:
        doc["planning"] = asdict(planning)
    return doc


def save(scenario: Scenario, path: str | Path,
         planning: PlanningConfig | None = None) -> None:
    """Write the scenario (and optionally a planning block) as JSON, atomically."""
    write_json(path, scenario_to_dict(scenario, planning))


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    get = functools.partial(field, ScenarioFormatError)
    version = get(doc, "version", is_int)
    if version != FORMAT_VERSION:
        raise ScenarioFormatError(f"unsupported scenario file version {version!r}")
    area = get(doc, "area", lambda value: isinstance(value, dict))
    point = row_of(is_number, is_number)

    def points(raw) -> tuple[Point2D, ...]:
        return tuple(Point2D(float(x), float(y)) for x, y in raw)

    return Scenario(
        area_width=float(get(area, "width", is_number, "area.width")),
        area_height=float(get(area, "height", is_number, "area.height")),
        candidate_sites=points(get(doc, "candidate_sites", list_of(point))),
        test_points=points(get(doc, "test_points", list_of(point))),
        fixed_obstacles=tuple(Segment2D(*points(ends)) for ends in get(
            doc, "fixed_obstacles", list_of(row_of(point, point)))),
        seed=get(doc, "seed", is_int),
    )


def load(path: str | Path) -> Scenario:
    """Read a scenario file; raises ScenarioFormatError for malformed input
    and ScenarioError for invariant violations."""
    return scenario_from_dict(read_json(path, ScenarioFormatError)[0])
