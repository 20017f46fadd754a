import json
import math

import pytest

from risplan.geometry import Point2D, Segment2D
from risplan.scenario import (PlanningConfig, Scenario, ScenarioError,
                              ScenarioFormatError, generate, load,
                              load_planning, save)


class TestGenerate:
    def test_reference_instance_shape(self):
        s = generate(300.0, 400.0, 25, 15, seed=42)
        assert s.n_sites == 25
        assert s.n_test_points == 15
        for p in s.candidate_sites + s.test_points:
            assert 0.0 <= p.x <= 300.0
            assert 0.0 <= p.y <= 400.0
        assert s.fixed_obstacles == ()

    def test_same_seed_identical(self):
        assert generate(300, 400, 10, 6, seed=7) == generate(300, 400, 10, 6, seed=7)

    def test_distinct_seeds_differ(self):
        assert generate(300, 400, 10, 6, seed=1) != generate(300, 400, 10, 6, seed=2)

    def test_minimal_instance(self):
        s = generate(100.0, 100.0, 1, 1, seed=0)
        assert s.n_sites == 1 and s.n_test_points == 1
        assert s.candidate_sites[0] != s.test_points[0]

    def test_minimum_separation(self):
        s = generate(50.0, 50.0, 12, 8, seed=3)
        pts = s.candidate_sites + s.test_points
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert math.hypot(p.x - q.x, p.y - q.y) >= 1.0

    def test_zero_counts_rejected(self):
        with pytest.raises(ScenarioError):
            generate(100, 100, 0, 5, seed=0)
        with pytest.raises(ScenarioError):
            generate(100, 100, 5, 0, seed=0)

    @pytest.mark.parametrize("width, height", [(math.nan, 100.0), (100.0, math.inf),
                                               (-math.inf, 100.0), (0.0, 100.0)])
    def test_non_finite_or_empty_area_rejected(self, width, height):
        with pytest.raises(ScenarioError, match="finite and positive"):
            generate(width, height, 3, 2, seed=0)
        with pytest.raises(ScenarioError, match="finite and positive"):
            Scenario(width, height, (Point2D(1, 1),), (Point2D(2, 2),))

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed must be non-negative"):
            generate(100.0, 100.0, 3, 2, seed=-1)

    def test_impossible_placement(self):
        with pytest.raises(ScenarioError, match="could not place"):
            generate(2.0, 2.0, 40, 40, seed=0)


class TestScenarioInvariants:
    def test_point_outside_area(self):
        with pytest.raises(ScenarioError, match="outside"):
            Scenario(10.0, 10.0, (Point2D(11.0, 5.0),), (Point2D(1.0, 1.0),))

    def test_duplicate_sites(self):
        with pytest.raises(ScenarioError, match="distinct"):
            Scenario(10.0, 10.0, (Point2D(1, 1), Point2D(1, 1)), (Point2D(2, 2),))

    def test_tp_on_cs(self):
        with pytest.raises(ScenarioError, match="coincides"):
            Scenario(10.0, 10.0, (Point2D(1, 1),), (Point2D(1, 1),))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        s = generate(300.0, 400.0, 9, 4, seed=99)
        path = tmp_path / "scenario.json"
        save(s, path)
        assert load(path) == s

    def test_round_trip_with_obstacles(self, tmp_path):
        base = generate(300.0, 400.0, 5, 3, seed=4)
        s = Scenario(base.area_width, base.area_height, base.candidate_sites,
                     base.test_points,
                     (Segment2D(Point2D(10.5, 20.25), Point2D(99.125, 200.0)),),
                     base.seed)
        path = tmp_path / "scenario.json"
        save(s, path)
        assert load(path) == s

    def test_missing_field(self, tmp_path):
        s = generate(100.0, 100.0, 3, 2, seed=0)
        path = tmp_path / "scenario.json"
        save(s, path)
        doc = json.loads(path.read_text())
        del doc["test_points"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="missing field test_points"):
            load(path)

    @pytest.mark.parametrize("value", ["100", "wide", [100.0], None, True])
    def test_area_not_a_number_rejected(self, tmp_path, value):
        path = tmp_path / "scenario.json"
        save(generate(100.0, 100.0, 3, 2, seed=0), path)
        doc = json.loads(path.read_text())
        doc["area"]["height"] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="malformed field area.height"):
            load(path)

    def test_point_outside_area_on_load(self, tmp_path):
        s = generate(100.0, 100.0, 3, 2, seed=0)
        path = tmp_path / "scenario.json"
        save(s, path)
        doc = json.loads(path.read_text())
        doc["test_points"][0] = [500.0, 500.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="outside"):
            load(path)

    def test_unknown_version_rejected(self, tmp_path):
        s = generate(100.0, 100.0, 3, 2, seed=0)
        path = tmp_path / "scenario.json"
        save(s, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="version"):
            load(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioFormatError, match="not valid JSON"):
            load(path)

    def test_planning_block_round_trip(self, tmp_path):
        s = generate(100.0, 100.0, 3, 2, seed=0)
        cfg = PlanningConfig(mu=1.0, budget=7.25, demand_mbps=150.0)
        path = tmp_path / "scenario.json"
        save(s, path, planning=cfg)
        assert load(path) == s
        assert load_planning(path) == cfg

    def test_planning_block_absent(self, tmp_path):
        s = generate(100.0, 100.0, 3, 2, seed=0)
        path = tmp_path / "scenario.json"
        save(s, path)
        assert load_planning(path) is None


class TestPlanningConfig:
    def test_defaults_match_reference_parameters(self):
        cfg = PlanningConfig()
        assert cfg.demand_mbps == 100.0
        assert cfg.xi == 0.5
        assert cfg.price_iab == 1.0
        assert cfg.price_ris == 0.1

    def test_mu_bounds(self):
        with pytest.raises(ScenarioError):
            PlanningConfig(mu=1.5)
        with pytest.raises(ScenarioError):
            PlanningConfig(mu=-0.1)

    def test_normalizers_positive(self):
        with pytest.raises(ScenarioError):
            PlanningConfig(theta_norm_rad=0.0)
        with pytest.raises(ScenarioError):
            PlanningConfig(len_norm_m=-1.0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ScenarioError):
            PlanningConfig(budget=-1.0)

    @pytest.mark.parametrize("name", sorted(PlanningConfig.__dataclass_fields__))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ScenarioError, match=f"{name} must be finite"):
            PlanningConfig(**{name: value})

    def test_non_finite_planning_block_rejected(self, tmp_path):
        path = tmp_path / "s.json"
        save(generate(100.0, 100.0, 3, 2, seed=0), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps(dict(doc, planning={"budget": math.nan})))
        with pytest.raises(ScenarioError, match="budget must be finite"):
            load_planning(path)
