import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import risplan.geometry as geometry
import risplan.resilience as resilience
from risplan.geometry import Point2D, Segment2D, azimuth, segments_intersect, within_fov
from risplan.planner import (MODE_RIS, NetworkPlan, build_baseline_model, build_ris_model,
                             extract_plan, load_plan)
from risplan.radio import RadioConfig, build_link_tables
from risplan.resilience import (SECTOR_SPANS, ResilienceError, evaluate, resilience_gain,
                                report_summary_csv, report_to_dict, report_trials_csv,
                                sample_trial, trial_seed_for)
from risplan.scenario import PlanningConfig, Scenario, generate
from risplan.solver import solve
from risplan.validate import validate_plan


# The stored plan of the 6-site, 3-test-point instance (seed 1) solved at
# mu 1, budget 3.4. Loading it, instead of re-solving, keeps the evaluator
# pins below independent of which tied optimum the solver picks.
RIS_PLAN_FILE = Path(__file__).parent / "data" / "ris_plan_small_mu1.json"


def _ris_plan_instance():
    scenario = generate(200.0, 200.0, 6, 3, seed=1)
    return scenario, build_link_tables(scenario, RadioConfig()), PlanningConfig(mu=1.0, budget=3.4)


@pytest.fixture(scope="module")
def ris_plan():
    scenario, _, _ = _ris_plan_instance()
    return load_plan(RIS_PLAN_FILE), scenario


def test_stored_plan_still_optimal():
    """Re-solving the stored plan's model reaches at least its objective,
    and the decoded plan audits clean."""
    scenario, tables, cfg = _ris_plan_instance()
    model = build_ris_model(scenario, tables, cfg)
    res = solve(model)
    plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
    assert res.objective_value >= load_plan(RIS_PLAN_FILE).objective_value - 1e-9
    assert validate_plan(plan, scenario, tables, cfg) == []


class TestSampleTrial:
    def test_zero_obstacles(self):
        tps = (Point2D(10.0, 10.0), Point2D(20.0, 20.0))
        trial = sample_trial(100.0, 100.0, 0, tps, seed=5)
        assert trial.obstacles == ()
        assert len(trial.self_blockage) == 2

    def test_determinism(self):
        tps = (Point2D(10.0, 10.0),)
        assert sample_trial(100, 100, 7, tps, seed=9) == sample_trial(100, 100, 7, tps, seed=9)

    def test_obstacle_length_and_orientation(self):
        tps = (Point2D(10.0, 10.0),)
        trial = sample_trial(500.0, 500.0, 200, tps, seed=3)
        for seg in trial.obstacles:
            assert seg.length == pytest.approx(5.0)
            ang = azimuth(seg.a, seg.b)
            assert 0.0 <= ang < math.pi  # ordering a->b fixed by the sampler

    def test_span_frequencies(self):
        tps = (Point2D(10.0, 10.0),)
        spans = []
        for i in range(10_000):
            trial = sample_trial(100.0, 100.0, 0, tps, seed=trial_seed_for(123, i))
            spans.append(trial.self_blockage[0].span)
        frac_narrow = sum(1 for s in spans if s == pytest.approx(2 * math.pi / 3)) / len(spans)
        assert frac_narrow == pytest.approx(0.5, abs=0.02)

    def test_negative_count_rejected(self):
        with pytest.raises(ResilienceError):
            sample_trial(100.0, 100.0, -1, (Point2D(1, 1),), seed=0)

    @pytest.mark.parametrize("n_obstacles", [0, 1, 60])
    def test_equals_its_trial_in_a_batch(self, n_obstacles):
        # A trial drawn alone equals the same seed drawn among others.
        tps = tuple(Point2D(10.0 * i + 1, 5.0) for i in range(5))
        seeds = [trial_seed_for(31, i) for i in range(7)]
        obstacles, spans, centers = resilience._draw_trials(
            190.0, 253.0, n_obstacles, len(tps), seeds, 5.0)
        assert obstacles.shape == (7, n_obstacles, 4) and spans.shape == (7, 5)
        for i, seed in enumerate(seeds):
            trial = sample_trial(190.0, 253.0, n_obstacles, tps, seed)
            assert [[o.a.x, o.a.y, o.b.x, o.b.y] for o in trial.obstacles] == obstacles[i].tolist()
            assert [s.span for s in trial.self_blockage] == spans[i].tolist()
            assert [s.center_azimuth for s in trial.self_blockage] == centers[i].tolist()
            assert [s.origin for s in trial.self_blockage] == list(tps)

    @pytest.mark.parametrize("length", [0.0, -5.0, math.nan, math.inf])
    def test_bad_obstacle_length_rejected(self, length):
        with pytest.raises(ResilienceError, match="obstacle length"):
            sample_trial(100.0, 100.0, 3, (Point2D(1, 1),), seed=0,
                         obstacle_length_m=length)

    @pytest.mark.parametrize("length", [1e-15, 1e-320])
    def test_point_obstacles_rejected(self, length):
        # Half the length is lost against the center coordinates, so both
        # endpoints of a drawn obstacle coincide.
        with pytest.raises(ResilienceError, match="coincident endpoints"):
            sample_trial(100, 100, 50, (Point2D(1, 1),), seed=0, obstacle_length_m=length)


# One test point at (100, 100) with a station 50 m east (site 0), a
# surface 50 m north (site 1) and a donor south-east of the station (site 2).
TP = Point2D(100.0, 100.0)
LINE = Scenario(200.0, 200.0, (Point2D(150.0, 100.0), Point2D(100.0, 150.0),
                               Point2D(150.0, 30.0)), (TP,))


def _line_plan(assignments=((0, 1),)) -> NetworkPlan:
    return NetworkPlan(mode=MODE_RIS, donor=2, iab_nodes=(0, 2), ris_sites=(1,),
                       assignments=assignments, backhaul_edges=((2, 0),),
                       flows_mbps={(2, 0): 100.0}, wired_inflow_mbps=100.0,
                       orientations_rad={1: 1.5 * math.pi}, theta_per_tp=(math.pi / 2,),
                       len_per_tp=(50.0,), total_cost=2.1, objective_value=0.0)


def _placed_trial(monkeypatch, obstacles, center):
    """Make evaluate's one trial hold these obstacles, in this order, and
    a narrow sector centred on ``center``, instead of drawing them."""
    def placed(width, height, n_obstacles, n_tps, seeds, length):
        assert len(seeds) == 1 and n_obstacles == len(obstacles)
        return (np.array(obstacles, float).reshape(1, -1, 4),
                np.full((1, n_tps), SECTOR_SPANS[0]), np.full((1, n_tps), center))
    monkeypatch.setattr(resilience, "_draw_trials", placed)


class TestBlockageRule:
    """The per-leg blockage rule, as ``evaluate`` applies it."""

    def test_sector_center_always_blocks(self):
        # Station 0 moved 10 m along the centre line of the sector that
        # evaluate draws: its leg is blocked, but only while sectors count.
        trial = sample_trial(200.0, 200.0, 0, (TP,), trial_seed_for(1, 0))
        center = trial.self_blockage[0].center_azimuth
        site = Point2D(TP.x + 10 * math.cos(center), TP.y + 10 * math.sin(center))
        scenario = replace(LINE, candidate_sites=(site,) + LINE.candidate_sites[1:])
        plan = _line_plan(((0, 0),))
        assert evaluate(plan, scenario, [0], 1, base_seed=1).per_trial == ((0.0,),)
        assert evaluate(plan, scenario, [0], 1, base_seed=1,
                        self_blockage=False).per_trial == ((1.0,),)

    def test_station_surface_leg_exempt(self, monkeypatch):
        # Obstacles across the station-surface leg and the backhaul edge
        # block neither terminal-side leg, whatever the count.
        across_ris_leg = (123.0, 123.0, 127.0, 127.0)
        across_backhaul = (145.0, 65.0, 155.0, 65.0)
        for (x1, y1, x2, y2), (c, d) in ((across_ris_leg, (0, 1)), (across_backhaul, (2, 0))):
            leg = Segment2D(LINE.candidate_sites[c], LINE.candidate_sites[d])
            assert segments_intersect(leg, Segment2D(Point2D(x1, y1), Point2D(x2, y2)))
        _placed_trial(monkeypatch, [across_ris_leg, across_backhaul], 1.25 * math.pi)
        report = evaluate(_line_plan(), LINE, [0, 1, 2], 1, base_seed=0)
        assert report.per_trial == ((1.0, 1.0, 1.0),)

    def test_obstacle_blocks_direct(self, monkeypatch):
        # The sector faces away from both legs. Obstacle 0 crosses nothing,
        # obstacle 1 the leg to the station, obstacle 2 the leg to the
        # surface: count k activates the first k, and the test point is lost
        # once both legs are.
        obstacles = [(10.0, 10.0, 12.0, 12.0), (105.0, 98.0, 105.0, 102.0),
                     (98.0, 105.0, 102.0, 105.0)]
        _placed_trial(monkeypatch, obstacles, 1.25 * math.pi)
        counts = [0, 1, 2, 3]
        assert evaluate(_line_plan(), LINE, counts, 1, 0).per_trial == ((1.0, 1.0, 1.0, 0.0),)
        alone = _line_plan(((0, 0),))
        assert evaluate(alone, LINE, counts, 1, 0).per_trial == ((1.0, 1.0, 0.0, 0.0),)


class TestEvaluate:
    def test_all_served_without_obstacles_or_sectors(self, ris_plan):
        plan, scenario = ris_plan
        report = evaluate(plan, scenario, [0], 10, base_seed=4, self_blockage=False)
        assert report.served_mean == (1.0,)
        assert report.served_std == (0.0,)

    def test_per_trial_monotone_in_count(self, ris_plan):
        plan, scenario = ris_plan
        report = evaluate(plan, scenario, [0, 5, 20, 60, 150], 40, base_seed=11)
        for row in report.per_trial:
            assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))

    def test_deterministic(self, ris_plan):
        plan, scenario = ris_plan
        a = evaluate(plan, scenario, [0, 10, 30], 15, base_seed=7)
        b = evaluate(plan, scenario, [0, 10, 30], 15, base_seed=7)
        assert a == b

    def test_matches_is_link_blocked(self, ris_plan):
        # evaluate() decides whole batches at once; cross-check each trial
        # against a per-leg reference built from sample_trial's objects.
        def is_link_blocked(trial, t, site, k):
            tp, sector = scenario.test_points[t], trial.self_blockage[t]
            leg = Segment2D(tp, site)
            return bool(within_fov(sector.center_azimuth, azimuth(tp, site), sector.span)
                        or any(segments_intersect(leg, o) for o in trial.obstacles[:k]))

        plan, scenario = ris_plan
        counts = [0, 8, 25]
        report = evaluate(plan, scenario, counts, 20, base_seed=21)
        for trial_index in range(20):
            trial = sample_trial(scenario.area_width, scenario.area_height,
                                 counts[-1], scenario.test_points,
                                 trial_seed_for(21, trial_index))
            for j, k in enumerate(counts):
                served = sum(
                    not all(is_link_blocked(trial, t, scenario.candidate_sites[c], k)
                            for c in pair)
                    for t, pair in enumerate(plan.assignments))
                assert report.per_trial[trial_index][j] == pytest.approx(
                    served / scenario.n_test_points)

    def test_secondary_path_never_hurts(self, ris_plan):
        plan, scenario = ris_plan
        # Degenerate twin: secondary collapses onto the primary, so service
        # depends on the primary alone.
        solo = replace(plan, assignments=tuple((c, c) for (c, _) in plan.assignments))
        counts = [0, 10, 40, 120]
        with_backup = evaluate(plan, scenario, counts, 30, base_seed=13)
        without = evaluate(solo, scenario, counts, 30, base_seed=13)
        for row_with, row_without in zip(with_backup.per_trial, without.per_trial):
            assert all(a >= b - 1e-12 for a, b in zip(row_with, row_without))

    def test_opposite_links_survive_self_blockage(self):
        # Two stations on opposite sides of the test point: the two access
        # azimuths are pi apart, and the widest sector half-span is
        # 4*pi/9 < pi/2, so a sector can never swallow both links.
        scenario = Scenario(200.0, 200.0,
                            (Point2D(50.0, 100.0), Point2D(150.0, 100.0)),
                            (Point2D(100.0, 100.0),), (), 0)
        tables = build_link_tables(scenario, RadioConfig())
        cfg = PlanningConfig(mu=1.0, budget=2.0)
        model = build_baseline_model(scenario, tables, cfg)
        res = solve(model)
        plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
        assert plan.theta_per_tp[0] == pytest.approx(math.pi)
        report = evaluate(plan, scenario, [0], 500, base_seed=17)
        assert report.served_mean == (1.0,)

    @pytest.mark.parametrize("self_blockage", [True, False])
    def test_block_sizes_do_not_change_the_report(self, ris_plan, monkeypatch,
                                                  self_blockage):
        plan, scenario = ris_plan
        args = (plan, scenario, [0, 5, 20, 60, 150], 15)
        want = evaluate(*args, base_seed=7, self_blockage=self_blockage)
        monkeypatch.setattr(geometry, "CROSSING_BLOCK_CELLS", 64)
        assert evaluate(*args, base_seed=7, self_blockage=self_blockage) == want
        # Four trials per drawn batch, the last one short.
        monkeypatch.setattr(resilience, "TRIAL_BLOCK_OBSTACLES", 4 * 150)
        assert evaluate(*args, base_seed=7, self_blockage=self_blockage) == want

    @pytest.mark.parametrize("length", [0.0, -5.0, math.nan, math.inf])
    def test_bad_obstacle_length_rejected(self, ris_plan, length):
        plan, scenario = ris_plan
        with pytest.raises(ResilienceError, match="obstacle length"):
            evaluate(plan, scenario, [0, 10], 3, base_seed=0, obstacle_length_m=length)

    @pytest.mark.parametrize("length", [1e-15, 1e-320])
    def test_point_obstacles_rejected(self, ris_plan, length):
        plan, scenario = ris_plan
        with pytest.raises(ResilienceError, match="coincident endpoints"):
            evaluate(plan, scenario, [0, 10], 3, base_seed=0, obstacle_length_m=length)

    def test_unsorted_counts_rejected(self, ris_plan):
        plan, scenario = ris_plan
        with pytest.raises(ResilienceError):
            evaluate(plan, scenario, [10, 5], 3, base_seed=0)

    def test_structurally_broken_plan_rejected(self, ris_plan):
        plan, scenario = ris_plan
        broken = replace(plan, assignments=plan.assignments[:-1])
        with pytest.raises(ResilienceError):
            evaluate(broken, scenario, [0], 3, base_seed=0)


class TestGain:
    def test_identical_reports_zero_gain(self, ris_plan):
        plan, scenario = ris_plan
        r = evaluate(plan, scenario, [0, 10], 5, base_seed=3)
        assert resilience_gain(r, r) == (0.0, 0.0)

    def test_arithmetic(self, ris_plan):
        plan, scenario = ris_plan
        base = evaluate(plan, scenario, [0, 10], 5, base_seed=3)
        ris = replace(base, served_mean=(0.9, 0.9))
        capped = replace(base, served_mean=(0.6, 0.0))
        gains = resilience_gain(ris, capped)
        assert gains[0] == pytest.approx(0.5)
        assert gains[1] == math.inf

    def test_both_zero(self, ris_plan):
        plan, scenario = ris_plan
        base = evaluate(plan, scenario, [0], 5, base_seed=3)
        a = replace(base, served_mean=(0.0,))
        assert resilience_gain(a, a) == (0.0,)

    def test_mismatched_grids(self, ris_plan):
        plan, scenario = ris_plan
        a = evaluate(plan, scenario, [0, 10], 5, base_seed=3)
        b = evaluate(plan, scenario, [0, 20], 5, base_seed=3)
        with pytest.raises(ResilienceError):
            resilience_gain(a, b)


class TestReportSerialization:
    def test_csv_headers_and_shapes(self, ris_plan):
        plan, scenario = ris_plan
        report = evaluate(plan, scenario, [0, 10], 4, base_seed=2)
        trials = report_trials_csv(report).splitlines()
        assert trials[0] == "obstacle_count,trial,served_fraction"
        assert len(trials) == 1 + 2 * 4
        summary = report_summary_csv(report).splitlines()
        assert summary[0] == "obstacle_count,mean,std"
        assert len(summary) == 1 + 2

    def test_json_metadata(self, ris_plan):
        plan, scenario = ris_plan
        report = evaluate(plan, scenario, [0, 10], 4, base_seed=2)
        doc = report_to_dict(report, plan_digest="abc", scenario_digest="def")
        assert doc["plan_digest"] == "abc"
        assert doc["n_trials"] == 4
        assert len(doc["trial_seeds"]) == 4
        assert doc["trial_seeds"][0] == trial_seed_for(2, 0)

    @pytest.mark.parametrize("self_blockage, digest", [
        (True, "44545f12e5b1c459f00da84b9d7e6ab68bbc88bdd3e77817fb80e40872cb2832"),
        (False, "df51b5b7960c92d074e48746cd0ad00b50ee5d3f1dba6618bea9c9d7dafec10e"),
    ])
    def test_report_bytes_pinned(self, ris_plan, self_blockage, digest):
        # Recorded with the scalar, one-object-per-obstacle evaluator.
        plan, scenario = ris_plan
        report = evaluate(plan, scenario, [0, 5, 20, 60, 150], 15, base_seed=7,
                          self_blockage=self_blockage)
        text = json.dumps(report_to_dict(report))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
