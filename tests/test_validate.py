import math
from dataclasses import replace

import numpy as np
import pytest

from risplan.oracle import brute_force_plan
from risplan.planner import (MODE_BASELINE, NetworkPlan, build_baseline_model,
                             build_ris_model, extract_plan)
from risplan.radio import LinkBudgetTable, RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, Scenario, generate
from risplan.solver import solve
from risplan.validate import validate_plan
from risplan.geometry import Point2D


def names(violations):
    return [v.constraint_name for v in violations]


@pytest.fixture
def solved_plan(small_instance, default_cfg):
    scenario, tables = small_instance
    model = build_ris_model(scenario, tables, default_cfg)
    res = solve(model)
    plan = extract_plan(model, res.variable_values, scenario, tables, default_cfg)
    return plan, scenario, tables, default_cfg


class TestCleanPlans:
    def test_decoded_optimum_has_no_violations(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        assert validate_plan(plan, scenario, tables, cfg) == []


class TestConstructedViolations:
    def test_budget_overrun(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        tight = replace(cfg, budget=plan.total_cost - 0.1)
        violations = validate_plan(plan, scenario, tables, tight)
        assert names(violations) == ["budget"]
        assert violations[0].magnitude == pytest.approx(0.1, abs=1e-9)

    def test_theta_consistency(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        bumped = replace(plan, theta_per_tp=tuple(v + 0.5 for v in plan.theta_per_tp))
        violations = validate_plan(bumped, scenario, tables, cfg)
        assert all(n.startswith("theta_consistency") for n in names(violations))
        assert len(violations) == scenario.n_test_points

    def test_len_consistency(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        shrunk = replace(plan, len_per_tp=tuple(v - 1.0 for v in plan.len_per_tp))
        violations = validate_plan(shrunk, scenario, tables, cfg)
        assert all(n.startswith("len_consistency") for n in names(violations))

    def test_fov_violation(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        spun = replace(plan, orientations_rad={
            r: (phi + math.pi) % (2 * math.pi)
            for r, phi in plan.orientations_rad.items()})
        violations = validate_plan(spun, scenario, tables, cfg)
        assert any(n.startswith("fov_c") for n in names(violations))

    def test_missing_orientation(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        bare = replace(plan, orientations_rad={})
        violations = validate_plan(bare, scenario, tables, cfg)
        assert any(n.startswith("fov_orientation_missing") for n in names(violations))

    def test_colocation(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        overlapping = replace(plan, ris_sites=tuple(set(plan.ris_sites) | {plan.donor}))
        violations = validate_plan(overlapping, scenario, tables, cfg)
        assert any(n.startswith("colocation") for n in names(violations))

    def test_unknown_donor(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        orphan = replace(plan, iab_nodes=tuple(c for c in plan.iab_nodes
                                               if c != plan.donor))
        violations = validate_plan(orphan, scenario, tables, cfg)
        assert "donor_requires_iab" in names(violations)


class TestIndicesFitScenario:
    """Site numbers and per-test-point lists that do not fit the scenario
    are violations, reported before any table lookup."""

    @pytest.mark.parametrize("bad_site", [99, 6, -1])
    def test_assignment_site_out_of_range(self, solved_plan, bad_site):
        plan, scenario, tables, cfg = solved_plan
        misfit = replace(plan, assignments=((bad_site, bad_site),) * scenario.n_test_points)
        violations = validate_plan(misfit, scenario, tables, cfg)
        assert set(names(violations)) == {
            f"site_index_assignment_t{t}" for t in range(scenario.n_test_points)}
        assert all(v.lhs_value == bad_site for v in violations)

    @pytest.mark.parametrize("field, value, name", [
        ("donor", -1, "site_index_donor"),
        ("iab_nodes", (0, 6), "site_index_iab_nodes"),
        ("ris_sites", (-2,), "site_index_ris_sites"),
        ("backhaul_edges", ((0, 7),), "site_index_backhaul_edges"),
        ("flows_mbps", {(-1, 0): 1.0}, "site_index_flows"),
        ("orientations_rad", {6: 0.0}, "site_index_orientations"),
    ])
    def test_other_site_numbers_out_of_range(self, solved_plan, field, value, name):
        plan, scenario, tables, cfg = solved_plan
        assert scenario.n_sites == 6
        violations = validate_plan(replace(plan, **{field: value}), scenario, tables, cfg)
        assert names(violations) == [name]

    @pytest.mark.parametrize("field", ["theta_per_tp", "len_per_tp", "assignments"])
    def test_per_test_point_lists_must_match(self, solved_plan, field):
        plan, scenario, tables, cfg = solved_plan
        name = "assignment_partition" if field == "assignments" else f"{field}_length"
        for values in (getattr(plan, field)[:-1], (), getattr(plan, field) * 2):
            violations = validate_plan(replace(plan, **{field: values}), scenario, tables, cfg)
            assert names(violations) == [name]
            assert violations[0].lhs_value == len(values) - scenario.n_test_points


class TestBackhaulArborescence:
    """Constructed violations of the tree rooted at the donor. The budget
    is lifted so the extra stations are the only fault."""

    @staticmethod
    def _spare_sites(plan, scenario):
        used = set(plan.iab_nodes) | set(plan.ris_sites)
        return [c for c in range(scenario.n_sites) if c not in used]

    def test_station_detached_from_donor(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        spare = self._spare_sites(plan, scenario)[0]
        detached = replace(plan, iab_nodes=tuple(sorted(plan.iab_nodes + (spare,))))
        violations = validate_plan(detached, scenario, tables,
                                   replace(cfg, budget=100.0))
        assert names(violations) == [f"tree_reach_c{spare}"]

    def test_idle_two_station_cycle(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        a, b = self._spare_sites(plan, scenario)[:2]
        assert tables.delta_bh[a, b] == 1 and tables.delta_bh[b, a] == 1
        cyclic = replace(
            plan,
            iab_nodes=tuple(sorted(plan.iab_nodes + (a, b))),
            backhaul_edges=plan.backhaul_edges + ((a, b), (b, a)),
            flows_mbps={**plan.flows_mbps, (a, b): 0.0, (b, a): 0.0})
        violations = validate_plan(cyclic, scenario, tables,
                                   replace(cfg, budget=100.0))
        assert names(violations) == [f"tree_reach_c{a}", f"tree_reach_c{b}"]


class TestFlowCapacityIsolated:
    def test_exactly_one_violation_with_magnitude_one(self):
        """Synthetic two-station fixture: the only broken constraint is the
        backhaul capacity, exceeded by exactly 1 Mbps."""
        sites = (Point2D(0.0, 0.0), Point2D(100.0, 0.0))
        tps = (Point2D(100.0, 50.0),)
        scenario = Scenario(200.0, 200.0, sites, tps, (), 0)
        cap_bh = 1e9
        demand = cap_bh + 1.0  # flow donor -> serving station exceeds cap by 1
        n_c, n_t = 2, 1
        theta = np.zeros((n_t, n_c, n_c))
        len_tc = np.hypot([[sites[c].x - tps[0].x for c in range(n_c)]],
                          [[sites[c].y - tps[0].y for c in range(n_c)]])
        tables = LinkBudgetTable(
            delta_acc=np.ones((n_t, n_c), dtype=np.int8),
            delta_bh=(np.ones((n_c, n_c)) - np.eye(n_c)).astype(np.int8),
            delta_src=np.zeros((n_t, n_c, n_c), dtype=np.int8),
            cap_acc=np.full((n_t, n_c), 1e16),
            cap_bh=np.full((n_c, n_c), cap_bh) * (1 - np.eye(n_c)),
            cap_ref=np.zeros((n_t, n_c, n_c)),
            theta=theta,
            len_tc=len_tc,
            phi_a=np.zeros((n_c, n_t)),
            phi_b=np.zeros((n_c, n_c)),
        )
        cfg = PlanningConfig(mu=0.0, budget=2.0, demand_mbps=demand, xi=0.0,
                             wired_capacity_mbps=1e18)
        plan = NetworkPlan(
            mode="baseline",
            donor=0,
            iab_nodes=(0, 1),
            ris_sites=(),
            assignments=((1, 0),),  # primary on station 1, backup on the donor
            backhaul_edges=((0, 1),),
            flows_mbps={(0, 1): demand},
            wired_inflow_mbps=demand,
            orientations_rad={},
            theta_per_tp=(0.0,),
            len_per_tp=(0.5 * float(len_tc[0, 0] + len_tc[0, 1]),),
            total_cost=2.0,
            objective_value=0.0,
        )
        violations = validate_plan(plan, scenario, tables, cfg)
        assert names(violations) == ["flow_capacity_c0_c1"]
        assert violations[0].magnitude == pytest.approx(1.0, rel=1e-9)


class TestFlowsAndOrientationsFitThePlan:
    """Flows lie exactly on the backhaul edges, and only listed surfaces
    carry an orientation."""

    def test_stray_flow_off_the_tree(self):
        # Desk seed 0, default radio, station-only at B 4, mu 0: the tree is
        # 3 -> 4 -> 8 -> 0. Routing 400 Mbps over the non-edge (4, 0)
        # instead of through 8 keeps every balance and airtime in bounds.
        scenario = generate(190.0, 253.0, 12, 8, seed=0)
        tables = build_link_tables(scenario, RadioConfig())
        cfg = PlanningConfig(mu=0.0, budget=4.0, len_norm_m=317.0)
        model = build_baseline_model(scenario, tables, cfg)
        plan = extract_plan(model, solve(model).variable_values, scenario, tables, cfg)
        assert plan.backhaul_edges == ((3, 4), (4, 8), (8, 0))
        assert validate_plan(plan, scenario, tables, cfg) == []
        flows = dict(plan.flows_mbps)
        flows[(4, 8)] -= 400.0
        flows[(8, 0)] -= 400.0
        flows[(4, 0)] = 400.0
        violations = validate_plan(replace(plan, flows_mbps=flows), scenario, tables, cfg)
        assert names(violations) == ["flow_edge_c4_c0"]

    @pytest.fixture
    def station_only_plan(self, small_instance):
        scenario, tables = small_instance
        cfg = PlanningConfig(mu=0.5, budget=2.4)
        plan = brute_force_plan(scenario, tables, cfg, MODE_BASELINE).plan
        assert validate_plan(plan, scenario, tables, cfg) == []
        return plan, scenario, tables, cfg

    def test_missing_flow(self, station_only_plan):
        plan, scenario, tables, cfg = station_only_plan
        (c, d), = plan.backhaul_edges
        violations = validate_plan(replace(plan, flows_mbps={}), scenario, tables, cfg)
        assert f"flow_edge_c{c}_c{d}" in names(violations)

    def test_flow_on_pair_without_capacity(self, solved_plan):
        # A station has no backhaul link to itself; the audit reports the
        # flow instead of dividing by its zero capacity.
        plan, scenario, tables, cfg = solved_plan
        d = plan.donor
        assert tables.cap_bh[d, d] == 0
        looped = replace(plan, flows_mbps={**plan.flows_mbps, (d, d): 5.0})
        violations = validate_plan(looped, scenario, tables, cfg)
        assert names(violations) == [f"flow_capacity_c{d}_c{d}", f"flow_edge_c{d}_c{d}"]

    def test_orientation_on_a_station(self, solved_plan):
        plan, scenario, tables, cfg = solved_plan
        pointed = replace(plan, orientations_rad={**plan.orientations_rad, plan.donor: 0.0})
        violations = validate_plan(pointed, scenario, tables, cfg)
        assert names(violations) == [f"fov_orientation_stray_c{plan.donor}"]

    def test_station_only_plan_has_no_orientation(self, station_only_plan):
        plan, scenario, tables, cfg = station_only_plan
        station = plan.iab_nodes[0]
        pointed = replace(plan, orientations_rad={station: 1.0})
        violations = validate_plan(pointed, scenario, tables, cfg)
        assert names(violations) == [f"fov_orientation_stray_c{station}"]
