import ast
import hashlib
import json
import math
from pathlib import Path

import pytest

import risplan
from conftest import restrict_tuples
from risplan.oracle import OracleError, brute_force_plan
from risplan.planner import (MODE_BASELINE, MODE_RIS, build_baseline_model,
                             build_ris_model, plan_to_dict)
from risplan.radio import RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, generate
from risplan.solver import solve
from risplan.validate import validate_plan

# Recorded before the two mode searches became one; see test_oracle_results_pinned.
ORACLE_DIGEST = "3b33213c4c0f54776f72612a4b583756da654f76825afb85615283648ddf16f3"


class TestGuards:
    def test_size_guard(self):
        scenario = generate(300.0, 300.0, 8, 2, seed=0)
        tables = build_link_tables(scenario, RadioConfig())
        with pytest.raises(OracleError, match="too large"):
            brute_force_plan(scenario, tables, PlanningConfig(), MODE_RIS)

    def test_unknown_mode(self, small_instance):
        scenario, tables = small_instance
        with pytest.raises(OracleError, match="unknown mode"):
            brute_force_plan(scenario, tables, PlanningConfig(), "hybrid")


class TestOracleBasics:
    def test_zero_budget_infeasible(self, small_instance):
        scenario, tables = small_instance
        for mode in (MODE_RIS, MODE_BASELINE):
            res = brute_force_plan(scenario, tables, PlanningConfig(budget=0.0), mode)
            assert not res.feasible
            assert res.objective is None and res.plan is None

    def test_forced_installation_subset(self, small_instance):
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        # Budget fits exactly one station and one surface.
        cfg = PlanningConfig(mu=0.5, budget=1.1)
        res = brute_force_plan(scenario, masked, cfg, MODE_RIS)
        assert res.feasible
        assert res.plan.iab_nodes == (1,)
        assert res.plan.ris_sites == (2,)
        assert res.plan.donor == 1

    def test_ties_go_to_the_cheaper_plan(self, small_instance, default_cfg):
        # At budget 2.3 an extra idle station 0 ties the lean plan's
        # objective; the oracle must return the lean plan.
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        res = brute_force_plan(scenario, masked, default_cfg, MODE_RIS)
        assert res.plan.total_cost == pytest.approx(1.1)
        assert res.plan.donor == 1
        assert res.plan.iab_nodes == (1,)

    def test_matches_milp_on_forced_fixture(self, small_instance, default_cfg):
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        model = build_ris_model(scenario, masked, default_cfg)
        milp = solve(model)
        oracle = brute_force_plan(scenario, masked, default_cfg, MODE_RIS)
        assert milp.status == "optimal" and oracle.feasible
        assert milp.objective_value == pytest.approx(oracle.objective, rel=1e-6)

    def test_oracle_plans_validate_clean(self, small_instance):
        scenario, tables = small_instance
        for mode in (MODE_RIS, MODE_BASELINE):
            for mu in (0.0, 1.0):
                cfg = PlanningConfig(mu=mu, budget=2.4)
                res = brute_force_plan(scenario, tables, cfg, mode)
                assert res.feasible
                assert validate_plan(res.plan, scenario, tables, cfg) == []

    def test_deterministic(self, small_instance, default_cfg):
        scenario, tables = small_instance
        a = brute_force_plan(scenario, tables, default_cfg, MODE_RIS)
        b = brute_force_plan(scenario, tables, default_cfg, MODE_RIS)
        assert a.objective == b.objective
        assert a.plan == b.plan

    def test_budget_monotone(self, small_instance):
        scenario, tables = small_instance
        prev = -math.inf
        for budget in (1.1, 1.3, 2.2, 3.3):
            res = brute_force_plan(scenario, tables,
                                   PlanningConfig(mu=0.5, budget=budget), MODE_RIS)
            if res.feasible:
                assert res.objective >= prev - 1e-9
                prev = res.objective


class TestEquivalenceSample:
    """A fast slice of the full oracle-equivalence acceptance criterion."""

    # (seed, budget); at seed 27 an optimal aperture straddles the 0/2*pi
    # seam. The test ids are the seeds.
    CASES = [(0, 1.2), (1, 2.1), (2, 2.3), (3, 3.2), (27, 1.2)]

    @pytest.mark.parametrize("seed,budget", CASES, ids=[str(s) for s, _ in CASES])
    def test_modes_and_weights(self, seed, budget):
        scenario = generate(220.0, 220.0, 5, 2, seed=seed)
        tables = build_link_tables(scenario, RadioConfig())
        for mode in (MODE_RIS, MODE_BASELINE):
            for mu in (0.0, 0.5, 1.0):
                cfg = PlanningConfig(mu=mu, budget=budget)
                model = (build_ris_model(scenario, tables, cfg) if mode == MODE_RIS
                         else build_baseline_model(scenario, tables, cfg))
                milp = solve(model)
                oracle = brute_force_plan(scenario, tables, cfg, mode)
                assert (milp.status == "optimal") == oracle.feasible
                if oracle.feasible:
                    assert milp.objective_value == pytest.approx(
                        oracle.objective, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("seed,budget", CASES, ids=[str(s) for s, _ in CASES])
    def test_backup_fraction_and_wired_cap(self, seed, budget):
        """At xi 0.8, both modes agree, and the station-only model with the
        wired capacity 0.1 Mbps below the (1 + xi) * D * |T| it must carry
        is infeasible in both, 0.1 Mbps above it feasible with one optimum."""
        scenario = generate(220.0, 220.0, 5, 2, seed=seed)
        tables = build_link_tables(scenario, RadioConfig())
        carried = 1.8 * 100.0 * scenario.n_test_points
        cells = [(MODE_RIS, 1e9), (MODE_BASELINE, carried - 0.1),
                 (MODE_BASELINE, carried + 0.1)]
        verdicts = []
        for mode, wired in cells:
            cfg = PlanningConfig(mu=0.5, budget=budget, xi=0.8, demand_mbps=100.0,
                                 wired_capacity_mbps=wired)
            model = (build_ris_model(scenario, tables, cfg) if mode == MODE_RIS
                     else build_baseline_model(scenario, tables, cfg))
            milp = solve(model)
            oracle = brute_force_plan(scenario, tables, cfg, mode)
            assert (milp.status == "optimal") == oracle.feasible, (mode, wired)
            if oracle.feasible:
                assert milp.objective_value == pytest.approx(
                    oracle.objective, rel=1e-6, abs=1e-9)
                assert validate_plan(oracle.plan, scenario, tables, cfg) == []
            verdicts.append(oracle.feasible)
        # At budget 1.2 (seeds 0 and 27) one station cannot be primary and
        # backup, so the station-only model stays infeasible above the cap.
        assert verdicts[1:] == [False, budget > 2.0]


def _oracle_digest() -> str:
    """SHA-256 over (feasible, repr(objective), plan_to_dict(plan)) of the
    oracle on the TestEquivalenceSample instances: both modes at mu 0,
    0.5 and 1, plus the station-only model at xi 0.8."""
    cells = []
    for seed, budget in TestEquivalenceSample.CASES:
        scenario = generate(220.0, 220.0, 5, 2, seed=seed)
        tables = build_link_tables(scenario, RadioConfig())
        for mode, xi in ((MODE_RIS, 0.5), (MODE_BASELINE, 0.5), (MODE_BASELINE, 0.8)):
            for mu in (0.0, 0.5, 1.0):
                cfg = PlanningConfig(mu=mu, budget=budget, xi=xi)
                res = brute_force_plan(scenario, tables, cfg, mode)
                cells.append([res.feasible,
                              None if res.objective is None else repr(float(res.objective)),
                              None if res.plan is None else plan_to_dict(res.plan)])
    text = json.dumps(cells, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_oracle_results_pinned():
    """The oracle's verdicts, optima and tie-broken plans on a fixed grid
    are pinned bit for bit; no solver is involved."""
    assert _oracle_digest() == ORACLE_DIGEST


# What the oracle and the audit may take from planner: the plan type, the
# airtime rule and the mode names, nothing that builds or solves a model.
PLANNER_NAMES = {"NetworkPlan", "access_airtime", "MODE_RIS", "MODE_BASELINE"}


@pytest.mark.parametrize("module", ["oracle", "validate"])
def test_checks_independent_of_the_builders(module):
    """The oracle and the audit import nothing from milp or solver, and
    from planner only PLANNER_NAMES, so neither can share a mistake with
    the MILP route."""
    source = (Path(risplan.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [(node.module or "").split(".") + [alias.name] for alias in node.names]
        else:
            continue
        for path in paths:
            assert "milp" not in path and "solver" not in path, (module, path)
            if "planner" in path:
                assert path[-1] in PLANNER_NAMES, (module, path)
