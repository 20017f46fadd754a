import os
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

from conftest import restrict_tuples
from risplan.milp import BINARY, CONTINUOUS, MilpModel
from risplan.planner import build_baseline_model, build_ris_model, extract_plan
from risplan.radio import RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, generate
from risplan import solver
from risplan.solver import (STATUS_ERROR, STATUS_INFEASIBLE, STATUS_OPTIMAL,
                            STATUS_TIME_LIMIT, solve)
from risplan.validate import validate_plan


class TestSolve:
    def test_forced_fixture_optimal(self, small_instance, default_cfg):
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        model = build_ris_model(scenario, masked, default_cfg)
        res = solve(model)
        assert res.status == STATUS_OPTIMAL
        assert res.gap == 0.0
        assert res.variable_values["x_t0_c1_r2"] == pytest.approx(1.0, abs=1e-6)

    def test_telemetry_in_model_sense(self, small_instance, default_cfg):
        # The surface model maximizes, so its dual bound is an upper bound
        # on the objective, in the model's own sign; at a proven optimum
        # it meets the objective.
        scenario, tables = small_instance
        res = solve(build_ris_model(scenario, tables, default_cfg))
        assert res.status == STATUS_OPTIMAL and res.objective_value > 0.0
        assert res.dual_bound == pytest.approx(res.objective_value, rel=1e-6)
        assert isinstance(res.node_count, int) and res.node_count >= 0

    def test_node_count_unknown_is_none(self):
        # HiGHS reports no node count for a model it proves infeasible.
        model = MilpModel(name="over", sense="minimize")
        x = model.add_variable(("x",), BINARY)
        y = model.add_variable(("y",), BINARY)
        model.add_constraint("three", {x: 1.0, y: 1.0}, ">=", 3.0)
        res = solve(model)
        assert (res.status, res.node_count, res.dual_bound) == (STATUS_INFEASIBLE, None, None)

    @pytest.mark.parametrize("status, expected", [
        (1, STATUS_TIME_LIMIT), (2, STATUS_INFEASIBLE), (4, STATUS_ERROR)])
    def test_result_without_node_count(self, small_instance, default_cfg, monkeypatch,
                                       status, expected):
        def no_nodes(**kwargs):
            return SimpleNamespace(status=status, x=None, fun=None, message="stub",
                                   mip_gap=None, mip_dual_bound=None)

        monkeypatch.setattr(solver, "scipy_milp", no_nodes)
        res = solve(build_ris_model(*small_instance, default_cfg))
        assert (res.status, res.node_count, res.variable_values) == (expected, None, None)

    def test_result_with_node_count(self, monkeypatch):
        model = MilpModel(name="one")
        model.set_objective_coeff(model.add_variable(("x",), BINARY), 1.0)

        def seven_nodes(**kwargs):
            return SimpleNamespace(status=0, x=np.array([1.0]), fun=-1.0, message="stub",
                                   mip_gap=0.0, mip_dual_bound=-1.0, mip_node_count=7)

        monkeypatch.setattr(solver, "scipy_milp", seven_nodes)
        res = solve(model)
        assert (res.status, res.node_count, res.dual_bound) == (STATUS_OPTIMAL, 7, 1.0)
        assert type(res.node_count) is int

    def test_pigeonhole_infeasible(self):
        scenario = generate(100.0, 100.0, 1, 1, seed=0)
        tables = build_link_tables(scenario, RadioConfig())
        model = build_baseline_model(scenario, tables, PlanningConfig(budget=9.0))
        res = solve(model)
        assert res.status == STATUS_INFEASIBLE
        assert res.variable_values is None

    @pytest.mark.parametrize("sense,rhs,status", [
        (">=", 1.0, STATUS_INFEASIBLE), ("=", -1.0, STATUS_INFEASIBLE),
        ("<=", 1.0, STATUS_OPTIMAL), ("=", 0.0, STATUS_OPTIMAL)])
    def test_rows_without_variables(self, sense, rhs, status):
        # A row with no terms has activity 0, with or without an unused
        # variable in the model.
        model = MilpModel(name="rows-only")
        model.add_constraint("row", {}, sense, rhs)
        assert solve(model).status == status
        model.add_variable(("v",), CONTINUOUS)
        assert solve(model).status == status

    def test_crash_becomes_error_status(self, small_instance, default_cfg, monkeypatch):
        scenario, tables = small_instance
        model = build_ris_model(scenario, tables, default_cfg)

        def crash(**kwargs):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(solver, "scipy_milp", crash)
        res = solve(model)
        assert res.status == STATUS_ERROR
        assert res.variable_values is None
        assert res.message == "RuntimeError: solver crashed"

    def test_deterministic(self, small_instance, default_cfg):
        scenario, tables = small_instance
        model = build_ris_model(scenario, tables, default_cfg)
        r1 = solve(model)
        r2 = solve(model)
        assert r1.objective_value == r2.objective_value
        assert r1.variable_values == r2.variable_values

    def test_solved_plans_validate_clean(self, small_instance):
        scenario, tables = small_instance
        for mode in ("ris", "baseline"):
            for mu in (0.0, 1.0):
                cfg = PlanningConfig(mu=mu, budget=3.2)
                model = (build_ris_model(scenario, tables, cfg) if mode == "ris"
                         else build_baseline_model(scenario, tables, cfg))
                res = solve(model)
                assert res.status == STATUS_OPTIMAL
                plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
                assert validate_plan(plan, scenario, tables, cfg) == []

    def test_time_limit_reported(self):
        # A full-scale model cannot be solved in a few milliseconds; the
        # solver must come back with the time_limit status, not crash.
        scenario = generate(300.0, 400.0, 20, 12, seed=3)
        tables = build_link_tables(scenario, RadioConfig())
        model = build_ris_model(scenario, tables, PlanningConfig(mu=0.5, budget=5.0))
        res = solve(model, time_limit_s=0.05)
        assert res.status in ("time_limit", "optimal")
        if res.status == "time_limit" and res.variable_values is None:
            assert res.objective_value is None


class TestSolverOutput:
    """Text the solver library prints to file descriptor 1 goes to
    standard error, so standard output carries results only."""

    def test_library_output_goes_to_stderr(self, small_instance, default_cfg, monkeypatch,
                                           capfd):
        real_milp = solver.scipy_milp

        def leaky(**kwargs):
            os.write(1, b"leak\n")
            return real_milp(**kwargs)

        monkeypatch.setattr(solver, "scipy_milp", leaky)
        res = solve(build_ris_model(*small_instance, default_cfg))
        assert res.status == STATUS_OPTIMAL
        out, err = capfd.readouterr()
        assert "leak" in err and "leak" not in out

    def test_stdout_restored_after_a_crash(self, small_instance, default_cfg, monkeypatch,
                                           capfd):
        def crash(**kwargs):
            os.write(1, b"leak\n")
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(solver, "scipy_milp", crash)
        assert solve(build_ris_model(*small_instance, default_cfg)).status == STATUS_ERROR
        os.write(1, b"after\n")
        out, err = capfd.readouterr()
        assert out == "after\n" and "leak" in err


class TestHandoff:
    """The arrays handed to scipy.optimize.milp equal ones built
    independently from the row views, byte for byte."""

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("builder", [build_ris_model, build_baseline_model],
                             ids=["surface", "station-only"])
    def test_arrays_match_row_views(self, small_instance, builder, mu, monkeypatch):
        model = builder(*small_instance, PlanningConfig(mu=mu, budget=2.3))
        seen = {}

        def capture(**kwargs):
            seen.update(kwargs)
            raise RuntimeError("captured")

        monkeypatch.setattr(solver, "scipy_milp", capture)
        assert solve(model).message == "RuntimeError: captured"

        rows, cols, data = [], [], []
        for i, row in enumerate(model.constraints):
            for var_id, coef in row.coeffs.items():
                rows.append(i)
                cols.append(var_id)
                data.append(coef)
        want = sparse.csr_array((data, (rows, cols)),
                                shape=(model.num_constraints, model.num_variables))
        (con,) = seen["constraints"]
        got = con.A
        for field in ("data", "indices", "indptr"):
            mine, theirs = getattr(got, field), getattr(want, field)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), field
        assert got.has_sorted_indices and want.has_sorted_indices

        senses = [row.sense for row in model.constraints]
        rhs = np.array([row.rhs for row in model.constraints])
        np.testing.assert_array_equal(con.lb, np.where(np.array(senses) == "<=", -np.inf, rhs))
        np.testing.assert_array_equal(con.ub, np.where(np.array(senses) == ">=", np.inf, rhs))
        sign = -1.0 if model.objective_sense == "maximize" else 1.0
        c = np.zeros(model.num_variables)
        for var_id, coef in model.objective.items():
            c[var_id] = sign * coef
        assert seen["c"].tobytes() == c.tobytes()
        variables = list(model.variables)
        integrality = np.array([1 if v.kind == "binary" else 0 for v in variables])
        assert seen["integrality"].dtype == integrality.dtype
        np.testing.assert_array_equal(seen["integrality"], integrality)
        np.testing.assert_array_equal(seen["bounds"].lb, [v.lower for v in variables])
        np.testing.assert_array_equal(seen["bounds"].ub, [v.upper for v in variables])
