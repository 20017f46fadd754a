import ast
import hashlib
import inspect
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import restrict_access, restrict_tuples
from risplan.geometry import Point2D, Segment2D
from risplan.milp import export_lp
from risplan.planner import (NetworkPlan, PlannerError, access_airtime, aperture_candidates,
                             build_baseline_model, build_ris_model,
                             extract_plan, load_plan, plan_to_dict, save_plan)
from risplan.radio import RadioConfig, build_link_tables
from risplan.scenario import PlanningConfig, Scenario, generate
from risplan.solver import solve


def rows_named(model, prefix):
    return model.constraints_named(prefix)


def violated_rows(model, values, tol=1e-6):
    """Names of the model rows that ``values`` breaks by more than tol."""
    broken = []
    for row in model.constraints:
        lhs = sum(coeff * values[model.name_of(i)] for i, coeff in row.coeffs.items())
        if ((row.sense == "<=" and lhs > row.rhs + tol)
                or (row.sense == ">=" and lhs < row.rhs - tol)
                or (row.sense == "=" and abs(lhs - row.rhs) > tol)):
            broken.append(row.name)
    return broken


class TestRisModelStructure:
    def test_constraint_count_formulas(self, small_instance, default_cfg):
        scenario, tables = small_instance
        model = build_ris_model(scenario, tables, default_cfg)
        tuples = np.argwhere(tables.delta_src).tolist()
        surfaces = {r for (_, _, r) in tuples}
        assert len(rows_named(model, "src_iab_")) == len({(t, c) for (t, c, _) in tuples})
        assert len(rows_named(model, "orient_")) == len(surfaces)
        assert len(rows_named(model, "cover_a_")) == len({(t, r) for (t, _, r) in tuples})
        assert len(rows_named(model, "cover_t")) == len(tuples)
        assert {k[1] for k in model.keys() if k[0] == "o"} == surfaces
        assert len(rows_named(model, "one_src_")) == scenario.n_test_points
        assert len(rows_named(model, "cut_theta_")) == scenario.n_test_points
        assert rows_named(model, "ang_sep_") == []
        assert rows_named(model, "src_act_") == []
        assert rows_named(model, "fov_") == []
        assert not any(k[0] == "phi" for k in model.keys())
        assert len(rows_named(model, "colocation_")) == scenario.n_sites
        assert len(rows_named(model, "budget")) == 1
        # The families both builders share.
        n_pairs = len(np.argwhere(tables.delta_bh))
        for build in (build_ris_model, build_baseline_model):
            model = build(scenario, tables, default_cfg)
            for prefix in ("tree_in_", "flow_bal_", "tx_time_", "half_duplex_"):
                assert len(rows_named(model, prefix)) == scenario.n_sites, prefix
            assert len(rows_named(model, "bh_act_")) == n_pairs
            assert len(rows_named(model, "flow_cap_")) == n_pairs
            assert len(rows_named(model, "link_len_")) == scenario.n_test_points
        # The station-only separation rows: two per access pair, and the
        # cuts for each test point with an access pair (test point 2 has
        # none in the masked tables).
        masked = restrict_access(tables, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 5)])
        for access in (tables, masked):
            model = build_baseline_model(scenario, access, default_cfg)
            pairs = list(zip(*np.nonzero(access.delta_acc == 1)))
            served = sorted({t for (t, _) in pairs})
            for tag in ("sep_x", "sep_s"):
                assert ([row.name for row in rows_named(model, tag + "_")]
                        == [f"{tag}_t{t}_c{c}" for (t, c) in pairs])
            for tag in ("cut_theta_x", "cut_theta_s"):
                assert ([row.name for row in rows_named(model, tag + "_")]
                        == [f"{tag}_t{t}" for t in served])
            assert rows_named(model, "ang_sep_") == []

    def test_presolve_omits_dead_tuples(self, small_instance, default_cfg):
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        model = build_ris_model(scenario, masked, default_cfg)
        xs = [k for k in model.keys() if k[0] == "x"]
        assert xs == [("x", 0, 1, 2), ("x", 1, 1, 2), ("x", 2, 1, 2)]

    def test_forced_single_assignment(self, small_instance, default_cfg):
        scenario, tables = small_instance
        masked = restrict_tuples(tables, [(0, 1, 2), (1, 1, 2), (2, 1, 2)])
        model = build_ris_model(scenario, masked, default_cfg)
        res = solve(model)
        assert res.status == "optimal"
        for t in range(scenario.n_test_points):
            assert res.variable_values[f"x_t{t}_c1_r2"] == pytest.approx(1.0, abs=1e-6)
        plan = extract_plan(model, res.variable_values, scenario, masked, default_cfg)
        assert plan.assignments == ((1, 2), (1, 2), (1, 2))
        assert plan.donor == 1

    def test_dimension_mismatch(self, small_instance, default_cfg):
        scenario, tables = small_instance
        other = generate(100.0, 100.0, 4, 2, seed=0)
        with pytest.raises(PlannerError, match="dimension mismatch"):
            build_ris_model(other, tables, default_cfg)

    def test_airtime_coefficient_is_worst_of_two(self):
        # demand 100, direct capacity 400, xi 0.5, reflected capacity 100:
        # max(0.25, 0.5) = 0.5
        cfg = PlanningConfig(demand_mbps=100.0, xi=0.5)
        t = type("T", (), {})()
        t.cap_acc = np.full((1, 2), 400.0)
        t.cap_ref = np.full((1, 2, 2), 100.0)
        assert access_airtime(t, cfg, 0, 0, 1) == pytest.approx(0.5)

    def test_objective_coefficients(self, small_instance):
        scenario, tables = small_instance
        cfg = PlanningConfig(mu=0.25, budget=3.0, theta_norm_rad=2.0, len_norm_m=100.0)
        model = build_ris_model(scenario, tables, cfg)
        theta_id = model.var_id(("theta", 0))
        l_id = model.var_id(("l", 0))
        assert model.objective[theta_id] == pytest.approx(0.25 / 2.0)
        assert model.objective[l_id] == pytest.approx(-0.75 / 100.0)


class TestApertureCandidates:
    def test_seam_and_pruning(self):
        # The candidate starting at 6.2 covers 0.1 across the seam, so the
        # one starting at 0.1, which covers only itself, is dropped.
        rays, cover = aperture_candidates(np.array([0.1, 6.2, 3.0, 0.1]), math.pi / 2)
        assert rays.tolist() == [0.1, 3.0, 6.2]
        assert cover.tolist() == [[False, True, False], [True, False, True]]

    def test_opposite_rays_fit_an_aperture_of_pi(self):
        # Each ray lies exactly F from the other: both candidates cover
        # both rays, and of the two equal sets the first is kept.
        _, cover = aperture_candidates(np.array([1.0, 1.0 + math.pi]), math.pi)
        assert cover.tolist() == [[True, True]]

    def test_full_circle_covers_everything(self):
        _, cover = aperture_candidates(np.array([0.0, 2.0, 4.0, 6.0]), 2 * math.pi)
        assert cover.tolist() == [[True] * 4]


class TestBaselineModelStructure:
    def test_infeasible_single_site(self):
        scenario = generate(100.0, 100.0, 1, 1, seed=0)
        tables = build_link_tables(scenario, RadioConfig())
        cfg = PlanningConfig(budget=5.0)
        model = build_baseline_model(scenario, tables, cfg)
        assert solve(model).status == "infeasible"

    def test_two_sites_both_used(self):
        scenario = generate(100.0, 100.0, 2, 1, seed=2)
        tables = build_link_tables(scenario, RadioConfig())
        cfg = PlanningConfig(budget=2.0)
        model = build_baseline_model(scenario, tables, cfg)
        res = solve(model)
        assert res.status == "optimal"
        plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
        assert set(plan.iab_nodes) == {0, 1}
        primary, backup = plan.assignments[0]
        assert {primary, backup} == {0, 1}

    def test_installation_cost(self, small_instance):
        scenario, tables = small_instance
        cfg = PlanningConfig(mu=0.5, budget=3.0, price_iab=1.0)
        model = build_baseline_model(scenario, tables, cfg)
        res = solve(model)
        plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
        assert plan.total_cost == pytest.approx(1.0 * len(plan.iab_nodes))
        assert len(plan.iab_nodes) == 3  # budget 3 at unit price; backup needs >= 2

    def test_distinct_primary_backup(self, small_instance):
        scenario, tables = small_instance
        cfg = PlanningConfig(mu=1.0, budget=4.0)
        model = build_baseline_model(scenario, tables, cfg)
        res = solve(model)
        plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
        for (p, b) in plan.assignments:
            assert p != b

    def test_no_ris_price_in_budget(self, small_instance):
        scenario, tables = small_instance
        cfg = PlanningConfig(budget=2.0, price_ris=1e9)  # absurd surface price
        model = build_baseline_model(scenario, tables, cfg)
        assert solve(model).status == "optimal"  # surfaces don't exist here

    def test_separation_rows_are_exact(self, small_instance, default_cfg):
        """With primary a and backup b, theta_t = theta[t, a, b] breaks no
        row of test point t, and any larger theta_t breaks a sep_ row."""
        scenario, tables = small_instance
        model = build_baseline_model(scenario, tables, default_cfg)
        base = {name: 0.0 for name in model.names()}
        base.update({f"yIAB_c{c}": 1.0 for c in range(scenario.n_sites)})
        base.update({f"l_t{t}": 1e9 for t in range(scenario.n_test_points)})
        n_checked = 0
        for t in range(scenario.n_test_points):
            own = re.compile(rf".*_t{t}(_|$)")
            for a, b in itertools.permutations(np.flatnonzero(tables.delta_acc[t]).tolist(), 2):
                values = {**base, f"x_t{t}_c{a}": 1.0, f"s_t{t}_c{b}": 1.0,
                          f"theta_t{t}": float(tables.theta[t, a, b])}
                assert [n for n in violated_rows(model, values, 1e-9) if own.match(n)] == []
                values[f"theta_t{t}"] += 1e-6
                broken = violated_rows(model, values, 1e-9)
                assert any(n.startswith(("sep_x_", "sep_s_")) for n in broken), (t, a, b)
                n_checked += 1
        assert n_checked == sum(k * (k - 1) for k in tables.delta_acc.sum(axis=1).tolist())
        assert n_checked > 0


both_builders = pytest.mark.parametrize("build", [build_ris_model, build_baseline_model],
                                        ids=["ris", "baseline"])


class TestExtractPlan:
    @both_builders
    def test_fractional_binary_rejected(self, small_instance, default_cfg, build):
        scenario, tables = small_instance
        model = build(scenario, tables, default_cfg)
        res = solve(model)
        values = dict(res.variable_values)
        values["yIAB_c0"] = 0.4
        with pytest.raises(PlannerError, match="non-integral"):
            extract_plan(model, values, scenario, tables, default_cfg)

    @both_builders
    def test_all_zero_solution_rejected(self, small_instance, default_cfg, build):
        scenario, tables = small_instance
        model = build(scenario, tables, default_cfg)
        values = {v.name: 0.0 for v in model.variables}
        with pytest.raises(PlannerError, match="decode-time infeasibility"):
            extract_plan(model, values, scenario, tables, default_cfg)

    def test_objective_recomputation_matches(self, small_instance):
        scenario, tables = small_instance
        for mu in (0.0, 0.5, 1.0):
            cfg = PlanningConfig(mu=mu, budget=2.3)
            model = build_ris_model(scenario, tables, cfg)
            res = solve(model)
            plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
            assert plan.objective_value == pytest.approx(res.objective_value, abs=1e-6)

    @both_builders
    def test_decode_drift_detected(self, small_instance, default_cfg, build):
        scenario, tables = small_instance
        model = build(scenario, tables, default_cfg)
        res = solve(model)
        values = dict(res.variable_values)
        # Claim a wildly different theta while keeping binaries intact.
        for t in range(scenario.n_test_points):
            values[f"theta_t{t}"] = 0.0 if values[f"theta_t{t}"] > 0.1 else math.pi
        with pytest.raises(PlannerError, match="decode drift"):
            extract_plan(model, values, scenario, tables, default_cfg)

    @pytest.mark.parametrize("fault", ["two_primaries", "no_backup"])
    def test_station_only_pair_fault_rejected(self, small_instance, default_cfg, fault):
        scenario, tables = small_instance
        model = build_baseline_model(scenario, tables, default_cfg)
        values = dict(solve(model).variable_values)
        _, backup = extract_plan(model, values, scenario, tables, default_cfg).assignments[0]
        if fault == "two_primaries":
            values[f"x_t0_c{backup}"] = 1.0
        else:
            values[f"s_t0_c{backup}"] = 0.0
        with pytest.raises(PlannerError, match="decode-time infeasibility"):
            extract_plan(model, values, scenario, tables, default_cfg)

    def test_one_body_for_both_modes(self):
        """extract_plan reads no delta_* table and names a mode only in
        its check that the model is a planning model, so no part of the
        decode can fork on mode."""
        func = ast.parse(inspect.getsource(extract_plan)).body[0]
        check = next(node for node in func.body if isinstance(node, ast.If))
        assert [type(op) for op in check.test.ops] == [ast.NotIn]
        allowed = {id(node) for node in ast.walk(check.test)}
        for node in ast.walk(func):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or ""
            assert not name.startswith("delta_"), name
            if id(node) not in allowed:
                assert name not in ("MODE_RIS", "MODE_BASELINE"), (name, node.lineno)
                assert getattr(node, "value", None) not in ("ris", "baseline"), node.lineno

    def test_normalizer_scaling_invariance(self, small_instance):
        scenario, tables = small_instance
        base = PlanningConfig(mu=0.5, budget=2.3, theta_norm_rad=math.pi, len_norm_m=500.0)
        scaled = PlanningConfig(mu=0.5, budget=2.3, theta_norm_rad=3 * math.pi,
                                len_norm_m=1500.0)
        m1 = build_ris_model(scenario, tables, base)
        m2 = build_ris_model(scenario, tables, scaled)
        r1, r2 = solve(m1), solve(m2)
        p1 = extract_plan(m1, r1.variable_values, scenario, tables, base)
        p2 = extract_plan(m2, r2.variable_values, scenario, tables, scaled)
        assert r2.objective_value == pytest.approx(r1.objective_value / 3.0, rel=1e-6)
        assert p1.assignments == p2.assignments

    @pytest.mark.parametrize("mode,mu,budget", [
        ("ris", 0.0, 4.0), ("baseline", 1.0, 4.0), ("baseline", 0.0, 4.0)])
    def test_decoded_plan_is_canonical(self, small_instance, mode, mu, budget):
        scenario, tables = small_instance
        cfg = PlanningConfig(mu=mu, budget=budget)
        build = build_ris_model if mode == "ris" else build_baseline_model
        model = build(scenario, tables, cfg)
        res = solve(model)
        plan = extract_plan(model, res.variable_values, scenario, tables, cfg)
        if mode == "ris":
            serving = {c for (c, _) in plan.assignments}
            assert set(plan.ris_sites) == {r for (_, r) in plan.assignments}
            assert set(plan.orientations_rad) == set(plan.ris_sites)
        else:
            serving = {c for pair in plan.assignments for c in pair}
        children = {c: [d for (p, d) in plan.backhaul_edges if p == c]
                    for c in plan.iab_nodes}
        # Edges run parent -> child, so a post-order is any reverse BFS.
        order = [plan.donor]
        for c in order:
            order.extend(children[c])
        assert sorted(order) == sorted(plan.iab_nodes)
        useful = set()
        for c in reversed(order):
            if c in serving or any(d in useful for d in children[c]):
                useful.add(c)
        assert useful == set(plan.iab_nodes)
        assert plan.donor in serving or len(children[plan.donor]) >= 2
        price = cfg.price_iab * len(plan.iab_nodes) + cfg.price_ris * len(plan.ris_sites)
        assert plan.total_cost == pytest.approx(price)
        assert plan.objective_value == pytest.approx(res.objective_value, abs=1e-6)

    @pytest.mark.parametrize("mode,padding", [
        *(pytest.param("ris", padding, id=padding)
          for padding in ("idle_donor", "idle_leaf", "idle_cycle", "idle_surface")),
        *(pytest.param("baseline", padding, id=f"baseline-{padding}")
          for padding in ("idle_donor", "idle_leaf", "idle_cycle"))])
    def test_idle_equipment_is_dropped(self, small_instance, default_cfg, mode, padding):
        """A tied optimum carrying idle equipment decodes to the same plan
        as the lean one. The padding keeps every model row satisfied; an
        idle station-only donor takes the wired inflow w with it."""
        scenario, tables = small_instance
        build = build_ris_model if mode == "ris" else build_baseline_model
        model = build(scenario, tables, default_cfg)
        values = solve(model).variable_values
        lean = extract_plan(model, values, scenario, tables, default_cfg)
        a, b = [c for c in range(scenario.n_sites)
                if c not in lean.iab_nodes and c not in lean.ris_sites][:2]
        donor = lean.donor
        if padding == "idle_donor":
            inflow = lean.wired_inflow_mbps
            pad = {f"yIAB_c{a}": 1.0, f"yDON_c{a}": 1.0, f"yDON_c{donor}": 0.0,
                   f"z_c{a}_c{donor}": 1.0, f"f_c{a}_c{donor}": inflow,
                   f"tTX_c{a}": inflow / tables.cap_bh[a, donor]}
            if mode == "baseline":
                pad.update({f"w_c{a}": inflow, f"w_c{donor}": 0.0})
        elif padding == "idle_leaf":
            pad = {f"yIAB_c{a}": 1.0, f"z_c{donor}_c{a}": 1.0}
        elif padding == "idle_cycle":
            pad = {f"yIAB_c{a}": 1.0, f"yIAB_c{b}": 1.0,
                   f"z_c{a}_c{b}": 1.0, f"z_c{b}_c{a}": 1.0}
        else:
            pad = {f"yRIS_c{a}": 1.0}
        roomy = replace(default_cfg, budget=10.0)
        padded_model = build(scenario, tables, roomy)
        padded = {**values, **pad}
        assert violated_rows(padded_model, padded) == []
        plan = extract_plan(padded_model, padded, scenario, tables, roomy)
        assert plan == lean

    def test_plan_round_trip(self, small_instance, default_cfg, tmp_path):
        scenario, tables = small_instance
        model = build_ris_model(scenario, tables, default_cfg)
        res = solve(model)
        plan = extract_plan(model, res.variable_values, scenario, tables, default_cfg)
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @pytest.mark.parametrize("key, value", [
        ("orientations", [[1, math.nan]]), ("theta_per_tp", [math.nan]),
        ("wired_inflow_mbps", math.nan), ("len_per_tp", [math.inf]),
        ("total_cost", -math.inf), ("flows", [[0, 1, math.nan]]), ("donor", True),
        ("total_cost", 10 ** 400)])
    def test_non_finite_plan_number_rejected(self, tmp_path, key, value):
        doc = plan_to_dict(NetworkPlan(
            mode="ris", donor=0, iab_nodes=(0,), ris_sites=(1,), assignments=((0, 1),),
            backhaul_edges=(), flows_mbps={}, wired_inflow_mbps=100.0,
            orientations_rad={1: 0.5}, theta_per_tp=(1.0,), len_per_tp=(10.0,),
            total_cost=1.1, objective_value=0.5))
        (doc["metrics"] if key in doc["metrics"] else doc)[key] = value
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PlannerError, match=f"malformed field {key}"):
            load_plan(path)


def _desk(seed=0):
    return generate(190.0, 253.0, 12, 8, seed=seed)


def _cluttered_desk():
    """The seed-0 desk with 8 random 12 m obstacles and one 4 m obstacle
    through test point 0."""
    s = _desk()
    rng = np.random.default_rng(5)
    obstacles = []
    for cx, cy, ang in (rng.random((8, 3)) * [190.0, 253.0, np.pi]).tolist():
        dx, dy = 6.0 * math.cos(ang), 6.0 * math.sin(ang)
        obstacles.append(Segment2D(Point2D(cx - dx, cy - dy), Point2D(cx + dx, cy + dy)))
    tp = s.test_points[0]
    obstacles.append(Segment2D(Point2D(tp.x - 2.0, tp.y), Point2D(tp.x + 2.0, tp.y)))
    return Scenario(s.area_width, s.area_height, s.candidate_sites, s.test_points,
                    tuple(obstacles), s.seed)


def _model_case(case, small_instance):
    """(scenario, tables, cfg) of one pinned model case."""
    if case.startswith("small"):
        scenario, tables = small_instance
        mu, budget = {"small_mu0": (0.0, 2.3), "small_mu05": (0.5, 2.3),
                      "small_mu1": (1.0, 3.4)}[case]
        return scenario, tables, PlanningConfig(mu=mu, budget=budget)
    if case == "desk_stress":
        scenario = _desk()
        return (scenario, build_link_tables(scenario, RadioConfig(tx_power_dbm=6.0)),
                PlanningConfig(mu=0.0, budget=5.5, demand_mbps=120.0, xi=0.8,
                               len_norm_m=317.0))
    scenario = _desk() if case == "desk_default" else _cluttered_desk()
    return (scenario, build_link_tables(scenario, RadioConfig()),
            PlanningConfig(mu=0.5, budget=4.0, len_norm_m=317.0))


class TestModelTextPinned:
    """sha256 of the exported LP text of (surface model, station-only
    model). The surface digests were re-recorded when discrete aperture
    candidates replaced the big-M orientation rows. The station-only
    digests were re-recorded when two separation rows per access pair
    (sep_x, sep_s) replaced the pairwise ang_sep rows; every other row
    of those models is unchanged."""

    SHA256 = {
        "small_mu0": ("7c3401d3a9745742355249a2c064226d2366f1d933d3d79ff14327bb267e8c42",
                      "94bebfc89aabf0e0fa04aca663b2450122c4c9ec33536d72f6fcf7ce860f87e4"),
        "small_mu05": ("ad561dfe2aae0d630d12c4d635e9c6ce0e94bd968893e248e9d20ff772122298",
                       "031f57da62999ade2389dd8d0495e6239b933145caa1f9a08c0184d0a0d3b2e6"),
        "small_mu1": ("a9f1dedfbb34add22c7e7f094e06d94526899c6734766614e3d0518f9e747255",
                      "e6063490ac80455d9df767791021a0c033ce99c430ea87df7f272c50a0fa847f"),
        "desk_default": ("a5fa26bc071edee046d5b037fe4cc99224ad1319ea7489824877e6b66614b708",
                         "b46cc049634de7f2039109c3c5749901c5c2b7923409a57f00eff84aed99bc47"),
        "desk_stress": ("61f6190fe2ab092e698d6f833d3ac9134116728e946c198ed30f88820e8ed2ea",
                        "67e7ad3ae717420830e75a253ee765f8d41b8142db5123c8f431e61c9286d6e7"),
        "desk_cluttered": ("960f2325f0d38f438d1ed57f7a3aa935be70bff92230b935bbca51d8fa824157",
                           "de50bd15570a3e441f3e5b6f9861bdeeec86e3f6c58bbc4097dac273a1b73f6c"),
    }

    @pytest.mark.parametrize("case", sorted(SHA256))
    def test_lp_text_pinned(self, small_instance, case):
        scenario, tables, cfg = _model_case(case, small_instance)
        digests = tuple(hashlib.sha256(export_lp(build(scenario, tables, cfg)).encode())
                        .hexdigest() for build in (build_ris_model, build_baseline_model))
        assert digests == self.SHA256[case]


class TestRenderingPinned:
    """sha256 of the newline-joined names(), of repr(keys()) and of the
    newline-joined row names, recorded when the model stored a name and a
    key per variable and a name per row; rendered from index blocks they
    are the same. The desk models are those of the five desk-plan
    settings, whose names depend on the radio alone."""

    DESK = {
        ("default", "ris"): (
            "beed759c6615cdf8e1e16de6d559236263d35dabb9c617508d8914e474d2ed87",
            "913365f1f4c30b444454ade93a3bac8d3f7665d4bab99e095adf2d995e73e4c0",
            "91c262bbc12769ebed852d1b20affb2010f350538797616f8ed7407eda0f5dfd"),
        ("default", "baseline"): (
            "20f6366b3ea1cfda62a0e01f1ee9cec75e9258bc78800d1ff892ae2f99517bc0",
            "83984d0b787d252e0011e1a95e09f50d156c2fd49e73a29a5816a4a298ef3826",
            "1ce8a947ad9495d4de61e6e55b6735619ec9c6dd210add19766a6fae4a84a400"),
        ("stress", "ris"): (
            "93a37ff5c39df631097325ce908c205925098810ccf52bfd3d5c3a4f5841aabd",
            "e85f9729961b673b5d8951999135194ca899ae063e5af69f467ed47649daea41",
            "393f5ae476d72f98c8cc26fbd2123db090449cf6fb40928d9e5f85336853882a"),
        ("stress", "baseline"): (
            "20f6366b3ea1cfda62a0e01f1ee9cec75e9258bc78800d1ff892ae2f99517bc0",
            "83984d0b787d252e0011e1a95e09f50d156c2fd49e73a29a5816a4a298ef3826",
            "1ce8a947ad9495d4de61e6e55b6735619ec9c6dd210add19766a6fae4a84a400"),
    }
    LARGE = {      # 50 x 30 on 300 x 400 m, seed 0, default radio and planning
        "ris": (
            "69ed4ebc633b933a9a7fc03cd87969235564fe5b0d91577e0d67de6825a3e837",
            "1dbecfaf8f0f889ff07e878d8120fad05a2040466bb2c884a0a38b2eb33d5874",
            "dbc8e875c4afcb307ff442515786f3897494e5bf1a9ccac869d50c4548db2022"),
        "baseline": (
            "516414ce954dcd548271105f56095ee3c40c27d8cdcf6d0240f190e97baf3756",
            "ce0fc624eeb1e669c239ee449baeb2096b7c60ba9fc0aaf4ee623be664a6121f",
            "6392fdcb2ea5dc89218d4151b06478344f0bf76c1af567de88fa7e15cef04b8e"),
    }
    SETTINGS = (("default", 3.0, 0.0), ("default", 4.0, 0.0), ("default", 4.0, 1.0),
                ("stress", 5.5, 0.0), ("stress", 9.5, 0.0))
    BUILDERS = {"ris": build_ris_model, "baseline": build_baseline_model}

    @staticmethod
    def digests(model):
        return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
            "\n".join(model.names()), repr(model.keys()),
            "\n".join(row.name for row in model.constraints)))

    @pytest.mark.parametrize("mode", ["ris", "baseline"])
    @pytest.mark.parametrize("radio, budget, mu", SETTINGS)
    def test_desk_models(self, radio, budget, mu, mode):
        scenario = _desk()
        stress = radio == "stress"
        tables = build_link_tables(scenario, RadioConfig(tx_power_dbm=6.0) if stress
                                   else RadioConfig())
        cfg = PlanningConfig(mu=mu, budget=budget, len_norm_m=317.0,
                             **({"demand_mbps": 120.0, "xi": 0.8} if stress else {}))
        model = self.BUILDERS[mode](scenario, tables, cfg)
        assert self.digests(model) == self.DESK[radio, mode]

    @pytest.mark.parametrize("mode", ["ris", "baseline"])
    def test_large_models(self, mode):
        scenario = generate(300.0, 400.0, 50, 30, seed=0)
        model = self.BUILDERS[mode](scenario, build_link_tables(scenario, RadioConfig()),
                                    PlanningConfig())
        assert self.digests(model) == self.LARGE[mode]
