"""The benchmark's three workloads: what each round runs and how its
outputs are checked.

Each workload turns the benchmark seed into its inputs, calls the program
only through ``risplan``'s public functions, and wraps each call in a
``Recorder`` span named ``<module>.<function>``. ``round`` is the timed
part; ``check`` runs after it, untimed, and compares the outputs with
``reference`` or with properties the method must have. A round is the
same list of operations every time, so ``attempted`` grows in whole rounds.
An operation that raises is recorded in the round's ``failed`` list as
(key, operations it stands for, traceback); checks skip its outputs.
"""

from __future__ import annotations

import dataclasses
import math
import random
import traceback

import numpy as np

import reference as ref
import risplan as rp
from risplan.planner import MODE_BASELINE, MODE_RIS
from risplan.resilience import trial_seed_for

REL_TOL = 1e-6
SOLVE_LIMIT_S = 60.0      # a desk cell that needs longer counts as failed

# Desk scale: the 25-site reference geometry scaled to 12 sites, as in the
# acceptance suite, with its two radio set-ups.
DESK_AREA = (190.0, 253.0)
DESK_SITES, DESK_TPS = 12, 8
RADIOS = {"default": {}, "stress": {"tx_power_dbm": 6.0}}
PLANNINGS = {"default": {"len_norm_m": 317.0},
             "stress": {"demand_mbps": 120.0, "xi": 0.8, "len_norm_m": 317.0}}


def _points(points) -> np.ndarray:
    return np.array([[p.x, p.y] for p in points])


def _plan_cell(rec, seed, radio, budget, mu, mode):
    """scenario -> link tables -> model -> solve -> plan -> audit."""
    with rec.span("scenario.generate"):
        scenario = rp.generate(*DESK_AREA, DESK_SITES, DESK_TPS, seed=seed)
    with rec.span("radio.build_link_tables"):
        tables = rp.build_link_tables(scenario, rp.RadioConfig(**RADIOS[radio]))
    cfg = rp.PlanningConfig(mu=mu, budget=budget, **PLANNINGS[radio])
    if mode == MODE_RIS:
        with rec.span("planner.build_ris_model"):
            model = rp.build_ris_model(scenario, tables, cfg)
    else:
        with rec.span("planner.build_baseline_model"):
            model = rp.build_baseline_model(scenario, tables, cfg)
    with rec.span("solver.solve"):
        result = rp.solve(model, time_limit_s=SOLVE_LIMIT_S)
        rec.add_child("solver.highs", result.solve_time_s)
    if result.status != "optimal":
        raise RuntimeError(f"solver status {result.status}: {result.message}")
    with rec.span("planner.extract_plan"):
        plan = rp.extract_plan(model, result.variable_values, scenario, tables, cfg)
    with rec.span("validate.validate_plan"):
        violations = rp.validate_plan(plan, scenario, tables, cfg)
    return {"scenario": scenario, "tables": tables, "cfg": cfg, "model": model,
            "result": result, "plan": plan, "violations": violations}


def _model_counts(cells, counts):
    for cell in cells:
        model = cell["model"]
        kind = "ris" if model.name == MODE_RIS else "baseline"
        counts[f"planner.{kind}_rows"] += model.num_constraints
        counts[f"planner.{kind}_vars"] += model.num_variables
        counts[f"planner.{kind}_nnz"] += sum(len(c.coeffs) for c in model.constraints)
        if cell["tables"] is not None:
            counts["radio.src_triples"] += int(cell["tables"].delta_src.sum())


def _attempt(failed, key, n_ops, fn):
    """``fn()``, or None after recording its traceback as ``n_ops`` failed
    operations."""
    try:
        return fn()
    except Exception:
        failed.append((key, n_ops, traceback.format_exc(limit=3)))
        return None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def _check_plan_cell(cell) -> list[str]:
    """Audit, objective and budget of one solved cell, recomputed from the
    scenario coordinates alone."""
    errors = []
    plan, cfg, result, scenario = cell["plan"], cell["cfg"], cell["result"], cell["scenario"]
    if cell["violations"]:
        errors.append(f"validate_plan: {cell['violations'][:3]}")
    objective = ref.plan_objective(_points(scenario.test_points),
                                   _points(scenario.candidate_sites), plan.assignments,
                                   cfg.mu, cfg.theta_norm_rad, cfg.len_norm_m)
    if not (_close(objective, plan.objective_value)
            and _close(objective, result.objective_value)):
        errors.append(f"objective {objective!r} vs plan {plan.objective_value!r} "
                      f"vs solver {result.objective_value!r}")
    cost = cfg.price_iab * len(plan.iab_nodes) + cfg.price_ris * len(plan.ris_sites)
    if cost > cfg.budget + 1e-9:
        errors.append(f"cost {cost} over budget {cfg.budget}")
    return errors


class Workload:
    """One workload; subclasses fill in set-up, round, checks and figures."""

    def __init__(self, seed: int):
        self.seed = seed
        self.setup_counts: dict[str, float] = {}   # counts taken during set-up

    def setup(self, rec) -> None:
        pass

    def round(self, rec, index: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def stage(self, totals: dict[str, float], out) -> dict[str, float]:
        raise NotImplementedError

    def traced_extras(self, rec, out) -> dict[str, float]:
        """Counts for a traced round, and any extra timed calls; runs after
        the round's timed part."""
        return {}


class DeskPlan(Workload):
    """The desk planning study: a fixed grid of desk cells that HiGHS proves
    optimal within seconds. The seed sets the order the cells run in."""

    SCENARIO_SEEDS = (0,)
    # (radio, budget, mu): the criterion-4 settings minus budget 3 at
    # mu 1, and the criterion-5 settings. Station-only cells at mu 0.5
    # do not prove optimality in 30 s, so none is used.
    SETTINGS = (("default", 3.0, 0.0), ("default", 4.0, 0.0), ("default", 4.0, 1.0),
                ("stress", 5.5, 0.0), ("stress", 9.5, 0.0))

    def setup(self, rec) -> None:
        self.cells = [(s, radio, budget, mu, mode)
                      for s in self.SCENARIO_SEEDS
                      for (radio, budget, mu) in self.SETTINGS
                      for mode in (MODE_RIS, MODE_BASELINE)]
        random.Random(self.seed).shuffle(self.cells)

    def round(self, rec, index):
        solved, failed = {}, []
        for key in self.cells:
            with rec.span("bench.cell"):
                cell = _attempt(failed, key, 1, lambda: _plan_cell(rec, *key))
            if cell is not None:
                solved[key] = cell
        return {"solved": solved, "failed": failed, "attempted": len(self.cells)}

    def check(self, out) -> list[str]:
        errors = []
        solved = out["solved"]
        for key, cell in solved.items():
            errors += [f"{key}: {e}" for e in _check_plan_cell(cell)]
        # The optimum cannot fall as the budget rises.
        for (s, radio, budget, mu, mode), cell in solved.items():
            for (s2, radio2, budget2, mu2, mode2), cell2 in solved.items():
                if ((s, radio, mu, mode) == (s2, radio2, mu2, mode2) and budget < budget2
                        and cell2["plan"].objective_value
                        < cell["plan"].objective_value - REL_TOL * abs(cell["plan"].objective_value)):
                    errors.append(f"optimum falls from budget {budget} to {budget2} "
                                  f"on {(s, radio, mu, mode)}")
        return errors

    def stage(self, totals, out):
        return {"study_s": totals["bench.cell"],
                "assemble_s": sum(totals[n] for n in (
                    "scenario.generate", "radio.build_link_tables",
                    "planner.build_ris_model", "planner.build_baseline_model"))}

    def traced_extras(self, rec, out):
        counts = _zero_counts()
        _model_counts(out["solved"].values(), counts)
        return counts


def _zero_counts():
    return {k: 0 for k in ("radio.src_triples", "planner.ris_rows", "planner.ris_vars",
                           "planner.ris_nnz", "planner.baseline_rows",
                           "planner.baseline_vars", "planner.baseline_nnz")}


class LargeModel(Workload):
    """Two 50 x 30 instances on the reference area, assembled but not
    solved: one open, one with short fixed obstacles. The open surface
    model also goes through an LP export and read back."""

    AREA = (300.0, 400.0)
    SITES, TPS = 50, 30
    N_OBSTACLES, OBSTACLE_M = 500, 3.0

    def setup(self, rec) -> None:
        rng = np.random.default_rng([self.seed, 1])
        draws = rng.random((self.N_OBSTACLES, 3)) * np.array([*self.AREA, math.pi])
        half = self.OBSTACLE_M / 2.0
        ends = np.column_stack([
            draws[:, 0] - half * np.cos(draws[:, 2]), draws[:, 1] - half * np.sin(draws[:, 2]),
            draws[:, 0] + half * np.cos(draws[:, 2]), draws[:, 1] + half * np.sin(draws[:, 2])])
        self.obstacles = tuple(rp.Segment2D(rp.Point2D(x1, y1), rp.Point2D(x2, y2))
                               for x1, y1, x2, y2 in ends.tolist())

    def _assemble(self, rec, scenario):
        with rec.span("radio.build_link_tables"):
            tables = rp.build_link_tables(scenario, rp.RadioConfig())
        cfg = rp.PlanningConfig()
        with rec.span("planner.build_ris_model"):
            ris = rp.build_ris_model(scenario, tables, cfg)
        with rec.span("planner.build_baseline_model"):
            base = rp.build_baseline_model(scenario, tables, cfg)
        return {"scenario": scenario, "tables": tables, "ris": ris, "baseline": base}

    def _instance(self, rec, cluttered: bool):
        with rec.span("scenario.generate"):
            scenario = rp.generate(*self.AREA, self.SITES, self.TPS, seed=self.seed)
        if cluttered:
            with rec.span("scenario.Scenario"):
                scenario = dataclasses.replace(scenario, fixed_obstacles=self.obstacles)
        return self._assemble(rec, scenario)

    def _lp_roundtrip(self, rec, model):
        with rec.span("milp.export_lp"):
            text = rp.export_lp(model)
        with rec.span("milp.read_lp"):
            back = rp.read_lp(text)
        return len(text), back

    def round(self, rec, index):
        failed = []
        instances = [_attempt(failed, name, 1, lambda: self._instance(rec, name == "cluttered"))
                     for name in ("open", "cluttered")]
        lp_bytes, back = 0, None
        if instances[0] is None:
            failed.append(("lp-roundtrip", 1, "not attempted: the open instance failed"))
        else:
            roundtrip = _attempt(failed, "lp-roundtrip", 1,
                                 lambda: self._lp_roundtrip(rec, instances[0]["ris"]))
            if roundtrip is not None:
                lp_bytes, back = roundtrip
        return {"instances": [i for i in instances if i is not None], "lp_bytes": lp_bytes,
                "open": instances[0], "back": back, "failed": failed, "attempted": 3}

    def check(self, out) -> list[str]:
        errors = []
        for inst in out["instances"]:
            errors += _check_assignment_vars(inst)
        if out["back"] is not None:
            errors += _check_same_model(out["open"]["ris"], out["back"])
        return errors

    def stage(self, totals, out):
        return {"assemble_s": sum(totals.get(n, 0.0) for n in (
                    "scenario.generate", "scenario.Scenario", "radio.build_link_tables",
                    "planner.build_ris_model", "planner.build_baseline_model")),
                "lp_roundtrip_s": totals.get("milp.export_lp", 0.0)
                + totals.get("milp.read_lp", 0.0)}

    def traced_extras(self, rec, out):
        counts = _zero_counts()
        cells = []
        for inst in out["instances"]:
            cells += [{"model": inst["ris"], "tables": inst["tables"]},
                      {"model": inst["baseline"], "tables": None}]
        _model_counts(cells, counts)
        counts["milp.lp_bytes"] = out["lp_bytes"]
        return counts


def _check_assignment_vars(inst) -> list[str]:
    """The assignment variables of both models are exactly the source
    triples and access pairs of the reference link budget."""
    scenario = inst["scenario"]
    obstacles = np.array([[s.a.x, s.a.y, s.b.x, s.b.y] for s in scenario.fixed_obstacles])
    acc, src, borderline = ref.link_activation(_points(scenario.candidate_sites),
                                               _points(scenario.test_points), obstacles)
    border_pairs = borderline.any(axis=2)
    want_src = {tuple(k) for k in np.argwhere(src & ~borderline).tolist()}
    want_acc = {tuple(k) for k in np.argwhere(acc & ~border_pairs).tolist()}
    got_src = {k[1:] for k in inst["ris"].keys() if k[0] == "x"
               and not borderline[k[1:]]}
    errors = []
    if got_src != want_src:
        errors.append(f"surface model triples differ from reference: "
                      f"{len(got_src - want_src)} extra, {len(want_src - got_src)} missing")
    for kind in ("x", "s"):
        got_acc = {k[1:] for k in inst["baseline"].keys() if k[0] == kind
                   and not border_pairs[k[1:]]}
        if got_acc != want_acc:
            errors.append(f"station-only {kind} pairs differ from reference: "
                          f"{len(got_acc - want_acc)} extra, {len(want_acc - got_acc)} missing")
    return errors


def _named_terms(model, coeffs) -> dict[str, float]:
    # The LP text cannot carry an explicit zero coefficient.
    return {model.name_of(v): c for v, c in coeffs.items() if c != 0.0}


def _check_same_model(model, back) -> list[str]:
    """``back`` equals ``model`` by variable and row name, exactly."""
    errors = []
    if model.objective_sense != back.objective_sense:
        errors.append("objective sense differs")
    if model.num_variables != back.num_variables:
        errors.append(f"{model.num_variables} variables, read back {back.num_variables}")
    for var in model.variables:
        try:
            other = back.variables[back.id_of_name(var.name)]
        except ValueError:
            errors.append(f"variable {var.name} missing after read_lp")
            continue
        if (var.kind, var.lower, var.upper) != (other.kind, other.lower, other.upper):
            errors.append(f"variable {var.name} kind or bounds differ")
    if _named_terms(model, model.objective) != _named_terms(back, back.objective):
        errors.append("objective coefficients differ")
    if model.num_constraints != back.num_constraints:
        errors.append(f"{model.num_constraints} rows, read back {back.num_constraints}")
    row_of = {con.name: con for con in back.constraints}
    for con in model.constraints:
        other = row_of.get(con.name)
        if other is None:
            errors.append(f"row {con.name} missing after read_lp")
        elif (con.sense != other.sense or con.rhs != other.rhs
              or _named_terms(model, con.coeffs) != _named_terms(back, other.coeffs)):
            errors.append(f"row {con.name} differs after read_lp")
        if len(errors) > 20:
            break
    return errors


class Blockage(Workload):
    """Monte Carlo blockage of ten optimal desk plans (scenario seeds 0-4,
    both modes, stress radio, budget 9.5, mu 0), solved during set-up.
    Each round evaluates every plan on fresh trials drawn from the seed."""

    SCENARIO_SEEDS = tuple(range(5))
    RADIO, BUDGET, MU = "stress", 9.5, 0.0
    COUNTS = (0, 25, 50, 100, 200, 400)
    TRIALS = 10                     # per plan and round

    def setup(self, rec) -> None:
        self.plans = []
        for s in self.SCENARIO_SEEDS:
            for mode in (MODE_RIS, MODE_BASELINE):
                cell = _plan_cell(rec, s, self.RADIO, self.BUDGET, self.MU, mode)
                errors = _check_plan_cell(cell)
                if errors:
                    raise RuntimeError(f"blockage plan {s} {mode}: {errors}")
                self.plans.append(cell)
        self.setup_counts = _zero_counts()
        _model_counts(self.plans, self.setup_counts)

    def base_seed(self, index: int, plan_index: int) -> int:
        ss = np.random.SeedSequence([self.seed, index, plan_index])
        return int(ss.generate_state(1)[0])

    def round(self, rec, index):
        reports, failed = {}, []
        for i, cell in enumerate(self.plans):
            with rec.span("resilience.evaluate"):
                report = _attempt(failed, f"plan {i}", self.TRIALS, lambda: rp.evaluate(
                    cell["plan"], cell["scenario"], list(self.COUNTS), self.TRIALS,
                    base_seed=self.base_seed(index, i)))
            if report is not None:
                reports[i] = report
        return {"reports": reports, "index": index, "failed": failed,
                "attempted": len(self.plans) * self.TRIALS}

    def check(self, out) -> list[str]:
        errors = []
        for i, report in out["reports"].items():
            cell = self.plans[i]
            for j, row in enumerate(report.per_trial):
                if any(b > a for a, b in zip(row, row[1:])):
                    errors.append(f"plan {i} trial {j}: served share rises with obstacles")
            # One trial per plan and round, redrawn and re-evaluated apart
            # from the program.
            j = (out["index"] + i) % self.TRIALS
            scenario = cell["scenario"]
            seed = trial_seed_for(self.base_seed(out["index"], i), j)
            obstacles, spans, centres = ref.redraw_trial(
                scenario.area_width, scenario.area_height, max(self.COUNTS),
                scenario.n_test_points, seed)
            want = ref.served_shares(_points(scenario.test_points),
                                     _points(scenario.candidate_sites),
                                     cell["plan"].assignments, self.COUNTS,
                                     obstacles, spans, centres)
            if tuple(report.per_trial[j]) != want:
                errors.append(f"plan {i} trial {j}: {report.per_trial[j]} vs reference {want}")
        return errors

    def stage(self, totals, out):
        done = len(out["reports"]) * self.TRIALS
        return {"trials_per_s": done / totals["resilience.evaluate"]}

    def traced_extras(self, rec, out):
        """Time ``sample_trial`` alone, with the seeds ``evaluate`` used."""
        for i in out["reports"]:
            scenario = self.plans[i]["scenario"]
            base = self.base_seed(out["index"], i)
            for j in range(self.TRIALS):
                seed = trial_seed_for(base, j)
                with rec.span("resilience.sample_trial"):
                    rp.sample_trial(scenario.area_width, scenario.area_height,
                                    max(self.COUNTS), scenario.test_points, seed)
        n_tps = self.plans[0]["scenario"].n_test_points
        return {"resilience.link_obstacle_pairs":
                len(self.plans) * self.TRIALS * 2 * n_tps * max(self.COUNTS)}


WORKLOADS = {"desk-plan": DeskPlan, "large-model": LargeModel, "blockage": Blockage}
