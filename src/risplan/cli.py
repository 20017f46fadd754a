"""Command-line frontend: generate instances, plan deployments, simulate
blockage, and sweep parameter grids into long-format CSV.

Exit codes: 0 success, 2 validation problem (bad flags, malformed files,
plan fails validation), 3 proven infeasible, 4 solver failure. Infeasible
is a result, not a crash, so shell experiment scripts can branch on it.

Every command is deterministic given its flags (seeds included); outputs
are written atomically and listed, with content digests, in a manifest
JSON next to the primary artifact. Wall-clock timings live only in the
manifest so data files stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from . import __version__
from .atomic import write_atomic
from .milp import export_lp
from .planner import (DECODE_VERSION, MODE_BASELINE, MODE_RIS, PlannerError,
                      build_baseline_model, build_ris_model, extract_plan,
                      load_plan, save_plan)
from .radio import RadioConfig, RadioModelError, build_link_tables
from .resilience import (ResilienceError, evaluate, report_summary_csv,
                         report_to_dict, report_trials_csv)
from .scenario import (PlanningConfig, Scenario, ScenarioError, generate,
                       load, load_planning, save)
from .solver import STATUS_INFEASIBLE, STATUS_OPTIMAL, STATUS_TIME_LIMIT, solve
from .validate import validate_plan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

SWEEP_COLUMNS = ("seed", "budget", "mu", "mode", "status", "objective",
                 "mean_theta", "mean_len", "n_iab", "n_ris", "cost")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path: Path) -> str:
    return _sha256_bytes(path.read_bytes())


def _digest_config(doc: dict) -> str:
    return _sha256_bytes(json.dumps(doc, sort_keys=True).encode())


def write_manifest(primary_out: Path, command: str, config_doc: dict,
                   scenario_digest: str | None, timings: dict,
                   outputs: list[Path], solver: dict | None = None) -> Path:
    manifest = {
        "command": command,
        "config_digest": _digest_config(config_doc),
        "effective_config": config_doc,
        "scenario_digest": scenario_digest,
        "tool_version": __version__,
        "timings_s": timings,
        "outputs": {str(p): _sha256_file(p) for p in outputs},
    }
    if solver is not None:
        manifest["solver"] = solver
    path = primary_out.with_suffix(primary_out.suffix + ".manifest.json")
    write_atomic(path, json.dumps(manifest, indent=2) + "\n")
    return path


# -- config assembly ------------------------------------------------------

_RADIO_FLAGS = {
    "tx_power": "tx_power_dbm",
    "carrier_freq": "carrier_freq_hz",
    "bs_elements": "bs_array_elements",
    "ris_elements": "ris_elements",
    "ris_side": "ris_side_m",
    "bandwidth": "bandwidth_hz",
    "noise_figure": "noise_figure_db",
    "pathloss_intercept": "pathloss_intercept_db",
    "pathloss_exponent": "pathloss_exponent",
    "ris_element_gain": "ris_element_gain_db",
}

_PLANNING_FLAGS = {
    "mu": "mu",
    "budget": "budget",
    "demand": "demand_mbps",
    "xi": "xi",
    "price_iab": "price_iab",
    "price_ris": "price_ris",
    "fov": "fov_rad",
    "theta_norm": "theta_norm_rad",
    "len_norm": "len_norm_m",
    "wired_capacity": "wired_capacity_mbps",
}


def _add_radio_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("radio model")
    g.add_argument("--tx-power", type=float, help="transmit power, dBm (default 30)")
    g.add_argument("--carrier-freq", type=float, help="carrier frequency, Hz (default 28e9)")
    g.add_argument("--bs-elements", type=int, help="station array elements (default 64)")
    g.add_argument("--ris-elements", type=int, help="surface elements (default 10000)")
    g.add_argument("--ris-side", type=float, help="surface side, meters (default 0.5)")
    g.add_argument("--bandwidth", type=float, help="channel bandwidth, Hz (default 400e6)")
    g.add_argument("--noise-figure", type=float, help="receiver noise figure, dB (default 7)")
    g.add_argument("--pathloss-intercept", type=float, help="path loss at 1 m, dB (default 61.4)")
    g.add_argument("--pathloss-exponent", type=float, help="path loss exponent (default 2)")
    g.add_argument("--ris-element-gain", type=float,
                   help="reflected-budget aperture constant, dB (default: derived)")


def _add_planning_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("planning")
    g.add_argument("--mu", type=float, help="objective weight in [0, 1] (default 0.5)")
    g.add_argument("--budget", type=float, help="installation budget (default 5)")
    g.add_argument("--demand", type=float, help="per-test-point demand, Mbps (default 100)")
    g.add_argument("--xi", type=float, help="backup demand fraction (default 0.5)")
    g.add_argument("--price-iab", type=float, help="station price (default 1)")
    g.add_argument("--price-ris", type=float, help="surface price (default 0.1)")
    g.add_argument("--fov", type=float, help="surface field of view, radians (default pi)")
    g.add_argument("--theta-norm", type=float, help="angle normalizer, radians (default pi)")
    g.add_argument("--len-norm", type=float, help="length normalizer, meters (default 500)")
    g.add_argument("--wired-capacity", type=float,
                   help="donor wired capacity, Mbps (default 1e9)")


def radio_config_from_args(args: argparse.Namespace) -> RadioConfig:
    overrides = {field: getattr(args, flag)
                 for flag, field in _RADIO_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    return RadioConfig(**overrides)


def planning_config_from_args(args: argparse.Namespace,
                              embedded: PlanningConfig | None) -> PlanningConfig:
    base = embedded if embedded is not None else PlanningConfig()
    overrides = {field: getattr(args, flag)
                 for flag, field in _PLANNING_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    return replace(base, **overrides)


def _config_doc(radio: RadioConfig, planning: PlanningConfig, extra: dict) -> dict:
    doc = {
        "radio": {k: getattr(radio, k) for k in sorted(RadioConfig.__dataclass_fields__)
                  if k != "mcs_table"},
        "planning": {k: getattr(planning, k)
                     for k in sorted(PlanningConfig.__dataclass_fields__)},
    }
    doc["radio"]["mcs_table"] = [list(row) for row in radio.mcs_table]
    doc.update(extra)
    return doc


# -- commands -------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        scenario = generate(args.width, args.height, args.n_cs, args.n_tp, args.seed)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out = Path(args.out)
    save(scenario, out)
    config_doc = {"width": args.width, "height": args.height,
                  "n_cs": args.n_cs, "n_tp": args.n_tp, "seed": args.seed}
    write_manifest(out, "generate", config_doc, _sha256_file(out),
                   {"total": time.perf_counter() - started}, [out])
    print(f"wrote scenario with {scenario.n_sites} candidate sites and "
          f"{scenario.n_test_points} test points to {out}")
    return EXIT_OK


def _build_and_solve(scenario: Scenario, radio: RadioConfig, planning: PlanningConfig,
                     mode: str, time_limit: float | None, mip_rel_gap: float,
                     timings: dict[str, float]):
    """Link tables, model and solve result; each stage's time goes into timings."""
    t0 = time.perf_counter()
    tables = build_link_tables(scenario, radio)
    t1 = time.perf_counter()
    if mode == MODE_RIS:
        model = build_ris_model(scenario, tables, planning)
    else:
        model = build_baseline_model(scenario, tables, planning)
    t2 = time.perf_counter()
    result = solve(model, time_limit_s=time_limit, mip_rel_gap=mip_rel_gap)
    timings.update(link_tables=t1 - t0, build=t2 - t1, solve=time.perf_counter() - t2)
    return tables, model, result


def cmd_plan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        scenario = load(args.scenario)
        embedded = load_planning(args.scenario)
        radio = radio_config_from_args(args)
        planning = planning_config_from_args(args, embedded)
    except (ScenarioError, RadioModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    timings: dict[str, float] = {}
    tables, model, result = _build_and_solve(
        scenario, radio, planning, args.mode, args.time_limit, args.mip_gap, timings)

    outputs: list[Path] = []
    out = Path(args.out)
    if args.export_lp:
        lp_path = out.with_suffix(out.suffix + ".lp") if out.suffix else out.with_suffix(".lp")
        write_atomic(lp_path, export_lp(model))
        outputs.append(lp_path)
        print(f"wrote LP model ({model.num_variables} variables, "
              f"{model.num_constraints} constraints) to {lp_path}")

    config_doc = _config_doc(radio, planning, {
        "mode": args.mode, "scenario": str(args.scenario),
        "time_limit": args.time_limit, "mip_gap": args.mip_gap})
    scenario_digest = _sha256_file(Path(args.scenario))
    # Model size is counted before HiGHS presolves it.
    solver_stats = {"status": result.status, "gap": result.gap,
                    "node_count": result.node_count, "dual_bound": result.dual_bound,
                    "rows": model.num_constraints, "variables": model.num_variables,
                    "nonzeros": model.num_nonzeros}

    if result.status == STATUS_INFEASIBLE:
        print(f"status: infeasible (mode={args.mode}, budget={planning.budget}, "
              f"mu={planning.mu}); no plan written")
        if outputs:
            write_manifest(out, "plan", config_doc, scenario_digest, timings, outputs,
                           solver_stats)
        return EXIT_INFEASIBLE
    if result.status not in (STATUS_OPTIMAL, STATUS_TIME_LIMIT) or result.variable_values is None:
        print(f"solver error: status={result.status} {result.message}", file=sys.stderr)
        return EXIT_SOLVER

    t0 = time.perf_counter()
    try:
        plan = extract_plan(model, result.variable_values, scenario, tables, planning)
    except PlannerError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    t1 = time.perf_counter()
    violations = validate_plan(plan, scenario, tables, planning)
    timings.update(decode=t1 - t0, validate=time.perf_counter() - t1)
    if violations:
        print("decoded plan fails validation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_SOLVER

    save_plan(plan, out)
    outputs.insert(0, out)
    timings["total"] = time.perf_counter() - started
    write_manifest(out, "plan", config_doc, scenario_digest, timings, outputs,
                   solver_stats)

    gap_note = f", gap {result.gap:.2%}" if result.status == STATUS_TIME_LIMIT else ""
    print(f"status: {result.status}{gap_note}")
    print(f"objective: {plan.objective_value:.6f}  cost: {plan.total_cost:g} "
          f"(stations {len(plan.iab_nodes)}, surfaces {len(plan.ris_sites)})")
    print(f"mean angular separation: {plan.mean_theta:.4f} rad  "
          f"mean link length: {plan.mean_len:.2f} m")
    print(f"wrote plan to {out}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        scenario = load(args.scenario)
        embedded = load_planning(args.scenario)
        radio = radio_config_from_args(args)
        planning = planning_config_from_args(args, embedded)
        plan = load_plan(args.plan)
    except (ScenarioError, RadioModelError, PlannerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    tables = build_link_tables(scenario, radio)
    t1 = time.perf_counter()
    violations = validate_plan(plan, scenario, tables, planning)
    t2 = time.perf_counter()
    timings.update(link_tables=t1 - t0, validate=t2 - t1)
    if violations:
        print("plan fails validation:", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        report = evaluate(plan, scenario, args.counts, args.trials, args.seed,
                          self_blockage=not args.no_self_blockage,
                          obstacle_length_m=args.obstacle_length)
    except ResilienceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    timings["evaluate"] = time.perf_counter() - t2

    prefix = Path(args.out)
    trials_path = prefix.with_suffix(".trials.csv")
    summary_path = prefix.with_suffix(".summary.csv")
    json_path = prefix.with_suffix(".json")
    write_atomic(trials_path, report_trials_csv(report))
    write_atomic(summary_path, report_summary_csv(report))
    plan_digest = _sha256_file(Path(args.plan))
    scenario_digest = _sha256_file(Path(args.scenario))
    write_atomic(json_path, json.dumps(
        report_to_dict(report, plan_digest, scenario_digest), indent=2) + "\n")

    config_doc = _config_doc(radio, planning, {
        "plan": str(args.plan), "scenario": str(args.scenario),
        "counts": list(args.counts), "trials": args.trials, "seed": args.seed,
        "self_blockage": not args.no_self_blockage,
        "obstacle_length": args.obstacle_length})
    timings["total"] = time.perf_counter() - started
    write_manifest(json_path, "simulate", config_doc, scenario_digest, timings,
                   [trials_path, summary_path, json_path])

    for j, k in enumerate(report.obstacle_counts):
        print(f"obstacles {k:4d}: served {report.served_mean[j]:.3f} "
              f"+- {report.served_std[j]:.3f}")
    print(f"wrote {trials_path}, {summary_path}, {json_path}")
    return EXIT_OK


# -- sweep ----------------------------------------------------------------


def _cell_id(seed: int, budget: float, mu: float, mode: str) -> str:
    return f"s{seed}_b{budget:g}_m{mu:g}_{mode}"


def _error_status(message: str) -> str:
    """A sweep status for a failed cell, with commas and line breaks taken
    out so the CSV keeps its columns."""
    return "error:" + " ".join(message.replace(",", ";").split())


def _sweep_cell(payload: dict) -> dict:
    """One sweep cell: generate, solve, decode; returns a CSV row dict.
    Runs in a worker process; everything in/out is plain data."""
    scenario = generate(payload["width"], payload["height"],
                        payload["n_cs"], payload["n_tp"], payload["seed"])
    radio = RadioConfig(**payload["radio"])
    planning = PlanningConfig(**{**payload["planning"],
                                 "budget": payload["budget"], "mu": payload["mu"]})
    row: dict = {"seed": payload["seed"], "budget": payload["budget"],
                 "mu": payload["mu"], "mode": payload["mode"],
                 "status": "", "objective": "", "mean_theta": "", "mean_len": "",
                 "n_iab": "", "n_ris": "", "cost": ""}
    tables, model, result = _build_and_solve(
        scenario, radio, planning, payload["mode"], payload["time_limit"], payload["mip_gap"],
        {})
    row["status"] = result.status
    if result.variable_values is None:
        return row
    try:
        plan = extract_plan(model, result.variable_values, scenario, tables, planning)
    except PlannerError as exc:
        row["status"] = _error_status(str(exc))
        return row
    violations = validate_plan(plan, scenario, tables, planning)
    if violations:
        row["status"] = f"error:{len(violations)} violations"
        return row
    row.update(objective=repr(plan.objective_value),
               mean_theta=repr(plan.mean_theta), mean_len=repr(plan.mean_len),
               n_iab=len(plan.iab_nodes), n_ris=len(plan.ris_sites),
               cost=repr(plan.total_cost))
    if payload["sim_counts"]:
        report = evaluate(plan, scenario, payload["sim_counts"],
                          payload["sim_trials"], payload["sim_seed"])
        row["_resilience"] = {
            "counts": list(report.obstacle_counts),
            "mean": list(report.served_mean),
            "std": list(report.served_std),
        }
    return row


# Errors that mean a bad flag: they end a sweep with exit code 2.
_FLAG_ERRORS = (ScenarioError, RadioModelError, ResilienceError)


def _crashed_row(payload: dict, exc: Exception) -> dict:
    """The row of a cell whose run raised: its status names the error."""
    row = {col: "" for col in SWEEP_COLUMNS}
    row.update(seed=payload["seed"], budget=payload["budget"], mu=payload["mu"],
               mode=payload["mode"], status=_error_status(f"{type(exc).__name__}: {exc}"))
    return row


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    try:
        radio = radio_config_from_args(args)
        planning = planning_config_from_args(args, None)
        for mode in args.modes:
            if mode not in (MODE_RIS, MODE_BASELINE):
                raise ScenarioError(f"unknown mode {mode!r}")
    except (ScenarioError, RadioModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(args.out_dir)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    planning_doc = {k: getattr(planning, k)
                    for k in sorted(PlanningConfig.__dataclass_fields__)}
    radio_doc = {k: getattr(radio, k) for k in sorted(RadioConfig.__dataclass_fields__)
                 if k != "mcs_table"}
    base_payload = {
        "width": args.width, "height": args.height,
        "n_cs": args.n_cs, "n_tp": args.n_tp,
        "radio": radio_doc, "planning": planning_doc,
        "time_limit": args.time_limit, "mip_gap": args.mip_gap,
        "sim_counts": args.sim_counts or [], "sim_trials": args.sim_trials,
        "sim_seed": args.sim_seed,
        # Cells decoded by an older extract_plan must not be reused.
        "decode_version": DECODE_VERSION,
    }

    grid = [(seed, budget, mu, mode)
            for seed in args.seeds for budget in args.budgets
            for mu in args.mus for mode in args.modes]

    pending: list[tuple[int, dict]] = []
    rows: dict[int, dict] = {}
    for idx, (seed, budget, mu, mode) in enumerate(grid):
        payload = dict(base_payload, seed=seed, budget=budget, mu=mu, mode=mode)
        digest = _digest_config(payload)
        cell_path = cells_dir / f"{_cell_id(seed, budget, mu, mode)}.json"
        if cell_path.exists():
            try:
                cached = json.loads(cell_path.read_text())
            except json.JSONDecodeError:
                cached = None
            if cached and cached.get("digest") == digest:
                rows[idx] = cached["row"]
                continue
        pending.append((idx, payload))

    def record(idx: int, payload: dict, row: dict) -> None:
        rows[idx] = row
        cell_path = cells_dir / f"{_cell_id(payload['seed'], payload['budget'], payload['mu'], payload['mode'])}.json"
        write_atomic(cell_path, json.dumps(
            {"digest": _digest_config(payload), "row": row}, indent=2) + "\n")

    def run(idx: int, payload: dict, cell) -> None:
        try:
            row = cell()
        except _FLAG_ERRORS:
            raise
        except Exception as exc:
            cell_id = _cell_id(payload["seed"], payload["budget"], payload["mu"], payload["mode"])
            print(f"sweep cell {cell_id} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
            rows[idx] = _crashed_row(payload, exc)  # not cached: a rerun retries it
            return
        record(idx, payload, row)

    if args.jobs > 1 and len(pending) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futures = {pool.submit(_sweep_cell, payload): (idx, payload)
                       for idx, payload in pending}
            for future in concurrent.futures.as_completed(futures):
                idx, payload = futures[future]
                run(idx, payload, future.result)
    else:
        for idx, payload in pending:
            run(idx, payload, functools.partial(_sweep_cell, payload))

    csv_lines = [",".join(SWEEP_COLUMNS)]
    resilience_lines = ["seed,budget,mu,mode,obstacle_count,mean,std"]
    has_resilience = False
    for idx in range(len(grid)):
        row = rows[idx]
        csv_lines.append(",".join(str(row[col]) for col in SWEEP_COLUMNS))
        extra = row.get("_resilience")
        if extra:
            has_resilience = True
            for j, k in enumerate(extra["counts"]):
                resilience_lines.append(
                    f"{row['seed']},{row['budget']},{row['mu']},{row['mode']},"
                    f"{k},{extra['mean'][j]!r},{extra['std'][j]!r}")

    sweep_csv = out_dir / "sweep.csv"
    write_atomic(sweep_csv, "\n".join(csv_lines) + "\n")
    outputs = [sweep_csv]
    if has_resilience:
        res_csv = out_dir / "sweep_resilience.csv"
        write_atomic(res_csv, "\n".join(resilience_lines) + "\n")
        outputs.append(res_csv)

    config_doc = dict(base_payload, seeds=list(args.seeds),
                      budgets=list(args.budgets), mus=list(args.mus),
                      modes=list(args.modes))
    write_manifest(sweep_csv, "sweep", config_doc, None,
                   {"total": time.perf_counter() - started}, outputs)
    n_solved = sum(1 for r in rows.values() if r["status"] == "optimal")
    n_infeasible = sum(1 for r in rows.values() if r["status"] == "infeasible")
    print(f"{len(grid)} cells: {n_solved} optimal, {n_infeasible} infeasible, "
          f"{len(grid) - n_solved - n_infeasible} other; wrote {sweep_csv}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risplan",
        description="mm-wave access network planning with relay stations and "
                    "reflecting surfaces, plus blockage-resilience simulation")
    parser.add_argument("--version", action="version", version=f"risplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a random planning instance")
    p_gen.add_argument("--width", type=float, default=300.0, help="area width, m")
    p_gen.add_argument("--height", type=float, default=400.0, help="area height, m")
    p_gen.add_argument("--n-cs", type=int, default=25, help="candidate sites")
    p_gen.add_argument("--n-tp", type=int, default=15, help="test points")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="scenario JSON path")
    p_gen.set_defaults(func=cmd_generate)

    p_plan = sub.add_parser("plan", help="solve a placement model for a scenario")
    p_plan.add_argument("--scenario", required=True)
    p_plan.add_argument("--mode", choices=[MODE_RIS, MODE_BASELINE], default=MODE_RIS)
    p_plan.add_argument("--time-limit", type=float, default=None, help="seconds")
    p_plan.add_argument("--mip-gap", type=float, default=0.0,
                        help="relative MIP gap to accept (default 0)")
    p_plan.add_argument("--export-lp", action="store_true",
                        help="write the model in LP format next to the plan")
    p_plan.add_argument("--out", required=True, help="plan JSON path")
    _add_planning_flags(p_plan)
    _add_radio_flags(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="Monte Carlo blockage evaluation of a plan")
    p_sim.add_argument("--plan", required=True)
    p_sim.add_argument("--scenario", required=True)
    p_sim.add_argument("--counts", type=int, nargs="+", required=True,
                       help="ascending obstacle counts, e.g. 0 50 100 200")
    p_sim.add_argument("--trials", type=int, default=20)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--no-self-blockage", action="store_true",
                       help="disable the per-terminal blockage sector")
    p_sim.add_argument("--obstacle-length", type=float, default=5.0, help="meters")
    p_sim.add_argument("--out", required=True,
                       help="output prefix; writes .trials.csv, .summary.csv, .json")
    _add_planning_flags(p_sim)
    _add_radio_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid of plan runs aggregated to CSV")
    p_sweep.add_argument("--seeds", type=int, nargs="+", required=True)
    p_sweep.add_argument("--budgets", type=float, nargs="+", required=True)
    p_sweep.add_argument("--mus", type=float, nargs="+", default=[0.5])
    p_sweep.add_argument("--modes", nargs="+", default=[MODE_RIS, MODE_BASELINE])
    p_sweep.add_argument("--width", type=float, default=300.0)
    p_sweep.add_argument("--height", type=float, default=400.0)
    p_sweep.add_argument("--n-cs", type=int, default=25)
    p_sweep.add_argument("--n-tp", type=int, default=15)
    p_sweep.add_argument("--time-limit", type=float, default=None)
    p_sweep.add_argument("--mip-gap", type=float, default=0.0)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--sim-counts", type=int, nargs="*", default=None,
                         help="also simulate each feasible cell at these counts")
    p_sweep.add_argument("--sim-trials", type=int, default=20)
    p_sweep.add_argument("--sim-seed", type=int, default=0)
    p_sweep.add_argument("--out-dir", required=True)
    _add_planning_flags(p_sweep)
    _add_radio_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, RadioModelError, ResilienceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
