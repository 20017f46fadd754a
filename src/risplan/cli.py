"""Command-line frontend: generate instances, plan deployments, simulate
blockage, and sweep parameter grids into long-format CSV.

Exit codes: 0 success, 2 validation problem (bad flags, malformed files,
plan fails validation), 3 proven infeasible, 4 solver failure. Infeasible
is a result, not a crash, so shell experiment scripts can branch on it.
`main` maps the error classes to exit codes: a scenario, radio or
resilience validation error ends any command with exit 2. A PlannerError
maps by where it is raised, so the commands catch it themselves: a plan
file that cannot be loaded exits 2, a plan that fails to decode exits 4.

Every command is deterministic given its flags (seeds included); outputs
are written atomically and listed, with content digests, in a manifest
JSON next to the primary artifact. Wall-clock timings live only in
manifests and sweep cell caches so data files stay byte-reproducible.
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
from .atomic import read_json, write_atomic, write_json
from .milp import export_lp
from .planner import (DECODE_VERSION, MODE_BASELINE, MODE_RIS, PlannerError,
                      build_baseline_model, build_ris_model, extract_plan,
                      plan_from_dict, save_plan)
from .radio import RadioConfig, RadioModelError, build_link_tables
from .resilience import (ResilienceError, evaluate, report_summary_csv,
                         report_to_dict, report_trials_csv)
from .scenario import (PlanningConfig, Scenario, ScenarioError, ScenarioFormatError,
                       generate, planning_from_dict, save, scenario_from_dict)
from .solver import STATUS_INFEASIBLE, STATUS_TIME_LIMIT, solve
from .validate import validate_plan

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

# Errors that mean a bad flag or input file: any command ends with exit 2.
_FLAG_ERRORS = (ScenarioError, RadioModelError, ResilienceError)

SWEEP_COLUMNS = ("seed", "budget", "mu", "mode", "status", "objective",
                 "mean_theta", "mean_len", "n_iab", "n_ris", "cost")


def _digest_config(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def write_manifest(primary_out: Path, command: str, config_doc: dict,
                   scenario_digest: str | None, timings: dict,
                   outputs: dict[Path, str], extra: dict | None = None) -> Path:
    """Write the manifest of ``primary_out``; ``outputs`` maps each file the
    command wrote to the digest its writer returned."""
    manifest = {
        "command": command,
        "config_digest": _digest_config(config_doc),
        "effective_config": config_doc,
        "scenario_digest": scenario_digest,
        "tool_version": __version__,
        "timings_s": timings,
        "outputs": {str(p): digest for p, digest in outputs.items()},
        **(extra or {}),
    }
    path = primary_out.with_suffix(primary_out.suffix + ".manifest.json")
    write_json(path, manifest)
    return path


# -- config assembly ------------------------------------------------------

# One (flag, field, type, help) table per config dataclass.
_RADIO_FLAGS = (
    ("--tx-power", "tx_power_dbm", float, "transmit power, dBm (default 30)"),
    ("--bs-elements", "bs_array_elements", int, "station array elements (default 64)"),
    ("--ris-elements", "ris_elements", int, "surface elements (default 10000)"),
    ("--bandwidth", "bandwidth_hz", float, "channel bandwidth, Hz (default 400e6)"),
    ("--noise-figure", "noise_figure_db", float, "receiver noise figure, dB (default 7)"),
    ("--pathloss-intercept", "pathloss_intercept_db", float,
     "path loss at 1 m, dB (default 61.4)"),
    ("--pathloss-exponent", "pathloss_exponent", float, "path loss exponent (default 2)"),
    ("--ris-element-gain", "ris_element_gain_db", float,
     "reflected-budget aperture constant, dB (default 20*log10(pi))"),
)

_PLANNING_FLAGS = (
    ("--mu", "mu", float, "objective weight in [0, 1] (default 0.5)"),
    ("--budget", "budget", float, "installation budget (default 5)"),
    ("--demand", "demand_mbps", float, "per-test-point demand, Mbps (default 100)"),
    ("--xi", "xi", float, "backup demand fraction (default 0.5)"),
    ("--price-iab", "price_iab", float, "station price (default 1)"),
    ("--price-ris", "price_ris", float, "surface price (default 0.1)"),
    ("--fov", "fov_rad", float, "surface field of view, radians (default pi)"),
    ("--theta-norm", "theta_norm_rad", float, "angle normalizer, radians (default pi)"),
    ("--len-norm", "len_norm_m", float, "length normalizer, meters (default 500)"),
    ("--wired-capacity", "wired_capacity_mbps", float,
     "donor wired capacity, Mbps (default 1e9)"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    for title, table in (("planning", _PLANNING_FLAGS), ("radio model", _RADIO_FLAGS)):
        g = parser.add_argument_group(title)
        for flag, _field, kind, help_text in table:
            g.add_argument(flag, type=kind, help=help_text)


def _configs_from_args(args: argparse.Namespace, embedded: PlanningConfig | None = None
                       ) -> tuple[RadioConfig, PlanningConfig]:
    """The radio and planning configs: given flags over embedded (or the
    planning defaults) and over the radio defaults."""
    def given(table) -> dict:
        values = {field: getattr(args, flag[2:].replace("-", "_")) for flag, field, _, _ in table}
        return {field: value for field, value in values.items() if value is not None}
    return (RadioConfig(**given(_RADIO_FLAGS)),
            replace(embedded or PlanningConfig(), **given(_PLANNING_FLAGS)))


def _fields(config: RadioConfig | PlanningConfig) -> dict:
    """A config's fields in sorted order, leaving out the radio's MCS table."""
    return {k: getattr(config, k) for k in sorted(type(config).__dataclass_fields__)
            if k != "mcs_table"}


def _config_doc(radio: RadioConfig, planning: PlanningConfig, extra: dict) -> dict:
    return {"radio": dict(_fields(radio), mcs_table=[list(row) for row in radio.mcs_table]),
            "planning": _fields(planning), **extra}


# -- commands -------------------------------------------------------------


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    scenario = generate(args.width, args.height, args.n_cs, args.n_tp, args.seed)
    out = Path(args.out)
    digest = save(scenario, out)
    config_doc = {"width": args.width, "height": args.height,
                  "n_cs": args.n_cs, "n_tp": args.n_tp, "seed": args.seed}
    write_manifest(out, "generate", config_doc, digest,
                   {"total": time.perf_counter() - started}, {out: digest})
    print(f"wrote scenario with {scenario.n_sites} candidate sites and "
          f"{scenario.n_test_points} test points to {out}")
    return EXIT_OK


def _load_inputs(args: argparse.Namespace
                 ) -> tuple[Scenario, RadioConfig, PlanningConfig, str]:
    """The scenario, the configs (flags over its planning block over
    defaults) and the scenario file's digest, from one read of the file."""
    doc, digest = read_json(args.scenario, ScenarioFormatError)
    scenario = scenario_from_dict(doc)
    return (scenario, *_configs_from_args(args, planning_from_dict(doc)), digest)


def _plan_stages(scenario: Scenario, radio: RadioConfig, planning: PlanningConfig,
                 mode: str, time_limit: float | None, mip_rel_gap: float,
                 timings: dict[str, float]):
    """Link tables, model, solve, decode and audit; each stage's time goes
    into timings, and ``highs`` is the part of ``solve`` spent in HiGHS
    (``SolveResult.solve_time_s``). Returns the model, the solve result,
    the plan, and why there is no plan: None when the solver found no
    solution (the result's status says which), the decode's PlannerError,
    or the audit's violations.
    """
    t0 = time.perf_counter()
    tables = build_link_tables(scenario, radio)
    t1 = time.perf_counter()
    build = build_ris_model if mode == MODE_RIS else build_baseline_model
    model = build(scenario, tables, planning)
    t2 = time.perf_counter()
    result = solve(model, time_limit_s=time_limit, mip_rel_gap=mip_rel_gap)
    t3 = time.perf_counter()
    timings.update(link_tables=t1 - t0, build=t2 - t1, solve=t3 - t2,
                   highs=result.solve_time_s)
    if result.variable_values is None:
        return model, result, None, None
    try:
        plan = extract_plan(model, result.variable_values, scenario, tables, planning)
    except PlannerError as exc:
        return model, result, None, exc
    t4 = time.perf_counter()
    violations = validate_plan(plan, scenario, tables, planning)
    timings.update(decode=t4 - t3, validate=time.perf_counter() - t4)
    if violations:
        return model, result, None, violations
    return model, result, plan, None


def _solver_stats(model, result) -> dict:
    """A solve's record for manifests; model size is counted before HiGHS
    presolves it."""
    return {"status": result.status, "gap": result.gap,
            "node_count": result.node_count, "dual_bound": result.dual_bound,
            "rows": model.num_constraints, "variables": model.num_variables,
            "nonzeros": model.num_nonzeros}


def cmd_plan(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    scenario, radio, planning, scenario_digest = _load_inputs(args)
    timings: dict[str, float] = {}
    model, result, plan, problem = _plan_stages(
        scenario, radio, planning, args.mode, args.time_limit, args.mip_gap, timings)

    outputs: dict[Path, str] = {}
    out = Path(args.out)
    if args.export_lp:
        lp_path = out.with_suffix(out.suffix + ".lp")
        outputs[lp_path] = write_atomic(lp_path, export_lp(model))
        print(f"wrote LP model ({model.num_variables} variables, "
              f"{model.num_constraints} constraints) to {lp_path}")

    config_doc = _config_doc(radio, planning, {
        "mode": args.mode, "scenario": str(args.scenario),
        "time_limit": args.time_limit, "mip_gap": args.mip_gap})
    solver = {"solver": _solver_stats(model, result)}

    # Every exit that wrote an output writes the manifest that lists it.
    code = EXIT_SOLVER
    if result.status == STATUS_INFEASIBLE:
        print(f"status: infeasible (mode={args.mode}, budget={planning.budget}, "
              f"mu={planning.mu}); no plan written")
        code = EXIT_INFEASIBLE
    elif result.variable_values is None:
        print(f"solver error: status={result.status} {result.message}", file=sys.stderr)
    elif isinstance(problem, PlannerError):
        print(f"solver error: {problem}", file=sys.stderr)
    elif problem:
        print("decoded plan fails validation:", file=sys.stderr)
        for v in problem:
            print(f"  {v}", file=sys.stderr)
    else:
        outputs = {out: save_plan(plan, out), **outputs}
        timings["total"] = time.perf_counter() - started
        code = EXIT_OK
    if outputs:
        write_manifest(out, "plan", config_doc, scenario_digest, timings, outputs, solver)
    if code != EXIT_OK:
        return code

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
    scenario, radio, planning, scenario_digest = _load_inputs(args)
    try:
        plan_doc, plan_digest = read_json(args.plan, PlannerError)
        plan = plan_from_dict(plan_doc)
    except PlannerError as exc:
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

    report = evaluate(plan, scenario, args.counts, args.trials, args.seed,
                      self_blockage=not args.no_self_blockage,
                      obstacle_length_m=args.obstacle_length)
    timings["evaluate"] = time.perf_counter() - t2

    # Appended to the prefix: with_suffix would give run.1 and run.2 the same files.
    trials_path = Path(args.out + ".trials.csv")
    summary_path = Path(args.out + ".summary.csv")
    json_path = Path(args.out + ".json")
    outputs = {
        trials_path: write_atomic(trials_path, report_trials_csv(report)),
        summary_path: write_atomic(summary_path, report_summary_csv(report)),
        json_path: write_json(json_path, report_to_dict(report, plan_digest, scenario_digest)),
    }

    config_doc = _config_doc(radio, planning, {
        "plan": str(args.plan), "scenario": str(args.scenario),
        "counts": list(args.counts), "trials": args.trials, "seed": args.seed,
        "self_blockage": not args.no_self_blockage,
        "obstacle_length": args.obstacle_length})
    timings["total"] = time.perf_counter() - started
    write_manifest(json_path, "simulate", config_doc, scenario_digest, timings, outputs)

    for j, k in enumerate(report.obstacle_counts):
        print(f"obstacles {k:4d}: served {report.served_mean[j]:.3f} "
              f"+- {report.served_std[j]:.3f}")
    print(f"wrote {trials_path}, {summary_path}, {json_path}")
    return EXIT_OK


# -- sweep ----------------------------------------------------------------


def _grid_value(value: float) -> str:
    """``value`` in :g form where that reads back as ``value``, else in its
    shortest round-trip form, so distinct grid values get distinct ids."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _cell_id(payload: dict) -> str:
    return (f"s{payload['seed']}_b{_grid_value(payload['budget'])}"
            f"_m{_grid_value(payload['mu'])}_{payload['mode']}")


def _error_status(message: str) -> str:
    """A sweep status for a failed cell, with commas and line breaks taken
    out so the CSV keeps its columns."""
    return "error:" + " ".join(message.replace(",", ";").split())


def _blank_row(payload: dict, status: str) -> dict:
    """A cell's CSV row with only its grid point and status filled in."""
    row = {col: "" for col in SWEEP_COLUMNS}
    row.update(seed=payload["seed"], budget=payload["budget"], mu=payload["mu"],
               mode=payload["mode"], status=status)
    return row


def _cell(row: dict, solver: dict | None = None, timings: dict | None = None) -> dict:
    """A sweep cell's result: its CSV row, the solve's record and the stage
    timings (None where unknown: a failed cell, or one cached without them)."""
    return {"row": row, "solver": solver, "timings_s": timings}


def _sweep_cell(payload: dict) -> dict:
    """One sweep cell: generate, solve, decode; returns the cell's result
    (see _cell). Runs in a worker process; everything in/out is plain data."""
    scenario = generate(payload["width"], payload["height"],
                        payload["n_cs"], payload["n_tp"], payload["seed"])
    radio = RadioConfig(**payload["radio"])
    planning = PlanningConfig(**{**payload["planning"],
                                 "budget": payload["budget"], "mu": payload["mu"]})
    timings: dict[str, float] = {}
    model, result, plan, problem = _plan_stages(
        scenario, radio, planning, payload["mode"], payload["time_limit"], payload["mip_gap"],
        timings)
    row = _blank_row(payload, result.status)
    cell = _cell(row, _solver_stats(model, result), timings)
    if isinstance(problem, PlannerError):
        row["status"] = _error_status(str(problem))
    elif problem:
        row["status"] = f"error:{len(problem)} violations"
    if plan is None:
        return cell
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
    return cell


def _whole_resilience(row: dict, sim_counts: list[int]) -> bool:
    """Whether a cached row's resilience block is the one _sweep_cell
    writes: counts, mean and std, each a list with one item per obstacle
    count, when the sweep simulates and the cell has a plan; else none."""
    block = row.get("_resilience")
    if not sim_counts or row["objective"] == "":
        return block is None
    return isinstance(block, dict) and all(
        isinstance(block.get(key), list) and len(block[key]) == len(sim_counts)
        for key in ("counts", "mean", "std"))


def cmd_sweep(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    radio, planning = _configs_from_args(args)
    for mode in args.modes:
        if mode not in (MODE_RIS, MODE_BASELINE):
            raise ScenarioError(f"unknown mode {mode!r}")

    out_dir = Path(args.out_dir)
    cells_dir = out_dir / "cells"
    cells_dir.mkdir(parents=True, exist_ok=True)

    base_payload = {
        "width": args.width, "height": args.height,
        "n_cs": args.n_cs, "n_tp": args.n_tp,
        "radio": _fields(radio), "planning": _fields(planning),
        "time_limit": args.time_limit, "mip_gap": args.mip_gap,
        "sim_counts": args.sim_counts or [], "sim_trials": args.sim_trials,
        "sim_seed": args.sim_seed,
        # Cells decoded by an older extract_plan must not be reused.
        "decode_version": DECODE_VERSION,
    }

    grid = [dict(base_payload, seed=seed, budget=budget, mu=mu, mode=mode)
            for seed in args.seeds for budget in args.budgets
            for mu in args.mus for mode in args.modes]

    def cell_path(payload: dict) -> Path:
        return cells_dir / f"{_cell_id(payload)}.json"

    pending: list[tuple[int, dict]] = []
    cells: dict[int, dict] = {}
    for idx, payload in enumerate(grid):
        try:
            cached, _ = read_json(cell_path(payload), ValueError)
        except ValueError:      # no cell, or one that cannot be read: run it
            cached = None
        # A cell computed for this payload is reused only if it is whole: a
        # row with every column and the resilience block _sweep_cell writes,
        # and telemetry absent (cached before it was recorded), null or an
        # object. Any other cell runs again.
        if isinstance(cached, dict) and cached.get("digest") == _digest_config(payload):
            row, telemetry = cached.get("row"), (cached.get("solver"), cached.get("timings_s"))
            if (isinstance(row, dict) and set(SWEEP_COLUMNS) <= row.keys()
                    and _whole_resilience(row, payload["sim_counts"])
                    and all(isinstance(t, (dict, type(None))) for t in telemetry)):
                cells[idx] = _cell(row, *telemetry)
                continue
        pending.append((idx, payload))

    def run(idx: int, payload: dict, cell) -> None:
        try:
            result = cell()
        except _FLAG_ERRORS:
            raise
        except Exception as exc:
            print(f"sweep cell {_cell_id(payload)} failed:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)
            # Not cached: a rerun retries it.
            cells[idx] = _cell(_blank_row(payload, _error_status(f"{type(exc).__name__}: {exc}")))
            return
        cells[idx] = result
        write_json(cell_path(payload), {"digest": _digest_config(payload), **result})

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
    cells_in_order = [cells[idx] for idx in range(len(grid))]
    rows = [cell["row"] for cell in cells_in_order]
    for row in rows:
        csv_lines.append(",".join(str(row[col]) for col in SWEEP_COLUMNS))
        extra = row.get("_resilience")
        if extra:
            for j, k in enumerate(extra["counts"]):
                resilience_lines.append(
                    f"{row['seed']},{row['budget']},{row['mu']},{row['mode']},"
                    f"{k},{extra['mean'][j]!r},{extra['std'][j]!r}")

    sweep_csv = out_dir / "sweep.csv"
    outputs = {sweep_csv: write_atomic(sweep_csv, "\n".join(csv_lines) + "\n")}
    if len(resilience_lines) > 1:
        res_csv = out_dir / "sweep_resilience.csv"
        outputs[res_csv] = write_atomic(res_csv, "\n".join(resilience_lines) + "\n")

    config_doc = dict(base_payload, seeds=list(args.seeds),
                      budgets=list(args.budgets), mus=list(args.mus),
                      modes=list(args.modes))
    telemetry = {_cell_id(payload): {"solver": cell["solver"], "timings_s": cell["timings_s"]}
                 for payload, cell in zip(grid, cells_in_order)}
    write_manifest(sweep_csv, "sweep", config_doc, None,
                   {"total": time.perf_counter() - started}, outputs, {"cells": telemetry})
    n_solved = sum(1 for r in rows if r["status"] == "optimal")
    n_infeasible = sum(1 for r in rows if r["status"] == "infeasible")
    print(f"{len(grid)} cells: {n_solved} optimal, {n_infeasible} infeasible, "
          f"{len(grid) - n_solved - n_infeasible} other; wrote {sweep_csv}")
    return EXIT_OK


# -- parser ---------------------------------------------------------------


def _add_area_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--width", type=float, default=300.0, help="area width, m")
    parser.add_argument("--height", type=float, default=400.0, help="area height, m")
    parser.add_argument("--n-cs", type=int, default=25, help="candidate sites")
    parser.add_argument("--n-tp", type=int, default=15, help="test points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risplan",
        description="mm-wave access network planning with relay stations and "
                    "reflecting surfaces, plus blockage-resilience simulation")
    parser.add_argument("--version", action="version", version=f"risplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="draw a random planning instance")
    _add_area_flags(p_gen)
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
    _add_config_flags(p_plan)
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
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid of plan runs aggregated to CSV")
    p_sweep.add_argument("--seeds", type=int, nargs="+", required=True)
    p_sweep.add_argument("--budgets", type=float, nargs="+", required=True)
    p_sweep.add_argument("--mus", type=float, nargs="+", default=[0.5])
    p_sweep.add_argument("--modes", nargs="+", default=[MODE_RIS, MODE_BASELINE])
    _add_area_flags(p_sweep)
    p_sweep.add_argument("--time-limit", type=float, default=None)
    p_sweep.add_argument("--mip-gap", type=float, default=0.0)
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.add_argument("--sim-counts", type=int, nargs="*", default=None,
                         help="also simulate each feasible cell at these counts")
    p_sweep.add_argument("--sim-trials", type=int, default=20)
    p_sweep.add_argument("--sim-seed", type=int, default=0)
    p_sweep.add_argument("--out-dir", required=True)
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FLAG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
