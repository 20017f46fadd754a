"""Runs one workload in this process and writes its figures to a file.

Started by ``run.py``, never by hand; its standard output may carry solver
chatter, so results travel only through the ``--out`` file.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --out FILE [--trace-out FILE] [--setup-only]

Set-up runs from the first line of this file to the end of the
workload's ``setup``, so it includes importing numpy, scipy and risplan.
Then rounds run until ``--seconds`` have passed, at least one (two when
tracing: tracing alternates untraced and traced rounds, and the traced
figures come only from traced rounds).
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

from tracing import Recorder, phase_sums, span_cost_s  # noqa: E402

# Every per-layer figure, by the span name it sums; see README.md. Spans
# replayed after a traced round (``sample_trial``) are in its extras phase.
SPAN_METRICS = {
    "scenario.generate_s": "scenario.generate",
    "radio.build_link_tables_s": "radio.build_link_tables",
    "planner.build_ris_model_s": "planner.build_ris_model",
    "planner.build_baseline_model_s": "planner.build_baseline_model",
    "planner.extract_plan_s": "planner.extract_plan",
    "solver.solve_s": "solver.solve",
    "solver.highs_s": "solver.highs",
    "validate.validate_plan_s": "validate.validate_plan",
    "milp.export_lp_s": "milp.export_lp",
    "milp.read_lp_s": "milp.read_lp",
    "resilience.evaluate_s": "resilience.evaluate",
    "resilience.sample_trial_s": "resilience.sample_trial",
}
COUNT_METRICS = ("radio.src_triples", "planner.ris_rows", "planner.ris_vars",
                 "planner.ris_nnz", "planner.baseline_rows", "planner.baseline_vars",
                 "planner.baseline_nnz", "milp.lp_bytes", "resilience.link_obstacle_pairs")
LAYERS = ("bench", "scenario", "radio", "planner", "solver", "milp", "validate", "resilience")
STAGES = ("study_s", "assemble_s", "lp_roundtrip_s", "trials_per_s")


def _median(values):
    return statistics.median(values) if values else 0.0


def extras_phase(phase: str) -> str:
    return f"{phase}-extras"


def tracing_overhead(rec, rounds) -> dict:
    """Tracing overhead of one traced round: its spans times the measured
    cost of tracing one span. The traced-minus-untraced round time is kept
    beside it only when each side has several rounds; otherwise machine
    drift swamps it."""
    per_span = span_cost_s()
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    spans = _median([sum(1 for s in rec.spans if s["phase"] == r["phase"]) for r in traced])
    diff = None
    if min(len(traced), len(plain)) >= 3:
        diff = (_median([r["wall_s"] for r in traced])
                - _median([r["wall_s"] for r in plain]))
    return {"per_span_s": per_span, "spans_per_round": spans,
            "estimate_s": per_span * spans, "measured_diff_s": diff,
            "rounds_each_side": min(len(traced), len(plain))}


def per_layer(rec, rounds, setup_counts, overhead) -> dict[str, float]:
    """Per-layer figures: the traced set-up plus the median traced round."""
    setup_names, setup_self = phase_sums(rec.spans, "setup")
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    sums = [phase_sums(rec.spans, r["phase"]) for r in traced]
    extras = [phase_sums(rec.spans, extras_phase(r["phase"]))[0] for r in traced]
    out = {}
    for metric, name in SPAN_METRICS.items():
        out[metric] = setup_names.get(name, 0.0) + _median(
            [s[0].get(name, 0.0) + e.get(name, 0.0) for s, e in zip(sums, extras)])
    out["solver.handoff_s"] = out["solver.solve_s"] - out["solver.highs_s"]
    for metric in COUNT_METRICS:
        out[metric] = setup_counts.get(metric, 0) + statistics.median_low(
            [r["counts"].get(metric, 0) for r in traced])
    for layer in LAYERS:
        out[f"self.{layer}_s"] = setup_self.get(layer, 0.0) + _median(
            [s[1].get(layer, 0.0) for s in sums])
    for stage in STAGES:
        out[f"stage.{stage}"] = _median([r["stage"][stage] for r in plain
                                         if stage in r["stage"]])
    out["trace.overhead_s"] = overhead["estimate_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import risplan
    if Path(risplan.__file__).resolve().parent != SRC / "risplan":
        raise SystemExit(f"risplan imported from {risplan.__file__}, not from {SRC}")
    from workloads import WORKLOADS

    rec = Recorder(trace=bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed)
    with rec.span("bench.setup"):
        workload.setup(rec)
    setup_s = time.perf_counter() - T0
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    rounds = []
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 1
    while len(rounds) < min_rounds or time.perf_counter() - start < args.seconds:
        index = len(rounds)
        rec.trace = bool(args.trace) and index % 2 == 1
        rec.phase = f"round{index}"
        rec.reset_totals()
        t = time.perf_counter()
        with rec.span("bench.round"):
            out = workload.round(rec, index)
        wall = time.perf_counter() - t
        totals = dict(rec.totals)
        phase, traced = rec.phase, rec.trace
        counts = {}
        if traced:
            rec.phase = extras_phase(phase)
            counts = workload.traced_extras(rec, out)
        errors = workload.check(out)
        failed = out["failed"]
        rounds.append({"index": index, "phase": phase, "traced": traced,
                       "wall_s": wall, "attempted": out["attempted"],
                       "failed": sum(n for _, n, _ in failed),
                       "failures": [f"{key}: {tb}" for key, _, tb in failed],
                       "errors": errors, "totals": totals,
                       "stage": workload.stage(totals, out), "counts": counts})
        del out
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "rounds": rounds,
        "python": sys.version.split()[0],
    })
    if args.trace:
        result["trace_overhead"] = tracing_overhead(rec, rounds)
        result["per_layer"] = per_layer(rec, rounds, workload.setup_counts,
                                        result["trace_overhead"])
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "spans": rec.spans,
                 "computed_not_measured": ["resilience.link_obstacle_pairs"]}))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
