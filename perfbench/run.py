"""risplan benchmark: one workload, timed end to end, checked, reported.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-plan|large-model|blockage \
        --seed N --seconds S --trace 0|1

The workload runs in a worker process (``worker.py``) that imports the
program from ``src/``; its figures come back through a file under
``perfbench/out/``, so solver output on standard output cannot corrupt
them. Without tracing, the worker is started three times and set-up time
is the median of the three set-ups; the last start also runs the rounds.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics without
tracing, the per-layer metrics with it). Exits 1 when the worker fails
and 2 when the program's sources are missing, printing no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
DEADLINE_S = 175.0

UNITS_E2E = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric == "milp.lp_bytes":
        return "B"
    if metric == "stage.trials_per_s":
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    return "count"


def run_worker(args, out: Path, deadline: float, extra: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out), *extra]
    out.unlink(missing_ok=True)
    # The worker's standard output goes to our standard error.
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-plan", "large-model", "blockage"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "risplan" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'risplan'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT_DIR / f"{stem}.json"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, OUT_DIR / f"{stem}-setup{i}.json",
                                         deadline, ["--setup-only"])["setup_s"])
        extra = ["--trace-out", str(OUT_DIR / f"trace-{stem}.json")] if args.trace else []
        result = run_worker(args, out, deadline, extra)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    rounds = result["rounds"]
    errors = [e for r in rounds for e in r["errors"]]
    for text in errors[:10] + [f for r in rounds for f in r["failures"]][:10]:
        print(f"perfbench: {text}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in result["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "round_s": statistics.median(r["wall_s"] for r in rounds),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": UNITS_E2E[k]} for k, v in values.items()}
        result["setup_runs_s"] = setups
        out.write_text(json.dumps(result))
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r["attempted"] for r in rounds),
                      "failed": sum(r["failed"] for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
