"""scipy loads on the first solve, not on import: importing risplan and
running the commands that never solve load no scipy module, and without
scipy a solve fails cleanly. Each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PLAN = Path(__file__).resolve().parent / "data" / "ris_plan_small_mu1.json"

# The stored plan's scenario: 6 sites and 3 test points, seed 1.
GENERATE = ["generate", "--width", "200", "--height", "200", "--n-cs", "6", "--n-tp", "3",
            "--seed", "1", "--out", "scenario.json"]


def run_python(code: str, cwd: Path) -> dict:
    """Run code in a fresh interpreter that imports risplan from the source
    tree; it prints one JSON object last."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_until_the_first_solve(tmp_path):
    code = f"""
import contextlib, io, json, sys
import risplan
import risplan.cli
from risplan.cli import main

codes = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    codes["generate"] = main({GENERATE!r})
    codes["simulate"] = main(["simulate", "--plan", {str(PLAN)!r}, "--scenario",
                              "scenario.json", "--counts", "0", "10", "--trials", "3",
                              "--out", "report"])
    try:
        main(["--help"])
    except SystemExit as exc:
        codes["help"] = exc.code
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

from risplan import PlanningConfig, RadioConfig, build_link_tables, build_ris_model, load, solve
scenario = load("scenario.json")
model = build_ris_model(scenario, build_link_tables(scenario, RadioConfig()),
                        PlanningConfig(mu=0.5, budget=2.3))
result = solve(model)
print(json.dumps({{"codes": codes, "before": before, "status": result.status,
                  "after": "scipy.optimize" in sys.modules}}))
"""
    out = run_python(code, tmp_path)
    assert out["codes"] == {"generate": 0, "simulate": 0, "help": 0}
    assert out["before"] == []
    assert out["status"] == "optimal"
    assert out["after"]


def test_missing_scipy_fails_the_solve_not_the_import(tmp_path):
    code = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from risplan.cli import main
from risplan import MilpModel, solve

model = MilpModel()
model.set_objective_coeff(model.add_variable(("x",), "binary"), 1.0)
result = solve(model)
err = io.StringIO()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
    generated = main({GENERATE!r})
    planned = main(["plan", "--scenario", "scenario.json", "--out", "plan.json"])
print(json.dumps({{"status": result.status, "message": result.message,
                  "generate": generated, "plan": planned, "stderr": err.getvalue()}}))
"""
    out = run_python(code, tmp_path)
    assert out["status"] == "error" and "scipy" in out["message"]
    assert out["generate"] == 0
    assert out["plan"] == 4 and "scipy" in out["stderr"]
    assert not (tmp_path / "plan.json").exists()
