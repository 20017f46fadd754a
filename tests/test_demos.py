"""Smoke runs of the demos: each one runs to its end in a scratch working
directory and prints its results. Demo 01 does no solve, so its whole
output is pinned: the link-budget figures it prints must not move.

demos/04_budget_sweep.py is left out. It solves a budget grid next to the
station-only feasibility cliff and takes about a minute, far longer than
the other three together (about a second).
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_01_STDOUT = Path(__file__).resolve().parent / "data" / "demo01_link_budget.stdout"

# Text each demo prints once it has run through.
EXPECTED = {
    "01_link_budget.py": "Radio defaults",
    "02_plan_small_network.py": "independent validation: 0 violations",
    "03_blockage_simulation.py": "obstacles",
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert EXPECTED[name] in out
    if name.startswith("01"):
        assert out == DEMO_01_STDOUT.read_text(encoding="utf-8")
    if name.startswith("02"):
        # The exhaustive oracle and the solver agree on the optimum.
        optima = [line.split()[-1] for line in out.splitlines() if "optimum" in line]
        assert len(optima) == 2 and optima[0] == optima[1]
    assert list(tmp_path.iterdir()) == []  # demos write no files
