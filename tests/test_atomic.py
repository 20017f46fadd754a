"""Data files are written atomically: a write that fails part-way leaves
the old file as it was and no temporary file behind."""

import ast
import builtins
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from risplan.planner import NetworkPlan, load_plan, save_plan
from risplan.scenario import generate, load, save

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def full_disk(monkeypatch, tmp_path):
    """Call it to make every later write under tmp_path stop half-way with
    ENOSPC, as on a full disk."""
    real_open = io.open

    class HalfWriter:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def close(self):
            self.handle.close()

        def write(self, text):
            self.handle.write(text[: len(text) // 2])
            self.handle.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    def half_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        ours = isinstance(file, int) or str(file).startswith(str(tmp_path))
        writing = any(flag in mode for flag in "wxa+")
        return HalfWriter(handle) if writing and ours else handle

    def enable():
        monkeypatch.setattr(io, "open", half_open)
        monkeypatch.setattr(builtins, "open", half_open)

    return enable


def plan(donor: int) -> NetworkPlan:
    return NetworkPlan(mode="ris", donor=donor, iab_nodes=(donor,), ris_sites=(),
                       assignments=((donor, donor),), backhaul_edges=(), flows_mbps={},
                       wired_inflow_mbps=100.0, orientations_rad={}, theta_per_tp=(1.0,),
                       len_per_tp=(10.0,), total_cost=1.0, objective_value=0.5)


def test_failed_scenario_save_keeps_old_file(tmp_path, full_disk):
    path = tmp_path / "scenario.json"
    old = generate(200.0, 200.0, 6, 3, seed=1)
    save(old, path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError):
        save(generate(200.0, 200.0, 9, 4, seed=2), path)
    assert path.read_bytes() == before
    assert load(path) == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_failed_plan_save_keeps_old_file(tmp_path, full_disk):
    path = tmp_path / "plan.json"
    save_plan(plan(0), path)
    before = path.read_bytes()
    full_disk()
    with pytest.raises(OSError):
        save_plan(plan(1), path)
    assert path.read_bytes() == before
    assert load_plan(path).donor == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_saved_files_get_the_usual_permissions(tmp_path):
    reference = tmp_path / "reference.json"
    reference.write_text("{}\n")
    save(generate(200.0, 200.0, 6, 3, seed=1), tmp_path / "scenario.json")
    save_plan(plan(0), tmp_path / "plan.json")
    for name in ("scenario.json", "plan.json"):
        assert (tmp_path / name).stat().st_mode == reference.stat().st_mode


def test_files_written_and_read_as_utf8(tmp_path):
    """Every save and load path names its encoding, so files do not depend
    on the locale: with the warning for a default encoding made an error,
    the commands run, and text goes to disk as UTF-8 with its line ends
    as given."""
    area = ["--width", "200", "--height", "200", "--n-cs", "6", "--n-tp", "3"]
    sweep = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.5", "--modes", "ris",
             *area, "--out-dir", "sweep"]
    code = f"""
import contextlib, io, json
from risplan.atomic import write_atomic
from risplan.cli import main
from risplan.planner import load_plan
from risplan.scenario import load

write_atomic("text.txt", "caf\u00e9 \u03b8\\r\\n")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["generate", *{area!r}, "--seed", "1", "--out", "scenario.json"]),
             main(["plan", "--scenario", "scenario.json", "--budget", "2.3", "--out", "plan.json"]),
             main(["simulate", "--plan", "plan.json", "--scenario", "scenario.json",
                   "--counts", "0", "10", "--trials", "3", "--out", "report"]),
             main({sweep!r}), main({sweep!r})]    # the second reads the cached cell
print(json.dumps({{"codes": codes, "sites": len(load("scenario.json").candidate_sites),
                  "donor": load_plan("plan.json").donor}}))
"""
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 0, 0] and out["sites"] == 6 and out["donor"] >= 0
    assert (tmp_path / "text.txt").read_bytes() == "caf\u00e9 \u03b8\r\n".encode("utf-8")


def _file_calls(module: Path):
    """(top-level definition or None, called name, keyword names) for every
    call in a module that reads or writes text: loads, dumps, read_text."""
    for top in ast.parse(module.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("loads", "dumps", "read_text"):
                yield owner, name, {kw.arg for kw in node.keywords}


def test_one_json_reader_and_one_writer():
    """json.loads and Path.read_text appear in the package only in
    read_json, and json.dumps with an indent only in write_json, so no
    module grows a reader or a file writer of its own."""
    found = sorted((module.stem, owner, name) for module in (SRC / "risplan").glob("*.py")
                   for owner, name, keywords in _file_calls(module)
                   if name != "dumps" or "indent" in keywords)
    assert found == [("atomic", "read_json", "loads"), ("atomic", "write_json", "dumps")]
