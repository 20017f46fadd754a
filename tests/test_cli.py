import hashlib
import json
import math
import multiprocessing
from collections import Counter
from pathlib import Path

import pytest

from risplan import atomic, cli, planner, scenario, solver
from risplan.cli import main
from risplan.milp import read_lp
from risplan.planner import load_plan
from risplan.scenario import load


@pytest.fixture(scope="module")
def scenario_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scenario.json"
    code = main(["generate", "--width", "200", "--height", "200",
                 "--n-cs", "6", "--n-tp", "3", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_writes_loadable_scenario(self, scenario_file):
        s = load(scenario_file)
        assert s.n_sites == 6 and s.n_test_points == 3

    def test_manifest_written(self, scenario_file):
        manifest = scenario_file.with_suffix(".json.manifest.json")
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "generate"
        assert str(scenario_file) in doc["outputs"]

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert main(["generate", "--n-cs", "5", "--n-tp", "2", "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_counts_exit_2(self, tmp_path):
        code = main(["generate", "--n-cs", "0", "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--width", "--height"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_bad_area_exit_2(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x.json"
        assert main(["generate", f"{flag}={value}", "--out", str(out)]) == 2
        assert "finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--seed", "-1", "--out", str(out)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_default_flags_reference_shape(self, tmp_path):
        out = tmp_path / "ref.json"
        assert main(["generate", "--out", str(out)]) == 0
        s = load(out)
        assert (s.n_sites, s.n_test_points) == (25, 15)
        assert (s.area_width, s.area_height) == (300.0, 400.0)


class TestPlan:
    def test_ris_plan_roundtrip(self, scenario_file, tmp_path):
        out = tmp_path / "plan.json"
        code = main(["plan", "--scenario", str(scenario_file), "--mode", "ris",
                     "--budget", "2.3", "--mu", "0.5", "--export-lp",
                     "--out", str(out)])
        assert code == 0
        plan = load_plan(out)
        assert plan.mode == "ris"
        assert plan.total_cost <= 2.3 + 1e-9
        lp = out.with_suffix(".json.lp")
        assert lp.exists()
        assert lp.read_text().startswith("\\ ris")
        manifest = out.with_suffix(".json.manifest.json")
        doc = json.loads(manifest.read_text())
        assert doc["command"] == "plan"
        assert len(doc["outputs"]) == 2
        stats = doc["solver"]
        assert stats["status"] == "optimal" and stats["gap"] == 0.0
        assert stats["dual_bound"] == pytest.approx(plan.objective_value, rel=1e-6)
        assert stats["node_count"] >= 0
        # The exported LP holds the model whose size the manifest reports.
        model = read_lp(lp.read_text())
        assert (stats["rows"], stats["variables"]) == (model.num_constraints,
                                                       model.num_variables)
        assert stats["nonzeros"] == sum(len(row.coeffs) for row in model.constraints)

    def test_manifest_stage_timings(self, scenario_file, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["plan", "--scenario", str(scenario_file), "--budget", "2.3",
                     "--out", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json.manifest.json").read_text())
        timings = doc["timings_s"]
        stages = {"link_tables", "build", "solve", "decode", "validate"}
        assert set(timings) == stages | {"highs", "total"}
        assert all(v >= 0.0 for v in timings.values())
        assert timings["total"] >= sum(timings[stage] for stage in stages)
        # HiGHS runs inside the solve stage, which also hands the model over.
        assert 0.0 < timings["highs"] <= timings["solve"]

    def test_infeasible_exit_3(self, scenario_file, tmp_path):
        code = main(["plan", "--scenario", str(scenario_file), "--mode", "baseline",
                     "--budget", "1", "--out", str(tmp_path / "p.json")])
        assert code == 3
        assert not (tmp_path / "p.json").exists()

    def test_infeasible_manifest_node_count_null(self, scenario_file, tmp_path):
        out = tmp_path / "p.json"
        code = main(["plan", "--scenario", str(scenario_file), "--mode", "baseline",
                     "--budget", "1", "--export-lp", "--out", str(out)])
        assert code == 3
        doc = json.loads(out.with_suffix(".json.manifest.json").read_text())
        assert doc["solver"]["status"] == "infeasible"
        assert doc["solver"]["node_count"] is None and doc["solver"]["dual_bound"] is None

    def test_solver_error_manifest_lists_lp(self, scenario_file, tmp_path, monkeypatch):
        def crash(**kwargs):
            raise RuntimeError("solver crashed")

        monkeypatch.setattr(solver, "scipy_milp", crash)
        for export, out in ((["--export-lp"], tmp_path / "p.json"), ([], tmp_path / "q.json")):
            code = main(["plan", "--scenario", str(scenario_file), "--mode", "ris",
                         "--budget", "2.3", *export, "--out", str(out)])
            assert code == 4 and not out.exists()
        doc = json.loads((tmp_path / "p.json.manifest.json").read_text())
        lp = tmp_path / "p.json.lp"
        assert doc["outputs"] == {str(lp): hashlib.sha256(lp.read_bytes()).hexdigest()}
        assert doc["solver"]["status"] == "error" and doc["solver"]["rows"] > 0
        # Without an LP file the failed run wrote nothing, not even a manifest.
        assert not (tmp_path / "q.json.manifest.json").exists()

    def test_missing_scenario_exit_2(self, tmp_path):
        code = main(["plan", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2

    def test_scenario_not_utf8_exit_2(self, tmp_path):
        (tmp_path / "latin1.json").write_bytes("{\"caf\u00e9\": 1}".encode("latin-1"))
        code = main(["plan", "--scenario", str(tmp_path / "latin1.json"),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2

    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5000], ids=["deep", "long-int"])
    def test_scenario_json_too_deep_or_long_exit_2(self, tmp_path, capsys, text):
        # json raises RecursionError and a plain ValueError here, not JSONDecodeError.
        (tmp_path / "s.json").write_text(text)
        code = main(["plan", "--scenario", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_timeout_without_incumbent_exit_4(self, tmp_path):
        # A hopeless time limit is a solver failure, not a crash; proven
        # infeasibility (exit 3) at tight budgets is asserted statistically
        # in the acceptance suite's cliff study.
        scenario = tmp_path / "full.json"
        assert main(["generate", "--seed", "3", "--out", str(scenario)]) == 0
        code = main(["plan", "--scenario", str(scenario), "--mode", "baseline",
                     "--budget", "3", "--time-limit", "0.05",
                     "--out", str(tmp_path / "p.json")])
        assert code in (3, 4)  # proven infeasible or timed out without incumbent
        assert not (tmp_path / "p.json").exists()

    def test_embedded_planning_block_used(self, tmp_path):
        from risplan.scenario import PlanningConfig, generate, save
        path = tmp_path / "scenario.json"
        save(generate(200.0, 200.0, 6, 3, seed=1), path,
             planning=PlanningConfig(budget=1.0))
        # Embedded budget 1.0 makes the baseline infeasible...
        assert main(["plan", "--scenario", str(path), "--mode", "baseline",
                     "--out", str(tmp_path / "p.json")]) == 3
        # ...but an explicit flag overrides the embedded block.
        assert main(["plan", "--scenario", str(path), "--mode", "baseline",
                     "--budget", "3", "--out", str(tmp_path / "p.json")]) == 0

    def test_malformed_planning_block_exit_2(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        for block in (["mu"], {"mu": "x"}, {"budget": None}, {"xi": True}):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(dict(doc, planning=block)))
            code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "p.json")])
            assert code == 2, block
            assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("flag", ["--budget", "--len-norm", "--mu", "--wired-capacity",
                                      "--bandwidth", "--ris-element-gain"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exit_2(self, scenario_file, tmp_path, capsys, flag, value):
        code = main(["plan", "--scenario", str(scenario_file), f"{flag}={value}",
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "p.json").exists()

    @pytest.mark.parametrize("value", ["200", [200.0]])
    def test_area_not_a_number_exit_2(self, scenario_file, tmp_path, capsys, value):
        doc = json.loads(scenario_file.read_text())
        doc["area"]["width"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert "malformed field area.width" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("candidate_sites", [["5", "5"]] * 6),
                                            ("test_points", [[True, 5]] * 3), ("seed", True)])
    def test_coordinate_or_seed_not_a_number_exit_2(self, scenario_file, tmp_path, capsys,
                                                    key, value):
        doc = json.loads(scenario_file.read_text())
        doc[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert f"malformed field {key}" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_reads_scenario_once(self, scenario_file, tmp_path, monkeypatch):
        reads = count_reads(monkeypatch)
        out = tmp_path / "p.json"
        assert main(["plan", "--scenario", str(scenario_file), "--budget", "2.3",
                     "--out", str(out)]) == 0
        assert reads(scenario_file) == (1, 1)
        manifest = json.loads(out.with_suffix(".json.manifest.json").read_text())
        assert manifest["scenario_digest"] == hashlib.sha256(scenario_file.read_bytes()).hexdigest()

    def test_outputs_not_read_back(self, scenario_file, tmp_path, monkeypatch):
        # The manifest takes each digest from the write, so no output is read.
        reads = count_reads(monkeypatch)
        out = tmp_path / "p.json"
        assert main(["plan", "--scenario", str(scenario_file), "--budget", "2.3",
                     "--export-lp", "--out", str(out)]) == 0
        lp, manifest = out.with_suffix(".json.lp"), out.with_suffix(".json.manifest.json")
        assert [reads(path) for path in (out, lp, manifest)] == [(0, 0)] * 3
        assert reads(scenario_file) == (1, 1)
        assert json.loads(manifest.read_text())["outputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in (out, lp)}

    def test_non_finite_planning_block_exit_2(self, scenario_file, tmp_path, capsys):
        doc = json.loads(scenario_file.read_text())
        for block in ({"budget": float("nan")}, {"len_norm_m": float("inf")}):
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(dict(doc, planning=block)))
            code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "p.json")])
            assert code == 2, block
            assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_every_config_flag_reaches_manifest(self, scenario_file, tmp_path):
        # One non-default value per radio and planning flag, with the
        # section and field of the effective config it must land in.
        flags = {
            "--tx-power": ("radio", "tx_power_dbm", 31.5),
            "--bs-elements": ("radio", "bs_array_elements", 32),
            "--ris-elements": ("radio", "ris_elements", 9000),
            "--bandwidth": ("radio", "bandwidth_hz", 300e6),
            "--noise-figure": ("radio", "noise_figure_db", 6.5),
            "--pathloss-intercept": ("radio", "pathloss_intercept_db", 61.0),
            "--pathloss-exponent": ("radio", "pathloss_exponent", 2.25),
            "--ris-element-gain": ("radio", "ris_element_gain_db", 9.5),
            "--mu": ("planning", "mu", 0.25),
            "--budget": ("planning", "budget", 7.5),
            "--demand": ("planning", "demand_mbps", 50.0),
            "--xi": ("planning", "xi", 0.25),
            "--price-iab": ("planning", "price_iab", 1.5),
            "--price-ris": ("planning", "price_ris", 0.2),
            "--fov": ("planning", "fov_rad", 2.5),
            "--theta-norm": ("planning", "theta_norm_rad", 3.0),
            "--len-norm": ("planning", "len_norm_m", 400.0),
            "--wired-capacity": ("planning", "wired_capacity_mbps", 5e8),
        }
        for mode in ("ris", "baseline"):
            out = tmp_path / f"{mode}.json"
            argv = ["plan", "--scenario", str(scenario_file), "--mode", mode,
                    "--export-lp", "--out", str(out)]
            for flag, (_, _, value) in flags.items():
                argv += [flag, str(value)]
            assert main(argv) in (0, 3)
            config = json.loads(out.with_suffix(".json.manifest.json").read_text())[
                "effective_config"]
            for flag, (section, field, value) in flags.items():
                assert config[section][field] == value, flag
            # Every field but the MCS table has a flag.
            covered = {(section, field) for section, field, _ in flags.values()}
            assert covered == {(section, field) for section in ("radio", "planning")
                               for field in config[section] if field != "mcs_table"}
            assert config["mode"] == mode


def count_reads(monkeypatch):
    """Count the calls of the JSON reader and the raw reads of each file
    (Path.read_bytes and Path.read_text, the reader's own included); the
    function returned gives a path's (reader calls, raw reads)."""
    reader, raw = Counter(), Counter()
    real_read_json, real_bytes, real_text = atomic.read_json, Path.read_bytes, Path.read_text

    def read_json(path, error):
        reader[Path(path).resolve()] += 1
        return real_read_json(path, error)

    def counted(real):
        def read(self, *args, **kwargs):
            raw[self.resolve()] += 1
            return real(self, *args, **kwargs)
        return read

    for module in (atomic, cli, scenario, planner):
        if getattr(module, "read_json", None) is real_read_json:
            monkeypatch.setattr(module, "read_json", read_json)
    monkeypatch.setattr(Path, "read_bytes", counted(real_bytes))
    monkeypatch.setattr(Path, "read_text", counted(real_text))
    return lambda path: (reader[Path(path).resolve()], raw[Path(path).resolve()])


@pytest.fixture(scope="module")
def plan_file(scenario_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("plan") / "plan.json"
    assert main(["plan", "--scenario", str(scenario_file),
                 "--budget", "2.3", "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_zero_obstacles_no_sectors_fully_served(self, scenario_file, plan_file,
                                                    tmp_path):
        out = tmp_path / "report"
        code = main(["simulate", "--plan", str(plan_file),
                     "--scenario", str(scenario_file), "--counts", "0",
                     "--trials", "5", "--no-self-blockage", "--out", str(out)])
        assert code == 0
        summary = (tmp_path / "report.summary.csv").read_text().splitlines()
        assert summary[0] == "obstacle_count,mean,std"
        count, mean, std = summary[1].split(",")
        assert float(mean) == 1.0 and float(std) == 0.0

    def test_deterministic_outputs(self, scenario_file, plan_file, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["simulate", "--plan", str(plan_file),
                         "--scenario", str(scenario_file),
                         "--counts", "0", "20", "60", "--trials", "10",
                         "--seed", "5", "--out", str(out)]) == 0
            outs.append((tmp_path / f"{name}.trials.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_dotted_prefixes_get_distinct_files(self, scenario_file, plan_file, tmp_path):
        for seed, prefix in (("1", "run.1"), ("2", "run.2")):
            assert main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                         "--counts", "0", "20", "--trials", "3", "--seed", seed,
                         "--out", str(tmp_path / prefix)]) == 0
        for suffix in (".trials.csv", ".summary.csv", ".json", ".json.manifest.json"):
            one, two = (tmp_path / f"run.{i}{suffix}" for i in (1, 2))
            assert one.exists() and two.exists()
        assert (json.loads((tmp_path / "run.1.json").read_text())["base_seed"],
                json.loads((tmp_path / "run.2.json").read_text())["base_seed"]) == (1, 2)
        assert not (tmp_path / "run.json").exists()

    def test_negative_seed_exit_2(self, scenario_file, plan_file, tmp_path, capsys):
        code = main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                     "--counts", "0", "--seed", "-1", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "base_seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "r.trials.csv").exists()

    @pytest.mark.parametrize("value", ["200", [200.0]])
    def test_area_not_a_number_exit_2(self, scenario_file, plan_file, tmp_path, capsys, value):
        doc = json.loads(scenario_file.read_text())
        doc["area"]["height"] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(plan_file), "--scenario", str(bad),
                     "--counts", "0", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "malformed field area.height" in capsys.readouterr().err

    def test_manifest_stage_timings(self, scenario_file, plan_file, tmp_path):
        out = tmp_path / "report"
        assert main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                     "--counts", "0", "10", "--trials", "3", "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "report.json.manifest.json").read_text())
        timings = doc["timings_s"]
        assert set(timings) == {"link_tables", "validate", "evaluate", "total"}
        assert all(v >= 0.0 for v in timings.values())
        assert timings["total"] >= timings["link_tables"] + timings["evaluate"]

    @pytest.mark.parametrize("length", ["0", "-1", "nan", "inf"])
    def test_bad_obstacle_length_exit_2(self, scenario_file, plan_file, tmp_path, length):
        code = main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                     "--counts", "0", "10", "--trials", "2",
                     f"--obstacle-length={length}", "--out", str(tmp_path / "r")])
        assert code == 2
        assert not (tmp_path / "r.trials.csv").exists()

    @pytest.mark.parametrize("length", ["1e-15", "1e-320"])
    def test_point_obstacles_exit_2(self, scenario_file, plan_file, tmp_path, length, capsys):
        code = main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                     "--counts", "0", "10", "--trials", "2",
                     f"--obstacle-length={length}", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "coincident endpoints" in capsys.readouterr().err
        assert not (tmp_path / "r.trials.csv").exists()

    def test_missing_plan_exit_2(self, scenario_file, tmp_path):
        code = main(["simulate", "--plan", str(tmp_path / "nope.json"),
                     "--scenario", str(scenario_file), "--counts", "0",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_plan_not_utf8_exit_2(self, scenario_file, tmp_path):
        (tmp_path / "latin1.json").write_bytes("{\"caf\u00e9\": 1}".encode("latin-1"))
        code = main(["simulate", "--plan", str(tmp_path / "latin1.json"),
                     "--scenario", str(scenario_file), "--counts", "0",
                     "--out", str(tmp_path / "r")])
        assert code == 2

    def test_invalid_plan_exit_2(self, scenario_file, plan_file, tmp_path):
        doc = json.loads(plan_file.read_text())
        doc["metrics"]["theta_per_tp"] = [v + 1.0 for v in doc["metrics"]["theta_per_tp"]]
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(bad), "--scenario", str(scenario_file),
                     "--counts", "0", "--out", str(tmp_path / "r")])
        assert code == 2
        # Documents of the wrong shape or type are rejected as they load.
        good = json.loads(plan_file.read_text())
        malformed = [[], "plan", dict(good, assignments=[[1]] * 3),
                     dict(good, assignments=5), dict(good, assignments=[["a", "b"]] * 3),
                     dict(good, donor="0"), dict(good, iab_nodes=[1.5]),
                     dict(good, backhaul=[[0]]), dict(good, flows=[[0, 1]]),
                     dict(good, flows=[[0, 1, "x"]]), dict(good, orientations={"1": 0.5}),
                     dict(good, orientations=[[1, None]]), dict(good, metrics=[]),
                     dict(good, metrics=dict(good["metrics"], theta_per_tp=3)),
                     dict(good, metrics=dict(good["metrics"], total_cost="1"))]
        for doc in malformed:
            bad.write_text(json.dumps(doc))
            code = main(["simulate", "--plan", str(bad), "--scenario", str(scenario_file),
                         "--counts", "0", "--out", str(tmp_path / "r")])
            assert code == 2, doc


    @pytest.mark.parametrize("change", [
        {"orientations": [[1, math.nan]]},
        {"metrics": {"theta_per_tp": [math.nan, 0.5, 0.5]}},
        {"metrics": {"wired_inflow_mbps": math.nan}},
        {"metrics": {"len_per_tp": [1.0, math.inf, 1.0]}},
        {"metrics": {"objective_value": -math.inf}},
        {"flows": [[0, 1, math.nan]]},
    ], ids=["orientation", "theta", "wired-inflow", "len", "objective", "flow"])
    def test_non_finite_plan_number_exit_2(self, scenario_file, plan_file, tmp_path, capsys,
                                          change):
        # NaN fails every comparison, so the audit cannot catch it: the reader must.
        doc = json.loads(plan_file.read_text())
        for key, value in change.items():
            doc[key] = dict(doc[key], **value) if isinstance(value, dict) else value
        bad = tmp_path / "bad_plan.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--plan", str(bad), "--scenario", str(scenario_file),
                     "--counts", "0", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "malformed field" in capsys.readouterr().err
        assert not (tmp_path / "r.trials.csv").exists()

    def test_reads_each_input_once(self, scenario_file, plan_file, tmp_path, monkeypatch):
        reads = count_reads(monkeypatch)
        assert main(["simulate", "--plan", str(plan_file), "--scenario", str(scenario_file),
                     "--counts", "0", "--trials", "2", "--out", str(tmp_path / "r")]) == 0
        assert reads(scenario_file) == (1, 1) and reads(plan_file) == (1, 1)
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["scenario_digest"] == hashlib.sha256(scenario_file.read_bytes()).hexdigest()
        assert report["plan_digest"] == hashlib.sha256(plan_file.read_bytes()).hexdigest()

    def test_plan_out_of_range_for_scenario_exit_2(self, scenario_file, plan_file,
                                                   tmp_path, capsys):
        # Well-formed documents whose site numbers or per-test-point lists
        # do not fit the scenario fail the audit, not the table lookups.
        good = json.loads(plan_file.read_text())
        bad = tmp_path / "bad_plan.json"
        misfits = [dict(good, assignments=[[99, 99]] * 3),
                   dict(good, assignments=[[-1, b] for _, b in good["assignments"]]),
                   dict(good, donor=6),
                   dict(good, metrics=dict(good["metrics"], theta_per_tp=[])),
                   dict(good, metrics=dict(good["metrics"], len_per_tp=[1.0]))]
        for doc in misfits:
            bad.write_text(json.dumps(doc))
            code = main(["simulate", "--plan", str(bad), "--scenario", str(scenario_file),
                         "--counts", "0", "--out", str(tmp_path / "r")])
            assert code == 2, doc
            assert "plan fails validation" in capsys.readouterr().err
        assert not (tmp_path / "r.trials.csv").exists()


class TestSweep:
    def test_grid_rows_and_resume(self, tmp_path):
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "2", "--budgets", "2.3", "3.2",
                "--mus", "0.5", "--modes", "ris", "baseline",
                "--width", "200", "--height", "200", "--n-cs", "6", "--n-tp", "3",
                "--out-dir", str(out_dir)]
        assert main(args) == 0
        csv_path = out_dir / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "seed,budget,mu,mode,status,objective,mean_theta,mean_len,n_iab,n_ris,cost"
        assert len(lines) == 1 + 8  # 2 seeds x 2 budgets x 1 mu x 2 modes
        statuses = {line.split(",")[4] for line in lines[1:]}
        assert statuses <= {"optimal", "infeasible"}
        first = csv_path.read_bytes()
        # Rerun: cells are reused (digests match) and bytes reproduce.
        assert main(args) == 0
        assert csv_path.read_bytes() == first

    def test_close_budgets_get_own_cells(self, tmp_path, monkeypatch):
        # 2.3000001 and 2.3000002 print alike under :g; each still gets its
        # own cell file and manifest entry, so a rerun reuses both.
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3000001", "2.3000002",
                "--mus", "0.5", "--modes", "baseline", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]
        assert main(args) == 0
        ids = ["s1_b2.3000001_m0.5_baseline", "s1_b2.3000002_m0.5_baseline"]
        assert sorted(p.stem for p in (out_dir / "cells").glob("*.json")) == ids
        cells = json.loads((out_dir / "sweep.csv.manifest.json").read_text())["cells"]
        assert list(cells) == ids
        monkeypatch.setattr("risplan.cli._sweep_cell",
                            lambda payload: pytest.fail(f"cell solved again: {payload}"))
        assert main(args) == 0

    def test_cells_from_older_decoder_recomputed(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.5",
                "--modes", "ris", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]
        assert main(args) == 0
        csv_path = out_dir / "sweep.csv"
        fresh = csv_path.read_bytes()
        (cell_path,) = (out_dir / "cells").glob("*.json")
        cell = json.loads(cell_path.read_text())
        cell["row"]["cost"] = "stale"
        cell_path.write_text(json.dumps(cell))
        assert main(args) == 0
        assert b"stale" in csv_path.read_bytes()  # same decoder: cache reused
        monkeypatch.setattr("risplan.cli.DECODE_VERSION", -1)
        assert main(args) == 0
        assert csv_path.read_bytes() == fresh  # other decoder: recomputed

    def test_cell_not_utf8_recomputed(self, tmp_path):
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.5",
                "--modes", "ris", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]
        assert main(args) == 0
        fresh = (out_dir / "sweep.csv").read_bytes()
        (cell_path,) = (out_dir / "cells").glob("*.json")
        cell_path.write_bytes(b"\xff\xfe")
        assert main(args) == 0
        assert (out_dir / "sweep.csv").read_bytes() == fresh
        assert json.loads(cell_path.read_text(encoding="utf-8"))["row"]

    def test_damaged_cell_recomputed(self, tmp_path):
        # A cached cell with the right digest but a row that lacks columns,
        # or telemetry that is not an object, is run again like a missing one.
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.5",
                "--modes", "ris", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]
        assert main(args) == 0
        fresh = (out_dir / "sweep.csv").read_bytes()
        (cell_path,) = (out_dir / "cells").glob("*.json")
        whole = json.loads(cell_path.read_text())
        for damage in ({"row": {"seed": 1}}, {"row": [1]}, {"solver": []},
                       {"timings_s": 0.5}):
            cell_path.write_text(json.dumps({**whole, **damage}))
            assert main(args) == 0, damage
            assert (out_dir / "sweep.csv").read_bytes() == fresh
            assert json.loads(cell_path.read_text())["row"] == whole["row"]

    def test_damaged_resilience_recomputed(self, tmp_path):
        # A cached cell whose resilience block lacks a list, or holds one of
        # another length than --sim-counts, is run again like a missing one.
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.5",
                "--modes", "ris", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--sim-counts", "0", "10",
                "--sim-trials", "2", "--out-dir", str(out_dir)]
        assert main(args) == 0
        fresh = [(out_dir / name).read_bytes() for name in ("sweep.csv", "sweep_resilience.csv")]
        (cell_path,) = (out_dir / "cells").glob("*.json")
        whole = json.loads(cell_path.read_text())
        block = whole["row"]["_resilience"]
        assert block["counts"] == [0, 10]
        for damage in ({"counts": [0, 10]}, {**block, "mean": block["mean"][:1]},
                       {**block, "std": None}, [0, 10]):
            cell_path.write_text(json.dumps({**whole, "row": {**whole["row"],
                                                              "_resilience": damage}}))
            assert main(args) == 0, damage
            assert [(out_dir / name).read_bytes()
                    for name in ("sweep.csv", "sweep_resilience.csv")] == fresh
            assert json.loads(cell_path.read_text())["row"] == whole["row"]

    def test_infeasible_cell_node_count_null(self, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--seeds", "1", "--budgets", "1", "--mus", "0.0",
                     "--modes", "baseline", "--width", "200", "--height", "200",
                     "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]) == 0
        cells = json.loads((out_dir / "sweep.csv.manifest.json").read_text())["cells"]
        solver = cells["s1_b1_m0_baseline"]["solver"]
        assert solver["status"] == "infeasible" and solver["node_count"] is None
        cached = json.loads((out_dir / "cells" / "s1_b1_m0_baseline.json").read_text())
        assert cached["solver"]["node_count"] is None

    def test_cell_telemetry_in_cache_and_manifest(self, tmp_path):
        out_dir = tmp_path / "sweep"
        args = ["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.0",
                "--modes", "ris", "baseline", "--width", "200", "--height", "200",
                "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]
        manifest_path = out_dir / "sweep.csv.manifest.json"
        assert main(args) == 0
        cells = json.loads(manifest_path.read_text())["cells"]
        assert list(cells) == ["s1_b2.3_m0_ris", "s1_b2.3_m0_baseline"]
        for cell_id, telemetry in cells.items():
            cached = json.loads((out_dir / "cells" / f"{cell_id}.json").read_text())
            assert telemetry == {"solver": cached["solver"], "timings_s": cached["timings_s"]}
            solver = telemetry["solver"]
            assert set(solver) == {"status", "gap", "node_count", "dual_bound",
                                   "rows", "variables", "nonzeros"}
            assert solver["status"] == "optimal" and solver["gap"] == 0.0
            assert min(solver["rows"], solver["variables"], solver["nonzeros"]) > 0
            timings = telemetry["timings_s"]
            assert set(timings) == {"link_tables", "build", "solve", "highs", "decode",
                                    "validate"}
            assert 0.0 < timings["highs"] <= timings["solve"]
        # A cell cached without telemetry is reused, not recomputed, and
        # reports null; the CSV does not change.
        csv = (out_dir / "sweep.csv").read_bytes()
        old = out_dir / "cells" / "s1_b2.3_m0_ris.json"
        cached = json.loads(old.read_text())
        old.write_text(json.dumps({"digest": cached["digest"], "row": cached["row"]}))
        assert main(args) == 0
        assert (out_dir / "sweep.csv").read_bytes() == csv
        assert "solver" not in json.loads(old.read_text())
        cells = json.loads(manifest_path.read_text())["cells"]
        assert cells["s1_b2.3_m0_ris"] == {"solver": None, "timings_s": None}
        assert cells["s1_b2.3_m0_baseline"]["solver"]["status"] == "optimal"

    def test_unknown_mode_exit_2(self, tmp_path):
        code = main(["sweep", "--seeds", "1", "--budgets", "2",
                     "--modes", "hybrid", "--out-dir", str(tmp_path / "s")])
        assert code == 2

    @pytest.mark.parametrize("flag, message", [("--seeds", "seed must be non-negative"),
                                               ("--sim-seed", "base_seed must be non-negative")])
    def test_negative_seed_exit_2(self, tmp_path, capsys, flag, message):
        out_dir = tmp_path / "sweep"
        code = main(["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "1.0",
                     "--modes", "ris", "--width", "200", "--height", "200",
                     "--n-cs", "6", "--n-tp", "3", "--sim-counts", "0", "--sim-trials", "2",
                     f"{flag}=-1", "--out-dir", str(out_dir)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out_dir / "sweep.csv").exists()

    def test_simulate_columns(self, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--seeds", "1", "--budgets", "2.3",
                     "--mus", "1.0", "--modes", "ris",
                     "--width", "200", "--height", "200",
                     "--n-cs", "6", "--n-tp", "3",
                     "--sim-counts", "0", "20", "--sim-trials", "5",
                     "--out-dir", str(out_dir)]) == 0
        res = (out_dir / "sweep_resilience.csv").read_text().splitlines()
        assert res[0] == "seed,budget,mu,mode,obstacle_count,mean,std"
        assert len(res) == 1 + 2  # one feasible cell x two counts

    def test_parallel_jobs_identical_output(self, tmp_path):
        outs = []
        for name, jobs in (("serial", "1"), ("parallel", "2")):
            out_dir = tmp_path / name
            assert main(["sweep", "--seeds", "1", "2", "--budgets", "2.3",
                         "--mus", "0.0", "--modes", "ris", "baseline",
                         "--width", "200", "--height", "200",
                         "--n-cs", "6", "--n-tp", "3", "--jobs", jobs,
                         "--out-dir", str(out_dir)]) == 0
            outs.append((out_dir / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="workers see the patched generate only when forked"))])
    def test_failing_cell_becomes_error_row(self, tmp_path, monkeypatch, jobs):
        import risplan.cli as cli
        real_generate = cli.generate

        def generate(width, height, n_cs, n_tp, seed):
            if seed == 2:
                raise RuntimeError("worker crashed, seed 2")
            return real_generate(width, height, n_cs, n_tp, seed)

        monkeypatch.setattr(cli, "generate", generate)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--seeds", "1", "2", "--budgets", "2.3",
                     "--mus", "0.0", "--modes", "ris", "baseline",
                     "--width", "200", "--height", "200",
                     "--n-cs", "6", "--n-tp", "3", "--jobs", jobs,
                     "--out-dir", str(out_dir)]) == 0
        rows = [line.split(",") for line in
                (out_dir / "sweep.csv").read_text().splitlines()[1:]]
        assert [len(row) for row in rows] == [11] * 4
        assert [row[4] for row in rows if row[0] == "2"] == [
            "error:RuntimeError: worker crashed; seed 2"] * 2
        assert {row[4] for row in rows if row[0] == "1"} <= {"optimal", "infeasible"}
        # The failed cells are not cached, so a rerun tries them again.
        assert len(list((out_dir / "cells").glob("*.json"))) == 2

    def test_error_status_keeps_csv_columns(self, tmp_path, monkeypatch):
        import risplan.cli as cli

        def extract_plan(*args):
            raise cli.PlannerError("solution missing variables, e.g. ['a', 'b']")

        monkeypatch.setattr(cli, "extract_plan", extract_plan)
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--seeds", "1", "--budgets", "2.3", "--mus", "0.0",
                     "--modes", "ris", "--width", "200", "--height", "200",
                     "--n-cs", "6", "--n-tp", "3", "--out-dir", str(out_dir)]) == 0
        (row,) = (out_dir / "sweep.csv").read_text().splitlines()[1:]
        assert row.split(",")[4:] == [
            "error:solution missing variables; e.g. ['a'; 'b']"] + [""] * 6
