import dataclasses
import json
import logging
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fairhc.cli
import fairhc.solver
from fairhc.cli import EXIT_INFEASIBLE, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, main
from fairhc.formulation import FairnessPolicy, build_problem
from fairhc.pareto import CSV_HEADER

from conftest import feeder_dict, write_feeder


@pytest.fixture
def feeder_path(tmp_path):
    return write_feeder(tmp_path, feeder_dict())


@pytest.fixture
def infeasible_path(tmp_path):
    doc = feeder_dict()
    # demand far beyond the deliverable power of the two 0.03-ohm segments
    for load in doc["loads"]:
        load["p_kw"] = 60.0
    return write_feeder(tmp_path, doc, "bad.json")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestValidate:
    def test_valid_feeder(self, capsys, feeder_path):
        code, payload = run_json(capsys, ["validate", feeder_path])
        assert code == EXIT_OK
        assert payload["valid"] is True
        assert payload["n_buses"] == 3
        assert payload["n_loads"] == 2
        assert "manifest" in payload

    def test_cycle_exits_2(self, capsys, tmp_path):
        doc = feeder_dict()
        doc["lines"].append({"from": "b", "to": "slack", "r_ohm": 0.03,
                             "x_ohm": 0.005, "length_m": 50.0,
                             "i_rated_a": 400.0, "u_nom_v": 230.0})
        path = write_feeder(tmp_path, doc, "cyclic.json")
        code = main(["validate", path])
        assert code == EXIT_INPUT
        assert "not radial" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INPUT

    @pytest.mark.parametrize("key, value", [("r_ohm", math.nan), ("i_rated_a", math.inf),
                                            ("x_ohm", -math.inf)])
    def test_non_finite_number_exits_2(self, capsys, tmp_path, key, value):
        doc = feeder_dict()
        doc["lines"][0][key] = value
        assert main(["validate", write_feeder(tmp_path, doc)]) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err


def no_load_docs():
    """A slack-only feeder, and a slack with one junction and no load."""
    slack_only = feeder_dict()
    slack_only.update(buses=slack_only["buses"][:1], lines=[], loads=[])
    junction = feeder_dict()
    junction.update(buses=[junction["buses"][0], {"id": "a", "kind": "junction"}],
                    lines=junction["lines"][:1], loads=[])
    return {"slack_only": slack_only, "junction": junction}


@pytest.mark.parametrize("name", ["slack_only", "junction"])
@pytest.mark.parametrize("argv", [["validate"], ["pf"], ["solve", "--policy", "utilitarian"]])
def test_feeder_without_loads_exits_2(capsys, tmp_path, name, argv):
    path = write_feeder(tmp_path, no_load_docs()[name])
    assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
    assert "feeder must have at least one load" in capsys.readouterr().err


@pytest.mark.parametrize("length", [0.0, -500.0])
@pytest.mark.parametrize("command", ["validate", "stats"])
def test_nonpositive_line_length_exits_2(capsys, tmp_path, command, length):
    doc = feeder_dict()
    doc["lines"][0]["length_m"] = length
    assert main([command, write_feeder(tmp_path, doc)]) == EXIT_INPUT
    assert "length must be > 0" in capsys.readouterr().err


def test_negative_reactance_exits_2(capsys, tmp_path):
    doc = feeder_dict()
    doc["lines"][1]["x_ohm"] = -1
    assert main(["validate", write_feeder(tmp_path, doc)]) == EXIT_INPUT
    assert "line 'a'-'b': reactance must be >= 0" in capsys.readouterr().err


class TestStats:
    def test_fields(self, capsys, feeder_path):
        code, payload = run_json(capsys, ["stats", feeder_path])
        assert code == EXIT_OK
        assert payload["n_buses"] == 3
        assert payload["total_length"] == pytest.approx(0.1)
        assert payload["r_over_x"] == pytest.approx(6.0)


class TestPf:
    def test_zero_injection(self, capsys, feeder_path):
        code, payload = run_json(capsys, ["pf", feeder_path])
        assert code == EXIT_OK
        assert payload["max_mismatch_pu"] < 1e-8
        assert payload["v_pu"][0] == 1.0
        assert payload["min_residual_pu"] > 0

    def test_with_injections(self, capsys, feeder_path):
        code, payload = run_json(capsys, ["pf", feeder_path, "--dg", "10,5"])
        assert code == EXIT_OK
        assert payload["v_pu"][2] > 1.0  # net export lifts the far bus

    def test_wrong_dg_count(self, feeder_path):
        assert main(["pf", feeder_path, "--dg", "1"]) == EXIT_INPUT

    def test_divergence_exits_3(self, capsys, feeder_path):
        # far beyond what the two 0.03-ohm segments can carry away
        assert main(["pf", feeder_path, "--dg", "1e5,1e5"]) == EXIT_SOLVER
        assert capsys.readouterr().err.startswith("solver failure: power flow diverged")


class TestSolve:
    @pytest.mark.parametrize("policy", ["utilitarian", "egalitarian",
                                        "bounded:alpha=0.5,beta=0.5",
                                        "bargaining:k=0.5"])
    def test_policies(self, capsys, feeder_path, policy):
        code, payload = run_json(capsys, ["solve", feeder_path, "--policy", policy])
        assert code == EXIT_OK
        assert payload["hc_total_kw"] > 0
        assert len(payload["allocation_kw"]) == 2
        assert payload["manifest"]["policy"] == policy
        assert set(payload["manifest"]) == {
            "command", "feeder_sha256", "policy", "version", "timestamp"}

    def test_infeasible_exits_1(self, infeasible_path):
        assert main(["solve", infeasible_path, "--policy", "utilitarian"]) == EXIT_INFEASIBLE

    def test_bad_policy_exits_2(self, feeder_path):
        for policy in ("bogus", "bounded:alpha=0.5,gamma=1"):
            assert main(["solve", feeder_path, "--policy", policy]) == EXIT_INPUT

    @pytest.mark.parametrize("policy", ["egalitarian", "utilitarian"])
    def test_zero_grid_steps_exits_2(self, capsys, feeder_path, policy):
        code = main(["solve", feeder_path, "--policy", policy, "--oracle", "--grid-steps", "0"])
        assert code == EXIT_INPUT
        assert "grid_steps must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--tol", "--max-outer", "--starts"])
    def test_removed_solver_flags_exit_2(self, feeder_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["solve", feeder_path, "--policy", "utilitarian", flag, "1"])
        assert exc.value.code == EXIT_INPUT

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_pareto_jobs_other_than_1_exits_2(self, capsys, feeder_path, jobs):
        # a sweep runs in one process; --jobs stays only for command lines passing --jobs 1
        with pytest.raises(SystemExit) as exc:
            main(["pareto", feeder_path, "--family", "bounded_upper", "--steps", "2", "--jobs", jobs])
        assert exc.value.code == EXIT_INPUT
        assert "argument --jobs" in capsys.readouterr().err

    def test_zero_grid_steps_exits_before_reference_solves(self, capsys, feeder_path,
                                                           monkeypatch):
        calls = []
        monkeypatch.setattr(fairhc.cli, "solve_references", lambda nf: calls.append(nf))
        code = main(["solve", feeder_path, "--policy", "bounded:alpha=0.5,beta=0.5",
                     "--oracle", "--grid-steps", "0"])
        assert code == EXIT_INPUT
        assert "grid_steps must be >= 1" in capsys.readouterr().err
        assert calls == []

    def test_grid_steps_needs_oracle(self, capsys, feeder_path):
        code = main(["solve", feeder_path, "--policy", "utilitarian", "--grid-steps", "5"])
        assert code == EXIT_INPUT
        assert "--grid-steps needs --oracle" in capsys.readouterr().err

    def test_oracle_route(self, capsys, feeder_path):
        code, payload = run_json(capsys, ["solve", feeder_path, "--policy",
                                          "utilitarian", "--oracle",
                                          "--grid-steps", "51"])
        assert code == EXIT_OK
        assert payload["hc_total_kw"] > 0


class TestParetoAndKnee:
    def test_row_count_contract(self, feeder_path, tmp_path):
        out = tmp_path / "frontier.csv"
        code = main(["pareto", feeder_path, "--family", "bargaining",
                     "--steps", "21", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 23  # 21 sweep points + both endpoints

    def test_jobs_1_writes_the_same_frontier(self, feeder_path, tmp_path):
        # the benchmark's frontier_cli command line passes --jobs 1
        argv = ["pareto", feeder_path, "--family", "bounded_upper", "--steps", "3", "--out"]
        assert main([*argv, str(tmp_path / "plain.csv")]) == EXIT_OK
        assert main([*argv, str(tmp_path / "jobs.csv"), "--jobs", "1"]) == EXIT_OK
        assert (tmp_path / "jobs.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_knee_from_csv(self, capsys, feeder_path, tmp_path):
        out = tmp_path / "frontier.csv"
        assert main(["pareto", feeder_path, "--family", "bounded_upper",
                     "--steps", "5", "--out", str(out)]) == EXIT_OK
        code, payload = run_json(capsys, ["knee", str(out)])
        assert code == EXIT_OK
        assert set(payload) >= {"family", "hc_kw", "pof", "gini", "status"}

    def test_knee_missing_file(self, tmp_path):
        assert main(["knee", str(tmp_path / "nope.csv")]) == EXIT_INPUT

    def test_knee_bad_cell_names_line_and_column(self, capsys, tmp_path):
        path = tmp_path / "frontier.csv"
        path.write_text(CSV_HEADER + "\nbargaining,x,1,0,0,optimal\n")
        assert main(["knee", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "error: line 2: column 'param': could not convert string to float: 'x'\n")


class TestSynthCommand:
    def test_emits_valid_feeder(self, capsys, tmp_path):
        out = tmp_path / "synth.json"
        code = main(["synth", "--layout", "branched", "--n-loads", "4",
                     "--out", str(out)])
        assert code == EXIT_OK
        assert main(["validate", str(out)]) == EXIT_OK

    def test_deterministic_bytes(self, capsys):
        main(["synth", "--n-loads", "3"])
        first = capsys.readouterr().out
        main(["synth", "--n-loads", "3"])
        assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", ["synth", "experiment"])
@pytest.mark.parametrize("flag, value", [("--trunk-m", "nan"), ("--load-p", "nan"), ("--i-rated", "inf"),
                                         ("--dg-cap", "-inf")])
def test_non_finite_synth_option_exits_2(capsys, command, flag, value):
    assert main([command, "--n-loads", "2", f"{flag}={value}"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "must be finite" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["synth", "experiment"])
def test_synth_flag_defaults_are_the_spec_defaults(command):
    """Every SynthSpec and Conductor field that has a default gets it from the flags' defaults."""
    spec = fairhc.cli._spec(fairhc.cli.build_parser().parse_args([command]), "linear")
    checked = []
    for record in (spec, spec.conductor):
        for f in dataclasses.fields(record):
            if f.default is not dataclasses.MISSING:
                assert getattr(record, f.name) == f.default, f.name
                checked.append(f.name)
    assert len(checked) == 7, checked


class TestExperimentCommand:
    def test_small_pair(self, capsys):
        code, payload = run_json(capsys, [
            "experiment", "--n-loads", "2", "--trunk-m", "60", "--branch-m", "30",
            "--i-rated", "500",
        ])
        assert code == EXIT_OK
        assert set(payload) >= {"linear", "branched", "pof_gap", "linear_loses_more"}


class TestUnwritableOut:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before --out was checked")

        monkeypatch.setattr(fairhc.cli, "sweep", no_work)
        monkeypatch.setattr(fairhc.cli, "solve_hc", no_work)

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["pareto", "--family", "bounded_upper", "--steps", "2"],
                                      ["solve", "--policy", "egalitarian"]])
    def test_exits_2_naming_the_path(self, capsys, feeder_path, tmp_path, argv):
        out = tmp_path / "missing" / "out.txt"
        code = main([argv[0], feeder_path, *argv[1:], "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [["pareto", "--family", "bounded_upper", "--steps", "2"],
                                      ["solve", "--policy", "egalitarian"]])
    def test_existing_directory_exits_2(self, capsys, feeder_path, tmp_path, argv):
        code = main([argv[0], feeder_path, *argv[1:], "--out", str(tmp_path)])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: is a directory\n"


class TestColdStart:
    def test_import_loads_neither_optimizer_nor_process_pool(self):
        code = ("import sys, fairhc, fairhc.cli; "
                "print(sorted({'scipy.optimize', 'concurrent.futures.process'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_pareto_run_loads_no_process_pool(self, feeder_path, tmp_path):
        code = ("import sys; from fairhc.cli import main; "
                f"code = main(['pareto', {feeder_path!r}, '--family', 'bounded_upper', '--steps', '3', "
                f"'--out', {str(tmp_path / 'frontier.csv')!r}]); "
                "print(code, 'concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "0 False\n"

    def test_large_feeder_power_flow_and_adjoint_load_no_scipy(self):
        # SciPy's sparse LU was the other way round the dense 201-bus Jacobian, but
        # loading scipy.sparse.linalg adds over 20 MB of memory; this path loads none
        code = ("import sys, numpy as np; from fairhc import powerflow as pf; "
                "from fairhc.netmodel import to_per_unit; "
                "from fairhc.synth import Conductor, SynthSpec, generate_feeder; "
                "nf = to_per_unit(generate_feeder(SynthSpec(100, 'branched', 100.0, "
                "conductor=Conductor(i_rated_a=500.0)))); dg = np.full(100, 0.01); "
                "w = np.ones(len(pf.residual_labels(nf))); "
                "pf.adjoint_gradient(nf, dg, w, state=pf.solve_power_flow(nf, dg)); "
                "print(nf.n_bus, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "201 []\n"

    def test_al_solve_keeps_the_minimize_seam(self, lin3):
        seam = fairhc.solver.minimize
        fairhc.solver.solve_hc(build_problem(lin3, FairnessPolicy.utilitarian()))
        assert fairhc.solver.minimize is seam
        assert seam.__module__ == "fairhc.solver"


class TestDeterminism:
    def test_byte_identical_with_pinned_epoch(self, feeder_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        out = tmp_path / "solution.json"
        argv = ["solve", feeder_path, "--policy", "egalitarian", "--out", str(out)]
        main(argv)
        first = out.read_bytes()
        main(argv)
        assert out.read_bytes() == first

    @pytest.mark.parametrize("epoch", ["soon", "99999999999999999999"])  # not an integer; beyond time_t
    def test_bad_epoch_exits_2_before_the_command_runs(self, capsys, feeder_path, monkeypatch, epoch):
        def no_work(*args, **kwargs):
            raise AssertionError("the command ran before SOURCE_DATE_EPOCH was checked")

        monkeypatch.setattr(fairhc.cli, "solve_hc", no_work)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["solve", feeder_path, "--policy", "egalitarian"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: SOURCE_DATE_EPOCH must be whole seconds")
        assert err.endswith(f", got {epoch!r}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["pareto", "FEEDER", "--family", "bounded_upper", "--steps", "2"],
                                      ["synth", "--n-loads", "3"]])
    def test_commands_without_a_manifest_ignore_the_epoch(self, capsys, feeder_path, monkeypatch, argv):
        argv = [feeder_path if a == "FEEDER" else a for a in argv]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr()
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "soon")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr() == plain

    @pytest.fixture
    def root_logger(self):
        """The root logger, with its level and handlers put back after the test."""
        root = logging.getLogger()
        level, handlers = root.level, root.handlers[:]
        yield root
        root.setLevel(level)
        root.handlers[:] = handlers

    def test_log_env_accepted(self, capsys, feeder_path, monkeypatch, root_logger):
        monkeypatch.setenv("FAIRHC_LOG", "DEBUG")
        assert main(["validate", feeder_path]) == EXIT_OK

    def test_log_env_sets_the_level_of_a_configured_root(self, capsys, feeder_path, monkeypatch, root_logger):
        # a program that configured logging before calling main in-process: basicConfig does nothing there
        root_logger.addHandler(logging.NullHandler())
        root_logger.setLevel(logging.WARNING)
        monkeypatch.setenv("FAIRHC_LOG", "INFO")
        assert main(["validate", feeder_path]) == EXIT_OK
        assert root_logger.level == logging.INFO

    @pytest.mark.parametrize("value", ["basic_format", "no_such_level", "info"])
    def test_log_env_sets_only_a_level(self, feeder_path, tmp_path, value):
        # a fresh process: under pytest the root logger has handlers, and basicConfig then does nothing
        code = ("import logging; from fairhc.cli import main; "
                f"code = main(['validate', {feeder_path!r}, '--out', {str(tmp_path / 'v.json')!r}]); "
                "print(code, logging.getLevelName(logging.getLogger().level))")
        env = dict(os.environ, FAIRHC_LOG=value, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (out.stdout, out.stderr) == ("0 INFO\n" if value == "info" else "0 WARNING\n", "")


GOLDEN = Path(__file__).parent / "data" / "cli"
GOLDEN_RUNS = {
    "validate": ["validate", "feeder.json"],
    "stats": ["stats", "feeder.json"],
    "pf": ["pf", "feeder.json", "--dg", "10,5"],
    "solve": ["solve", "feeder.json", "--policy", "egalitarian"],
    "knee": ["knee", "frontier.csv"],
    "synth": ["synth", "--n-loads", "3", "--layout", "branched"],
    "experiment": ["experiment", "--n-loads", "2"],
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_output_matches_golden(name, capsys, tmp_path, monkeypatch):
    """Each subcommand prints exactly the bytes stored in tests/data/cli; the
    run uses a pinned epoch and relative paths, so the manifest is stable."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.chdir(tmp_path)
    for src in ("feeder.json", "frontier.csv"):
        shutil.copy(GOLDEN / src, tmp_path)
    assert main(GOLDEN_RUNS[name]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()
