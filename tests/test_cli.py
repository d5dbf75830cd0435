import contextlib
import dataclasses
import io
import json
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (BoxBody, InvariantError, checks, coverage_function, desk, family_spec,
                   oracle, preset, run, schedule, solver)
from drsub.cli import main

COVERAGE = '{"kind":"coverage","subsets":[[0,1],[1,2],[2,3]]}'
CARD = '{"kind":"cardinality","n":3,"k":2}'
QUAD = '{"kind":"quadratic","H":[[-2,0],[0,-2]],"c":[1,0.5]}'
BOX2 = '{"kind":"box","n":2}'
CARD1 = '{"kind":"cardinality","n":2,"k":1}'
# b' = 3 (t - 1/2)^2 - 2.25e-7 dips below 0 between the nodes validate reads; a run grid
# of N = 10,000 reads the dip
DIPPING = {"a": {"form": "poly", "coeffs": [1, 2, 1]},
           "b": {"form": "poly", "coeffs": [0, 0.7499997745493241, -1.5, 1]}, "T": 1}
# its second differences reach 1e308 in size, so L = (m - 1) * 1e308 overflows
LIPSCHITZ_OVERFLOW = '{"kind":"table","values":[0,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}'


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_monotone_coverage(self, tmp_path, capsys):
        code = run_cli("run", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "monotone", "--iters", "200",
                       "--opt", "sets", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["opt"] == 4.0
        assert summary["ratio_guaranteed"] == pytest.approx(0.6321205588285577)
        assert summary["ratio_achieved"] >= 1 - 1 / 2.718281828 - 0.02
        assert summary["feasible"] is True
        assert summary["min_potential_increment_margin"] >= -1e-9
        csv_text = (tmp_path / "trajectory.csv").read_text()
        assert csv_text.startswith("j,t,F,infnorm,rho,Gj,Bj_exact,Bj_bound,")
        assert len(csv_text.strip().split("\n")) == 202

    def test_unit_budget_long_run_ratio(self, tmp_path):
        code = run_cli("run", "--instance", COVERAGE, "--constraint",
                       '{"kind":"cardinality","n":3,"k":1}', "--family", "monotone",
                       "--iters", "500", "--opt", "sets", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["opt"] == 2.0
        assert summary["ratio_achieved"] >= 1 - 1 / 2.718281828 - 0.01

    def test_measured_with_grid_opt(self, tmp_path):
        code = run_cli("run", "--instance", QUAD, "--constraint",
                       '{"kind":"cardinality","n":2,"k":1}', "--family", "measured",
                       "--iters", "100", "--opt", "grid", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["opt"] == pytest.approx(0.8125)
        assert summary["min_gronwall_margin"] >= -1e-9
        assert summary["opt_certificate"]["method"] == "grid"

    @pytest.mark.parametrize("command,iters,message", [
        ("run", "0", "N must be >= 1, got 0"),
        ("run", "5,", "--iters must be an integer or comma list, got '5,'"),
        ("sweep", "16,,32,64", "--iters must be an integer or comma list, got '16,,32,64'"),
        ("run", "5,10", "run takes a single --iters value; use sweep for lists"),
    ], ids=["zero", "trailing-comma", "empty-entry", "run-list"])
    def test_bad_iters_is_input_error(self, tmp_path, capsys, command, iters, message):
        code = run_cli(command, "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", iters, "--out", str(tmp_path))
        assert code == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_step_count_cap(self, tmp_path, capsys):
        # refused before the 10^12-node schedule grid is allocated
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", str(10**12), "--out", str(tmp_path))
        assert code == 1
        assert "error: N must be <= 100000" in capsys.readouterr().err

    @pytest.mark.parametrize("command,iters", [("run", "5"), ("sweep", "4,8,16")])
    def test_out_naming_a_file(self, tmp_path, capsys, command, iters):
        out = tmp_path / "taken"
        out.write_text("")
        code = run_cli(command, "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", iters, "--out", str(out))
        assert code == 1
        assert "error: cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command,iters,name", [
        ("run", "5", "trajectory.csv"), ("run", "5", "summary.json"),
        ("sweep", "4,8,16", "sweep.csv"), ("sweep", "4,8,16", "trajectory_N8.csv")])
    def test_output_name_taken_by_a_directory(self, tmp_path, capsys, command, iters, name):
        (tmp_path / name).mkdir()
        code = run_cli(command, "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", iters, "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / name}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("*.tmp-*"))

    @pytest.mark.parametrize("command,iters,too_many", [("run", "5", "1000000000000"),
                                                         ("sweep", "4,8,16", "4,8,1000000000000")])
    @pytest.mark.parametrize("bad", ["iters", "out", "out-below-a-file"])
    def test_refused_before_the_oracle(self, tmp_path, capsys, monkeypatch, command, iters,
                                       too_many, bad):
        def never(*args):
            raise AssertionError("the oracle ran on input that is refused anyway")
        monkeypatch.setattr(oracle, "grid_search", never)
        taken = tmp_path / "taken"
        out = taken / "sub" if bad == "out-below-a-file" else taken
        if bad == "iters":
            iters, message = too_many, "error: N must be <= 100000"
        else:
            taken.write_text("")
            message = f"error: cannot create output directory {out}: {taken} is not a directory"
        quad5 = json.dumps({"kind": "quadratic", "H": (-np.eye(5)).tolist(), "c": [1] * 5})
        code = run_cli(command, "--instance", quad5,
                       "--constraint", '{"kind":"cardinality","n":5,"k":2}',
                       "--family", "general", "--iters", iters, "--opt", "grid",
                       "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert taken.is_file() if bad.startswith("out") else not taken.exists()

    @pytest.mark.parametrize("command,iters,instance,constraint,family,opt,schedule_json,message", [
        ("run", "5", json.dumps({"kind": "quadratic", "H": np.zeros((4, 4)).tolist(),
                                 "c": [0] * 4}), '{"kind":"box","n":4}', "general", "grid",
         {"a": {"form": "poly", "coeffs": [1, 1]}, "b": {"form": "poly", "coeffs": [0, 1e300]},
          "T": 1}, "schedule steps are too long: max rho_j = 1.66667e+299 exceeds 1 at N=5"),
        ("sweep", "4,8,16", COVERAGE, CARD, "monotone", "sets",
         {"a": {"form": "exp", "rate": 1}, "b": {"form": "exp", "rate": 1, "scale": 1.05},
          "T": 1}, "schedule steps are too long: sum rho_j = 1.01786 exceeds 1 at N=16"),
        ("run", "10000", QUAD, BOX2, "general", "grid", DIPPING,
         "schedule steps run backwards: rho_4999 = -1.43624e-11 at N=10000"),
        ("sweep", "100,1000,10000", COVERAGE, CARD, "general", "sets", DIPPING,
         "schedule steps run backwards: rho_4999 = -1.43624e-11 at N=10000"),
    ], ids=["run-too-long", "sweep-too-long", "run-backwards", "sweep-backwards"])
    def test_every_step_table_is_checked_before_the_oracle_and_the_files(
            self, tmp_path, capsys, monkeypatch, command, iters, instance, constraint, family,
            opt, schedule_json, message):
        # the step table of every N is built, and so refused, before either oracle runs
        # and before the first file of a sweep is written
        def never(*args):
            raise AssertionError("the oracle ran on input that is refused anyway")
        monkeypatch.setattr(oracle, "grid_search", never)
        monkeypatch.setattr(oracle, "set_bruteforce", never)
        code = run_cli(command, "--instance", instance, "--constraint", constraint,
                       "--family", family, "--iters", iters, "--opt", opt,
                       "--schedule", json.dumps(schedule_json), "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_measured_on_non_down_closed_body(self, tmp_path, capsys):
        # every body is down-closed by construction; declaring otherwise is stale input
        body = '{"kind":"packing","A":[[1,1]],"b":[1.5],"down_closed":false}'
        code = run_cli("run", "--instance", QUAD, "--constraint", body,
                       "--family", "measured", "--iters", "10", "--out", str(tmp_path))
        assert code == 1
        assert "unknown field 'down_closed'" in capsys.readouterr().err

    def test_missing_flag_is_input_error(self, tmp_path, capsys):
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--iters", "5",
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == "error: missing required flags: --family\n"

    @pytest.mark.parametrize("instance,constraint,opt,message", [
        (COVERAGE, '{"kind":"cardinality","n":4,"k":2}', "sets",
         "ground-set size 3 != body dimension 4"),
        (QUAD, '{"kind":"box","n":3}', "grid", "objective dimension 2 != body dimension 3"),
    ], ids=["sets", "grid"])
    def test_oracle_dimension_mismatch(self, tmp_path, capsys, instance, constraint, opt,
                                       message):
        code = run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", "general", "--iters", "5", "--opt", opt,
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_invariant_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise InvariantError("the iterate left the body at step 3")
        monkeypatch.setattr(solver, "run", broken)
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "5", "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == \
            "invariant violation: the iterate left the body at step 3\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,iters", [("run", "5"), ("sweep", "4,8,16")])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, monkeypatch, command, iters):
        def denied(self, *args, **kwargs):
            raise PermissionError("permission denied")
        monkeypatch.setattr(pathlib.Path, "mkdir", denied)
        out = tmp_path / "out"
        code = run_cli(command, "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", iters, "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: cannot create output directory {out}: permission denied\n"
        assert not out.exists()

    def test_dimension_mismatch(self, tmp_path):
        code = run_cli("run", "--instance", QUAD, "--constraint", CARD,
                       "--family", "general", "--iters", "10", "--out", str(tmp_path))
        assert code == 1

    def test_opt_sets_requires_set_instance(self, tmp_path):
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "10",
                       "--opt", "sets", "--out", str(tmp_path))
        assert code == 1

    def test_nan_rejected(self, tmp_path):
        code = run_cli("run", "--instance", '{"kind":"quadratic","H":[[NaN]],"c":[1]}',
                       "--constraint", '{"kind":"box","n":1}', "--family", "general",
                       "--iters", "5", "--out", str(tmp_path))
        assert code == 1

    def test_custom_schedule_flag(self, tmp_path):
        path = tmp_path / "schedule.json"
        path.write_text(json.dumps({"a": {"form": "poly", "coeffs": [1, 2, 1]},
                                    "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0}))
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "20", "--schedule", str(path),
                       "--out", str(tmp_path / "out")) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["ratio_guaranteed"] == pytest.approx(0.25)

    def test_invalid_custom_schedule_rejected(self, tmp_path, capsys):
        decreasing = {"a": {"form": "poly", "coeffs": [2, -1]},
                      "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0}
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "20", "--schedule", json.dumps(decreasing),
                       "--out", str(tmp_path)) == 1
        assert "a nondecreasing" in capsys.readouterr().err

    def test_custom_schedule_with_a0_below_one_rejected(self, tmp_path, capsys):
        # a_0 = 1/4 would put the headroom floor 1/sqrt(a_0) = 2 above the box ceiling
        # and report ratio 0.5, twice the 1/4 the analysis supports
        below_one = {"a": {"form": "poly", "coeffs": [0.25, 0.5, 0.25]},
                     "b": {"form": "poly", "coeffs": [0, 0.5]}, "T": 1}
        assert run_cli("run", "--instance", COVERAGE, "--constraint", CARD, "--family", "general",
                       "--iters", "50", "--opt", "sets", "--schedule", json.dumps(below_one),
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == \
            "error: schedule fails validation: a0 >= 1 (a0 2.50e-01 at t=0)\n"
        assert not (tmp_path / "summary.json").exists()

    def test_overflowing_custom_schedule_rejected(self, tmp_path, capsys):
        overflowing = {"a": {"form": "exp", "rate": 1e308},
                       "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1}
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "20", "--schedule", json.dumps(overflowing),
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == \
            "error: schedule weight a is inf at node j=1 (t=0.001001)\n"

    @pytest.mark.parametrize("instance,constraint,family,schedule_json,message", [
        (QUAD, BOX2, "general", {"a": {"form": "poly", "coeffs": [1, 1]},
                                 "b": {"form": "poly", "coeffs": [0, 1e300]}, "T": 1},
         "max rho_j = 1.66667e+299 exceeds 1 at N=5"),
        (COVERAGE, CARD, "monotone", {"a": {"form": "exp", "rate": 1.0},
                                      "b": {"form": "exp", "rate": 1.0, "scale": 3.0}, "T": 1},
         "sum rho_j = 2.71904 exceeds 1 at N=5"),
    ], ids=["general-max-step", "monotone-step-sum"])
    def test_overlong_custom_schedule_steps_rejected(self, tmp_path, capsys, instance,
                                                     constraint, family, schedule_json,
                                                     message):
        assert run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", family, "--iters", "5",
                       "--schedule", json.dumps(schedule_json), "--out", str(tmp_path)) == 1
        assert f"error: schedule steps are too long: {message}\n" in capsys.readouterr().err

    def test_monotone_family_on_non_monotone_instance_rejected(self, tmp_path, capsys):
        # solver.run's refusal, after the oracle; neither command writes a file
        for command, iters in (("run", "50"), ("sweep", "10,20,40")):
            out = tmp_path / command
            code = run_cli(command, "--instance", QUAD, "--constraint",
                           '{"kind":"packing","A":[[1,1],[2,1]],"b":[1,2]}', "--family",
                           "monotone", "--iters", iters, "--opt", "grid", "--out", str(out))
            assert code == 1
            assert capsys.readouterr().err == ("error: the monotone family needs a monotone "
                                               "instance; use measured or general\n")
            assert not out.exists()

    @pytest.mark.parametrize("instance,constraint,family", [
        ('{"kind":"table","values":[0,0,0,1]}', BOX2, "measured"),
        ('{"kind":"table","values":[0,1,1,3,1,3,3,6]}', CARD, "monotone"),
    ], ids=["supermodular-pair", "supermodular-triple"])
    def test_non_submodular_table_rejected(self, tmp_path, capsys, instance, constraint,
                                           family):
        code = run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", family, "--iters", "50", "--opt", "sets",
                       "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: table values are not submodular")

    @pytest.mark.parametrize("constraint", [
        '{"kind":"packing","A":[[1,1]],"b":[1.5]}',
        '{"kind":"box","upper":[1,0.5]}',
    ], ids=["packing", "fractional-box"])
    def test_opt_sets_rejected_where_slack_zero_is_false(self, tmp_path, capsys, constraint):
        code = run_cli("run", "--instance", '{"kind":"table","values":[0,1,1,2]}',
                       "--constraint", constraint, "--family", "monotone", "--iters", "200",
                       "--opt", "sets", "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --opt sets certifies slack 0 only on")
        assert "use --opt grid" in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command,instance,constraint,family,iters,opt,schedule_json,name", [
        ("run", '{"kind":"quadratic","H":[[0,0],[0,0]],"c":[1e308,1e308]}', BOX2, "monotone",
         "5", "grid", None, "final_value"),
        ("run", LIPSCHITZ_OVERFLOW, CARD, "measured", "5", "sets", None, "additive_gap"),
        ("sweep", LIPSCHITZ_OVERFLOW, CARD, "measured", "5,10,20", "sets", None, "additive_gap"),
        ("run", COVERAGE, CARD, "general", "50", "sets",
         {"a": {"form": "exp", "rate": 709.7},
          "b": {"form": "exp", "rate": 354.85, "shift": -1}, "T": 1}, "additive_gap"),
    ], ids=["value", "lipschitz", "lipschitz-sweep", "schedule"])
    def test_overflowing_run_rejected(self, tmp_path, capsys, command, instance, constraint,
                                      family, iters, opt, schedule_json, name):
        # no numpy warning escapes (RuntimeWarning is an error under pytest): the finite
        # check alone refuses the run
        extra = [] if schedule_json is None else ["--schedule", json.dumps(schedule_json)]
        code = run_cli(command, "--instance", instance, "--constraint", constraint,
                       "--family", family, "--iters", iters, "--opt", opt, *extra,
                       "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {name} is inf at N=\d+: the run overflows float64\n", err)
        assert not (tmp_path / "summary.json").exists()
        assert not (tmp_path / "sweep.csv").exists()

    def test_nan_margins_are_violations(self):
        traj = run(desk.quad_two_dim(), BoxBody(np.ones(2)), preset("general"),
                   family_spec("general"), 5)
        nan = np.full(6, np.nan)
        problems = checks.gate(checks.run_margins(
            dataclasses.replace(traj, F=nan, gronwall_margin=nan), 1.0), "family general, N=5")
        assert problems == [
            "family general, N=5, step 0: potential increment margin nan misses its limit -1e-09",
            "family general, N=5, step 0: headroom margin nan misses its limit -1e-09",
            "family general, N=5, step 5: guarantee slack nan misses its limit -1e-09"]

    @pytest.mark.parametrize("command,iters", [("run", "200"), ("sweep", "50,100,200")])
    def test_guarantee_is_gated(self, tmp_path, capsys, monkeypatch, command, iters):
        # coefficient 1 claims F(x_N) >= OPT - additive, which the measured run misses
        solve = solver.run
        def overclaiming(*args):
            traj = solve(*args)
            return dataclasses.replace(traj, bound=solver.GuaranteeBound(1.0, traj.bound.additive))
        monkeypatch.setattr(solver, "run", overclaiming)
        code = run_cli(command, "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", iters, "--opt", "sets",
                       "--out", str(tmp_path))
        assert code == 2
        assert re.search(r"invariant violation: family measured, N=200, step 200: "
                         r"guarantee slack -\S+ misses its limit -1e-09\n",
                         capsys.readouterr().err)

    def test_rule_comes_from_the_spec_alone(self, tmp_path, capsys):
        # the monotone preset's weights under the offset rule, from the library and the CLI
        traj = run(desk.quad_two_dim(), BoxBody(np.ones(2)), preset("monotone"),
                   family_spec("general"), 50)
        weights = {"a": {"form": "exp", "rate": 1}, "b": {"form": "exp", "rate": 1}, "T": 1}
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "50", "--opt", "grid", "--schedule", json.dumps(weights),
                       "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == \
            "invariant violation: family general, N=50, step 30: headroom margin -2.429e-01 " \
            "misses its limit -1e-09\n"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["min_gronwall_margin"] == traj.min_gronwall_margin == -0.24294678854824703
        assert np.argmin(traj.gronwall_margin) == 30
        rows = [r.split(",") for r in (tmp_path / "trajectory.csv").read_text().split()[1:]]
        assert [float(r[2]) for r in rows] == traj.F.tolist()
        assert [float(r[5]) for r in rows[:-1]] == traj.G.tolist()

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--instance", "--constraint", "--family", "--iters", "--opt", "--out",
                 "--schedule"]),
        ("sweep", ["--instance", "--constraint", "--family", "--iters", "--opt", "--out",
                   "--schedule"]),
        ("check", ["--seed"]),
    ])
    def test_flags_are_the_only_settings(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, re.M)
        assert listed == ["--help", *flags]

    def test_unreadable_instance_path(self, tmp_path, capsys):
        code = run_cli("run", "--instance", str(tmp_path), "--constraint", CARD,
                       "--family", "monotone", "--iters", "10", "--out", str(tmp_path / "out"))
        assert code == 1
        assert "cannot read instance file" in capsys.readouterr().err

    def test_instance_from_file(self, tmp_path):
        inst = tmp_path / "instance.json"
        inst.write_text(COVERAGE)
        code = run_cli("run", "--instance", str(inst), "--constraint", CARD,
                       "--family", "monotone", "--iters", "10", "--out",
                       str(tmp_path / "out"))
        assert code == 0


class TestSweepCommand:
    def test_monotone_sweep(self, tmp_path, capsys):
        code = run_cli("sweep", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "monotone", "--iters", "16,32,64,128,256",
                       "--opt", "sets", "--out", str(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert "additive log-log slope" in out
        slope = float(out.strip().split()[-1])
        assert -1.15 <= slope <= -0.85
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert rows[0] == "N,achieved,guaranteed,additive"
        assert len(rows) == 6
        for N in (16, 32, 64, 128, 256):
            assert (tmp_path / f"trajectory_N{N}.csv").exists()

    def test_general_guaranteed_constant(self, tmp_path):
        code = run_cli("sweep", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "16,32,64",
                       "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        assert all(float(r.split(",")[2]) == pytest.approx(0.25) for r in rows)

    @pytest.mark.parametrize("instance,constraint", [
        ('{"kind":"quadratic","H":[[0,0],[0,0]],"c":[1,0.5]}', BOX2),
        ('{"kind":"coverage","subsets":[[0],[1]],"weights":[0,0],"n_elements":2}', BOX2),
        (QUAD, '{"kind":"partition","n":2,"blocks":[[0],[1]],"capacities":[0,0]}'),
    ], ids=["quadratic-H-zero", "coverage-weights-zero", "partition-capacities-zero"])
    def test_zero_additive_gap_passes(self, tmp_path, capsys, instance, constraint):
        # L*D = 0 makes every additive gap 0, which has no log-log slope
        code = run_cli("sweep", "--instance", instance, "--constraint", constraint,
                       "--family", "general", "--iters", "4,8,16", "--out", str(tmp_path))
        assert code == 0, capsys.readouterr().err
        assert "additive gap: 0 at every N" in capsys.readouterr().out
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        assert [float(r.split(",")[3]) for r in rows] == [0.0, 0.0, 0.0]

    def test_gaps_that_underflow_to_zero_are_named_not_fitted(self, tmp_path, capsys):
        # L = 1e-315 puts the gaps at 2.7e-317, 3.2e-319 and 0: the slope fits the first two
        code = run_cli("sweep", "--instance", '{"kind":"quadratic","H":[[-1e-315]],"c":[1]}',
                       "--constraint", '{"kind":"box","n":1}', "--family", "measured",
                       "--iters", "10,1000,100000", "--out", str(tmp_path))
        assert code == 0, capsys.readouterr().err
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")[1:]
        gaps = [float(r.split(",")[3]) for r in rows]
        assert gaps[0] > gaps[1] > gaps[2] == 0.0
        out = capsys.readouterr().out
        slope = float(np.polyfit(np.log([10, 1000]), np.log(gaps[:2]), 1)[0])
        assert out.endswith(f"additive log-log slope: {slope:.6f}\n"
                            "additive gap: 0 at N=100000\n")
        assert "nan" not in out

    def test_achieved_is_a_ratio_or_empty(self, tmp_path, capsys):
        # the column holds final_value / opt, and stays empty where no optimum is known;
        # each row and trajectory is the one `run --iters N` reports
        for opt in ("none", "sets"):
            code = run_cli("sweep", "--instance", COVERAGE, "--constraint", CARD,
                           "--family", "monotone", "--iters", "16,32,64",
                           "--opt", opt, "--out", str(tmp_path / opt))
            assert code == 0
        printed = capsys.readouterr().out
        for N in (16, 32, 64):
            assert run_cli("run", "--instance", COVERAGE, "--constraint", CARD,
                           "--family", "monotone", "--iters", str(N), "--opt", "sets",
                           "--out", str(tmp_path / f"run{N}")) == 0
        capsys.readouterr()
        none = (tmp_path / "none" / "sweep.csv").read_text().strip().split("\n")[1:]
        sets = (tmp_path / "sets" / "sweep.csv").read_text().strip().split("\n")[1:]
        for N, row_none, row_sets in zip((16, 32, 64), none, sets):
            summary = json.loads((tmp_path / f"run{N}" / "summary.json").read_text())
            assert row_none.split(",")[1] == ""
            assert row_sets.split(",")[1] == format(summary["ratio_achieved"], ".17g")
            assert row_sets.split(",")[2:] == [format(summary["ratio_guaranteed"], ".17g"),
                                              format(summary["additive_gap"], ".17g")]
            assert row_none.split(",")[2:] == row_sets.split(",")[2:]
            assert row_none in printed and row_sets in printed
            assert ((tmp_path / "sets" / f"trajectory_N{N}.csv").read_bytes()
                    == (tmp_path / f"run{N}" / "trajectory.csv").read_bytes())

    def test_one_certificate_per_solve(self, tmp_path, capsys, monkeypatch):
        # each solve calls run_margins once, and summary.json reports what that call
        # returned: shifted there, the potential margin is shifted in the summary too
        margins, seen = checks.run_margins, []

        def shifted(traj, opt):
            found = margins(traj, opt)
            value, step = found["potential increment margin"]
            found["potential increment margin"] = checks.Margin(value + 1.0, step)
            seen.append((traj.N, value + 1.0))
            return found

        monkeypatch.setattr(checks, "run_margins", shifted)
        assert run_cli("sweep", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", "4,8,16", "--opt", "sets",
                       "--out", str(tmp_path / "sweep")) == 0
        assert [N for N, _ in seen] == [4, 8, 16]
        assert run_cli("run", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", "8", "--opt", "sets",
                       "--out", str(tmp_path / "run")) == 0
        assert [N for N, _ in seen] == [4, 8, 16, 8]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["min_potential_increment_margin"] == seen[-1][1]

    @pytest.mark.parametrize("iters", ["1,2,3", "1,100,10000"])
    def test_short_or_wide_lists_pass(self, tmp_path, capsys, iters):
        # the slope of a few far-from-asymptotic N is printed, not gated: it depends only
        # on the preset and the N list, and `drsub check` gates the 1/N decay itself
        code = run_cli("sweep", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", iters, "--opt", "sets",
                       "--out", str(tmp_path))
        assert code == 0, capsys.readouterr().err
        assert "additive log-log slope: " in capsys.readouterr().out

    def test_single_n_rejected(self, tmp_path):
        code = run_cli("sweep", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "16", "--out", str(tmp_path))
        assert code == 1

    def test_unsorted_list_rejected(self, tmp_path):
        code = run_cli("sweep", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "16,8,32",
                       "--out", str(tmp_path))
        assert code == 1


class TestCoverageTable:
    """A coverage command groups its universe once and never builds the 2^m table."""

    @pytest.mark.parametrize("opt", ["none", "grid"])
    @pytest.mark.parametrize("command,iters", [("run", "20"), ("sweep", "4,8,16")])
    def test_never_built_without_opt_sets(self, tmp_path, coverage_builds, command, iters, opt):
        assert run_cli(command, "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", iters, "--opt", opt,
                       "--out", str(tmp_path)) == 0
        assert coverage_builds == {"groups": 1, "table": 0}

    def test_sweep_builds_it_once(self, tmp_path, coverage_builds):
        assert run_cli("sweep", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", "4,8,16", "--opt", "sets",
                       "--out", str(tmp_path)) == 0
        assert coverage_builds == {"groups": 1, "table": 0}
        assert len(list(tmp_path.glob("trajectory_N*.csv"))) == 3

    def test_run_groups_its_universe_once(self, tmp_path, coverage_builds):
        assert run_cli("run", "--instance", COVERAGE, "--constraint", CARD,
                       "--family", "measured", "--iters", "20", "--opt", "sets",
                       "--out", str(tmp_path)) == 0
        assert coverage_builds == {"groups": 1, "table": 0}
        assert json.loads((tmp_path / "summary.json").read_text())["opt"] == 4.0

    @pytest.mark.parametrize("instance,constraint,message", [
        (json.dumps({"kind": "coverage", "subsets": [[i] for i in range(20)]}),
         '{"kind":"box","n":20}', "subset enumeration supports at most 65536 feasible "
                                  "subsets, and this BoxBody has 1048576"),
        (COVERAGE, '{"kind":"cardinality","n":4,"k":2}', "ground-set size 3 != body dimension 4"),
        (COVERAGE, '{"kind":"packing","A":[[1,1,1]],"b":[2]}',
         "--opt sets certifies slack 0 only on cardinality and partition bodies and on boxes "
         "whose upper bounds are all 1, not on this PackingBody; use --opt grid"),
    ], ids=["cap", "dimension", "body"])
    @pytest.mark.parametrize("command,iters", [("run", "20"), ("sweep", "4,8,16")])
    def test_refused_before_it_is_built(self, tmp_path, capsys, coverage_builds, command, iters,
                                        instance, constraint, message):
        assert run_cli(command, "--instance", instance, "--constraint", constraint,
                       "--family", "measured", "--iters", iters, "--opt", "sets",
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert coverage_builds == {"groups": 1, "table": 0}
        assert not any(tmp_path.iterdir())


def linear(c: float) -> str:
    """The linear instance c x_1 + c x_2: L = 0, so every B_exact_j is 0."""
    return json.dumps({"kind": "quadratic", "H": [[0, 0], [0, 0]], "c": [c, c]})


class TestScaleFreeGates:
    """Run margins are fractions of the run's scale, so one tolerance holds at every scale."""

    def test_large_sound_run_passes(self, tmp_path, capsys):
        # its potential increment margin is 0 in real arithmetic and -2.98e-8 in float64
        code = run_cli("run", "--instance", linear(1e8), "--constraint", CARD1,
                       "--family", "monotone", "--iters", "1", "--opt", "grid",
                       "--out", str(tmp_path))
        assert code == 0, capsys.readouterr().err
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["min_potential_increment_margin"]) <= 1e-15

    @pytest.mark.parametrize("family", schedule.FAMILIES)
    def test_linear_runs_pass_at_every_scale(self, tmp_path, capsys, family):
        for e in range(-12, 13):
            for body in (CARD1, BOX2):
                code = run_cli("sweep", "--instance", linear(10.0 ** e), "--constraint", body,
                               "--family", family, "--iters", "1,10,100", "--opt", "grid",
                               "--out", str(tmp_path))
                assert code == 0, (e, body, capsys.readouterr().err)

    @pytest.mark.parametrize("family", schedule.FAMILIES)
    def test_lowered_value_fails_at_every_scale(self, tmp_path, capsys, monkeypatch, family):
        # F(x_1) lowered by 1e-6 of itself breaks the first potential increment
        solve = solver.run

        def lowered(*args):
            traj = solve(*args)
            F = traj.F.copy()
            F[1] *= 1.0 - 1e-6
            return dataclasses.replace(traj, F=F)

        monkeypatch.setattr(solver, "run", lowered)
        for e in range(-6, 13):
            for body in (CARD1, BOX2):
                code = run_cli("sweep", "--instance", linear(10.0 ** e), "--constraint", body,
                               "--family", family, "--iters", "1,10,100", "--opt", "grid",
                               "--out", str(tmp_path))
                err = capsys.readouterr().err
                assert code == 2
                for N in (1, 10, 100):
                    assert (f"invariant violation: family {family}, N={N}, step 0: "
                            f"potential increment margin -") in err, (e, body, err)

    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
    def test_large_coverage_table_is_accepted(self, tmp_path, capsys, scale):
        # its second differences carry round-off of about 1e-16 of max f, far above 1e-9
        rng = np.random.default_rng(0)
        subsets = [np.flatnonzero(row).tolist() for row in rng.random((8, 24)) < 0.3]
        table = coverage_function(subsets, rng.uniform(0.5, 1.5, size=24) * scale, 24).table
        code = run_cli("run", "--instance", json.dumps({"kind": "table", "values": table.tolist()}),
                       "--constraint", '{"kind":"cardinality","n":8,"k":2}', "--family",
                       "monotone", "--iters", "10", "--opt", "sets", "--out", str(tmp_path))
        assert code == 0, capsys.readouterr().err

    def test_small_supermodular_table_is_refused(self, tmp_path, capsys):
        # f({0,1}) exceeds f({0}) + f({1}) by 5e-5 of max f
        code = run_cli("run", "--instance", '{"kind":"table","values":[0,1e-6,1e-6,2.0001e-6]}',
                       "--constraint", CARD1, "--family", "monotone", "--iters", "10",
                       "--opt", "sets", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == "error: table values are not submodular\n"

    @pytest.mark.parametrize("variant,weights", [
        ("general-exp", '{"T":1.3862943611198906,"a":{"form":"exp","rate":1},'
                        '"b":{"form":"exp","rate":0.5,"shift":-1}}'),
        ("general-linear", '{"T":3,"a":{"form":"poly","coeffs":[1,1]},'
                           '"b":{"form":"sqrt_affine","inner_shift":1,"shift":-1}}'),
    ])
    def test_offset_presets_are_general_schedules(self, tmp_path, capsys, variant, weights):
        # the README's --schedule forms of the two offset presets reproduce their runs
        args = ["--instance", '{"kind":"concave_modular","weights":[[1,0.5,0,0],[0,0,2,1]]}',
                "--constraint", '{"kind":"partition","n":4,"blocks":[[0,1],[2,3]],'
                '"capacities":[1,1]}', "--iters", "200", "--opt", "grid"]
        assert run_cli("run", *args, "--family", variant, "--out", str(tmp_path / "preset")) == 0
        assert run_cli("run", *args, "--family", "general", "--schedule", weights,
                       "--out", str(tmp_path / "user")) == 0
        assert ((tmp_path / "user" / "trajectory.csv").read_bytes()
                == (tmp_path / "preset" / "trajectory.csv").read_bytes())
        preset_summary, user_summary = (json.loads((tmp_path / d / "summary.json").read_text())
                                        for d in ("preset", "user"))
        assert preset_summary.pop("family") == variant
        assert user_summary.pop("family") == "general"
        assert user_summary == preset_summary


class TestMalformedJson:
    @pytest.mark.parametrize("instance,constraint", [
        ('{"kind":"coverage"}', CARD),
        ('{"kind":"table"}', CARD),
        ('{"kind":"quadratic","c":[1,0.5]}', BOX2),
        ('{"kind":"concave_modular"}', BOX2),
        (QUAD, '{"kind":"box"}'),
        (QUAD, '{"kind":"cardinality","n":2}'),
        (QUAD, '{"kind":"partition","n":2,"blocks":[[0,1]]}'),
        (QUAD, '{"kind":"packing","A":[[1,1]]}'),
    ], ids=["coverage", "table", "quadratic", "concave_modular",
            "box", "cardinality", "partition", "packing"])
    def test_missing_field(self, tmp_path, capsys, instance, constraint):
        code = run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", "general", "--iters", "5", "--out", str(tmp_path))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", [
        {"form": "exp", "scale": 1.0},
        {"form": "poly"},
        {"form": "sqrt_affine", "scale": 2.0},
    ], ids=["exp", "poly", "sqrt_affine"])
    def test_missing_schedule_field(self, tmp_path, capsys, expr):
        sched = {"a": expr, "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0}
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "5", "--schedule", json.dumps(sched),
                       "--out", str(tmp_path)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("instance,constraint,message", [
        (QUAD, '{"kind":"box","n":"abc"}', "field 'n' must be an integer"),
        (QUAD, '{"kind":"box","n":2.7}', "field 'n' must be an integer"),
        (QUAD, '{"kind":"box","n":true}', "field 'n' must be an integer"),
        (QUAD, '{"kind":"box","n":-1}', "box dimension n must be positive"),
        (QUAD, '{"kind":"box","upper":["a"]}', "field 'upper' must be an array"),
        (QUAD, '{"kind":"box","upper":[1,1],"n":3}', "box JSON has unknown field 'n'"),
        (QUAD, '{"kind":"cardinality","n":2,"k":"x"}', "field 'k' must be an integer"),
        (QUAD, '{"kind":"partition","n":2,"blocks":[[0,1]],"capacities":["a",1]}',
         "field 'capacities' must be an array of integers"),
        (QUAD, '{"kind":"packing","A":[["x"]],"b":[1]}', "field 'A' must be a rectangular"),
        (QUAD, '{"kind":"packing","A":[[1,1],[1]],"b":[1,1]}', "field 'A' must be a rectangular"),
        ('{"kind":"quadratic","H":[[-2,0],[0,-2]],"c":[1,1e999]}', BOX2,
         "field 'c' must be an array of finite"),
        ('{"kind":"coverage","subsets":[[0],[1]],"L":12.0}', BOX2, "unknown field 'L'"),
        ('{"kind":"coverage","subsets":[[0],[-1]],"n_elements":3}', BOX2,
         "subset elements must be nonnegative"),
        ('{"kind":"table","m":1.5,"values":[0,1]}', BOX2, "field 'm' must be an integer"),
        ('{"kind":"table","values":[]}', BOX2, "table length 0 is not a power of two"),
        ('{"kind":"concave_modular","weights":[],"n":-1}', BOX2, "dimension n must be positive"),
        (QUAD, '{"kind":"box","n":65}', "box dimension 65 exceeds the desk-scale cap of 64"),
        (QUAD, '{"kind":"cardinality","n":100000,"k":1}',
         "cardinality dimension 100000 exceeds the desk-scale cap of 64"),
        (QUAD, '{"kind":"partition","n":100000,"blocks":[[0]],"capacities":[1]}',
         "partition dimension 100000 exceeds the desk-scale cap of 64"),
        ('{"kind":"concave_modular","weights":[],"n":65}', BOX2,
         "concave_modular dimension 65 exceeds the desk-scale cap of 64"),
        ('{"kind":"coverage","subsets":[[0],[1]],"n_elements":100000}', BOX2,
         "coverage universe of 100000 elements exceeds the desk-scale cap of 4096"),
        ('{"kind":"coverage","subsets":[[0],[4096]]}', BOX2,
         "coverage universe of 4097 elements exceeds the desk-scale cap of 4096"),
        ('{"kind":"coverage","subsets":[]}', '{"kind":"packing","A":[[]],"b":[1]}',
         "packing dimension n must be positive, got 0"),
        ('{"kind":"coverage","subsets":[[0]],"subsets":[[0,1],[1,2],[2,3]]}', CARD,
         "error: duplicate key 'subsets' in a JSON object"),
        (COVERAGE, '{"kind":"cardinality","n":3,"k":2,"k":1}',
         "error: duplicate key 'k' in a JSON object"),
        ("{", BOX2, "error: invalid JSON"),
        (QUAD, '{"kind":"box","upper":[]}', "box upper bounds must be a nonempty vector"),
        (QUAD, '{"kind":"partition","n":2,"blocks":[[0,1]],"capacities":[-1]}',
         "block capacities must be nonnegative integers"),
        (QUAD, json.dumps({"kind": "packing", "A": [[1, 1]] * 65, "b": [1] * 65}),
         "dense simplex supports at most 64 rows"),
        (json.dumps({"kind": "quadratic", "H": [[0] * 21] * 21, "c": [1] * 21}), BOX2,
         "vertex enumeration supports n <= 20"),
        ('{"kind":"concave_modular","weights":[]}', BOX2,
         "dimension n is required when the weight list is empty"),
        ('{"kind":"concave_modular","weights":[[1,2]],"n":3}', BOX2,
         "all weight vectors must share one dimension"),
    ], ids=["box-n-text", "box-n-fraction", "box-n-bool", "box-n-negative", "box-upper",
            "box-n-upper-disagree", "cardinality-k", "partition-capacities", "packing-A-text",
            "packing-A-ragged", "quadratic-c-inf", "coverage-L", "coverage-negative-element",
            "table-m", "table-empty", "concave-n-negative", "box-n-cap", "cardinality-n-cap",
            "partition-n-cap", "concave-n-cap", "coverage-n-elements-cap",
            "coverage-element-cap", "packing-no-columns", "instance-duplicate-key",
            "constraint-duplicate-key", "instance-not-json", "box-upper-empty",
            "partition-capacity-negative", "packing-row-cap", "quadratic-n-cap",
            "concave-no-weights-no-n", "concave-n-disagrees"])
    def test_bad_field_value(self, tmp_path, capsys, instance, constraint, message):
        code = run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", "general", "--iters", "5", "--out", str(tmp_path))
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("schedule_json,message", [
        ("[1]", "schedule JSON must be an object"),
        ('{"a":1,"b":{"form":"poly","coeffs":[0,1]},"T":1}',
         "schedule expression must be an object with a 'form' key"),
        ('{"a":{"form":"poly","coeffs":[]},"b":{"form":"poly","coeffs":[0,1]},"T":1}',
         "poly schedule needs at least one coefficient"),
        ('{"a":{"form":"poly","coeffs":[1,1]},"b":{"form":"poly","coeffs":[0,1]},"T":0}',
         "schedule horizon must be positive"),
    ], ids=["not-an-object", "expression-not-an-object", "poly-no-coefficients", "zero-horizon"])
    def test_bad_schedule_value(self, tmp_path, capsys, schedule_json, message):
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "5", "--schedule", schedule_json,
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("schedule_json,key", [
        ('{"a":{"form":"exp","rate":1},"a":{"form":"exp","rate":1},'
         '"b":{"form":"exp","rate":1},"T":1}', "a"),
        ('{"a":{"form":"exp","rate":1,"rate":2},"b":{"form":"exp","rate":1},"T":1}', "rate"),
    ], ids=["schedule", "schedule-expression"])
    def test_duplicate_schedule_key(self, tmp_path, capsys, schedule_json, key):
        assert run_cli("run", "--instance", COVERAGE, "--constraint", CARD, "--family",
                       "monotone", "--iters", "5", "--schedule", schedule_json,
                       "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == f"error: duplicate key {key!r} in a JSON object\n"
        assert not any(tmp_path.iterdir())


# README examples; each constraint is paired with an instance of its dimension
README_INSTANCES = [
    {"kind": "coverage", "subsets": [[0, 1], [1, 2]], "weights": [1, 1, 1], "n_elements": 3},
    {"kind": "table", "m": 2, "values": [0, 1, 1, 1.5]},
    {"kind": "quadratic", "H": [[-2, 0], [0, -2]], "c": [1, 0.5]},
    {"kind": "concave_modular", "weights": [[1, 0.5], [0, 2]], "n": 2},
]
README_CONSTRAINTS = [
    ({"kind": "box", "upper": [1, 0.5]}, QUAD),
    ({"kind": "box", "n": 2}, QUAD),
    ({"kind": "cardinality", "n": 3, "k": 2}, COVERAGE),
    ({"kind": "partition", "n": 4, "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]},
     '{"kind":"concave_modular","weights":[[1,0.5,0,0],[0,0,2,1]]}'),
    ({"kind": "packing", "A": [[1, 1], [2, 1]], "b": [1, 2]}, QUAD),
]
JUNK = st.one_of(st.text(max_size=3), st.booleans(), st.none(), st.just([]), st.just({}),
                 st.integers(-3, 40), st.floats(-40.0, 40.0), st.just([["x"]]))


@st.composite
def mutated_example(draw):
    """(instance, constraint) JSON with one field of a README example mutated."""
    examples = ([(i, obj, None) for i, obj in enumerate(README_INSTANCES)]
                + [(None, obj, partner) for obj, partner in README_CONSTRAINTS])
    index, obj, partner = draw(st.sampled_from(examples))
    obj = json.loads(json.dumps(obj))
    key = draw(st.sampled_from(sorted(obj)))
    how = draw(st.sampled_from(["missing", "extra", "replace", "leaf"]))
    if how == "missing":
        del obj[key]
    elif how == "extra":
        obj[draw(st.sampled_from(["L", "down_closed", "seed", "x"]))] = draw(JUNK)
    elif how == "replace" or not isinstance(obj[key], list) or not obj[key]:
        obj[key] = draw(JUNK)
    else:  # one array entry, possibly nested: wrong type or non-integral
        parent = obj[key]
        while True:
            j = draw(st.integers(0, len(parent) - 1))
            if not isinstance(parent[j], list) or not parent[j]:
                break
            parent = parent[j]
        parent[j] = draw(st.one_of(JUNK, st.just(0.5)))
    if index is None:
        return partner, json.dumps(obj)
    return json.dumps(obj), BOX2


@settings(max_examples=300, deadline=None, derandomize=True)
@given(example=mutated_example())
def test_mutated_readme_json_never_escapes(example, tmp_path_factory):
    instance, constraint = example
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--instance", instance, "--constraint", constraint, "--family",
                     "general", "--iters", "5", "--out", str(tmp_path_factory.getbasetemp())])
    assert code in (0, 1), err.getvalue()
    if code == 1:
        assert "error:" in err.getvalue()


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["run", "--family", "bogus"], "drsub run: error: argument --family: invalid choice"),
        (["check", "--seed", "x"], "drsub check: error: argument --seed: invalid int value"),
        (["frob"], "drsub: error: argument command: invalid choice"),
        (["run", "--inst", COVERAGE, "--cons", CARD, "--fam", "general", "--it", "5"],
         "drsub: error: unrecognized arguments: --inst"),
        (["check", "--se", "1"], "drsub: error: unrecognized arguments: --se 1"),
        (["run", "--instance", COVERAGE, "--constraint", CARD, "--family", "general",
          "--iters", "5", "--out", "A", "--out", "B"],
         "drsub run: error: argument --out: given more than once\n"),
        (["check", "--seed", "0", "--seed", "1"],
         "drsub check: error: argument --seed: given more than once\n"),
    ], ids=["family", "seed", "command", "abbreviated-run", "abbreviated-check",
            "repeated-out", "repeated-seed"])
    def test_usage_error_exits_1(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # where a run would write
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: drsub")
        assert message in captured.err
        assert not any(tmp_path.iterdir())


class TestCheckCommand:
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_pristine(self, capsys, seed):
        assert run_cli("check", "--seed", str(seed)) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if l]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)
        assert "0.632121, 0.367879, 0.250000" in out

    def test_one_measurement_of_the_runs(self, capsys, monkeypatch):
        # the potential, headroom and guarantee rows share 40 runs; the CSV row adds 2
        solve, calls = solver.run, []
        monkeypatch.setattr(solver, "run", lambda *args: calls.append(args[4]) or solve(*args))
        assert run_cli("check") == 0
        assert len(calls) == 42
        assert sum(calls) == 6210

    def test_fail_line_names_the_worst_run(self, capsys, monkeypatch):
        # one mutant margin, on one run of one instance: the monotone N=100 run on the
        # coverage, the only instance whose optimum is 4
        margins = checks.run_margins

        def mutant(traj, opt):
            found = margins(traj, opt)
            if traj.N == 100 and opt == 4.0 and traj.gronwall_margin is None:
                found["potential increment margin"] = checks.Margin(-1e-3, 7)
            return found

        monkeypatch.setattr(checks, "run_margins", mutant)
        assert run_cli("check") == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert [l for l in lines if l.startswith("FAIL")] == [
            "FAIL solver-potential: instance coverage3-card2, family monotone, N=100, step 7: "
            "potential increment margin -1.000e-03 misses its limit -1e-09"]
        assert len(lines) == 11

    def test_negative_seed_is_input_error(self, capsys):
        assert run_cli("check", "--seed", "-1") == 1
        assert "error: --seed must be a nonnegative integer" in capsys.readouterr().err

    def test_corrupted_preset(self, capsys, monkeypatch):
        preset = schedule.preset
        doubled = lambda t: 2.0 * np.exp(t)  # a_T = 2e breaks the pinned boundary values
        monkeypatch.setattr(schedule, "preset", lambda family: dataclasses.replace(
            preset(family), a=doubled) if family == "monotone" else preset(family))
        assert run_cli("check") == 2
        fail = [l for l in capsys.readouterr().out.split("\n")
                if l.startswith("FAIL schedule-presets")]
        assert fail and fail[0].startswith("FAIL schedule-presets: monotone: ")
        assert "log aT == 1" in fail[0]


class TestDeterminism:
    def test_byte_identical_csv_across_processes(self, tmp_path):
        args = ["run", "--instance", COVERAGE, "--constraint", CARD,
                "--family", "measured", "--iters", "150", "--opt", "sets"]
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", "drsub", *args, "--out", str(out_dir)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append((out_dir / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestRepeatedCalls:
    """main() builds its parser once per process, and no call leaves state for the next."""

    RUN = ["run", "--instance", COVERAGE, "--constraint", CARD, "--family", "measured",
           "--iters", "40", "--opt", "sets"]

    @staticmethod
    def call(argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def files(out_dir):
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_one_parser_per_process(self, tmp_path, capsys):
        from drsub import cli
        cli._parser.cache_clear()
        for sub in ("a", "b"):
            main(self.RUN + ["--out", str(tmp_path / sub)])
        main(["check", "--seed", "x"])
        assert cli._parser.cache_info().misses == 1

    @pytest.mark.parametrize("command,iters", [("run", "40"), ("sweep", "4,8,16")])
    def test_same_argv_twice(self, tmp_path, capsys, command, iters):
        argv = [command, *self.RUN[1:7], "--opt", "sets", "--iters", iters]
        first = self.call(argv + ["--out", str(tmp_path / "a")], capsys)
        second = self.call(argv + ["--out", str(tmp_path / "b")], capsys)
        assert first == second and first[0] == 0
        assert self.files(tmp_path / "a") == self.files(tmp_path / "b")

    def test_a_repeated_flag_then_a_good_call(self, tmp_path, capsys):
        fresh = self.call(self.RUN + ["--out", str(tmp_path / "a")], capsys)
        code, out, err = self.call(self.RUN + ["--out", str(tmp_path / "x"),
                                               "--out", str(tmp_path / "y")], capsys)
        assert code == 1 and out == "" and "--out: given more than once" in err
        assert self.call(self.RUN + ["--out", str(tmp_path / "b")], capsys) == fresh
        assert self.files(tmp_path / "a") == self.files(tmp_path / "b")

    def test_missing_flags_then_a_good_call(self, tmp_path, capsys):
        fresh = self.call(self.RUN + ["--out", str(tmp_path / "a")], capsys)
        for _ in range(2):
            assert self.call(["run", "--out", str(tmp_path / "x")], capsys) == (
                1, "", "error: missing required flags: --instance --constraint --family --iters\n")
        assert self.call(self.RUN + ["--out", str(tmp_path / "b")], capsys) == fresh
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["check", "-h"]])
    def test_help_is_the_same_on_the_first_and_the_fifth_call(self, argv, capsys):
        from drsub import cli
        cli._parser.cache_clear()
        texts = []
        for _ in range(5):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: drsub") and texts == [texts[0]] * 5

    def test_check_after_run(self, tmp_path, capsys):
        before = self.call(["check", "--seed", "1"], capsys)
        assert self.call(self.RUN + ["--out", str(tmp_path)], capsys)[0] == 0
        assert self.call(["check", "--seed", "1"], capsys) == before and before[0] == 0
