import contextlib
import dataclasses
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import schedule
from drsub.cli import main

COVERAGE = '{"kind":"coverage","subsets":[[0,1],[1,2],[2,3]]}'
CARD = '{"kind":"cardinality","n":3,"k":2}'
QUAD = '{"kind":"quadratic","H":[[-2,0],[0,-2]],"c":[1,0.5]}'
BOX2 = '{"kind":"box","n":2}'


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

    def test_zero_iters_is_input_error(self, tmp_path, capsys):
        code = run_cli("run", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "0", "--out", str(tmp_path))
        assert code == 1
        assert "N must be >= 1" in capsys.readouterr().err

    def test_measured_on_non_down_closed_body(self, tmp_path, capsys):
        # every body is down-closed by construction; declaring otherwise is stale input
        body = '{"kind":"packing","A":[[1,1]],"b":[1.5],"down_closed":false}'
        code = run_cli("run", "--instance", QUAD, "--constraint", body,
                       "--family", "measured", "--iters", "10", "--out", str(tmp_path))
        assert code == 1
        assert "unknown field 'down_closed'" in capsys.readouterr().err

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

    def test_overflowing_custom_schedule_rejected(self, tmp_path, capsys):
        overflowing = {"a": {"form": "exp", "rate": 1e308},
                       "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1}
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", "general",
                       "--iters", "20", "--schedule", json.dumps(overflowing),
                       "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: schedule fails validation: a finite (value inf")

    @pytest.mark.parametrize("family,schedule_json,message", [
        ("general", {"a": {"form": "poly", "coeffs": [1, 1]},
                     "b": {"form": "poly", "coeffs": [0, 1e300]}, "T": 1},
         "max rho_j = 1.66667e+299 exceeds 1 at N=5"),
        ("monotone", {"a": {"form": "exp", "rate": 1.0},
                      "b": {"form": "exp", "rate": 1.0, "scale": 3.0}, "T": 1},
         "sum rho_j = 2.71904 exceeds 1 at N=5"),
    ], ids=["general-max-step", "monotone-step-sum"])
    def test_overlong_custom_schedule_steps_rejected(self, tmp_path, capsys, family,
                                                     schedule_json, message):
        assert run_cli("run", "--instance", QUAD, "--constraint", BOX2, "--family", family,
                       "--iters", "5", "--schedule", json.dumps(schedule_json),
                       "--out", str(tmp_path)) == 1
        assert f"error: schedule steps are too long: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("run", ["--instance", "--constraint", "--family", "--iters", "--opt", "--out",
                 "--schedule"]),
        ("sweep", ["--instance", "--constraint", "--family", "--iters", "--opt", "--out",
                   "--schedule"]),
        ("check", ["--seed"]),
    ])
    def test_flags_are_the_only_settings(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            run_cli(command, "--help")
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

    def test_single_n_rejected(self, tmp_path):
        code = run_cli("sweep", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "16", "--out", str(tmp_path))
        assert code == 1

    def test_unsorted_list_rejected(self, tmp_path):
        code = run_cli("sweep", "--instance", QUAD, "--constraint", BOX2,
                       "--family", "general", "--iters", "16,8,32",
                       "--out", str(tmp_path))
        assert code == 1


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
    ], ids=["box-n-text", "box-n-fraction", "box-n-bool", "box-n-negative", "box-upper",
            "box-n-upper-disagree", "cardinality-k", "partition-capacities", "packing-A-text",
            "packing-A-ragged", "quadratic-c-inf", "coverage-L", "coverage-negative-element",
            "table-m", "table-empty", "concave-n-negative", "box-n-cap", "cardinality-n-cap",
            "partition-n-cap", "concave-n-cap", "coverage-n-elements-cap",
            "coverage-element-cap", "packing-no-columns"])
    def test_bad_field_value(self, tmp_path, capsys, instance, constraint, message):
        code = run_cli("run", "--instance", instance, "--constraint", constraint,
                       "--family", "general", "--iters", "5", "--out", str(tmp_path))
        assert code == 1
        assert message in capsys.readouterr().err


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


class TestCheckCommand:
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_pristine(self, capsys, seed):
        assert run_cli("check", "--seed", str(seed)) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if l]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)
        assert "0.632121, 0.367879, 0.250000" in out

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
