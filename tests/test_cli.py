import json
import subprocess
import sys

import pytest

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
        body = '{"kind":"packing","A":[[1,1]],"b":[1.5],"down_closed":false}'
        code = run_cli("run", "--instance", QUAD, "--constraint", body,
                       "--family", "measured", "--iters", "10", "--out", str(tmp_path))
        assert code == 1
        assert "down-closed" in capsys.readouterr().err

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

    def test_config_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instance": json.loads(COVERAGE),
            "constraint": json.loads(CARD),
            "family": "monotone",
            "iters": 50,
            "opt": "sets",
            "out": str(tmp_path / "out"),
        }))
        code = run_cli("run", "--family", "general", "--iters", "7",
                       "--config", str(cfg))
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["family"] == "monotone"
        assert summary["N"] == 50

    def test_custom_schedule_from_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instance": json.loads(QUAD),
            "constraint": json.loads(BOX2),
            "family": "general",
            "iters": 20,
            "out": str(tmp_path / "out"),
            "schedule": {"a": {"form": "poly", "coeffs": [1, 2, 1]},
                         "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0},
        }))
        assert run_cli("run", "--config", str(cfg)) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["ratio_guaranteed"] == pytest.approx(0.25)

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
        cfg = {"instance": json.loads(QUAD), "constraint": json.loads(BOX2),
               "family": "general", "iters": 5, "out": str(tmp_path),
               "schedule": {"a": expr, "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0}}
        assert run_cli("run", "--config", json.dumps(cfg)) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckCommand:
    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_pristine(self, capsys, seed):
        assert run_cli("check", "--seed", str(seed)) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.strip().split("\n") if l]
        assert len(lines) == 11
        assert all(l.startswith("PASS") for l in lines)
        assert "0.632121, 0.367879, 0.250000" in out

    def test_corrupted_preset(self, capsys):
        assert run_cli("check", "--corrupt-preset") == 2
        out = capsys.readouterr().out
        assert "FAIL schedule-presets" in out


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
