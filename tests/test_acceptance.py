"""Acceptance gate: one test per release criterion, at its stated tolerance.

Each test prints a single verdict line (visible with ``pytest -s`` or in the
captured output); the asserts behind the line carry the same tolerances.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import time

import numpy as np

from drsub import (BoxBody, CardinalityBody, PackingBody, PartitionBody,
                   coverage_function, family_spec,
                   g_series, grid_search, guarantee, make_coverage, multilinear_extension,
                   preset, run, set_bruteforce, set_function_from_table)
from drsub import checks, desk
from drsub.cli import main as cli_main

from conftest import cut_table

FAMILIES = ("monotone", "measured", "general")


def _verdict(num, name, ok, detail=""):
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_schedule_ratios():
    start = time.perf_counter()
    expected = {"monotone": 1.0 - 1.0 / math.e, "measured": 1.0 / math.e,
                "general": 0.25, "general-exp": 0.25, "general-linear": 0.25}
    ratio_error = checks.max_ratio_error({f: preset(f) for f in expected}, expected)

    peaks = {"general": 1.0, "general-exp": 2.0 * math.log(2.0), "general-linear": 3.0}
    peak_error, peak_offset = checks.ratio_curve_peaks(peaks)
    curve_ok = peak_error <= 1e-9 and peak_offset <= 1e-12
    elapsed = time.perf_counter() - start
    _verdict(1, "schedule ratios", ratio_error <= 1e-9 and curve_ok and elapsed < 1.0,
             f"ratios to 1e-9, variant peaks at 1/4, {elapsed:.2f}s")


def test_criterion_02_g_term_exactness():
    start = time.perf_counter()
    specs = {f: (preset(f), family_spec(f)) for f in FAMILIES}
    worst_mono = 0.0
    worst_sign = -np.inf
    worst_closed = 0.0
    for N in range(1, 1001):
        t = np.linspace(0.0, 1.0, N + 1)
        dt = np.diff(t)
        worst_mono = max(worst_mono, float(np.max(np.abs(g_series(*specs["monotone"], N)))))
        G = g_series(*specs["measured"], N)
        closed = np.exp(t[:-1]) * (1.0 + dt - np.exp(dt))
        worst_sign = max(worst_sign, float(np.max(G)))
        worst_closed = max(worst_closed, float(np.max(np.abs(G - closed))))
        G = g_series(*specs["general"], N)
        a = (1.0 + t) ** 2
        closed = -((np.sqrt(a[1:]) - np.sqrt(a[:-1])) ** 2)
        worst_sign = max(worst_sign, float(np.max(G)))
        worst_closed = max(worst_closed, float(np.max(np.abs(G - closed))))
    spot_measured = float(g_series(*specs["measured"], 1)[0])
    spot_general = float(g_series(*specs["general"], 1)[0])
    elapsed = time.perf_counter() - start
    ok = (worst_mono <= 1e-12 and worst_sign <= 1e-12 and worst_closed <= 1e-12
          and abs(spot_measured - (2.0 - math.e)) <= 1e-12
          and abs(spot_general - (-1.0)) <= 1e-12
          and elapsed < 1.0)
    _verdict(2, "coupling-term exactness", ok,
             f"closed-form gap {worst_closed:.1e}, {elapsed:.2f}s")


def test_criterion_03_potential_increments():
    start = time.perf_counter()
    cover = desk.coverage_three_sets()
    F = multilinear_extension(cover)
    body = CardinalityBody(3, 2)
    opt = set_bruteforce(cover, body).value
    worst = checks.worst_run_margins([(F, body, opt)])["potential increment margin"]
    elapsed = time.perf_counter() - start
    _verdict(3, "potential increments", worst >= -1e-9 and elapsed < 5.0,
             f"min margin {worst:.3e}, {elapsed:.2f}s")


def test_criterion_04_end_to_end_monotone():
    start = time.perf_counter()
    cover = desk.coverage_three_sets()
    F = multilinear_extension(cover)
    body = CardinalityBody(3, 2)
    opt = set_bruteforce(cover, body).value
    N = 2000
    traj = run(F, body, preset("monotone"), family_spec("monotone"), N)
    bound = guarantee(preset("monotone"), family_spec("monotone"), N, F.L, body.diameter())
    lower = bound.coefficient * opt - bound.additive - 1e-9
    achieved = traj.final_value / opt
    elapsed = time.perf_counter() - start
    ok = (traj.final_value >= lower
          and achieved >= 1.0 - 1.0 / math.e - 0.02
          and abs(bound.coefficient - (1.0 - 1.0 / math.e)) <= 1e-12
          and elapsed < 10.0)
    _verdict(4, "end-to-end monotone", ok,
             f"value {traj.final_value:.4f} vs bound {lower:.4f} "
             f"(ratio {achieved:.4f}), {elapsed:.2f}s")


def test_criterion_05_end_to_end_measured():
    start = time.perf_counter()
    F = desk.quad_two_dim()
    body = CardinalityBody(2, 1)
    cert = grid_search(F, body)
    N = 2000
    traj = run(F, body, preset("measured"), family_spec("measured"), N)
    bound = guarantee(preset("measured"), family_spec("measured"), N, F.L, body.diameter())
    lower = (1.0 / math.e) * cert.value - cert.slack - bound.additive - 1e-9
    elapsed = time.perf_counter() - start
    ok = traj.final_value >= lower and elapsed < 10.0
    _verdict(5, "end-to-end measured", ok,
             f"value {traj.final_value:.4f} vs bound {lower:.4f} "
             f"(opt {cert.value:.4f}, slack {cert.slack:.4f}), {elapsed:.2f}s")


def test_criterion_06_end_to_end_general():
    start = time.perf_counter()
    F = desk.quad_two_dim()
    body = BoxBody(np.ones(2))
    cert = grid_search(F, body)
    N = 2000
    traj = run(F, body, preset("general"), family_spec("general"), N)
    bound = guarantee(preset("general"), family_spec("general"), N, F.L, body.diameter())
    lower = 0.25 * cert.value - cert.slack - bound.additive - 1e-9
    ok = traj.final_value >= lower

    x0 = np.array([0.5, 0.5])
    traj_half = run(F, body, preset("general"), family_spec("general"), N, x0)
    bound_half = traj_half.bound
    lower_half = bound_half.coefficient * cert.value - cert.slack - bound_half.additive - 1e-9
    ok &= abs(bound_half.coefficient - 0.125) <= 1e-12
    ok &= traj_half.final_value >= lower_half
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _verdict(6, "end-to-end general", ok,
             f"value {traj.final_value:.4f} vs bound {lower:.4f}, "
             f"half-start {traj_half.final_value:.4f} vs {lower_half:.4f}, {elapsed:.2f}s")


def test_criterion_07_additive_decay():
    start = time.perf_counter()
    ok = True
    detail = []
    for family in ("monotone", "measured", "general", "general-exp", "general-linear"):
        s, spec = preset(family), family_spec(family)
        adds = {N: guarantee(s, spec, N, 1.0, 1.0).additive
                for N in (16, 32, 64, 128, 256, 512)}
        for N in (16, 32, 64, 128, 256):
            r = adds[2 * N] / adds[N]
            ok &= 0.4 <= r <= 0.6
        ns = np.array([16, 32, 64, 128, 256], dtype=float)
        slope = float(np.polyfit(np.log(ns), np.log([adds[int(N)] for N in ns]), 1)[0])
        ok &= -1.15 <= slope <= -0.85
        detail.append(f"{family}:{slope:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _verdict(7, "1/N additive decay", ok, f"slopes {' '.join(detail)}, {elapsed:.2f}s")


def test_criterion_08_gronwall_margins():
    start = time.perf_counter()
    worst = np.inf
    for inst in desk.bundled_instances():
        for N in (1, 50, 500):
            t_meas = run(inst.objective, inst.body, preset("measured"),
                         family_spec("measured"), N)
            margin = (1.0 - t_meas.infnorm) - np.exp(-t_meas.t)
            worst = min(worst, float(np.min(margin)))
            t_gen = run(inst.objective, inst.body, preset("general"),
                        family_spec("general"), N)
            margin = (1.0 - t_gen.infnorm) - 1.0 / (1.0 + t_gen.t)
            worst = min(worst, float(np.min(margin)))
    elapsed = time.perf_counter() - start
    _verdict(8, "headroom margins", worst >= -1e-9 and elapsed < 5.0,
             f"min margin {worst:.3e}, {elapsed:.2f}s")


def test_criterion_09_oracle_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    bodies = [BoxBody(np.ones(3)), CardinalityBody(3, 2), CardinalityBody(2, 1),
              PartitionBody(4, ((0, 1), (2, 3)), (1, 1)),
              desk.bundled_instances()[1].body,
              PackingBody(np.array([[1.0, 1.0, 0.5], [0.5, 2.0, 1.0]]), np.array([1.0, 1.5]))]
    worst_lmo = checks.max_lmo_gap(bodies, rng)
    worst_lp = checks.max_simplex_gap(rng)
    elapsed = time.perf_counter() - start
    ok = worst_lmo <= 1e-9 and worst_lp <= 1e-9 and elapsed < 5.0
    _verdict(9, "oracle suite", ok,
             f"lmo gap {worst_lmo:.1e}, simplex gap {worst_lp:.1e}, {elapsed:.2f}s")


def test_criterion_10_objective_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    instances = [inst.objective for inst in desk.bundled_instances()]
    cut = set_function_from_table(cut_table(rng.uniform(0.0, 2.0, size=(5, 5))))
    instances.append(multilinear_extension(cut))

    worst_dr = np.inf
    worst_grad = 0.0
    for F in instances:
        worst_dr = min(worst_dr, checks.min_dr_residual([F], rng))
        worst_grad = max(worst_grad, checks.max_grad_mismatch([F], rng))

    big = ([sorted(rng.choice(10, size=3, replace=False).tolist()) for _ in range(8)],
           rng.uniform(0.0, 2.0, size=10), 10)
    cover3 = desk.bundled_instances()[0]
    worst_lattice = checks.max_lattice_mismatch([
        (cover3.objective, cover3.set_function), (multilinear_extension(cut), cut),
        (make_coverage(*big), coverage_function(*big))])
    elapsed = time.perf_counter() - start
    ok = (worst_dr >= -1e-9 and worst_grad <= 1e-5 and worst_lattice <= 1e-12
          and elapsed < 10.0)
    _verdict(10, "objective suite", ok,
             f"dr {worst_dr:.1e}, grad {worst_grad:.1e}, lattice {worst_lattice:.1e}, "
             f"{elapsed:.2f}s")


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    args = ["run",
            "--instance", '{"kind":"coverage","subsets":[[0,1],[1,2],[2,3]]}',
            "--constraint", '{"kind":"cardinality","n":3,"k":2}',
            "--family", "measured", "--iters", "200", "--opt", "sets"]
    blobs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(args + ["--out", str(out)])
        assert code == 0
        blobs.append((out / "trajectory.csv").read_bytes())
        summary = json.loads((out / "summary.json").read_text())
        assert summary["feasible"] is True
    elapsed = time.perf_counter() - start
    _verdict(11, "determinism", blobs[0] == blobs[1] and elapsed < 5.0,
             f"byte-identical trajectory CSV, {elapsed:.2f}s")
