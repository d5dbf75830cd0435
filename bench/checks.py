"""Per-job correctness checks against the reference model.

A job fails when it raises, exits nonzero, or breaks any of:

* the final iterate lies in the body (in-process jobs; CLI runs abort
  with exit code 2 when an iterate leaves the body);
* ``G_j == 0`` for the monotone family and ``G_j <= 0`` for the others;
* potential-increment and headroom margins >= -1e-9;
* ``F(x_N) >= coefficient*OPT - additive`` wherever an optimum is known;
* ``final_value`` equals the reference model's to a relative tolerance
  (sums may be reordered, so bit equality is not required);
* subset-enumeration optima equal the reference optimum;
* ``drsub check`` prints only PASS lines.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

import reference

MARGIN_TOL = 1e-9
VALUE_RTOL = 1e-7
VALUE_ATOL = 1e-12


class References:
    """Reference results per job, computed once per job and cached."""

    def __init__(self, workload):
        self.wl = workload
        self._objectives: dict[int, object] = {}
        self._cache: dict[int, dict] = {}

    def objective(self, i: int):
        if i not in self._objectives:
            self._objectives[i] = reference.objective(self.wl.instances[i])
        return self._objectives[i]

    def get(self, index: int) -> dict:
        if index not in self._cache:
            self._cache[index] = self._compute(self.wl.jobs[index])
        return self._cache[index]

    def _compute(self, job) -> dict:
        if job.cls == "check":
            return {}
        F = self.objective(job.instance)
        body = reference.Body(self.wl.bodies[job.body])
        iters = job.iters or (job.N,)
        ref = {"final": {N: reference.frank_wolfe(F, body, job.family, N)[1] for N in iters}}
        if isinstance(F, reference.Multilinear):
            ref["opt"] = reference.subset_opt(F.table, body)
        return ref


def close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(abs(a), abs(b)) + VALUE_ATOL


def check(job, out: dict, ref: dict, body_spec: dict | None) -> list[str]:
    """Problems found in one job's outputs (empty when the job is correct)."""
    if "error" in out:
        return [out["error"]]
    if job.kind == "solve":
        return _check_solve(job, out, ref, body_spec)
    if job.cls == "check":
        return _check_selfcheck(out)
    if out["rc"] != 0:
        return [f"exit code {out['rc']}: {out['stderr'].strip()[-300:]}"]
    if job.argv[0] == "sweep":
        return _check_sweep(job, out, ref)
    return _check_run(job, out, ref)


def _check_g(family: str, G) -> list[str]:
    G = np.asarray(G, dtype=float)
    if family == "monotone" and np.any(G != 0.0):
        return [f"monotone G_j not zero (max |G| {np.max(np.abs(G)):.3e})"]
    if family != "monotone" and np.any(G > 0.0):
        return [f"G_j positive (max {np.max(G):.3e})"]
    return []


def _check_margin(label: str, value) -> list[str]:
    if value is not None and value < -MARGIN_TOL:
        return [f"{label} margin {value:.3e} < -{MARGIN_TOL}"]
    return []


def _check_guarantee(final: float, coefficient: float, additive: float, opt) -> list[str]:
    if opt is not None and opt > 0 and final < coefficient * opt - additive:
        return [f"final {final!r} below guarantee {coefficient}*{opt} - {additive}"]
    return []


def _check_final(final: float, want: float) -> list[str]:
    return [] if close(final, want) else [f"final_value {final!r} != reference {want!r}"]


def _check_solve(job, out, ref, body_spec) -> list[str]:
    traj, bound = out["traj"], out["bound"]
    problems = []
    if not reference.Body(body_spec).contains(traj.final_x):
        problems.append("final iterate outside the body")
    problems += _check_g(job.family, traj.G)
    problems += _check_margin("headroom", traj.min_gronwall_margin)
    opt = ref.get("opt")
    if opt is not None and opt > 0:
        E = traj.a * traj.F - traj.b * opt
        margins = np.diff(E) + np.maximum(traj.G, 0.0) * opt + traj.B_exact
        problems += _check_margin("potential increment", float(np.min(margins)))
    problems += _check_guarantee(traj.final_value, bound.coefficient, bound.additive, opt)
    problems += _check_final(traj.final_value, ref["final"][job.N])
    return problems


def _read_trajectory(path: Path) -> dict[str, list[str]]:
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    return {key: [row[key] for row in rows] for key in rows[0]}


def _check_trajectory(job, path: Path, want: float) -> list[str]:
    cols = _read_trajectory(path)
    problems = _check_g(job.family, [float(v) for v in cols["Gj"][:-1]])
    return problems + _check_final(float(cols["F"][-1]), want)


def _check_run(job, out, ref) -> list[str]:
    summary = json.loads((out["out"] / "summary.json").read_text())
    problems = _check_trajectory(job, out["out"] / "trajectory.csv", ref["final"][job.N])
    problems += _check_margin("potential increment", summary["min_potential_increment_margin"])
    problems += _check_margin("headroom", summary["min_gronwall_margin"])
    problems += _check_guarantee(summary["final_value"], summary["ratio_guaranteed"],
                                 summary["additive_gap"], summary["opt"])
    problems += _check_final(summary["final_value"], ref["final"][job.N])
    if "opt" in ref and not close(summary["opt"], ref["opt"]):
        problems.append(f"subset optimum {summary['opt']!r} != reference {ref['opt']!r}")
    if not summary["feasible"]:
        problems.append("summary reports an infeasible final iterate")
    return problems


def _check_sweep(job, out, ref) -> list[str]:
    problems = []
    for N in job.iters:
        problems += [f"N={N}: {p}" for p in
                     _check_trajectory(job, out["out"] / f"trajectory_N{N}.csv", ref["final"][N])]
    rows = list(csv.DictReader(io.StringIO((out["out"] / "sweep.csv").read_text())))
    for row in rows:
        N = int(row["N"])
        achieved = float(row["achieved"]) * ref["opt"]
        problems += [f"N={N}: {p}" for p in
                     _check_guarantee(achieved, float(row["guaranteed"]),
                                      float(row["additive"]), ref["opt"])]
    if [int(r["N"]) for r in rows] != list(job.iters):
        problems.append("sweep.csv rows do not match --iters")
    return problems


def _check_selfcheck(out) -> list[str]:
    if out["rc"] != 0:
        return [f"drsub check exit code {out['rc']}"]
    lines = [ln for ln in out["stdout"].splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("PASS ")]
    if not lines or bad:
        return [f"drsub check did not report all PASS: {bad[:3]}"]
    return []


def quality_ratios(job, out) -> tuple[float | None, float | None]:
    """(certificate.slack / certificate.value of a grid certificate,
    guarantee().additive / final_value) of one job; None where not reported."""
    if "error" in out:
        return None, None
    if job.kind == "solve":
        final = out["traj"].final_value
        return None, (out["bound"].additive / final if final > 0 else None)
    if job.cls not in ("grid", "sets") or out["rc"] != 0:
        return None, None
    summary = json.loads((out["out"] / "summary.json").read_text())
    cert = summary["opt_certificate"]
    slack = cert["slack"] / cert["value"] if job.opt == "grid" and cert["value"] > 0 else None
    final = summary["final_value"]
    return slack, (summary["additive_gap"] / final if final > 0 else None)
