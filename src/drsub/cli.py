"""Command-line front end: run, sweep, and check.

``run`` executes one solve and writes a trajectory CSV plus a summary JSON;
``sweep`` repeats a solve over a list of iteration counts and reports how
fast the a-priori additive gap shrinks; ``check`` replays the bundled
invariant suites and exits nonzero if any of them fails.

Exit codes: 0 success, 1 malformed or incompatible input, 2 invariant or
acceptance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, desk, feasible, objective, oracle, schedule, solver
from .errors import DrsubError, InputError, InvariantError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2


def _strict_json_loads(text: str):
    def _reject(token):
        raise InputError(f"non-finite number {token!r} is not accepted")

    def _unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"duplicate key {key!r} in a JSON object")
            obj[key] = value
        return obj
    try:
        return json.loads(text, parse_constant=_reject, object_pairs_hook=_unique)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from e


def _load_json_arg(value: str, what: str):
    """Accept either inline JSON or a path to a JSON file."""
    text = value.strip()
    if text.startswith("{") or text.startswith("["):
        return _strict_json_loads(text)
    try:
        return _strict_json_loads(Path(value).read_text())
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {what} file {value}: {e}") from e


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise InputError(f"cannot write {path}: {e}") from e


def _make_out_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create output directory {path}: {e}") from e


def _parse_iters(value: str) -> list[int]:
    try:
        return [int(part) for part in value.split(",")]
    except ValueError as e:
        raise InputError(f"--iters must be an integer or comma list, got {value!r}") from e


class _Experiment:
    """The inputs of one run or sweep, read from the flags."""

    def __init__(self, parsed):
        missing = [f"--{flag}" for flag in ("instance", "constraint", "family", "iters")
                   if getattr(parsed, flag) is None]
        if missing:
            raise InputError(f"missing required flags: {' '.join(missing)}")
        self.spec = solver.family_spec(parsed.family)
        self.iters = _parse_iters(parsed.iters)
        self.opt_mode = parsed.opt
        self.out_dir = Path(parsed.out)
        existing = next(p for p in (self.out_dir, *self.out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise InputError(f"cannot create output directory {self.out_dir}: "
                             f"{existing} is not a directory")

        self.objective, self.set_function = objective.instance_from_json(
            _load_json_arg(parsed.instance, "instance"))
        self.body = feasible.body_from_json(_load_json_arg(parsed.constraint, "constraint"))
        if parsed.schedule is None:
            self.schedule = self.spec.preset
        else:
            self.schedule = schedule.schedule_from_json(_load_json_arg(parsed.schedule, "schedule"))
            schedule.validate(self.schedule, self.spec)
        for N in self.iters:  # the memoized step table each run reads, and its refusals
            solver.g_series(self.schedule, self.spec, N)

    def certificate(self) -> oracle.OptCertificate | None:
        if self.opt_mode == "sets":
            if self.set_function is None:
                raise InputError("--opt sets needs a coverage or table instance")
            return oracle.set_bruteforce(self.set_function, self.body)
        if self.opt_mode == "grid":
            return oracle.grid_search(self.objective, self.body)
        return None


def _solve_once(exp: _Experiment, N: int, cert: oracle.OptCertificate | None):
    """One solve: its trajectory CSV, its summary record and its gate failures.

    The record and the gate read the same ``run_margins`` call.  An optimum that
    is not positive certifies nothing: ``Ej``, the achieved ratio and the
    potential and guarantee margins stay empty.
    """
    traj = solver.run(exp.objective, exp.body, exp.schedule, exp.spec, N)
    opt = None if cert is None else cert.value
    positive = opt if opt is not None and opt > 0 else None
    margins = checks.run_margins(traj, positive)
    smallest = {name: margin.value for name, margin in margins.items()}
    record = {
        "family": exp.spec.name,
        "N": N,
        "final_value": traj.final_value,
        "opt": opt,
        "ratio_achieved": None if positive is None else traj.final_value / positive,
        "ratio_guaranteed": traj.bound.coefficient,
        "additive_gap": traj.bound.additive,
        "min_potential_increment_margin": smallest.get("potential increment margin"),
        "min_gronwall_margin": smallest.get("headroom margin"),
        "feasible": True,
        "opt_certificate": None if cert is None else cert.to_json(),
    }
    for name, value in record.items():
        if isinstance(value, float) and not np.isfinite(value):
            raise InputError(f"{name} is {value} at N={N}: the run overflows float64")
    return (solver.trajectory_csv(traj, positive), record,
            checks.gate(margins, f"family {exp.spec.name}, N={N}"))


def _report(problems: list[str]) -> int:
    for p in problems:
        print(f"invariant violation: {p}", file=sys.stderr)
    return EXIT_INVARIANT if problems else EXIT_OK


def cmd_run(args) -> int:
    exp = _Experiment(args)
    if len(exp.iters) != 1:
        raise InputError("run takes a single --iters value; use sweep for lists")
    N = exp.iters[0]
    trajectory, summary, problems = _solve_once(exp, N, exp.certificate())

    _make_out_dir(exp.out_dir)
    _atomic_write(exp.out_dir / "trajectory.csv", trajectory)
    text = json.dumps(summary, indent=2)  # one rendering for the file and stdout
    _atomic_write(exp.out_dir / "summary.json", text + "\n")
    print(text)
    return _report(problems)


def cmd_sweep(args) -> int:
    exp = _Experiment(args)
    if len(exp.iters) < 3:
        raise InputError("sweep needs an ascending --iters list with at least 3 entries")
    if any(b <= a for a, b in zip(exp.iters, exp.iters[1:])):
        raise InputError("--iters list must be strictly ascending")
    cert = exp.certificate()

    lines = ["N,achieved,guaranteed,additive"]
    additive = []
    problems = []
    for N in exp.iters:
        trajectory, record, gate = _solve_once(exp, N, cert)
        _make_out_dir(exp.out_dir)  # after a run, so that a refused first run leaves nothing
        _atomic_write(exp.out_dir / f"trajectory_N{N}.csv", trajectory)
        achieved = record["ratio_achieved"]
        lines.append(f"{N},{'' if achieved is None else format(achieved, '.17g')},"
                     f"{record['ratio_guaranteed']:.17g},{record['additive_gap']:.17g}")
        additive.append(record["additive_gap"])
        problems.extend(gate)
    _atomic_write(exp.out_dir / "sweep.csv", "\n".join(lines) + "\n")

    print("\n".join(lines))
    # a zero gap (L*D = 0, or an underflow) has no logarithm, so the slope fits the others
    positive = [(N, gap) for N, gap in zip(exp.iters, additive) if gap > 0]
    zero = [str(N) for N, gap in zip(exp.iters, additive) if gap == 0]
    if len(positive) >= 2:
        Ns, gaps = zip(*positive)
        slope = float(np.polyfit(np.log(Ns), np.log(gaps), 1)[0])
        print(f"additive log-log slope: {slope:.6f}")
    if not positive:
        print("additive gap: 0 at every N")
    elif zero:
        print(f"additive gap: 0 at N={','.join(zero)}")
    return _report(problems)


# --- self-check suite ----------------------------------------------------------------


def cmd_check(args) -> int:
    if args.seed < 0:
        raise InputError(f"--seed must be a nonnegative integer, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    presets = {family: schedule.preset(family) for family in schedule.FAMILIES}
    instances = desk.bundled_instances()
    objectives = [i.objective for i in instances]
    bodies = [i.body for i in instances] + [feasible.PackingBody(
        np.array([[1.0, 1.0], [2.0, 1.0]]), np.array([1.0, 2.0]))]
    optima = [oracle.set_bruteforce(i.set_function, i.body) if i.set_function is not None
              else oracle.grid_search(i.objective, i.body) for i in instances]
    runs = [(i.name, i.objective, i.body, c.value) for i, c in zip(instances, optima)]
    worst = functools.cache(lambda: checks.worst_run_margins(runs))
    # the desk's own objectives, and the table route on the same set functions
    lattice = [(i.objective, i.set_function) for i in instances if i.set_function is not None]
    lattice += [(objective.multilinear_extension(sf), sf)
                for sf in (desk.coverage_two_sets(), desk.coverage_three_sets())]
    ratios = ", ".join(f"{schedule.FAMILIES[f].ratio:.6f}" for f in checks.FAMILIES)

    def run_gate(margin):  # one measurement of all runs serves every run margin
        def measure():
            where, smallest = worst().get(margin, ("", checks.Margin(np.inf, 0)))
            problems = checks.gate({margin: smallest}, where)
            if problems:  # the line names the worst run and its step
                raise InvariantError(problems[0])
            return smallest.value
        return f"min {margin}", measure, -checks.MARGIN_TOL

    # name, PASS detail (default: the first gate's value), gates (quantity, measure, limit);
    # a "min ..." quantity must stay at or above its limit, any other at or below it
    suite = [
        ("schedule-presets", f"preset ratios {ratios}",
         ("max preset ratio error", lambda: checks.max_ratio_error(presets), 1e-12),
         ("max coupling residual", lambda: checks.max_coupling_residual(presets), 1e-10),
         ("max ratio-curve peak error", lambda: max(checks.ratio_curve_peaks()), 1e-12)),
        ("objective-dr", None,
         ("min DR residual", lambda: checks.min_dr_residual(objectives, rng), -1e-9)),
        ("objective-gradient", None,
         ("max gradient mismatch", lambda: checks.max_grad_mismatch(objectives, rng), 1e-5)),
        ("objective-multilinear", None, ("max lattice mismatch",
                                         lambda: checks.max_lattice_mismatch(lattice), 1e-12)),
        ("feasible-lmo", None,
         ("max oracle gap vs enumeration", lambda: checks.max_lmo_gap(bodies, rng), 1e-9)),
        ("feasible-simplex", None,
         ("max simplex gap vs basic solutions", lambda: checks.max_simplex_gap(rng), 1e-9)),
        ("solver-coupling", None, ("max coupling-term excess", checks.max_coupling_excess, 1e-12)),
        ("solver-potential", None, run_gate("potential increment margin")),
        ("solver-headroom", None, run_gate("headroom margin")),
        ("solver-guarantee", None, run_gate("guarantee slack"),
         ("max additive(2N)/additive(N)", checks.max_additive_ratio, 0.6)),
        ("solver-determinism", "two runs render identical CSV",
         ("differing CSV lines", lambda: checks.csv_mismatches(objectives[0], bodies[0]), 0)),
    ]
    failures = 0
    for name, summary, *gates in suite:
        try:
            for what, measure, limit in gates:
                value = measure()
                if not (value >= limit if what.startswith("min") else value <= limit):
                    raise InvariantError(f"{what} {value:.3e} misses its limit {limit:g}")
                summary = summary or f"{what} {value:.3e}"
            print(f"PASS {name}: {summary}")
        except DrsubError as e:
            print(f"FAIL {name}: {e}")
            failures += 1
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


class _Once(argparse.Action):
    """Store a flag's value; a second occurrence is a usage error, not a silent override."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsub", allow_abbrev=False,
        description="Frank-Wolfe solvers for DR-submodular maximization, "
                    "with runtime verification of their guarantees.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, fn, what):
        p = sub.add_parser(name, help=what, allow_abbrev=False)
        p.register("action", None, _Once)  # the default action of every flag
        p.set_defaults(fn=fn)
        return p

    for p in (add_command("run", cmd_run, "solve once; write trajectory.csv and summary.json"),
              add_command("sweep", cmd_sweep, "solve over an N list; write sweep.csv")):
        p.add_argument("--instance", help="instance JSON (inline or path)")
        p.add_argument("--constraint", help="constraint JSON (inline or path)")
        p.add_argument("--family", choices=schedule.FAMILIES,
                       help="solver family / schedule preset")
        p.add_argument("--iters", help="iteration count (run) or comma list (sweep)")
        p.add_argument("--opt", choices=("none", "sets", "grid"), default="none",
                       help="ground-truth oracle for ratio and potential telemetry")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--schedule", help="user schedule JSON (inline or path) "
                                          "replacing the family preset")

    add_command("check", cmd_check, "run the bundled invariant suites").add_argument(
        "--seed", type=int, default=0, help="seed of the randomized checks")
    return parser


#: the parser of every main() call in this process; parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one drsub command; may be called any number of times in one process."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, the code of invariant failures
        if e.code == 0:  # --help
            raise
        return EXIT_INPUT
    # run and sweep report an overflow through their finite checks; check keeps numpy's warnings
    quiet = contextlib.nullcontext() if args.fn is cmd_check else np.errstate(all="ignore")
    try:
        with quiet:
            return args.fn(args)
    except InvariantError as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except DrsubError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
