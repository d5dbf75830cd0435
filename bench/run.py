#!/usr/bin/env python3
"""Closed-loop benchmark of drsub, one workload per process.

    python3 bench/run.py --workload multilinear --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

drsub is treated as a batch tool: one job at a time, each job starting only
after the previous one finished.  A run imports drsub from ``src/`` of the
checkout, builds the workload's inputs (``setup_s``, median of several
set-ups), warms up on one job per job class, then repeats whole passes over
the seeded job list until ``--seconds`` have elapsed.  Every job is checked
against the reference model (checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``,
untraced and traced passes alternate and the per-layer metrics of the
traced passes are reported (tracing.py).  Details land in ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One job at a time, one thread: pin the BLAS/OpenMP pools before numpy
# loads.  numpy and the benchmark modules that use it are therefore
# imported inside the functions below, never at module level.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

#: untraced passes per run at least, however long they take: certify's tail
#: class (four n=5 grid jobs per pass) needs three passes to fill the ten
#: samples beyond job_s_tail
MIN_PASSES = 3

#: printed and recorded, but not bounded metrics: zero or undefined on some workloads
REPORTED = {"failed_ratio": "ratio", "opt_slack_rel_max": "ratio", "additive_rel_max": "ratio"}

#: design claims the traced run confirms: (workload, numerator metrics, denominator)
DOMINANCE = {
    "multilinear": (("objective.grad.s",), "solver.run.s"),
    "packing": (("feasible.lmo.s", "feasible.masked_lmo.s"), "solver.run.s"),
    "certify": (("oracle.grid_search.s", "oracle.set_bruteforce.s"), "trace.wall_s"),
}


class Program:
    """The drsub modules of one set-up, plus the workload's prebuilt objects."""

    MODULES = ("cli", "desk", "feasible", "objective", "oracle", "schedule", "solver")

    def __init__(self):
        for key in [k for k in sys.modules if k == "drsub" or k.startswith("drsub.")]:
            del sys.modules[key]
        importlib.import_module("drsub")
        for mod in self.MODULES:
            setattr(self, mod, importlib.import_module(f"drsub.{mod}"))
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"drsub imported from {self.cli.__file__}, not from {SRC}")

    def build(self, wl) -> None:
        """Build every instance, body and schedule the in-process jobs use."""
        used = [j for j in wl.jobs if j.kind == "solve"]
        self.instances = {i: self.objective.instance_from_json(wl.instances[i])[0]
                          for i in sorted({j.instance for j in used})}
        self.bodies = {i: self.feasible.body_from_json(wl.bodies[i])
                       for i in sorted({j.body for j in used})}
        self.schedules = {f: (self.schedule.preset(f), self.solver.family_spec(f))
                          for f in sorted({j.family for j in used})}


def set_up(wl, clock, tracer=None) -> tuple[Program, float]:
    """Import drsub afresh and build the workload's objects.

    Returns the program and the calibrated set-up time (import plus build;
    installing the tracer is not counted).
    """
    t0 = time.perf_counter()
    prog = Program()
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        t2 = time.perf_counter()
        prog.build(wl)
        t3 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return prog, clock.calibrate(t0, t1)[0] + clock.calibrate(t2, t3)[0]


class StepLog:
    """Pass-through on solver.run that keeps each run's N and clock marks.

    Two clock reads per call, against solver.run calls of a millisecond or
    more, so it stays installed in untraced passes too (fw_steps_per_s).
    """

    def __init__(self, prog: Program):
        self.entries: list[tuple[int, float, float]] = []
        original = prog.solver.run

        def run(*args, **kwargs):
            start = time.perf_counter()
            traj = original(*args, **kwargs)
            self.entries.append((traj.N, start, time.perf_counter()))
            return traj

        prog.solver.run = run


def run_job(prog: Program, job, out_dir: Path) -> dict:
    if job.kind == "solve":
        F = prog.instances[job.instance]
        C = prog.bodies[job.body]
        s, spec = prog.schedules[job.family]
        traj = prog.solver.run(F, C, s, spec, job.N)
        bound = prog.solver.guarantee(s, spec, job.N, F.L, C.diameter())
        return {"traj": traj, "bound": bound}
    argv = list(job.argv) + (["--out", str(out_dir)] if job.argv[0] in ("run", "sweep") else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = prog.cli.main(argv)
        except SystemExit as e:  # argparse rejects bad flags by exiting
            rc = e.code
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out_dir}


class Runner:
    """Closed loop over one workload's jobs, with checks after every pass."""

    def __init__(self, wl, prog: Program, seconds: float, workdir: Path, metronome):
        import checks
        self.checks = checks
        self.metronome = metronome
        self.wl = wl
        self.prog = prog
        self.seconds = seconds
        self.workdir = workdir
        self.refs = checks.References(wl)
        self.steps = StepLog(prog)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.slack_ratios: list[float] = []
        self.additive_ratios: list[float] = []
        self.passes: dict[bool, list[dict]] = {False: [], True: []}
        self.last_spans: dict | None = None

    def _run_jobs(self, indices, tracer=None) -> dict:
        """Run jobs back to back, then check them; returns the pass record."""
        gc.collect()
        clock = self.metronome
        self.steps.entries = []
        outputs, marks = [], []
        if tracer is not None:
            tracer.clear()
            tracer.install()
        try:
            for i in indices:
                if tracer is not None:
                    tracer.job = i
                t0 = time.perf_counter()
                try:
                    out = run_job(self.prog, self.wl.jobs[i], self.workdir / f"j{i}")
                except Exception as e:  # a raising job is a failed job; keep measuring
                    out = {"error": f"{type(e).__name__}: {e}"}
                marks.append((t0, time.perf_counter()))
                outputs.append(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times, raw = zip(*(clock.calibrate(a, b) for a, b in marks))
        record = {"times": list(times), "wall": sum(times), "raw_times": list(raw),
                  "steps": sum(n for n, _, _ in self.steps.entries),
                  "run_s": sum(clock.calibrate(a, b)[0] for _, a, b in self.steps.entries)}
        if tracer is not None:
            record["layers"] = tracer.summary(clock, record["wall"] / sum(raw))
            self.last_spans = {"names": tracer.names, **tracer.spans()}
        for i, out in zip(indices, outputs):
            self._check(i, out)
        shutil.rmtree(self.workdir, ignore_errors=True)
        return record

    def _check(self, i: int, out: dict) -> None:
        job = self.wl.jobs[i]
        self.attempted += 1
        try:
            body = None if job.body is None else self.wl.bodies[job.body]
            found = self.checks.check(job, out, self.refs.get(i), body)
            slack, additive = self.checks.quality_ratios(job, out)
        except Exception as e:  # missing or malformed outputs
            found, slack, additive = [f"outputs unreadable: {type(e).__name__}: {e}"], None, None
        if found:
            self.failed += 1
            self.problems += [f"job {i} ({job.cls}, {job.family}): {p}" for p in found]
        if slack is not None:
            self.slack_ratios.append(slack)
        if additive is not None:
            self.additive_ratios.append(additive)

    def warm_up(self) -> None:
        """One job of each class, untimed: first calls run slower."""
        first: dict[str, int] = {}
        for i, job in enumerate(self.wl.jobs):
            first.setdefault(job.cls, i)
        self._run_jobs(sorted(first.values()))

    def measure(self, tracer=None) -> None:
        """Whole passes until the time is up; traced runs alternate the two kinds."""
        everything = range(len(self.wl.jobs))
        start = time.perf_counter()
        while True:
            self.passes[False].append(self._run_jobs(everything))
            if tracer is not None:
                self.passes[True].append(self._run_jobs(everything, tracer))
            if (len(self.passes[False]) >= MIN_PASSES
                    and time.perf_counter() - start >= self.seconds):
                break


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that percentile.

    With n samples that is the (n-10)-th smallest, percentile 100*(n-10)/n.
    Below 20 samples that percentile would not exceed the median, so the
    maximum is reported instead (selfcheck runs hold a handful of jobs).
    """
    xs = sorted(times)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(runner: Runner, setup_times: list[float]) -> tuple[dict, dict]:
    passes = runner.passes[False]
    times = [t for p in passes for t in p["times"]]
    tail_s, tail_pct = tail(times)
    run_s = sum(p["run_s"] for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "fw_steps_per_s": sum(p["steps"] for p in passes) / run_s if run_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"job_s_tail_percentile": tail_pct, "job_samples": len(times),
            "passes": len(passes), "jobs_per_pass": len(runner.wl.jobs)}
    return metrics, info


def per_layer(runner: Runner, setup_layers: dict) -> dict:
    """Mean per traced pass; objective.build also counts the traced set-up."""
    traced = runner.passes[True]
    layers = {k: statistics.fmean(p["layers"][k] for p in traced) for k in traced[0]["layers"]}
    for key in ("objective.build.calls", "objective.build.s"):
        layers[key] += setup_layers[key]
    layers["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
    untraced = statistics.median(p["wall"] for p in runner.passes[False])
    layers["trace_overhead_ratio"] = layers["trace.wall_s"] / untraced - 1.0
    layers["opt_slack_rel_max"] = max(runner.slack_ratios, default=0.0)
    layers["additive_rel_max"] = max(runner.additive_ratios, default=0.0)
    return layers


def dominance(name: str, layers: dict) -> dict | None:
    if name not in DOMINANCE:
        return None
    parts, whole = DOMINANCE[name]
    share = sum(layers[p] for p in parts) / layers[whole] if layers[whole] else 0.0
    return {"parts": list(parts), "of": whole, "share": share, "majority": share > 0.5}


def environment() -> dict:
    import numpy
    env = {"git_sha": _git_sha(), "python": platform.python_version(),
           "numpy": numpy.__version__, "nproc": os.cpu_count(),
           "threads_pinned": os.environ["OMP_NUM_THREADS"]}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            if level in ("2", "3"):
                env[f"L{level}"] = (idx / "size").read_text().strip()
    return env


def _git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure and check one workload; returns the full result."""
    import numpy as np

    import workloads
    from metronome import Metronome
    from tracing import Tracer

    wl = workloads.WORKLOADS[name](seed)
    clock = Metronome()
    with clock:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            prog, dt = set_up(wl, clock)
            setup_times.append(dt)
        setup_layers = None
        if trace:  # one more set-up under the tracer, for objective.build
            tracer = Tracer()
            prog, _ = set_up(wl, clock, tracer)
            setup_layers = tracer.summary(clock, 1.0)
        runner = Runner(wl, prog, seconds, OUT / f"jobs-{name}-{os.getpid()}", clock)
        try:
            runner.warm_up()
            runner.measure(Tracer() if trace else None)
        finally:
            shutil.rmtree(runner.workdir, ignore_errors=True)

    metrics, info = end_to_end(runner, setup_times)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), **info,
        "attempted": runner.attempted, "failed": runner.failed,
        "end_to_end": metrics,
        "reported": {"failed_ratio": runner.failed / runner.attempted,
                     "opt_slack_rel_max": max(runner.slack_ratios, default=None),
                     "additive_rel_max": max(runner.additive_ratios, default=None)},
        "problems": runner.problems[:50],
        "untraced_passes": [{"times": p["times"], "raw_times": p["raw_times"]}
                            for p in runner.passes[False]],
        "probe_rate_quartiles": statistics.quantiles(clock.rates, n=4),
    }
    OUT.mkdir(exist_ok=True)
    if trace:
        result["per_layer"] = per_layer(runner, setup_layers)
        result["dominance"] = dominance(name, result["per_layer"])
        spans = runner.last_spans
        np.savez_compressed(OUT / f"spans-{name}-seed{seed}.npz",
                            names=np.array(spans.pop("names")), **spans)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict, units: dict) -> None:
    """Human-readable lines: every metric by name, with its unit."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['jobs_per_pass']} jobs/pass x {result['passes']} untraced passes, "
          f"attempted {result['attempted']}, failed {result['failed']}")
    rows = dict(result["end_to_end"])
    rows.update(result["reported"])
    if result["trace"]:
        rows.update(result["per_layer"])
    for key, value in rows.items():
        unit = units.get(key, "")
        shown = "n/a (no such outputs in this workload)" if value is None else f"{value:.6g} {unit}"
        extra = ""
        if key == "job_s_tail":
            extra = f"  (p{result['job_s_tail_percentile']:.1f} of {result['job_samples']} jobs)"
        print(f"  {key:34s} {shown}{extra}")
    if result.get("dominance"):
        d = result["dominance"]
        print(f"  design check: {' + '.join(d['parts'])} = {d['share']:.1%} of {d['of']} "
              f"({'majority' if d['majority'] else 'NOT a majority'})")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drsub" / "__init__.py").is_file():
        print(f"error: no drsub sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result, {**units, **REPORTED})
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result[key][m["name"]], "unit": m["unit"]}
                    for m in spec[key]},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
