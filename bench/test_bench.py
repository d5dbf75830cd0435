"""Self-tests of the benchmark harness.

    python3 -m pytest bench/test_bench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_packing_run_passes_its_checks():
    result = run.run_workload("packing", seed=7, seconds=0, trace=False)
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]


def test_perturbed_reference_is_counted_as_failure(monkeypatch):
    exact = reference.frank_wolfe

    def perturbed(*args):
        x, value = exact(*args)
        return x, value * (1.0 + 1e-5)

    monkeypatch.setattr(reference, "frank_wolfe", perturbed)
    result = run.run_workload("packing", seed=7, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] > 0
    assert all("!= reference" in p for p in result["problems"])


class _NoProbes:
    stamps: list = []
    spent: list = []


def test_nested_lmo_is_counted_once_at_the_outer_boundary():
    prog = run.Program()
    body = prog.feasible.PackingBody(np.array([[1.0, 2.0, 0.5]]), np.array([1.5]))
    tracer = Tracer()
    tracer.install()
    try:
        body.lmo(np.array([1.0, 0.5, 0.25]))
    finally:
        tracer.uninstall()
    layers = tracer.summary(_NoProbes(), 1.0)
    assert layers["feasible.lmo.calls"] == 1
    assert layers["feasible.masked_lmo.calls"] == 0
    assert layers["feasible.simplex_solve.calls"] == 1
    assert prog.feasible.PackingBody.lmo.__qualname__ == "PackingBody.lmo"  # unwrapped again


def test_traced_counts_agree_with_the_trajectory():
    prog = run.Program()
    F = prog.objective.make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [1.0, 0.5])
    C = prog.feasible.CardinalityBody(2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        prog.solver.run(F, C, prog.schedule.preset("measured"),
                        prog.solver.family_spec("measured"), 25)
    finally:
        tracer.uninstall()
    layers = tracer.summary(_NoProbes(), 1.0)
    assert layers["solver.steps"] == 25
    assert layers["objective.grad.calls"] == 25
    assert layers["objective.value.calls"] == 26
    assert layers["feasible.masked_lmo.calls"] == 25
    assert layers["solver.counter_mismatch"] == 0
    assert 0.0 <= layers["solver.self_s"] <= layers["solver.run.s"]


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 41))
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail(list(range(19))) == (18, 100.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert make(3) == make(3)
    if name != "selfcheck":
        assert make(3) != make(4)
