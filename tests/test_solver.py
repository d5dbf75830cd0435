import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from drsub import (BoxBody, CardinalityBody, ConfigurationError, DrFunction, InputError,
                   InvariantError, PackingBody, PartitionBody, coupling_residual, family_spec,
                   g_series, guarantee, make_concave_modular, make_quadratic,
                   multilinear_extension, preset, run, set_bruteforce,
                   trajectory_csv, validate)
from drsub import checks, cli, desk
from drsub.errors import ValidationError
from drsub.schedule import FAMILIES as PRESET_FAMILIES, Schedule, checked_steps

COVER3 = desk.coverage_three_sets()
COVER3_F = multilinear_extension(COVER3)
CARD = CardinalityBody(3, 2)
QUAD = desk.quad_two_dim()
#: a monotone quadratic of QUAD's shape (its gradient 1 - x/2 stays positive), for the
#: plain direction, which refuses QUAD
MONO_QUAD = make_quadratic(-0.5 * np.eye(2), [1.0, 1.0])
BOX2 = BoxBody(np.ones(2))

FAMILIES = ("monotone", "measured", "general")

MONOTONE_REFUSAL = r"^the monotone family needs a monotone instance; use measured or general$"


def run_family(family, f=COVER3_F, body=CARD, N=50):
    return run(f, body, preset(family), family_spec(family), N)


def quad_for(family):
    """QUAD, or MONO_QUAD for a family of the plain direction."""
    return MONO_QUAD if family_spec(family).direction == "plain" else QUAD


class TestUpdateRule:
    def test_monotone_single_step_coefficient(self):
        traj = run_family("monotone", N=1)
        assert traj.rho[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        v0 = CARD.lmo(COVER3_F.grad(traj.x[0]))
        assert traj.x[1] == pytest.approx(traj.rho[0] * v0, abs=1e-15)

    @pytest.mark.parametrize("N", [1, 10, 100])
    def test_monotone_modular_over_box_telescopes(self, N):
        # direction is all-ones every step, so x_N = sum(rho_j) * ones with
        # sum(rho_j) = N (1 - e^{-1/N}); at N = 1 this is 1 - 1/e
        w = np.array([1.0, 1.0])
        f = make_quadratic(np.zeros((2, 2)), w)
        traj = run_family("monotone", f=f, body=BOX2, N=N)
        expected = N * (1.0 - math.exp(-1.0 / N))
        assert traj.final_x == pytest.approx(expected * np.ones(2), abs=1e-12)

    def test_general_single_step(self):
        traj = run(QUAD, BOX2, preset("general"), family_spec("general"), 1)
        assert traj.rho[0] == pytest.approx(0.25, abs=1e-15)
        assert traj.x[1] == pytest.approx(0.25 * BOX2.lmo(QUAD.grad(traj.x[0])), abs=1e-15)

    def test_measured_cap_respected(self):
        traj = run_family("measured", N=25)
        for j in range(traj.N):  # the masked vertex is the step over its length
            v = (traj.x[j + 1] - traj.x[j]) / traj.rho[j]
            assert np.all(v <= 1.0 - traj.x[j] + 1e-12)

    @pytest.mark.parametrize("family", PRESET_FAMILIES)
    @pytest.mark.parametrize("N", [1, 2, 7, 1000])
    def test_preset_step_mass_at_most_one(self, family, N):
        f = make_quadratic(np.zeros((2, 2)), np.ones(2))
        traj = run(f, BOX2, preset(family), family_spec(family), N)
        mass = np.max(traj.rho) if family.startswith("general") else np.sum(traj.rho)
        assert mass <= 1.0

    def test_bad_n(self):
        with pytest.raises(InputError):
            run_family("monotone", N=0)

    def test_general_variants_accept_general_spec(self):
        traj = run(QUAD, BOX2, preset("general-exp"), family_spec("general-exp"), 10)
        assert traj.N == 10

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("N", [1, 7, 50, 500])
    def test_feasibility_all_iterates(self, family, N):
        quad = quad_for(family)
        for f, body in ((COVER3_F, CARD), (quad, BOX2), (quad, CardinalityBody(2, 1))):
            traj = run(f, body, preset(family), family_spec(family), N)
            for x in traj.x:
                assert body.contains(x)

    def test_determinism(self):
        t1 = run_family("measured", N=40)
        t2 = run_family("measured", N=40)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.F, t2.F)
        assert trajectory_csv(t1) == trajectory_csv(t2)

    def test_trajectory_arrays_are_read_only(self):
        traj = run_family("measured", N=5)
        with pytest.raises(ValueError):
            traj.x[0, 0] = 1.0
        for name in ("t", "a", "b", "F", "infnorm", "rho", "G", "B_exact", "B_bound",
                     "gronwall_margin"):
            assert not getattr(traj, name).flags.writeable, name

    def test_oracle_counters(self):
        traj = run_family("monotone", N=13)
        assert traj.grad_calls == 13
        assert traj.lmo_calls == 13
        assert traj.value_calls == 14


SMALL_BOX = BoxBody(np.full(3, 0.05))


def leave_the_body(monkeypatch, bad, first_bad=3):
    """Make every BoxBody's lmo and masked_lmo return the vertex ``bad`` from step first_bad on."""
    calls = itertools.count()
    lmo, masked_lmo = BoxBody.lmo, BoxBody.masked_lmo

    def vertex(v):
        return np.asarray(bad, dtype=float) if next(calls) >= first_bad else v

    monkeypatch.setattr(BoxBody, "lmo", lambda self, g, start=None: vertex(lmo(self, g, start)))
    monkeypatch.setattr(BoxBody, "masked_lmo", lambda self, g, cap, start=None:
                        vertex(masked_lmo(self, g, cap, start)))


class TestLeftTheBodyGuard:
    @pytest.mark.parametrize("bad", [np.ones(3), np.full(3, 50.0)], ids=["in-box", "out-of-box"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_bad_iterate_is_named(self, family, bad, monkeypatch):
        # x_4 leaves the body; an x_4 outside the unit box reaches the objective's
        # InputError first, and the run still reports the invariant
        clean = run(COVER3_F, SMALL_BOX, preset(family), family_spec(family), 6)
        x3, rho3 = clean.x[3], clean.rho[3]
        x4 = x3 + rho3 * (bad - x3 if family == "general" else bad)
        expected = f"iterate left the body at step 3: x={x4!r} (family {family})"
        leave_the_body(monkeypatch, bad)
        with pytest.raises(InvariantError, match=re.escape(expected)):
            run(COVER3_F, SMALL_BOX, preset(family), family_spec(family), 6)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nan_vertex_is_an_input_error(self, family, monkeypatch):
        # x_4 is NaN, so the objective refuses it at step 3
        leave_the_body(monkeypatch, np.full(3, np.nan))
        with pytest.raises(InputError, match=rf"^step 3, family {family}: point .* is NaN, "):
            run(COVER3_F, SMALL_BOX, preset(family), family_spec(family), 6)

    @pytest.mark.parametrize("family", ["measured", "general"])
    def test_nan_gradient_names_its_step(self, family):
        # the 4th gradient, at step 3, reaches the LMO, whose argument is named "objective"
        calls = itertools.count()
        f = dataclasses.replace(QUAD, grad_fn=lambda x: (np.array([np.nan, 1.0])
                                                         if next(calls) >= 3 else QUAD.grad(x)))
        with pytest.raises(InputError) as raised:
            run(f, CardinalityBody(2, 1), preset(family), family_spec(family), 10)
        assert str(raised.value) == (f"step 3, family {family}: "
                                     "objective contains NaN or infinity")
        assert isinstance(raised.value.__cause__, InputError)

    def test_cli_names_the_step_of_a_nan_gradient(self, monkeypatch, tmp_path, capsys):
        calls = itertools.count()
        grad = DrFunction.grad
        monkeypatch.setattr(DrFunction, "grad", lambda self, x: (np.array([np.nan, 1.0])
                                                                if next(calls) >= 3
                                                                else grad(self, x)))
        argv = ["run", "--instance", '{"kind": "quadratic", "H": [[-1, 0], [0, -1]], "c": [1, 1]}',
                "--constraint", '{"kind": "cardinality", "n": 2, "k": 1}',
                "--family", "measured", "--iters", "10", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ("error: step 3, family measured: "
                                           "objective contains NaN or infinity\n")

    @pytest.mark.parametrize("bad,code", [(1.0, 2), (50.0, 2), (np.nan, 1)])
    def test_cli_exit_codes(self, bad, code, monkeypatch, tmp_path, capsys):
        leave_the_body(monkeypatch, np.full(3, bad))
        argv = ["run", "--instance", '{"kind": "coverage", "subsets": [[0,1],[1,2],[2,3]]}',
                "--constraint", '{"kind": "box", "upper": [0.05, 0.05, 0.05]}',
                "--family", "measured", "--iters", "6", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == code
        expected = "invariant violation: iterate left the body at step 3" if code == 2 else "error:"
        assert capsys.readouterr().err.startswith(expected)


def run_without_starts(monkeypatch, f, body, family, N):
    """``run`` with every oracle call made as if no start were given."""
    cls = type(body)
    lmo, masked_lmo = cls.lmo, cls.masked_lmo
    with monkeypatch.context() as patch:
        patch.setattr(cls, "lmo", lambda self, g, start=None: lmo(self, g))
        patch.setattr(cls, "masked_lmo", lambda self, g, cap, start=None: masked_lmo(self, g, cap))
        return run(f, body, preset(family), family_spec(family), N)


class TestWarmStartedOracles:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_packing_run_matches_cold_oracles(self, family, rng, monkeypatch, reuses):
        # a 20x30 packing body and concave-modular objective, as the packing benchmark draws
        A = rng.uniform(0.0, 1.0, size=(20, 30))
        body = PackingBody(A, 0.2 * A.sum(axis=1))
        f = make_concave_modular(rng.uniform(0.0, 1.0, size=(8, 30)))
        cold = run_without_starts(monkeypatch, f, body, family, 20)
        traj = run(f, body, preset(family), family_spec(family), 20)
        assert np.max(np.abs(traj.x - cold.x)) <= 1e-12
        assert np.max(np.abs(traj.F - cold.F)) <= 1e-12 * np.max(cold.F)
        assert traj.lmo_calls == cold.lmo_calls == 20
        assert len(reuses) == 19  # every step after the first reused the last LP

    def test_measured_packing_run_repairs_its_starts_and_keeps_its_certificate(
            self, rng, monkeypatch, reuses):
        # each masked call's start breaks the lowered cap 1 - x and is repaired by dual pivots
        A = rng.uniform(0.0, 1.0, size=(20, 30))
        body = PackingBody(A, 0.2 * A.sum(axis=1))
        f = make_concave_modular(rng.uniform(0.0, 1.0, size=(8, 30)))
        cold = run_without_starts(monkeypatch, f, body, "measured", 20)
        traj = run(f, body, preset("measured"), family_spec("measured"), 20)
        assert np.max(np.abs(traj.x - cold.x)) <= 1e-12
        assert np.max(np.abs(traj.F - cold.F)) <= 1e-12
        assert len(reuses) == 19  # every step after the first
        opt = float(np.max(cold.F))  # a lower bound on OPT keeps every margin true
        assert checks.gate(checks.run_margins(traj, opt), "measured") == []
        assert ((traj.value_calls, traj.grad_calls, traj.lmo_calls)
                == (cold.value_calls, cold.grad_calls, cold.lmo_calls) == (21, 20, 20))

    @pytest.mark.parametrize("family", ["monotone", "measured"])
    def test_every_answer_of_a_long_run_stays_within_1e_12_of_cold(self, family, rng,
                                                                   monkeypatch, reuses):
        # 999 LPs in a row reuse one run's tableau, never refactorized: its B^-1 drifts,
        # and one step of refinement per answer keeps the answers on the cold ones
        A = rng.uniform(0.0, 1.0, size=(20, 30))
        body = PackingBody(A, 0.2 * A.sum(axis=1))
        f = make_concave_modular(rng.uniform(0.0, 1.0, size=(8, 30)))
        answers = []
        name = "masked_lmo" if family == "measured" else "lmo"
        oracle = getattr(PackingBody, name)
        monkeypatch.setattr(PackingBody, name,
                            lambda *a: answers.append(oracle(*a)) or answers[-1])
        cold = run_without_starts(monkeypatch, f, body, family, 1000)
        cold_answers = answers[:]
        answers.clear()
        traj = run(f, body, preset(family), family_spec(family), 1000)
        assert len(answers) == len(cold_answers) == 1000
        assert np.max(np.abs(np.array(answers) - cold_answers)) <= 1e-12
        assert np.max(np.abs(traj.x - cold.x)) <= 1e-12
        assert len(reuses) == 999

    @pytest.mark.parametrize("family", ["measured", "general"])
    def test_a_change_of_active_columns_starts_cold_then_reuses_again(self, family, rng,
                                                                      monkeypatch, reuses):
        # a non-monotone quadratic's gradient turns negative on some coordinates as x
        # grows, so the LP's active columns (g_i > 0, cap_i > 0) change during the run
        A = rng.uniform(0.0, 1.0, size=(6, 12))
        body = PackingBody(A, 0.3 * A.sum(axis=1))
        W = rng.uniform(0.0, 1.0, size=(12, 12))
        f = make_quadratic(-(W + W.T) / 2, rng.uniform(0.0, 3.0, size=12))
        assert not f.monotone
        name = "masked_lmo" if family == "measured" else "lmo"
        oracle = getattr(PackingBody, name)
        calls = []

        def watched(self, g, *rest):
            before = len(reuses)
            v = oracle(self, g, *rest)
            cap = rest[0] if name == "masked_lmo" else np.ones(self.n)
            calls.append((np.flatnonzero((g > 0.0) & (cap > 0.0)), v, oracle(self, g, *rest[:-1]),
                          len(reuses) - before))
            return v

        monkeypatch.setattr(PackingBody, name, watched)
        run(f, body, preset(family), family_spec(family), 200)
        assert len(calls) == 200 and all(active.size for active, *_ in calls)
        # True where the LP's columns differ from the last LP's (the first LP has no last)
        new = [True] + [not np.array_equal(a, b) for (a, *_), (b, *_) in zip(calls[1:], calls)]
        for (_, v, cold, reused), fresh in zip(calls, new):
            assert np.max(np.abs(v - cold)) <= 1e-12
            if fresh:  # the first LP over its columns is the cold solve, bit for bit
                assert reused == 0 and v.tobytes() == cold.tobytes()
            else:  # every next LP over the same columns reuses the kept tableau, accepted
                assert reused == 1
        assert sum(new[1:]) >= 2  # the columns change during the run
        assert sum(a and not b for a, b in zip(new[1:], new[2:])) >= 2  # and the next LP reuses

    @pytest.mark.parametrize("body", [BOX2, CardinalityBody(2, 1),
                                      PartitionBody(2, ((0,), (1,)), (1, 1))],
                             ids=lambda b: type(b).__name__)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_box_and_partition_runs_ignore_starts(self, body, family, monkeypatch):
        cold = run_without_starts(monkeypatch, quad_for(family), body, family, 30)
        traj = run(quad_for(family), body, preset(family), family_spec(family), 30)
        assert trajectory_csv(traj, 0.5) == trajectory_csv(cold, 0.5)
        assert (traj.value_calls, traj.grad_calls, traj.lmo_calls) == (31, 30, 30)
        assert (cold.value_calls, cold.grad_calls, cold.lmo_calls) == (31, 30, 30)


class TestScheduleGrid:
    def test_zero_steps_rejected(self):
        s, spec = preset("general"), family_spec("general")
        for call in (lambda: g_series(s, spec, 0), lambda: guarantee(s, spec, 0, 1.0, 1.0),
                     lambda: coupling_residual(s, spec, 0)):
            with pytest.raises(InputError, match="N must be >= 1"):
                call()

    @pytest.mark.parametrize("N", [5.0, True, "5", None])
    def test_non_integer_steps_rejected(self, N):
        s, spec = preset("general"), family_spec("general")
        for call in (lambda: checked_steps(N), lambda: guarantee(s, spec, N, 1.0, 1.0),
                     lambda: run(QUAD, BOX2, s, spec, N)):
            with pytest.raises(InputError, match="N must be an integer"):
                call()

    # L and D are read as Trajectory.potential reads opt, as finite real numbers: an
    # infinite L used to give an infinite additive term, and a string or None a TypeError
    @pytest.mark.parametrize("L, D", [(np.nan, 1.0), (1.0, np.nan), (-1.0, 1.0), (1.0, -1.0),
                                      *(pytest.param(L, D, id=name) for name, L, D in (
                                          ("str-L", "1", 1.0), ("None-D", 1.0, None),
                                          ("inf-L", np.inf, 1.0), ("inf-D", 1.0, np.inf),
                                          ("bool-L", True, 1.0), ("huge-int-D", 1.0, 10 ** 400),
                                          ("array-L", np.ones(1), 1.0)))])
    def test_guarantee_needs_nonnegative_constants(self, L, D):
        with pytest.raises(InputError, match="L and D must be nonnegative"):
            guarantee(preset("general"), family_spec("general"), 5, L, D)

    @pytest.mark.parametrize("L, D", [(2, 1), (np.int64(2), np.float64(1.0))], ids=repr)
    def test_guarantee_accepts_every_real_number(self, L, D):
        s, spec = preset("general"), family_spec("general")
        assert guarantee(s, spec, 5, L, D) == guarantee(s, spec, 5, 2.0, 1.0)

    def test_endpoints_exact_for_irrational_horizon(self):
        s = preset("general-exp")  # T = 2 ln 2
        traj = run(QUAD, BOX2, s, family_spec("general-exp"), 7)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == s.T
        assert np.all(np.diff(traj.t) > 0)


def _table(s, spec, N, L, D, x0):
    """The step table and the run telemetry that depend on it, recomputed from their formulas."""
    t = np.linspace(0.0, s.T, N + 1)
    a, b = np.asarray(s.a(t), dtype=float), np.asarray(s.b(t), dtype=float)
    d = np.asarray(spec.d(a[:-1]), dtype=float)
    G = spec.c(a[:-1]) * np.diff(b) - np.diff(a)
    B_bound = 0.5 * D * L * np.float_power(np.diff(b), 2) * d * d / a[1:]
    coefficient = float((b[-1] - b[0] - np.sum(np.maximum(G, 0.0))) / a[-1])
    start_slack = 1.0 - np.max(np.abs(x0))
    return dict(t=t, a=a, b=b, rho=np.diff(b) / a[1:] * d, G=G, B_bound=B_bound,
                bound=(float(coefficient * start_slack), float(np.sum(B_bound) / a[-1])),
                guarantee=(coefficient, float(np.sum(B_bound) / a[-1])))


def _same_bytes(x, y) -> bool:
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


class TestStepTable:
    """run, guarantee and g_series read one memoized table per (schedule, family, N)."""

    @pytest.mark.parametrize("family", PRESET_FAMILIES)
    @pytest.mark.parametrize("N", [1, 7, 30, 500, 1001])
    def test_run_and_guarantee_match_the_formulas(self, family, N):
        s, spec = preset(family), family_spec(family)
        x0 = np.array([0.25, 0.0]) if spec.direction == "offset" else None
        # two objectives with different L share one table; the second run reads it
        quad = quad_for(family)
        for f in (quad, dataclasses.replace(quad, L=2.5 * quad.L)):
            traj = run(f, BOX2, s, spec, N, x0=x0)
            want = _table(s, spec, N, f.L, BOX2.diameter(), np.zeros(2) if x0 is None else x0)
            for name in ("t", "a", "b", "rho", "G", "B_bound"):
                assert _same_bytes(getattr(traj, name), want[name]), name
            if spec.direction != "plain":
                margins = (1.0 - traj.infnorm) - (1.0 - traj.infnorm[0]) / spec.d(want["a"])
                assert _same_bytes(traj.gronwall_margin, margins)
            assert (traj.bound.coefficient, traj.bound.additive) == want["bound"]
            bound = guarantee(s, spec, N, f.L, BOX2.diameter())
            assert (bound.coefficient, bound.additive) == want["guarantee"]
            assert _same_bytes(g_series(s, spec, N), want["G"])

    def test_tables_are_shared_and_refuse_writes(self):
        s, spec = preset("measured"), family_spec("measured")
        first, second = run_family("measured", N=20), run_family("measured", N=20)
        assert first.rho is second.rho and first.t is second.t
        assert run_family("measured", N=1001).rho is not run_family("measured", N=1001).rho
        for arr in (first.t, first.a, first.b, first.rho, first.G, g_series(s, spec, 20)):
            with pytest.raises(ValueError):
                arr[0] = 1.0
            with pytest.raises(ValueError):  # the memo hands out views of read-only arrays
                arr.flags.writeable = True

    @pytest.mark.parametrize("N", [5.0, np.float64(5.0), True],
                             ids=["float", "numpy-float", "bool"])
    def test_steps_are_checked_before_the_memo_is_read(self, N):
        s, spec = preset("general"), family_spec("general")
        g_series(s, spec, int(N))  # memoizes the table of the equal integer
        for call in (lambda: g_series(s, spec, N), lambda: guarantee(s, spec, N, 1.0, 1.0),
                     lambda: run(QUAD, BOX2, s, spec, N)):
            with pytest.raises(InputError, match="N must be an integer"):
                call()

    @pytest.mark.parametrize("N", [1, 30, 1001])
    def test_a_too_long_step_is_refused_on_every_call(self, N):
        s, spec = Schedule(1.0, np.exp, lambda t: 3.0 * np.exp(t)), family_spec("monotone")
        for call in [lambda: run(MONO_QUAD, BOX2, s, spec, N),
                     lambda: guarantee(s, spec, N, 1.0, 1.0), lambda: g_series(s, spec, N)] * 2:
            with pytest.raises(ValidationError, match=rf"sum rho_j = .* exceeds 1 at N={N}$"):
                call()

    def test_a_backward_step_is_refused_as_the_schedule_defect_it_is(self):
        # b = e^t - 0.6 sin(pi t) falls at first: the first step used to take x_1 out of
        # the body, reported as an internal-contract failure (InvariantError)
        s = Schedule(1.0, np.exp, lambda t: np.exp(t) - 0.6 * np.sin(np.pi * np.asarray(t)))
        with pytest.raises(ValidationError,
                           match=r"^schedule steps run backwards: rho_0 = -0\.0726035 at N=10$"):
            run(COVER3_F, CARD, s, family_spec("monotone"), 10)

    @pytest.mark.parametrize("N,j,rho", [(10_000, 4999, "-1.43624e-11"),
                                         (100_000, 49999, "-1.50232e-12")])
    def test_a_dip_between_validation_nodes_is_refused_on_a_run_grid(self, N, j, rho):
        # b' = 3 (t - 1/2)^2 - 2.25e-7 is negative only within 2.8e-4 of t = 1/2, closer than
        # any of validate's 1000 nodes comes, so validate passes b; a fine run grid reads the dip
        b = np.polynomial.Polynomial([0, 0.7499997745493241, -1.5, 1])
        s = Schedule(1.0, lambda t: (1.0 + np.asarray(t, dtype=float)) ** 2,
                     lambda t: b(np.asarray(t, dtype=float)))
        spec = family_spec("general")
        validate(s, spec)
        for call in [lambda: run(QUAD, BOX2, s, spec, N),
                     lambda: guarantee(s, spec, N, 1.0, 1.0), lambda: g_series(s, spec, N)]:
            with pytest.raises(ValidationError,
                               match=rf"^schedule steps run backwards: rho_{j} = {rho} at N={N}$"):
                call()

    def test_an_unhashable_schedule_still_runs(self):
        s = Schedule(1.0, np.polynomial.Polynomial([1.0, 2.0, 1.0]), lambda t: t)
        spec = family_spec("general")
        with pytest.raises(TypeError):
            hash(s)
        first, second = run(QUAD, BOX2, s, spec, 30), run(QUAD, BOX2, s, spec, 30)
        assert first.rho is not second.rho
        assert _same_bytes(first.x, second.x)
        want = _table(s, spec, 30, QUAD.L, BOX2.diameter(), np.zeros(2))
        for name in ("t", "a", "b", "rho", "G", "B_bound"):
            assert _same_bytes(getattr(first, name), want[name]), name
        assert guarantee(s, spec, 30, QUAD.L, BOX2.diameter()) == first.bound


class TestGTerms:
    def test_monotone_exactly_zero(self):
        for N in (1, 10, 100, 1000):
            G = g_series(preset("monotone"), family_spec("monotone"), N)
            assert np.max(np.abs(G)) <= 1e-12

    def test_measured_closed_form(self):
        s, spec = preset("measured"), family_spec("measured")
        assert g_series(s, spec, 1)[0] == pytest.approx(2.0 - math.e, abs=1e-15)
        for N in (3, 20, 200):
            t = np.linspace(0.0, 1.0, N + 1)
            closed = np.exp(t[:-1]) * (1.0 + np.diff(t) - np.exp(np.diff(t)))
            assert g_series(s, spec, N) == pytest.approx(closed, abs=1e-12)
            assert np.max(g_series(s, spec, N)) <= 1e-12

    def test_general_closed_form(self):
        s, spec = preset("general"), family_spec("general")
        assert g_series(s, spec, 1)[0] == pytest.approx(-1.0, abs=1e-15)
        for N in (3, 20, 200):
            t = np.linspace(0.0, 1.0, N + 1)
            closed = -np.diff(np.sqrt((1.0 + t) ** 2)) ** 2
            assert g_series(s, spec, N) == pytest.approx(closed, abs=1e-12)
            assert np.max(g_series(s, spec, N)) <= 1e-12


class TestBTerms:
    def test_zero_smoothness(self):
        traj = run_family("monotone", f=dataclasses.replace(COVER3_F, L=0.0), N=4)
        assert np.all(traj.B_exact == 0.0)
        assert np.all(traj.B_bound == 0.0)

    def test_zero_step(self):
        # the gradient vanishes everywhere, so every oracle vertex is 0; L = 1 is a true
        # bound on the zero quadratic, whose own L is 0
        f = dataclasses.replace(make_quadratic(np.zeros((2, 2)), np.zeros(2)), L=1.0)
        traj = run_family("monotone", f=f, body=BOX2, N=4)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.B_exact == 0.0)
        assert np.all(traj.B_bound > 0.0)

    def test_monotone_single_step_bound(self):
        traj = run_family("monotone", f=dataclasses.replace(MONO_QUAD, L=1.0), body=BOX2, N=1)
        assert BOX2.diameter() == 2.0
        assert traj.B_bound[0] == pytest.approx((math.e - 1.0) ** 2 / math.e, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_below_bound_along_runs(self, family):
        traj = run_family(family, N=60)
        assert np.all(traj.B_exact <= traj.B_bound + 1e-12)


class TestPotential:
    def test_rejects_nonpositive_opt(self):
        traj = run_family("monotone", N=5)
        with pytest.raises(InputError):
            traj.potential(0.0)

    @pytest.mark.parametrize("opt", [np.nan, np.inf, -np.inf, "1", 10 ** 400, True, None, -1],
                             ids=repr)
    def test_refuses_every_opt_but_a_finite_positive_real(self, opt):
        traj = run_family("monotone", N=5)
        for render in (traj.potential, lambda o: trajectory_csv(traj, o)):
            if opt is None and render is not traj.potential:
                continue  # trajectory_csv leaves Ej empty without opt
            with pytest.raises(InputError, match="^opt must be a finite positive real number"):
                render(opt)

    @pytest.mark.parametrize("opt", [2, 2.0, np.float64(2.0), np.int64(2)], ids=repr)
    def test_accepts_finite_positive_reals(self, opt):
        traj = run_family("monotone", N=5)
        assert np.array_equal(traj.potential(opt), traj.a * traj.F - traj.b * 2.0)

    def test_run_margins_keep_nan_margins_for_a_nan_opt(self):
        # the certificate check reads the potential itself, so a NaN optimum still
        # reaches the gate as NaN margins, which it fails
        traj = run_family("measured", N=5)
        margins = checks.run_margins(traj, np.nan)
        assert math.isnan(margins["potential increment margin"].value)
        assert math.isnan(margins["guarantee slack"].value)
        assert len(checks.gate(margins, "measured")) == 2

    def test_modular_increments_nonnegative(self):
        w = np.array([1.0, 1.0])
        f = make_quadratic(np.zeros((2, 2)), w)
        traj = run_family("monotone", f=f, body=BOX2, N=10)
        assert np.all(np.diff(traj.potential(2.0)) >= -1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("N", [10, 100])
    def test_increment_margins_on_coverage(self, family, N):
        opt = set_bruteforce(COVER3, CARD).value
        traj = run_family(family, N=N)
        assert checks.run_margins(traj, opt)["potential increment margin"].value >= -1e-9

    def test_underestimated_opt_is_safe(self):
        opt = set_bruteforce(COVER3, CARD).value
        traj = run_family("measured", N=30)
        full = checks.run_margins(traj, opt)["potential increment margin"].value
        under = checks.run_margins(traj, 0.5 * opt)["potential increment margin"].value
        assert under >= full - 1e-12


class TestGronwall:
    def test_a_monotone_run_keeps_no_headroom(self):
        # the plain direction needs no headroom below the box ceiling, so there is no margin
        traj = run_family("monotone", N=5)
        assert traj.gronwall_margin is None and traj.min_gronwall_margin is None

    def test_margin_zero_at_start(self):
        for family in ("measured", "general"):
            traj = run_family(family, N=5)
            assert traj.gronwall_margin[0] == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("family", ["measured", "general"])
    @pytest.mark.parametrize("N", [1, 50, 500])
    def test_margins_nonnegative(self, family, N):
        for f, body in ((COVER3_F, CARD), (QUAD, BOX2), (QUAD, CardinalityBody(2, 1))):
            traj = run(f, body, preset(family), family_spec(family), N)
            assert traj.min_gronwall_margin >= -1e-9

    def test_measured_margin_formula(self):
        traj = run_family("measured", N=20)
        expected = (1.0 - traj.infnorm) - np.exp(-traj.t)
        assert traj.gronwall_margin == pytest.approx(expected, abs=1e-12)

    def test_general_margin_formula(self):
        traj = run_family("general", N=20)
        expected = (1.0 - traj.infnorm) - 1.0 / (1.0 + traj.t)
        assert traj.gronwall_margin == pytest.approx(expected, abs=1e-12)


class TestGuarantee:
    @pytest.mark.parametrize("family,coeff", [("monotone", 1.0 - 1.0 / math.e),
                                              ("measured", 1.0 / math.e),
                                              ("general", 0.25)])
    def test_coefficient_matches_ratio(self, family, coeff):
        for N in (1, 10, 100):
            bound = guarantee(preset(family), family_spec(family), N, 1.0, 1.0)
            assert bound.coefficient == pytest.approx(coeff, abs=1e-12)

    def test_additive_halving(self):
        for family in FAMILIES:
            s, spec = preset(family), family_spec(family)
            for N in (8, 16, 32, 64, 128):
                a1 = guarantee(s, spec, N, 2.0, 3.0).additive
                a2 = guarantee(s, spec, 2 * N, 2.0, 3.0).additive
                assert a2 <= 0.6 * a1

    def test_general_additive_explicit_bound(self):
        # (delta b)^2 a_j / a_{j+1} <= 1/N^2 termwise gives additive <= DL/(8N)
        for N in (1, 4, 64):
            bound = guarantee(preset("general"), family_spec("general"), N, 1.0, 1.0)
            assert bound.additive <= 1.0 / (8.0 * N) + 1e-15

    def test_additive_equals_summed_step_bounds(self):
        traj = run_family("measured", N=33)
        bound = guarantee(preset("measured"), family_spec("measured"), 33,
                          COVER3_F.L, CARD.diameter())
        assert bound.additive == pytest.approx(float(np.sum(traj.B_bound)) / traj.a[-1],
                                               rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_final_value_dominates_bound(self, family):
        opt = set_bruteforce(COVER3, CARD).value
        for N in (1, 7, 50, 500):
            traj = run_family(family, N=N)
            bound = guarantee(preset(family), family_spec(family), N,
                              COVER3_F.L, CARD.diameter())
            assert traj.final_value >= bound.coefficient * opt - bound.additive - 1e-9

    @pytest.mark.parametrize("family", FAMILIES)
    def test_final_value_dominates_bound_on_all_desk_instances(self, family):
        from drsub.oracle import grid_search
        for inst in desk.bundled_instances():
            if family == "monotone" and not inst.objective.monotone:
                continue
            if inst.set_function is not None:
                opt = set_bruteforce(inst.set_function, inst.body).value
            else:
                opt = grid_search(inst.objective, inst.body).value
            for N in (1, 7, 50):
                traj = run(inst.objective, inst.body, preset(family),
                           family_spec(family), N)
                bound = guarantee(preset(family), family_spec(family), N,
                                  inst.objective.L, inst.body.diameter())
                assert traj.final_value >= bound.coefficient * opt - bound.additive - 1e-9

    @pytest.mark.parametrize("family", PRESET_FAMILIES)
    def test_run_carries_the_a_priori_bound(self, family):
        # the plain direction's bound holds only for a monotone objective, which it refuses
        s, spec = preset(family), family_spec(family)
        for inst in desk.bundled_instances():
            for N in (1, 7, 200):
                if spec.direction == "plain" and not inst.objective.monotone:
                    with pytest.raises(ConfigurationError, match=MONOTONE_REFUSAL):
                        run(inst.objective, inst.body, s, spec, N)
                    continue
                traj = run(inst.objective, inst.body, s, spec, N)
                assert traj.bound == guarantee(s, spec, N, inst.objective.L,
                                               inst.body.diameter())


class TestMonotonePremise:
    """The plain direction's guarantee needs a monotone objective, and run refuses any other."""

    # the monotone family ends at 0.8986 here at N = 1,000, below the 0.9466 that its
    # bound would promise (OPT 1.5, at (0, 1))
    OFF_DIAGONAL = make_quadratic([[0.0, -2.5], [-2.5, 0.0]], [1.0, 1.5])

    @pytest.mark.parametrize("f", [OFF_DIAGONAL, QUAD], ids=["off-diagonal", "desk-quad2"])
    def test_refused_before_the_first_oracle_call(self, f):
        def untouched(X):
            raise AssertionError("an oracle was called")

        assert not f.monotone
        silent = dataclasses.replace(f, values_fn=untouched, grad_fn=untouched)
        with pytest.raises(ConfigurationError, match=MONOTONE_REFUSAL):
            run(silent, BOX2, preset("monotone"), family_spec("monotone"), 1000)
        for family in ("measured", "general"):  # the other rules need no monotone f
            assert run(f, BOX2, preset(family), family_spec(family), 10).N == 10


class TestRunMargins:
    def test_keys_follow_the_rule_and_the_optimum(self):
        opt = set_bruteforce(COVER3, CARD).value
        assert list(checks.run_margins(run_family("monotone"), None)) == []
        assert list(checks.run_margins(run_family("measured"), 0.0)) == ["headroom margin"]
        assert list(checks.run_margins(run_family("general"), opt)) == [
            "potential increment margin", "headroom margin", "guarantee slack"]
        assert list(checks.run_margins(run_family("monotone"), opt)) == [
            "potential increment margin", "guarantee slack"]
        unknown = checks.run_margins(run_family("monotone"), math.nan)
        assert len(unknown) == 2 and all(math.isnan(v) for v, _ in unknown.values())

    def test_worst_keeps_a_nan_margin(self):
        # a NaN value oracle makes every potential and guarantee margin of its runs NaN
        nan_values = dataclasses.replace(QUAD, values_fn=lambda X: np.full(len(X), np.nan))
        worst = checks.worst_run_margins([("quad", QUAD, BOX2, 0.8125),
                                          ("nan", nan_values, BOX2, 0.8125)])
        assert math.isnan(worst["potential increment margin"][1].value)
        assert math.isnan(worst["guarantee slack"][1].value)
        assert worst["headroom margin"][1].value >= -1e-9
        # the first NaN met is kept: the first family of the NaN instance at its smallest N
        assert worst["potential increment margin"][0] == "instance nan, family measured, N=1"


def run_from(x0, family="general", body=BOX2, N=10):
    return run(QUAD, body, preset(family), family_spec(family), N, x0)


class TestArbitraryStart:
    def test_zero_start_matches_run(self):
        direct = run(QUAD, BOX2, preset("general"), family_spec("general"), 20)
        via = run_from(np.zeros(2), N=20)
        assert np.array_equal(direct.x, via.x)

    def test_only_general_family(self):
        with pytest.raises(ConfigurationError):
            run_from(np.zeros(2), family="measured")

    def test_infeasible_start(self):
        with pytest.raises(InputError):
            run_from(np.array([1.0, 1.0]), body=CardinalityBody(2, 1))

    def test_list_start_matches_array_start(self):
        assert np.array_equal(run_from([0.5, 0.25]).x, run_from(np.array([0.5, 0.25])).x)

    @pytest.mark.parametrize("x0", [np.zeros(3), np.zeros((1, 2)), [0.5]])
    def test_wrong_shape_start(self, x0):
        with pytest.raises(InputError, match=r"^start point must have shape \(2,\), got shape"):
            run_from(x0)

    def test_saturated_start_still_runs(self):
        traj = run_from(np.array([1.0, 0.0]))
        assert traj.N == 10
        assert traj.bound.coefficient == 0.0

    def test_half_start_margins_and_guarantee(self):
        x0 = np.array([0.5, 0.5])
        traj = run_from(x0, N=200)
        assert traj.min_gronwall_margin >= -1e-9
        bound = traj.bound
        assert bound.coefficient == pytest.approx(0.125, abs=1e-12)
        opt = 0.8125  # box maximum of the bundled quadratic, at (0.5, 0.25)
        assert traj.final_value >= bound.coefficient * opt - bound.additive - 1e-9


class TestCsv:
    def test_header_and_shape(self):
        traj = run_family("measured", N=4)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "j,t,F,infnorm,rho,Gj,Bj_exact,Bj_bound,gronwall_margin,Ej"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert last[4] == "" and last[5] == ""  # no step quantities at j = N
        assert all(row.split(",")[9] == "" for row in lines[1:])  # no OPT supplied

    def test_potential_column(self):
        traj = run_family("monotone", N=3)
        text = trajectory_csv(traj, 4.0)
        first = text.strip().split("\n")[1].split(",")
        assert first[9] == format(traj.potential(4.0)[0], ".17g")

    def test_monotone_has_empty_margin_column(self):
        text = trajectory_csv(run_family("monotone", N=3))
        assert all(row.split(",")[8] == "" for row in text.strip().split("\n")[1:])

    def test_seventeen_significant_digits(self):
        traj = run_family("general", f=QUAD, body=BOX2, N=2)
        row = trajectory_csv(traj).strip().split("\n")[2].split(",")
        assert row[2] == format(traj.F[1], ".17g")

    @pytest.mark.parametrize("N", [1, 7, 50])
    @pytest.mark.parametrize("family", list(PRESET_FAMILIES))
    def test_columns_match_per_field_formatting(self, family, N):
        traj = run_family(family, N=N)
        opt = set_bruteforce(COVER3, CARD).value
        for given in (None, opt):
            E = None if given is None else traj.potential(given)
            steps = (traj.rho, traj.G, traj.B_exact, traj.B_bound)
            rows = ["j,t,F,infnorm,rho,Gj,Bj_exact,Bj_bound,gronwall_margin,Ej"]
            for j in range(N + 1):
                fields = [traj.t[j], traj.F[j], traj.infnorm[j],
                          *(None if j == N else s[j] for s in steps),
                          None if traj.gronwall_margin is None else traj.gronwall_margin[j],
                          None if E is None else E[j]]
                rows.append(",".join([str(j)] + ["" if x is None else format(float(x), ".17g")
                                                 for x in fields]))
            assert trajectory_csv(traj, given) == "\n".join(rows) + "\n"
