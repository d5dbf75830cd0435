import dataclasses
import math

import numpy as np
import pytest

from drsub import (BoxBody, CardinalityBody, ConfigurationError,
                   InputError, arbitrary_start_run, coupling_residual, family_spec, g_series,
                   guarantee, make_quadratic,
                   multilinear_extension, potential_series, preset, run,
                   set_bruteforce, trajectory_csv)
from drsub import desk
from drsub.schedule import PRESET_FAMILIES

COVER3 = desk.coverage_three_sets()
COVER3_F = multilinear_extension(COVER3)
CARD = CardinalityBody(3, 2)
QUAD = desk.quad_two_dim()
BOX2 = BoxBody(np.ones(2))

FAMILIES = ("monotone", "measured", "general")


def run_family(family, f=COVER3_F, body=CARD, N=50):
    return run(f, body, preset(family), family_spec(family), N)


class TestUpdateRule:
    def test_monotone_single_step_coefficient(self):
        traj = run_family("monotone", N=1)
        assert traj.rho[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert traj.x[1] == pytest.approx(traj.rho[0] * traj.v[0], abs=1e-15)

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
        assert traj.x[1] == pytest.approx(0.25 * traj.v[0], abs=1e-15)

    def test_measured_cap_respected(self):
        traj = run_family("measured", N=25)
        for j in range(traj.N):
            assert np.all(traj.v[j] <= 1.0 - traj.x[j] + 1e-12)

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

    def test_family_schedule_mismatch(self):
        with pytest.raises(ConfigurationError):
            run(COVER3_F, CARD, preset("monotone"), family_spec("measured"), 5)

    def test_general_variants_accept_general_spec(self):
        traj = run(QUAD, BOX2, preset("general-exp"), family_spec("general-exp"), 10)
        assert traj.N == 10

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("N", [1, 7, 50, 500])
    def test_feasibility_all_iterates(self, family, N):
        for f, body in ((COVER3_F, CARD), (QUAD, BOX2), (QUAD, CardinalityBody(2, 1))):
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
        for name in ("t", "a", "b", "F", "infnorm", "v", "rho", "G", "B_exact", "B_bound",
                     "gronwall_margin"):
            assert not getattr(traj, name).flags.writeable, name

    def test_oracle_counters(self):
        traj = run_family("monotone", N=13)
        assert traj.grad_calls == 13
        assert traj.lmo_calls == 13
        assert traj.value_calls == 14
        assert traj.wall_seconds >= 0.0


class TestScheduleGrid:
    def test_zero_steps_rejected(self):
        s, spec = preset("general"), family_spec("general")
        for call in (lambda: g_series(s, spec, 0), lambda: guarantee(s, spec, 0, 1.0, 1.0),
                     lambda: coupling_residual(s, 0)):
            with pytest.raises(InputError, match="N must be >= 1"):
                call()

    def test_endpoints_exact_for_irrational_horizon(self):
        s = preset("general-exp")  # T = 2 ln 2
        traj = run(QUAD, BOX2, s, family_spec("general-exp"), 7)
        assert traj.t[0] == 0.0
        assert traj.t[-1] == s.T
        assert np.all(np.diff(traj.t) > 0)


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
        # the gradient vanishes at the origin, so every oracle vertex is 0
        f = make_quadratic(-np.eye(2), np.zeros(2))
        traj = run_family("monotone", f=f, body=BOX2, N=4)
        assert np.all(traj.x == 0.0)
        assert np.all(traj.B_exact == 0.0)
        assert np.all(traj.B_bound > 0.0)

    def test_monotone_single_step_bound(self):
        traj = run_family("monotone", f=dataclasses.replace(QUAD, L=1.0), body=BOX2, N=1)
        assert traj.D == 2.0
        assert traj.B_bound[0] == pytest.approx((math.e - 1.0) ** 2 / math.e, abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_below_bound_along_runs(self, family):
        traj = run_family(family, N=60)
        assert np.all(traj.B_exact <= traj.B_bound + 1e-12)


class TestPotential:
    def test_rejects_nonpositive_opt(self):
        traj = run_family("monotone", N=5)
        with pytest.raises(InputError):
            potential_series(traj, 0.0)

    def test_modular_increments_nonnegative(self):
        w = np.array([1.0, 1.0])
        f = make_quadratic(np.zeros((2, 2)), w)
        traj = run_family("monotone", f=f, body=BOX2, N=10)
        series = potential_series(traj, 2.0)
        assert np.all(series.increments >= -1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("N", [10, 100])
    def test_increment_margins_on_coverage(self, family, N):
        opt = set_bruteforce(COVER3, CARD).value
        traj = run_family(family, N=N)
        series = potential_series(traj, opt)
        assert series.min_margin >= -1e-9

    def test_underestimated_opt_is_safe(self):
        opt = set_bruteforce(COVER3, CARD).value
        traj = run_family("measured", N=30)
        full = potential_series(traj, opt)
        under = potential_series(traj, 0.5 * opt)
        assert under.min_margin >= full.min_margin - 1e-12


class TestGronwall:
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


class TestArbitraryStart:
    def test_zero_start_matches_run(self):
        direct = run(QUAD, BOX2, preset("general"), family_spec("general"), 20)
        via = arbitrary_start_run(QUAD, BOX2, preset("general"), 20, np.zeros(2))
        assert np.array_equal(direct.x, via.x)

    def test_only_general_family(self):
        with pytest.raises(ConfigurationError):
            arbitrary_start_run(QUAD, BOX2, preset("measured"), 10, np.zeros(2))

    def test_infeasible_start(self):
        with pytest.raises(InputError):
            arbitrary_start_run(QUAD, CardinalityBody(2, 1), preset("general"),
                                10, np.array([1.0, 1.0]))

    def test_saturated_start_still_runs(self):
        traj = arbitrary_start_run(QUAD, BOX2, preset("general"), 10,
                                   np.array([1.0, 0.0]))
        assert traj.N == 10
        coeff = guarantee(preset("general"), family_spec("general"), 10, QUAD.L,
                          BOX2.diameter(), start_infnorm=1.0).coefficient
        assert coeff == 0.0

    def test_half_start_margins_and_guarantee(self):
        x0 = np.array([0.5, 0.5])
        traj = arbitrary_start_run(QUAD, BOX2, preset("general"), 200, x0)
        assert traj.min_gronwall_margin >= -1e-9
        bound = guarantee(preset("general"), family_spec("general"), 200, QUAD.L,
                          BOX2.diameter(), start_infnorm=0.5)
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
        series = potential_series(traj, 4.0)
        text = trajectory_csv(traj, series)
        first = text.strip().split("\n")[1].split(",")
        assert first[9] == format(series.E[0], ".17g")

    def test_monotone_has_empty_margin_column(self):
        text = trajectory_csv(run_family("monotone", N=3))
        assert all(row.split(",")[8] == "" for row in text.strip().split("\n")[1:])

    def test_seventeen_significant_digits(self):
        traj = run_family("general", f=QUAD, body=BOX2, N=2)
        row = trajectory_csv(traj).strip().split("\n")[2].split(",")
        assert row[2] == format(traj.F[1], ".17g")
