import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (InputError, ValidationError, coupling_residual, preset, ratio,
                   ratio_curve, schedule_from_json, validate)
from drsub.schedule import FAMILIES, Schedule
from drsub.solver import family_spec, g_series

RATIOS = {
    "monotone": 1.0 - 1.0 / math.e,
    "measured": 1.0 / math.e,
    "general": 0.25,
    "general-exp": 0.25,
    "general-linear": 0.25,
}

VARIANT_PEAKS = {"general": 1.0, "general-exp": 2.0 * math.log(2.0), "general-linear": 3.0}


class TestPresets:
    @pytest.mark.parametrize("family,expected", sorted(RATIOS.items()))
    def test_ratio(self, family, expected):
        assert ratio(preset(family), FAMILIES[family]) == pytest.approx(expected, abs=1e-12)

    def test_horizons(self):
        assert preset("monotone").T == 1.0
        assert preset("measured").T == 1.0
        assert preset("general").T == 1.0
        assert preset("general-exp").T == pytest.approx(2.0 * math.log(2.0), abs=1e-15)
        assert preset("general-linear").T == 3.0

    def test_unknown_family(self):
        with pytest.raises(InputError):
            preset("fastest")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_validation_passes(self, family):
        assert validate(preset(family), FAMILIES[family]) is None

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("N", [1, 10, 100, 1000])
    def test_coupling_residual(self, family, N):
        assert coupling_residual(preset(family), FAMILIES[family], N) <= 1e-10


class TestFamilyTable:
    @pytest.mark.parametrize("name", FAMILIES)
    def test_beta_is_the_primitive_of_one_over_c(self, name):
        spec = FAMILIES[name]
        a, h = np.linspace(1.0, math.e ** 2, 201), 1e-5
        slope = (spec.beta(a + h) - spec.beta(a - h)) / (2.0 * h)
        assert np.max(np.abs(slope * spec.c(a) - 1.0)) <= 1e-9

    @pytest.mark.parametrize("name", FAMILIES)
    def test_preset_maximizes_the_ratio(self, name):
        # Phase 1: the ratio of the rule's form at r = a_T/a_0 is (beta(r) - beta(1))/r,
        # maximized over r <= e where the steps share a unit budget, else over [1, 100]
        spec = FAMILIES[name]
        s = preset(name)
        r_star = float(s.a(s.T)) / float(s.a(0.0))
        r = np.linspace(1.0, 100.0 if spec.direction == "offset" else math.e, 200_001)
        form = (spec.beta(r) - spec.beta(1.0)) / r
        assert np.max(form) <= spec.ratio + 1e-12
        assert (spec.beta(r_star) - spec.beta(1.0)) / r_star == pytest.approx(spec.ratio,
                                                                              abs=1e-12)
        assert abs(r[np.argmax(form)] - r_star) <= r[1] - r[0]

    def test_unknown_family_spec(self):
        with pytest.raises(InputError, match="unknown solver family 'fastest'"):
            family_spec("fastest")


class TestValidate:
    def test_decreasing_a_fails(self):
        s = Schedule(1.0, lambda t: np.exp(-np.asarray(t, dtype=float)),
                     lambda t: np.exp(-np.asarray(t, dtype=float)))
        with pytest.raises(ValidationError, match="a nondecreasing"):
            validate(s, FAMILIES["monotone"])

    def test_scaled_exponential_fails_boundary(self):
        s = Schedule(1.0, lambda t: 2.0 * np.exp(t), lambda t: 2.0 * np.exp(t))
        with pytest.raises(ValidationError, match="log a0 == 0"):
            validate(s, FAMILIES["monotone"])

    def test_general_family_has_no_boundary_pins(self):
        # a_0 = 3 != 1 is fine for the general family; b = sqrt(a) - sqrt(a_0) keeps the
        # sqrt coupling, read both as the schedule identity and as the solver's G_j <= 0
        s = Schedule(1.0, lambda t: 3.0 * (1.0 + np.asarray(t, dtype=float)) ** 2,
                     lambda t: math.sqrt(3.0) * np.asarray(t, dtype=float))
        assert validate(s, FAMILIES["general"]) is None
        assert coupling_residual(s, FAMILIES["general"], 20) <= 1e-12
        assert np.max(g_series(s, family_spec("general"), 20)) <= 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a0_below_one_fails(self, family):
        # the headroom floor 1/sqrt(a_0) (or 1/a_0) would exceed 1 at the first step
        s = Schedule(1.0, lambda t: 0.25 * np.exp(np.asarray(t, dtype=float)),
                     lambda t: np.asarray(t, dtype=float) + 0.0)
        with pytest.raises(ValidationError, match=r"a0 >= 1 \(a0 2\.50e-01 at t=0\)"):
            validate(s, FAMILIES[family])

    def test_ratio_raises_on_invalid(self):
        s = Schedule(1.0, lambda t: np.exp(-np.asarray(t, dtype=float)),
                     lambda t: np.exp(-np.asarray(t, dtype=float)))
        with pytest.raises(ValidationError):
            ratio(s, FAMILIES["monotone"])

    def test_report_lists_worst_node(self):
        # both weights turn down: one message names both checks and their worst slopes
        s = Schedule(1.0, lambda t: 1.0 + np.sin(3.0 * np.asarray(t, dtype=float)),
                     lambda t: np.asarray(t, dtype=float) * (0.5 - np.asarray(t, dtype=float)))
        with pytest.raises(ValidationError) as info:
            validate(s, FAMILIES["general"])
        found = dict(re.findall(r"(\w) nondecreasing \(slope (\S+) at t=", str(info.value)))
        assert sorted(found) == ["a", "b"]
        assert float(found["a"]) == pytest.approx(3.0 * math.cos(3.0), rel=1e-2)
        assert float(found["b"]) == pytest.approx(-1.5, rel=1e-2)

    def test_non_finite_weight_fails_at_once(self):
        s = Schedule(1.0, lambda t: np.exp(1e308 * np.asarray(t, dtype=float)),
                     lambda t: np.asarray(t, dtype=float) + 0.0)
        with pytest.raises(ValidationError, match=r"a finite \(value inf at t=0\.001001\)$"):
            validate(s, FAMILIES["general"])

    def test_root_of_negative_fails_finite_check(self):
        s = schedule_from_json(
            {"a": {"form": "poly", "coeffs": [1, 1]},
             "b": {"form": "sqrt_affine", "inner_shift": -1.0}, "T": 1.0})
        with pytest.raises(ValidationError, match=r"b finite \(value nan at t=0\)"):
            validate(s, FAMILIES["general"])


class TestRatioCurve:
    def test_peak_values(self):
        assert ratio_curve("general-exp", 2.0 * math.log(2.0)) == pytest.approx(0.25, abs=1e-12)
        assert ratio_curve("general-linear", 3.0) == pytest.approx(0.25, abs=1e-12)
        assert ratio_curve("general", 1.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("variant,t_star", sorted(VARIANT_PEAKS.items()))
    def test_bounded_by_quarter_and_peaks_at_argmax(self, variant, t_star):
        T = preset(variant).T
        t = np.linspace(0.0, T, 10001)
        curve = ratio_curve(variant, t)
        assert np.max(curve) <= 0.25 + 1e-12
        assert curve[np.argmax(curve)] >= 0.25 - 1e-9
        assert abs(t[np.argmax(curve)] - t_star) <= T / 10000 + 1e-12

    def test_out_of_range(self):
        with pytest.raises(InputError):
            ratio_curve("general", 1.5)

    def test_monotone_has_no_curve(self):
        with pytest.raises(InputError):
            ratio_curve("monotone", 0.5)


class TestJsonSchedules:
    def test_exp_form_reproduces_monotone(self):
        s = schedule_from_json(
            {"a": {"form": "exp", "rate": 1.0}, "b": {"form": "exp", "rate": 1.0}, "T": 1.0})
        assert ratio(s, FAMILIES["monotone"]) == pytest.approx(RATIOS["monotone"], abs=1e-12)
        assert coupling_residual(s, FAMILIES["monotone"], 50) <= 1e-12

    def test_poly_form_reproduces_general(self):
        s = schedule_from_json(
            {"a": {"form": "poly", "coeffs": [1, 2, 1]},
             "b": {"form": "poly", "coeffs": [0, 1]}, "T": 1.0})
        assert ratio(s, FAMILIES["general"]) == pytest.approx(0.25, abs=1e-12)
        assert coupling_residual(s, FAMILIES["general"], 50) <= 1e-12

    def test_sqrt_affine_reproduces_general_linear(self):
        s = schedule_from_json(
            {"a": {"form": "poly", "coeffs": [1, 1]},
             "b": {"form": "sqrt_affine", "inner_shift": 1.0, "shift": -1.0},
             "T": 3.0})
        assert ratio(s, FAMILIES["general-linear"]) == pytest.approx(0.25, abs=1e-12)
        assert coupling_residual(s, FAMILIES["general-linear"], 50) <= 1e-12

    def test_exp_with_shift_reproduces_general_exp(self):
        s = schedule_from_json(
            {"a": {"form": "exp", "rate": 1.0},
             "b": {"form": "exp", "rate": 0.5, "shift": -1.0},
             "T": 2.0 * math.log(2.0)})
        assert ratio(s, FAMILIES["general-exp"]) == pytest.approx(0.25, abs=1e-12)

    def test_missing_key(self):
        with pytest.raises(InputError):
            schedule_from_json({"a": {"form": "exp", "rate": 1.0}, "T": 1.0})

    def test_unknown_form(self):
        with pytest.raises(InputError):
            schedule_from_json({"a": {"form": "log"}, "b": {"form": "exp", "rate": 1},
                                "T": 1.0})


@settings(max_examples=50, deadline=None)
@given(rate=st.floats(0.1, 3.0), scale=st.floats(0.5, 2.0), T=st.floats(0.2, 4.0))
def test_increasing_exponentials_pass_monotonicity(rate, scale, T):
    s = schedule_from_json(
        {"a": {"form": "exp", "rate": rate, "scale": scale},
         "b": {"form": "poly", "coeffs": [0.0, 1.0]}, "T": T})
    if scale >= 1.0 - 1e-12:  # validate's boundary tolerance
        assert validate(s, FAMILIES["general"]) is None
    else:  # a_0 = scale: the one failed check is a0 >= 1, never monotonicity
        with pytest.raises(ValidationError, match=r"validation: a0 >= 1 \([^)]*\)$"):
            validate(s, FAMILIES["general"])
