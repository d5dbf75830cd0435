import numpy as np
import pytest

from drsub import (BoxBody, CapacityError, CardinalityBody, ConfigurationError, InputError,
                   PackingBody, coverage_function, grid_search, make_quadratic,
                   multilinear_extension, set_bruteforce, set_function_from_table)
from drsub import desk

COVER2 = desk.coverage_two_sets()
COVER3 = desk.coverage_three_sets()
QUAD = desk.quad_two_dim()


class TestSetBruteforce:
    def test_coverage_under_unit_budget(self):
        cert = set_bruteforce(COVER2, CardinalityBody(2, 1))
        assert cert.value == 2.0
        assert cert.subset == (0,)
        assert cert.method == "set-bruteforce"
        assert cert.slack == 0.0

    def test_unconstrained_monotone_takes_everything(self):
        cert = set_bruteforce(COVER2, CardinalityBody(2, 2))
        assert cert.value == 3.0
        assert cert.subset == (0, 1)

    def test_zero_function(self):
        sf = set_function_from_table([0.0, 0.0, 0.0, 0.0])
        assert set_bruteforce(sf, CardinalityBody(2, 1)).value == 0.0

    def test_three_set_coverage(self):
        cert = set_bruteforce(COVER3, CardinalityBody(3, 2))
        assert cert.value == 4.0  # the two disjoint sets cover all four elements
        assert cert.subset == (0, 2)

    def test_maximizer_is_feasible(self):
        body = CardinalityBody(3, 1)
        cert = set_bruteforce(COVER3, body)
        assert body.contains(cert.maximizer)

    def test_unit_box_takes_the_best_subset(self):
        sf = set_function_from_table([0.0, 1.0, 1.0, 1.5])
        cert = set_bruteforce(sf, BoxBody(np.ones(2)))
        assert cert.value == 1.5 and cert.subset == (0, 1)

    @pytest.mark.parametrize("body", [PackingBody(np.array([[1.0, 1.0]]), np.array([1.5])),
                                      BoxBody(np.array([1.0, 0.5]))], ids=["packing", "box"])
    def test_no_slack_zero_where_the_optimum_is_fractional(self, body):
        # F = x1 + x2 peaks at 1.5 on both bodies, above every feasible subset's value 1
        with pytest.raises(ConfigurationError, match="use --opt grid"):
            set_bruteforce(set_function_from_table([0.0, 1.0, 1.0, 2.0]), body)

    def test_capacity_limit(self):
        sf = set_function_from_table(np.zeros(1 << 17))
        with pytest.raises(CapacityError):
            set_bruteforce(sf, CardinalityBody(17, 2))


class TestGridSearch:
    def test_quadratic_stationary_point(self):
        cert = grid_search(QUAD, BoxBody(np.ones(2)))
        assert cert.value == pytest.approx(0.8125, abs=1e-12)
        assert cert.maximizer == pytest.approx([0.5, 0.25], abs=1e-12)
        assert cert.method == "grid"
        assert cert.slack >= 0.0

    def test_modular_corner(self):
        f = make_quadratic(np.zeros((2, 2)), [1.0, 2.0])
        cert = grid_search(f, BoxBody(np.ones(2)))
        assert cert.value == pytest.approx(3.0)
        assert cert.maximizer == pytest.approx([1.0, 1.0])

    def test_coverage_over_unit_budget(self):
        F = multilinear_extension(COVER2)
        cert = grid_search(F, CardinalityBody(2, 1))
        assert cert.value == pytest.approx(2.0, abs=1e-12)

    def test_incumbent_nondecreasing_in_levels(self):
        F = multilinear_extension(COVER3)
        body = CardinalityBody(3, 2)
        values = [grid_search(F, body, levels=lv).value for lv in (1, 2, 3, 4)]
        assert values == sorted(values)

    def test_level_trace_monotone(self):
        cert = grid_search(QUAD, BoxBody(np.ones(2)), levels=4)
        assert list(cert.level_values) == sorted(cert.level_values)

    def test_slack_covers_off_mesh_optimum(self):
        # true maximizer (0.45, 0.25) is off the coarse mesh in x1
        f = make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [0.9, 0.5])
        cert = grid_search(f, BoxBody(np.ones(2)), levels=1)
        true_opt = f.value([0.45, 0.25])
        assert cert.value <= true_opt
        assert true_opt <= cert.value + cert.slack

    def test_dimension_capacity(self):
        f = make_quadratic(np.zeros((7, 7)), np.ones(7))
        with pytest.raises(CapacityError):
            grid_search(f, BoxBody(np.ones(7)))

    def test_levels_validation(self):
        with pytest.raises(InputError):
            grid_search(QUAD, BoxBody(np.ones(2)), levels=5)

    def test_feasible_maximizer(self):
        body = CardinalityBody(2, 1)
        cert = grid_search(QUAD, body)
        assert body.contains(cert.maximizer)


class TestCrossCheck:
    def test_bruteforce_vs_grid_on_coverage(self):
        body = CardinalityBody(3, 2)
        cs = set_bruteforce(COVER3, body)
        cg = grid_search(multilinear_extension(COVER3), body)
        assert abs(cs.value - cg.value) <= cs.slack + cg.slack + 1e-12
        assert cs.value <= cg.value + cg.slack

    def test_identical_certificates(self):
        cert = set_bruteforce(COVER2, CardinalityBody(2, 1))
        assert abs(cert.value - cert.value) == 0.0

    def test_flags_disagreement(self):
        a = set_bruteforce(COVER2, CardinalityBody(2, 1))
        b = set_bruteforce(COVER2, CardinalityBody(2, 2))
        assert not abs(a.value - b.value) <= a.slack + b.slack + 1e-12


class TestRandomInstances:
    def test_grid_never_exceeds_dense_sampling(self, rng):
        # the grid value is a max over feasible mesh points, so denser random
        # sampling plus slack must dominate it
        for _ in range(5):
            H = -np.abs(rng.normal(size=(2, 2)))
            H = (H + H.T) / 2.0
            f = make_quadratic(H, rng.uniform(0.5, 1.5, size=2))
            body = BoxBody(np.ones(2))
            cert = grid_search(f, body, levels=2)
            sampled = max(f.value(rng.uniform(size=2)) for _ in range(400))
            assert cert.value <= sampled + cert.slack

    def test_subset_certificates_lower_bound_grid(self, rng):
        for _ in range(5):
            weights = rng.uniform(0.0, 2.0, size=4)
            subsets = [sorted(rng.choice(4, size=2, replace=False).tolist())
                       for _ in range(3)]
            sf = coverage_function(subsets, weights, 4)
            body = CardinalityBody(3, 2)
            cs = set_bruteforce(sf, body)
            cg = grid_search(multilinear_extension(sf), body)
            assert cs.value <= cg.value + cg.slack + 1e-12
            assert abs(cs.value - cg.value) <= cs.slack + cg.slack + 1e-12
