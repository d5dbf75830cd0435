import dataclasses
import itertools
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (CapacityError, CardinalityBody, InputError, check_dr_inequality,
                   coverage_function, family_spec, finite_diff_grad, instance_from_json,
                   make_concave_modular, make_coverage, make_quadratic, multilinear_extension,
                   preset, run, set_function_from_table)
from drsub import checks, desk, objective
from drsub.feasible import row_products
from drsub.objective import set_is_monotone

from conftest import (brute_coverage_table, brute_multilinear, cut_table, empirical_smoothness,
                      exhaustive_monotonicity_ok, exhaustive_submodularity_ok)

COVER2 = coverage_function([[0, 1], [1, 2]])  # extension is 2x1 + 2x2 - x1 x2
NOT_SUBMODULAR = "^table values are not submodular$"
QUAD = make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [1.0, 0.5])


class TestEval:
    def test_coverage_at_ones(self):
        F = multilinear_extension(COVER2)
        assert F.value([1.0, 1.0]) == pytest.approx(3.0, abs=1e-12)

    def test_coverage_at_origin_is_empty_set_value(self):
        F = multilinear_extension(COVER2)
        assert F.value([0.0, 0.0]) == 0.0

    def test_quadratic_point(self):
        # direct polynomial evaluation: 0.625 - 0.3125 + offset 0.5
        assert QUAD.value([0.5, 0.25]) == pytest.approx(0.8125, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            QUAD.value([0.5])

    def test_clamps_roundoff(self):
        assert QUAD.value([1.0 + 1e-13, -1e-13]) == pytest.approx(QUAD.value([1.0, 0.0]))

    def test_clamps_roundoff_in_a_copy(self):
        # a point inside the box is evaluated as it is; one just outside is clamped, and
        # the clamped copy, not the caller's array, is what the instance sees
        x = np.array([1.0 + 1e-13, -1e-13])
        assert QUAD.value(x) == QUAD.value([1.0, 0.0])
        assert QUAD.grad(x).tolist() == QUAD.grad([1.0, 0.0]).tolist()
        assert QUAD.values(x[None]).tolist() == [QUAD.value([1.0, 0.0])]
        assert x.tolist() == [1.0 + 1e-13, -1e-13]

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            QUAD.value([np.nan, 0.0])

    @pytest.mark.parametrize("x", [[5.0, -3.0], [1.0 + 1e-9, 0.0], [0.5, -1e-11],
                                   [np.inf, 0.0], [0.5, -np.inf]])
    def test_rejects_far_out_points(self, x):
        # only round-off within CLAMP_TOL is clamped: (5, -3) must not read as (1, 0)
        with pytest.raises(InputError):
            QUAD.value(x)
        with pytest.raises(InputError):
            QUAD.grad(x)


def _batch_instances():
    rng = np.random.default_rng(3)
    H = -np.abs(rng.normal(size=(5, 5)))
    # multilinear extensions at an empty ground set, one element, m = 3 and m = 12, and
    # the coverage closed form at m = 0, 3 and 12, whose 300-row batch spans two row blocks
    sets12 = [rng.choice(30, size=4, replace=False).tolist() for _ in range(12)]
    quadratic = make_quadratic((H + H.T) / 2.0, rng.normal(size=5))
    concave = make_concave_modular(rng.uniform(0.0, 2.0, size=(3, 4)))
    cover4 = ([[0, 1], [1, 2], [2, 3]], [1.0, 0.5, 2.0, 1.5])
    cover12 = (sets12, rng.uniform(0.5, 2.0, size=30), 30)
    return {"quadratic(n=2)": QUAD, "quadratic(n=5)": quadratic, "concave_modular(k=3)": concave,
            "multilinear(m=0)": multilinear_extension(set_function_from_table([2.5])),
            "multilinear(m=1)": multilinear_extension(set_function_from_table([0.5, 2.0])),
            "multilinear(m=3)": multilinear_extension(coverage_function(*cover4)),
            "multilinear(m=12)": multilinear_extension(coverage_function(*cover12)),
            "coverage(m=0)": make_coverage([]), "coverage(m=3)": make_coverage(*cover4),
            "coverage(m=12)": make_coverage(*cover12)}


BATCH_INSTANCES = _batch_instances()


class TestBatchValues:
    @pytest.mark.parametrize("F", BATCH_INSTANCES.values(), ids=BATCH_INSTANCES)
    def test_rows_match_single_points_exactly(self, F, rng):
        X = rng.uniform(size=(300, F.n))
        X[:40] = rng.choice([0.0, 1.0, -1e-13, 1.0 + 1e-13], size=(40, F.n))  # faces, round-off
        values = F.values(X)
        assert values.shape == (300,)
        assert np.array_equal(values, [F.value(x) for x in X])
        assert np.array_equal(F.values(X[7:100]), values[7:100])  # a row's batch does not matter

    @pytest.mark.parametrize("F", [F for F in BATCH_INSTANCES.values() if F.n],  # m = 0: no entry
                             ids=[name for name, F in BATCH_INSTANCES.items() if F.n])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 1e-9, -1e-9, 5.0])
    def test_rejects_nan_infinite_and_far_out_rows(self, F, bad):
        X = np.full((3, F.n), 0.5)
        X[1, -1] = bad
        with pytest.raises(InputError, match="a row of the batch"):
            F.values(X)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 2, 2)])
    def test_rejects_wrong_shapes(self, shape):
        with pytest.raises(InputError, match="batch"):
            QUAD.values(np.zeros(shape))

    @pytest.mark.parametrize("F", BATCH_INSTANCES.values(), ids=BATCH_INSTANCES)
    def test_empty_batch(self, F):
        assert F.values(np.zeros((0, F.n))).shape == (0,)


class TestGrad:
    def test_coverage_at_origin(self):
        F = multilinear_extension(COVER2)
        assert F.grad([0.0, 0.0]) == pytest.approx([2.0, 2.0], abs=1e-12)

    def test_modular_gradient_is_weights(self, rng):
        w = np.array([0.3, 1.2, 0.0])
        F = make_quadratic(np.zeros((3, 3)), w)
        for _ in range(5):
            assert F.grad(rng.uniform(size=3)) == pytest.approx(w, abs=1e-12)

    def test_quadratic_at_origin(self):
        assert QUAD.grad([0.0, 0.0]) == pytest.approx([1.0, 0.5], abs=1e-12)


class TestMultilinearExtension:
    def test_matches_bruteforce_at_random_points(self, rng):
        F = multilinear_extension(COVER2)
        for _ in range(20):
            x = rng.uniform(size=2)
            assert F.value(x) == pytest.approx(brute_multilinear(COVER2.table, x), abs=1e-12)

    def test_lattice_agreement(self):
        sf = coverage_function([[0, 1], [1, 2], [2, 3]])
        F = multilinear_extension(sf)
        for mask in range(1 << sf.m):
            x = np.array([(mask >> i) & 1 for i in range(sf.m)], dtype=float)
            assert F.value(x) == pytest.approx(sf.table[mask], abs=1e-12)

    def test_zero_function(self):
        F = multilinear_extension(set_function_from_table([0.0, 0.0, 0.0, 0.0]))
        assert F.value([0.3, 0.9]) == 0.0
        assert F.grad([0.3, 0.9]) == pytest.approx([0.0, 0.0], abs=1e-15)

    def test_modular_set_function_gives_linear_extension(self, rng):
        w = [0.5, 1.5]
        table = [0.0, w[0], w[1], w[0] + w[1]]
        F = multilinear_extension(set_function_from_table(table))
        for _ in range(10):
            x = rng.uniform(size=2)
            assert F.value(x) == pytest.approx(float(np.dot(w, x)), abs=1e-12)

    def test_gradient_is_pinning_gap(self, rng):
        sf = coverage_function([[0, 1], [1, 2], [2, 3]])
        F = multilinear_extension(sf)
        x = rng.uniform(size=3)
        g = F.grad(x)
        for i in range(3):
            hi, lo = x.copy(), x.copy()
            hi[i], lo[i] = 1.0, 0.0
            assert g[i] == pytest.approx(F.value(hi) - F.value(lo), abs=1e-12)

    def test_default_smoothness_constant(self):
        # (m - 1) * max |second difference|: here the exact Hessian norm of 2x1 + 2x2 - x1 x2
        F = multilinear_extension(COVER2)
        assert F.L == 1.0

    def test_lattice_agreement_at_twelve_elements(self, rng):
        # the square root of a random modular function: submodular, with table[0] = 0
        table = np.sqrt(objective.corners(np.arange(1 << 12), 12) @ rng.uniform(0.0, 3.0, 12))
        sf = set_function_from_table(table)
        F = multilinear_extension(sf)
        for mask in rng.integers(0, 1 << 12, size=64):
            x = np.array([(int(mask) >> i) & 1 for i in range(12)], dtype=float)
            assert F.value(x) == pytest.approx(table[int(mask)], abs=1e-12)
        assert F.value(np.ones(12)) == pytest.approx(table[-1], abs=1e-12)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            set_function_from_table(np.zeros(1 << 21))

    def test_negative_values_rejected(self):
        with pytest.raises(InputError):
            set_function_from_table([0.0, -1.0, 0.0, 0.0])

    @pytest.mark.parametrize("m, table, message", [
        (2, [0.0, 1.0, 1.0], r"value table must have length 2\^2"),
        (1, [0.0, np.nan], "value table contains NaN or infinity"),
    ])
    def test_direct_construction_refusals(self, m, table, message):
        with pytest.raises(InputError, match=message):
            objective.SetFunction(m, table)


class TestQuadraticFamily:
    def test_offdiagonal_instance(self):
        F = make_quadratic([[0.0, -1.0], [-1.0, 0.0]], [1.0, 1.0])
        # F = x1 + x2 - x1 x2, vertex minimum 0 at the origin
        assert F.value([0.0, 0.0]) == 0.0
        assert F.monotone
        x = [0.3, 0.8]
        assert F.value(x) == pytest.approx(0.3 + 0.8 - 0.24, abs=1e-12)

    def test_offset_and_spectral_norm(self):
        # vertex values are {0, -0.5, 0, -0.5}, so the lift is 0.5
        assert QUAD.value([0.0, 0.0]) == pytest.approx(0.5, abs=1e-12)
        assert QUAD.L == pytest.approx(2.0, rel=1e-9)
        assert not QUAD.monotone

    def test_modular_case(self):
        F = make_quadratic(np.zeros((2, 2)), [1.0, 2.0])
        assert F.L == 0.0
        assert F.monotone
        assert F.value([1.0, 1.0]) == pytest.approx(3.0)

    def test_positive_entry_rejected(self):
        with pytest.raises(InputError):
            make_quadratic([[0.0, 0.1], [0.1, 0.0]], [1.0, 1.0])

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            make_quadratic([[0.0, -1.0], [-2.0, 0.0]], [1.0, 1.0])

    def test_a_relative_asymmetry_is_rejected(self):
        # H_21 - H_12 = -4e-4 is within numpy's default rtol of 1e-5 * 100, and the
        # gradient c + H x would miss the values' own by (4.0e-5, -1.4e-4) at (0.7, 0.2)
        with pytest.raises(InputError, match="^H must be symmetric$"):
            make_quadratic([[-2.0, -100.0], [-100.0004, -2.0]], [300.0, 300.0])

    def test_spectral_norm_matches_numpy(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 6))
            H = -np.abs(rng.normal(size=(n, n)))
            H = (H + H.T) / 2.0
            F = make_quadratic(H, np.zeros(n))
            assert F.L == pytest.approx(float(np.linalg.norm(H, 2)), rel=1e-8, abs=1e-10)

    def test_offset_lifts_the_vertex_minimum_to_zero(self, rng):
        for n in (1, 3, 8):
            H = -np.abs(rng.normal(size=(n, n)))
            F = make_quadratic((H + H.T) / 2.0, rng.normal(size=n))
            vertex_values = [F.value(v) for v in itertools.product((0.0, 1.0), repeat=n)]
            assert min(vertex_values) == 0.0

    @pytest.mark.parametrize("n", range(1, 13))
    def test_lift_is_the_exact_vertex_minimum(self, n):
        # each vertex is scored alone, as a one-row batch, in itertools.product order; the
        # unlifted value at the origin is 0, so F there is the lift itself
        rng = np.random.default_rng(n)
        H = -np.abs(rng.normal(size=(n, n)))
        H = (H + H.T) / 2.0
        c = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
        F = make_quadratic(H, c)

        def unlifted(v):
            V = np.array([v])
            return float(np.einsum("ij,ij->i", row_products(V, 0.5 * H) + c, V)[0])

        vertices = itertools.product((0.0, 1.0), repeat=n)
        assert F.value(np.zeros(n)) == -min(map(unlifted, vertices))

    def test_twenty_dimensions_build_in_under_two_seconds(self, rng):
        H = -np.abs(rng.normal(size=(20, 20)))
        start = time.perf_counter()
        F = make_quadratic(H + H.T, rng.normal(size=20))
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"n=20 build took {elapsed:.2f}s"
        assert F.value(np.zeros(20)) >= 0.0 and F.value(np.ones(20)) >= 0.0


class TestConcaveModular:
    def test_single_weight_value(self):
        F = make_concave_modular([[1.0, 0.0]])
        expected = math.sqrt(1.001) - math.sqrt(0.001)
        assert F.value([1.0, 0.7]) == pytest.approx(expected, abs=1e-12)

    def test_empty_weight_list(self):
        F = make_concave_modular([], n=3)
        assert F.value([0.5, 0.5, 0.5]) == 0.0
        assert F.grad([0.5, 0.5, 0.5]).tolist() == [0.0, 0.0, 0.0]
        assert F.L == 0.0

    def test_gradient(self):
        F = make_concave_modular([[4.0, 0.0]])
        g = F.grad([1.0, 0.0])
        assert g[0] == pytest.approx(4.0 / (2.0 * math.sqrt(4.001)), abs=1e-12)
        assert g[1] == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            make_concave_modular([[1.0, -0.5]])

    def test_zero_weight_vector_rejected(self):
        with pytest.raises(InputError):
            make_concave_modular([[0.0, 0.0]])


class TestDrInequality:
    def test_equal_points_residual_zero(self):
        x = np.array([0.4, 0.6])
        assert check_dr_inequality(QUAD, x, x) == 0.0

    def test_coverage_corner_pair(self):
        F = multilinear_extension(COVER2)
        assert check_dr_inequality(F, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_modular_residual_zero(self, rng):
        F = make_quadratic(np.zeros((3, 3)), [1.0, 2.0, 0.5])
        for _ in range(20):
            assert abs(check_dr_inequality(F, rng.uniform(size=3),
                                           rng.uniform(size=3))) <= 1e-12

    def test_nonnegative_on_instances(self, rng):
        for F in (QUAD, multilinear_extension(COVER2),
                  make_concave_modular([[1.0, 2.0]])):
            for _ in range(200):
                assert check_dr_inequality(F, rng.uniform(size=F.n),
                                           rng.uniform(size=F.n)) >= -1e-9


class TestFiniteDiff:
    def test_modular_exact(self):
        w = np.array([1.0, 2.0, 0.25])
        F = make_quadratic(np.zeros((3, 3)), w)
        assert finite_diff_grad(F, [0.2, 0.5, 0.9]) == pytest.approx(w, abs=1e-12)

    def test_coverage_interior(self):
        F = multilinear_extension(COVER2)
        fd = finite_diff_grad(F, [0.3, 0.7])
        assert fd == pytest.approx([1.3, 1.7], rel=1e-6)

    def test_quadratic_interior(self, rng):
        x = rng.uniform(0.1, 0.9, size=2)
        fd = finite_diff_grad(QUAD, x)
        assert fd == pytest.approx(QUAD.grad(x), rel=1e-6, abs=1e-9)

    def test_boundary_fallback(self):
        fd = finite_diff_grad(QUAD, [0.0, 1.0])
        assert fd == pytest.approx(QUAD.grad([0.0, 1.0]), rel=1e-3, abs=1e-3)

    @pytest.mark.parametrize("F,x", [
        # steep curvature just above SQRT_FLOOR
        (make_concave_modular([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0]]),
         [0.0052, 0.0024, 0.854, 0.759]),
        # 2.2e-5 below the face x_0 = 1, where a clipped stencil is lopsided
        (QUAD, [0.999978, 0.890746]),
    ], ids=["sqrt-near-floor", "near-face"])
    def test_hard_points_within_check_tolerance(self, F, x):
        g = F.grad(x)
        fd = finite_diff_grad(F, x)
        assert np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g))) <= 1e-5


class TestInvariantBatteries:
    """The sampled contracts every instance family must satisfy."""

    @pytest.fixture(params=["coverage", "coverage-closed-form", "quadratic", "concave", "cut"])
    def instance(self, request, rng):
        if request.param == "coverage":
            return multilinear_extension(coverage_function([[0, 1], [1, 2], [2, 3]]))
        if request.param == "coverage-closed-form":
            return make_coverage([[0, 1], [1, 2], [2, 3]])
        if request.param == "quadratic":
            return QUAD
        if request.param == "concave":
            return make_concave_modular([[1.0, 0.5, 0.0], [0.0, 1.0, 2.0]])
        table = cut_table(np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]]))
        return multilinear_extension(set_function_from_table(table))

    def test_antitone_gradient(self, instance, rng):
        for _ in range(100):
            x = rng.uniform(size=instance.n)
            y = np.minimum(x + rng.uniform(size=instance.n) * (1 - x), 1.0)
            assert np.all(instance.grad(x) >= instance.grad(y) - 1e-9)

    def test_nonnegative_values(self, instance, rng):
        for _ in range(100):
            assert instance.value(rng.uniform(size=instance.n)) >= 0.0

    def test_monotone_flag_means_nonnegative_gradient(self, instance, rng):
        # the gradient is antitone, so an unflagged instance shows its negative
        # entry at the all-ones point, where the gradient is smallest
        if not instance.monotone:
            assert np.min(instance.grad(np.ones(instance.n))) < 0.0
            return
        for _ in range(100):
            assert np.all(instance.grad(rng.uniform(size=instance.n)) >= -1e-9)

    def test_gradient_vs_finite_difference(self, instance, rng):
        for _ in range(50):
            x = rng.uniform(size=instance.n)
            g = instance.grad(x)
            fd = finite_diff_grad(instance, x)
            assert np.max(np.abs(g - fd)) / (1.0 + np.max(np.abs(g))) <= 1e-5

    def test_empirical_smoothness_within_L(self, instance):
        assert empirical_smoothness(instance, samples=100) <= instance.L + 1e-9

    def test_dr_residual(self, instance, rng):
        for _ in range(200):
            res = check_dr_inequality(instance, rng.uniform(size=instance.n),
                                      rng.uniform(size=instance.n))
            assert res >= -1e-9


class TestWorstOfKeepsNan:
    """A NaN measurement is the worst value, also behind a finite one."""

    NAN_GRAD = dataclasses.replace(QUAD, grad_fn=lambda x: np.full(2, np.nan))

    @pytest.mark.parametrize("check", [checks.max_grad_mismatch, checks.min_dr_residual])
    @pytest.mark.parametrize("order", ["alone", "after-finite"])
    def test_nan_gradient(self, check, order):
        objectives = [self.NAN_GRAD] if order == "alone" else [QUAD, self.NAN_GRAD]
        assert math.isnan(check(objectives, np.random.default_rng(0)))


class TestOwnedArrays:
    """An instance keeps its own copy of its caller's arrays."""

    def test_quadratic_ignores_a_later_edit_of_h_and_c(self):
        H, c = np.array([[-2.0, 0.0], [0.0, -2.0]]), np.array([1.0, 0.5])
        F = make_quadratic(H, c)
        x = [0.5, 0.25]
        value, grad = F.value(x), F.grad(x).tolist()
        H[0, 1] = H[1, 0] = -50.0
        c[0] = 9.0
        assert F.value(x) == value and F.grad(x).tolist() == grad
        assert F.L == pytest.approx(2.0)

    def test_set_function_table_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            COVER2.table[1] = 10.0


class TestSetFunctionChecks:
    def test_coverage_is_monotone_submodular(self):
        sf = coverage_function([[0, 1], [1, 2], [2, 3]])  # construction checks submodularity
        assert set_is_monotone(sf)
        assert sf.differences[2] <= 0.0

    def test_cut_is_submodular_not_monotone(self):
        w = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 2.0], [0.5, 2.0, 0.0]])
        sf = set_function_from_table(cut_table(w))
        assert sf.differences[2] <= 0.0
        assert not set_is_monotone(sf)

    def test_supermodular_tables_are_refused(self):
        # the extension x1 x2 of [0, 0, 0, 1] would end every family's run at 0 on the
        # unit box, below the 0.631, 0.367 and 0.250 that their bounds promise (OPT 1)
        for build in (lambda: set_function_from_table([0.0, 0.0, 0.0, 1.0]),
                      lambda: objective.SetFunction(2, [0.0, 0.0, 0.0, 1.0]),
                      lambda: instance_from_json({"kind": "table", "values": [0, 0, 0, 1]})):
            with pytest.raises(InputError, match=NOT_SUBMODULAR):
                build()

    def test_pairwise_check_matches_exhaustive_definition(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 5))
            table = rng.uniform(size=1 << m)
            table[0] = 0.0
            if exhaustive_submodularity_ok(table, m):
                set_function_from_table(table)
            else:
                with pytest.raises(InputError, match=NOT_SUBMODULAR):
                    set_function_from_table(table)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(exponent=st.integers(-6, 10), m=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_set_checks_read_the_tables_own_units(exponent, m, seed):
    # coverage is monotone and submodular at any scale; a supermodular bump of 1e-6 of
    # max f on elements 0 and 1 is caught at any scale
    rng = np.random.default_rng(seed)
    covers = rng.random((m, 24)) < 0.3
    covers[1] &= ~covers[0]  # sets 0 and 1 are disjoint: f's second difference on them is 0
    covers[:2, :2] = [[True, False], [False, True]]
    sf = coverage_function([np.flatnonzero(row).tolist() for row in covers],
                           rng.uniform(0.5, 1.5, size=24) * 10.0 ** exponent, 24)
    assert set_is_monotone(sf)
    both = (np.arange(1 << m) & 3) == 3
    with pytest.raises(InputError, match=NOT_SUBMODULAR):
        set_function_from_table(sf.table + 1e-6 * sf.max_value() * both)


class TestCoverageTable:
    def test_matches_per_mask_union(self, rng):
        for _ in range(50):
            m, covered = int(rng.integers(1, 9)), int(rng.integers(1, 41))
            subsets = [sorted(rng.choice(covered, size=int(rng.integers(0, covered + 1)),
                                         replace=False).tolist()) for _ in range(m)]
            subsets[int(rng.integers(m))] = []
            subsets.append(list(subsets[0]))  # a duplicate set
            n_elements = covered + 3  # the last three elements are never covered
            weights = rng.uniform(0.0, 10.0, size=n_elements)
            weights[rng.random(n_elements) < 0.2] = 0.0
            table = coverage_function(subsets, weights, n_elements).table
            np.testing.assert_allclose(
                table, brute_coverage_table(subsets, weights, n_elements), rtol=1e-15, atol=0.0)

    def test_small_weight_survives_a_large_one(self):
        # a complement form (total - uncovered weight) cancels f({0}) to 0 here
        assert coverage_function([[0], [1]], [1.0, 1e16]).table.tolist() == [0.0, 1.0, 1e16, 1e16]


@st.composite
def set_tables(draw):
    """A nonnegative table on m <= 8 elements: arbitrary, concave of a modular function, or a
    graph cut."""
    m = draw(st.integers(0, 8))
    table = np.array(draw(st.lists(st.floats(0.0, 100.0), min_size=1 << m, max_size=1 << m)))
    kind = draw(st.sampled_from(["arbitrary", "concave", "cut"]))
    if kind == "concave":  # monotone and submodular
        table = np.sqrt([sum(table[i] for i in range(m) if s >> i & 1) for s in range(1 << m)])
    elif kind == "cut":  # submodular, and not monotone unless every weight is 0
        weights = np.zeros((m, m))
        weights[np.triu_indices(m, 1)] = table[:m * (m - 1) // 2]  # 2^m >= m(m-1)/2 values
        table = cut_table(weights)
    return table


@settings(max_examples=150, deadline=None, derandomize=True)
@given(table=set_tables(), data=st.data())
def test_axis_algorithms_match_literal_references(table, data):
    m = int(table.size).bit_length() - 1
    x = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    if not exhaustive_submodularity_ok(table, m):
        with pytest.raises(InputError, match=NOT_SUBMODULAR):
            set_function_from_table(table)
        return
    sf = set_function_from_table(table)
    F = multilinear_extension(sf)
    tol = {"rtol": 1e-12, "atol": 1e-12 * float(np.max(table))}
    np.testing.assert_allclose(F.value(x), brute_multilinear(table, x), **tol)
    pinned = [brute_multilinear(table, np.where(np.arange(m) == i, 1.0, x))
              - brute_multilinear(table, np.where(np.arange(m) == i, 0.0, x)) for i in range(m)]
    np.testing.assert_allclose(F.grad(x), pinned, **tol)
    assert set_is_monotone(sf) == exhaustive_monotonicity_ok(table, m)


@settings(max_examples=40, deadline=None)
@given(weights=st.lists(st.floats(0.0, 5.0), min_size=3, max_size=6),
       seed=st.integers(0, 10_000))
def test_random_coverage_extension_properties(weights, seed):
    rng = np.random.default_rng(seed)
    n_elements = len(weights)
    subsets = [sorted(rng.choice(n_elements, size=rng.integers(1, n_elements + 1),
                                 replace=False).tolist()) for _ in range(3)]
    sf = coverage_function(subsets, weights, n_elements)
    F = multilinear_extension(sf)
    x = rng.uniform(size=3)
    y = rng.uniform(size=3)
    assert F.value(x) == pytest.approx(brute_multilinear(sf.table, x), abs=1e-9)
    assert check_dr_inequality(F, x, y) >= -1e-9
    assert np.all(F.grad(np.minimum(x, y)) >= F.grad(np.maximum(x, y)) - 1e-9)


@st.composite
def coverage_instances(draw, min_m=0):
    """(subsets, weights, n_elements) with m <= 12 and a universe of <= 24 elements.

    Empty sets, uncovered elements and zero weights all occur.
    """
    m = draw(st.integers(min_m, 12))
    n_elements = draw(st.integers(0, 24))
    elements = st.integers(0, n_elements - 1) if n_elements else st.nothing()
    subsets = [sorted(draw(st.frozensets(elements))) for _ in range(m)]
    weights = draw(st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 10.0),
                            min_size=n_elements, max_size=n_elements))
    return subsets, weights, n_elements


def unit_points(n: int, max_size: int = 8):
    """(k, n) batches of points in the box whose coordinates may be exactly 0 or 1."""
    coordinate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    return st.lists(st.lists(coordinate, min_size=n, max_size=n), min_size=1,
                    max_size=max_size).map(lambda rows: np.array(rows).reshape(len(rows), n))


def pinned_hessian(F, x) -> np.ndarray:
    """Exact Hessian of a function that is affine in each coordinate, by pinned differences.

    Row (i, j, a, b) of the batch is x with x_i = a and x_j = b; its diagonal is zero.
    """
    n = F.n
    rows = np.tile(x, (n, n, 2, 2, 1))
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    rows[i, j, :, :, i] = np.array([1.0, 0.0])[:, None]
    rows[i, j, :, :, j] = np.array([1.0, 0.0])[None, :]
    v = F.values(rows.reshape(-1, n)).reshape(n, n, 2, 2)
    H = v[:, :, 0, 0] - v[:, :, 0, 1] - v[:, :, 1, 0] + v[:, :, 1, 1]
    np.fill_diagonal(H, 0.0)
    return H


def group_loop_table(subsets, weights, n_elements, subset_masks=None) -> np.ndarray:
    """The coverage table summed group by group, each weight onto every subset it meets.

    Only the entries at ``subset_masks``, in their order, if given.
    """
    m, masks, group_weights = objective._coverage_groups(subsets, weights, n_elements)
    if subset_masks is None:
        subset_masks = np.arange(1 << m)
    table = np.zeros(len(subset_masks))
    for mask, weight in zip(masks, group_weights):
        table[(subset_masks & mask) != 0] += weight
    return table


def diff_extremes(sf) -> tuple[float, float, float]:
    """SetFunction.differences by np.diff, one first difference and one pair at a time.

    ``sf`` needs only ``m`` and ``table``, so the table may be one that SetFunction refuses.
    """
    T = np.asarray(sf.table, dtype=float).reshape((2,) * sf.m)
    first = lo = hi = 0.0
    for i in range(sf.m):
        along_i = np.diff(T, axis=i)
        first = min(first, float(along_i.min()))
        for j in range(i + 1, sf.m):
            D = np.diff(along_i, axis=j)
            lo, hi = min(lo, float(D.min())), max(hi, float(D.max()))
    return first, lo, hi


def same_floats(a, b) -> bool:
    """Float for float, so that 0.0 and -0.0 differ."""
    return list(map(float.hex, a)) == list(map(float.hex, b))


def random_coverage(rng, m: int, n_elements: int):
    subsets = [np.flatnonzero(rng.random(n_elements) < 0.15).tolist() for _ in range(m)]
    return subsets, rng.uniform(0.5, 1.5, size=n_elements) * 10.0 ** rng.uniform(-3, 3), n_elements


class TestTableIdentities:
    """The blocked coverage scorer and the DR check against per-group and np.diff loops."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(m=st.integers(0, 10), seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["uniform", "ties", "concave"]))
    def test_differences_match_the_diff_loop(self, m, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            table = rng.uniform(size=1 << m) * 10.0 ** rng.uniform(-6, 6)
        elif kind == "ties":  # many equal differences, zeros of both signs included
            table = rng.integers(0, 3, size=1 << m).astype(float)
            table[rng.random(1 << m) < 0.2] = -0.0
        else:
            w = rng.uniform(size=max(m, 1))
            table = np.sqrt([sum(w[i] for i in range(m) if s >> i & 1) for s in range(1 << m)])
        # the differences of any table, also of one that construction refuses
        unchecked = SimpleNamespace(m=m, table=table)
        want = diff_extremes(unchecked)
        assert same_floats(objective.SetFunction.differences.func(unchecked), want)
        if want[2] > objective._SUBMODULAR_TOL * float(np.max(table)):
            with pytest.raises(InputError, match=NOT_SUBMODULAR):
                objective.SetFunction(m, table)
        else:
            assert same_floats(objective.SetFunction(m, table).differences, want)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cover=coverage_instances())
    def test_coverage_tables_match_the_loops(self, cover):
        sf = coverage_function(*cover)
        assert same_floats(sf.table, group_loop_table(*cover))
        assert same_floats(sf.differences, diff_extremes(sf))

    def test_sixteen_sets(self):
        # 16 sets over 300 elements: some 300 groups, some 870 subsets per block, a
        # 65,536-entry table and a 120-pair DR check
        cover = random_coverage(np.random.default_rng(16), 16, 300)
        sf = coverage_function(*cover)
        assert len(objective._coverage_groups(*cover)[1]) > 100
        assert same_floats(sf.table, group_loop_table(*cover))
        assert same_floats(sf.differences, diff_extremes(sf))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(cover=coverage_instances(), data=st.data())
    def test_scores_at_any_masks_match_the_table(self, cover, data):
        # any order, repeats, and a single subset
        m, masks, weights = objective._coverage_groups(*cover)
        S = np.array(data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=40)), dtype=int)
        table = group_loop_table(*cover)
        f = objective.Coverage(m, masks, weights)
        assert same_floats(f.values(S), table[S])
        for s in S[:3]:
            assert same_floats(f.values([s]), table[[s]])

    def test_twenty_sets_at_random_masks(self):
        # 20 sets over 4,096 elements, the size of CI's coverage: some 2,000 groups, scored
        # at 300 masks, the empty and the full set among them, in one batch and one by one
        rng = np.random.default_rng(20)
        cover = random_coverage(rng, 20, 4096)
        m, masks, weights = objective._coverage_groups(*cover)
        assert m == 20 and masks.size > 1000
        S = np.concatenate([[0, (1 << m) - 1], rng.integers(0, 1 << m, size=298)])
        table = group_loop_table(*cover, S)
        f = objective.Coverage(m, masks, weights)
        assert same_floats(f.values(S), table)
        for i in range(0, S.size, 30):
            assert same_floats(f.values(S[i:i + 1]), table[i:i + 1])
            assert f.values(S[i]) == table[i]


@pytest.mark.parametrize("m", [0, 1, 5, 20])
def test_corner_rows_are_the_indicators_of_their_masks(m):
    # the empty and the full set, a repeat, and every mask below 8 that fits
    masks = [0, (1 << m) - 1, (1 << m) - 1, *range(min(8, 1 << m))]
    X = objective.corners(masks, m)
    assert X.shape == (len(masks), m) and X.dtype == float
    for row, mask in zip(X, masks):
        assert row.tolist() == [1.0 if mask & (1 << i) else 0.0 for i in range(m)]
    assert objective.corners(masks[1], m).tolist() == [1.0] * m  # a scalar mask is one row
    assert objective.corners(5, 3).tolist() == [1.0, 0.0, 1.0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cover=coverage_instances(), data=st.data())
def test_coverage_closed_form_matches_its_table(cover, data):
    F, sf = make_coverage(*cover), coverage_function(*cover)
    table = multilinear_extension(sf)
    X = data.draw(unit_points(sf.m))
    tol = 1e-12 * (1.0 + sf.max_value())
    assert F.n == sf.m and F.monotone
    np.testing.assert_allclose(F.values(X), table.values(X), rtol=0.0, atol=tol)
    for x in X:
        assert abs(F.value(x) - table.value(x)) <= tol
        np.testing.assert_allclose(F.grad(x), table.grad(x), rtol=0.0, atol=tol)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cover=coverage_instances(), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_coverage_L_bounds_the_hessian(cover, data, seed):
    # L is ||P||_2 for the closed form and Gershgorin for the table route; at x = 0 the
    # closed form's Hessian is -P, so there its bound is tight
    F, sf = make_coverage(*cover), coverage_function(*cover)
    table = multilinear_extension(sf)
    tol = 1e-12 * (1.0 + sf.max_value())
    for x in [np.zeros(sf.m), *data.draw(unit_points(sf.m, max_size=3))]:
        norm = float(np.linalg.norm(pinned_hessian(table, x), 2)) if sf.m else 0.0
        assert norm <= F.L + tol and F.L <= table.L * (1.0 + 1e-11) + tol
    for G in (F, table):
        assert empirical_smoothness(G, samples=20, seed=seed) <= G.L * (1.0 + 1e-9) + tol


@settings(max_examples=8, deadline=None, derandomize=True)
@given(cover=coverage_instances(min_m=6), seed=st.integers(0, 2 ** 32 - 1))
def test_coverage_rows_match_single_points_across_blocks(cover, seed):
    subsets, weights, n_elements = cover
    subsets[0].append(n_elements)  # one more element, of weight 1, makes a group of set 0
    F = make_coverage(subsets, weights + [1.0], n_elements + 1)
    # a group has at least one member, so a block holds at most this many rows less one
    rows = objective._COVERAGE_BLOCK // F.n + 1
    X = np.random.default_rng(seed).uniform(size=(rows, F.n))
    X[::7] = np.round(X[::7])  # corners and faces
    assert np.array_equal(F.values(X), [F.value(x) for x in X])


def test_coverage3_gradient_ties_exactly_on_the_diagonal():
    # at (r, r, 0) each partial of coverage3 is 2 - r; the lowest-index tie rule of the
    # LMO then picks {0, 1} at every monotone step, so x_2 stays 0
    F = desk.bundled_instances()[0].objective
    for r in np.linspace(0.0, 1.0, 1001):
        g = F.grad([r, r, 0.0])
        assert g[0] == g[1] == g[2] == pytest.approx(2.0 - r, abs=1e-15)
    traj = run(F, CardinalityBody(3, 2), preset("monotone"), family_spec("monotone"), 200)
    assert np.all(traj.x[:, 2] == 0.0)


def _random_cover(m: int, n_elements: int, p: float, seed: int):
    """(subsets, weights, n_elements): each set holds each element with probability p."""
    rng = np.random.default_rng(seed)
    cover = rng.random((m, n_elements)) < p
    weights = rng.uniform(0.5, 2.0, n_elements).tolist()
    return [np.flatnonzero(row).tolist() for row in cover], weights, n_elements


@pytest.mark.parametrize("m,n_elements,p", [(3, 4, 0.5), (8, 20, 0.3), (12, 48, 0.25)])
def test_coverage_gradient_matches_the_table_on_faces_and_corners(m, n_elements, p):
    # every coordinate is 0, 1 or interior, so some members' factors are exactly 0 or 1
    cover = _random_cover(m, n_elements, p, seed=m)
    F, sf = make_coverage(*cover), coverage_function(*cover)
    table = multilinear_extension(sf)
    rng = np.random.default_rng(m)
    X = rng.choice([0.0, 1.0], size=(40, m))
    X[20:] = np.where(rng.random((20, m)) < 0.5, X[20:], rng.uniform(size=(20, m)))
    tol = 1e-12 * (1.0 + sf.max_value())
    for x in [*X, np.zeros(m), np.ones(m)]:
        np.testing.assert_allclose(F.grad(x), table.grad(x), rtol=0.0, atol=tol)


def test_coverage_gradient_of_one_member_groups():
    # COVER2's elements 0 and 2 each lie in one set, padded to the largest group's 2 members
    # by the factor 1: the extension is 2 x0 + 2 x1 - x0 x1
    F = make_coverage([[0, 1], [1, 2]])
    for x in ([0.0, 0.0], [1.0, 1.0], [0.25, 0.75], [1.0, 0.0]):
        np.testing.assert_allclose(F.grad(x), [2.0 - x[1], 2.0 - x[0]], rtol=0.0, atol=1e-15)
    # every group has one member: the product over no other member is 1, and F is modular
    F = make_coverage([[0], [1, 2]], [2.0, 3.0, 0.5])
    for x in ([0.0, 0.0], [1.0, 1.0], [0.3, 0.6]):
        assert F.grad(x).tolist() == [2.0, 3.5]


@pytest.mark.parametrize("subsets,expected", [([], []), ([[], []], [0.0, 0.0]),
                                              ([[], [0]], [0.0, 1.0])])
def test_coverage_gradient_without_groups_or_members(subsets, expected):
    # no set, no group, or a set without elements: its partial is an empty sum
    g = make_coverage(subsets).grad(np.full(len(subsets), 0.5))
    assert g.shape == (len(subsets),) and g.tolist() == expected


def test_coverage20_gradient_matches_a_direct_sum():
    # 20 sets over the 4,096-element cap: each element's term, summed literally over its sets
    subsets, weights, n_elements = _random_cover(20, 4096, 0.15, seed=0)
    F = make_coverage(subsets, weights, n_elements)
    covers = [[] for _ in range(n_elements)]
    for i, s in enumerate(subsets):
        for e in s:
            covers[e].append(i)
    rng = np.random.default_rng(1)
    for x in [rng.uniform(size=20), np.round(rng.uniform(size=20)), np.zeros(20)]:
        direct = np.zeros(20)
        for w, members in zip(weights, covers):
            for i in members:
                direct[i] += w * math.prod(1.0 - x[l] for l in members if l != i)
        np.testing.assert_allclose(F.grad(x), direct, rtol=1e-12, atol=1e-12)


def test_coverage_closed_form_L_is_the_pair_weight_norm():
    # P = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]: element 1 is in sets 0 and 1, element 2 in 1 and 2
    assert make_coverage([[0, 1], [1, 2], [2, 3]]).L == pytest.approx(math.sqrt(2.0), rel=1e-11)
    assert make_coverage([[0], [1]]).L == 0.0  # disjoint sets: a modular extension


@pytest.mark.parametrize("build", [coverage_function, make_coverage])
@pytest.mark.parametrize("args,error,message", [
    (([[0]] * 21,), CapacityError, "at most 20 covering sets supported, got 21"),
    (([[0], [4096]],), CapacityError, "universe of 4097 elements exceeds"),
    (([[0], [1]], None, 5000), CapacityError, "universe of 5000 elements exceeds"),
    (([[0], [1]], [1.0, -1.0]), InputError, "finite and nonnegative"),
    (([[0], [1]], [1.0, np.nan]), InputError, "finite and nonnegative"),
    (([[0], [1]], [1.0, np.inf]), InputError, "finite and nonnegative"),
    (([[0], [-1]], None, 3), InputError, "nonnegative indices"),
    (([[0, 1], [1]], [1e308, 1e308]), InputError, "total element weight overflows float64"),
], ids=["sets", "universe", "n-elements", "negative", "nan", "inf", "element", "overflow"])
def test_coverage_input_checks_are_shared(build, args, error, message):
    with pytest.raises(error, match=message):
        build(*args)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_random_quadratics_are_dr(seed, n):
    rng = np.random.default_rng(seed)
    H = -np.abs(rng.normal(size=(n, n)))
    H = (H + H.T) / 2.0
    F = make_quadratic(H, rng.uniform(0.0, 2.0, size=n))
    x = rng.uniform(size=n)
    y = rng.uniform(size=n)
    assert F.value(x) >= -1e-12
    assert check_dr_inequality(F, x, y) >= -1e-9
    assert float(np.linalg.norm(F.grad(x) - F.grad(y))) <= F.L * float(
        np.linalg.norm(x - y)) + 1e-9


class TestInstanceJson:
    def test_coverage_roundtrip(self):
        F, sf = instance_from_json({"kind": "coverage", "subsets": [[0, 1], [1, 2]]})
        assert sf.values(np.arange(4)).tolist() == COVER2.table.tolist()
        assert F.value([1.0, 1.0]) == pytest.approx(3.0)

    def test_coverage_is_evaluated_in_closed_form(self):
        F, sf = instance_from_json({"kind": "coverage", "subsets": [[0, 1], [1, 2]],
                                    "weights": [1.0, 2.0, 0.5]})
        assert F.L == pytest.approx(2.0, rel=1e-11)
        masks = np.arange(4)
        assert F.values(objective.corners(masks, 2)).tolist() == sf.values(masks).tolist()

    def test_coverage_set_function_shares_the_extension_groups(self, coverage_builds):
        F, sf = instance_from_json({"kind": "coverage", "subsets": [[0, 1], [1, 2]]})
        assert isinstance(sf, objective.Coverage) and sf.m == 2
        assert sf.values(np.arange(4)).tolist() == COVER2.table.tolist()
        assert coverage_builds == {"groups": 1, "table": 0}

    @pytest.mark.parametrize("instance,message", [
        ({"subsets": [[0]] * 21}, "at most 20 covering sets supported, got 21"),
        ({"subsets": [[0], [4096]]}, "universe of 4097 elements exceeds"),
        ({"subsets": [[0], [-1]]}, "subset elements must be nonnegative indices"),
        ({"subsets": [[0], [3]], "n_elements": 2},
         "subset references an element outside the universe"),
        ({"subsets": [[0]], "weights": [1.0, 1.0]}, r"need one weight per universe element \(1\)"),
        ({"subsets": [[0], [1]], "weights": [-1.0, 1.0]},
         "element weights must be finite and nonnegative"),
        ({"subsets": [[0], [1]], "weights": [1e308, 1e308]},
         "the total element weight overflows float64"),
    ], ids=["sets", "universe", "negative", "outside", "weights", "negative-weight", "overflow"])
    def test_malformed_coverage_is_refused_at_load(self, monkeypatch, instance, message):
        monkeypatch.setattr(objective, "coverage_function", None)  # never called
        with pytest.raises((InputError, CapacityError), match=message):
            instance_from_json({"kind": "coverage", **instance})

    def test_table_kind(self):
        F, sf = instance_from_json({"kind": "table", "m": 2, "values": [0, 1, 1, 1.5]})
        assert isinstance(sf, objective.SetFunction)  # the table checked at load
        assert sf.table[0b11] == 1.5 and sf.values(np.array([3, 0])).tolist() == [1.5, 0.0]
        assert F.value([1.0, 0.0]) == pytest.approx(1.0)

    def test_smoothness_override(self):
        # an L below the true constant would make the additive term false; no override exists
        with pytest.raises(InputError, match="'L'"):
            instance_from_json({"kind": "coverage", "subsets": [[0], [1]], "L": 7.5})

    def test_quadratic_kind(self):
        F, build = instance_from_json(
            {"kind": "quadratic", "H": [[-2, 0], [0, -2]], "c": [1, 0.5]})
        assert build is None
        assert F.value([0.5, 0.25]) == pytest.approx(0.8125)

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            instance_from_json({"kind": "mystery"})


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_quadratic_L_bounds_the_spectral_norm(seed, n):
    # L must bound the spectral norm from above, not approach it from below
    rng = np.random.default_rng(seed)
    H = -np.abs(rng.normal(size=(n, n)))
    H = (H + H.T) / 2.0
    F = make_quadratic(H, rng.uniform(0.0, 2.0, size=n))
    assert F.L >= float(np.max(np.abs(np.linalg.eigvalsh(H))))
    # the sampled ratio differences two gradients, so it carries their round-off
    assert F.L * (1.0 + 1e-9) >= empirical_smoothness(F, samples=20, seed=seed)
