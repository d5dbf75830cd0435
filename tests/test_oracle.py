import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from drsub import (BoxBody, CapacityError, CardinalityBody, ConfigurationError, ConvexBody,
                   InputError, PackingBody, PartitionBody, coverage_function, grid_search,
                   make_concave_modular, make_quadratic, multilinear_extension, oracle,
                   set_bruteforce, set_function_from_table)
from drsub import desk

from conftest import brute_grid_search, filtered_mesh, full_mesh_grid_search
from drsub.objective import MESH_CHUNK

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

    def test_rejects_a_set_function_that_is_not_submodular(self):
        # the extension x1 x2 reaches 0.25 at (0.5, 0.5), above every feasible subset's 0
        with pytest.raises(InputError, match="submodular"):
            set_bruteforce(set_function_from_table([0.0, 0.0, 0.0, 1.0]), CardinalityBody(2, 1))


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

    def test_slack_covers_off_mesh_optimum(self):
        # true maximizer (0.45, 0.25) is off the mesh in x1
        f = make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [0.9, 0.5])
        cert = grid_search(f, BoxBody(np.ones(2)))
        true_opt = f.value([0.45, 0.25])
        assert cert.value <= true_opt
        assert true_opt <= cert.value + cert.slack

    def test_dimension_capacity(self):
        f = make_quadratic(np.zeros((7, 7)), np.ones(7))
        with pytest.raises(CapacityError):
            grid_search(f, BoxBody(np.ones(7)))

    def test_feasible_maximizer(self):
        body = CardinalityBody(2, 1)
        cert = grid_search(QUAD, body)
        assert body.contains(cert.maximizer)

    def test_exact_ties_go_to_the_lexicographically_smallest_point(self):
        # F = 2s - s^2 with s = x1 + x2 peaks on the line s = 1, where every
        # dyadic mesh point ties exactly
        F = make_quadratic([[-2.0, -2.0], [-2.0, -2.0]], [2.0, 2.0])
        for body in (BoxBody(np.ones(2)), CardinalityBody(2, 1)):
            cert = grid_search(F, body)
            assert cert.value == 1.0
            assert cert.maximizer.tolist() == [0.0, 1.0]

    def test_five_dimensions_sweep_the_whole_mesh_at_width_one_sixteenth(self):
        rng = np.random.default_rng(5)
        H = -np.abs(rng.normal(size=(5, 5)))
        F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.5, 1.5, size=5))
        cert = grid_search(F, CardinalityBody(5, 2))
        ascent = np.sum(np.maximum(F.grad(np.zeros(5)), 0.0))
        assert cert.slack == pytest.approx((1 / 16) * ascent, rel=1e-12)

    def test_six_dimensions_within_a_second(self):
        rng = np.random.default_rng(6)
        H = -np.abs(rng.normal(size=(6, 6)))
        F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.5, 1.5, size=6))
        start = time.perf_counter()
        cert = grid_search(F, CardinalityBody(6, 2))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"n=6 grid search took {elapsed:.2f}s"
        assert CardinalityBody(6, 2).contains(cert.maximizer)


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
        # sampling plus slack must dominate it; every sample lies below the
        # optimum, so below value + slack.  The last five cases have some
        # dF/dx_i(0) < 0, which puts the optimum on a face, so they also
        # sample the faces (a third of each coordinate's draws is clipped)
        for c_low, spread in [(0.5, 0.0)] * 5 + [(-1.0, 0.25)] * 5:
            H = -np.abs(rng.normal(size=(2, 2)))
            H = (H + H.T) / 2.0
            f = make_quadratic(H, rng.uniform(c_low, 1.5, size=2))
            body = BoxBody(np.ones(2))
            cert = grid_search(f, body)
            sampled = max(f.value(np.clip(rng.uniform(-spread, 1.0 + spread, size=2), 0.0, 1.0))
                          for _ in range(400))
            assert cert.value <= sampled + cert.slack
            assert sampled <= cert.value + cert.slack

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


@st.composite
def grid_cases(draw):
    """An objective, a body and a full-sweep cap for a small grid search."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["quadratic", "symmetric", "concave_modular", "coverage"]))
    if kind == "quadratic":
        H = -np.abs(rng.normal(size=(n, n)))
        F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.0, 2.0, size=n))
    elif kind == "symmetric":  # dyadic coefficients: mirrored mesh points tie exactly
        a, b = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])), draw(st.sampled_from([0.5, 1.0, 1.5]))
        F = make_quadratic(-a * np.ones((n, n)), np.full(n, b))
    elif kind == "concave_modular":
        F = make_concave_modular(rng.uniform(0.1, 2.0, size=(2, n)))
    else:  # unit weights: exact values at mesh points, with many ties
        F = multilinear_extension(coverage_function(
            [sorted(rng.choice(4, size=2, replace=False).tolist()) for _ in range(n)], None, 4))
    body = draw(st.sampled_from(["box", "partition", "packing"]))
    if body == "box":
        C = BoxBody(rng.choice([0.5, 0.75, 1.0, rng.uniform(0.3, 1.0)], size=n))
    elif body == "partition":
        cut = int(rng.integers(0, n + 1))
        blocks = (tuple(range(cut)), tuple(range(cut, n)))
        C = PartitionBody(n, blocks, tuple(int(rng.integers(0, len(b) + 1)) for b in blocks))
    else:
        C = PackingBody(rng.uniform(0.1, 1.0, size=(2, n)), rng.uniform(0.3, 1.5, size=2))
    return F, C, draw(st.sampled_from([100, 2000]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=grid_cases())
def test_batched_grid_matches_the_per_point_reference(case):
    F, C, cap = case
    # a small cap keeps the per-point reference fast and reaches the windows
    with mock.patch.object(oracle, "_FULL_SWEEP_CAP", cap):
        cert = grid_search(F, C)
        value, maximizer = brute_grid_search(F, C)
    assert cert.maximizer.tolist() == maximizer.tolist()
    assert cert.value == value


class _CoveringBody(ConvexBody):
    """{x in [0,1]^2 : x_0 + x_1 >= 1}, written as the row -x_0 - x_1 <= -1: not down-closed."""

    n = 2

    def __init__(self):
        self._set_inequalities(np.ones(2), np.array([[-1.0, -1.0]]), np.array([-1.0]))


def test_grid_refuses_a_body_with_a_negative_coefficient():
    # the slack rounds the optimum down and the walk prunes by monotone membership:
    # both need a nonnegative inequality matrix
    body = _CoveringBody()
    assert body.contains([0.5, 0.5]) and not body.contains([0.0, 0.0])
    with pytest.raises(ConfigurationError, match="down-closed"):
        grid_search(QUAD, body)


@st.composite
def mesh_cases(draw):
    """A body and a mesh: the full sweep's linspace axes, or a window that may start above 0."""
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    body = draw(st.sampled_from(["box", "partition", "packing"]))
    if body == "box":
        C = BoxBody(rng.choice([0.5, 0.75, 1.0, rng.uniform(0.3, 1.0)], size=n))
    elif body == "partition":
        cut = int(rng.integers(0, n + 1))
        blocks = (tuple(range(cut)), tuple(range(cut, n)))
        C = PartitionBody(n, blocks, tuple(int(rng.integers(0, len(b) + 1)) for b in blocks))
    else:
        C = PackingBody(rng.uniform(0.1, 1.0, size=(2, n)), rng.uniform(0.3, 1.5, size=2))
    if draw(st.booleans()):  # the full sweep's axes, kept to at most 35,937 points
        steps = draw(st.sampled_from([s for s in (8, 16, 32) if (s + 1) ** n <= 40_000]))
        return C, [np.linspace(0.0, 1.0, steps + 1)] * n
    width = draw(st.sampled_from([1 / 16, 1 / 32]))
    centre = rng.integers(0, round(1 / width) + 1, size=n) * width
    lo, hi = np.maximum(centre - 2.0 * width, 0.0), np.minimum(centre + 2.0 * width, 1.0)
    return C, [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i])) for i in range(n)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=mesh_cases())
@example(case=(BoxBody(np.full(4, 0.75)), [np.linspace(0.0, 1.0, 17)] * 4))  # 13^4 rows, 7 blocks
@example(case=(PartitionBody(2, ((0,), (1,)), (1, 0)),  # a zero capacity, a window above 0:
                [np.linspace(0.0, 1.0, 9), np.array([0.25, 0.5])]))  # nothing to yield
def test_feasible_mesh_is_the_filtered_mesh(case):
    C, axes = case
    blocks = list(oracle._feasible_mesh(C, axes))
    assert all(1 <= X.shape[0] <= MESH_CHUNK for X in blocks)
    got = np.concatenate(blocks) if blocks else np.zeros((0, C.n))
    expected = filtered_mesh(C, axes)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("body", ["cardinality", "packing"])
def test_certificates_equal_the_full_mesh_reference_at_benchmark_scale(body):
    # an n=5 cardinality quadratic sweeps 17^5 points and an n=4 packing one 33^4,
    # at the default full-sweep cap, then refines in windows, as --opt grid does
    rng = np.random.default_rng(18)
    n = 5 if body == "cardinality" else 4
    H = -rng.uniform(0.0, 1.0, size=(n, n))
    F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.2, 1.5, size=n))
    if body == "cardinality":
        C = CardinalityBody(5, 2)
    else:
        A = rng.uniform(0.0, 1.0, size=(2, 4))
        C = PackingBody(A, 0.5 * A.sum(axis=1))
    cert = grid_search(F, C)
    value, maximizer, slack, resolution = full_mesh_grid_search(F, C)
    assert cert.value == value
    assert cert.maximizer.tolist() == maximizer.tolist()
    assert (cert.slack, cert.resolution) == (slack, resolution)
