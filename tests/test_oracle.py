import dataclasses
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from drsub import (BoxBody, CapacityError, CardinalityBody, ConfigurationError, ConvexBody,
                   InputError, PackingBody, PartitionBody, coverage_function, grid_search,
                   make_concave_modular, make_quadratic, multilinear_extension, oracle,
                   set_bruteforce, set_function_from_table)
from drsub import desk, objective

from conftest import brute_grid_search, cut_table, filtered_mesh, full_mesh_grid_search
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

    def test_certificate_ignores_a_later_edit_of_the_table(self):
        values = np.array([0.0, 1.0, 1.0, 1.5])
        sf = set_function_from_table(values)
        F = multilinear_extension(sf)
        values[1] = 10.0
        assert set_bruteforce(sf, CardinalityBody(2, 1)).value == 1.0
        assert grid_search(F, CardinalityBody(2, 1)).value == 1.0

    def test_capacity_limit(self):
        # the cap counts feasible subsets, not elements: 1 + 17 + 136 = 154 of them here
        sf = set_function_from_table(np.arange(1 << 17) >> 16 & 1)  # f = [16 in S]
        cert = set_bruteforce(sf, CardinalityBody(17, 2))
        assert cert.value == 1.0 and cert.subset == (16,)

    def test_all_sixteen_element_subsets_are_accepted(self):
        f = objective.Coverage(16, np.array([1 << 15, 3]), np.array([2.0, 1.0]))
        cert = set_bruteforce(f, BoxBody(np.ones(16)))  # exactly 65,536 subsets
        assert cert.value == 3.0 and cert.subset == (0, 15)

    def test_seventeen_elements_on_the_unit_box_are_refused(self):
        f = objective.Coverage(17, np.array([1]), np.array([1.0]))
        with pytest.raises(CapacityError, match=r"at most 65536 feasible subsets, and this "
                                                 r"BoxBody has 131072$"):
            set_bruteforce(f, BoxBody(np.ones(17)))

    def test_rejects_a_set_function_that_is_not_submodular(self):
        # the extension x1 x2 reaches 0.25 at (0.5, 0.5), above every feasible subset's 0;
        # such a table is refused where it is built, so no certificate can be made for it
        with pytest.raises(InputError, match="^table values are not submodular$"):
            set_function_from_table([0.0, 0.0, 0.0, 1.0])

    def test_certificate_json_lists_every_field_without_a_deep_copy(self, monkeypatch):
        cert = set_bruteforce(COVER3, CardinalityBody(3, 2))
        monkeypatch.setattr(dataclasses, "asdict", mock.Mock(side_effect=AssertionError))
        assert cert.to_json() == {"value": 4.0, "maximizer": [1.0, 0.0, 1.0],
                                  "method": "set-bruteforce", "slack": 0.0,
                                  "resolution": None, "subset": (0, 2)}
        assert list(cert.to_json()) == ["value", "maximizer", "method", "slack", "resolution",
                                        "subset"]


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
def subset_cases(draw):
    """A coverage or table set function on m <= 12 elements and a body whose subsets it scores.

    Unit weights and the min of a modular sum with a cap both tie many subsets.  A
    partition block may have capacity 0 or one at or above its size.
    """
    m = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    subsets = [np.flatnonzero(rng.random(16) < 0.2).tolist() for _ in range(m)]
    weights = {} if draw(st.booleans()) else {"weights": rng.uniform(0.0, 3.0, size=16).tolist()}
    kind = draw(st.sampled_from(["coverage", "coverage-table", "capped"]))
    if kind == "coverage":
        f = objective.instance_from_json({"kind": "coverage", "subsets": subsets,
                                          "n_elements": 16, **weights})[1]
    elif kind == "coverage-table":
        f = coverage_function(subsets, weights.get("weights"), 16)
    else:
        modular = (np.arange(1 << m)[:, None] >> np.arange(m) & 1) @ rng.integers(0, 3, size=m)
        f = set_function_from_table(np.minimum(modular, rng.integers(1, 2 * m + 2)))
    body = draw(st.sampled_from(["cardinality", "partition", "box"]))
    if body == "cardinality":
        C = CardinalityBody(m, draw(st.integers(0, m + 1)))
    elif body == "partition":
        of = rng.integers(0, draw(st.integers(1, m)), size=m)
        blocks = [np.flatnonzero(of == b).tolist() for b in np.unique(of)]
        C = PartitionBody(m, blocks, [draw(st.integers(0, len(b) + 1)) for b in blocks])
    else:
        C = BoxBody(np.ones(m))
    return f, C


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=subset_cases())
def test_feasible_subsets_match_the_full_table_scan(case):
    # the argmax over the full table, restricted to the body's 0/1 points, as the oracle
    # once scanned it: the lowest bitmask wins ties
    f, C = case
    table = f.values(np.arange(1 << f.m))
    X = objective.corners(np.arange(1 << f.m), f.m)
    best = int(np.argmax(np.where(C.contains_batch(X), table, -np.inf)))
    cert = set_bruteforce(f, C)
    assert cert.value.hex() == float(table[best]).hex()
    assert cert.subset == tuple(int(i) for i in np.flatnonzero(X[best]))
    assert cert.maximizer.tolist() == X[best].tolist()


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
    keep_all = lambda P, i, runs: np.ones(P.shape[0], dtype=bool)
    blocks = list(oracle._feasible_mesh(C, axes, keep_all))
    assert all(1 <= X.shape[0] <= MESH_CHUNK for X in blocks)
    got = np.concatenate(blocks) if blocks else np.zeros((0, C.n))
    expected = filtered_mesh(C, axes)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@st.composite
def bound_cases(draw):
    """An objective, a body and mesh axes (as mesh_cases draws them), a level and prefix rows
    at that level."""
    C, axes = draw(mesh_cases())
    n = C.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["quadratic", "concave_modular", "coverage", "table"]))
    if kind == "quadratic":  # often decreasing along an axis, so both signs of gain occur
        H = -np.abs(rng.normal(size=(n, n)))
        F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.0, 2.0, size=n))
    elif kind == "concave_modular":
        F = make_concave_modular(rng.uniform(0.1, 2.0, size=(2, n)))
    elif kind == "coverage":
        F = multilinear_extension(coverage_function(
            [sorted(rng.choice(4, size=2, replace=False).tolist()) for _ in range(n)], None, 4))
    else:  # a graph cut: submodular and not monotone
        W = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
        F = multilinear_extension(set_function_from_table(cut_table(W + W.T)))
    i = draw(st.integers(0, n - 1))
    # prefixes the walk can meet: points of the feasible mesh, with the later
    # coordinates lowered to their axes' first values
    points = filtered_mesh(C, axes)
    assume(points.shape[0] > 0)
    P = points[rng.integers(0, points.shape[0], size=4)]
    P[:, i:] = [a[0] for a in axes[i:]]
    return F, C, axes, i, P


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=bound_cases())
def test_corner_bounds_hold_over_every_feasible_completion_on_the_mesh(case):
    F, C, axes, i, P = case
    runs = oracle._leading_runs(C, P, i, axes[i:])
    lower = oracle._corner_bound(F, axes, P, i, runs, False)
    upper = oracle._corner_bound(F, axes, P, i, runs, True)
    for row, run, low, up in zip(P, runs, lower, upper):
        for k, a in enumerate(axes[i:]):  # the run along each later axis, counted point by point
            probes = np.repeat(row[None], a.size, axis=0)
            probes[:, i + k] = a
            assert run[k] == C.contains_batch(probes).sum()
        best = F.values(filtered_mesh(C, [*row[:i, None], *axes[i:]])).max()
        margin = oracle._PRUNE_TOL * (abs(best) + 1.0)
        assert low >= best - margin
        assert up >= best - margin


def _benchmark_scale_case(body, draw):
    """A quadratic on an n=5 cardinality body (17^5 points), or an n=4 packing or box one (33^4)."""
    rng = np.random.default_rng(draw)
    n = 5 if body == "cardinality" else 4
    H = -rng.uniform(0.0, 1.0, size=(n, n))
    F = make_quadratic((H + H.T) / 2.0, rng.uniform(0.2, 1.5, size=n))
    if body == "cardinality":
        return F, CardinalityBody(5, 2)
    if body == "box":
        return F, BoxBody(np.ones(4))
    A = rng.uniform(0.0, 1.0, size=(2, 4))
    return F, PackingBody(A, 0.5 * A.sum(axis=1))


def _full_mesh_maximizer(F, C):
    """The maximizer of full_mesh_grid_search, after checking grid_search's certificate against it."""
    cert = grid_search(F, C)
    value, maximizer, slack, resolution = full_mesh_grid_search(F, C)
    assert cert.value == value
    assert cert.maximizer.tolist() == maximizer.tolist()
    assert (cert.slack, cert.resolution) == (slack, resolution)
    return maximizer.tolist()


@pytest.mark.parametrize("body", ["cardinality", "packing", "box", "sqrt4-partition"])
def test_certificates_equal_the_full_mesh_reference_at_benchmark_scale(body):
    # at the default full-sweep cap, then refining in windows, as --opt grid does;
    # the unit box keeps all 1,185,921 points of its mesh, and the desk's concave-modular
    # partition instance is the one drsub check certifies
    if body == "sqrt4-partition":
        desk_case = next(i for i in desk.bundled_instances() if i.name == body)
        cases = [(desk_case.objective, desk_case.body)]
    else:
        cases = [_benchmark_scale_case(body, draw) for draw in (18, 19, 20)]
    for F, C in cases:
        _full_mesh_maximizer(F, C)


@pytest.mark.parametrize("body, draw, unpruned", [
    # the unpruned walk passes 1,185,921 rows here; the stride-2 seed and the corner bounds
    # pass 162,120 (84,610 scored, 77,510 probes, as measured when this test was written).
    # The bounds are separable, so strongly coupled coordinates loosen them: draw 18 passes
    # 775,280 rows
    ("box", 19, 33 ** 4),
    # the unpruned walk passes 376,357 rows; the bounds, which range each coordinate over
    # its feasible run only, pass 99,500 (28,586 scored, 70,914 probes).  Bounds over the
    # whole box passed 438,977 here
    ("packing", 18, 376_357),
])
def test_the_sweep_passes_under_half_the_rows_of_the_unpruned_walk(body, draw, unpruned):
    F, C = _benchmark_scale_case(body, draw)
    rows = []
    counted = dataclasses.replace(F, values_fn=lambda X: rows.append(X.shape[0]) or F.values_fn(X))
    grid_search(counted, C)
    assert sum(rows) < unpruned // 2


def _supermodular_by_delta(w0, w1, w2):
    """f = w0 [0 in S] + w1 [1 in S] + w2 [2 in S] + delta [{1, 2} <= S], with delta just
    under the 1e-9 max f of second difference that instance_from_json admits in a table."""
    delta = 0.999 * objective._SUBMODULAR_TOL * (w0 + w1 + w2)
    return [w0 * (s & 1) + w1 * (s >> 1 & 1) + w2 * (s >> 2 & 1) + delta * (s >> 1 == 3)
            for s in range(8)]


@pytest.mark.parametrize("table, body, winner", [
    # the extension's winner (21/32, 1, 1) lies off the stride-2 seed, whose best
    # (5/8, 1, 1) trails it by w0/32 < delta, and the lower corner of the prefix
    # x_0 = 21/32 bounds its completions only up to delta: without a margin that prefix
    # would be dropped (w0 = 20e-9, delta ~ 2e-9)
    (_supermodular_by_delta(20e-9, 1.0, 1.0), BoxBody(np.array([0.66, 1.0, 1.0])),
     [21 / 32, 1.0, 1.0]),
    # x_0 stays at 0, so max f = 1e6 dwarfs the incumbent ~0.5 and delta ~ 1e-3; the
    # seed's best (0, 5/8, 1) trails the winner (0, 21/32, 1) by 6e-5, and the lower
    # corner of the prefix x_0 = 0 falls below the seed's best by 2.5e-4: a margin of
    # 1e-6 (|incumbent| + 1) would drop it, the box-wide ascent in the margin keeps it
    (_supermodular_by_delta(1e6, 1e-3, 0.5),
     PackingBody(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([1e-3, 0.66])),
     [0.0, 21 / 32, 1.0]),
], ids=["flat", "large-scale"])
def test_a_table_just_inside_the_submodular_tolerance_keeps_its_certificate(table, body, winner):
    F, sf = objective.instance_from_json({"kind": "table", "values": table})
    assert sf.differences[2] > 0.99 * objective._SUBMODULAR_TOL * sf.max_value()
    assert _full_mesh_maximizer(F, body) == winner
