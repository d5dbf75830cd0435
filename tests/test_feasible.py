import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (BoxBody, CardinalityBody, InputError, InvariantError, PackingBody,
                   PartitionBody, body_from_json, lmo_bruteforce)
from drsub.errors import CapacityError
from drsub.feasible import simplex_solve, vertices

from conftest import bland_simplex, vertex_pairs_diameter

BOX3 = BoxBody(np.ones(3))
CARD32 = CardinalityBody(3, 2)
PART = PartitionBody(4, ((0, 1), (2, 3)), (1, 1))
PACK = PackingBody(np.array([[1.0, 1.0]]), np.array([1.0]))


def all_bodies():
    return [BOX3, CARD32, PART, PACK,
            BoxBody(np.array([0.5, 1.0])),
            PackingBody(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([2.0, 2.5]))]


class TestContains:
    def test_cardinality_vertex(self):
        assert CARD32.contains([1.0, 1.0, 0.0])

    def test_cardinality_budget_violation(self):
        assert not CARD32.contains([1.0, 1.0, 0.5])

    @pytest.mark.parametrize("body", all_bodies())
    def test_origin_always_feasible(self, body):
        assert body.contains(np.zeros(body.n))

    def test_tolerance(self):
        assert CARD32.contains([1.0, 1.0, 5e-10])

    def test_box_upper(self):
        b = BoxBody(np.array([0.5, 1.0]))
        assert b.contains([0.5, 1.0])
        assert not b.contains([0.6, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            BOX3.contains([1.0, 0.0])


#: offsets from a face: the tolerance itself, inside it, and beyond it
FACE_OFFSETS = np.array([-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9])


def near_faces(body, rng, k=100):
    """Points of the body moved onto one of its faces, then FACE_OFFSETS across it."""
    rows = []
    for _ in range(k):
        x = rng.uniform(size=body.n) * 0.5
        for off in FACE_OFFSETS:
            y = x.copy()
            if isinstance(body, PackingBody):  # scale until the tightest row reads b + off
                r = int(np.argmin(body.b / (body.A @ x)))
                y *= (body.b[r] + off) / (body.A[r] @ x)
            elif isinstance(body, PartitionBody):  # a block's budget or its unit faces bind
                b = rng.integers(len(body.blocks))
                blk = list(body.blocks[b])
                y[blk] = min(1.0, body.capacities[b] / len(blk)) + off / len(blk)
            else:  # an upper or a lower face of one coordinate
                i = rng.integers(body.n)
                y[i] = body.upper[i] + off if rng.uniform() < 0.5 else off
            rows.append(y)
    return np.array(rows)


class TestContainsBatch:
    @pytest.mark.parametrize("body", all_bodies(), ids=lambda b: type(b).__name__)
    def test_rows_match_single_points(self, body, rng):
        X = np.vstack([rng.uniform(-0.1, 1.1, size=(200, body.n)), near_faces(body, rng)])
        mask = body.contains_batch(X)
        assert mask.dtype == bool and mask.shape == (X.shape[0],)
        assert mask.tolist() == [body.contains(x) for x in X]
        assert 0 < mask.sum() < X.shape[0]

    def test_tolerance_at_a_face(self):
        X = [[1.0, 1.0, 5e-10], [1.0, 1.0, 2e-9], [1.0 + 5e-10, 0.0, 0.0],
             [1.0 + 2e-9, 0.0, 0.0], [-5e-10, 0.0, 0.0], [-2e-9, 0.0, 0.0]]
        assert CARD32.contains_batch(X).tolist() == [True, False, True, False, True, False]
        assert PACK.contains_batch([[0.5, 0.5 + 5e-10], [0.5, 0.5 + 2e-9]]).tolist() == [True, False]

    @pytest.mark.parametrize("body", all_bodies(), ids=lambda b: type(b).__name__)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rows(self, body, bad):
        X = np.zeros((3, body.n))
        X[1, 0] = bad
        with pytest.raises(InputError, match="NaN or infinity"):
            body.contains_batch(X)

    @pytest.mark.parametrize("body", all_bodies(), ids=lambda b: type(b).__name__)
    def test_far_out_rows_are_outside(self, body):
        X = np.zeros((3, body.n))
        X[1, 0], X[2, -1] = 5.0, -3.0
        assert body.contains_batch(X).tolist() == [True, False, False]

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3)])
    def test_rejects_wrong_shapes(self, shape):
        with pytest.raises(InputError, match="batch"):
            BOX3.contains_batch(np.zeros(shape))


class TestLmo:
    def test_box_sign_pattern(self):
        v = BOX3.lmo([3.0, -1.0, 0.0])
        assert v == pytest.approx([1.0, 0.0, 0.0])

    def test_cardinality_top_k(self):
        v = CARD32.lmo([3.0, 1.0, -2.0])
        assert v == pytest.approx([1.0, 1.0, 0.0])
        assert float(np.dot([3.0, 1.0, -2.0], v)) == pytest.approx(4.0)

    def test_packing_vertex(self):
        v = PACK.lmo([3.0, 1.0])
        assert v == pytest.approx([1.0, 0.0])
        assert float(np.dot([3.0, 1.0], v)) == pytest.approx(3.0)

    def test_lowest_index_tie_break(self):
        v = CardinalityBody(3, 1).lmo([2.0, 2.0, 2.0])
        assert v == pytest.approx([1.0, 0.0, 0.0])

    def test_partition_respects_blocks(self):
        v = PART.lmo([5.0, 4.0, 3.0, 2.0])
        assert v == pytest.approx([1.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("body", all_bodies())
    def test_matches_enumeration(self, body, rng):
        for _ in range(100):
            g = rng.normal(size=body.n)
            ref, _ = lmo_bruteforce(body, g)
            v = body.lmo(g)
            assert body.contains(v)
            assert float(g @ v) == pytest.approx(ref, abs=1e-9)


class TestMaskedLmo:
    def test_full_cap_equals_plain(self, rng):
        for body in all_bodies():
            for _ in range(20):
                g = rng.normal(size=body.n)
                plain = float(g @ body.lmo(g))
                masked = float(g @ body.masked_lmo(g, np.ones(body.n)))
                assert masked == pytest.approx(plain, abs=1e-12)

    def test_fractional_greedy_example(self):
        g = np.array([3.0, 1.0, -2.0])
        v = CARD32.masked_lmo(g, [0.5, 1.0, 1.0])
        assert v == pytest.approx([0.5, 1.0, 0.0])
        assert float(g @ v) == pytest.approx(2.5)

    def test_zero_cap(self):
        assert CARD32.masked_lmo([5.0, 5.0, 5.0], np.zeros(3)) == pytest.approx([0.0] * 3)

    def test_output_below_cap(self, rng):
        for body in all_bodies():
            for _ in range(20):
                cap = rng.uniform(size=body.n)
                v = body.masked_lmo(rng.normal(size=body.n), cap)
                assert np.all(v <= cap + 1e-12)
                assert body.contains(v)

    def test_cap_monotonicity(self, rng):
        for body in all_bodies():
            for _ in range(20):
                g = rng.normal(size=body.n)
                cap = rng.uniform(size=body.n)
                wider = np.minimum(cap + rng.uniform(size=body.n) * (1 - cap), 1.0)
                lo = float(g @ body.masked_lmo(g, cap))
                hi = float(g @ body.masked_lmo(g, wider))
                assert hi >= lo - 1e-12

    @pytest.mark.parametrize("body", all_bodies())
    def test_matches_enumeration(self, body, rng):
        for _ in range(100):
            g = rng.normal(size=body.n)
            cap = rng.uniform(size=body.n)
            ref, _ = lmo_bruteforce(body, g, cap)
            assert float(g @ body.masked_lmo(g, cap)) == pytest.approx(ref, abs=1e-9)


def vertex_set(body):
    return {tuple(np.round(v, 12) + 0.0) for v in vertices(body)}


def at_most_k_ones(n, k):
    return {p for p in itertools.product((0.0, 1.0), repeat=n) if sum(p) <= k}


class TestVertices:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_cardinality_vertices_are_0_1_points_with_at_most_k_ones(self, n):
        for k in range(n + 1):
            assert vertex_set(CardinalityBody(n, k)) == at_most_k_ones(n, k)

    @pytest.mark.parametrize("upper", [[1.0], [0.5, 1.0, 0.25], [0.3, 0.7, 1.0, 0.9, 0.6]])
    def test_box_vertices_are_scaled_corners(self, upper):
        corners = itertools.product((0.0, 1.0), repeat=len(upper))
        assert vertex_set(BoxBody(np.array(upper))) == {
            tuple(np.round(np.array(p) * upper, 12)) for p in corners}

    @pytest.mark.parametrize("blocks,capacities", [
        (((0, 1), (2, 3)), (1, 1)),
        (((0, 3), (1, 2, 4)), (1, 2)),
        (((2,), (0, 1, 3, 4)), (0, 3)),
    ])
    def test_partition_vertices_are_the_product_of_block_vertices(self, blocks, capacities):
        n = sum(map(len, blocks))
        expected = set()
        for pieces in itertools.product(*(at_most_k_ones(len(blk), k)
                                          for blk, k in zip(blocks, capacities))):
            v = np.zeros(n)
            for blk, piece in zip(blocks, pieces):
                v[list(blk)] = piece
            expected.add(tuple(v))
        assert vertex_set(PartitionBody(n, blocks, capacities)) == expected

    def test_subsystem_cap(self):
        # comb(40, 20) subsystems: refused before any of them is built
        with pytest.raises(CapacityError, match="at most 100000 subsystems"):
            lmo_bruteforce(BoxBody(np.ones(20)), np.ones(20))

    @pytest.mark.parametrize("cap,message", [([5.0, np.nan], "NaN or infinity"),
                                             ([-3.0, -3.0], r"cap must lie in \[0, 1\]\^n")])
    def test_bad_cap_is_refused_like_masked_lmo(self, cap, message):
        body = BoxBody(np.ones(2))
        with pytest.raises(InputError, match=message):
            body.masked_lmo([1.0, 1.0], cap)
        with pytest.raises(InputError, match=message):
            lmo_bruteforce(body, [1.0, 1.0], cap)


def solve(c, A, b, u):
    return simplex_solve(*(np.asarray(v, dtype=float) for v in (c, A, b, u)))


def enumerated_optimum(c, A, b, u):
    return lmo_bruteforce(PackingBody(A, b), c, u)[0]


class TestSimplex:
    def test_unit_budget(self):
        x, val = solve([3.0, 1.0], [[1.0, 1.0]], [1.0], [1.0, 1.0])
        assert val == pytest.approx(3.0, abs=1e-9)
        assert x == pytest.approx([1.0, 0.0], abs=1e-9)

    def test_zero_objective(self):
        x, val = solve([0.0, 0.0], [[1.0, 1.0]], [1.0], [1.0, 1.0])
        assert val == 0.0

    def test_fractional_vertex(self):
        x, val = solve([1.0, 1.0], [[2.0, 1.0]], [2.0], [1.0, 1.0])
        assert val == pytest.approx(1.5, abs=1e-9)
        assert x == pytest.approx([0.5, 1.0], abs=1e-9)

    def test_matches_basic_solution_enumeration(self, rng):
        # each LP again from the vertex of perturbed costs
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = rng.uniform(0.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            u = rng.uniform(0.2, 1.0, size=n)
            c = rng.normal(size=n)
            x, val = simplex_solve(c, A, b, u)
            assert val == pytest.approx(enumerated_optimum(c, A, b, u), abs=1e-9)
            start = simplex_solve(c + rng.normal(scale=0.5, size=n), A, b, u)[0]
            x_warm, val_warm = simplex_solve(c, A, b, u, start)
            assert np.max(np.abs(x_warm - x)) <= 1e-12 and abs(val_warm - val) <= 1e-12

    def test_degenerate_integer_lps_match_enumeration(self, rng):
        # small integer data ties many ratios and reduced costs and makes degenerate
        # pivots, after which the lowest improving column enters
        for _ in range(500):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            b = rng.integers(1, 4, size=m).astype(float)
            u = rng.choice([0.5, 1.0], size=n)
            c = rng.integers(-2, 4, size=n).astype(float)
            x, val = simplex_solve(c, A, b, u)
            assert np.all(A @ x <= b + 1e-9) and np.all((0.0 <= x) & (x <= u))
            assert val == pytest.approx(enumerated_optimum(c, A, b, u), abs=1e-9)

    def test_degenerate_rhs_terminates(self):
        # many ties in the ratio test and degenerate pivots; the simplex must still finish
        x, val = solve([1.0, 1.0, 1.0], np.ones((3, 3)), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_dantzig_cycling_example_terminates(self):
        """Beale's LP, on which the largest-coefficient rule alone cycles through six
        degenerate bases.  Its A has negative entries, outside the PackingBody
        precondition A >= 0; it is here only to drive the degenerate path."""
        c = [0.75, -20.0, 0.5, -6.0]
        A = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
        x, val = solve(c, A, [0.0, 0.0, 1.0], np.ones(4))
        assert val == pytest.approx(1.25, abs=1e-12)
        assert x == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)

    def test_matches_bland_reference_at_benchmark_scale(self, rng, warm_tableaus):
        # 20x30 packing LPs drawn like the packing benchmark; the optimum is unique
        # almost surely, so every correct pivot rule lands on the same vertex, and so
        # does a warm start from the vertex of nearby costs, as a Frank-Wolfe step has
        for _ in range(100):
            A = rng.uniform(0.0, 1.0, size=(20, 30))
            b = 0.2 * A.sum(axis=1)
            c = rng.normal(size=30)
            for u in (np.ones(30), 1.0 - rng.uniform(size=30)):
                x, val = simplex_solve(c, A, b, u)
                x_ref, val_ref = bland_simplex(c, A, b, u)
                assert abs(val - val_ref) <= 1e-9 * max(1.0, abs(val_ref))
                assert np.max(np.abs(x - x_ref)) <= 1e-9
                start = simplex_solve(c + rng.normal(scale=0.1, size=30), A, b, u)[0]
                x_warm, val_warm = simplex_solve(c, A, b, u, start)
                assert np.max(np.abs(x_warm - x)) <= 1e-12
                assert abs(val_warm - val) <= 1e-12 * max(1.0, abs(val))
        assert len(warm_tableaus) == 200
        assert sum(t is not None for t in warm_tableaus) >= 190

    def test_tied_lp_gives_the_cold_vertex_from_another_optimal_vertex(self):
        # c is parallel to the first row: the optimal edge runs from (0.5, 0.5) to (0.75, 0)
        c, A, b, u = (np.array(v, dtype=float) for v in
                      ([2.0, 1.0], [[2.0, 1.0], [1.0, 2.0]], [1.5, 1.5], [1.0, 1.0]))
        cold = simplex_solve(c, A, b, u)
        for start in ([0.5, 0.5], [0.75, 0.0]):
            x, val = simplex_solve(c, A, b, u, np.array(start))
            assert np.array_equal(x, cold[0]) and val == cold[1]

    @pytest.mark.parametrize("start, u", [
        ([0.8, 0.8], [1.0, 1.0]),    # infeasible: breaks both rows
        ([0.2, 0.2], [1.0, 1.0]),    # interior: every coordinate and row loose
        ([0.75, 0.0], [0.75, 1.0]),  # degenerate vertex: x_1 = u_1 and x_2 = 0 on a tight row
        ([0.5, 0.5], [0.4, 1.0]),    # a vertex of cap 1 that breaks the new cap 0.4
    ], ids=["infeasible", "interior", "degenerate", "new-cap"])
    def test_rejected_start_is_the_cold_solve_without_a_factorization(self, start, u,
                                                                       monkeypatch):
        c, A, b = np.array([1.0, 1.0]), np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.5, 1.5])
        u = np.array(u)
        cold = simplex_solve(c, A, b, u)

        def no_factorization(*args):
            raise AssertionError("a rejected start was factorized")

        monkeypatch.setattr(np.linalg, "solve", no_factorization)
        x, val = simplex_solve(c, A, b, u, np.array(start))
        assert np.array_equal(x, cold[0]) and val == cold[1]
        body = PackingBody(A, b)
        assert np.array_equal(body.masked_lmo(c, u, start), body.masked_lmo(c, u))

    def test_vertex_start_is_taken(self, monkeypatch):
        # the optimal vertex itself: one factorization, no pivot
        c, A, b, u = (np.array(v, dtype=float) for v in
                      ([1.0, 1.0], [[2.0, 1.0], [1.0, 2.0]], [1.5, 1.5], [1.0, 1.0]))
        solves = []
        solve_ = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve_(*a))
        x, val = simplex_solve(c, A, b, u, np.array([0.5, 0.5]))
        assert len(solves) == 1
        assert x == pytest.approx([0.5, 0.5], abs=1e-15) and val == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("start", [[0.5], [0.5, 0.5, 0.0], [[0.5, 0.5]], [np.nan, 0.0],
                                       [np.inf, 0.0]])
    def test_malformed_start_is_refused(self, start):
        with pytest.raises(InputError, match="start"):
            simplex_solve(np.ones(2), np.ones((1, 2)), np.ones(1), np.ones(2), start)
        body = PackingBody(np.ones((1, 2)), np.ones(1))
        with pytest.raises(InputError, match="start"):
            body.lmo(np.ones(2), start)
        with pytest.raises(InputError, match="start"):
            body.masked_lmo(np.ones(2), np.ones(2), start)

    def test_result_is_checked_against_the_rows(self):
        # b < 0 breaks the precondition: the all-slack start is infeasible
        with pytest.raises(InvariantError, match="violates A x <= b"):
            solve([1.0], [[1.0]], [-1.0], [1.0])

    def test_input_validation(self):
        with pytest.raises(InputError):
            PackingBody(np.array([[-0.5]]), np.array([1.0]))
        with pytest.raises(InputError):
            PackingBody(np.array([[1.0]]), np.array([0.0]))
        with pytest.raises(CapacityError):
            PackingBody(np.ones((1, 65)), np.array([1.0]))


class TestDiameter:
    def test_unit_box(self):
        assert BOX3.diameter() == pytest.approx(3.0)

    def test_small_box(self):
        assert BoxBody(np.array([0.5, 0.5])).diameter() == pytest.approx(0.5)

    def test_cardinality(self):
        assert CARD32.diameter() == pytest.approx(3.0)

    def test_cardinality_matches_vertex_enumeration(self):
        for n, k in [(3, 1), (3, 2), (4, 2), (5, 3), (4, 4)]:
            body = CardinalityBody(n, k)
            vertices = [np.array(p, dtype=float)
                        for p in itertools.product((0, 1), repeat=n) if sum(p) <= k]
            assert body.diameter() == pytest.approx(vertex_pairs_diameter(vertices))

    def test_partition_adds_blocks(self):
        assert PART.diameter() == pytest.approx(4.0)

    def test_packing_box_bound(self):
        assert PACK.diameter() == 2.0

    @pytest.mark.parametrize("body", all_bodies())
    def test_dominates_sampled_pairs(self, body, rng):
        D = body.diameter()
        assert D <= body.n + 1e-12
        for _ in range(100):
            x = body.lmo(rng.normal(size=body.n))
            y = body.lmo(rng.normal(size=body.n))
            assert float(np.sum((x - y) ** 2)) <= D + 1e-9


class TestDownClosed:
    @pytest.mark.parametrize("body", all_bodies())
    def test_flagged_bodies_are_down_closed(self, body, rng):
        for _ in range(100):
            y = body.masked_lmo(rng.normal(size=body.n), rng.uniform(size=body.n))
            x = y * rng.uniform(size=body.n)
            assert body.contains(x)

    def test_declared_override(self):
        # every body kind is down-closed by construction, so a declared flag is stale input
        with pytest.raises(InputError, match="'down_closed'"):
            body_from_json({"kind": "packing", "A": [[1, 1]], "b": [1.0], "down_closed": False})


class TestIntegralBudgets:
    @pytest.mark.parametrize("make", [
        lambda: PartitionBody(2, ((0, 1),), (1.5,)),
        lambda: PartitionBody(2, ((0, 1),), (True,)),
        lambda: PartitionBody(2, ((0, 1.9),), (1,)),
        lambda: PartitionBody(2, ((False, True),), (1,)),
        lambda: CardinalityBody(2, True),
    ], ids=["partition-capacity-fraction", "partition-capacity-bool", "partition-index-fraction",
            "partition-index-bool", "cardinality-k-bool"])
    def test_rejected(self, make):
        with pytest.raises(InputError, match="integer"):
            make()


class TestJson:
    def test_each_kind(self):
        assert body_from_json({"kind": "box", "n": 3}).n == 3
        assert body_from_json({"kind": "box", "upper": [0.5, 1.0]}).diameter() == pytest.approx(1.25)
        assert body_from_json({"kind": "cardinality", "n": 3, "k": 2}).capacities == (2,)
        part = body_from_json({"kind": "partition", "n": 4,
                               "blocks": [[0, 1], [2, 3]], "capacities": [1, 1]})
        assert part.diameter() == pytest.approx(4.0)
        pack = body_from_json({"kind": "packing", "A": [[1, 1]], "b": [1.0]})
        assert pack.n == 2

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            body_from_json({"kind": "sphere"})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), data=st.data())
def test_cardinality_is_a_one_block_partition(seed, n, data):
    k = data.draw(st.integers(0, n + 1))
    card, part = CardinalityBody(n, k), PartitionBody(n, (tuple(range(n)),), (k,))
    rng = np.random.default_rng(seed)
    assert card.diameter() == part.diameter()
    for _ in range(10):
        x = rng.uniform(size=n) * rng.uniform(0.0, 2.0 * k / n + 0.5)
        g, cap = rng.normal(size=n), rng.uniform(size=n)
        assert card.contains(x) == part.contains(x)
        assert np.array_equal(card.lmo(g), part.lmo(g))
        assert np.array_equal(card.masked_lmo(g, cap), part.masked_lmo(g, cap))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       kind=st.sampled_from(["box", "cardinality", "partition", "packing"]))
def test_random_bodies_oracles_agree_with_enumeration(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    if kind == "box":
        body = BoxBody(rng.uniform(0.3, 1.0, size=n))
    elif kind == "cardinality":
        body = CardinalityBody(n, int(rng.integers(1, n + 1)))
    elif kind == "partition":
        cut = int(rng.integers(1, n))
        blocks = (tuple(range(cut)), tuple(range(cut, n)))
        body = PartitionBody(n, blocks, (1, 1))
    else:
        m = int(rng.integers(1, 4))
        body = PackingBody(rng.uniform(0.0, 1.0, size=(m, n)),
                           rng.uniform(0.5, 2.0, size=m))
    g = rng.normal(size=n)
    cap = rng.uniform(size=n)
    ref, _ = lmo_bruteforce(body, g)
    assert float(g @ body.lmo(g)) == pytest.approx(ref, abs=1e-9)
    ref_m, _ = lmo_bruteforce(body, g, cap)
    assert float(g @ body.masked_lmo(g, cap)) == pytest.approx(ref_m, abs=1e-9)
