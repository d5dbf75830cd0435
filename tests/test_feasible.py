import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (BoxBody, CardinalityBody, InputError, InvariantError, PackingBody,
                   PartitionBody, body_from_json, lmo_bruteforce)
from drsub import feasible
from drsub.errors import CapacityError
from drsub.feasible import FEASIBILITY_TOL, simplex_solve, vertices

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

    def test_lowest_index_wins_inside_unsorted_blocks(self):
        v = PartitionBody(4, ((3, 1), (2, 0)), (1, 1)).lmo([1, 1, 1, 1])
        assert v.tolist() == [1.0, 1.0, 0.0, 0.0]

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

    def test_partition_fill_at_fractional_caps(self):
        # ties go to the lowest index, and each block's budget binds partway
        body = PartitionBody(6, ((5, 2, 0), (1, 3, 4)), (1, 1))
        g = [0.5, 0.75, 0.5, -0.25, 0.75, 0.5]
        v = body.masked_lmo(g, [0.25, 0.75, 0.75, 1.0, 0.5, 0.625])
        assert v.tolist() == [0.25, 0.75, 0.75, 0.0, 0.25, 0.0]

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

    @pytest.mark.parametrize("cap", [[5.0, np.nan], [-3.0, -3.0]], ids=["nan", "far-out"])
    def test_bad_cap_is_refused_like_masked_lmo(self, cap):
        body = BoxBody(np.ones(2))
        message = r"cap array\(.*\) is NaN, infinite or outside the unit box"
        with pytest.raises(InputError, match=message):
            body.masked_lmo([1.0, 1.0], cap)
        with pytest.raises(InputError, match=message):
            lmo_bruteforce(body, [1.0, 1.0], cap)


def solve(c, A, b, u):
    return simplex_solve(*(np.asarray(v, dtype=float) for v in (c, A, b, u)))


def enumerated_optimum(c, A, b, u):
    return lmo_bruteforce(PackingBody(A, b), c, u)[0]


def drawn_lp(rng):
    """A 20x30 packing LP drawn as the packing benchmark draws its bodies, with positive costs."""
    A = rng.uniform(0.0, 1.0, size=(20, 30))
    return rng.uniform(0.1, 1.0, size=30), A, 0.2 * A.sum(axis=1), np.ones(30)


#: (leave, enter) of every pivot of three cold solves, as the dense simplex makes them
COLD_PIVOTS = {
    # the third pivot leaves a zero rhs, so the lowest improving column 0 enters
    # next (Bland), where the largest reduced cost would pick column 3 (Dantzig)
    "degenerate": (([3.0, 4.0, 4.0, 3.0], [[1.0, 2.0, 1.0, 0.0]], [3.0], np.ones(4)),
                   [(2, 1), (0, 2), (3, 6), (1, 0), (4, 3)]),
    # the second pivot ties rows 0, 1, 2 and 5; row 1 leaves, its basic x_0 the lowest index
    "ratio-tie": (([4.0, 1.0, 4.0, 1.0],
                   [[0.0, 2.0, 1.0, 0.0], [2.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]],
                   [1.0, 1.0, 1.0], np.ones(4)),
                  [(1, 0), (1, 2), (0, 1), (2, 3)]),
    "drawn-20x30": (drawn_lp(np.random.default_rng(2030)),
                    [(36, 16), (46, 26), (38, 18), (13, 7), (11, 11), (31, 43), (1, 12), (12, 66),
                     (31, 4), (18, 24), (16, 9), (8, 31), (10, 61), (10, 68), (1, 38), (10, 17),
                     (5, 61), (1, 8), (31, 12), (3, 41), (31, 13), (8, 29), (3, 48)]),
}


def kept(c, A, b, u):
    """A WarmStart that keeps the optimal tableau of max c.x over A x <= b, 0 <= x <= u."""
    state = feasible.WarmStart()
    simplex_solve(c, A, b, u, state)
    return state


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
        # each LP again from the tableau of perturbed costs
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = rng.uniform(0.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            u = rng.uniform(0.2, 1.0, size=n)
            c = rng.normal(size=n)
            x, val = simplex_solve(c, A, b, u)
            assert val == pytest.approx(enumerated_optimum(c, A, b, u), abs=1e-9)
            start = kept(c + rng.normal(scale=0.5, size=n), A, b, u)
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

    def test_matches_bland_reference_at_benchmark_scale(self, rng, monkeypatch, kept_tableaus,
                                                         reuses):
        # 20x30 packing LPs drawn like the packing benchmark; the optimum is unique
        # almost surely, so every correct pivot rule lands on the same vertex, and so
        # does a start from the tableau of nearby costs, as a Frank-Wolfe step has
        dual_pivots = []
        exchange = feasible._exchange

        def watched(tab, basis, leave, enter):
            dual_pivots.append(tab.shape[0] == basis.size + 2)  # the dual phase's tableau
            exchange(tab, basis, leave, enter)

        monkeypatch.setattr(feasible, "_exchange", watched)
        for _ in range(100):
            A = rng.uniform(0.0, 1.0, size=(20, 30))
            b = 0.2 * A.sum(axis=1)
            c = rng.normal(size=30)
            for u in (np.ones(30), 1.0 - rng.uniform(size=30)):
                x, val = simplex_solve(c, A, b, u)
                x_ref, val_ref = bland_simplex(c, A, b, u)
                assert abs(val - val_ref) <= 1e-9 * max(1.0, abs(val_ref))
                assert np.max(np.abs(x - x_ref)) <= 1e-9
                start = kept(c + rng.normal(scale=0.1, size=30), A, b, u)
                x_warm, val_warm = simplex_solve(c, A, b, u, start)
                assert np.max(np.abs(x_warm - x)) <= 1e-12
                assert abs(val_warm - val) <= 1e-12 * max(1.0, abs(val))
        assert len(kept_tableaus) == len(reuses) == 200  # every reuse was accepted
        # a tableau kept at the same cap is primal feasible: the dual phase makes no pivot
        assert dual_pivots and not any(dual_pivots)

    @pytest.mark.parametrize("case", COLD_PIVOTS)
    def test_cold_pivots_are_pinned(self, case, monkeypatch):
        lp, expected = COLD_PIVOTS[case]
        pivots = []
        exchange = feasible._exchange

        def watched(tab, basis, leave, enter):
            pivots.append((int(leave), int(enter)))
            exchange(tab, basis, leave, enter)

        monkeypatch.setattr(feasible, "_exchange", watched)
        solve(*lp)
        assert pivots == expected

    def test_tied_lp_gives_the_cold_vertex_from_another_optimal_vertex(self, kept_tableaus):
        # c is parallel to the first row: the optimal edge runs from (0.5, 0.5) to (0.75, 0),
        # the unique optima of the costs (1, 1) and (1, 0), whose tableaus start the LP
        c, A, b, u = (np.array(v, dtype=float) for v in
                      ([2.0, 1.0], [[2.0, 1.0], [1.0, 2.0]], [1.5, 1.5], [1.0, 1.0]))
        cold = simplex_solve(c, A, b, u)
        for other, vertex in (([1.0, 1.0], [0.5, 0.5]), ([1.0, 0.0], [0.75, 0.0])):
            start = kept(np.array(other), A, b, u)
            assert simplex_solve(np.array(other), A, b, u)[0] == pytest.approx(vertex, abs=1e-15)
            x, val = simplex_solve(c, A, b, u, start)
            assert np.array_equal(x, cold[0]) and val == cold[1]
        assert len(kept_tableaus) == 2  # both kept tableaus were reused, then refused

    def test_lowered_cap_start_matches_bland_reference_at_benchmark_scale(self, rng, monkeypatch,
                                                                         kept_tableaus, reuses):
        # a measured step at benchmark scale: the tableau kept at cap u starts the LP of
        # nearby costs at the cap u - rho v, which its vertex v breaks where it sat at u
        pivots, shifted = [], []
        exchange = feasible._exchange

        def watched(tab, basis, leave, enter):
            exchange(tab, basis, leave, enter)
            pivots.append(enter)
            if tab.shape[0] == basis.size + 2:  # a dual pivot, whose last row is the shifted costs
                shifted.append(float(np.max(tab[-1, :-1])))

        for _ in range(100):
            A = rng.uniform(0.0, 1.0, size=(20, 30))
            b = 0.2 * A.sum(axis=1)
            c = rng.normal(size=30)
            u = 1.0 - rng.uniform(size=30)
            start = feasible.WarmStart()
            v = simplex_solve(c, A, b, u, start)[0]
            c2 = c + rng.normal(scale=0.1, size=30)
            u2 = u - rng.uniform(0.05, 0.5) * v
            x, val = simplex_solve(c2, A, b, u2)
            x_ref, val_ref = bland_simplex(c2, A, b, u2)
            with monkeypatch.context() as patch:
                patch.setattr(feasible, "_exchange", watched)
                x_warm, val_warm = simplex_solve(c2, A, b, u2, start)
            for y, y_val in ((x, val), (x_ref, val_ref)):
                assert np.max(np.abs(x_warm - y)) <= 1e-12
                assert abs(val_warm - y_val) <= 1e-12 * max(1.0, abs(y_val))
        assert len(kept_tableaus) == len(reuses) == 100  # every reuse was accepted
        # each dual pivot keeps the shifted costs dual feasible, so few pivots repair a kept basis
        assert shifted and max(shifted) <= 1e-10
        assert len(pivots) <= 8 * 100

    def test_tied_lp_at_a_lowered_cap_gives_the_cold_vertex(self, rng, kept_tableaus):
        # 0/1 rows, unit budgets and costs in {1, 2, 3} tie many optima; a warm answer
        # is kept only when the optimum is unique, so it is the cold vertex bit for bit
        tied = 0
        for _ in range(200):
            n, m = int(rng.integers(3, 6)), int(rng.integers(3, 7))
            A = rng.integers(0, 2, size=(m, n)).astype(float)
            b, u = np.ones(m), np.ones(n)
            c = rng.integers(1, 4, size=n).astype(float)
            start = feasible.WarmStart()
            v = simplex_solve(c, A, b, u, start)[0]
            u2 = u - 0.5 * v
            cold = simplex_solve(c, A, b, u2)
            V = vertices(PackingBody(A, b), u2)
            optimal = V[V @ c >= cold[1] - 1e-9]
            warm = simplex_solve(c, A, b, u2, start)
            assert np.array_equal(warm[0], cold[0]) and warm[1] == cold[1]
            seen = kept_tableaus.pop()
            tied += seen is not None and np.ptp(optimal, axis=0).max() > 1e-9
        assert tied >= 10  # tied LPs whose repaired tableau the tie rule refused

    @pytest.mark.parametrize("start", [[0.5], [0.5, 0.5, 0.0], [[0.5, 0.5]], [np.nan, 0.0],
                                       [np.inf, 0.0]])
    def test_malformed_start_is_refused(self, start):
        with pytest.raises(InputError, match="start"):
            simplex_solve(np.ones(2), np.ones((1, 2)), np.ones(1), np.ones(2), start)
        for body in (PackingBody(np.ones((1, 2)), np.ones(1)), BoxBody(np.ones(2)),
                     PartitionBody(2, ((0,), (1,)), (1, 1))):
            with pytest.raises(InputError, match="start"):
                body.lmo(np.ones(2), start)
            with pytest.raises(InputError, match="start"):
                body.masked_lmo(np.ones(2), np.ones(2), start)

    @pytest.mark.parametrize("entry", ["lmo", "masked_lmo", "simplex_solve"])
    def test_a_nan_outside_the_lp_is_refused(self, entry):
        # g = (1, 0) leaves coordinate 1 out of the oracles' LP, and -g leaves them no
        # LP at all: a start is refused as a whole, before any LP is read, never ignored
        g, A, b = np.array([1.0, 0.0]), np.ones((1, 2)), np.ones(1)
        body = PackingBody(A, b)
        call = {"lmo": lambda g, start: body.lmo(g, start),
                "masked_lmo": lambda g, start: body.masked_lmo(g, np.ones(2), start),
                "simplex_solve": lambda g, start: simplex_solve(g, A, b, np.ones(2), start)[0]}[entry]
        assert call(g, feasible.WarmStart()) == pytest.approx([1.0, 0.0])
        for payoff in (g, -g):
            with pytest.raises(InputError, match="start"):
                call(payoff, [0.5, np.nan])

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


def drawn_body(rng):
    """A 20x30 packing body drawn as the packing benchmark draws its bodies."""
    A = rng.uniform(0.0, 1.0, size=(20, 30))
    return PackingBody(A, 0.2 * A.sum(axis=1))


class TestWarmStart:
    """A run's state: the last LP's tableau is reused, with no factorization, on an equal matrix."""

    def test_empty_state_gives_the_cold_solve_and_keeps_its_tableau(self, rng):
        c, A, b, u = drawn_lp(rng)
        state = feasible.WarmStart()
        x, val = simplex_solve(c, A, b, u, state)
        cold = simplex_solve(c, A, b, u)
        assert np.array_equal(x, cold[0]) and val == cold[1]
        assert np.array_equal(state.A, A) and state.A is not A
        m = state.basis.size
        assert state.tab.shape == (m + 1, 30 + m + 1) and np.all(state.tab[m, :-1] <= 1e-10)

    @pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
    def test_reuse_matches_cold_without_a_factorization(self, masked, rng, monkeypatch, reuses):
        body, state = drawn_body(rng), feasible.WarmStart()
        g, cap = rng.uniform(0.1, 1.0, size=30), np.ones(30)
        solves = []
        solve_ = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve_(*a))
        for _ in range(20):
            v = body.masked_lmo(g, cap, state) if masked else body.lmo(g, state)
            cold = body.masked_lmo(g, cap) if masked else body.lmo(g)
            assert np.max(np.abs(v - cold)) <= 1e-12
            assert np.array_equal(state.A, body.A)  # every coordinate is active
            g = g * np.exp(rng.normal(scale=0.05, size=30))  # every payoff stays positive
            if masked:  # a measured step lowers the cap to 1 - x
                cap = cap - 0.05 * v
        assert solves == []  # every LP after the first reused the last
        assert len(reuses) == 19

    def test_state_is_not_reused_on_another_body(self, rng, kept_tableaus):
        first, other = drawn_body(rng), drawn_body(rng)
        state = feasible.WarmStart()
        g = rng.uniform(0.1, 1.0, size=30)
        first.lmo(g, state)
        v = other.lmo(g, state)
        assert kept_tableaus == []  # the other body's LP starts cold
        assert np.array_equal(v, other.lmo(g)) and np.array_equal(state.A, other.A)

    @pytest.mark.parametrize("dropped", [[1], [1, 2]], ids=["same-size", "smaller"])
    def test_state_is_not_reused_on_other_active_columns(self, dropped, rng, kept_tableaus,
                                                         reuses):
        # coordinate 0, then the coordinates ``dropped``, get no payoff: the tableau of
        # the first LP belongs to other columns, so the second LP starts cold
        body, state = drawn_body(rng), feasible.WarmStart()
        g = rng.uniform(0.1, 1.0, size=30)
        body.lmo(np.where(np.arange(30) == 0, -1.0, g), state)
        g2 = g.copy()
        g2[dropped] = -1.0
        v = body.lmo(g2, state)
        assert kept_tableaus == [] and np.array_equal(v, body.lmo(g2))
        assert np.array_equal(state.A, body.A[:, g2 > 0])
        body.lmo(g2 * 1.01, state)  # now the columns match, so the tableau is reused
        assert len(kept_tableaus) == len(reuses) == 1

    def test_refinement_corrects_a_drifted_inverse(self, rng, reuses):
        # the kept B^-1 off by 1e-9, relative: the reused LP's answer is refined back to
        # the cold one, where the unrefined basic solution would be 1e-9 off
        c, A, b, u = drawn_lp(rng)
        state = feasible.WarmStart()
        simplex_solve(c, A, b, u, state)
        m, n = state.basis.size, c.size
        state.tab[:m, n:n + m] *= 1.0 + 1e-9 * rng.standard_normal((m, m))
        c2 = c + rng.normal(scale=0.05, size=n)
        x, val = simplex_solve(c2, A, b, u, state)
        assert len(reuses) == 1  # the reuse was accepted
        cold = simplex_solve(c2, A, b, u)
        assert np.max(np.abs(x - cold[0])) <= 1e-12
        assert abs(val - cold[1]) <= 1e-12 * abs(cold[1])

    def test_refused_reuse_falls_back_to_the_cold_solve(self, kept_tableaus):
        # costs parallel to the first row tie the edge from (0.5, 0.5) to (0.75, 0): the
        # reused basis ends on a zero reduced cost and is refused
        A, b, u = np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([1.5, 1.5]), np.ones(2)
        state = feasible.WarmStart()
        assert simplex_solve(np.array([1.0, 1.0]), A, b, u, state)[0] == pytest.approx(
            [0.5, 0.5], abs=1e-15)
        c = np.array([2.0, 1.0])
        x, val = simplex_solve(c, A, b, u, state)
        cold_state = feasible.WarmStart()
        cold = simplex_solve(c, A, b, u, cold_state)
        assert np.array_equal(x, cold[0]) and val == cold[1]
        assert len(kept_tableaus) == 1
        # the state keeps the cold solve's tableau
        assert np.array_equal(state.tab, cold_state.tab)
        assert np.array_equal(state.basis, cold_state.basis)

    def test_a_tableau_kept_on_another_matrix_is_not_reused(self, kept_tableaus):
        # the tableau kept on A1 holds A1's basis inverse: on A2 the LP starts cold,
        # so every answer is A2's own optimum
        rng = np.random.default_rng(5)
        b, u = np.ones(4), np.ones(6)
        for _ in range(50):
            A1, A2 = rng.uniform(size=(4, 6)), rng.uniform(size=(4, 6))
            c = rng.normal(size=6)
            state = feasible.WarmStart()
            simplex_solve(c, A1, b, u, state)
            x, val = simplex_solve(c, A2, b, u, state)
            cold = simplex_solve(c, A2, b, u)
            assert np.max(np.abs(x - cold[0])) <= 1e-12 and abs(val - cold[1]) <= 1e-12
        assert kept_tableaus == []

    def test_an_equal_matrix_reuses_the_tableau(self, rng, reuses):
        c, A, b, u = drawn_lp(rng)
        state = feasible.WarmStart()
        simplex_solve(c, A, b, u, state)
        x, _ = simplex_solve(c * 1.01, A.copy(), b, u, state)
        assert len(reuses) == 1
        assert np.max(np.abs(x - simplex_solve(c * 1.01, A, b, u)[0])) <= 1e-12

    def test_a_matrix_written_after_the_solve_is_not_reused(self, rng, kept_tableaus):
        c, A, b, u = drawn_lp(rng)
        state = feasible.WarmStart()
        simplex_solve(c, A, b, u, state)
        A[:, :5] *= 2.0  # the state holds its own copy of the writable A it was made for
        x, _ = simplex_solve(c, A, b, u, state)
        assert kept_tableaus == []
        assert np.max(np.abs(x - simplex_solve(c, A, b, u)[0])) <= 1e-12

    def test_a_read_only_view_written_through_its_base_is_not_reused(self, kept_tableaus):
        # a read-only A can still change through a writable base: the state copies
        # every A, so the tableau kept on A1 is not reused on A2
        rng = np.random.default_rng(5)
        b, u = np.ones(4), np.ones(6)
        for _ in range(50):
            A1, A2 = rng.uniform(size=(4, 6)), rng.uniform(size=(4, 6))
            c = rng.normal(size=6)
            base = A1.copy()
            A = base.view()
            A.flags.writeable = False
            state = feasible.WarmStart()
            simplex_solve(c, A, b, u, state)
            base[...] = A2
            x, val = simplex_solve(c, A, b, u, state)
            cold = simplex_solve(c, A2, b, u)
            assert np.max(np.abs(x - cold[0])) <= 1e-12 and abs(val - cold[1]) <= 1e-12
        assert kept_tableaus == []

    def test_a_start_of_another_size_is_dropped(self):
        state = feasible.WarmStart()
        simplex_solve(np.ones(3), np.ones((1, 3)), np.ones(1), np.ones(3), state)
        x, val = simplex_solve(np.ones(2), np.ones((1, 2)), np.ones(1), np.ones(2), state)
        cold = simplex_solve(np.ones(2), np.ones((1, 2)), np.ones(1), np.ones(2))
        assert np.array_equal(x, cold[0]) and val == cold[1]

    def test_two_bodies_of_one_matrix_share_a_kept_tableau(self, rng, reuses):
        # the tableau is keyed on the LP's matrix alone, so a second body built from
        # the same A starts from the tableau of the first body's LP
        A = rng.uniform(0.0, 1.0, size=(20, 30))
        first, second = PackingBody(A, 0.2 * A.sum(axis=1)), PackingBody(A, 0.2 * A.sum(axis=1))
        state = feasible.WarmStart()
        g = rng.uniform(0.1, 1.0, size=30)
        first.lmo(g, state)
        g2 = g * np.exp(rng.normal(scale=0.05, size=30))
        v = second.lmo(g2, state)
        assert len(reuses) == 1
        assert np.max(np.abs(v - second.lmo(g2))) <= 1e-12

    @pytest.mark.parametrize("seed, accepted", [(0, 71), (1, 72), (9, 74)])
    def test_simplex_check_reuses_its_kept_tableaus(self, seed, accepted, capsys, reuses):
        # drsub check solves each LP from the state of its reversed costs, and each
        # lowered-cap LP from the state its first cold solve kept, on the same A:
        # 100 reuses, each accepted one refined once
        from drsub import cli
        assert cli.main(["check", "--seed", str(seed)]) == 0
        assert "PASS feasible-simplex" in capsys.readouterr().out
        assert len(reuses) == accepted


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


class TestOwnedArrays:
    """A body keeps its own read-only copy of its caller's arrays."""

    def test_box_ignores_a_later_edit_of_its_bounds(self):
        u = np.ones(2)
        B = BoxBody(u)
        u[0] = 5.0
        assert B.upper.tolist() == [1.0, 1.0]
        assert B.diameter() == 2.0
        v = B.lmo([1.0, 1.0])
        assert v.tolist() == [1.0, 1.0] and B.contains(v)

    def test_packing_ignores_a_later_edit_of_its_matrix(self):
        A, b = np.array([[1.0, 1.0]]), np.array([1.0])
        P = PackingBody(A, b)
        A[0, 0], b[0] = -1.0, 5.0
        assert P.A.tolist() == [[1.0, 1.0]] and P.b.tolist() == [1.0]
        assert not P.contains([1.0, 1.0])

    @pytest.mark.parametrize("body,name", [(BOX3, "upper"), (PACK, "A"), (PACK, "b")],
                             ids=["box-upper", "packing-A", "packing-b"])
    def test_public_arrays_are_read_only(self, body, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(body, name)[0] = 0.5

    @pytest.mark.parametrize("body", all_bodies())
    def test_membership_rows_are_read_only(self, body):
        for name in ("_upper", "_A", "_b"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(body, name)[...] = 0.0


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


BODY_KINDS = ("box", "cardinality", "partition", "packing")


def random_body(rng, kind):
    n = int(rng.integers(2, 7))
    if kind == "box":
        return BoxBody(rng.uniform(0.3, 1.0, size=n))
    if kind == "cardinality":
        return CardinalityBody(n, int(rng.integers(1, n + 1)))
    if kind == "partition":
        cut = int(rng.integers(1, n))
        return PartitionBody(n, (tuple(range(cut)), tuple(range(cut, n))), (1, 1))
    m = int(rng.integers(1, 4))
    return PackingBody(rng.uniform(0.0, 1.0, size=(m, n)), rng.uniform(0.5, 2.0, size=m))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(BODY_KINDS))
def test_random_bodies_oracles_agree_with_enumeration(seed, kind):
    rng = np.random.default_rng(seed)
    body = random_body(rng, kind)
    n = body.n
    g = rng.normal(size=n)
    cap = rng.uniform(size=n)
    ref, _ = lmo_bruteforce(body, g)
    assert float(g @ body.lmo(g)) == pytest.approx(ref, abs=1e-9)
    ref_m, _ = lmo_bruteforce(body, g, cap)
    assert float(g @ body.masked_lmo(g, cap)) == pytest.approx(ref_m, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(BODY_KINDS))
def test_plain_lmo_is_the_masked_lmo_under_an_all_ones_cap(seed, kind):
    # the plain LMO reads the body's stored upper bounds; a read-only cap shows
    # that the masked oracle never writes to the caller's array
    rng = np.random.default_rng(seed)
    body = random_body(rng, kind)
    ones = np.ones(body.n)
    ones.flags.writeable = False
    plain, masked = feasible.WarmStart(), feasible.WarmStart()
    for _ in range(5):
        g = rng.normal(size=body.n)
        h = rng.normal(size=body.n)  # the last LP, as a Frank-Wolfe run keeps it
        body.lmo(h, plain)
        body.masked_lmo(h, ones, masked)
        assert body.lmo(g).tobytes() == body.masked_lmo(g, ones).tobytes()
        assert body.lmo(g, plain).tobytes() == body.masked_lmo(g, ones, masked).tobytes()


_NEAR_UNIT = st.floats(-FEASIBILITY_TOL, 1.0 + FEASIBILITY_TOL)
_FAR_OUT = st.one_of(st.floats(max_value=-FEASIBILITY_TOL, exclude_max=True),
                     st.floats(min_value=1.0 + FEASIBILITY_TOL, exclude_min=True),
                     st.just(np.nan))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_cap_round_off_is_clipped_and_the_rest_refused(n, data):
    body, g = BoxBody(np.ones(n)), np.ones(n)  # the box's masked LMO with g > 0 is the read cap
    cap = np.array(data.draw(st.lists(_NEAR_UNIT, min_size=n, max_size=n)))
    before = cap.copy()
    assert np.array_equal(body.masked_lmo(g, cap), np.clip(cap, 0.0, 1.0))
    assert np.array_equal(cap, before)
    cap[data.draw(st.integers(0, n - 1))] = data.draw(_FAR_OUT)
    before = cap.copy()
    with pytest.raises(InputError, match=r"^cap array\("):
        body.masked_lmo(g, cap)
    assert np.array_equal(cap, before, equal_nan=True)
