import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (BoxBody, CardinalityBody, InputError, InvariantError, PackingBody,
                   PartitionBody, body_from_json, lmo_bruteforce)
from drsub.errors import CapacityError
from drsub.feasible import basic_solutions, simplex_solve

from conftest import vertex_pairs_diameter

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


def solve(c, A, b, u):
    return simplex_solve(*(np.asarray(v, dtype=float) for v in (c, A, b, u)))


def enumerated_optimum(c, A, b, u):
    n = len(c)
    rows = np.vstack([A, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([b, u, np.zeros(n)])
    return max(float(c @ v) for v in basic_solutions(rows, rhs))


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
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            A = rng.uniform(0.0, 1.0, size=(m, n))
            b = rng.uniform(0.5, 2.0, size=m)
            u = rng.uniform(0.2, 1.0, size=n)
            c = rng.normal(size=n)
            _, val = simplex_solve(c, A, b, u)
            assert val == pytest.approx(enumerated_optimum(c, A, b, u), abs=1e-9)

    def test_degenerate_integer_lps_match_enumeration(self, rng):
        # small integer data ties many ratios and reduced costs, so Bland's rule decides
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
        # many ties in the ratio test; Bland's rule must still finish
        x, val = solve([1.0, 1.0, 1.0], np.ones((3, 3)), [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert val == pytest.approx(1.0, abs=1e-9)

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
    n = int(rng.integers(2, 5))
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
