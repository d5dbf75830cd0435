"""Feasible bodies inside the unit box, with the three oracles the solvers need.

Every body contains the origin, answers membership queries for one point
or a batch of points, maximizes a linear function over itself (returning
an extreme point), and maximizes a linear function over its intersection
with {v <= cap}.  Three kinds are
provided: boxes with per-coordinate upper bounds, partition bodies with
per-block budgets (the cardinality polytope sum x <= k is the one-block
case), and packing polytopes A x <= b with nonnegative A.  Packing oracles
run on a small dense simplex that enters the largest reduced cost, or the
lowest improving column right after a degenerate pivot, so a cycle (which
holds only degenerate pivots) would follow Bland's rule throughout and
cannot occur.  An LP starts one of two ways.  A run passes one WarmStart
to all its oracle calls: it keeps the last optimal tableau, whose slack
columns hold the basis inverse, so the next LP over the same matrix needs
no factorization; dual pivots restore a lowered cap the kept basis breaks
(none if it meets the cap), and the answer is kept only when the optimum
is unique.  Every other LP starts cold, from the all-slack basis.  The
other kinds (box, partition) use closed-form greedy fills.
The exhaustive reference oracle at the bottom of the module, used for
cross-checking, enumerates the vertices of the inequality system every
body stores.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InvariantError, checked_array, fields, is_int

#: single membership tolerance used across the toolkit
FEASIBILITY_TOL = 1e-9

#: desk-scale cap on every body's dimension and on the dense simplex's rows
MAX_DIMENSION = 64

#: pivot tolerance of the dense simplex: reduced costs, pivot entries, ratio ties and degenerate pivots
_PIVOT_TOL = 1e-10


def checked_dimension(n: int, what: str) -> int:
    """``n`` if it is a positive integer dimension within the desk-scale cap."""
    if not is_int(n):
        raise InputError(f"{what} dimension n must be an integer, got {n!r}")
    if n < 1:
        raise InputError(f"{what} dimension n must be positive, got {n}")
    if n > MAX_DIMENSION:
        raise CapacityError(f"{what} dimension {n} exceeds the desk-scale cap of {MAX_DIMENSION}")
    return n


def row_products(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X @ M.T, one dot product per entry, so a row's products do not depend on the rows beside it.

    BLAS blocks a (k, n) @ (n, m) product, and the last bits of a row then
    depend on k and on the row's place in the batch; einsum (which never
    calls BLAS) sums every entry in the same order.
    """
    return np.einsum("kj,mj->km", X, M)


class ConvexBody:
    """Interface shared by all feasible-set variants.

    Instances are immutable; all oracle calls are pure and allocate their
    own scratch, so a body can be shared between concurrent runs.  Every
    variant is down-closed by construction (0 <= y <= x in the body puts y
    in the body), which the masked oracle and the grid oracle's slack rely on.
    Every variant is also a polyhedron: x <= upper, -x <= 0 and the body's
    own inequalities A x <= b with A >= 0.  Each array is stored once,
    read-only, as the constructor copied or built it, so a caller's later
    edit of its own array changes nothing here.  Membership tests these
    rows, and as computed in floating point it is monotone along every
    coordinate of a nonnegative point: rounding preserves order under a
    nonnegative factor and under addition, and row_products sums each row
    in an order that does not depend on the batch.  So raising a coordinate
    of a point outside the body never brings it in, which the grid oracle's
    feasible-mesh walk relies on.
    """

    n: int

    def contains(self, x) -> bool:
        """Membership up to FEASIBILITY_TOL."""
        return bool(self._inside(checked_array(x, (self.n,), "point")[None])[0])

    def contains_batch(self, X) -> np.ndarray:
        """(k,) membership mask of the rows of a (k, n) batch, by the rule of contains."""
        return self._inside(checked_array(X, (None, self.n), "the batch"))

    def _inside(self, X: np.ndarray) -> np.ndarray:
        inside = ((X <= self._upper + FEASIBILITY_TOL) & (X >= -FEASIBILITY_TOL)).all(axis=1)
        return inside & (row_products(X, self._A) <= self._b + FEASIBILITY_TOL).all(axis=1)

    def _set_inequalities(self, upper: np.ndarray, A: np.ndarray, b: np.ndarray) -> None:
        """Keep the rows x <= upper, -x <= 0 and A x <= b that membership tests, read-only."""
        for name, array in (("_upper", upper), ("_A", A), ("_b", b)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def lmo(self, g, start=None) -> np.ndarray:
        """Extreme point maximizing <g, v> over the body.

        Ties are broken deterministically: box and partition bodies fill the
        lowest coordinate index first, packing bodies take the vertex the simplex's
        pivot rule reaches, and coordinates with nonpositive coefficients
        stay at zero.  ``start`` is None or a run's WarmStart, and only
        saves work; every body refuses any other start with an InputError.
        A packing body's LP is over its columns of the active coordinates,
        and simplex_solve reuses the start's kept tableau, with no
        factorization, when that matrix equals the last LP's, and otherwise
        solves cold.  Dual pivots restore a lower cap of the masked oracle
        that the kept basis breaks.  The answer is kept only when the optimum
        is unique and otherwise solved from the all-slack basis, so the tie
        rule above holds with or without a start.  Box and partition bodies
        have no LP, so their answer does not depend on the start.
        """
        return self._lmo(checked_array(g, (self.n,), "objective"), self._upper,
                         _checked_start(start))

    def masked_lmo(self, g, cap, start=None) -> np.ndarray:
        """Maximize <g, v> over the body intersected with {v <= cap}; ``start`` as in lmo."""
        return self._lmo(checked_array(g, (self.n,), "objective"),
                         checked_array(cap, (self.n,), "cap", FEASIBILITY_TOL),
                         _checked_start(start))

    def _lmo(self, g: np.ndarray, cap: np.ndarray, start: WarmStart | None) -> np.ndarray:
        """The oracles' kernel: maximize <g, v> over the body and {v <= cap}, for checked inputs."""
        raise NotImplementedError

    def diameter(self) -> float:
        """Upper bound on max ||x - y||_2^2 over the body (exact where noted)."""
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class BoxBody(ConvexBody):
    """Axis-aligned box [0, u] with u in (0, 1]^n."""

    upper: np.ndarray

    def __post_init__(self):
        u = checked_array(self.upper, (None,), "box upper bounds").copy()
        if u.size == 0:
            raise InputError("box upper bounds must be a nonempty vector")
        checked_dimension(u.size, "box")
        if np.any(u <= 0) or np.any(u > 1.0):
            raise InputError("box upper bounds must lie in (0, 1]")
        object.__setattr__(self, "upper", u)
        self._set_inequalities(u, np.zeros((0, u.size)), np.zeros(0))

    @property
    def n(self) -> int:
        return self.upper.size

    def _lmo(self, g: np.ndarray, cap: np.ndarray, start: WarmStart | None) -> np.ndarray:
        return np.where(g > 0.0, np.minimum(self.upper, cap), 0.0)

    def diameter(self) -> float:
        return float(np.sum(self.upper ** 2))


def _greedy_fill(g: np.ndarray, cap: np.ndarray, blocks, budgets) -> np.ndarray:
    """Per block, fill the coordinates of largest positive g up to cap until the budget is spent.

    Each block's indices are sorted, and Python's sort is stable under
    reverse=True, so among equal g the lowest index is filled first.
    """
    v = np.zeros(g.size)
    g, cap = g.tolist(), cap.tolist()  # Python floats index and compare faster than numpy's
    for blk, k in zip(blocks, budgets):
        budget = float(k)
        for i in sorted(blk, key=g.__getitem__, reverse=True):
            if g[i] <= 0.0 or budget <= 0.0:
                break
            take = min(cap[i], budget)
            v[i] = take
            budget -= take
    return v


@dataclass(frozen=True)
class PartitionBody(ConvexBody):
    """Independent per-block budgets: sum of x over block b is at most k_b."""

    n: int
    blocks: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]

    def __post_init__(self):
        checked_dimension(self.n, "partition")
        if not all(map(is_int, [*self.capacities, *(i for blk in self.blocks for i in blk)])):
            raise InputError("block indices and capacities must be integers")
        blocks = tuple(tuple(sorted(int(i) for i in blk)) for blk in self.blocks)
        caps = tuple(int(k) for k in self.capacities)
        if len(blocks) != len(caps):
            raise InputError("need one capacity per block")
        seen = [i for blk in blocks for i in blk]
        if sorted(seen) != list(range(self.n)):
            raise InputError("blocks must partition the coordinate range")
        if any(k < 0 for k in caps):
            raise InputError("block capacities must be nonnegative integers")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "capacities", caps)
        sums = np.zeros((len(blocks), self.n))  # row b adds up block b
        for row, blk in zip(sums, blocks):
            row[list(blk)] = 1.0
        self._set_inequalities(np.ones(self.n), sums, np.array(caps, dtype=float))

    def _lmo(self, g: np.ndarray, cap: np.ndarray, start: WarmStart | None) -> np.ndarray:
        return _greedy_fill(g, cap, self.blocks, self.capacities)

    def diameter(self) -> float:
        # exact: a block's vertices are 0/1 points with at most k ones, so two of
        # them differ in at most min(2k, |block|) coordinates (disjoint supports
        # attain it), and blocks are coordinate-disjoint, so square distances add up
        return float(sum(min(2 * k, len(blk)) for blk, k in zip(self.blocks, self.capacities)))


class CardinalityBody(PartitionBody):
    """Cardinality polytope {x in [0,1]^n : sum x <= k}: a partition body with one block."""

    def __init__(self, n: int, k: int):
        checked_dimension(n, "cardinality")  # before range(n) is materialized
        PartitionBody.__init__(self, n, (tuple(range(n)),), (k,))


@dataclass(frozen=True, eq=False)
class PackingBody(ConvexBody):
    """Packing polytope {x in [0,1]^n : A x <= b} with A >= 0 and b > 0."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        b = checked_array(self.b, (None,), "b").copy()
        A = checked_array(self.A, (b.size, None), "A").copy()  # one row per rhs entry
        checked_dimension(A.shape[1], "packing")
        if np.any(A < 0):
            raise InputError("packing matrix must be entrywise nonnegative")
        if np.any(b <= 0):
            raise InputError("packing rhs must be strictly positive")
        if A.shape[0] > MAX_DIMENSION:
            raise CapacityError(f"dense simplex supports at most {MAX_DIMENSION} rows")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        self._set_inequalities(np.ones(A.shape[1]), A, b)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def lmo(self, g, start=None) -> np.ndarray:
        # kept only because bench/test_bench.py pins the qualname "PackingBody.lmo"
        return ConvexBody.lmo(self, g, start)

    def _lmo(self, g: np.ndarray, cap: np.ndarray, start: WarmStart | None) -> np.ndarray:
        # coordinates with nonpositive payoff (or a zero cap) stay at zero;
        # this keeps the output minimal and the subproblem bounds positive
        active = np.flatnonzero((g > 0.0) & (cap > 0.0))
        v = np.zeros(self.n)
        if active.size:
            v[active] = simplex_solve(g[active], self.A[:, active], self.b, cap[active], start)[0]
        return v

    def diameter(self) -> float:
        # safe overestimate (unit-box bound); only ever used inside upper bounds
        return float(self.n)


# --- dense simplex ---------------------------------------------------------------


class WarmStart:
    """The state a run carries from one packing LMO call to the next, passed as ``start``.

    A run makes one, empty, and passes it to every oracle call; box and
    partition bodies have no LP to start.  simplex_solve keeps in it the
    optimal tableau ``tab`` and ``basis`` of the LP it last solved, with a
    copy of the matrix ``A`` they were made for, so no later write to a
    caller's array reaches it.  The slack columns of that tableau hold the
    inverse of its basis matrix, which depends on A alone, so the next LP
    over an equal A, whatever its costs and caps, starts from it with no
    factorization.  A packing body's LP is over its columns of the active
    coordinates, so the tableau is reused exactly when those columns equal
    the last LP's, whichever body they came from.  The state lives in the
    run, so bodies stay immutable and a run's answers depend only on its
    own inputs.
    """

    __slots__ = ("A", "tab", "basis")

    def __init__(self):
        self.A = self.tab = self.basis = None


def _checked_start(start) -> WarmStart | None:
    """``start`` if it is None or a WarmStart; any other start is refused."""
    if start is None or isinstance(start, WarmStart):
        return start
    raise InputError(f"start must be a WarmStart or None, got {type(start).__name__}")


def simplex_solve(c: np.ndarray, A: np.ndarray, b: np.ndarray, u: np.ndarray,
                  start=None) -> tuple[np.ndarray, float]:
    """Solve max c.x subject to A x <= b, 0 <= x <= u with the dense primal simplex.

    Precondition, which PackingBody establishes for its oracles: finite
    float arrays, A >= 0 of shape (len(b), len(c)), b > 0 and u in (0, 1],
    with at most MAX_DIMENSION rows and columns.  The variable bounds are
    carried as explicit rows, so the all-slack basis is feasible from the
    start and the problem is always bounded.  The column with the largest
    reduced cost enters (Dantzig), except right after a degenerate pivot
    (leaving rhs <= _PIVOT_TOL), when the lowest improving column enters;
    among the minimum-ratio rows the lowest basic index leaves.  A cycle
    holds only degenerate pivots, so each of its pivots would follow Bland's
    rule, which never cycles (Bland 1977).  The clipped result is re-checked
    against A x <= b.

    ``start`` (None or a WarmStart; anything else is refused) only saves
    pivots.  The LP starts one of two ways.  A WarmStart's kept tableau is
    reused only on a matrix equal to the A it was made for, with no
    factorization: its rows stay, the rhs is B^-1 [b; u] and the reduced
    costs c - c_B (B^-1 M) (see _kept_tableau).  Dual pivots restore the
    rhs of a lowered cap before the primal pivots, and the answer is kept
    only when every nonbasic reduced cost ends below -_PIVOT_TOL: the
    optimum is then unique, so it is the vertex the all-slack start
    reaches, up to round-off, and it takes one step of iterative refinement
    (see _refine).  Every other LP, and a reuse that cannot be repaired or
    kept, starts cold and gives the all-slack solve bit for bit.  A
    WarmStart is rewritten with the final tableau, whichever start found it.
    """
    n = c.size
    k = b.size
    m = k + n

    # columns: n structural variables then m slacks; last column is the rhs
    tab = np.zeros((m + 1, n + m + 1))
    rows = np.arange(m)
    tab[:k, :n] = A
    tab[rows[k:], rows[:n]] = 1.0  # the bound rows x <= u
    tab[rows, n + rows] = 1.0
    tab[:k, -1] = b
    tab[k:m, -1] = u
    tab[m, :n] = c  # reduced-cost row; positive entry means improvement

    state = _checked_start(start)
    solved = None
    if state is not None and state.tab is not None and np.array_equal(A, state.A):
        solved = _unique_optimum(_kept_tableau(tab, state.tab, state.basis))
        if solved is not None:
            _refine(*solved, tab)
    if solved is None:
        solved = tab, np.arange(n, n + m)
        _pivot(*solved)
    x, value = _vertex(*solved, c, A, b, u)
    if state is not None:
        state.tab, state.basis = solved
        state.A = A.copy()
    return x, value


def _unique_optimum(warm: tuple[np.ndarray, np.ndarray] | None
                    ) -> tuple[np.ndarray, np.ndarray] | None:
    """A warm (tableau, basis) pivoted to its optimum, or None when that optimum may not be unique.

    It is kept only when every nonbasic reduced cost ends below -_PIVOT_TOL.
    """
    if warm is None:
        return None
    tab, basis = warm
    _pivot(tab, basis)
    cost = tab[basis.size, :-1].copy()
    cost[basis] = -np.inf  # only the nonbasic reduced costs decide
    return warm if cost.max() < -_PIVOT_TOL else None


def _kept_tableau(tab: np.ndarray, kept: np.ndarray,
                  basis: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The all-slack tableau ``tab`` in the basis of ``kept``, an optimal tableau of the same A.

    kept's rows are B^-1 [M I] for the unfactored columns [M I] of tab, so
    its slack columns hold B^-1: the new rhs is one product B^-1 [b; u], and
    the reduced costs one more, c - c_B (B^-1 M).  The basic columns stay
    the exact unit vectors a pivot keeps, so their reduced costs are exactly
    0.  No factorization is made.  _dual_pivots then restore the new rhs,
    with no pivot when the caps did not move; None as there.
    """
    m = basis.size
    n = tab.shape[1] - m - 1
    warm = np.empty((m + 2, tab.shape[1]))  # the rows, the reduced costs, the shifted costs
    warm[:m, :-1] = kept[:m, :-1]
    warm[:m, -1] = kept[:m, n:n + m] @ tab[:m, -1]
    warm[m] = tab[m] - tab[m, basis] @ warm[:m]
    np.minimum(warm[m], 0.0, out=warm[m + 1])
    return _dual_pivots(warm, basis.copy())


def _refine(final: np.ndarray, basis: np.ndarray, tab: np.ndarray) -> None:
    """One step of iterative refinement of the basic solution of ``final``, in place.

    A kept tableau is never refactorized, so its B^-1 carries the round-off
    of every pivot since the last factorization, and so would the basic
    solution.  The residual [b; u] - B x_B is taken against the unfactored
    basis columns B of the all-slack ``tab`` and multiplied by final's own
    B^-1: two matvecs, after which x_B is as accurate as a fresh solve's.
    """
    m = basis.size
    n = tab.shape[1] - m - 1
    rhs = final[:m, -1]
    rhs += final[:m, n:n + m] @ (tab[:m, -1] - tab[:m, basis] @ rhs)


def _dual_pivots(tab: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Dual simplex pivots from ``basis`` until every rhs is at least -_PIVOT_TOL, or None.

    ``tab`` carries two cost rows: the reduced costs, then a copy with its
    positive entries set to zero.  The dual simplex runs on the copy, for
    which every basis is dual feasible, so a kept basis that is neither
    primal feasible (a lowered cap) nor dual feasible (new costs) needs no
    special case: the row of the most negative rhs leaves, and the column
    of least ratio (shifted cost over negative row entry) enters, which
    keeps the copy nonpositive.  When the costs did not move, the copy is
    the reduced costs themselves.  The true reduced costs are carried along
    for the primal pivots that finish.  A row with no negative entry, or
    more than m pivots, gives None.
    """
    m = basis.size
    rhs, shifted = tab[:m, -1], tab[m + 1, :-1]
    for _ in range(m + 1):
        leave = int(rhs.argmin())
        if rhs[leave] >= -_PIVOT_TOL:
            return tab[:m + 1], basis
        row = tab[leave, :-1]
        ratios = np.divide(shifted, row, out=np.full(row.size, np.inf), where=row < -_PIVOT_TOL)
        enter = int(ratios.argmin())
        if ratios[enter] == np.inf:  # no negative entry: the shifted ratios are finite
            return None
        _exchange(tab, basis, leave, enter)
    return None


def _exchange(tab: np.ndarray, basis: np.ndarray, leave: int, enter: int) -> None:
    """Pivot ``tab`` in place on (leave, enter): column ``enter`` turns basic in row ``leave``."""
    tab[leave] /= tab[leave, enter]
    col = tab[:, enter].copy()
    col[leave] = 0.0
    tab -= col[:, None] * tab[leave]
    basis[leave] = enter


def _pivot(tab: np.ndarray, basis: np.ndarray) -> None:
    """Pivot ``tab`` and ``basis`` in place from a feasible basis to an optimal one."""
    m = basis.size
    cost, rhs = tab[m, :-1], tab[:m, -1]
    past = tab.shape[1]  # above every basic index, so argmin picks the lowest one among the tied
    degenerate = False
    for _ in range(100000):
        enter = int((cost > _PIVOT_TOL).argmax() if degenerate else cost.argmax())
        if cost[enter] <= _PIVOT_TOL:  # no improving column
            return
        col = tab[:m, enter]
        ratios = np.divide(rhs, col, out=np.full(m, np.inf), where=col > _PIVOT_TOL)
        least = ratios.min()
        if least == np.inf:
            raise InvariantError("unbounded packing LP; bounds rows should prevent this")
        leave = int(np.where(ratios - least <= _PIVOT_TOL, basis, past).argmin())
        degenerate = rhs[leave] <= _PIVOT_TOL
        _exchange(tab, basis, leave, enter)
    raise InvariantError("simplex failed to terminate")


def _vertex(tab: np.ndarray, basis: np.ndarray, c: np.ndarray, A: np.ndarray,
            b: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, float]:
    """The basic solution of an optimal tableau, clipped to [0, u] and checked against A x <= b."""
    n = c.size
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tab[:-1, -1][structural]
    x = np.clip(x, 0.0, u)
    if np.any(A @ x > b + FEASIBILITY_TOL):
        raise InvariantError("simplex solution violates A x <= b")
    return x, float(c @ x)


# --- exhaustive reference oracle (used by self-checks and tests) ------------------

#: most n x n subsystems the vertex enumeration solves; comb(2n, n) passes it up to n = 9
_MAX_SUBSYSTEMS = 100_000


def basic_solutions(rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(k, n) array of the feasible basic solutions of {x : rows @ x <= rhs}.

    Every n x n subsystem with |det| >= 1e-12 is solved as an equality
    system, all in one stacked call, and its solution is kept when it meets
    every row up to FEASIBILITY_TOL.
    """
    m, n = rows.shape
    count = math.comb(m, n)
    if count > _MAX_SUBSYSTEMS:
        raise CapacityError(f"vertex enumeration solves at most {_MAX_SUBSYSTEMS} "
                            f"subsystems; {m} rows in dimension {n} give {count}")
    subsets = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(m), n)),
                          dtype=np.intp, count=count * n).reshape(count, n)
    M = rows[subsets]
    regular = np.abs(np.linalg.det(M)) >= 1e-12
    X = np.linalg.solve(M[regular], rhs[subsets[regular]][..., None])[..., 0]
    return X[(X @ rows.T <= rhs + FEASIBILITY_TOL).all(axis=1)]


def vertices(C: ConvexBody, cap=None) -> np.ndarray:
    """(k, n) array of the extreme points of C intersected with {v <= cap}, with repeats.

    They are the basic solutions of the body's own rows x <= upper, -x <= 0
    and A x <= b, with the upper bounds lowered to the cap, so a body kind
    needs no code of its own.
    """
    n = C.n
    cap = np.ones(n) if cap is None else checked_array(cap, (n,), "cap", FEASIBILITY_TOL)
    rows = np.vstack([np.eye(n), -np.eye(n), C._A])
    return basic_solutions(rows, np.concatenate([np.minimum(C._upper, cap), np.zeros(n), C._b]))


def lmo_bruteforce(C: ConvexBody, g, cap=None) -> tuple[float, np.ndarray]:
    """Best objective value and witness over the origin and the vertices; first best wins."""
    g = checked_array(g, (C.n,), "objective")
    V = vertices(C, cap)  # the origin is always one of them
    values = V @ g
    best = int(np.argmax(values))
    if values[best] <= 0.0:
        return 0.0, np.zeros(C.n)
    return float(values[best]), V[best]


# --- JSON loading ------------------------------------------------------------------

CONSTRAINT_KINDS = ("box", "cardinality", "partition", "packing")


def body_from_json(obj: dict) -> ConvexBody:
    """Build a feasible body from its typed, closed JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("constraint JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "box":
        if "upper" in obj:  # the bounds fix the dimension, so "n" is then an unknown field
            return BoxBody(fields(obj, kind, kind=None, upper="reals")["upper"])
        n = fields(obj, kind, kind=None, n="int")["n"]
        return BoxBody(np.ones(checked_dimension(n, kind)))
    if kind == "cardinality":
        v = fields(obj, kind, kind=None, n="int", k="int")
        return CardinalityBody(v["n"], v["k"])
    if kind == "partition":
        v = fields(obj, kind, kind=None, n="int", blocks="int lists", capacities="ints")
        return PartitionBody(v["n"], tuple(map(tuple, v["blocks"])), tuple(v["capacities"]))
    if kind == "packing":
        v = fields(obj, kind, kind=None, A="matrix", b="reals")
        return PackingBody(v["A"], v["b"])
    raise InputError(f"unknown constraint kind {kind!r}; expected one of {CONSTRAINT_KINDS}")
