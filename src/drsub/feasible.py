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
cannot occur.  It can start from the basis of a given vertex, such as the
previous Frank-Wolfe step's, and keeps that answer only when the optimum
is unique.  The other kinds (box, partition) use closed-form greedy fills.
The exhaustive reference oracle at the bottom of the module, used for
cross-checking, enumerates the vertices of the inequality system every
body stores.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InvariantError, fields

#: single membership tolerance used across the toolkit
FEASIBILITY_TOL = 1e-9

#: desk-scale cap on every body's dimension and on the dense simplex's rows
MAX_DIMENSION = 64

#: pivot tolerance of the dense simplex: reduced costs, pivot entries, ratio ties and degenerate pivots
_PIVOT_TOL = 1e-10


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def checked_dimension(n: int, what: str) -> int:
    """``n`` if it is a positive dimension within the desk-scale cap."""
    if n < 1:
        raise InputError(f"{what} dimension n must be positive, got {n}")
    if n > MAX_DIMENSION:
        raise CapacityError(f"{what} dimension {n} exceeds the desk-scale cap of {MAX_DIMENSION}")
    return n


def _as_vector(x, n: int, name: str = "point") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise InputError(f"{name} must have dimension {n}, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InputError(f"{name} contains NaN or infinity")
    return x


def _as_rows(X, n: int) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != n:
        raise InputError(f"points must form a (k, {n}) batch, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InputError("points contain NaN or infinity")
    return X


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
    Every variant is also a polyhedron {x : G x <= h}: the rows x <= upper
    and -x <= 0, then the body's own inequalities A x <= b with A >= 0.
    Membership tests them, and as computed in floating point it is monotone
    along every coordinate of a nonnegative point: rounding preserves order
    under a nonnegative factor and under addition, and row_products sums
    each row in an order that does not depend on the batch.  So raising a
    coordinate of a point outside the body never brings it in, which the
    grid oracle's feasible-mesh walk relies on.
    """

    n: int

    def contains(self, x) -> bool:
        """Membership up to FEASIBILITY_TOL."""
        return bool(self._inside(_as_vector(x, self.n)[None])[0])

    def contains_batch(self, X) -> np.ndarray:
        """(k,) membership mask of the rows of a (k, n) batch, by the rule of contains."""
        return self._inside(_as_rows(X, self.n))

    def _inside(self, X: np.ndarray) -> np.ndarray:
        Gx = np.concatenate((X, -X, row_products(X, self._A)), axis=1)
        return (Gx <= self._h + FEASIBILITY_TOL).all(axis=1)

    def _set_inequalities(self, upper: np.ndarray, A: np.ndarray, b: np.ndarray) -> None:
        """Store the rows x <= upper, -x <= 0 and A x <= b that membership tests."""
        object.__setattr__(self, "_A", A)
        object.__setattr__(self, "_h", np.concatenate([upper, np.zeros(upper.size), b]))

    def lmo(self, g, start=None) -> np.ndarray:
        """Extreme point maximizing <g, v> over the body.

        Ties are broken deterministically: box and partition bodies fill the
        lowest coordinate index first, packing bodies take the vertex the simplex's
        pivot rule reaches, and coordinates with nonpositive coefficients
        stay at zero.  ``start``, a point of the body's dimension such as the
        previous Frank-Wolfe vertex, is a hint that only saves work: packing
        bodies start the simplex from it when it is a nondegenerate vertex
        of the LP (see simplex_solve) and keep that answer only when the
        optimum is unique, so the tie rule above holds with or without it;
        box and partition bodies ignore it.
        """
        raise NotImplementedError

    def masked_lmo(self, g, cap, start=None) -> np.ndarray:
        """Maximize <g, v> over the body intersected with {v <= cap}; ``start`` as in lmo."""
        raise NotImplementedError

    def diameter(self) -> float:
        """Upper bound on max ||x - y||_2^2 over the body (exact where noted)."""
        raise NotImplementedError

    def _check_cap(self, cap) -> np.ndarray:
        cap = _as_vector(cap, self.n, "cap")
        if np.any(cap < -FEASIBILITY_TOL) or np.any(cap > 1.0 + FEASIBILITY_TOL):
            raise InputError("cap must lie in [0, 1]^n")
        return np.clip(cap, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class BoxBody(ConvexBody):
    """Axis-aligned box [0, u] with u in (0, 1]^n."""

    upper: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.upper, dtype=float)
        if u.ndim != 1 or u.size == 0:
            raise InputError("box upper bounds must be a nonempty vector")
        checked_dimension(u.size, "box")
        if np.any(u <= 0) or np.any(u > 1.0) or not np.all(np.isfinite(u)):
            raise InputError("box upper bounds must lie in (0, 1]")
        object.__setattr__(self, "upper", u)
        self._set_inequalities(u, np.zeros((0, u.size)), np.zeros(0))

    @property
    def n(self) -> int:
        return self.upper.size

    def lmo(self, g, start=None) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        return np.where(g > 0.0, self.upper, 0.0)

    def masked_lmo(self, g, cap, start=None) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        cap = self._check_cap(cap)
        return np.where(g > 0.0, np.minimum(self.upper, cap), 0.0)

    def diameter(self) -> float:
        return float(np.sum(self.upper ** 2))


def _greedy_fill(g: np.ndarray, cap: np.ndarray, blocks, budgets) -> np.ndarray:
    """Per block, fill the coordinates of largest positive g up to cap until the budget is spent."""
    v = np.zeros(g.size)
    for blk, k in zip(blocks, budgets):
        budget = float(k)
        for i in sorted(blk, key=lambda i: (-g[i], i)):
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
        if not all(map(_is_int, [*self.capacities, *(i for blk in self.blocks for i in blk)])):
            raise InputError("block indices and capacities must be integers")
        blocks = tuple(tuple(int(i) for i in blk) for blk in self.blocks)
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

    def lmo(self, g, start=None) -> np.ndarray:
        return self.masked_lmo(g, np.ones(self.n), start)

    def masked_lmo(self, g, cap, start=None) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        return _greedy_fill(g, self._check_cap(cap), self.blocks, self.capacities)

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
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.size:
            raise InputError("A must be a matrix with one rhs entry per row")
        checked_dimension(A.shape[1], "packing")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise InputError("A and b must be finite")
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
        return self.masked_lmo(g, np.ones(self.n), start)

    def masked_lmo(self, g, cap, start=None) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        cap = self._check_cap(cap)
        start = None if start is None else _as_vector(start, self.n, "start")
        # coordinates with nonpositive payoff (or a zero cap) stay at zero;
        # this keeps the output minimal and the subproblem bounds positive
        active = np.flatnonzero((g > 0.0) & (cap > 0.0))
        v = np.zeros(self.n)
        if active.size:
            v[active] = simplex_solve(g[active], self.A[:, active], self.b, cap[active],
                                      None if start is None else start[active])[0]
        return v

    def diameter(self) -> float:
        # safe overestimate (unit-box bound); only ever used inside upper bounds
        return float(self.n)


# --- dense simplex ---------------------------------------------------------------


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

    ``start`` (a point of shape (len(c),), or None) only saves pivots.  When
    it is a nondegenerate vertex of this LP (feasible, with exactly as many
    positive coordinates and loose rows of A x <= b, x <= u as there are
    rows), the pivots start from its basis, rebuilt by one solve.  That
    answer is kept only when every nonbasic reduced cost ends below
    -_PIVOT_TOL: the optimum is then unique, so it is the vertex the
    all-slack start reaches, up to round-off.  Any other start, and a warm
    answer that fails the test, give the all-slack solve bit for bit.
    """
    n = c.size
    G = np.vstack([A, np.eye(n)])
    m = G.shape[0]

    # columns: n structural variables then m slacks; last column is the rhs
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = G
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = np.concatenate([b, u])
    tab[m, :n] = c  # reduced-cost row; positive entry means improvement

    if start is not None:
        warm = _warm_tableau(tab, _as_vector(start, n, "start"))
        if warm is not None:
            warm_tab, basis = warm
            _pivot(warm_tab, basis)
            if np.all(np.delete(warm_tab[m, :-1], basis) < -_PIVOT_TOL):
                return _vertex(warm_tab, basis, c, A, b, u)
    basis = np.arange(n, n + m)
    _pivot(tab, basis)
    return _vertex(tab, basis, c, A, b, u)


def _warm_tableau(tab: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The all-slack tableau ``tab`` rewritten in the basis of the vertex x, or None.

    None unless x is a nondegenerate vertex: its coordinates and slacks z are
    all >= -_PIVOT_TOL and exactly m of them exceed _PIVOT_TOL.  Feasibility
    costs one matvec, so a rejected start adds no factorization.
    """
    m, n = tab.shape[0] - 1, x.size
    z = np.concatenate([x, tab[:m, -1] - tab[:m, :n] @ x])
    if np.any(z < -_PIVOT_TOL):
        return None
    basis = np.flatnonzero(z > _PIVOT_TOL)
    if basis.size != m:
        return None
    try:
        rows = np.linalg.solve(tab[:m, basis], tab[:m])
    except np.linalg.LinAlgError:  # a singular basis matrix
        return None
    if not np.all(rows[:, -1] >= 0.0):
        return None
    return np.vstack([rows, tab[m] - tab[m, basis] @ rows]), basis


def _pivot(tab: np.ndarray, basis: np.ndarray) -> None:
    """Pivot ``tab`` and ``basis`` in place from a feasible basis to an optimal one."""
    m = basis.size
    degenerate = False
    for _ in range(100000):
        improving = np.flatnonzero(tab[m, :-1] > _PIVOT_TOL)
        if improving.size == 0:
            return
        enter = improving[0] if degenerate else np.argmax(tab[m, :-1])
        rows = np.flatnonzero(tab[:m, enter] > _PIVOT_TOL)
        if rows.size == 0:
            raise InvariantError("unbounded packing LP; bounds rows should prevent this")
        ratios = tab[rows, -1] / tab[rows, enter]
        tied = rows[ratios - ratios.min() <= _PIVOT_TOL]
        leave = tied[np.argmin(basis[tied])]
        degenerate = tab[leave, -1] <= _PIVOT_TOL
        tab[leave] /= tab[leave, enter]
        col = tab[:, enter].copy()
        col[leave] = 0.0
        tab -= np.outer(col, tab[leave])
        basis[leave] = enter
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

    They are the basic solutions of the body's own system G x <= h, with the
    upper bounds lowered to the cap, so a body kind needs no code of its own.
    """
    n = C.n
    cap = np.ones(n) if cap is None else C._check_cap(cap)
    rows = np.vstack([np.eye(n), -np.eye(n), C._A])
    return basic_solutions(rows, np.concatenate([np.minimum(C._h[:n], cap), C._h[n:]]))


def lmo_bruteforce(C: ConvexBody, g, cap=None) -> tuple[float, np.ndarray]:
    """Best objective value and witness over the origin and the vertices; first best wins."""
    g = _as_vector(g, C.n, "objective")
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
