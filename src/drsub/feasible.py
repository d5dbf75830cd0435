"""Feasible bodies inside the unit box, with the three oracles the solvers need.

Every body contains the origin, answers membership queries, maximizes a
linear function over itself (returning an extreme point), and maximizes a
linear function over its intersection with {v <= cap}.  Four variants are
provided: boxes with per-coordinate upper bounds, the cardinality polytope
sum x <= k, partition bodies with per-block budgets, and packing polytopes
A x <= b with nonnegative A.  Packing oracles run on a small dense simplex
with Bland's anti-cycling rule; the other variants use closed-form greedy
fills.  Exhaustive reference oracles used for cross-checking live at the
bottom of the module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, InvariantError, fields

#: single membership tolerance used across the toolkit
FEASIBILITY_TOL = 1e-9

#: desk-scale cap on every body's dimension and on the dense simplex's rows
MAX_DIMENSION = 64


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
    if not np.all(np.isfinite(x)):
        raise InputError(f"{name} contains NaN or infinity")
    return x


class ConvexBody:
    """Interface shared by all feasible-set variants.

    Instances are immutable; all oracle calls are pure and allocate their
    own scratch, so a body can be shared between concurrent runs.  Every
    variant is down-closed by construction (0 <= y <= x in the body puts y
    in the body), which the masked oracle and the grid oracle's slack rely on.
    """

    n: int

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        raise NotImplementedError

    def lmo(self, g) -> np.ndarray:
        """Extreme point maximizing <g, v> over the body.

        Ties are broken deterministically: lowest coordinate index first,
        and coordinates with nonpositive coefficients stay at zero.
        """
        raise NotImplementedError

    def masked_lmo(self, g, cap) -> np.ndarray:
        """Maximize <g, v> over the body intersected with {v <= cap}."""
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

    @property
    def n(self) -> int:
        return self.upper.size

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_vector(x, self.n)
        return bool(np.all(x >= -tol) and np.all(x <= self.upper + tol))

    def lmo(self, g) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        return np.where(g > 0.0, self.upper, 0.0)

    def masked_lmo(self, g, cap) -> np.ndarray:
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
class CardinalityBody(ConvexBody):
    """Cardinality polytope {x in [0,1]^n : sum x <= k}."""

    n: int
    k: int

    def __post_init__(self):
        checked_dimension(self.n, "cardinality")
        if not _is_int(self.k) or self.k < 0:
            raise InputError("cardinality budget k must be a nonnegative integer")

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_vector(x, self.n)
        return bool(np.all(x >= -tol) and np.all(x <= 1.0 + tol)
                    and float(np.sum(x)) <= self.k + tol)

    def lmo(self, g) -> np.ndarray:
        return self.masked_lmo(g, np.ones(self.n))

    def masked_lmo(self, g, cap) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        return _greedy_fill(g, self._check_cap(cap), [range(self.n)], [self.k])

    def diameter(self) -> float:
        # exact: the vertices are 0/1 points with at most k ones, so two of them
        # differ in at most min(2k, n) coordinates; disjoint supports attain it
        return float(min(2 * self.k, self.n))


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

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_vector(x, self.n)
        if np.any(x < -tol) or np.any(x > 1.0 + tol):
            return False
        return all(float(np.sum(x[list(blk)])) <= k + tol
                   for blk, k in zip(self.blocks, self.capacities))

    def lmo(self, g) -> np.ndarray:
        return self.masked_lmo(g, np.ones(self.n))

    def masked_lmo(self, g, cap) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        return _greedy_fill(g, self._check_cap(cap), self.blocks, self.capacities)

    def diameter(self) -> float:
        # blocks are coordinate-disjoint, so square distances add up
        return float(sum(min(2 * k, len(blk)) for blk, k in zip(self.blocks, self.capacities)))


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
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise InputError("A and b must be finite")
        if np.any(A < 0):
            raise InputError("packing matrix must be entrywise nonnegative")
        if np.any(b <= 0):
            raise InputError("packing rhs must be strictly positive")
        if A.shape[0] > MAX_DIMENSION or A.shape[1] > MAX_DIMENSION:
            raise CapacityError(f"dense simplex supports at most {MAX_DIMENSION} rows/columns")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = _as_vector(x, self.n)
        return bool(np.all(x >= -tol) and np.all(x <= 1.0 + tol)
                    and np.all(self.A @ x <= self.b + tol))

    def lmo(self, g) -> np.ndarray:
        return self.masked_lmo(g, np.ones(self.n))

    def masked_lmo(self, g, cap) -> np.ndarray:
        g = _as_vector(g, self.n, "objective")
        cap = self._check_cap(cap)
        # coordinates with nonpositive payoff (or a zero cap) stay at zero;
        # this keeps the output minimal and the subproblem bounds positive
        active = [i for i in range(self.n) if g[i] > 0.0 and cap[i] > 0.0]
        v = np.zeros(self.n)
        if not active:
            return v
        problem = LpProblem(g[active], self.A[:, active], self.b, cap[active])
        x_sub, _ = simplex_solve(problem)
        v[active] = x_sub
        return v

    def diameter(self) -> float:
        # safe overestimate (unit-box bound); only ever used inside upper bounds
        return float(self.n)


# --- dense simplex ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LpProblem:
    """max c.x subject to A x <= b, 0 <= x <= u, with A >= 0 and b > 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        u = np.asarray(self.u, dtype=float)
        n = c.size
        if A.shape != (b.size, n):
            raise InputError("A must be (len(b), len(c))")
        if u.shape != (n,):
            raise InputError("need one upper bound per variable")
        if np.any(A < 0):
            raise InputError("constraint matrix must be nonnegative")
        if np.any(b <= 0):
            raise InputError("rhs must be strictly positive")
        if np.any(u <= 0) or np.any(u > 1.0):
            raise InputError("variable upper bounds must lie in (0, 1]")
        if n > MAX_DIMENSION or b.size > MAX_DIMENSION:
            raise CapacityError(f"dense simplex supports at most {MAX_DIMENSION} rows/columns")
        for name, v in (("c", c), ("A", A), ("b", b), ("u", u)):
            if not np.all(np.isfinite(v)):
                raise InputError(f"{name} contains NaN or infinity")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "u", u)


def simplex_solve(p: LpProblem, tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Solve a small packing LP exactly with the dense primal simplex.

    The variable bounds are carried as explicit rows, so the all-slack
    basis is feasible from the start and the problem is always bounded.
    Bland's rule (lowest eligible index enters; among minimum-ratio rows
    the lowest basic index leaves) rules out cycling, and the tableau is
    allocated per call.
    """
    n = p.c.size
    G = np.vstack([p.A, np.eye(n)])
    h = np.concatenate([p.b, p.u])
    m = G.shape[0]

    # columns: n structural variables then m slacks; last column is the rhs
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = G
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = h
    tab[m, :n] = p.c  # reduced-cost row; positive entry means improvement
    basis = list(range(n, n + m))

    for _ in range(100000):
        enter = -1
        for j in range(n + m):
            if tab[m, j] > tol:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best_ratio = np.inf
        for i in range(m):
            if tab[i, enter] > tol:
                r = tab[i, -1] / tab[i, enter]
                if r < best_ratio - tol or (abs(r - best_ratio) <= tol
                                            and (leave < 0 or basis[i] < basis[leave])):
                    best_ratio = r
                    leave = i
        if leave < 0:
            raise InvariantError("unbounded packing LP; bounds rows should prevent this")
        pivot = tab[leave, enter]
        tab[leave, :] /= pivot
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i, :] -= tab[i, enter] * tab[leave, :]
        basis[leave] = enter
    else:
        raise InvariantError("simplex failed to terminate")

    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i, -1]
    x = np.clip(x, 0.0, p.u)
    return x, float(p.c @ x)


# --- exhaustive reference oracles (used by self-checks and tests) -----------------


def extreme_point_candidates(C: ConvexBody, cap: np.ndarray | None = None) -> list[np.ndarray]:
    """All extreme points of the (optionally capped) body, for small n.

    Box bodies enumerate corner patterns.  Cardinality and partition
    bodies enumerate every support whose capped coordinates fit the
    budgets, plus the vertices with a single fractional coordinate that
    appear when a budget binds between caps.  Packing bodies enumerate
    basic solutions of the defining inequality system.
    """
    n = C.n
    cap = np.ones(n) if cap is None else np.clip(np.asarray(cap, dtype=float), 0.0, 1.0)
    if n > 12:
        raise CapacityError("reference enumeration is desk-scale only (n <= 12)")

    if isinstance(C, BoxBody):
        hi = np.minimum(C.upper, cap)
        pts = [np.array(pattern) * hi for pattern in itertools.product((0.0, 1.0), repeat=n)]
        return pts

    if isinstance(C, (CardinalityBody, PartitionBody)):
        # extreme points have at most one fractional coordinate per budget
        # constraint, so enumerate each block and take cross products
        if isinstance(C, CardinalityBody):
            blocks = [tuple(range(n))]
            budgets = [C.k]
        else:
            blocks = list(C.blocks)
            budgets = list(C.capacities)
        per_block = [_budget_block_candidates(len(blk), float(k), cap[list(blk)])
                     for blk, k in zip(blocks, budgets)]
        out = []
        for combo in itertools.product(*per_block):
            v = np.zeros(n)
            for blk, piece in zip(blocks, combo):
                v[list(blk)] = piece
            out.append(v)
        return out

    if isinstance(C, PackingBody):
        rows = np.vstack([C.A, np.eye(n), -np.eye(n)])
        rhs = np.concatenate([C.b, np.minimum(np.ones(n), cap), np.zeros(n)])
        return basic_solutions(rows, rhs)

    raise InputError(f"no reference enumeration for body type {type(C).__name__}")


def _budget_block_candidates(size: int, budget: float, cap: np.ndarray) -> list[np.ndarray]:
    """Extreme points of {0 <= v <= cap, sum v <= budget} on one block."""
    out = []
    for pattern in itertools.product((False, True), repeat=size):
        base = np.where(pattern, cap, 0.0)
        if float(np.sum(base)) <= budget + 1e-12:
            out.append(base)
            residual = budget - float(np.sum(base))
            for j in range(size):
                if pattern[j] or cap[j] <= 0.0 or residual <= 0.0:
                    continue
                v = base.copy()
                v[j] = min(cap[j], residual)
                out.append(v)
    return out


def basic_solutions(rows: np.ndarray, rhs: np.ndarray, tol: float = 1e-9) -> list[np.ndarray]:
    """Feasible basic solutions of {x : rows @ x <= rhs} (n x n subsystems)."""
    n = rows.shape[1]
    out: list[np.ndarray] = []
    for subset in itertools.combinations(range(rows.shape[0]), n):
        M = rows[list(subset)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, rhs[list(subset)])
        if np.all(rows @ x <= rhs + tol):
            out.append(x)
    return out


def lmo_bruteforce(C: ConvexBody, g, cap=None) -> tuple[float, np.ndarray]:
    """Best objective value and witness over the enumerated extreme points."""
    g = _as_vector(g, C.n, "objective")
    best_v = np.zeros(C.n)
    best = float(g @ best_v)
    for v in extreme_point_candidates(C, cap):
        val = float(g @ v)
        if val > best + 0.0:
            best, best_v = val, v
    return best, best_v


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
