"""Objective functions with diminishing returns on the unit box.

Everything here evaluates a nonnegative differentiable function
F: [0,1]^n -> R+ whose gradient is antitone (x >= y componentwise implies
grad F(x) <= grad F(y)), together with an analytic gradient oracle and a
smoothness constant L valid in the 2-norm sense.  Four closed-form
families are provided (the multilinear extension of weighted coverage,
exact multilinear extensions of small set functions given by their value
tables, nonpositive-Hessian quadratics, and smoothed concave-of-modular
sums), plus the test utilities used to cross-examine any instance:
a diminishing-returns residual and a finite-difference gradient.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import CapacityError, InputError, checked_array, fields, is_int, real_array
from .feasible import checked_dimension, row_products

#: round-off up to this far outside the unit box is clamped; farther points are rejected
CLAMP_TOL = 1e-12

#: smoothing floor for the concave-of-modular family (a bare square root
#: has an unbounded derivative at 0, so some floor is required for a
#: finite smoothness constant)
SQRT_FLOOR = 1e-3

_MAX_GROUND_SET = 20

#: desk-scale cap on a coverage universe
_MAX_UNIVERSE = 4096

#: round-off allowed in the exhaustive set checks, as fractions of max f: a marginal
#: may fall by _MONOTONE_TOL, and a second difference may rise by _SUBMODULAR_TOL
_MONOTONE_TOL = 1e-12
_SUBMODULAR_TOL = 1e-9

#: floats per row block of a coverage batch (512 KB); a block holds at least one row,
#: at most 4096 groups by 20 sets (640 KB)
_COVERAGE_BLOCK = 1 << 16

#: rows per block of make_quadratic's vertex scan and of the grid oracle's feasible mesh; a
#: block of n=6 points and its values take well under 1 MB
MESH_CHUNK = 4096

#: finite_diff_grad's step h (it extrapolates from h and 2h)
_FD_STEP = 1e-4


@dataclass(frozen=True)
class DrFunction:
    """Value/gradient oracle pair for one objective instance.

    Instances are immutable and evaluation is pure, so a single instance
    may be shared freely between threads.  ``L`` bounds the Lipschitz
    constant of the gradient; ``monotone`` is True only when the gradient
    is nonnegative everywhere on the box.  ``values_fn`` maps a (k, n) batch
    to its k values, computing each row exactly as a one-row batch would;
    ``value`` is ``values_fn`` on the one-row batch, so ``values`` agrees
    bit for bit with ``value``.  A point inside the box reaches ``values_fn``
    and ``grad_fn`` as the caller's own array, not a copy, so neither may
    write to its argument.  The constructors below copy their array inputs,
    so a caller's later edit changes neither the function nor its ``L``.
    """

    n: int
    L: float
    monotone: bool
    values_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]

    def value(self, x) -> float:
        return float(self.values_fn(checked_array(x, (self.n,), "point", CLAMP_TOL)[None])[0])

    def values(self, X) -> np.ndarray:
        """The k values of a (k, n) batch; row i equals value(X[i]) exactly."""
        return np.asarray(self.values_fn(checked_array(X, (None, self.n), "the batch", CLAMP_TOL)),
                          dtype=float)

    def grad(self, x) -> np.ndarray:
        return np.asarray(self.grad_fn(checked_array(x, (self.n,), "point", CLAMP_TOL)),
                          dtype=float)


# --- set functions and their multilinear extensions ---------------------------


@dataclass(frozen=True, eq=False)
class SetFunction:
    """Submodular set function on a ground set of size m, stored as a full value table.

    ``table[s]`` is the value of the subset whose bitmask is s (bit i set
    means element i is in the subset), and the table is the instance's own
    read-only copy of the values it was given.  Ground sets are capped at
    20 elements so the table and all exhaustive checks stay exact.  A table
    whose largest second difference exceeds _SUBMODULAR_TOL * max f is
    refused: every certificate built on the table, its extension's DR
    property and set_bruteforce's slack 0, needs submodularity.
    """

    m: int
    table: np.ndarray

    def __post_init__(self):
        if self.m < 0 or self.m > _MAX_GROUND_SET:
            raise CapacityError(f"ground-set size must be in [0, {_MAX_GROUND_SET}], got {self.m}")
        table = np.array(self.table, dtype=float)
        if table.shape != (1 << self.m,):
            raise InputError(f"value table must have length 2^{self.m}")
        if not np.all(np.isfinite(table)):
            raise InputError("value table contains NaN or infinity")
        if np.any(table < 0):
            raise InputError("set-function values must be nonnegative")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if self.differences[2] > _SUBMODULAR_TOL * self.max_value():
            raise InputError("table values are not submodular")

    def max_value(self) -> float:
        return float(self.table.max())

    def values(self, S) -> np.ndarray:
        """f at each bitmask of S."""
        return self.table[S]

    @cached_property
    def differences(self) -> tuple[float, float, float]:
        """Smallest f(S+i) - f(S), then smallest and largest f(S+i+j) - f(S+i) - f(S+j) + f(S).

        Each is 0 when there is no element, or no pair.  One O(m^2 2^m)
        pass, made once, at construction, for the submodularity and
        monotonicity checks and the extension's L together.
        """
        T = self.table.reshape((2,) * self.m)  # one axis per element
        first = lo = hi = 0.0
        for i in range(self.m):
            along_i = np.diff(T, axis=i)
            first = min(first, float(along_i.min()))
            for j in range(i + 1, self.m):
                D = np.diff(along_i, axis=j)
                lo, hi = min(lo, float(D.min())), max(hi, float(D.max()))
        return first, lo, hi


def set_function_from_table(values: Sequence[float]) -> SetFunction:
    table = checked_array(values, (None,), "value table")
    m = int(table.size).bit_length() - 1
    if table.size != (1 << max(m, 0)):
        raise InputError(f"table length {table.size} is not a power of two")
    return SetFunction(m, table)


def _coverage_groups(subsets: Sequence[Sequence[int]], weights: Sequence[float] | None,
                     n_elements: int | None) -> tuple[int, np.ndarray, np.ndarray]:
    """Validate a weighted coverage and group its universe by cover mask.

    Returns m and, for every group of elements covered by exactly the same
    sets, that cover mask (bit i is set i) and the group's total weight.
    Uncovered elements (mask 0) and groups of weight 0 add nothing anywhere
    and are dropped.
    """
    if not np.iterable(subsets) or not all(map(np.iterable, subsets)):
        raise InputError(f"subsets must be a list of integer lists, got {reprlib.repr(subsets)}")
    m = len(subsets)
    if m > _MAX_GROUND_SET:
        raise CapacityError(f"at most {_MAX_GROUND_SET} covering sets supported, got {m}")
    if not all(is_int(e) for s in subsets for e in s):
        raise InputError("subset elements must be integer indices")
    if any(e < 0 for s in subsets for e in s):
        raise InputError("subset elements must be nonnegative indices")
    max_elt = max((max(s) for s in subsets if len(s) > 0), default=-1)
    if n_elements is None:
        n_elements = max_elt + 1
    if max_elt >= n_elements:
        raise InputError("subset references an element outside the universe")
    if n_elements > _MAX_UNIVERSE:
        raise CapacityError(f"coverage universe of {n_elements} elements exceeds "
                            f"the desk-scale cap of {_MAX_UNIVERSE}")
    # the checks below give the weights their own shape and value messages
    w = np.ones(n_elements) if weights is None else real_array(weights, "element weights")
    if w.shape != (n_elements,):
        raise InputError(f"need one weight per universe element ({n_elements})")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise InputError("element weights must be finite and nonnegative")

    covers = np.zeros(n_elements, dtype=np.int32)  # m <= 20 bits
    for i, s in enumerate(subsets):
        covers[np.asarray(s, dtype=np.intp)] |= 1 << i
    masks, which = np.unique(covers, return_inverse=True)
    group_weights = np.bincount(which, weights=w, minlength=masks.size)
    with np.errstate(over="ignore"):  # the overflow is the error raised here
        total = group_weights.sum()
    if not np.isfinite(total):  # f(ground set) would be infinite
        raise InputError("the total element weight overflows float64")
    keep = (masks != 0) & (group_weights > 0)
    return m, masks[keep], group_weights[keep]


@dataclass(frozen=True, eq=False)
class Coverage:
    """Weighted coverage as a set function, in closed form over its cover-mask groups.

    ``masks`` and ``weights`` are the groups of _coverage_groups: f(S) is the
    total weight of the groups that S meets.  It is monotone and submodular
    by construction, so it needs neither a table nor an exhaustive check.
    """

    m: int
    masks: np.ndarray
    weights: np.ndarray

    def values(self, S) -> np.ndarray:
        """f at each bitmask of S: the sum of w_g [S & g != 0], added group by group in order."""
        S = np.asarray(S)
        out = np.zeros(S.shape)
        for mask, w in zip(self.masks.tolist(), self.weights.tolist()):
            out += w * ((S & mask) != 0)
        return out


def coverage_function(subsets: Sequence[Sequence[int]],
                      weights: Sequence[float] | None = None,
                      n_elements: int | None = None) -> SetFunction:
    """Weighted coverage: f(S) = total weight of elements covered by S, as its 2^m table.

    The ground set is the list of covering subsets; ``weights`` are per
    universe element (default all ones).  The table is Coverage.values at
    every bitmask.
    """
    cover = Coverage(*_coverage_groups(subsets, weights, n_elements))
    return SetFunction(cover.m, cover.values(np.arange(1 << cover.m)))


def make_coverage(subsets: Sequence[Sequence[int]],
                  weights: Sequence[float] | None = None,
                  n_elements: int | None = None) -> DrFunction:
    """Multilinear extension of weighted coverage in closed form.

    Takes the arguments of ``coverage_function``.  A group of elements
    covered by the same sets g, of total weight w_g, is missed by the random
    set with probability prod_{i in g} (1 - x_i), so

        F(x) = sum_g w_g (1 - prod_{i in g} (1 - x_i)),
        dF/dx_i = sum_{g contains i} w_g prod_{l in g, l != i} (1 - x_l).

    A value costs O(m * groups): it multiplies the batch by the (groups, m)
    0/1 membership, 1 - in_group * x, which is exactly 1 - x_i on a group's
    members and 1 elsewhere.  The gradient lists each (group, member i)
    pair once, with the group's other members padded to D - 1 by the index
    m, whose factor is 1, for D the largest group: one gather, product and
    scatter of O(pairs * (D - 1)), pairs = sum_g |g| <= m * groups.  It has
    no division, so it is exact where some x_l = 1.  The Hessian has a zero
    diagonal and |d2F/dx_i dx_j| <= P_ij, the weight of the groups holding
    both i and j, so L = ||P||_2 bounds its norm.
    """
    return _coverage_extension(Coverage(*_coverage_groups(subsets, weights, n_elements)))


def _coverage_extension(cover: Coverage) -> DrFunction:
    """make_coverage's closed form of a grouped coverage."""
    m, masks, w = cover.m, cover.masks, cover.weights
    in_group = corners(masks, m)  # (groups, m)
    member = in_group.astype(bool)
    rows = max(1, _COVERAGE_BLOCK // max(member.size, 1))
    # each group's members in ascending order, padded with m to the largest group's D
    D = int(member.sum(axis=1).max(initial=0))
    slots = np.sort(np.where(member, np.arange(m), m), axis=1)[:, :D]
    real = slots < m
    skip = np.arange(D - 1) + (np.arange(D - 1) >= np.arange(D)[:, None])  # row j: all slots but j
    pair_sets = slots[real]
    # (D - 1, pairs) in C order: a product over axis 0 runs along contiguous rows
    pair_others = slots[:, skip][real].T.copy()
    pair_w = np.broadcast_to(w[:, None], real.shape)[real]

    def covered(block: np.ndarray) -> np.ndarray:
        # 1 - 0 * x_i is exactly 1 off the group, so this is np.where(member, 1 - x, 1)
        missed = (1.0 - in_group * block[:, None, :]).prod(axis=2)
        # einsum's row dot, unlike BLAS, is the same for any batch
        return np.einsum("ij,j->i", 1.0 - missed, w)

    def values(X: np.ndarray) -> np.ndarray:
        if X.shape[0] <= rows:
            return covered(X)
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], rows):
            out[start:start + rows] = covered(X[start:start + rows])
        return out

    def grad(x: np.ndarray) -> np.ndarray:
        factors = np.ones(m + 1)  # the padding index m reads 1
        np.subtract(1.0, x, out=factors[:m])
        return np.bincount(pair_sets, weights=pair_w * factors[pair_others].prod(axis=0),
                           minlength=m)

    pair_weights = (member.T * w) @ member
    np.fill_diagonal(pair_weights, 0.0)
    # the margin lifts SVD round-off, as for the quadratic family
    L = float(np.linalg.norm(pair_weights, 2)) * (1.0 + 1e-12) if m else 0.0
    return DrFunction(m, L, True, values, grad)


def corners(masks, m: int) -> np.ndarray:
    """The 0/1 rows of the bitmasks ``masks``: row i is the indicator vector of masks[i].

    Bit i of a mask is coordinate i, and a scalar mask gives one (m,) row.
    """
    return (np.asarray(masks)[..., None] >> np.arange(m) & 1).astype(float)


def set_is_monotone(f: SetFunction) -> bool:
    """Exhaustive marginal check: adding any element never decreases f."""
    return f.differences[0] >= -_MONOTONE_TOL * f.max_value()


def multilinear_extension(f: SetFunction) -> DrFunction:
    """Exact multilinear extension of a set function on up to 20 elements.

    The value at x is the expectation of f over the random subset that
    includes element i independently with probability x_i; the gradient
    component i is the value gap between pinning x_i to 1 and to 0.
    Both come from one pass that averages the elements out of the table,
    so each costs O(2^m).  The Hessian entry (i, j) is the expected second
    difference of f on i and j, and its diagonal is zero, so by Gershgorin
    L = (m - 1) * (largest |second difference|) bounds its norm.
    """
    table, m = f.table, f.m

    def partials(X: np.ndarray) -> list[np.ndarray]:
        """partials[i][r] is the table with elements 0..i-1 averaged out at row r of X.

        The table level has one row, which matmul broadcasts against the k rows.
        """
        # (1 - x_i, x_i) per element and row, filled in place: np.stack would
        # nearly double the value of one point at m = 3
        weights = np.empty((m, X.shape[0], 2, 1))
        weights[:, :, 0, 0] = 1.0 - X.T
        weights[:, :, 1, 0] = X.T
        v = [table[None]]
        for w in weights:
            rows, size = v[-1].shape
            v.append((v[-1].reshape(rows, size // 2, 2) @ w)[..., 0])
        return v

    def values(X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        out[:] = partials(X)[-1][:, 0]  # with m = 0 the last level is the table's one row
        return out

    def grad(x: np.ndarray) -> np.ndarray:
        # g_k pins element k in partials[k] and averages out elements k+1..m-1,
        # whose inclusion weights the reverse sweep builds one element at a time
        v = partials(x[None])
        g = np.empty(m)
        weights = np.ones(1)
        for k in reversed(range(m)):
            p = v[k][0]
            g[k] = (p[1::2] - p[0::2]) @ weights
            weights = (weights[:, None] * (1.0 - x[k], x[k])).ravel()
        return g

    _, lo, hi = f.differences
    L = max(m - 1, 0) * max(-lo, hi)
    return DrFunction(m, float(L), set_is_monotone(f), values, grad)


# --- closed-form instance families ---------------------------------------------


def make_quadratic(H, c) -> DrFunction:
    """Quadratic instance x . c + x^T H x / 2 + d with H symmetric, H <= 0 entrywise.

    The offset d lifts the minimum over the box to zero; because the
    function is concave along every coordinate, that minimum sits at one
    of the 2^n box vertices and is found exactly by scoring them in blocks.
    """
    c = checked_array(c, (None,), "c").copy()
    n = c.size
    H = checked_array(H, (n, n), "H").copy()
    if np.any(H > 0):
        raise InputError("H must be entrywise nonpositive")
    if not np.allclose(H, H.T, rtol=0.0, atol=1e-12):
        raise InputError("H must be symmetric")
    if n > _MAX_GROUND_SET:
        raise CapacityError(f"vertex enumeration supports n <= {_MAX_GROUND_SET}")
    checked_dimension(n, "quadratic")
    half_H = 0.5 * H

    def unlifted(X: np.ndarray) -> np.ndarray:
        # x . (c + H x / 2) row by row; einsum's row dot, unlike BLAS, is the same for any batch
        return np.einsum("ij,ij->i", row_products(X, half_H) + c, X)

    d = -min(unlifted(corners(np.arange(s, min(s + MESH_CHUNK, 1 << n)), n)).min()
             for s in range(0, 1 << n, MESH_CHUNK))

    def values(X: np.ndarray) -> np.ndarray:
        return unlifted(X) + d

    def grad(x: np.ndarray) -> np.ndarray:
        return c + H @ x

    monotone = bool(np.all(c + H @ np.ones(n) >= 0.0))
    # the margin lifts SVD round-off (far below 1e-12 for n <= 20): L is an upper bound
    L = float(np.linalg.norm(H, 2)) * (1.0 + 1e-12)
    return DrFunction(n, L, monotone, values, grad)


def make_concave_modular(weights: Sequence[Sequence[float]], n: int | None = None) -> DrFunction:
    """Sum of sqrt(floor + w_k . x) terms, shifted to vanish at the origin."""
    if not np.iterable(weights):
        raise InputError(f"weights must be a list of weight vectors, got {reprlib.repr(weights)}")
    ws = [checked_array(w, (None,), "weight vector") for w in weights]
    if ws:
        n = ws[0].shape[0] if n is None else n
    elif n is None:
        raise InputError("dimension n is required when the weight list is empty")
    checked_dimension(n, "concave_modular")
    for w in ws:
        if w.shape != (n,):
            raise InputError("all weight vectors must share one dimension")
        if np.any(w < 0):
            raise InputError("weight vectors must be finite and nonnegative")
        if not np.any(w > 0):
            raise InputError("weight vectors must be nonzero")

    W = np.array(ws).reshape(len(ws), n)
    base = len(ws) * np.sqrt(SQRT_FLOOR)
    L = float(np.sum(np.sum(W * W, axis=1)) / (4.0 * SQRT_FLOOR ** 1.5))

    def values(X: np.ndarray) -> np.ndarray:
        return np.sqrt(SQRT_FLOOR + row_products(X, W)).sum(axis=1) - base

    def grad(x: np.ndarray) -> np.ndarray:
        return (W / (2.0 * np.sqrt(SQRT_FLOOR + W @ x))[:, None]).sum(axis=0)

    return DrFunction(int(n), L, True, values, grad)


# --- verification utilities -----------------------------------------------------


def check_dr_inequality(f: DrFunction, x, y) -> float:
    """Residual of the diminishing-returns inequality at the pair (x, y).

    Returns <grad F(x), y - x> - [F(max(x,y)) + F(min(x,y)) - 2 F(x)],
    which is nonnegative (up to round-off) for every valid instance.
    """
    x = checked_array(x, (f.n,), "x", CLAMP_TOL)
    y = checked_array(y, (f.n,), "y", CLAMP_TOL)
    lhs = float(f.grad(x) @ (y - x))
    upper, lower, at_x = f.values(np.stack([np.maximum(x, y), np.minimum(x, y), x]))
    return lhs - float(upper + lower - 2.0 * at_x)


def finite_diff_grad(f: DrFunction, x) -> np.ndarray:
    """Central differences Richardson-extrapolated from steps h = _FD_STEP and 2h.

    Each step shrinks to keep the stencil symmetric inside the box (on a face
    it falls back to one side).  (4 D(h) - D(2h)) / 3 cancels the h^2 term,
    which dominates where the curvature is steep, as just above SQRT_FLOOR.
    All 4n stencil points are scored by one ``values`` call.
    """
    x = checked_array(x, (f.n,), "x", CLAMP_TOL)
    diag = np.arange(f.n)
    ends = []  # for h, then 2h: every coordinate moved up, then every coordinate moved down
    for full in (_FD_STEP, 2.0 * _FD_STEP):
        step = np.minimum(np.minimum(full, x), 1.0 - x)
        step[step == 0.0] = full
        ends += [np.minimum(x + step, 1.0), np.maximum(x - step, 0.0)]
    rows = np.tile(x, (4, f.n, 1))  # (end, coordinate, point)
    rows[:, diag, diag] = ends
    hi_h, lo_h, hi_2h, lo_2h = f.values(rows.reshape(-1, f.n)).reshape(4, f.n)
    return (4.0 * ((hi_h - lo_h) / (ends[0] - ends[1]))
            - (hi_2h - lo_2h) / (ends[2] - ends[3])) / 3.0


# --- JSON loading ----------------------------------------------------------------

INSTANCE_KINDS = ("coverage", "quadratic", "concave_modular", "table")


def instance_from_json(obj: dict) -> tuple[DrFunction, SetFunction | Coverage | None]:
    """Build an instance from its JSON description.

    Returns the objective together with its set function for the coverage
    and table kinds (None for the smooth families).  A coverage's universe is
    validated and grouped once, and both its extension and its set function
    are closed forms over those groups.  A table is a SetFunction, so a
    table that is not submodular is refused.  Fields are typed and closed: a
    mistyped, missing or unknown field raises InputError.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError("instance JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "coverage":
        v = fields(obj, kind, kind=None, subsets="int lists", weights="reals?",
                   n_elements="int?")
        cover = Coverage(*_coverage_groups(v["subsets"], v.get("weights"), v.get("n_elements")))
        return _coverage_extension(cover), cover
    if kind == "table":
        v = fields(obj, kind, kind=None, values="reals", m="int?")
        sf = set_function_from_table(v["values"])
        if v.get("m", sf.m) != sf.m:
            raise InputError(f"declared m={v['m']} does not match table length 2^{sf.m}")
        return multilinear_extension(sf), sf
    if kind == "quadratic":
        v = fields(obj, kind, kind=None, H="matrix", c="reals")
        return make_quadratic(v["H"], v["c"]), None
    if kind == "concave_modular":
        v = fields(obj, kind, kind=None, weights="matrix", n="int?")
        return make_concave_modular(v["weights"], v.get("n")), None
    raise InputError(f"unknown instance kind {kind!r}; expected one of {INSTANCE_KINDS}")
