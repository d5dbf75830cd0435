import itertools

import numpy as np
import pytest

from drsub import oracle


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def kept_tableaus(monkeypatch):
    """What every feasible._kept_tableau call of the test returned: one entry per attempted reuse.

    None means the dual pivots could not repair the kept basis.  A repaired
    tableau may still be refused by the unique-optimum rule, so ``reuses``
    counts the accepted ones.
    """
    from drsub import feasible
    seen = []
    tableau = feasible._kept_tableau
    monkeypatch.setattr(feasible, "_kept_tableau", lambda *a: seen.append(tableau(*a)) or seen[-1])
    return seen


@pytest.fixture
def reuses(monkeypatch):
    """One entry per accepted reuse of a kept tableau: each takes one feasible._refine call."""
    from drsub import feasible
    seen = []
    refine = feasible._refine
    monkeypatch.setattr(feasible, "_refine", lambda *a: seen.append(1) or refine(*a))
    return seen


def empirical_smoothness(f, samples: int = 100, seed: int = 0) -> float:
    """Largest observed gradient-difference ratio over random pairs in the box."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        x = rng.uniform(size=f.n)
        y = rng.uniform(size=f.n)
        dist = float(np.linalg.norm(y - x))
        if dist < 1e-12:
            continue
        best = max(best, float(np.linalg.norm(f.grad(y) - f.grad(x))) / dist)
    return best


def brute_multilinear(table, x):
    """Literal sum over all subsets; the reference for multilinear values."""
    m = len(x)
    total = 0.0
    for mask in range(1 << m):
        p = 1.0
        for i in range(m):
            p *= x[i] if (mask >> i) & 1 else (1.0 - x[i])
        total += table[mask] * p
    return total


def brute_coverage_table(subsets, weights, n_elements):
    """Literal per-mask union of the covering sets; the reference for coverage tables."""
    m = len(subsets)
    covered = np.zeros((m, n_elements), dtype=bool)
    for i, s in enumerate(subsets):
        covered[i, list(s)] = True
    table = np.zeros(1 << m)
    for mask in range(1 << m):
        members = [i for i in range(m) if mask >> i & 1]
        union = np.any(covered[members], axis=0) if members else np.zeros(n_elements, dtype=bool)
        table[mask] = float(np.asarray(weights, dtype=float)[union].sum())
    return table


def cut_table(weights: np.ndarray) -> np.ndarray:
    """Value table of a weighted graph cut: nonnegative, submodular, non-monotone."""
    m = weights.shape[0]
    table = np.zeros(1 << m)
    for mask in range(1 << m):
        inside = [(mask >> i) & 1 for i in range(m)]
        total = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                if inside[i] != inside[j]:
                    total += weights[i, j]
        table[mask] = total
    return table


def exhaustive_monotonicity_ok(table, m, rtol=1e-12):
    """Literal check of f(S+i) - f(S) >= -rtol max f for every element i and every S without i."""
    tol = rtol * float(np.max(table))
    for mask in range(1 << m):
        for i in range(m):
            bit = 1 << i
            if not mask & bit and table[mask | bit] - table[mask] < -tol:
                return False
    return True


def exhaustive_submodularity_ok(table, m, rtol=1e-9):
    """Literal check of f(A+i) - f(A) >= f(B+i) - f(B) - rtol max f over every A <= B."""
    tol = rtol * float(np.max(table))
    for b_mask in range(1 << m):
        a_sub = b_mask
        while True:
            for i in range(m):
                bit = 1 << i
                if b_mask & bit:
                    continue
                lhs = table[a_sub | bit] - table[a_sub]
                rhs = table[b_mask | bit] - table[b_mask]
                if lhs < rhs - tol:
                    return False
            if a_sub == 0:
                break
            a_sub = (a_sub - 1) & b_mask
    return True


def bland_simplex(c, A, b, u):
    """The dense simplex under Bland's rule alone: (x, value).

    The reference for feasible.simplex_solve, written as the loop it
    replaced: the lowest improving column enters, the lowest basic index
    among the minimum-ratio rows leaves, and only the rows with a nonzero
    entry in the entering column are updated.
    """
    tol = 1e-10
    n = c.size
    G = np.vstack([A, np.eye(n)])
    m = G.shape[0]
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = G
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = np.concatenate([b, u])
    tab[m, :n] = c
    basis = np.arange(n, n + m)
    for _ in range(100000):
        improving = np.flatnonzero(tab[m, :-1] > tol)
        if improving.size == 0:
            break
        enter = improving[0]
        rows = np.flatnonzero(tab[:m, enter] > tol)
        ratios = tab[rows, -1] / tab[rows, enter]
        tied = rows[ratios - ratios.min() <= tol]
        leave = tied[np.argmin(basis[tied])]
        tab[leave] /= tab[leave, enter]
        col = tab[:, enter].copy()
        col[leave] = 0.0
        hit = col != 0.0
        tab[hit] -= np.outer(col[hit], tab[leave])
        basis[leave] = enter
    else:
        raise RuntimeError("reference simplex did not terminate")
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tab[:m, -1][structural]
    x = np.clip(x, 0.0, u)
    return x, float(c @ x)


def vertex_pairs_diameter(vertices):
    """Max squared distance over explicit vertex pairs."""
    best = 0.0
    for x, y in itertools.product(vertices, repeat=2):
        best = max(best, float(np.sum((np.asarray(x) - np.asarray(y)) ** 2)))
    return best


def brute_grid_search(F, C):
    """The grid sweep one point at a time: (value, maximizer).

    The reference for oracle.grid_search, written as the three-level sweep
    the oracle replaced: widths 1/8, 1/16 and 1/32, each level sweeping the
    whole mesh while it has at most the oracle's full-sweep cap of points
    (read at call time) and otherwise a 5^n window around the incumbent.
    The first level is always full.  One contains() and one value() call
    per mesh point.  The largest value wins, and among exactly equal values
    the lexicographically smallest point.
    """
    n = F.n
    best_val, best_x = -np.inf, np.zeros(n)
    width = 0.125
    for level in range(3):
        if level:
            width /= 2.0
        steps = int(round(1.0 / width))
        if level == 0 or (steps + 1) ** n <= oracle._FULL_SWEEP_CAP:
            axes = [np.linspace(0.0, 1.0, steps + 1)] * n
        else:
            lo = np.maximum(best_x - 2.0 * width, 0.0)
            hi = np.minimum(best_x + 2.0 * width, 1.0)
            axes = [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i]))
                    for i in range(n)]
        for point in itertools.product(*axes):
            x = np.array(point)
            if not C.contains(x):
                continue
            val = F.value(x)
            if val > best_val or (val == best_val and tuple(x) < tuple(best_x)):
                best_val, best_x = val, x
    return best_val, best_x


def filtered_mesh(C, axes):
    """Every point of the mesh ``axes`` that C.contains_batch accepts, in mesh order: (k, n)."""
    from drsub.objective import mesh_chunks
    return np.concatenate([X[C.contains_batch(X)] for X in mesh_chunks(axes)])


def full_mesh_grid_search(F, C):
    """oracle.grid_search over whole filtered meshes: (value, maximizer, slack, resolution).

    The reference for the oracle's feasible-mesh walk, written as the sweep
    it replaced: each mesh (the full sweep at the oracle's widths and cap,
    then the 5^n windows) is built whole, filtered by one membership mask
    and scored in one values() call.  The largest value wins, and among
    exactly equal values the lexicographically smallest point.
    """
    n = F.n
    steps = oracle._COARSEST_STEPS
    while steps < oracle._FINEST_STEPS and (2 * steps + 1) ** n <= oracle._FULL_SWEEP_CAP:
        steps *= 2
    slack = float(np.sum(np.maximum(F.grad(np.zeros(n)), 0.0))) / steps
    axes = [np.linspace(0.0, 1.0, steps + 1)] * n
    best_val, best_x = -np.inf, np.zeros(n)
    while True:
        X = filtered_mesh(C, axes)
        if X.shape[0]:
            vals = F.values(X)
            top = np.flatnonzero(vals == vals.max())[0]  # mesh order is lexicographic
            if vals[top] > best_val or (vals[top] == best_val and tuple(X[top]) < tuple(best_x)):
                best_val, best_x = float(vals[top]), X[top]
        if steps >= oracle._FINEST_STEPS:
            return best_val, best_x, slack, 1.0 / steps
        steps *= 2
        width = 1.0 / steps
        lo = np.maximum(best_x - 2.0 * width, 0.0)
        hi = np.minimum(best_x + 2.0 * width, 1.0)
        axes = [np.unique(np.clip(lo[i] + width * np.arange(5), 0.0, hi[i])) for i in range(n)]
