"""Independent reference model of the seed-commit numerics.

The benchmark checks every job against this model, not against the
program's own oracles.  It re-derives the same quantities from the plain
instance and constraint JSON the program receives: the five preset
schedules, the three update rules, the closed-form objectives, the
oracles of the four body kinds, and exhaustive subset optima.  It is
written for clarity and for speed at benchmark sizes (tensor contractions
for multilinear extensions, a bitset union for coverage tables, a
Dantzig-rule tableau for packing LMOs), so a faster or restructured
program can be compared with it to a relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_FLOOR = 1e-3
FEASIBILITY_TOL = 1e-9

# family -> (T, a(t), b(t)); the same closed forms as the seed presets
SCHEDULES = {
    "monotone": (1.0, np.exp, np.exp),
    "measured": (1.0, np.exp, lambda t: t + 0.0),
    "general": (1.0, lambda t: (1.0 + t) ** 2, lambda t: t + 0.0),
    "general-exp": (2.0 * math.log(2.0), np.exp, lambda t: np.exp(0.5 * t) - 1.0),
    "general-linear": (3.0, lambda t: t + 1.0, lambda t: np.sqrt(t + 1.0) - 1.0),
}


def schedule_nodes(family: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    T, a, b = SCHEDULES[family]
    t = np.linspace(0.0, T, N + 1)
    return a(t), b(t)


# --- objectives -------------------------------------------------------------------


def coverage_table(subsets, weights, n_elements: int) -> np.ndarray:
    """Weighted coverage of every subset mask, by a bitset union over masks."""
    if n_elements > 64:
        raise ValueError("reference coverage tables pack the universe into 64 bits")
    covers = [sum(1 << e for e in s) for s in subsets]
    union = np.zeros(1, dtype=np.uint64)
    for c in covers:
        union = np.concatenate([union, union | np.uint64(c)])
    table = np.zeros(union.size)
    for e, w in enumerate(np.asarray(weights, dtype=float)):
        table += w * ((union >> np.uint64(e)) & np.uint64(1)).astype(float)
    return table


class Multilinear:
    """Exact multilinear extension; bit i of a table index is element i."""

    def __init__(self, table: np.ndarray):
        self.table = np.asarray(table, dtype=float)
        self.n = int(self.table.size).bit_length() - 1

    def _contract(self, factors) -> float:
        t = self.table
        for f in factors:  # element 0 is the lowest bit, i.e. the last axis
            t = t.reshape(-1, 2) @ f
        return float(t[0])

    def value(self, x) -> float:
        return self._contract([np.array([1.0 - xi, xi]) for xi in x])

    def grad(self, x) -> np.ndarray:
        base = [np.array([1.0 - xi, xi]) for xi in x]
        diff = np.array([-1.0, 1.0])
        return np.array([self._contract(base[:i] + [diff] + base[i + 1:])
                         for i in range(self.n)])


class Quadratic:
    def __init__(self, H, c):
        self.H = np.asarray(H, dtype=float)
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.size
        bits = (np.arange(1 << self.n)[:, None] >> np.arange(self.n)) & 1
        V = bits.astype(float)
        self.d = -float(np.min(V @ self.c + 0.5 * np.einsum("ki,ij,kj->k", V, self.H, V)))

    def value(self, x) -> float:
        return float(self.c @ x + 0.5 * x @ self.H @ x + self.d)

    def grad(self, x) -> np.ndarray:
        return self.c + self.H @ x


class ConcaveModular:
    def __init__(self, weights):
        self.W = np.asarray(weights, dtype=float)
        self.n = self.W.shape[1]

    def value(self, x) -> float:
        return float(np.sum(np.sqrt(SQRT_FLOOR + self.W @ x)) - self.W.shape[0] * math.sqrt(SQRT_FLOOR))

    def grad(self, x) -> np.ndarray:
        return (self.W / (2.0 * np.sqrt(SQRT_FLOOR + self.W @ x))[:, None]).sum(axis=0)


def objective(inst: dict):
    kind = inst["kind"]
    if kind == "coverage":
        return Multilinear(coverage_table(inst["subsets"], inst["weights"], inst["n_elements"]))
    if kind == "quadratic":
        return Quadratic(inst["H"], inst["c"])
    if kind == "concave_modular":
        return ConcaveModular(inst["weights"])
    raise ValueError(f"no reference objective for kind {kind!r}")


# --- bodies -------------------------------------------------------------------------


def lp_max(c, A, b, u) -> np.ndarray:
    """max c.x s.t. A x <= b, 0 <= x <= u (A >= 0, b, u > 0); Dantzig's rule.

    Inputs drawn from continuous distributions have a unique optimal
    vertex almost surely, so any correct simplex lands on the program's.
    """
    n = c.size
    G = np.vstack([A, np.eye(n)])
    m = G.shape[0]
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = G
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = np.concatenate([b, u])
    tab[m, :n] = c
    basis = np.arange(n, n + m)
    for _ in range(50 * (n + m)):
        j = int(np.argmax(tab[m, :-1]))
        if tab[m, j] <= 1e-12:
            break
        col = tab[:m, j]
        ratios = np.full(m, np.inf)
        pos = col > 1e-12
        ratios[pos] = tab[:m, -1][pos] / col[pos]
        i = int(np.argmin(ratios))
        tab[i] /= tab[i, j]
        pivot_row = tab[i].copy()
        tab -= np.outer(tab[:, j], pivot_row)
        tab[i] = pivot_row
        basis[i] = j
    else:
        raise RuntimeError("reference simplex did not converge")
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tab[:m, -1][structural]
    return np.clip(x, 0.0, u)


class Body:
    """Membership and (masked) linear maximization for one constraint JSON."""

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        self.n = int(spec["n"]) if "n" in spec else len(spec.get("upper") or spec["A"][0])
        if self.kind == "box":
            self.upper = np.asarray(spec.get("upper", np.ones(self.n)), dtype=float)
        elif self.kind == "cardinality":
            self.blocks, self.caps = [list(range(self.n))], [int(spec["k"])]
        elif self.kind == "partition":
            self.blocks, self.caps = [list(b) for b in spec["blocks"]], [int(k) for k in spec["capacities"]]
        elif self.kind == "packing":
            self.A = np.asarray(spec["A"], dtype=float)
            self.b = np.asarray(spec["b"], dtype=float)
        else:
            raise ValueError(f"no reference body for kind {self.kind!r}")

    def contains(self, x, tol: float = FEASIBILITY_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        upper = self.upper if self.kind == "box" else 1.0
        if np.any(x < -tol) or np.any(x > upper + tol):
            return False
        if self.kind == "packing":
            return bool(np.all(self.A @ x <= self.b + tol))
        if self.kind == "box":
            return True
        return all(float(np.sum(x[blk])) <= k + tol for blk, k in zip(self.blocks, self.caps))

    def masked_lmo(self, g, cap) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        v = np.zeros(self.n)
        if self.kind == "box":
            return np.where(g > 0.0, np.minimum(self.upper, cap), 0.0)
        if self.kind == "packing":
            active = np.flatnonzero((g > 0.0) & (cap > 0.0))
            if active.size:
                v[active] = lp_max(g[active], self.A[:, active], self.b, cap[active])
            return v
        for blk, k in zip(self.blocks, self.caps):
            budget = float(k)
            for i in sorted(blk, key=lambda i: (-g[i], i)):
                if g[i] <= 0.0 or budget <= 0.0:
                    break
                v[i] = min(cap[i], budget)
                budget -= v[i]
        return v

    def lmo(self, g) -> np.ndarray:
        return self.masked_lmo(g, np.ones(self.n))

    def feasible_masks(self) -> np.ndarray:
        """Boolean mask over all 2^n indicator vectors: which lie in the body."""
        bits = ((np.arange(1 << self.n)[:, None] >> np.arange(self.n)) & 1).astype(float)
        if self.kind == "box":
            return np.all(bits <= self.upper + FEASIBILITY_TOL, axis=1)
        if self.kind == "packing":
            return np.all(bits @ self.A.T <= self.b + FEASIBILITY_TOL, axis=1)
        ok = np.ones(bits.shape[0], dtype=bool)
        for blk, k in zip(self.blocks, self.caps):
            ok &= bits[:, blk].sum(axis=1) <= k + FEASIBILITY_TOL
        return ok


def subset_opt(table: np.ndarray, body: Body) -> float:
    """Exact maximum of a set function over the body's feasible subsets."""
    return float(np.max(table[body.feasible_masks()]))


# --- the update loop ----------------------------------------------------------------


def frank_wolfe(F, body: Body, family: str, N: int) -> tuple[np.ndarray, float]:
    """Final iterate and value of an N-step preset run from the origin."""
    a, b = schedule_nodes(family, N)
    masked = family == "measured"
    offset = family.startswith("general")
    x = np.zeros(body.n)
    for j in range(N):
        g = F.grad(x)
        v = body.masked_lmo(g, np.clip(1.0 - x, 0.0, 1.0)) if masked else body.lmo(g)
        d = 1.0 if family == "monotone" else (a[j] if masked else math.sqrt(a[j]))
        rho = (b[j + 1] - b[j]) / a[j + 1] * d
        x = x + rho * ((v - x) if offset else v)
    return x, F.value(x)
