"""Seeded job lists for the four benchmark workloads.

Each workload is a fixed list of jobs drawn from ``--seed``.  The program
receives only plain instance and constraint JSON.  Weights and matrices
come from continuous distributions, so LMO ties and grid-argmax ties have
probability zero and a mismatch against the reference model is a real
change, not a flipped tie.  Job sizes are fixed per class, so the work in
one pass does not depend on the seed beyond how many mesh points or
simplex pivots the drawn data needs.

Why each workload exists (the layer it stresses and the one it bypasses)
is written down in README.md beside this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("monotone", "measured", "general", "general-exp", "general-linear")

#: universe size of the coverage instances (the reference packs it in 64 bits)
UNIVERSE = 48


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work.

    ``kind`` is "solve" (in-process ``solver.run`` + ``solver.guarantee``
    on prebuilt objects) or "cli" (``cli.main(argv)``; the CLI builds its
    own inputs).  ``cls`` groups jobs of one size for warm-up and reports.
    """

    cls: str
    kind: str
    family: str | None = None
    N: int | None = None
    instance: int | None = None
    body: int | None = None
    argv: tuple[str, ...] = ()
    opt: str | None = None
    iters: tuple[int, ...] = ()


@dataclass
class Workload:
    name: str
    instances: list[dict] = field(default_factory=list)
    bodies: list[dict] = field(default_factory=list)
    jobs: list[Job] = field(default_factory=list)


# --- input generators ---------------------------------------------------------------


def _coverage(rng, m: int) -> dict:
    """Weighted coverage with each set holding each element w.p. 0.15."""
    subsets = [np.flatnonzero(rng.uniform(size=UNIVERSE) < 0.15).tolist() for _ in range(m)]
    weights = rng.uniform(0.5, 1.5, size=UNIVERSE).tolist()
    return {"kind": "coverage", "subsets": subsets, "weights": weights, "n_elements": UNIVERSE}


def _cardinality(m: int, k: int) -> dict:
    return {"kind": "cardinality", "n": m, "k": k}


def _partition(rng, m: int, size: int = 4) -> dict:
    perm = rng.permutation(m).tolist()
    blocks = [sorted(perm[i:i + size]) for i in range(0, m, size)]
    return {"kind": "partition", "n": m, "blocks": blocks, "capacities": [1] * len(blocks)}


def _packing(rng, rows: int, n: int, tightness: float) -> dict:
    """A ~ U(0,1); each row's budget is a fixed share of its row sum."""
    A = rng.uniform(0.0, 1.0, size=(rows, n))
    b = tightness * A.sum(axis=1)
    return {"kind": "packing", "A": A.tolist(), "b": b.tolist()}


def _quadratic(rng, n: int) -> dict:
    H = -rng.uniform(0.0, 1.0, size=(n, n))
    H = (H + H.T) / 2.0
    return {"kind": "quadratic", "H": H.tolist(), "c": rng.uniform(0.2, 1.5, size=n).tolist()}


def _concave_modular(rng, k: int, n: int) -> dict:
    return {"kind": "concave_modular", "weights": rng.uniform(0.0, 1.0, size=(k, n)).tolist(), "n": n}


# --- workloads ------------------------------------------------------------------------


def multilinear(seed: int) -> Workload:
    """Coverage extensions at m=12 (32 KB table) and m=16 (512 KB table).

    Per pass: 20 m=12 jobs (N=30, every family on both bodies of both
    instances) and 4 m=16 jobs (N=8).  The m=12 jobs set the median and the
    m=16 jobs the tail, separating fixed per-call cost from per-byte cost.
    """
    rng = np.random.default_rng([seed, 1])
    wl = Workload("multilinear")
    wl.instances = [_coverage(rng, 16), _coverage(rng, 12), _coverage(rng, 12)]
    wl.bodies = [_cardinality(16, 4), _partition(rng, 16), _cardinality(12, 3), _partition(rng, 12)]
    big = [Job("m16", "solve", fam, 8, 0, body)
           for fam, body in (("monotone", 0), ("measured", 1), ("general", 0), ("general-linear", 1))]
    small = [Job("m12", "solve", fam, 30, inst, body)
             for inst in (1, 2) for body in (2, 3) for fam in FAMILIES]
    wl.jobs = _interleave(small, big)
    return wl


def packing(seed: int) -> Workload:
    """Concave-of-modular objectives (n=30) on 20x30 packing bodies.

    Per pass: 72 jobs (N=4), each on its own (objective, body) pair, the
    families cycling through monotone, measured and general.  ``measured``
    drives the masked LMO, the other two the plain one; all three end in
    the dense simplex.  Independent bodies per job average out how many
    pivots one drawn body needs, so the pass cost hardly depends on the seed.
    """
    rng = np.random.default_rng([seed, 2])
    wl = Workload("packing")
    wl.instances = [_concave_modular(rng, 8, 30) for _ in range(72)]
    wl.bodies = [_packing(rng, 20, 30, 0.2) for _ in range(72)]
    families = ("monotone", "measured", "general")
    wl.jobs = [Job("masked" if families[i % 3] == "measured" else "plain", "solve",
                   families[i % 3], 4, i, i) for i in range(72)]
    return wl


def certify(seed: int) -> Workload:
    """In-process ``drsub run``/``sweep`` with a ground-truth oracle.

    Per pass: 8 ``run --opt grid`` on quadratics (n=4 on box, cardinality
    and packing; n=3 on a box; four n=5 on cardinality bodies), 14 ``run
    --opt sets`` on coverage with m=10, and one ``sweep --opt sets``.  The
    four n=5 grid jobs cost the same and are the slowest, so the tail (the
    11th-largest job of a run) stays inside their class for any run of three
    or more passes; the sets jobs share one size so the median sits inside
    theirs.
    """
    rng = np.random.default_rng([seed, 3])
    wl = Workload("certify")
    grid = []
    for n, body_kind, fam in ((4, "box", "measured"), (5, "cardinality", "measured"),
                              (4, "cardinality", "general"), (5, "cardinality", "general"),
                              (4, "packing", "general-exp"), (5, "cardinality", "general-exp"),
                              (3, "box", "general-linear"), (5, "cardinality", "general-linear")):
        body = {"box": {"kind": "box", "n": n}, "cardinality": _cardinality(n, 2),
                "packing": _packing(rng, 2, n, 0.5)}[body_kind]
        grid.append(_cli_job(wl, "grid", "run", _quadratic(rng, n), body, fam, (40,), "grid"))
    sets = []
    for i in range(14):
        body = _cardinality(10, 3) if i % 2 == 0 else _partition(rng, 10)
        sets.append(_cli_job(wl, "sets", "run", _coverage(rng, 10), body,
                             ("monotone", "measured", "general")[i % 3], (30,), "sets"))
    sweep = _cli_job(wl, "sweep", "sweep", _coverage(rng, 10), _partition(rng, 10),
                     "general", (8, 16, 32), "sets")
    wl.jobs = _interleave(sets, grid) + [sweep]
    return wl


def selfcheck(seed: int) -> Workload:
    """``drsub check`` exactly as CI runs it; many tiny instances (n <= 4).

    The suites draw their own points from the CLI's default seed, so this
    job list does not depend on ``seed``.
    """
    wl = Workload("selfcheck")
    wl.jobs = [Job("check", "cli", argv=("check",))]
    return wl


WORKLOADS = {"multilinear": multilinear, "packing": packing,
             "certify": certify, "selfcheck": selfcheck}


def _cli_job(wl: Workload, cls: str, command: str, instance: dict, body: dict,
             family: str, iters: tuple[int, ...], opt: str) -> Job:
    wl.instances.append(instance)
    wl.bodies.append(body)
    argv = (command, "--instance", json.dumps(instance), "--constraint", json.dumps(body),
            "--family", family, "--iters", ",".join(map(str, iters)), "--opt", opt)
    return Job(cls, "cli", family, iters[-1], len(wl.instances) - 1, len(wl.bodies) - 1,
               argv, opt, iters)


def _interleave(many: list[Job], few: list[Job]) -> list[Job]:
    """Spread the few jobs evenly through the many, starting with one of them."""
    out = list(many)
    step = len(many) / len(few)
    for i, job in enumerate(few):
        out.insert(int(i * step) + i, job)
    return out
