"""Span tracer for the traced benchmark run.

Timing wrappers are installed on the public boundaries of each drsub
module only while a traced pass runs, and removed afterwards.  Every
wrapped call records one span (name, start, end, parent span, job id) in
a flat in-memory array; nothing is written until the benchmark ends.  A
call made while a span of the same group is open (``PackingBody.lmo``
calling ``masked_lmo``, ``instance_from_json`` calling
``coverage_function``) is not recorded again, so each operation is
counted once, at its outermost boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: fields of one span record in the flat array
_FIELDS = 5  # name id, start, end, parent index (-1 for roots), job id

BUILD = ("instance_from_json", "coverage_function", "multilinear_extension",
         "make_quadratic", "make_concave_modular")

#: (module, attribute, span name, group) for module-level functions
FUNCTIONS = (
    [("objective", f, "objective.build", "build") for f in BUILD]
    + [("feasible", "simplex_solve", "feasible.simplex_solve", None),
       ("solver", "run", "solver.run", None),
       ("solver", "potential_series", "solver.potential_series", None),
       ("solver", "guarantee", "solver.guarantee", None),
       ("solver", "trajectory_csv", "solver.trajectory_csv", None),
       ("oracle", "grid_search", "oracle.grid_search", None),
       ("oracle", "set_bruteforce", "oracle.set_bruteforce", None),
       ("cli", "main", "cli.main", None),
       ("schedule", "validate", "schedule.validate", None),
       ("desk", "bundled_instances", "desk.bundled_instances", None)])

#: (method, span name, group) wrapped on DrFunction / every ConvexBody class
OBJECTIVE_METHODS = (("value", "objective.value", None), ("grad", "objective.grad", None))
BODY_METHODS = (("contains", "feasible.contains", None), ("lmo", "feasible.lmo", "lmo"),
                ("masked_lmo", "feasible.masked_lmo", "lmo"))

ORACLES = ("oracle.grid_search", "oracle.set_bruteforce")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.records = array("d")
        self.job = -1
        self.accepted = 0          # contains() calls that returned True
        self.run_counters: list[tuple[int, int, int, int, int]] = []  # span, N, value, grad, lmo
        self._stack = [-1]
        self._open: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self) -> None:
        self.records = array("d")
        self.accepted = 0
        self.run_counters = []

    # --- wrapping -----------------------------------------------------------------

    def wrap(self, fn, name: str, group: str | None = None):
        nid = self.name_id(name)
        group = group or name
        after = {"feasible.contains": self._count_accept,
                 "solver.run": self._count_run}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group in self._open:
                return fn(*args, **kwargs)
            rec = self.records
            idx = len(rec) // _FIELDS
            rec.extend((nid, 0.0, 0.0, self._stack[-1], self.job))
            self._stack.append(idx)
            self._open.add(group)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self._open.discard(group)
                rec[idx * _FIELDS + 1] = t0
                rec[idx * _FIELDS + 2] = t1
            if after is not None:
                after(idx, out)
            return out

        return traced

    def _count_accept(self, idx, out) -> None:
        self.accepted += bool(out)

    def _count_run(self, idx, traj) -> None:
        self.run_counters.append((idx, traj.N, getattr(traj, "value_calls", -1),
                                  getattr(traj, "grad_calls", -1), getattr(traj, "lmo_calls", -1)))

    def install(self) -> None:
        """Wrap every boundary in the drsub modules currently imported."""
        mods = {k: v for k, v in sys.modules.items() if k == "drsub" or k.startswith("drsub.")}
        for mod_name, attr, name, group in FUNCTIONS:
            mod = mods.get(f"drsub.{mod_name}")
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name, group)
            for m in mods.values():  # also the names other modules imported directly
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        objective, feasible = mods["drsub.objective"], mods["drsub.feasible"]
        classes = [(objective.DrFunction, OBJECTIVE_METHODS)]
        classes += [(c, BODY_METHODS) for c in _subclasses(feasible.ConvexBody)]
        for cls, methods in classes:
            for attr, name, group in methods:
                if attr in vars(cls):
                    self._patch(cls, attr, self.wrap(vars(cls)[attr], name, group))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # --- aggregation --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        r = np.frombuffer(self.records, dtype=float).reshape(-1, _FIELDS)
        return {"name": r[:, 0].astype(int), "start": r[:, 1], "end": r[:, 2],
                "parent": r[:, 3].astype(int), "job": r[:, 4].astype(int)}

    def summary(self, clock, factor: float) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded since clear().

        Span times exclude the metronome probes that ran inside them and are
        scaled by ``factor``, the pass's calibrated/raw time ratio.
        """
        s = self.spans()
        name, parent = s["name"], s["parent"]
        k = len(self.names)
        spent = np.concatenate([[0.0], clock.spent])
        inside = (spent[np.searchsorted(clock.stamps, s["end"], side="right")]
                  - spent[np.searchsorted(clock.stamps, s["start"], side="left")])
        dur = (s["end"] - s["start"] - inside) * factor
        has_parent = parent >= 0
        child = np.zeros(dur.size)
        np.add.at(child, parent[has_parent], dur[has_parent])
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        parent_name = np.where(has_parent, name[np.where(has_parent, parent, 0)], -1)

        def get(n, arr):
            return float(arr[self._ids[n]]) if n in self._ids else 0.0

        def nid(n):
            return self._ids.get(n, -2)

        out: dict[str, float] = {}
        for n in ("objective.grad", "objective.value", "objective.build", "feasible.lmo",
                  "feasible.masked_lmo", "feasible.simplex_solve", "feasible.contains",
                  "solver.run", "solver.potential_series", "solver.guarantee",
                  "solver.trajectory_csv", "oracle.grid_search", "oracle.set_bruteforce",
                  "cli.main", "schedule.validate", "desk.bundled_instances"):
            out[f"{n}.calls"] = get(n, calls)
            out[f"{n}.s"] = get(n, total)
        out["objective.grad.us_per_call"] = _ratio(out["objective.grad.s"] * 1e6,
                                                   out["objective.grad.calls"])
        out["feasible.contains.accept_ratio"] = _ratio(self.accepted, out["feasible.contains.calls"])
        steps = sum(c[1] for c in self.run_counters)
        out["solver.steps"] = float(steps)
        out["solver.self_s"] = get("solver.run", own)
        out["solver.self_us_per_step"] = _ratio(out["solver.self_s"] * 1e6, steps)
        out["oracle.self_s"] = sum(get(n, own) for n in ORACLES)
        in_oracle = np.isin(parent_name, [nid(n) for n in ORACLES])
        out["oracle.points"] = float(np.sum(in_oracle & (name == nid("feasible.contains"))))
        in_grid = parent_name == nid("oracle.grid_search")
        out["oracle.feasible_ratio"] = _ratio(
            np.sum(in_grid & (name == nid("objective.value"))),
            np.sum(in_grid & (name == nid("feasible.contains"))))
        out["cli.self_s"] = get("cli.main", own)
        out["solver.counter_mismatch"] = float(self._counter_mismatch(name, parent, nid))
        return out

    def _counter_mismatch(self, name, parent, nid) -> int:
        """Sum over runs of |counted - reported| for value, grad and LMO calls."""
        if not self.run_counters:
            return 0
        runs = np.array([c[0] for c in self.run_counters])
        reported = np.array([c[2:] for c in self.run_counters])
        size = name.size

        def children(*names):
            sel = np.isin(name, [nid(n) for n in names]) & (parent >= 0)
            return np.bincount(parent[sel], minlength=size)[runs]

        counted = np.stack([children("objective.value"), children("objective.grad"),
                            children("feasible.lmo", "feasible.masked_lmo")], axis=1)
        return int(np.sum(np.abs(counted - reported)))


def _subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
