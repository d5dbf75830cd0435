import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from drsub import (BoxBody, CardinalityBody, InputError, PackingBody, check_dr_inequality,
                   coverage_function, family_spec, finite_diff_grad, lmo_bruteforce,
                   make_concave_modular, make_coverage, make_quadratic, preset, run,
                   set_function_from_table)
from drsub.errors import checked_array
from drsub.feasible import FEASIBILITY_TOL, simplex_solve, vertices
from drsub.objective import CLAMP_TOL

QUAD = make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [1.0, 0.5])
OK = np.full(2, 0.5)
BODIES = {"box": BoxBody(np.ones(2)), "cardinality": CardinalityBody(2, 1),
          "packing": PackingBody(np.ones((1, 2)), np.ones(1))}

#: (entry point, call with the argument under test, the argument's name in messages,
#:  batch argument, unit-box rule): every array argument a caller passes in
ENTRY_POINTS = [
    ("contains", lambda a: BODIES["box"].contains(a), "point", False, False),
    ("contains_batch", lambda a: BODIES["box"].contains_batch(a), "the batch", True, False),
    *[entry for kind, C in BODIES.items() for entry in [
        (f"{kind}.lmo", lambda a, C=C: C.lmo(a), "objective", False, False),
        (f"{kind}.masked_lmo", lambda a, C=C: C.masked_lmo(a, OK), "objective", False, False),
        (f"{kind}.masked_lmo.cap", lambda a, C=C: C.masked_lmo(OK, a), "cap", False, True)]],
    ("vertices.cap", lambda a: vertices(BODIES["cardinality"], a), "cap", False, True),
    ("lmo_bruteforce", lambda a: lmo_bruteforce(BODIES["cardinality"], a), "objective",
     False, False),
    ("lmo_bruteforce.cap", lambda a: lmo_bruteforce(BODIES["cardinality"], OK, a), "cap",
     False, True),
    ("value", QUAD.value, "point", False, True),
    ("values", QUAD.values, "the batch", True, True),
    ("grad", QUAD.grad, "point", False, True),
    ("check_dr_inequality.x", lambda a: check_dr_inequality(QUAD, a, OK), "x", False, True),
    ("check_dr_inequality.y", lambda a: check_dr_inequality(QUAD, OK, a), "y", False, True),
    ("finite_diff_grad", lambda a: finite_diff_grad(QUAD, a), "x", False, True),
    ("run.x0", lambda a: run(QUAD, BODIES["box"], preset("general"), family_spec("general"), 5,
                             x0=a), "start point", False, False),
]


#: the phrase each kind of malformed argument is refused with
PHRASES = {"shape": "must have shape", "nan": "NaN", "far": "NaN",
           "string": "must be an array of real numbers", "ragged": "must be an array of real numbers"}


def _malformed(case: str, batch: bool, box: bool):
    """The malformed argument of ``case``, for a point of 2 coordinates or a (k, 2) batch."""
    if case == "shape":
        return np.zeros(2 if batch else 3)
    if case == "ragged":
        return [[0.5, 0.5], [0.5]] if batch else [[0.5], [0.5, 0.5]]
    # far outside the box for the box rule, infinite for the finiteness rule
    row = {"nan": [np.nan, 0.5], "far": [5.0 if box else np.inf, 0.5], "string": ["a", 0.5]}[case]
    return [OK, row] if batch else row


@pytest.mark.parametrize("case", PHRASES)
@pytest.mark.parametrize("entry,call,name,batch,box", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_every_array_argument_is_read_by_one_rule(entry, call, name, batch, box, case):
    # the message opens with the argument's name; the unit-box rule names a bad row of a batch
    with pytest.raises(InputError, match=rf"^(a row of )?{re.escape(name)} .*{PHRASES[case]}"):
        call(_malformed(case, batch, box))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry,call,name,batch,box", ENTRY_POINTS,
                         ids=[e[0] for e in ENTRY_POINTS])
def test_a_non_finite_last_entry_is_refused(entry, call, name, batch, box, bad):
    # _malformed puts NaN first; a point's scan must not stop at min and max,
    # which may pass over a NaN that is not first
    row = [0.5, bad]
    with pytest.raises(InputError, match=rf"^(a row of )?{re.escape(name)} .*NaN"):
        call([OK, row] if batch else row)


#: every body's oracles (unprefixed: the packing body's) and the simplex, each called
#: with the start under test; box and partition bodies have no LP but refuse it alike
START_ENTRIES = {
    "lmo": lambda start: BODIES["packing"].lmo(OK, start),
    "masked_lmo": lambda start: BODIES["packing"].masked_lmo(OK, OK, start),
    "simplex_solve": lambda start: simplex_solve(np.ones(2), np.ones((1, 2)), np.ones(1),
                                                 np.ones(2), start),
    **dict(entry for kind in ("box", "cardinality") for entry in [
        (f"{kind}.lmo", lambda start, C=BODIES[kind]: C.lmo(OK, start)),
        (f"{kind}.masked_lmo", lambda start, C=BODIES[kind]: C.masked_lmo(OK, OK, start))]),
}


#: starts that are not a WarmStart: a point as a list or an array, a string, a NaN, and
#: the malformed points that were once read as an array argument
NOT_STARTS = {"list": [0.5, 0.5], "array": OK, "string": "start", "nan": np.nan,
              "shape": np.zeros(3), "ragged": [[0.5], [0.5, 0.5]], "far": [np.inf, 0.5],
              "first-nan": [np.nan, 0.5], "last-nan": [0.5, np.nan],
              "last-inf": [0.5, np.inf], "last--inf": [0.5, -np.inf]}


@pytest.mark.parametrize("start", list(NOT_STARTS.values()), ids=list(NOT_STARTS))
@pytest.mark.parametrize("entry", START_ENTRIES)
def test_a_start_other_than_a_warm_start_is_refused(entry, start):
    # a start is a run's WarmStart or None: a point is refused, never ignored
    with pytest.raises(InputError, match=r"^start must be a WarmStart or None, got "):
        START_ENTRIES[entry](start)


#: point entries at the edges of the box rule: non-finite, signed zeros, huge and
#: subnormal values, and values 1e-13 and 1e-11 outside the box
EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5e-324, 1.0, 0.5,
         -1e-13, 1.0 + 1e-13, -1e-11, 1.0 + 1e-11]


def _verdict(X, shape, tol):
    try:
        return "ok", checked_array(X, shape, "point", tol)
    except InputError as e:
        return "refused", str(e)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(EDGES) | st.floats(-0.5, 1.5), min_size=1, max_size=8),
       st.sampled_from([CLAMP_TOL, FEASIBILITY_TOL]))
def test_a_point_and_its_one_row_batch_get_one_verdict(values, tol):
    # a point is scanned as Python floats and a batch with numpy's reductions
    x = np.array(values)
    point, batch = _verdict(x, (x.size,), tol), _verdict(x[None], (None, x.size), tol)
    assert point[0] == batch[0], values
    if point[0] == "ok":
        assert point[1].tobytes() == batch[1][0].tobytes()
    else:
        tail = " is NaN, infinite or outside the unit box"
        assert (point[1], batch[1]) == (f"point {x!r}{tail}", f"a row of point{tail}")


#: a builder's array argument that is not an array of reals, each refused naming the argument
NOT_REALS = {
    "box-string": (BoxBody, (["a"],), "box upper bounds"),
    "box-scalar": (BoxBody, (0.5,), "box upper bounds"),
    "packing-A-string": (PackingBody, ([["a"]], [1.0]), "A"),
    "packing-A-rows": (PackingBody, ([[1.0]], [1.0, 1.0]), "A"),
    "packing-b-string": (PackingBody, ([[1.0]], ["a"]), "b"),
    "table-string": (set_function_from_table, (["a", 1],), "value table"),
    **{f"{build.__name__}-weights-{case}": (build, (subsets, weights), "element weights")
       for build in (coverage_function, make_coverage)
       for case, subsets, weights in (("string", [[0]], ["x"]),
                                      ("ragged", [[0], [1]], [1.0, [2.0]]))},
    "coverage-flat-subsets": (make_coverage, ([0, 1],), "subsets"),
    "concave-modular-scalar": (make_concave_modular, (5.0,), "weights"),
}


@pytest.mark.parametrize("build,args,name", NOT_REALS.values(), ids=NOT_REALS)
def test_builder_arrays_are_read_by_the_rule(build, args, name):
    with pytest.raises(InputError, match=rf"^{re.escape(name)} must "):
        build(*args)


@pytest.mark.parametrize("build,args,message", [
    (make_quadratic, ([[-1.0]], 5.0), r"^c must have shape \(k,\), got shape \(\)"),
    (make_concave_modular, ([1.0, 2.0],), r"^weight vector must have shape \(k,\), got shape \(\)"),
    (make_coverage, ([[0, 1.5]],), "^subset elements must be integer indices"),
    (make_coverage, ([[0, "a"]],), "^subset elements must be integer indices"),
    (CardinalityBody, (2.0, 1), "^cardinality dimension n must be an integer, got 2.0"),
], ids=["quadratic-scalar-c", "concave-modular-flat", "coverage-fraction", "coverage-string",
        "cardinality-float-n"])
def test_malformed_builder_arguments_are_input_errors(build, args, message):
    with pytest.raises(InputError, match=message):
        build(*args)
