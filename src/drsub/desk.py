"""Bundled desk-scale instances used by the self-check command and the tests.

Each entry pairs an objective with a feasible body small enough that the
ground-truth oracles certify the optimum exactly or with quantified slack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasible import BoxBody, CardinalityBody, ConvexBody, PartitionBody
from .objective import (DrFunction, SetFunction, coverage_function, make_concave_modular,
                        make_coverage, make_quadratic)


@dataclass(frozen=True, eq=False)
class DeskInstance:
    name: str
    objective: DrFunction
    body: ConvexBody
    set_function: SetFunction | None = None


#: four unit-weight elements covered by three overlapping sets
COVER3 = [[0, 1], [1, 2], [2, 3]]


def coverage_three_sets() -> SetFunction:
    """Coverage of four unit-weight elements by three overlapping sets."""
    return coverage_function(COVER3)


def coverage_two_sets() -> SetFunction:
    """The two-set coverage whose extension is 2 x1 + 2 x2 - x1 x2."""
    return coverage_function([[0, 1], [1, 2]])


def quad_two_dim() -> DrFunction:
    """Non-monotone quadratic with diagonal curvature -2 and offset 1/2."""
    return make_quadratic([[-2.0, 0.0], [0.0, -2.0]], [1.0, 0.5])


def bundled_instances() -> list[DeskInstance]:
    cover3 = coverage_three_sets()
    quad = quad_two_dim()
    sqrt_inst = make_concave_modular([[1.0, 0.5, 0.0, 0.0], [0.0, 0.0, 2.0, 1.0]])
    return [
        DeskInstance("coverage3-card2", make_coverage(COVER3),
                     CardinalityBody(3, 2), cover3),
        DeskInstance("quad2-box", quad, BoxBody(np.ones(2))),
        DeskInstance("quad2-card1", quad, CardinalityBody(2, 1)),
        DeskInstance("sqrt4-partition", sqrt_inst,
                     PartitionBody(4, ((0, 1), (2, 3)), (1, 1))),
    ]
