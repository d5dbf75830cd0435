"""Frank-Wolfe solvers for DR-submodular maximization on the unit box.

The toolkit bundles three solver families driven by weight schedules
(a_t, b_t, T), linear-maximization oracles over small feasible bodies,
desk-scale ground-truth optimum oracles, and telemetry that verifies every
guarantee the analysis promises: per-step coupling terms, potential
increments, headroom margins, and the a-priori approximation bound.
"""

from .errors import (CapacityError, ConfigurationError, DrsubError, InputError,
                     InvariantError, ValidationError)
from .feasible import (BoxBody, CardinalityBody, ConvexBody, PackingBody,
                       PartitionBody, body_from_json, lmo_bruteforce)
from .objective import (DrFunction, SetFunction, check_dr_inequality,
                        coverage_function, finite_diff_grad, instance_from_json,
                        make_concave_modular, make_quadratic,
                        multilinear_extension, set_function_from_table)
from .oracle import OptCertificate, cross_check, grid_search, set_bruteforce
from .schedule import (Schedule, coupling_residual, preset, ratio, ratio_curve,
                       schedule_from_json, validate)
from .solver import (FamilySpec, GuaranteeBound, PotentialSeries, Trajectory,
                     arbitrary_start_run, family_spec, g_series, guarantee,
                     potential_series, run, trajectory_csv)

__version__ = "0.1.0"
