"""Boundary value problems (phi(u'))' = f(t, u, u') with a bounded flux.

phi is an increasing homeomorphism of the line onto a bounded interval
(-a, a), so solutions have slopes confined a priori; the package couples
three-point boundary conditions to that structure.  It offers a fixed-point
solver with homotopy continuation, an independent shooting oracle, a sampled
hypothesis checker with certified arithmetic where possible, and a plane
topological-degree computation that certifies existence.
"""

from .degree import (DegreeResult, DomainDelta, PlanarMap, boundary_polygon,
                     degree_for_problem, reduction_map, winding_degree)
from .errors import (BvpError, EmptyDomain, ExpressionSyntaxError,
                     HypothesisFailed, InvalidThresholds, NoConvergence,
                     NonFinite, NoRoot, PreconditionViolated,
                     ProblemFileError, RangeViolation, RefinementExhausted,
                     StepRejected, UnknownIdentifier, ZeroOnBoundary)
from .expressions import as_callable, evaluate, parse, to_source
from .grid import Grid, GridFunction, norm_c1, norm_sup
from .homeomorphisms import Homeomorphism, by_name, curvature, scaled_atan
from .hypotheses import (ConditionVerdict, HypothesisData, HypothesisReport,
                         Verdict, check_bound_p2, check_problem,
                         check_sign_condition, compute_bounds_p1)
from .operators import (BoundaryCondition, ProblemSpec, ResidualReport,
                        RightHandSide, affine_mean, balancing_shift,
                        fixed_point_map, mean_value, nemytskii, residual,
                        running_integral, running_integral_from_end)
from .problem_file import ProblemDocument, load_problem, loads
from .solver import (SolveOptions, SolveReport, cross_validate, shoot_ivp,
                     solve, solve_fixed_point, solve_shooting)

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridFunction", "norm_sup", "norm_c1",
    "Homeomorphism", "curvature", "scaled_atan", "by_name",
    "BoundaryCondition", "RightHandSide", "ProblemSpec", "ResidualReport",
    "nemytskii", "affine_mean", "running_integral", "running_integral_from_end",
    "mean_value", "balancing_shift", "fixed_point_map", "residual",
    "PlanarMap", "DomainDelta", "DegreeResult", "reduction_map",
    "boundary_polygon", "winding_degree", "degree_for_problem",
    "Verdict", "ConditionVerdict", "HypothesisData",
    "HypothesisReport", "check_problem", "check_sign_condition",
    "compute_bounds_p1", "check_bound_p2",
    "SolveOptions", "SolveReport", "solve", "solve_fixed_point",
    "solve_shooting", "cross_validate", "shoot_ivp",
    "parse", "evaluate", "as_callable", "to_source",
    "ProblemDocument", "load_problem", "loads",
    "BvpError", "RangeViolation", "NonFinite", "PreconditionViolated",
    "EmptyDomain", "ZeroOnBoundary", "RefinementExhausted", "NoConvergence",
    "NoRoot", "StepRejected", "HypothesisFailed", "InvalidThresholds",
    "ProblemFileError", "ExpressionSyntaxError", "UnknownIdentifier",
    "__version__",
]
