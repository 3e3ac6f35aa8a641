"""Finite axisymmetric deformation of a clamped circular hyperelastic
membrane under hydrostatic load, computed by a Ritz expansion with an
optional steep Bessel-profile basis for boundary layers."""

from .assembly import functional_value, jacobian, p_gradient, residual
from .basis import (
    BasisSpec,
    SolutionState,
    eval_generators,
    eval_shape,
    shape_p_derivs,
)
from .kinematics import (
    LoadParams,
    ShapeEval,
    curvatures,
    hydro_load,
    stretches,
)
from .material import (
    MaterialParams,
    energy,
    energy_derivs,
    principal_stresses,
    tension_partials,
    tension_values,
)
from .quadrature import QuadratureRule, auto_rule, gauss_rule, two_panel_rule
from .solver import (
    ContinuationPoint,
    SolveContext,
    SolveFailure,
    SolveReport,
    StepPolicy,
    continue_in_load,
    delta_diagnostic,
    init_p1,
    initial_guess,
    newton_solve,
    optimize_basis,
    solve_ladder,
    solve_membrane,
)

__all__ = [
    # assembly
    "functional_value", "jacobian", "p_gradient", "residual",
    # basis
    "BasisSpec", "SolutionState", "eval_generators", "eval_shape",
    "shape_p_derivs",
    # kinematics
    "LoadParams", "ShapeEval", "curvatures", "hydro_load", "stretches",
    # material
    "MaterialParams", "energy", "energy_derivs", "principal_stresses",
    "tension_partials", "tension_values",
    # quadrature
    "QuadratureRule", "auto_rule", "gauss_rule", "two_panel_rule",
    # solver
    "ContinuationPoint", "SolveContext", "SolveFailure", "SolveReport",
    "StepPolicy", "continue_in_load", "delta_diagnostic", "init_p1",
    "initial_guess", "newton_solve", "optimize_basis", "solve_ladder",
    "solve_membrane",
]
__version__ = "0.1.0"
