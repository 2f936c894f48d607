"""Douglas-Rachford / Peaceman-Rachford splitting for 2D diffusion with
quadrature (mass-lumped) bilinear finite elements."""

from ._kernel import KernelUnavailableError
from .grid import (
    Field,
    Grid,
    discrete_inner_product,
    discrete_norm,
    interpolate,
    prolong_to,
    read_field,
    write_field,
)
from .linsolve import LinearSolverHandle, NonConvergenceError, solve_lh
from .operators import (
    SplitDiffusionOperator,
    TridiagonalMatrix,
    assemble_1d_stiffness,
    assemble_split_operator,
    stability_bound,
    stability_certificate,
)
from .steppers import SchemeKind, cn_step, dr_step, evolve, pr_step

__all__ = [
    "Field",
    "Grid",
    "KernelUnavailableError",
    "LinearSolverHandle",
    "NonConvergenceError",
    "SchemeKind",
    "SplitDiffusionOperator",
    "TridiagonalMatrix",
    "assemble_1d_stiffness",
    "assemble_split_operator",
    "cn_step",
    "discrete_inner_product",
    "discrete_norm",
    "dr_step",
    "evolve",
    "interpolate",
    "pr_step",
    "prolong_to",
    "read_field",
    "solve_lh",
    "stability_bound",
    "stability_certificate",
    "write_field",
]
