"""Distributed-boundary optimal control of the heat equation at desk scale.

A P1 finite-element / implicit-Euler solver stack for simultaneously
controlling the internal energy and the boundary heat flux of a heat
conduction problem, with either a pinned (Dirichlet) or a Robin exchange
condition on the remaining boundary portion, plus the machinery to study
the Robin-to-pinned limit and the fixed-point characterization of optima.
"""

from .adjoint import solve_adjoint
from .analysis import (SweepRecord, SweepReport, alpha_sweep, check_suite,
                       sweep_flags)
from .assembly import (AssemblyError, ConstantsReport, DiscreteOperators,
                       assemble, compute_constants)
from .control import (OptimalityReport, apply_W, contraction_constant,
                      convexity_gap, cost_J, gradient_J, h_inner, hq_inner,
                      hq_norm, measured_step_ratio, q_inner, solve_cg,
                      solve_distributed_only, solve_fixed_point)
from .linalg import EigenError, SolverError, SpdFactor, gen_eig_extreme
from .mesh import Mesh, TimeGrid, build_rect_mesh, dof_partition
from .state import ControlPair, ProblemData, Stepper, Trajectory, solve_state

__all__ = [
    "AssemblyError",
    "ConstantsReport",
    "ControlPair",
    "DiscreteOperators",
    "EigenError",
    "Mesh",
    "OptimalityReport",
    "ProblemData",
    "SolverError",
    "SpdFactor",
    "Stepper",
    "SweepRecord",
    "SweepReport",
    "TimeGrid",
    "Trajectory",
    "alpha_sweep",
    "apply_W",
    "assemble",
    "build_rect_mesh",
    "check_suite",
    "compute_constants",
    "contraction_constant",
    "convexity_gap",
    "cost_J",
    "dof_partition",
    "gen_eig_extreme",
    "gradient_J",
    "h_inner",
    "hq_inner",
    "hq_norm",
    "measured_step_ratio",
    "q_inner",
    "solve_adjoint",
    "solve_cg",
    "solve_distributed_only",
    "solve_fixed_point",
    "solve_state",
    "sweep_flags",
]
