"""Exact discrete adjoints of the forward solvers (backward in time).

The adjoint is the literal transpose of the discrete state map paired with
the right-endpoint cost quadrature, not a re-discretization of the dual PDE.
With the slice convention of `state.Trajectory` (adjoint slice k multiplies
the step ending at t_{k+1}, last slice zero), the pairing

    (C(h,eta), u - z_d)_H  =  (h, p)_H - (eta, p)_Q

holds to machine precision for both variants.
"""

import numpy as np

from .state import ProblemData, Stepper, Trajectory, _check


def _check_state(data, u):
    expected = (data.grid.n_steps + 1, data.ops.n_nodes)
    if u.slices.shape != expected:
        raise ValueError(
            f"state trajectory has shape {u.slices.shape}, expected {expected}"
        )


def _backward(stepper, residual):
    """The backward time loop on the stepper's solved nodes.

    residual[k] is the nodal residual of step k+1; step k solves
    A_SS x = M_S (p_{k+1} / tau + residual[k]).  Rows off the solved nodes
    and the last slice stay zero.
    """
    ops, grid = stepper.ops, stepper.grid
    S = stepper.nodes
    tau = grid.tau
    p = np.zeros((grid.n_steps + 1, ops.n_nodes))
    field = np.empty(ops.n_nodes)
    for k in range(grid.n_steps - 1, -1, -1):
        np.divide(p[k + 1], tau, out=field)
        field += residual[k]
        p[k][S] = stepper.factor.solve(stepper.mass @ field)
    return p


def solve_adjoint(data: ProblemData, u: Trajectory, stepper: Stepper) -> Trajectory:
    """Adjoint of the stepper's system, driven by the tracking residual of u."""
    _check(data, stepper)
    _check_state(data, u)
    return Trajectory(_backward(stepper, u.slices[1:] - data.z_d))


def solve_adjoint_homogeneous(du: Trajectory, stepper: Stepper) -> Trajectory:
    """Adjoint driven by the residual of a trajectory difference (z_d = 0).

    Used by the reduced optimizers: the Hessian action on a control
    direction is assembled from this sweep applied to the homogeneous state.
    """
    return Trajectory(_backward(stepper, du.slices[1:]))
