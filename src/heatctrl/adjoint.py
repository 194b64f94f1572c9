"""Exact discrete adjoints of the forward solvers (backward in time).

The adjoint is the literal transpose of the discrete state map paired with
the right-endpoint cost quadrature, not a re-discretization of the dual PDE.
An adjoint trajectory is a plain (n_steps + 1, n_nodes) array: slice k
multiplies the step ending at t_{k+1}, so p[:-1] pairs with the control
series, and the last slice is the zero terminal condition.  With it, the
pairing

    (C(h,eta), u - z_d)_H  =  (h, p)_H - (eta, p)_Q

holds to machine precision for both variants.  Every matrix of a step is
symmetric, so the transpose is the state's implicit-Euler recurrence run
backward in time: the sweep is state._forward on the time-reversed
residual, run on the time-reversed view of the adjoint's array.
"""

import numpy as np

from .linalg import _check_shape
from .state import ControlPair, Stepper, _forward, _trajectory


def _backward(stepper, residual, out):
    """The backward time loop, as the forward loop on the reversed residual.

    residual[k] is the nodal residual of step k+1; step k solves
    A_SS x = M_S (p_{k+1} / tau + residual[k]).  The loop runs on out[::-1],
    so out holds p in time order (rows off the solved nodes and the last
    slice zero), and out[:-1] may be residual: each step reads its slice first.
    """
    no_flux = np.broadcast_to(0.0, (stepper.grid.n_steps, len(stepper.ops.gamma2_nodes)))
    ctrl = ControlPair(residual[::-1], no_flux)
    return _forward(stepper, ctrl, homogeneous=True, out=out[::-1])[::-1]


def solve_adjoint(u: np.ndarray, stepper: Stepper) -> np.ndarray:
    """Adjoint of the stepper's system, swept in place over the residual u[1:] - z_d."""
    _check_shape("state trajectory", u, _trajectory(stepper))
    p = np.empty(u.shape)
    np.subtract(u[1:], stepper.data.z_d, out=p[:-1])
    return _backward(stepper, p[:-1], p)


def solve_adjoint_homogeneous(du: np.ndarray, stepper: Stepper, out=None) -> np.ndarray:
    """Adjoint driven by the residual of a trajectory difference (z_d = 0).

    The Hessian action on a control direction is this sweep applied to the
    homogeneous state.  du, and out when given, are (n_steps + 1, n_nodes)
    trajectories, out the adjoint's buffer; its one allowed overlap with du,
    which CG's product uses, is out[:-1] on the memory of du[1:].  Another
    shape or overlap raises ValueError before anything is solved.
    """
    _check_shape("du", du, _trajectory(stepper))
    out = np.empty(_trajectory(stepper)) if out is None else out
    _check_shape("out", out, _trajectory(stepper))
    if (np.shares_memory(out, du)
            and out[:-1].__array_interface__ != du[1:].__array_interface__):
        raise ValueError("out may overlap du only as out[:-1] = du[1:]")
    return _backward(stepper, du[1:], out)
