"""Implicit-Euler forward solvers for the pinned and Robin heat systems.

Conventions used throughout the package:

* A state trajectory is a plain (n_steps + 1, n_nodes) array: slice k is
  the field at t_k and slice 0 the initial one, so u[1:] pairs with the
  control and target series.
* Controls and the target are sampled at the step right endpoints, so a
  control series has n_steps slices and slice k acts on the step from
  t_k to t_{k+1}.
* The pinned ("P") variant solves on free nodes with Dirichlet nodes held
  at b; the Robin ("Palpha") variant solves on all nodes with the exchange
  term alpha * B1 and the load alpha * B1 * b.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteOperators
from .linalg import SpdFactor
from .mesh import TimeGrid

VARIANTS = ("P", "Palpha")


def _check_shape(name, array, shape):
    """Refuse an array, by name, whose shape is not shape."""
    if np.shape(array) != shape:
        raise ValueError(f"{name} must have shape {shape}, got {np.shape(array)}")


def _trajectory(stepper):
    """The shape of a state or adjoint trajectory on the stepper's grid and mesh."""
    return (stepper.grid.n_steps + 1, stepper.ops.n_nodes)


@dataclass(frozen=True)
class ProblemData:
    """One fully specified control problem instance.

    ops : the assembled operators of the mesh the data lives on.
    b : values on the Dirichlet nodes (time independent).
    v_b : initial nodal field; must equal b on the Dirichlet nodes.
    z_d : target, one nodal field per time step, shape (n_steps, n_nodes).
    M1, M2 : positive weights of the distributed / boundary control penalty.

    The data checks itself when it is made, also through
    dataclasses.replace, and raises ValueError when it is invalid; the
    solvers do not check it again.  Its arrays must not be changed in
    place: validate() re-checks them.
    """

    ops: DiscreteOperators
    b: np.ndarray
    v_b: np.ndarray
    z_d: np.ndarray
    M1: float
    M2: float
    grid: TimeGrid

    def __post_init__(self):
        self.validate()

    def validate(self):
        ops, n = self.ops, self.ops.n_nodes
        for name in ("b", "v_b", "z_d", "M1", "M2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.M1 <= 0 or self.M2 <= 0:
            raise ValueError(f"cost weights must be positive, got {self.M1}, {self.M2}")
        _check_shape("v_b", self.v_b, (n,))
        _check_shape("b", self.b, ops.dirichlet_nodes.shape)
        _check_shape("z_d", self.z_d, (self.grid.n_steps, n))
        if not np.array_equal(self.v_b[ops.dirichlet_nodes], self.b):
            raise ValueError("v_b restricted to the Dirichlet nodes must equal b exactly")


@dataclass
class ControlPair:
    """Distributed control g (nodal, per step) and flux control q (gamma2 nodes)."""

    g: np.ndarray
    q: np.ndarray

    @classmethod
    def zeros_like(cls, ops: DiscreteOperators, grid: TimeGrid):
        return cls(np.zeros((grid.n_steps, ops.n_nodes)),
                   np.zeros((grid.n_steps, len(ops.gamma2_nodes))))

    def __add__(self, other):
        return ControlPair(self.g + other.g, self.q + other.q)

    def __sub__(self, other):
        return ControlPair(self.g - other.g, self.q - other.q)

    def __mul__(self, scalar):
        return ControlPair(scalar * self.g, scalar * self.q)

    __rmul__ = __mul__


class Stepper:
    """One operator of the family: the pinned system, or the Robin one at alpha.

    Built from one problem, which it keeps as `data` with the data's mesh
    operators `ops` and time grid `grid`; every solver takes the stepper
    alone and reads the problem, variant and alpha from it.  Holds the
    solved nodes S (the free nodes for "P", all nodes for "Palpha"), the
    factorized step matrix A_SS, the rows S of the mass matrix and of the
    gamma2 columns of B2 (the flux load), and for the pinned variant the
    Dirichlet block A_FD of the step matrix.  Every matrix involved is
    symmetric, so the same factorization, and the same time loop, serve the
    forward and the backward sweeps.
    """

    def __init__(self, data: ProblemData, variant="P", alpha=None):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.data = data
        ops, grid = self.ops, self.grid = data.ops, data.grid
        self.variant = variant
        self.alpha = alpha
        if variant == "P":
            S = self.nodes = ops.free_nodes
            A = (ops.M / grid.tau + ops.K)[S]
            self.A_fd = A[:, ops.dirichlet_nodes]
            A = A[:, S]
        else:
            if alpha is None or not 0 < alpha < np.inf:
                raise ValueError(
                    f"the Robin variant needs a finite alpha > 0, got {alpha}")
            S = self.nodes = slice(None)
            A = ops.M / grid.tau + ops.K + alpha * ops.B1
        self.mass = ops.M[S]
        self.flux = ops.B2[S][:, ops.gamma2_nodes]
        self.factor = SpdFactor(A)

    def boundary_load(self):
        """Constant load of the data's boundary values b on the solved rows.

        -A_FD b for the pinned variant: with the Dirichlet rows of every
        slice held at b, the mass product of a step counts their part
        M_FD b / tau, and -A_FD b = -M_FD b / tau - K_FD b takes it back out
        and adds the stiffness lifting.  alpha B1 b for the Robin variant.
        """
        b = self.data.b
        if self.variant == "P":
            return -(self.A_fd @ b)
        b_ext = np.zeros(self.ops.n_nodes)
        b_ext[self.ops.dirichlet_nodes] = b
        return self.alpha * (self.ops.B1 @ b_ext)

    def load(self, field, q_slice):
        """M field - B2 q on the solved rows, for a nodal field and a gamma2 sample.

        The result has one entry per solved node (len(free_nodes) for the
        pinned variant, n_nodes for the Robin one), not one per mesh node.
        A step passes u_k / tau + g_k (backward: p_{k+1} / tau + r_k) as the
        field, so one sparse product covers the mass term and the control;
        the flux product is skipped when q is zero, as in every backward step.
        """
        out = self.mass @ field
        if np.any(q_slice):
            out -= self.flux @ q_slice
        return out


def _check_ctrl(ctrl, stepper):
    n_steps, ops = stepper.grid.n_steps, stepper.ops
    _check_shape("g series", ctrl.g, (n_steps, ops.n_nodes))
    _check_shape("q series", ctrl.q, (n_steps, len(ops.gamma2_nodes)))


def _forward(stepper, ctrl, start, source, pinned, out=None):
    """The implicit-Euler time loop on the stepper's solved nodes.

    start is the nodal field at t_0 or None for a zero one, source an
    optional constant load on the solved nodes, and pinned the value of the
    Dirichlet rows of every later slice (the Robin variant solves those rows
    too).  Step k solves A_SS x = M_S (u_k / tau + g_k) - B2_S q_k + source.
    The trajectory is written into out, an (n_steps + 1, n_nodes) buffer
    whose every entry it sets, or into a fresh array.  Step k reads g_k
    before it writes u_{k+1}, so out[k + 1] may be the memory of g_k.
    """
    ops, grid = stepper.ops, stepper.grid
    S = stepper.nodes
    tau = grid.tau
    if out is None:
        # a zero start slice is never written: a fresh array keeps its pages unmapped
        u = np.zeros((grid.n_steps + 1, ops.n_nodes))
    else:
        u = out
        u[0] = 0.0
    if start is not None:
        u[0] = start
    field = np.empty(ops.n_nodes)
    for k in range(grid.n_steps):
        np.divide(u[k], tau, out=field)
        field += ctrl.g[k]
        rhs = stepper.load(field, ctrl.q[k])
        if source is not None:
            rhs += source
        u[k + 1][ops.dirichlet_nodes] = pinned
        u[k + 1][S] = stepper.factor.solve(rhs)  # a row view: half the cost of u[k + 1, S]
    return u


def solve_state(ctrl: ControlPair, stepper: Stepper) -> np.ndarray:
    """Forward solve of the stepper's system, pinned or Robin at its alpha, on its data."""
    data = stepper.data
    _check_ctrl(ctrl, stepper)
    return _forward(stepper, ctrl, data.v_b, stepper.boundary_load(), data.b)


def solve_state_homogeneous(ctrl: ControlPair, stepper: Stepper, out=None) -> np.ndarray:
    """Linear part of the control-to-state map (zero data, zero start).

    This is the trajectory difference u(ctrl) - u(zero controls); the pinned
    variant keeps the Dirichlet rows at zero.  out, when given, is an
    (n_steps + 1, n_nodes) buffer the trajectory is written into; any other
    shape raises ValueError before anything is solved.
    """
    _check_ctrl(ctrl, stepper)
    if out is not None:
        _check_shape("out", out, _trajectory(stepper))
    return _forward(stepper, ctrl, None, None, 0.0, out)
