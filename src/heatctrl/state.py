"""Implicit-Euler forward solvers for the pinned and Robin heat systems.

Conventions used throughout the package:

* A state trajectory has n_steps+1 slices; slice 0 is the initial field.
* Controls and the target are sampled at the step right endpoints, so a
  control series has n_steps slices and slice k acts on the step from
  t_k to t_{k+1}.
* The pinned ("P") variant solves on free nodes with Dirichlet nodes held
  at b; the Robin ("Palpha") variant solves on all nodes with the exchange
  term alpha * B1 and the load alpha * B1 * b.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .assembly import DiscreteOperators
from .linalg import SpdFactor
from .mesh import TimeGrid

VARIANTS = ("P", "Palpha")


@dataclass(frozen=True)
class ProblemData:
    """One fully specified control problem instance.

    b : values on the Dirichlet nodes (time independent).
    v_b : initial nodal field; must equal b on the Dirichlet nodes.
    z_d : target, one nodal field per time step, shape (n_steps, n_nodes).
    M1, M2 : positive weights of the distributed / boundary control penalty.
    alpha : Robin exchange coefficient, used only by the "Palpha" paths.
    """

    b: np.ndarray
    v_b: np.ndarray
    z_d: np.ndarray
    M1: float
    M2: float
    grid: TimeGrid
    alpha: float | None = None

    def with_alpha(self, alpha: float) -> "ProblemData":
        return replace(self, alpha=alpha)

    def validate(self, ops: DiscreteOperators):
        n = ops.n_nodes
        if self.M1 <= 0 or self.M2 <= 0:
            raise ValueError(f"cost weights must be positive, got {self.M1}, {self.M2}")
        if self.v_b.shape != (n,):
            raise ValueError(f"v_b must have shape ({n},), got {self.v_b.shape}")
        if self.b.shape != ops.dirichlet_nodes.shape:
            raise ValueError(
                f"b must have one value per Dirichlet node "
                f"({len(ops.dirichlet_nodes)}), got {self.b.shape}"
            )
        if self.z_d.shape != (self.grid.n_steps, n):
            raise ValueError(
                f"z_d must have shape ({self.grid.n_steps}, {n}), got {self.z_d.shape}"
            )
        if not np.array_equal(self.v_b[ops.dirichlet_nodes], self.b):
            raise ValueError("v_b restricted to the Dirichlet nodes must equal b exactly")


@dataclass
class ControlPair:
    """Distributed control g (nodal, per step) and flux control q (gamma2 nodes)."""

    g: np.ndarray
    q: np.ndarray

    @classmethod
    def zeros(cls, n_steps, n_nodes, n_gamma2):
        return cls(np.zeros((n_steps, n_nodes)), np.zeros((n_steps, n_gamma2)))

    @classmethod
    def zeros_like(cls, ops: DiscreteOperators, grid: TimeGrid):
        return cls.zeros(grid.n_steps, ops.n_nodes, len(ops.gamma2_nodes))

    def copy(self):
        return ControlPair(self.g.copy(), self.q.copy())

    def __add__(self, other):
        return ControlPair(self.g + other.g, self.q + other.q)

    def __sub__(self, other):
        return ControlPair(self.g - other.g, self.q - other.q)

    def __mul__(self, scalar):
        return ControlPair(scalar * self.g, scalar * self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed nodal fields; role is "state", "adjoint" or "difference".

    For adjoints the stored slice k pairs with control step k (slice k holds
    the multiplier of the step ending at t_{k+1}) and the last slice is the
    zero terminal condition.
    """

    slices: np.ndarray
    role: str = "state"

    @property
    def n_steps(self) -> int:
        return self.slices.shape[0] - 1


class Stepper:
    """Shared implicit-Euler machinery for one (variant, alpha) pair.

    Holds the factorized step matrix plus the restricted mass/stiffness
    blocks; the same factorization serves the forward and the backward
    sweeps because every matrix involved is symmetric.
    """

    def __init__(self, ops: DiscreteOperators, grid: TimeGrid, variant="P", alpha=None):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.ops = ops
        self.grid = grid
        self.variant = variant
        self.alpha = alpha
        tau = grid.tau
        if variant == "P":
            F, D = ops.free_nodes, ops.dirichlet_nodes
            A = ops.M / tau + ops.K
            self.A_ff = sp.csr_matrix(A[np.ix_(F, F)])
            self.M_ff = sp.csr_matrix(ops.M[np.ix_(F, F)])
            self.K_fd = sp.csr_matrix(ops.K[np.ix_(F, D)])
            self.factor = SpdFactor(self.A_ff)
        else:
            if alpha is None or alpha <= 0:
                raise ValueError(f"the Robin variant needs alpha > 0, got {alpha}")
            A = ops.M / tau + ops.K + alpha * ops.B1
            self.factor = SpdFactor(sp.csr_matrix(A))

    def load(self, g_slice, q_slice):
        """Right-hand-side contribution of one control sample (all nodes)."""
        ops = self.ops
        out = ops.M @ g_slice
        if np.any(q_slice):
            out -= ops.B2 @ ops.extend_gamma2(q_slice)
        return out


def _check_ctrl(ctrl, ops, grid):
    n_steps = grid.n_steps
    if ctrl.g.shape != (n_steps, ops.n_nodes):
        raise ValueError(
            f"g series must have shape ({n_steps}, {ops.n_nodes}), got {ctrl.g.shape}"
        )
    if ctrl.q.shape != (n_steps, len(ops.gamma2_nodes)):
        raise ValueError(
            f"q series must have shape ({n_steps}, {len(ops.gamma2_nodes)}), "
            f"got {ctrl.q.shape}"
        )


def check_stepper(stepper, variant, alpha=None):
    """Reject a stepper built for a different variant or Robin coefficient."""
    if stepper.variant != variant:
        raise ValueError(
            f"stepper was built for variant {stepper.variant!r}, need {variant!r}"
        )
    if variant == "Palpha" and alpha is not None and stepper.alpha != alpha:
        raise ValueError(
            f"stepper was built for alpha={stepper.alpha}, need alpha={alpha}"
        )


def _forward_pinned(stepper, ctrl, v_b, b):
    ops, grid = stepper.ops, stepper.grid
    F, D = ops.free_nodes, ops.dirichlet_nodes
    tau = grid.tau
    bc_term = stepper.K_fd @ b
    u = np.empty((grid.n_steps + 1, ops.n_nodes))
    u[0] = v_b
    uf = v_b[F].copy()
    for k in range(grid.n_steps):
        rhs = (stepper.M_ff @ uf) / tau + stepper.load(ctrl.g[k], ctrl.q[k])[F] - bc_term
        uf = stepper.factor.solve(rhs)
        u[k + 1, F] = uf
        u[k + 1, D] = b
    return u


def _forward_robin(stepper, ctrl, v_b, b):
    ops, grid = stepper.ops, stepper.grid
    tau = grid.tau
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = b
    robin_term = stepper.alpha * (ops.B1 @ b_ext)
    u = np.empty((grid.n_steps + 1, ops.n_nodes))
    u[0] = v_b
    for k in range(grid.n_steps):
        rhs = (ops.M @ u[k]) / tau + stepper.load(ctrl.g[k], ctrl.q[k]) + robin_term
        u[k + 1] = stepper.factor.solve(rhs)
    return u


def solve_state_P(data: ProblemData, ctrl: ControlPair, ops: DiscreteOperators,
                  stepper: Stepper | None = None) -> Trajectory:
    """Forward solve of the pinned-boundary system."""
    data.validate(ops)
    _check_ctrl(ctrl, ops, data.grid)
    if stepper is None:
        stepper = Stepper(ops, data.grid, "P")
    check_stepper(stepper, "P")
    return Trajectory(_forward_pinned(stepper, ctrl, data.v_b, data.b), role="state")


def solve_state_Palpha(data: ProblemData, ctrl: ControlPair, ops: DiscreteOperators,
                       stepper: Stepper | None = None) -> Trajectory:
    """Forward solve of the Robin-boundary system at data.alpha."""
    data.validate(ops)
    _check_ctrl(ctrl, ops, data.grid)
    if stepper is None:
        stepper = Stepper(ops, data.grid, "Palpha", data.alpha)
    check_stepper(stepper, "Palpha", data.alpha)
    return Trajectory(_forward_robin(stepper, ctrl, data.v_b, data.b), role="state")


def solve_state(data, ctrl, ops, variant, stepper=None) -> Trajectory:
    if variant == "P":
        return solve_state_P(data, ctrl, ops, stepper)
    if variant == "Palpha":
        return solve_state_Palpha(data, ctrl, ops, stepper)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def solve_state_homogeneous(ctrl: ControlPair, stepper: Stepper) -> Trajectory:
    """Linear part of the control-to-state map (zero data, zero start).

    This is the trajectory difference u(ctrl) - u(zero controls); the pinned
    variant keeps the Dirichlet rows at zero.
    """
    ops, grid = stepper.ops, stepper.grid
    _check_ctrl(ctrl, ops, grid)
    tau = grid.tau
    du = np.zeros((grid.n_steps + 1, ops.n_nodes))
    if stepper.variant == "P":
        F = ops.free_nodes
        df = np.zeros(len(F))
        for k in range(grid.n_steps):
            rhs = (stepper.M_ff @ df) / tau + stepper.load(ctrl.g[k], ctrl.q[k])[F]
            df = stepper.factor.solve(rhs)
            du[k + 1, F] = df
    else:
        for k in range(grid.n_steps):
            rhs = (ops.M @ du[k]) / tau + stepper.load(ctrl.g[k], ctrl.q[k])
            du[k + 1] = stepper.factor.solve(rhs)
    return Trajectory(du, role="difference")
