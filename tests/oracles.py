"""Independent dense reference implementations used to check the solvers.

The dense oracles deliberately avoid the package's assembly formulas and
time-stepping loops: element matrices come from quadrature on explicitly
solved shape functions, and the space-time systems are assembled as one
dense block bidiagonal matrix and solved with numpy's LU.  The reference
helpers below them reuse the package's sweeps and pin down what the
package's own compositions of those sweeps must compute.
"""

import math

import numpy as np
import scipy.sparse as sp

from heatctrl import (ControlPair, OptimalityReport, ProblemData, Stepper,
                      TimeGrid, assemble, build_rect_mesh, cost_J, h_inner,
                      solve_adjoint, solve_state)
from heatctrl.adjoint import solve_adjoint_homogeneous
from heatctrl.mesh import GAMMA1, GAMMA2
from heatctrl.state import solve_state_homogeneous


# -- independent dense element assembly ----------------------------------------

def dense_assemble(mesh):
    """Dense K, M, B1, B2 via quadrature on explicitly solved P1 bases."""
    n = mesh.n_nodes
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for tri in mesh.triangles:
        pts = mesh.nodes[tri]
        vander = np.column_stack([np.ones(3), pts[:, 0], pts[:, 1]])
        coeff = np.linalg.inv(vander)  # column i: coefficients of phi_i
        area = 0.5 * abs(np.linalg.det(vander))
        grads = coeff[1:, :]  # (2, 3)
        K[np.ix_(tri, tri)] += area * grads.T @ grads
        # edge-midpoint rule, exact for quadratics
        mids = np.array([0.5 * (pts[0] + pts[1]),
                         0.5 * (pts[1] + pts[2]),
                         0.5 * (pts[2] + pts[0])])
        phi = np.column_stack([np.ones(3), mids[:, 0], mids[:, 1]]) @ coeff
        M[np.ix_(tri, tri)] += (area / 3.0) * phi.T @ phi

    def boundary(tag):
        B = np.zeros((n, n))
        for a, b in mesh.edges_with_tag(tag):
            length = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a])
            # Simpson on the edge, exact for products of linears
            t = np.array([0.0, 0.5, 1.0])
            w = length * np.array([1.0, 4.0, 1.0]) / 6.0
            phi = np.column_stack([1.0 - t, t])
            B[np.ix_((a, b), (a, b))] += phi.T @ (w[:, None] * phi)
        return B

    return K, M, boundary(GAMMA1), boundary(GAMMA2)


# -- dense space-time systems ----------------------------------------------------

class SpaceTimeSystem:
    """One dense block lower-bidiagonal space-time operator.

    For the pinned variant the unknowns are the free-node values of steps
    1..N; for the Robin variant all nodes.  `control_matrix` maps the stacked
    controls [vec(g); vec(q)] to the stacked unknowns.
    """

    def __init__(self, ops, grid, variant, alpha=None):
        self.ops = ops
        self.grid = grid
        self.variant = variant
        self.alpha = alpha
        n = ops.n_nodes
        tau = grid.tau
        K = ops.K.toarray()
        M = ops.M.toarray()
        if variant == "P":
            self.rows = ops.free_nodes
        else:
            self.rows = np.arange(n)
        r = self.rows
        if variant == "P":
            A = (M / tau + K)[np.ix_(r, r)]
        else:
            A = (M / tau + K + alpha * ops.B1.toarray())[np.ix_(r, r)]
        self.A = A
        self.M_rr = M[np.ix_(r, r)]
        self.M_rows = M[r, :]
        B2 = ops.B2.toarray()
        self.B2_cols = B2[np.ix_(r, ops.gamma2_nodes)]
        self.K_rows = K[r, :]

        N = grid.n_steps
        f = len(r)
        L = np.zeros((N * f, N * f))
        for kstep in range(N):
            L[kstep * f:(kstep + 1) * f, kstep * f:(kstep + 1) * f] = A
            if kstep > 0:
                L[kstep * f:(kstep + 1) * f, (kstep - 1) * f:kstep * f] = -self.M_rr / tau
        self.L = L
        self.f = f
        self.N = N

    def control_loads(self, ctrl):
        """Stacked per-step control loads on the unknown rows."""
        loads = []
        for k in range(self.N):
            loads.append(self.M_rows @ ctrl.g[k] - self.B2_cols @ ctrl.q[k])
        return np.concatenate(loads)

    def affine_loads(self, data):
        """Stacked loads from b, v_b and the Robin exchange term."""
        ops, tau = self.ops, self.grid.tau
        n = ops.n_nodes
        b_ext = np.zeros(n)
        b_ext[ops.dirichlet_nodes] = data.b
        loads = np.zeros(self.N * self.f)
        if self.variant == "P":
            per_step = -self.K_rows[:, ops.dirichlet_nodes] @ data.b
        else:
            per_step = self.alpha * (ops.B1.toarray()[self.rows, :] @ b_ext)
        for k in range(self.N):
            loads[k * self.f:(k + 1) * self.f] += per_step
        loads[:self.f] += (self.M_rows[:, :] @ data.v_b) / tau \
            if self.variant == "Palpha" else (self.M_rr @ data.v_b[self.rows]) / tau
        return loads

    def state(self, data, ctrl):
        """Full dense trajectory (n_steps+1, n_nodes) including pinned rows."""
        x = np.linalg.solve(self.L, self.control_loads(ctrl) + self.affine_loads(data))
        u = np.zeros((self.N + 1, self.ops.n_nodes))
        u[0] = data.v_b
        for k in range(self.N):
            u[k + 1, self.rows] = x[k * self.f:(k + 1) * self.f]
            if self.variant == "P":
                u[k + 1, self.ops.dirichlet_nodes] = data.b
        return u

    def state_difference(self, ctrl):
        """Linear image of a control pair (N+1 slices, all nodes)."""
        x = np.linalg.solve(self.L, self.control_loads(ctrl))
        du = np.zeros((self.N + 1, self.ops.n_nodes))
        for k in range(self.N):
            du[k + 1, self.rows] = x[k * self.f:(k + 1) * self.f]
        return du

    def adjoint(self, data, u):
        """Transpose solve against the tracking residual of u."""
        M = self.ops.M.toarray()
        res = np.concatenate([
            (M @ (u[k + 1] - data.z_d[k]))[self.rows] for k in range(self.N)
        ])
        x = np.linalg.solve(self.L.T, res)
        p = np.zeros((self.N + 1, self.ops.n_nodes))
        for k in range(self.N):
            p[k, self.rows] = x[k * self.f:(k + 1) * self.f]
        return p

    def control_matrix(self):
        """Dense map from stacked controls to stacked unknown state values."""
        n = self.ops.n_nodes
        m = len(self.ops.gamma2_nodes)
        N, f = self.N, self.f
        B = np.zeros((N * f, N * (n + m)))
        for k in range(N):
            B[k * f:(k + 1) * f, k * n:(k + 1) * n] = self.M_rows
            B[k * f:(k + 1) * f, N * n + k * m:N * n + (k + 1) * m] = -self.B2_cols
        return np.linalg.solve(self.L, B)

    def control_weight(self, data):
        """Dense Gram matrix of the weighted control space (no penalties)."""
        n = self.ops.n_nodes
        m = len(self.ops.gamma2_nodes)
        tau = self.grid.tau
        N = self.N
        W = np.zeros((N * (n + m), N * (n + m)))
        Md = self.ops.M.toarray()
        Bg = self.ops.B2_gamma.toarray()
        for k in range(N):
            W[k * n:(k + 1) * n, k * n:(k + 1) * n] = tau * Md
            sl = slice(N * n + k * m, N * n + (k + 1) * m)
            W[sl, sl] = tau * Bg
        return W

    def kkt_optimum(self, data):
        """Dense normal-equations solve of the reduced quadratic problem."""
        n = self.ops.n_nodes
        m = len(self.ops.gamma2_nodes)
        tau = self.grid.tau
        N = self.N
        C = self.control_matrix()
        W_state = np.kron(np.eye(N), tau * self.M_rr)
        R = self.control_weight(data).copy()
        R[:N * n, :N * n] *= data.M1
        R[N * n:, N * n:] *= data.M2
        u00 = self.state(data, ControlPair.zeros_like(self.ops, self.grid))
        Md = self.ops.M.toarray()
        lin = np.concatenate([
            tau * (Md @ (u00[k + 1] - data.z_d[k]))[self.rows] for k in range(N)
        ])
        H = C.T @ W_state @ C + R
        x = np.linalg.solve(H, -C.T @ lin)
        g = x[:N * n].reshape(N, n)
        q = x[N * n:].reshape(N, m)
        return ControlPair(g, q)

    def kkt_optimum_distributed(self, data, q_fixed):
        """Dense g-block optimum with the flux frozen at q_fixed."""
        n = self.ops.n_nodes
        m = len(self.ops.gamma2_nodes)
        tau = self.grid.tau
        N = self.N
        C = self.control_matrix()
        Cg = C[:, :N * n]
        Cq = C[:, N * n:]
        W_state = np.kron(np.eye(N), tau * self.M_rr)
        Md = self.ops.M.toarray()
        Rg = data.M1 * np.kron(np.eye(N), tau * Md)
        u00 = self.state(data, ControlPair.zeros_like(self.ops, self.grid))
        lin = np.concatenate([
            tau * (Md @ (u00[k + 1] - data.z_d[k]))[self.rows] for k in range(N)
        ])
        rhs = -Cg.T @ (lin + W_state @ (Cq @ q_fixed.ravel()))
        g = np.linalg.solve(Cg.T @ W_state @ Cg + Rg, rhs)
        return g.reshape(N, n)


# -- reference helpers on the package's own sweeps -------------------------------

# the Robin coefficient of every helper below and of most test instances
ALPHA = 10.0


def apply_C(data, ctrl, ops, variant):
    """Linear part of the control-to-state map: u(ctrl) - u(zero controls)."""
    return solve_state_homogeneous(ctrl, Stepper(ops, data.grid, variant, ALPHA))


def extend_gamma2(ops, q):
    """Extend gamma2-node fields (last axis) by zero to all nodes."""
    q = np.asarray(q)
    full = np.zeros(q.shape[:-1] + (ops.n_nodes,))
    full[..., ops.gamma2_nodes] = q
    return full


def _two_product_setup(ops, grid, variant, alpha):
    """Solved nodes, mass block, Dirichlet stiffness block and factor of one variant."""
    factor = Stepper(ops, grid, variant, alpha).factor
    if variant == "P":
        S = ops.free_nodes
        return (S, sp.csr_matrix(ops.M[np.ix_(S, S)]),
                sp.csr_matrix(ops.K[np.ix_(S, ops.dirichlet_nodes)]), factor)
    return slice(None), ops.M, None, factor


def two_product_state(data, ctrl, ops, variant):
    """The forward sweep as two sparse products per step.

    Step k solves A x = (M_SS x_k) / tau + (M g_k - B2 q_k)|_S + source,
    with source -K_SD b (pinned) or alpha B1 b (Robin): the loop the
    one-product sweep replaced, kept as its reference.
    """
    grid, tau = data.grid, data.grid.tau
    S, mass, K_fd, factor = _two_product_setup(ops, grid, variant, ALPHA)
    if variant == "P":
        source = -(K_fd @ data.b)
    else:
        b_ext = np.zeros(ops.n_nodes)
        b_ext[ops.dirichlet_nodes] = data.b
        source = ALPHA * (ops.B1 @ b_ext)
    flux = sp.csr_matrix(ops.B2[:, ops.gamma2_nodes])
    u = np.empty((grid.n_steps + 1, ops.n_nodes))
    u[0] = data.v_b
    u[1:, ops.dirichlet_nodes] = data.b
    x = u[0, S]
    for k in range(grid.n_steps):
        load = ops.M @ ctrl.g[k] - flux @ ctrl.q[k]
        x = factor.solve((mass @ x) / tau + load[S] + source)
        u[k + 1, S] = x
    return u


def two_product_adjoint(data, u, ops, variant):
    """The backward sweep as two sparse products per step.

    Step k solves A x = (M_SS x_{k+1}) / tau + (M (u_{k+1} - z_d[k]))|_S:
    the loop the one-product sweep replaced, kept as its reference.
    """
    grid, tau = data.grid, data.grid.tau
    S, mass, _, factor = _two_product_setup(ops, grid, variant, ALPHA)
    p = np.zeros((grid.n_steps + 1, ops.n_nodes))
    x = p[-1, S]
    for k in range(grid.n_steps - 1, -1, -1):
        x = factor.solve((mass @ x) / tau + (ops.M @ (u[k + 1] - data.z_d[k]))[S])
        p[k, S] = x
    return p


def distributed_only_on_g(data, q_fixed, ops, variant, tol, max_iter=500):
    """The distributed-only optimum by conjugate gradients on g alone.

    A standalone g-space CG on plain arrays with the flux q_fixed frozen in
    every state solve: the algorithm `solve_distributed_only` must reproduce
    bit for bit when it runs the simultaneous CG with the q part held.
    """
    stepper = Stepper(ops, data.grid, variant, ALPHA)
    grid = data.grid
    q_fixed = np.asarray(q_fixed, dtype=float)
    zero_q = np.zeros_like(q_fixed)

    def inner(a, b):
        return h_inner(a, b, ops, grid)

    def solve_at(g):
        ctrl = ControlPair(g, q_fixed.copy())
        u = solve_state(data, ctrl, stepper)
        p = solve_adjoint(data, u, stepper)
        return ctrl, u, p, data.M1 * g + p.slices[:-1]

    def hessian(d):
        du = solve_state_homogeneous(ControlPair(d, zero_q), stepper)
        return data.M1 * d + solve_adjoint_homogeneous(du, stepper).slices[:-1]

    shape = (grid.n_steps, ops.n_nodes)
    r = -solve_at(np.zeros(shape))[-1]
    grad_norm0 = math.sqrt(max(inner(r, r), 0.0))
    threshold = tol * (1.0 + grad_norm0)
    history = [(0, grad_norm0)]
    g = np.zeros(shape)
    rr = inner(r, r)
    d = None
    iterations = 0
    while math.sqrt(max(rr, 0.0)) > threshold and iterations < max_iter:
        d = r if d is None else r + (rr / rr_old) * d
        z = hessian(d)
        step = rr / inner(d, z)
        g = g + step * d
        r = r - step * z
        rr, rr_old = inner(r, r), rr
        iterations += 1
        history.append((iterations, math.sqrt(max(rr, 0.0))))

    ctrl, u, p, final_grad = solve_at(g)
    grad_norm = math.sqrt(max(inner(final_grad, final_grad), 0.0))
    return OptimalityReport(
        control=ctrl, state=u, adjoint=p,
        cost=cost_J(data, ctrl, stepper, u=u),
        grad_norm=grad_norm, grad_norm0=grad_norm0, iterations=iterations,
        solver="cg", converged=grad_norm <= threshold, tol=tol, history=history,
    )


# -- shared instance builders ----------------------------------------------------

def make_instance(nx=2, ny=2, n_steps=2, seed=0, M1=1.0, M2=1.0,
                  gamma1="left", zero_data=False, T=1.0):
    """A small problem instance with random data (or all-zero data)."""
    mesh = build_rect_mesh(nx, ny, gamma1)
    ops = assemble(mesh)
    grid = TimeGrid(T, n_steps)
    n = ops.n_nodes
    rng = np.random.default_rng(seed)
    if zero_data:
        b = np.zeros(len(ops.dirichlet_nodes))
        v_b = np.zeros(n)
        z_d = np.zeros((n_steps, n))
    else:
        b = rng.standard_normal(len(ops.dirichlet_nodes))
        v_b = rng.standard_normal(n)
        v_b[ops.dirichlet_nodes] = b
        z_d = rng.standard_normal((n_steps, n))
    data = ProblemData(ops=ops, b=b, v_b=v_b, z_d=z_d, M1=M1, M2=M2, grid=grid)
    return ops, data


def random_control(ops, grid, rng, scale=1.0):
    return ControlPair(
        scale * rng.standard_normal((grid.n_steps, ops.n_nodes)),
        scale * rng.standard_normal((grid.n_steps, len(ops.gamma2_nodes))),
    )


def default_instance(seed=42):
    """The desk-scale reference instance: 16x16 mesh, 32 steps, bump target."""
    mesh = build_rect_mesh(16, 16, "left")
    ops = assemble(mesh)
    grid = TimeGrid(1.0, 32)
    n = ops.n_nodes
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    z_node = np.exp(-((x - 0.7) ** 2 + (y - 0.5) ** 2) / (2 * 0.15**2))
    data = ProblemData(
        ops=ops,
        b=np.zeros(len(ops.dirichlet_nodes)),
        v_b=np.zeros(n),
        z_d=np.tile(z_node, (grid.n_steps, 1)),
        M1=1.0,
        M2=1.0,
        grid=grid,
    )
    return ops, data
