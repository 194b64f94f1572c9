"""Cost functionals, gradients, optimality systems and the two optimizers.

The reduced problem over (g, q) is a strictly convex quadratic; its gradient
in the weighted control space is (M1 g + p, M2 q - p|gamma2) with p the
matching adjoint.  `solve_cg` runs conjugate gradients in that inner product
(one forward plus one backward sweep per iteration); `solve_fixed_point`
iterates the map W(g, q) = (-p/M1, p|gamma2/M2), which contracts whenever
the constant from `contraction_constant` is below one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint, solve_adjoint_homogeneous
from .assembly import ConstantsReport, DiscreteOperators
from .linalg import SolverError
from .state import (ControlPair, ProblemData, Stepper, Trajectory,
                    check_stepper, solve_state, solve_state_homogeneous)

CG_MAX_ITER = 500


@dataclass
class OptimalityReport:
    """Outcome of one optimization run.

    grad_norm is the weighted-space norm of the cost gradient re-evaluated
    from scratch at the returned control; history holds one
    (iteration, residual_norm) pair per iteration (gradient norm for cg,
    step norm for fixed_point).  The converged flag refers to the residual
    the solver controls: the gradient norm for cg, the step norm for
    fixed_point (where grad_norm <= max(M1, M2) * step norm at a fixed
    point of the map).  state and adjoint are the trajectories u and p at
    the returned control, the ones grad_norm and cost were evaluated from.
    """

    control: ControlPair
    state: Trajectory
    adjoint: Trajectory
    cost: float
    grad_norm: float
    grad_norm0: float
    iterations: int
    solver: str
    converged: bool
    tol: float
    history: list = field(default_factory=list)

    def summary_dict(self):
        return {
            "solver": self.solver,
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "cost": float(self.cost),
            "grad_norm": float(self.grad_norm),
            "grad_norm0": float(self.grad_norm0),
            "tol": float(self.tol),
        }


# -- weighted space-time inner products --------------------------------------

def h_inner(a, b, ops: DiscreteOperators, grid) -> float:
    """Inner product of two (n_steps, n_nodes) series in L2(0,T; L2(Omega))."""
    return grid.tau * float(np.sum(a * (ops.M @ b.T).T))


def q_inner(a, b, ops: DiscreteOperators, grid) -> float:
    """Inner product of two (n_steps, n_gamma2) series in L2(0,T; L2(gamma2))."""
    return grid.tau * float(np.sum(a * (ops.B2_gamma @ b.T).T))


def hq_inner(c1: ControlPair, c2: ControlPair, ops, grid) -> float:
    return h_inner(c1.g, c2.g, ops, grid) + q_inner(c1.q, c2.q, ops, grid)


def hq_norm(c: ControlPair, ops, grid) -> float:
    return math.sqrt(max(hq_inner(c, c, ops, grid), 0.0))


# -- cost, gradient, convexity ------------------------------------------------

def apply_C(data: ProblemData, ctrl: ControlPair, ops, variant,
            stepper: Stepper | None = None) -> Trajectory:
    """Linear part of the control-to-state map: u(ctrl) - u(zero controls)."""
    if stepper is None:
        stepper = Stepper(ops, data.grid, variant, data.alpha)
    check_stepper(stepper, variant, data.alpha if variant == "Palpha" else None)
    return solve_state_homogeneous(ctrl, stepper)


def cost_J(data: ProblemData, ctrl: ControlPair, ops, variant,
           stepper=None, u: Trajectory | None = None) -> float:
    """Quadratic tracking cost with control penalties (always >= 0)."""
    if u is None:
        u = solve_state(data, ctrl, ops, variant, stepper)
    mis = u.slices[1:] - data.z_d
    track = 0.5 * h_inner(mis, mis, ops, data.grid)
    pen_g = 0.5 * data.M1 * h_inner(ctrl.g, ctrl.g, ops, data.grid)
    pen_q = 0.5 * data.M2 * q_inner(ctrl.q, ctrl.q, ops, data.grid)
    return track + pen_g + pen_q


def gradient_J(data: ProblemData, ctrl: ControlPair, ops, variant,
               stepper=None, u=None, p=None) -> ControlPair:
    """Weighted-space representative of the cost derivative at ctrl."""
    if u is None:
        u = solve_state(data, ctrl, ops, variant, stepper)
    if p is None:
        p = solve_adjoint(data, u, ops, variant, stepper)
    p_steps = p.slices[:-1]
    return ControlPair(
        data.M1 * ctrl.g + p_steps,
        data.M2 * ctrl.q - ops.trace2(p_steps),
    )


def convexity_gap(data: ProblemData, c1: ControlPair, c2: ControlPair, t, ops,
                  variant, stepper=None) -> float:
    """Convex-combination gap of the cost along the segment [c2, c1].

    Equals (t(1-t)/2) [ |u2-u1|^2_H + M1 |g2-g1|^2_H + M2 |q2-q1|^2_Q ]
    up to roundoff; the combination is taken as (1-t) c2 + t c1.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if stepper is None:
        stepper = Stepper(ops, data.grid, variant, data.alpha)
    j2 = cost_J(data, c2, ops, variant, stepper)
    j1 = cost_J(data, c1, ops, variant, stepper)
    blend = (1.0 - t) * c2 + t * c1
    j_blend = cost_J(data, blend, ops, variant, stepper)
    return (1.0 - t) * j2 + t * j1 - j_blend


def apply_W(data: ProblemData, ctrl: ControlPair, ops, variant,
            stepper=None, p: Trajectory | None = None) -> ControlPair:
    """Fixed-point map (-p/M1, p|gamma2/M2) built from the adjoint at ctrl."""
    if p is None:
        u = solve_state(data, ctrl, ops, variant, stepper)
        p = solve_adjoint(data, u, ops, variant, stepper)
    p_steps = p.slices[:-1]
    return ControlPair(-p_steps / data.M1, ops.trace2(p_steps) / data.M2)


def contraction_constant(constants: ConstantsReport, M1, M2, variant="P",
                         alpha=None) -> float:
    """Lipschitz bound of the fixed-point map from the discrete constants."""
    gamma = constants.trace_norm
    if variant == "P":
        lam = constants.lambda0
    elif variant == "Palpha":
        if alpha is None or alpha <= 0:
            raise ValueError(f"the Robin variant needs alpha > 0, got {alpha}")
        lam = constants.lambda1 * min(1.0, alpha)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return (2.0 / lam**2) * math.sqrt(1.0 / M1**2 + gamma**2 / M2**2) * (1.0 + gamma)


# -- optimizers ----------------------------------------------------------------

def _hessian_apply(d: ControlPair, data, ops, stepper) -> ControlPair:
    """Action of the reduced Hessian: penalty part plus adjoint of C(d)."""
    du = solve_state_homogeneous(d, stepper)
    pi = solve_adjoint_homogeneous(du, stepper)
    pi_steps = pi.slices[:-1]
    return ControlPair(
        data.M1 * d.g + pi_steps,
        data.M2 * d.q - ops.trace2(pi_steps),
    )


def _finalize(data, x, ops, variant, stepper, solver, tol, grad_norm0,
              iterations, history, converged_rule):
    u = solve_state(data, x, ops, variant, stepper)
    p = solve_adjoint(data, u, ops, variant, stepper)
    grad = gradient_J(data, x, ops, variant, stepper, u=u, p=p)
    grad_norm = hq_norm(grad, ops, data.grid)
    return OptimalityReport(
        control=x,
        state=u,
        adjoint=p,
        cost=cost_J(data, x, ops, variant, stepper, u=u),
        grad_norm=grad_norm,
        grad_norm0=grad_norm0,
        iterations=iterations,
        solver=solver,
        converged=converged_rule(grad_norm),
        tol=tol,
        history=history,
    )


def solve_cg(data: ProblemData, ops, variant, tol, max_iter=CG_MAX_ITER,
             stepper=None) -> OptimalityReport:
    """Conjugate gradients on the reduced quadratic, from zero controls.

    Stops once the gradient norm drops below tol * (1 + gradient norm at
    zero); each iteration costs one forward and one backward sweep.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if stepper is None:
        stepper = Stepper(ops, data.grid, variant, data.alpha)
    grid = data.grid
    x = ControlPair.zeros_like(ops, grid)
    r = -1.0 * gradient_J(data, x, ops, variant, stepper)
    rr = hq_inner(r, r, ops, grid)
    grad_norm0 = math.sqrt(max(rr, 0.0))
    threshold = tol * (1.0 + grad_norm0)
    history = [(0, grad_norm0)]
    converged_rule = lambda gn: gn <= threshold

    if grad_norm0 <= threshold:
        return _finalize(data, x, ops, variant, stepper, "cg", tol, grad_norm0,
                         0, history, converged_rule)

    d = r.copy()
    iterations = 0
    for it in range(1, max_iter + 1):
        z = _hessian_apply(d, data, ops, stepper)
        dz = hq_inner(d, z, ops, grid)
        if dz <= 0:
            raise SolverError(
                f"reduced Hessian lost positivity (d'Ad = {dz:.3e})", residual=dz
            )
        step = rr / dz
        x = x + step * d
        r = r - step * z
        rr_new = hq_inner(r, r, ops, grid)
        iterations = it
        history.append((it, math.sqrt(max(rr_new, 0.0))))
        if math.sqrt(max(rr_new, 0.0)) <= threshold:
            break
        d = r + (rr_new / rr) * d
        rr = rr_new
    return _finalize(data, x, ops, variant, stepper, "cg", tol, grad_norm0,
                     iterations, history, converged_rule)


def solve_fixed_point(data: ProblemData, ops, variant, tol, max_iter=200,
                      stepper=None) -> OptimalityReport:
    """Iterate the fixed-point map from zero controls.

    Succeeds when the weighted step norm drops below tol; hitting the
    iteration cap is reported (converged=False), not raised, because
    divergence is the documented behavior whenever the contraction constant
    is not below one.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if stepper is None:
        stepper = Stepper(ops, data.grid, variant, data.alpha)
    grid = data.grid
    x = ControlPair.zeros_like(ops, grid)
    grad_norm0 = hq_norm(gradient_J(data, x, ops, variant, stepper), ops, grid)
    history = []
    converged = False
    iterations = 0
    for it in range(1, max_iter + 1):
        w = apply_W(data, x, ops, variant, stepper)
        step_norm = hq_norm(w - x, ops, grid)
        history.append((it, step_norm))
        if not math.isfinite(step_norm):
            break  # diverged past floating-point range; keep the last finite iterate
        x = w
        iterations = it
        if step_norm <= tol:
            converged = True
            break
    return _finalize(data, x, ops, variant, stepper, "fixed_point", tol,
                     grad_norm0, iterations, history, lambda gn: converged)


def measured_step_ratio(history, floor=0.0) -> float:
    """Largest ratio of consecutive step norms in a fixed-point history.

    Steps at or below `floor` are skipped so roundoff-sized final steps do
    not pollute the estimate; returns nan when fewer than two usable steps.
    """
    norms = [h[1] for h in history]
    ratios = [
        b / a for a, b in zip(norms, norms[1:]) if a > floor and b > floor
    ]
    return max(ratios) if ratios else float("nan")


def solve_distributed_only(data: ProblemData, q_fixed: np.ndarray, ops, variant,
                           tol, max_iter=CG_MAX_ITER, stepper=None) -> OptimalityReport:
    """Minimize over the distributed control only, with the flux held fixed.

    The reported cost includes the constant (M2/2)|q_fixed|^2 term, so it is
    directly comparable with the simultaneous problem's optimum.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if stepper is None:
        stepper = Stepper(ops, data.grid, variant, data.alpha)
    grid = data.grid
    n_steps = grid.n_steps
    q_fixed = np.asarray(q_fixed, dtype=float)
    if q_fixed.shape != (n_steps, len(ops.gamma2_nodes)):
        raise ValueError(
            f"q_fixed must have shape ({n_steps}, {len(ops.gamma2_nodes)}), "
            f"got {q_fixed.shape}"
        )

    def grad_g(g):
        ctrl = ControlPair(g, q_fixed)
        u = solve_state(data, ctrl, ops, variant, stepper)
        p = solve_adjoint(data, u, ops, variant, stepper)
        return data.M1 * g + p.slices[:-1]

    def hess_g(d):
        du = solve_state_homogeneous(ControlPair(d, np.zeros_like(q_fixed)), stepper)
        pi = solve_adjoint_homogeneous(du, stepper)
        return data.M1 * d + pi.slices[:-1]

    g = np.zeros((n_steps, ops.n_nodes))
    r = -grad_g(g)
    rr = h_inner(r, r, ops, grid)
    grad_norm0 = math.sqrt(max(rr, 0.0))
    threshold = tol * (1.0 + grad_norm0)
    history = [(0, grad_norm0)]
    iterations = 0
    if grad_norm0 > threshold:
        d = r.copy()
        for it in range(1, max_iter + 1):
            z = hess_g(d)
            dz = h_inner(d, z, ops, grid)
            if dz <= 0:
                raise SolverError(
                    f"reduced Hessian lost positivity (d'Ad = {dz:.3e})", residual=dz
                )
            step = rr / dz
            g = g + step * d
            r = r - step * z
            rr_new = h_inner(r, r, ops, grid)
            iterations = it
            history.append((it, math.sqrt(max(rr_new, 0.0))))
            if math.sqrt(max(rr_new, 0.0)) <= threshold:
                break
            d = r + (rr_new / rr) * d
            rr = rr_new

    ctrl = ControlPair(g, q_fixed.copy())
    u = solve_state(data, ctrl, ops, variant, stepper)
    p = solve_adjoint(data, u, ops, variant, stepper)
    final_grad = data.M1 * g + p.slices[:-1]
    grad_norm = math.sqrt(max(h_inner(final_grad, final_grad, ops, grid), 0.0))
    return OptimalityReport(
        control=ctrl,
        state=u,
        adjoint=p,
        cost=cost_J(data, ctrl, ops, variant, stepper, u=u),
        grad_norm=grad_norm,
        grad_norm0=grad_norm0,
        iterations=iterations,
        solver="cg",
        converged=grad_norm <= threshold,
        tol=tol,
        history=history,
    )
