"""Cost functionals, gradients, optimality systems and the two optimizers.

The reduced problem over (g, q) is a strictly convex quadratic; its gradient
in the weighted control space is (M1 g + p, M2 q - p|gamma2) with p the
matching adjoint.  `solve_cg` runs conjugate gradients in that inner product
(one forward plus one backward sweep per iteration), and
`solve_distributed_only` runs the same iteration with the flux q held fixed;
`solve_fixed_point` iterates the map W(g, q) = (-p/M1, p|gamma2/M2), which contracts whenever
the constant from `contraction_constant` is below one.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint, solve_adjoint_homogeneous
from .assembly import DiscreteOperators
from .linalg import SolverError, _check_real, _count, _quad, _real
from .state import ControlPair, Stepper, solve_state, solve_state_homogeneous

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
    state: np.ndarray
    adjoint: np.ndarray
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

def _series_inner(a, b, A, tau) -> float:
    """tau * sum_k a_k' A b_k over the slices of two (n_steps, n) series.

    Slice by slice: `A @ b.T` copies a series into the transposed layout.
    """
    total = 0.0
    for a_k, b_k in zip(a, b, strict=True):
        total += _quad(a_k, A, b_k)
    return tau * total


def h_inner(a, b, ops: DiscreteOperators, grid) -> float:
    """Inner product of two (n_steps, n_nodes) series in L2(0,T; L2(Omega))."""
    return _series_inner(a, b, ops.M, grid.tau)


def q_inner(a, b, ops: DiscreteOperators, grid) -> float:
    """Inner product of two (n_steps, n_gamma2) series in L2(0,T; L2(gamma2))."""
    return _series_inner(a, b, ops.B2_gamma, grid.tau)


def hq_inner(c1: ControlPair, c2: ControlPair, ops, grid) -> float:
    return h_inner(c1.g, c2.g, ops, grid) + q_inner(c1.q, c2.q, ops, grid)


def hq_norm(c: ControlPair, ops, grid) -> float:
    return math.sqrt(max(hq_inner(c, c, ops, grid), 0.0))


# -- cost, gradient, convexity, fixed-point map --------------------------------
#
# Each public function is the sweeps it needs plus one private formula of
# their results; the formulas run no sweep and no check, so the optimizers
# call them on the sweeps they already hold.  _convexity_gap takes the end
# costs the same way and runs only the blend's sweep.

def _cost(data, ctrl, u) -> float:
    """The cost formula for the state u at ctrl."""
    ops, grid = data.ops, data.grid
    mis = u[1:] - data.z_d
    track = 0.5 * h_inner(mis, mis, ops, grid)
    pen_g = 0.5 * data.M1 * h_inner(ctrl.g, ctrl.g, ops, grid)
    pen_q = 0.5 * data.M2 * q_inner(ctrl.q, ctrl.q, ops, grid)
    return track + pen_g + pen_q


def _gradient(data, ctrl, p, out=None) -> ControlPair:
    """The gradient formula for the adjoint p at ctrl; out, when given,
    receives its g part and may be p[:-1]: the q part reads p first, then
    each g_k = p_k + M1 c_k is formed with a one-row temporary."""
    p_steps = p[:-1]
    q = data.M2 * ctrl.q - data.ops.trace2(p_steps)
    g = np.empty(ctrl.g.shape) if out is None else out
    for g_k, p_k, c_k in zip(g, p_steps, ctrl.g):
        np.add(p_k, data.M1 * c_k, out=g_k)
    return ControlPair(g, q)


def _W(data, p) -> ControlPair:
    """The fixed-point map's formula (-p/M1, p|gamma2/M2) for the adjoint p."""
    p_steps = p[:-1]
    return ControlPair(-p_steps / data.M1, data.ops.trace2(p_steps) / data.M2)


def _pair(ctrl, stepper):
    """The state and adjoint (u, p) at ctrl: one forward and one backward sweep."""
    u = solve_state(ctrl, stepper)
    return u, solve_adjoint(u, stepper)


def cost_J(ctrl: ControlPair, stepper: Stepper) -> float:
    """Quadratic tracking cost with control penalties (always >= 0)."""
    return _cost(stepper.data, ctrl, solve_state(ctrl, stepper))


def gradient_J(ctrl: ControlPair, stepper: Stepper) -> ControlPair:
    """Weighted-space representative of the cost derivative at ctrl."""
    return _gradient(stepper.data, ctrl, _pair(ctrl, stepper)[1])


def convexity_gap(c1: ControlPair, c2: ControlPair, t, stepper: Stepper) -> float:
    """Convex-combination gap of the cost along the segment [c2, c1].

    Equals (t(1-t)/2) [ |u2-u1|^2_H + M1 |g2-g1|^2_H + M2 |q2-q1|^2_Q ]
    up to roundoff; the combination is taken as (1-t) c2 + t c1.
    """
    _real("t", t, 0.0, 1.0, closed=True)
    return _convexity_gap(c1, c2, t, stepper, cost_J(c1, stepper), cost_J(c2, stepper))


def _convexity_gap(c1, c2, t, stepper, j1, j2) -> float:
    """convexity_gap from the end costs j1 at c1 and j2 at c2: one sweep, the blend's."""
    return (1.0 - t) * j2 + t * j1 - cost_J((1.0 - t) * c2 + t * c1, stepper)


def apply_W(ctrl: ControlPair, stepper: Stepper) -> ControlPair:
    """Fixed-point map (-p/M1, p|gamma2/M2) built from the adjoint at ctrl."""
    return _W(stepper.data, _pair(ctrl, stepper)[1])


def _coercivity(constants: dict, variant, alpha) -> float:
    """Coercivity constant of the state form: lambda0 for P, lambda1 min(1, alpha)."""
    if variant == "P":
        return constants["lambda0"]
    if variant == "Palpha":
        return constants["lambda1"] * min(1.0, _real("alpha", alpha))
    raise ValueError(f"unknown variant {variant!r}")


def contraction_constant(constants: dict, M1, M2, variant="P", alpha=None) -> float:
    """Lipschitz bound of the fixed-point map from the discrete constants.

    inf when the bound is beyond the float range (tiny M1 or M2); weights
    whose squares are beyond it take the same bound in its hypot form.
    """
    _real("M1", M1)
    _real("M2", M2)
    gamma = constants["trace_norm"]
    lam = _coercivity(constants, variant, alpha)
    try:
        return (2.0 / lam**2) * math.sqrt(1.0 / M1**2 + gamma**2 / M2**2) * (1.0 + gamma)
    except ZeroDivisionError:  # a squared weight underflowed to zero
        return math.inf
    except OverflowError:  # a squared weight beyond the float range
        return (2.0 / lam**2) * math.hypot(1.0 / M1, gamma / M2) * (1.0 + gamma)


# -- optimizers ----------------------------------------------------------------

def _held(c: ControlPair, hold_q) -> ControlPair:
    """c, or c with its q part zeroed when the flux is held fixed."""
    return ControlPair(c.g, np.zeros_like(c.q)) if hold_q else c


def _hessian_apply(d: ControlPair, stepper, work) -> ControlPair:
    """Action of the reduced Hessian: the gradient formula at the linear part C(d).

    work is one (n_steps + 2, n_nodes) buffer.  The public homogeneous sweeps
    write into it: the forward sweep into work[:-1], then the backward sweep
    into work[1:], over the residual du[1:] it reads slice by slice.  The
    product's g part then overwrites p[:-1], so no sweep or formula
    allocates a trajectory.
    """
    du = solve_state_homogeneous(d, stepper, work[:-1])
    p = solve_adjoint_homogeneous(du, stepper, work[1:])
    return _gradient(stepper.data, d, p, out=p[:-1])


def _finalize(data, x, pair, solver, tol, grad_norm0, iterations, history,
              converged_rule, hold_q=False):
    """The report at the control x, whose state and adjoint are pair = (u, p)."""
    u, p = pair
    # no gradient stays alive through _cost's residual
    grad_norm = hq_norm(_held(_gradient(data, x, p), hold_q), data.ops, data.grid)
    return OptimalityReport(
        control=x,
        state=u,
        adjoint=p,
        cost=_cost(data, x, u),
        grad_norm=grad_norm,
        grad_norm0=grad_norm0,
        iterations=iterations,
        solver=solver,
        converged=converged_rule(grad_norm),
        tol=tol,
        history=history,
    )


def _reduced_cg(stepper, tol, max_iter, q_fixed=None, start_adjoint=None):
    """Conjugate gradients on the reduced quadratic, from g = 0 and q = 0 or q_fixed.

    A given q_fixed holds q there: the q parts of the gradient and of every
    Hessian product are zeroed, and the gradient norms cover g only.  Stops
    once that norm drops below tol * (1 + its value at the start).
    start_adjoint, when given, is the adjoint p at the start control, which
    then costs no sweeps.  The iterate x, the residual r, the direction d
    and one trajectory buffer of n_steps + 2 slices are allocated once:
    each Hessian product z is built in the buffer, and x, r and d are
    updated in place, so no iteration allocates a trajectory-sized array.
    """
    _real("tol", tol)
    _count("max_iter", max_iter)
    data, ops, grid = stepper.data, stepper.ops, stepper.grid
    hold_q = q_fixed is not None

    def start():
        # made afresh for each use, so no zero field stays alive through CG
        zero = ControlPair.zeros_like(ops, grid)
        return ControlPair(zero.g, q_fixed) if hold_q else zero

    p = _pair(start(), stepper)[1] if start_adjoint is None else start_adjoint
    r = -1.0 * _held(_gradient(data, start(), p), hold_q)
    # a start adjoint solved here dies now; a given one stays alive through
    # CG, held by this frame's start_adjoint and by the caller
    del p
    grad_norm0 = hq_norm(r, ops, grid)
    threshold = tol * (1.0 + grad_norm0)
    history = [(0, grad_norm0)]
    x, rr, d, z = start(), hq_inner(r, r, ops, grid), None, None
    work = np.empty((grid.n_steps + 2, ops.n_nodes))
    iterations = 0
    while math.sqrt(max(rr, 0.0)) > threshold and iterations < max_iter:
        if d is None:
            d = ControlPair(r.g.copy(), r.q.copy())
        else:
            beta = rr / rr_old
            for d_part, r_part in ((d.g, r.g), (d.q, r.q)):
                d_part *= beta
                d_part += r_part  # d = r + beta d
        z = _held(_hessian_apply(d, stepper, work), hold_q)
        dz = hq_inner(d, z, ops, grid)
        if not dz > 0:
            raise SolverError(f"reduced Hessian curvature is not finite and positive "
                              f"(d'Ad = {dz:.3e})")
        step = rr / dz
        for x_part, r_part, d_part, z_part in ((x.g, r.g, d.g, z.g),
                                               (x.q, r.q, d.q, z.q)):
            z_part *= step
            r_part -= z_part  # r = r - step z
            np.multiply(d_part, step, out=z_part)
            x_part += z_part  # x = x + step d
        rr, rr_old = hq_inner(r, r, ops, grid), rr
        iterations += 1
        history.append((iterations, math.sqrt(max(rr, 0.0))))
    del r, d, z, work  # nor does the workspace through the final pass
    # an overflowed start gradient makes the threshold inf: nothing converges
    return _finalize(data, x, _pair(x, stepper), "cg", tol, grad_norm0,
                     iterations, history, lambda gn: gn <= threshold < math.inf, hold_q)


def solve_cg(stepper: Stepper, tol, max_iter=CG_MAX_ITER, *,
             _start_adjoint=None) -> OptimalityReport:
    """Conjugate gradients on the reduced quadratic, from zero controls.

    Stops once the gradient norm drops below tol * (1 + gradient norm at
    zero); each iteration costs one forward and one backward sweep.
    _start_adjoint is for callers in this package that already hold the
    adjoint p at zero controls (the alpha sweeps); the start then costs no
    sweeps.
    """
    return _reduced_cg(stepper, tol, max_iter, start_adjoint=_start_adjoint)


def solve_fixed_point(stepper: Stepper, tol, max_iter=200) -> OptimalityReport:
    """Iterate the fixed-point map from zero controls.

    Succeeds when the weighted step norm drops below tol; hitting the
    iteration cap is reported (converged=False), not raised, because
    divergence is the documented behavior whenever the contraction constant
    is not below one.
    """
    _real("tol", tol)
    _count("max_iter", max_iter)
    data, ops, grid = stepper.data, stepper.ops, stepper.grid
    x = ControlPair.zeros_like(ops, grid)
    pair = _pair(x, stepper)  # (u, p) at x, solved once per iterate
    grad_norm0 = hq_norm(_gradient(data, x, pair[1]), ops, grid)
    history = []
    converged = False
    iterations = 0
    # a divergent run overflows on its way to the non-finite step that stops it
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            w = _W(data, pair[1])
            step_norm = hq_norm(w - x, ops, grid)
            history.append((it, step_norm))
            if not math.isfinite(step_norm):
                break  # diverged past floating-point range; keep the last finite iterate
            x, iterations = w, it
            pair = _pair(x, stepper)
            if step_norm <= tol:
                converged = True
                break
    return _finalize(data, x, pair, "fixed_point", tol, grad_norm0,
                     iterations, history, lambda gn: converged)


def measured_step_ratio(history, floor=0.0) -> float:
    """Largest ratio of consecutive step norms in a fixed-point history.

    Steps at or below `floor` are skipped so roundoff-sized final steps do
    not pollute the estimate; returns nan when fewer than two usable steps.
    """
    _real("floor", floor, -math.inf)
    norms = [h[1] for h in history]
    ratios = [b / a for a, b in zip(norms, norms[1:]) if a > floor and b > floor]
    return max(ratios) if ratios else float("nan")


def solve_distributed_only(q_fixed: np.ndarray, stepper: Stepper, tol,
                           max_iter=CG_MAX_ITER) -> OptimalityReport:
    """Minimize over the distributed control only, with the flux held fixed.

    The reported cost includes the constant (M2/2)|q_fixed|^2 term, so it is
    directly comparable with the simultaneous problem's optimum; the
    gradient norms cover the g part only.
    """
    _check_real("q_fixed", q_fixed, (stepper.grid.n_steps, len(stepper.ops.gamma2_nodes)))
    q_fixed = np.array(q_fixed, dtype=float)  # a copy: the report never aliases it
    return _reduced_cg(stepper, tol, max_iter, q_fixed)
