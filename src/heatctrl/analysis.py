"""Robin-coefficient sweeps and the check suite of `heatctrl check`.

The sweeps quantify how the Robin system approaches the pinned system as the
exchange coefficient grows: trajectory gaps are measured in the discrete
L2-in-time H1-in-space norm sqrt(tau * sum d' (K+M) d), control gaps in the
weighted control norm, and the penalized boundary mismatch as
sqrt(alpha - 1) * |u_alpha - b|_{L2(L2(gamma1))}.
"""

import functools
import math

import numpy as np

from .assembly import compute_constants
from .control import (CG_MAX_ITER, _coercivity, _convexity_gap, _cost, _pair,
                      _series_inner, apply_W, contraction_constant, cost_J,
                      gradient_J, h_inner, hq_inner, hq_norm, q_inner, solve_cg,
                      solve_distributed_only, solve_fixed_point)
from .linalg import SolverError, _count, _real
from .shares import _fork_map
from .state import (VARIANTS, ControlPair, ProblemData, Stepper, solve_state,
                    solve_state_homogeneous)


def check_alphas(alphas):
    """The sweep coefficients as floats: nonempty, each in (1, inf), strictly increasing."""
    alphas = list(alphas)
    if not alphas:
        raise ValueError("a sweep needs at least one coefficient")
    try:
        alphas = [_real("alpha", a, 1.0) for a in alphas]
    except ValueError:
        raise ValueError(f"sweep coefficients must all exceed 1, got {alphas}") from None
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"sweep coefficients must be strictly increasing, got {alphas}")
    return alphas


def l2v_series_norm(series, ops, grid) -> float:
    """Discrete L2(0,T; H1) norm of an (n_steps, n_nodes) slice series."""
    return math.sqrt(max(_series_inner(series, series, ops.K + ops.M, grid.tau), 0.0))


def boundary_residual_norm(ua, b, alpha, ops, grid) -> float:
    """sqrt(alpha - 1) times the gamma1 mismatch of a Robin trajectory."""
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = b
    diff = ua[1:] - b_ext
    sq = _series_inner(diff, diff, ops.B1, grid.tau)
    return math.sqrt(max((alpha - 1.0) * sq, 0.0))


def alpha_sweep(data: ProblemData, alphas, tol, max_iter=CG_MAX_ITER):
    """The fixed-control and the optimal-control sweep, both from zero controls.

    Both measure gaps against the pinned system: of the states and adjoints
    at zero controls, and of the per-alpha optima.  Each operator, the
    pinned one and then the Robin one at each alpha, is factorized once and
    gets one state/adjoint pass at zero controls, which gives its
    fixed-control record and starts its CG solve.  The pinned operator is
    solved first, in this process; the alphas are then spread over the CPUs
    this process may use (shares._fork_map), and the reports do not depend on
    how many there are.  Returns the fixed-control and the optimal-control
    report, each {"alphas", "records", "reference"}: a record holds alpha,
    state_gap, adjoint_gap and boundary_residual, and the optimal-control
    report adds control_gap and cost_alpha to each record and the pinned
    optimum's cost, grad_norm and iterations to its reference {"problem": "P"}.
    """
    alphas = check_alphas(alphas)
    ops, grid = data.ops, data.grid
    # one pair for every job, made before the first: made in each job, it
    # raised the peak RSS of a 64x64 sweep by about 2 MiB
    zero = ControlPair.zeros_like(ops, grid)
    (u_ref, p_ref), ref = _operator_pass(data, zero, None, tol, max_iter,
                                         lambda u, p: (u, p))

    def record(alpha, u, p, u0, p0):
        # the entries both kinds of record share: u, p at alpha against u0, p0
        return {
            "alpha": alpha,
            "state_gap": l2v_series_norm(u[1:] - u0[1:], ops, grid),
            "adjoint_gap": l2v_series_norm(p[:-1] - p0[:-1], ops, grid),
            "boundary_residual": boundary_residual_norm(u, data.b, alpha, ops, grid),
        }

    def records(alpha):
        fixed, rep = _operator_pass(data, zero, alpha, tol, max_iter,
                                    lambda u, p: record(alpha, u, p, u_ref, p_ref))
        optimal = record(alpha, rep.state, rep.adjoint, ref.state, ref.adjoint)
        optimal["control_gap"] = hq_norm(rep.control - ref.control, ops, grid)
        optimal["cost_alpha"] = rep.cost
        return fixed, optimal

    fixed, optimal = zip(*_fork_map(records, alphas))
    reference = {"problem": "P", "cost": ref.cost, "grad_norm": ref.grad_norm,
                 "iterations": ref.iterations}
    return ({"alphas": list(alphas), "records": list(fixed),
             "reference": {"problem": "P"}},
            {"alphas": list(alphas), "records": list(optimal), "reference": reference})


def _operator_pass(data, zero, alpha, tol, max_iter, fixed_record):
    """fixed_record(u, p) of the state and adjoint at the zero controls and
    the CG optimum that adjoint starts, for the pinned operator (alpha None)
    or the Robin one at alpha; the factorization dies with the call."""
    stepper = Stepper(data, "P" if alpha is None else "Palpha", alpha)
    u, p = _pair(zero, stepper)
    fixed = fixed_record(u, p)
    del u  # only the adjoint starts CG
    rep = solve_cg(stepper, tol, max_iter=max_iter, _start_adjoint=p)
    return fixed, _converged(rep, stepper)


def _converged(rep, stepper, problem=""):
    """rep, or a SolverError naming the problem, the variant and its alpha,
    such as "Palpha at alpha=10.0", when that CG solve stopped short."""
    if not rep.converged:
        at = "" if stepper.alpha is None else f" at alpha={stepper.alpha}"
        raise SolverError(f"inner solve for {problem}{stepper.variant}{at} stopped at "
                          f"grad_norm={rep.grad_norm:.3e} after {rep.iterations} iterations")
    return rep


# relative distance of the last sweep optimum's cost from the pinned one
COST_TOLERANCE = 0.05
# random control pairs each estimate group samples the fixed-point map at
LIPSCHITZ_PAIRS = 10


def sweep_flags(report: dict) -> dict:
    """Pass/fail flags of the convergence trends in a report of alpha_sweep.

    Checks strict decay of each recorded gap, the 10x boundedness of the
    penalized boundary mismatch against its value at the smallest
    coefficient, and, for an optimal-control report (its records hold
    "control_gap"), that the final cost lands within COST_TOLERANCE of the
    pinned optimum's cost.
    """
    flags = {}
    records = report["records"]
    _count("the number of records", len(records))
    column = {name: [r[name] for r in records] for name in records[0]}

    def decreasing(values):
        # an already-converged (all-zero) sequence has nothing left to decay
        if max(values) <= 1e-12:
            return True
        return all(b < a for a, b in zip(values, values[1:]))

    flags["state_gap_decreasing"] = decreasing(column["state_gap"])
    flags["adjoint_gap_decreasing"] = decreasing(column["adjoint_gap"])
    res = column["boundary_residual"]
    flags["boundary_residual_bounded"] = (
        max(res) <= 10.0 * res[0] + 1e-30 or max(res) <= 1e-12
    )
    if "control_gap" in column:
        flags["control_gap_decreasing"] = decreasing(column["control_gap"])
        ref_cost = report["reference"]["cost"]
        flags["cost_chain"] = (
            abs(column["cost_alpha"][-1] - ref_cost)
            <= COST_TOLERANCE * abs(ref_cost) + 1e-15
        )
    return flags


def check_suite(data: ProblemData, alpha, variant, tol, max_iter=CG_MAX_ITER,
                fixed_point=False) -> list:
    """Every check of `heatctrl check`, as {name, measured, bound, passed} records.

    Three groups of checks, which share only read-only inputs.  The
    identities, on random controls drawn from a generator seeded 7: the
    adjoint identity for both variants, then the gradient against central
    differences and the convexity identity for `variant`.  Then the
    estimates for the pinned and for the Robin variant at alpha: the
    simultaneous optimum against the distributed-only optimum with its flux
    frozen (distance estimate and cost ordering), and the measured Lipschitz
    ratio of the fixed-point map over LIPSCHITZ_PAIRS random control pairs
    from the group's own generator seeded 20240 (the same pairs for both
    variants) against its computed bound.  Either CG solve of an estimate
    group that stops short of tol raises a SolverError.  With
    fixed_point, the group of `variant` runs the fixed point too, whose
    record comes last: its iterate must match the group's CG optimum, or
    its divergence must agree with a contraction constant of at least one.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    _real("alpha", alpha, 1.0)
    ops, grid = data.ops, data.grid
    steppers = {"P": Stepper(data, "P"), "Palpha": Stepper(data, "Palpha", alpha)}
    stepper = steppers[variant]

    def finite(name, quantity, value):
        """value, or a failure naming the check and its quantity out of float range."""
        if not math.isfinite(value):
            raise SolverError(f"check {name}: {quantity} is {value} at M1 = {data.M1:g}, "
                              f"M2 = {data.M2:g}, beyond the float range")
        return value

    def record(name, measured, bound, passed):
        return {"name": name,
                "measured": float(finite(name, "the measured value", measured)),
                "bound": float(finite(name, "the bound", bound)), "passed": bool(passed)}

    # every worst-of-samples check: np.maximum, unlike max, keeps a NaN
    # sample, so that finite() refuses it
    def worst(name, samples, bound):
        measured = functools.reduce(np.maximum, samples, 0.0)
        return record(name, measured, bound, measured <= bound)

    def random_ctrl(rng):
        return ControlPair(rng.standard_normal((grid.n_steps, ops.n_nodes)),
                           rng.standard_normal((grid.n_steps, len(ops.gamma2_nodes))))

    def adjoint_samples(rng, s):
        u, p = _pair(random_ctrl(rng), s)
        for _ in range(5):
            d = random_ctrl(rng)
            cu = solve_state_homogeneous(d, s)
            lhs = h_inner(cu[1:], u[1:] - data.z_d, ops, grid)
            rhs = h_inner(d.g, p[:-1], ops, grid) \
                - q_inner(d.q, ops.trace2(p[:-1]), ops, grid)
            yield abs(lhs - rhs) / (1.0 + abs(lhs))

    def gradient_samples(rng, h=1e-5):
        for _ in range(5):
            ctrl, d = random_ctrl(rng), random_ctrl(rng)
            d = (1.0 / hq_norm(d, ops, grid)) * d
            directional = hq_inner(gradient_J(ctrl, stepper), d, ops, grid)
            fd = (cost_J(ctrl + h * d, stepper) - cost_J(ctrl - h * d, stepper)) / (2.0 * h)
            yield abs(directional - fd) / max(abs(fd), 1e-300)

    def convexity_samples(rng):
        for _ in range(3):
            c1, c2 = random_ctrl(rng), random_ctrl(rng)
            u1, u2 = solve_state(c1, stepper), solve_state(c2, stepper)
            j1, j2 = _cost(data, c1, u1), _cost(data, c2, u2)
            dmis = u2[1:] - u1[1:]
            spread = (h_inner(dmis, dmis, ops, grid)
                      + data.M1 * h_inner(c2.g - c1.g, c2.g - c1.g, ops, grid)
                      + data.M2 * q_inner(c2.q - c1.q, c2.q - c1.q, ops, grid))
            for t in (0.25, 0.5, 0.75):
                gap = _convexity_gap(c1, c2, t, stepper, j1, j2)
                expect = 0.5 * t * (1.0 - t) * spread
                yield abs(gap - expect) / max(abs(expect), 1e-300)

    def lipschitz_samples(rng, s):
        for _ in range(LIPSCHITZ_PAIRS):
            c_a, c_b = random_ctrl(rng), random_ctrl(rng)
            wa, wb = apply_W(c_a, s), apply_W(c_b, s)
            yield hq_norm(wb - wa, ops, grid) / hq_norm(c_b - c_a, ops, grid)

    def identity_checks():
        rng = np.random.default_rng(7)
        adjoint = [worst(f"adjoint_identity_{name}", adjoint_samples(rng, s), 1e-10)
                   for name, s in steppers.items()]
        return adjoint + [worst("gradient_finite_difference", gradient_samples(rng), 1e-6),
                          worst("convexity_identity", convexity_samples(rng), 1e-10)]

    def estimate_checks(name, constants, run_fixed_point):
        """One variant's estimate records, and its fixed-point records or []."""
        s = steppers[name]
        suffix = "" if name == "P" else "_alpha"
        full = _converged(solve_cg(s, tol, max_iter=max_iter), s)
        dist = solve_distributed_only(full.control.q, s, tol, max_iter=max_iter)
        _converged(dist, s, "distributed-only ")

        dg = dist.control.g - full.control.g
        lhs = math.sqrt(max(h_inner(dg, dg, ops, grid), 0.0))
        du = full.state[1:] - dist.state[1:]
        weight = _coercivity(constants, name, s.alpha) * data.M1
        rhs = math.sqrt(max(h_inner(du, du, ops, grid), 0.0)) / weight
        # With the flux frozen at the simultaneous optimum the two optima
        # coincide exactly, so both sides are solver noise; the gradient
        # residuals over the penalty weights certify that noise level.
        noise = full.grad_norm / min(data.M1, data.M2) + dist.grad_norm / data.M1
        threshold = rhs * (1.0 + 1e-9) + noise + 1e-14
        records = [
            record(f"distributed_distance_estimate{suffix}", lhs, threshold,
                   lhs <= threshold),
            # the simultaneous optimum cannot exceed the frozen-flux optimum
            record(f"cost_ordering{suffix}", full.cost, dist.cost,
                   full.cost <= dist.cost * (1.0 + 1e-12) + 1e-14)]
        optimum = full.control
        del full, dist, dg, du  # the samples need neither solve's trajectories
        # checked before the samples, whose squared norms overflow with it
        c0 = finite(f"fixed_point_lipschitz{suffix}", "the contraction bound C0",
                    contraction_constant(constants, data.M1, data.M2, name, s.alpha))
        records.append(worst(f"fixed_point_lipschitz{suffix}",
                             lipschitz_samples(np.random.default_rng(20240), s), c0))
        if not run_fixed_point:
            return records, []
        fp = solve_fixed_point(s, tol, max_iter=max_iter)
        if not fp.converged:
            # divergence is the documented outcome when the bound is not a
            # contraction, so it only fails this check when C0 < 1
            return records, [record("fixed_point_divergence_consistent", c0, 1.0, c0 >= 1.0)]
        gap = hq_norm(fp.control - optimum, ops, grid)
        return records, [record("fixed_point_vs_cg", gap, 10.0 * tol, gap <= 10.0 * tol)]

    checks = identity_checks()
    constants = compute_constants(ops)
    fixed_point_records = []  # they follow both groups' estimates
    for name in steppers:
        records, fixed = estimate_checks(name, constants, fixed_point and name == variant)
        checks += records
        fixed_point_records += fixed
    return checks + fixed_point_records
