"""Robin-coefficient sweeps and the check suite of `heatctrl check`.

The sweeps quantify how the Robin system approaches the pinned system as the
exchange coefficient grows: trajectory gaps are measured in the discrete
L2-in-time H1-in-space norm sqrt(tau * sum d' (K+M) d), control gaps in the
weighted control norm, and the penalized boundary mismatch as
sqrt(alpha - 1) * |u_alpha - b|_{L2(L2(gamma1))}.
"""

import math
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .assembly import compute_constants
from .control import (CG_MAX_ITER, _coercivity, _cost, _series_inner, apply_W,
                      contraction_constant, cost_J, gradient_J, h_inner,
                      hq_inner, hq_norm, q_inner, solve_cg,
                      solve_distributed_only, solve_fixed_point)
from .linalg import SolverError
from .state import (ControlPair, ProblemData, Stepper, solve_state,
                    solve_state_homogeneous)


class SolverNotConverged(RuntimeError):
    """An inner optimization of a sweep stopped short of its tolerance."""

    def __init__(self, label, report):
        super().__init__(
            f"inner solve for {label} stopped at grad_norm={report.grad_norm:.3e} "
            f"after {report.iterations} iterations"
        )
        self.label = label
        self.report = report

    def __reduce__(self):
        # args hold only the message; a sweep worker pickles the whole failure
        return type(self), (self.label, self.report)


@dataclass
class SweepRecord:
    alpha: float
    state_gap: float
    adjoint_gap: float
    boundary_residual: float
    control_gap: float | None = None
    cost_alpha: float | None = None

    def to_dict(self):
        out = {
            "alpha": self.alpha,
            "state_gap": self.state_gap,
            "adjoint_gap": self.adjoint_gap,
            "boundary_residual": self.boundary_residual,
        }
        if self.control_gap is not None:
            out["control_gap"] = self.control_gap
        if self.cost_alpha is not None:
            out["cost_alpha"] = self.cost_alpha
        return out


@dataclass
class SweepReport:
    alphas: list
    records: list
    reference: dict = field(default_factory=dict)

    def gaps(self, name):
        return [getattr(r, name) for r in self.records]

    def to_dict(self):
        return {
            "alphas": list(self.alphas),
            "records": [r.to_dict() for r in self.records],
            "reference": dict(self.reference),
        }


def check_alphas(alphas):
    """The sweep coefficients as floats: nonempty, finite, > 1, strictly increasing."""
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValueError("a sweep needs at least one coefficient")
    if not all(math.isfinite(a) for a in alphas):
        raise ValueError(f"sweep coefficients must be finite, got {alphas}")
    if any(a <= 1.0 for a in alphas):
        raise ValueError(f"sweep coefficients must all exceed 1, got {alphas}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"sweep coefficients must be strictly increasing, got {alphas}")
    return alphas


def l2v_series_norm(series, ops, grid) -> float:
    """Discrete L2(0,T; H1) norm of an (n_steps, n_nodes) slice series."""
    return math.sqrt(max(_series_inner(series, series, ops.K + ops.M, grid.tau), 0.0))


def state_gap_norm(ua, u, ops, grid) -> float:
    return l2v_series_norm(ua[1:] - u[1:], ops, grid)


def adjoint_gap_norm(pa, p, ops, grid) -> float:
    return l2v_series_norm(pa[:-1] - p[:-1], ops, grid)


def boundary_residual_norm(ua, b, alpha, ops, grid) -> float:
    """sqrt(alpha - 1) times the gamma1 mismatch of a Robin trajectory."""
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = b
    diff = ua[1:] - b_ext
    sq = _series_inner(diff, diff, ops.B1, grid.tau)
    return math.sqrt(max((alpha - 1.0) * sq, 0.0))


def alpha_sweep(data: ProblemData, alphas, ctrl: ControlPair, tol=None,
                max_iter=CG_MAX_ITER):
    """The fixed-control sweep at ctrl and, given tol, the optimal-control sweep.

    Both measure gaps against the pinned system: of the states and adjoints
    at ctrl, and of the per-alpha optima.  Each operator, the pinned one and
    then the Robin one at each alpha, is factorized once and gets one
    state/adjoint pass at ctrl, which gives its fixed-control record and,
    given tol, starts its CG solve, so ctrl must then be zero controls.  The
    pinned operator is solved first, in this process; the alphas are then
    spread over the CPUs this process may use (see _fork_map), and the
    reports do not depend on how many there are.  Returns the fixed-control
    report and the optimal-control report (None without tol).
    """
    alphas = check_alphas(alphas)
    if tol is not None and (np.any(ctrl.g) or np.any(ctrl.q)):
        raise ValueError("an optimal-control sweep (tol given) starts each CG solve "
                         "from its pass at ctrl, so ctrl must be zero controls")
    ops, grid = data.ops, data.grid
    u_ref, p_ref, ref = _operator_pass(data, ctrl, None, tol, max_iter)

    def records(alpha):
        u, p, rep = _operator_pass(data, ctrl, alpha, tol, max_iter)
        fixed = SweepRecord(
            alpha=alpha,
            state_gap=state_gap_norm(u, u_ref, ops, grid),
            adjoint_gap=adjoint_gap_norm(p, p_ref, ops, grid),
            boundary_residual=boundary_residual_norm(u, data.b, alpha, ops, grid),
        )
        if rep is None:
            return fixed, None
        return fixed, SweepRecord(
            alpha=alpha,
            state_gap=state_gap_norm(rep.state, ref.state, ops, grid),
            adjoint_gap=adjoint_gap_norm(rep.adjoint, ref.adjoint, ops, grid),
            boundary_residual=boundary_residual_norm(rep.state, data.b, alpha,
                                                     ops, grid),
            control_gap=hq_norm(rep.control - ref.control, ops, grid),
            cost_alpha=rep.cost,
        )

    fixed, optimal = zip(*_fork_map(records, alphas))
    fixed_report = SweepReport(alphas=alphas, records=list(fixed),
                               reference={"problem": "P"})
    if tol is None:
        return fixed_report, None
    reference = {
        "problem": "P",
        "cost": ref.cost,
        "grad_norm": ref.grad_norm,
        "iterations": ref.iterations,
    }
    return fixed_report, SweepReport(alphas=alphas, records=list(optimal),
                                     reference=reference)


def _operator_pass(data, ctrl, alpha, tol, max_iter):
    """(u, p) at ctrl and, given tol, the CG optimum, for the pinned operator
    (alpha None) or the Robin one at alpha; the factorization dies with the call."""
    stepper = Stepper(data.ops, data.grid, "P" if alpha is None else "Palpha", alpha)
    u = solve_state(data, ctrl, stepper)
    p = solve_adjoint(data, u, stepper)
    if tol is None:
        return u, p, None
    rep = solve_cg(data, stepper, tol, max_iter=max_iter, _start_pass=(u, p))
    if not rep.converged:
        label = "P" if alpha is None else f"Palpha at alpha={alpha}"
        raise SolverNotConverged(label, rep)
    return u, p, rep


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_map(fn, items):
    """[fn(item) for item in items], item i computed in process i % n.

    n is the number of CPUs this process may use, capped at len(items).
    Process 0 is this one; the others are forked children, which pickle
    their results back over a pipe and leave through os._exit.  With n = 1
    nothing is forked.  Each process stops at its first exception; once
    every pipe is read and every child reaped, the first failure in item
    order is raised.  A child that dies without a result is a SolverError
    naming its items.
    """
    n = min(len(items), _usable_cpus()) if hasattr(os, "fork") else 1
    parent = os.getpid()
    # a child must not write out what this process has buffered
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    for rank in range(1, n):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                payload = pickle.dumps(_share(fn, items, rank, n, parent))
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(payload)
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        children.append((pid, read_end))
    payloads, codes = [], [0]
    try:
        outcomes = _share(fn, items, 0, n, parent)
    finally:
        for pid, read_end in children:
            with os.fdopen(read_end, "rb") as pipe:
                payloads.append(pipe.read())
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for payload in payloads:
        if payload:
            outcomes.update(pickle.loads(payload))
    results = []
    for i in range(len(items)):
        # a share ends at its first failure, which precedes its missing items
        if i not in outcomes:
            raise SolverError(f"a sweep worker for {items[i::n]} exited with "
                              f"code {codes[i % n]} without a result")
        ok, value = outcomes[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _share(fn, items, rank, n, parent):
    """{i: (True, fn(items[i])) or (False, exception)} for i = rank, rank + n, ...

    Stops after the first exception.  A child (rank > 0) whose parent has
    gone exits before its next item.
    """
    outcomes = {}
    for i in range(rank, len(items), n):
        if rank and os.getppid() != parent:
            os._exit(1)
        try:
            outcomes[i] = (True, fn(items[i]))
        except Exception as exc:
            outcomes[i] = (False, exc)
            break
    return outcomes


# relative distance of the last sweep optimum's cost from the pinned one
COST_TOLERANCE = 0.05


def sweep_flags(report: SweepReport) -> dict:
    """Pass/fail flags of the convergence trends in a sweep report.

    Checks strict decay of each recorded gap, the 10x boundedness of the
    penalized boundary mismatch against its value at the smallest
    coefficient, and (for optimizer sweeps) that the final cost lands within
    COST_TOLERANCE of the pinned optimum's cost.
    """
    flags = {}

    def decreasing(values):
        # an already-converged (all-zero) sequence has nothing left to decay
        if max(values) <= 1e-12:
            return True
        return all(b < a for a, b in zip(values, values[1:]))

    flags["state_gap_decreasing"] = decreasing(report.gaps("state_gap"))
    flags["adjoint_gap_decreasing"] = decreasing(report.gaps("adjoint_gap"))
    res = report.gaps("boundary_residual")
    flags["boundary_residual_bounded"] = (
        max(res) <= 10.0 * res[0] + 1e-30 or max(res) <= 1e-12
    )
    if report.records and report.records[0].control_gap is not None:
        flags["control_gap_decreasing"] = decreasing(report.gaps("control_gap"))
        ref_cost = report.reference.get("cost")
        if ref_cost is not None:
            final_cost = report.records[-1].cost_alpha
            flags["cost_chain"] = (
                abs(final_cost - ref_cost)
                <= COST_TOLERANCE * abs(ref_cost) + 1e-15
            )
    return flags


def check_suite(data: ProblemData, alpha, variant, tol, max_iter=CG_MAX_ITER,
                fixed_point=False, n_pairs=10) -> list:
    """Every check of `heatctrl check`, as {name, measured, bound, passed} records.

    The identity checks come first, on random controls drawn from a
    generator seeded 7: the adjoint identity for both variants, then the
    gradient against central differences and the convexity identity for
    `variant`.  Then, for the pinned and the Robin variant at alpha,
    the inter-problem estimates: the simultaneous optimum against the
    distributed-only optimum with its flux frozen (distance estimate and
    cost ordering), and the measured Lipschitz ratio of the fixed-point map
    over n_pairs random control pairs, drawn from a generator seeded 20240,
    against its computed bound.  With fixed_point, the fixed-point iterate
    for `variant` must match the CG optimum, or its divergence must agree
    with a contraction constant of at least one.
    """
    if alpha is None or not 1.0 < alpha < math.inf:
        raise ValueError(f"the checks need a finite alpha > 1, got {alpha}")
    ops, grid = data.ops, data.grid
    steppers = {"P": Stepper(ops, grid, "P"),
                "Palpha": Stepper(ops, grid, "Palpha", alpha)}
    stepper = steppers[variant]
    checks = []

    def add(name, measured, bound, passed):
        checks.append({
            "name": name,
            "measured": float(measured),
            "bound": float(bound),
            "passed": bool(passed),
        })

    def random_ctrl(rng):
        return ControlPair(
            rng.standard_normal((grid.n_steps, ops.n_nodes)),
            rng.standard_normal((grid.n_steps, len(ops.gamma2_nodes))),
        )

    rng = np.random.default_rng(7)
    for name, variant_stepper in steppers.items():
        base = random_ctrl(rng)
        u = solve_state(data, base, variant_stepper)
        p = solve_adjoint(data, u, variant_stepper)
        worst = 0.0
        for _ in range(5):
            d = random_ctrl(rng)
            cu = solve_state_homogeneous(d, variant_stepper)
            lhs = h_inner(cu[1:], u[1:] - data.z_d, ops, grid)
            rhs = h_inner(d.g, p[:-1], ops, grid) \
                - q_inner(d.q, ops.trace2(p[:-1]), ops, grid)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        add(f"adjoint_identity_{name}", worst, 1e-10, worst <= 1e-10)

    worst = 0.0
    for _ in range(5):
        ctrl = random_ctrl(rng)
        d = random_ctrl(rng)
        d = (1.0 / hq_norm(d, ops, grid)) * d
        grad = gradient_J(data, ctrl, stepper)
        directional = hq_inner(grad, d, ops, grid)
        h = 1e-5
        jp = cost_J(data, ctrl + h * d, stepper)
        jm = cost_J(data, ctrl - h * d, stepper)
        fd = (jp - jm) / (2.0 * h)
        worst = max(worst, abs(directional - fd) / max(abs(fd), 1e-300))
    add("gradient_finite_difference", worst, 1e-6, worst <= 1e-6)

    worst = 0.0
    for _ in range(3):
        c1, c2 = random_ctrl(rng), random_ctrl(rng)
        u1 = solve_state(data, c1, stepper)
        u2 = solve_state(data, c2, stepper)
        j1, j2 = _cost(data, c1, u1), _cost(data, c2, u2)
        for t in (0.25, 0.5, 0.75):
            # convexity_gap's formula, on the costs the states above give
            j_blend = cost_J(data, (1.0 - t) * c2 + t * c1, stepper)
            gap = (1.0 - t) * j2 + t * j1 - j_blend
            dmis = u2[1:] - u1[1:]
            expect = 0.5 * t * (1.0 - t) * (
                h_inner(dmis, dmis, ops, grid)
                + data.M1 * h_inner(c2.g - c1.g, c2.g - c1.g, ops, grid)
                + data.M2 * q_inner(c2.q - c1.q, c2.q - c1.q, ops, grid)
            )
            worst = max(worst, abs(gap - expect) / max(abs(expect), 1e-300))
    add("convexity_identity", worst, 1e-10, worst <= 1e-10)

    constants = compute_constants(ops)
    solutions = {
        name: solve_cg(data, variant_stepper, tol, max_iter=max_iter)
        for name, variant_stepper in steppers.items()
    }
    rng = np.random.default_rng(20240)
    for name, variant_stepper in steppers.items():
        lam = _coercivity(constants, name, variant_stepper.alpha)
        suffix = "" if name == "P" else "_alpha"
        full = solutions[name]
        dist = solve_distributed_only(data, full.control.q, variant_stepper, tol,
                                      max_iter=max_iter)

        dg = dist.control.g - full.control.g
        lhs = math.sqrt(max(h_inner(dg, dg, ops, grid), 0.0))
        du = full.state[1:] - dist.state[1:]
        rhs = math.sqrt(max(h_inner(du, du, ops, grid), 0.0)) / (lam * data.M1)
        # With the flux frozen at the simultaneous optimum the two optima
        # coincide exactly, so both sides are solver noise; the gradient
        # residuals over the penalty weights certify that noise level.
        noise = full.grad_norm / min(data.M1, data.M2) + dist.grad_norm / data.M1
        threshold = rhs * (1.0 + 1e-9) + noise + 1e-14
        add(f"distributed_distance_estimate{suffix}", lhs, threshold,
            lhs <= threshold)

        # the simultaneous optimum cannot exceed the frozen-flux optimum
        add(f"cost_ordering{suffix}", full.cost, dist.cost,
            full.cost <= dist.cost * (1.0 + 1e-12) + 1e-14)

        c0 = contraction_constant(constants, data.M1, data.M2, name,
                                  variant_stepper.alpha)
        worst = 0.0
        for _ in range(n_pairs):
            c_a, c_b = random_ctrl(rng), random_ctrl(rng)
            wa = apply_W(data, c_a, variant_stepper)
            wb = apply_W(data, c_b, variant_stepper)
            ratio = hq_norm(wb - wa, ops, grid) / hq_norm(c_b - c_a, ops, grid)
            worst = max(worst, ratio)
        add(f"fixed_point_lipschitz{suffix}", worst, c0, worst <= c0)

    if fixed_point:
        fp = solve_fixed_point(data, stepper, tol, max_iter=max_iter)
        if fp.converged:
            gap = hq_norm(fp.control - solutions[variant].control, ops, grid)
            add("fixed_point_vs_cg", gap, 10.0 * tol, gap <= 10.0 * tol)
        else:
            # divergence is the documented outcome when the bound is not a
            # contraction, so it only fails this check when C0 < 1
            c0 = contraction_constant(constants, data.M1, data.M2, variant,
                                      stepper.alpha)
            add("fixed_point_divergence_consistent", c0, 1.0, c0 >= 1.0)

    return checks
