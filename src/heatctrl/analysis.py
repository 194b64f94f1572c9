"""Robin-coefficient sweeps and the inter-problem estimate checks.

The sweeps quantify how the Robin system approaches the pinned system as the
exchange coefficient grows: trajectory gaps are measured in the discrete
L2-in-time H1-in-space norm sqrt(tau * sum d' (K+M) d), control gaps in the
weighted control norm, and the penalized boundary mismatch as
sqrt(alpha - 1) * |u_alpha - b|_{L2(L2(gamma1))}.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .assembly import compute_constants
from .control import (CG_MAX_ITER, _coercivity, _series_inner, apply_W,
                      contraction_constant, h_inner, hq_norm, solve_cg,
                      solve_distributed_only)
from .state import ControlPair, ProblemData, Stepper, solve_state


class SolverNotConverged(RuntimeError):
    """An inner optimization of a sweep stopped short of its tolerance."""

    def __init__(self, label, report):
        super().__init__(
            f"inner solve for {label} stopped at grad_norm={report.grad_norm:.3e} "
            f"after {report.iterations} iterations"
        )
        self.report = report


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
    """The sweep coefficients as floats; they must exceed 1 and increase strictly."""
    alphas = [float(a) for a in alphas]
    if any(a <= 1.0 for a in alphas):
        raise ValueError(f"sweep coefficients must all exceed 1, got {alphas}")
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError(f"sweep coefficients must be strictly increasing, got {alphas}")
    return alphas


def l2v_series_norm(series, ops, grid) -> float:
    """Discrete L2(0,T; H1) norm of an (n_steps, n_nodes) slice series."""
    return math.sqrt(max(_series_inner(series, series, ops.K + ops.M, grid.tau), 0.0))


def state_gap_norm(ua, u, ops, grid) -> float:
    return l2v_series_norm(ua.slices[1:] - u.slices[1:], ops, grid)


def adjoint_gap_norm(pa, p, ops, grid) -> float:
    return l2v_series_norm(pa.slices[:-1] - p.slices[:-1], ops, grid)


def boundary_residual_norm(ua, b, alpha, ops, grid) -> float:
    """sqrt(alpha - 1) times the gamma1 mismatch of a Robin trajectory."""
    b_ext = np.zeros(ops.n_nodes)
    b_ext[ops.dirichlet_nodes] = b
    diff = ua.slices[1:] - b_ext
    sq = _series_inner(diff, diff, ops.B1, grid.tau)
    return math.sqrt(max((alpha - 1.0) * sq, 0.0))


def fixed_control_sweep(data: ProblemData, ctrl: ControlPair, alphas, ops) -> SweepReport:
    """State/adjoint gaps against the pinned system for one fixed control."""
    alphas = check_alphas(alphas)
    grid = data.grid
    stepper = Stepper(ops, grid, "P")
    u_ref = solve_state(data, ctrl, ops, "P", stepper)
    p_ref = solve_adjoint(data, u_ref, ops, "P", stepper)
    records = []
    for a in alphas:
        data_a = data.with_alpha(a)
        stepper = Stepper(ops, grid, "Palpha", a)
        ua = solve_state(data_a, ctrl, ops, "Palpha", stepper)
        pa = solve_adjoint(data_a, ua, ops, "Palpha", stepper)
        records.append(SweepRecord(
            alpha=a,
            state_gap=state_gap_norm(ua, u_ref, ops, grid),
            adjoint_gap=adjoint_gap_norm(pa, p_ref, ops, grid),
            boundary_residual=boundary_residual_norm(ua, data.b, a, ops, grid),
        ))
    return SweepReport(alphas=alphas, records=records, reference={"problem": "P"})


def optimal_control_sweep(data: ProblemData, alphas, ops, tol) -> SweepReport:
    """Gaps between the per-alpha optima and the pinned problem's optimum."""
    alphas = check_alphas(alphas)
    grid = data.grid
    ref = solve_cg(data, ops, "P", tol)
    if not ref.converged:
        raise SolverNotConverged("P", ref)
    records = []
    for a in alphas:
        rep = solve_cg(data.with_alpha(a), ops, "Palpha", tol)
        if not rep.converged:
            raise SolverNotConverged(f"Palpha at alpha={a}", rep)
        records.append(SweepRecord(
            alpha=a,
            state_gap=state_gap_norm(rep.state, ref.state, ops, grid),
            adjoint_gap=adjoint_gap_norm(rep.adjoint, ref.adjoint, ops, grid),
            boundary_residual=boundary_residual_norm(rep.state, data.b, a, ops, grid),
            control_gap=hq_norm(rep.control - ref.control, ops, grid),
            cost_alpha=rep.cost,
        ))
    reference = {
        "problem": "P",
        "cost": ref.cost,
        "grad_norm": ref.grad_norm,
        "iterations": ref.iterations,
    }
    return SweepReport(alphas=alphas, records=records, reference=reference)


def sweep_flags(report: SweepReport, cost_tolerance=0.05) -> dict:
    """Pass/fail flags of the convergence trends in a sweep report.

    Checks strict decay of each recorded gap, the 10x boundedness of the
    penalized boundary mismatch against its value at the smallest
    coefficient, and (for optimizer sweeps) that the final cost lands within
    cost_tolerance of the pinned optimum's cost.
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
                <= cost_tolerance * abs(ref_cost) + 1e-15
            )
    return flags


def section5_checks(data: ProblemData, ops, tol, n_pairs=50, seed=20240,
                    max_iter=CG_MAX_ITER, constants=None, steppers=None,
                    solutions=None) -> list:
    """Inter-problem estimate checks with the discrete constants.

    Solves the simultaneous problem, then the distributed-only problem with
    the optimal flux frozen, and evaluates: the distributed-control distance
    estimate, the cost-ordering remark, and the measured Lipschitz ratio of
    the fixed-point map against its computed bound.  Repeats the three checks
    for the Robin variant at data.alpha.

    A caller that already has them may pass the discrete constants, the
    steppers and the simultaneous `solve_cg` reports at tol and max_iter,
    each as a dict keyed by variant; what is not passed is computed here.
    """
    if data.alpha is None or data.alpha <= 1.0:
        raise ValueError(f"section 5 checks need alpha > 1, got {data.alpha}")
    grid = data.grid
    if constants is None:
        constants = compute_constants(ops)
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, lhs, rhs, passed, note="", threshold=None):
        checks.append({
            "name": name,
            "lhs": float(lhs),
            "rhs": float(rhs),
            "threshold": float(rhs if threshold is None else threshold),
            "passed": bool(passed),
            "note": note,
        })

    for variant in ("P", "Palpha"):
        alpha = data.alpha if variant == "Palpha" else None
        lam = _coercivity(constants, variant, alpha)
        suffix = "" if variant == "P" else "_alpha"
        stepper = steppers[variant] if steppers else Stepper(ops, grid, variant, alpha)
        full = solutions[variant] if solutions else \
            solve_cg(data, ops, variant, tol, max_iter=max_iter, stepper=stepper)
        dist = solve_distributed_only(data, full.control.q, ops, variant, tol,
                                      max_iter=max_iter, stepper=stepper)

        dg = dist.control.g - full.control.g
        lhs = math.sqrt(max(h_inner(dg, dg, ops, grid), 0.0))
        du = full.state.slices[1:] - dist.state.slices[1:]
        rhs = math.sqrt(max(h_inner(du, du, ops, grid), 0.0)) / (lam * data.M1)
        # With the flux frozen at the simultaneous optimum the two optima
        # coincide exactly, so both sides are solver noise; the gradient
        # residuals over the penalty weights certify that noise level.
        noise = full.grad_norm / min(data.M1, data.M2) + dist.grad_norm / data.M1
        threshold = rhs * (1.0 + 1e-9) + noise + 1e-14
        add(f"distributed_distance_estimate{suffix}", lhs, rhs,
            lhs <= threshold, threshold=threshold,
            note=f"coercivity constant {lam:.6g}, solver noise {noise:.3e}")

        add(f"cost_ordering{suffix}", full.cost, dist.cost,
            full.cost <= dist.cost * (1.0 + 1e-12) + 1e-14,
            note="simultaneous optimum cannot exceed the frozen-flux optimum")

        c0 = contraction_constant(constants, data.M1, data.M2, variant, alpha)
        worst = 0.0
        shape_g = (grid.n_steps, ops.n_nodes)
        shape_q = (grid.n_steps, len(ops.gamma2_nodes))
        for _ in range(n_pairs):
            c_a = ControlPair(rng.standard_normal(shape_g), rng.standard_normal(shape_q))
            c_b = ControlPair(rng.standard_normal(shape_g), rng.standard_normal(shape_q))
            wa = apply_W(data, c_a, ops, variant, stepper)
            wb = apply_W(data, c_b, ops, variant, stepper)
            denom = hq_norm(c_b - c_a, ops, grid)
            if denom > 0:
                worst = max(worst, hq_norm(wb - wa, ops, grid) / denom)
        add(f"fixed_point_lipschitz{suffix}", worst, c0, worst <= c0,
            note=f"{n_pairs} random control pairs")

    return checks
