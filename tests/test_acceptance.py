"""Acceptance gate: one test (and one printed pass/fail line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from heatctrl import (ControlPair, ProblemData, Stepper, alpha_sweep,
                      compute_constants, contraction_constant, convexity_gap,
                      cost_J, gradient_J, h_inner, hq_inner, hq_norm,
                      measured_step_ratio, q_inner, solve_adjoint, solve_cg,
                      solve_distributed_only, solve_fixed_point, solve_state)
from heatctrl.cli import main
from heatctrl.state import solve_state_homogeneous

from oracles import (ALPHA, SpaceTimeSystem, default_instance, gaps,
                     make_instance, random_control)


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def small_instance(seed=1):
    return make_instance(nx=2, ny=2, n_steps=2, seed=seed)


def test_criterion_1_adjoint_identity():
    worst = 0.0
    rng = np.random.default_rng(101)
    for ops, data in (small_instance(), default_instance()):
        for variant in ("P", "Palpha"):
            stepper = Stepper(data, variant, ALPHA)
            base = random_control(ops, data.grid, rng)
            u = solve_state(base, stepper)
            p = solve_adjoint(u, stepper)
            for _ in range(20):
                d = random_control(ops, data.grid, rng)
                cu = solve_state_homogeneous(d, stepper)
                lhs = h_inner(cu[1:], u[1:] - data.z_d, ops, data.grid)
                rhs = h_inner(d.g, p[:-1], ops, data.grid) \
                    - q_inner(d.q, ops.trace2(p[:-1]), ops, data.grid)
                worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report(1, worst <= 1e-10,
           f"adjoint identity worst relative defect {worst:.3e} <= 1e-10")


def test_criterion_2_gradient_vs_finite_differences():
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(20):
        ops, data = make_instance(
            nx=2 + trial % 2, ny=2, n_steps=2 + trial % 2, seed=200 + trial,
            M1=0.4 + 0.1 * trial, M2=0.6 + 0.07 * trial)
        variant = "P" if trial % 2 == 0 else "Palpha"
        stepper = Stepper(data, variant, ALPHA)
        ctrl = random_control(ops, data.grid, rng)
        d = random_control(ops, data.grid, rng)
        d = (1.0 / hq_norm(d, ops, data.grid)) * d
        directional = hq_inner(
            gradient_J(ctrl, stepper), d, ops, data.grid)
        h = 1e-5
        fd = (cost_J(ctrl + h * d, stepper)
              - cost_J(ctrl - h * d, stepper)) / (2 * h)
        worst = max(worst, abs(directional - fd) / abs(fd))
    report(2, worst <= 1e-6,
           f"gradient vs central differences worst relative error {worst:.3e} <= 1e-6")


def test_criterion_3_convexity_identity():
    ops, data = small_instance(seed=3)
    stepper = Stepper(data, "P")
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        c1 = random_control(ops, data.grid, rng)
        c2 = random_control(ops, data.grid, rng)
        u1 = solve_state(c1, stepper)
        u2 = solve_state(c2, stepper)
        dmis = u2[1:] - u1[1:]
        for t in (0.25, 0.5, 0.75):
            gap = convexity_gap(c1, c2, t, stepper)
            expected = 0.5 * t * (1 - t) * (
                h_inner(dmis, dmis, ops, data.grid)
                + data.M1 * h_inner(c2.g - c1.g, c2.g - c1.g, ops, data.grid)
                + data.M2 * q_inner(c2.q - c1.q, c2.q - c1.q, ops, data.grid))
            worst = max(worst, abs(gap - expected) / abs(expected))
    report(3, worst <= 1e-10,
           f"convexity identity worst relative defect {worst:.3e} <= 1e-10")


def test_criterion_4_dense_kkt_oracle_equivalence():
    ops, data = small_instance(seed=4)
    worst = 0.0
    for variant in ("P", "Palpha"):
        rep = solve_cg(Stepper(data, variant, ALPHA), 1e-12)
        assert rep.converged
        oracle = SpaceTimeSystem(ops, data.grid, variant, ALPHA).kkt_optimum(data)
        worst = max(worst, hq_norm(rep.control - oracle, ops, data.grid))
    report(4, worst <= 1e-8,
           f"cg optimum vs dense normal equations, worst gap {worst:.3e} <= 1e-8")


def test_criterion_5_fixed_point_characterization():
    ops, data = small_instance(seed=5)
    consts = compute_constants(ops)
    gamma = consts["trace_norm"]
    M = (2.0 / consts["lambda0"]**2) * math.sqrt(1 + gamma**2) * (1 + gamma) / 0.7
    data = replace(data, M1=M, M2=M)
    c0 = contraction_constant(consts, M, M, "P")
    assert c0 < 0.8
    tol = 1e-11
    stepper = Stepper(data, "P")
    fp = solve_fixed_point(stepper, tol, max_iter=400)
    cg = solve_cg(stepper, tol)
    ratio = measured_step_ratio(fp.history, floor=1e-13)
    gap = hq_norm(fp.control - cg.control, ops, data.grid)
    ok = fp.converged and cg.converged and ratio <= c0 + 0.05 and gap <= 10 * tol
    report(5, ok,
           f"C0={c0:.3f}, measured ratio {ratio:.3e} <= C0+0.05, "
           f"fixed-point/cg gap {gap:.3e} <= {10 * tol:.1e}")


def test_criterion_6_alpha_convergence_on_default_instance():
    ops, data = default_instance()
    _, sweep = alpha_sweep(data, [10.0, 100.0, 1000.0, 10000.0], 1e-10)
    ok = True
    details = []
    for name in ("state_gap", "adjoint_gap", "control_gap"):
        values = gaps(sweep, name)
        dec = all(b < a for a, b in zip(values, values[1:]))
        ratio = values[-1] / values[0]
        ok = ok and dec and ratio < 0.2
        details.append(f"{name} ratio {ratio:.2e}")
    res = gaps(sweep, "boundary_residual")
    ok = ok and max(res) <= 10.0 * res[0]
    details.append(f"boundary residual max/first {max(res) / res[0]:.2f} <= 10")
    report(6, ok, "; ".join(details))


def test_criterion_7_section5_inequalities():
    # distance estimate and cost ordering on 10 random instances
    worst_gap = -np.inf
    all_ok = True
    for trial in range(10):
        ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=700 + trial,
                                  M1=0.5 + 0.15 * trial, M2=0.7 + 0.1 * trial)
        consts = compute_constants(ops)
        tol = 1e-11
        stepper = Stepper(data, "P")
        full = solve_cg(stepper, tol)
        dist = solve_distributed_only(full.control.q, stepper, tol)
        u_full = solve_state(full.control, stepper)
        u_dist = solve_state(dist.control, stepper)
        dg = dist.control.g - full.control.g
        lhs = math.sqrt(max(h_inner(dg, dg, ops, data.grid), 0.0))
        du = u_full[1:] - u_dist[1:]
        rhs = math.sqrt(max(h_inner(du, du, ops, data.grid), 0.0)) \
            / (consts["lambda0"] * data.M1)
        noise = full.grad_norm / min(data.M1, data.M2) + dist.grad_norm / data.M1
        all_ok = all_ok and lhs <= rhs + noise
        worst_gap = max(worst_gap, lhs - rhs)
        all_ok = all_ok and full.cost <= dist.cost * (1 + 1e-12) + 1e-14

    # Lipschitz bound of the fixed-point map on 50 random pairs
    ops, data = small_instance(seed=77)
    consts = compute_constants(ops)
    c0 = contraction_constant(consts, data.M1, data.M2, "P")
    stepper = Stepper(data, "P")
    rng = np.random.default_rng(107)
    worst_ratio = 0.0
    from heatctrl import apply_W
    for _ in range(50):
        a = random_control(ops, data.grid, rng)
        b = random_control(ops, data.grid, rng)
        wa = apply_W(a, stepper)
        wb = apply_W(b, stepper)
        denom = hq_norm(b - a, ops, data.grid)
        worst_ratio = max(worst_ratio, hq_norm(wb - wa, ops, data.grid) / denom)
    all_ok = all_ok and worst_ratio <= c0
    report(7, all_ok,
           f"distance estimate held on 10 instances (worst lhs-rhs {worst_gap:.3e}, "
           f"within solver noise); cost ordering held; "
           f"Lipschitz ratio {worst_ratio:.3e} <= C0={c0:.3f}")


def test_criterion_8_trivial_exactness():
    # matched target: both optimizers return the zero control at zero cost
    ops, data = small_instance(seed=8)
    stepper = Stepper(data, "P")
    u00 = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    matched = Stepper(replace(data, z_d=u00[1:].copy()), "P")
    cg = solve_cg(matched, 1e-10)
    fp = solve_fixed_point(matched, 1e-10)
    ok = (cg.cost == 0.0 and fp.cost == 0.0
          and hq_norm(cg.control, ops, data.grid) == 0.0
          and hq_norm(fp.control, ops, data.grid) == 0.0)

    # compatible-constant instance: both states identically one, zero gaps
    from heatctrl import TimeGrid, assemble, build_rect_mesh
    mesh = build_rect_mesh(3, 3, "left")
    ops_c = assemble(mesh)
    grid = TimeGrid(1.0, 4)
    data_c = ProblemData(
        ops=ops_c, b=np.ones(len(ops_c.dirichlet_nodes)), v_b=np.ones(ops_c.n_nodes),
        z_d=np.ones((4, ops_c.n_nodes)), M1=1.0, M2=1.0, grid=grid)
    zero = ControlPair.zeros_like(ops_c, grid)
    u = solve_state(zero, Stepper(data_c, "P"))
    ua = solve_state(zero, Stepper(data_c, "Palpha", 10.0))
    ok = ok and np.max(np.abs(u - 1.0)) <= 1e-12
    ok = ok and np.max(np.abs(ua - 1.0)) <= 1e-12
    alphas = [10.0, 100.0, 1000.0, 10000.0]
    fixed, opt = alpha_sweep(data_c, alphas, 1e-10)
    worst = max(
        max(gaps(fixed, "state_gap")), max(gaps(fixed, "adjoint_gap")),
        max(gaps(fixed, "boundary_residual")),
        max(gaps(opt, "state_gap")), max(gaps(opt, "control_gap")),
    )
    ok = ok and worst <= 1e-12
    report(8, ok,
           f"matched target gives zero optimum/cost; compatible constants give "
           f"stationary states and sweep gaps <= 1e-12 (worst {worst:.3e})")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"""
[mesh]
nx = 4
ny = 4
gamma1 = left
[time]
T = 1.0
n_steps = 8
[problem]
M1 = 1.0
M2 = 1.0
alpha = 10.0
alphas = [10.0, 100.0, 1000.0]
b = zero
v_b = zero
z_d = bump:0.6,0.5,0.2,1.0
[solver]
tol = 1e-10
optimizer = cg
variant = P
[output]
directory = {tmp_path / 'out'}
formats = csv,json
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    names = ("solve_report.json", "history_cg.csv", "state_cg.csv",
             "adjoint_cg.csv", "control_g_cg.csv", "control_q_cg.csv",
             "sweep.csv", "sweep_fixed.csv", "sweep_report.json")
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in names)
    report(9, identical,
           f"solve+sweep outputs bit-identical across runs ({len(names)} files)")
