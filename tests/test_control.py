import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial import Polynomial

from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, apply_W, assemble,
                      build_rect_mesh, compute_constants, contraction_constant,
                      convexity_gap, cost_J, gradient_J, h_inner, hq_inner,
                      hq_norm, measured_step_ratio, q_inner, solve_cg,
                      solve_distributed_only, solve_fixed_point, solve_state)

import heatctrl.adjoint
import heatctrl.control
import heatctrl.state
from heatctrl.adjoint import solve_adjoint_homogeneous
from heatctrl.analysis import _operator_pass
from heatctrl.control import (CG_MAX_ITER, _coercivity, _gradient, _held, _hessian_apply,
                              _series_inner)
from heatctrl.linalg import SolverError
from heatctrl.state import solve_state_homogeneous

from oracles import (ALPHA, SpaceTimeSystem, apply_C, distributed_only_on_g,
                     make_instance, random_control)


def matched_target(data, ops, variant="P"):
    """Replace z_d by the zero-control trajectory (making (0,0) optimal)."""
    u00 = solve_state(ControlPair.zeros_like(ops, data.grid), Stepper(data, variant, ALPHA))
    return replace(data, z_d=u00[1:].copy())


def contractive_instance(seed=50, target_c0=0.5):
    """Instance whose fixed-point map contracts at the requested bound."""
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=seed)
    consts = compute_constants(ops)
    gamma = consts["trace_norm"]
    M = (2.0 / consts["lambda0"]**2) * math.sqrt(1 + gamma**2) * (1 + gamma) / target_c0
    data = replace(data, M1=M, M2=M)
    return ops, data, consts


# -- apply_C ---------------------------------------------------------------------

def test_apply_C_zero_control():
    ops, data = make_instance(seed=1)
    du = apply_C(data, ControlPair.zeros_like(ops, data.grid), ops, "P")
    assert np.max(np.abs(du)) == 0.0


def test_apply_C_is_linear():
    ops, data = make_instance(seed=2)
    rng = np.random.default_rng(3)
    ctrl = random_control(ops, data.grid, rng)
    one = apply_C(data, ctrl, ops, "P")
    two = apply_C(data, 2.0 * ctrl, ops, "P")
    assert np.max(np.abs(two - 2.0 * one)) <= 1e-10


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_apply_C_matches_dense_map(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=4)
    rng = np.random.default_rng(5)
    ctrl = random_control(ops, data.grid, rng)
    dense = SpaceTimeSystem(ops, data.grid, variant, ALPHA).state_difference(ctrl)
    du = apply_C(data, ctrl, ops, variant)
    assert np.max(np.abs(du - dense)) <= 1e-10


# -- inner products ----------------------------------------------------------------

@pytest.mark.parametrize("name", ["M", "K+M", "B1", "B2_gamma", "nonsymmetric"])
def test_series_inner_matches_a_dense_product(name):
    ops = assemble(build_rect_mesh(5, 4, "left,bottom"))
    matrices = {
        "M": ops.M, "K+M": ops.K + ops.M, "B1": ops.B1, "B2_gamma": ops.B2_gamma,
        "nonsymmetric": sp.random(ops.n_nodes, ops.n_nodes, density=0.2,
                                  format="csr", random_state=8),
    }
    A = matrices[name]
    dense = A.toarray()
    rng = np.random.default_rng(9)
    a = rng.standard_normal((7, A.shape[0]))
    b = rng.standard_normal((7, A.shape[0]))
    tau = 0.125
    expected = tau * sum(a_k @ (dense @ b_k) for a_k, b_k in zip(a, b))
    scale = tau * sum(np.abs(a_k) @ (np.abs(dense) @ np.abs(b_k))
                      for a_k, b_k in zip(a, b))
    assert abs(_series_inner(a, b, A, tau) - expected) <= 1e-13 * scale


def test_inner_products_refuse_series_of_unequal_length():
    # a whole trajectory has one slice more than the target series
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    u = solve_state(ControlPair.zeros_like(ops, data.grid), Stepper(data, "P"))
    with pytest.raises(ValueError, match="zip"):
        h_inner(u, data.z_d, ops, data.grid)
    with pytest.raises(ValueError, match="zip"):
        h_inner(data.z_d, u, ops, data.grid)


# -- cost ------------------------------------------------------------------------

def test_cost_zero_at_exact_tracking():
    ops, data = make_instance(seed=6)
    data = matched_target(data, ops)
    stepper = Stepper(data, "P")
    assert cost_J(ControlPair.zeros_like(ops, data.grid), stepper) == 0.0


def test_cost_at_zero_controls_is_pure_misfit():
    ops, data = make_instance(seed=7)
    stepper = Stepper(data, "P")
    u00 = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    mis = u00[1:] - data.z_d
    expected = 0.5 * h_inner(mis, mis, ops, data.grid)
    got = cost_J(ControlPair.zeros_like(ops, data.grid), stepper)
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_cost_matches_quadratic_form_oracle(variant):
    # J(c) = 1/2 Pi(c,c) - L(c) + 1/2 |u00 - z_d|^2, evaluated densely
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=8)
    grid = data.grid
    sts = SpaceTimeSystem(ops, grid, variant, ALPHA)
    rng = np.random.default_rng(9)
    ctrl = random_control(ops, grid, rng)
    cu = sts.state_difference(ctrl)[1:]
    u00 = sts.state(data, ControlPair.zeros_like(ops, grid))[1:]
    base = u00 - data.z_d
    pi = h_inner(cu, cu, ops, grid) \
        + data.M1 * h_inner(ctrl.g, ctrl.g, ops, grid) \
        + data.M2 * q_inner(ctrl.q, ctrl.q, ops, grid)
    ell = h_inner(cu, -base, ops, grid)
    expected = 0.5 * pi - ell + 0.5 * h_inner(base, base, ops, grid)
    got = cost_J(ctrl, Stepper(data, variant, ALPHA))
    assert got == pytest.approx(expected, rel=1e-10)
    assert got >= 0.0


# -- gradient ----------------------------------------------------------------------

def test_gradient_zero_at_matched_target():
    ops, data = make_instance(seed=10)
    data = matched_target(data, ops)
    stepper = Stepper(data, "P")
    grad = gradient_J(ControlPair.zeros_like(ops, data.grid), stepper)
    assert hq_norm(grad, ops, data.grid) == 0.0


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        ops, data = make_instance(
            nx=2 + trial % 2, ny=2, n_steps=2 + trial % 3, seed=100 + trial,
            M1=0.5 + 0.1 * trial, M2=0.3 + 0.05 * trial,
        )
        variant = "P" if trial % 2 == 0 else "Palpha"
        stepper = Stepper(data, variant, 5.0)
        ctrl = random_control(ops, data.grid, rng)
        d = random_control(ops, data.grid, rng)
        d = (1.0 / hq_norm(d, ops, data.grid)) * d
        directional = hq_inner(
            gradient_J(ctrl, stepper), d, ops, data.grid)
        h = 1e-5
        fd = (cost_J(ctrl + h * d, stepper)
              - cost_J(ctrl - h * d, stepper)) / (2 * h)
        assert abs(directional - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_gradient_small_at_cg_optimum():
    ops, data = make_instance(seed=12)
    rep = solve_cg(Stepper(data, "P"), 1e-10)
    assert rep.converged
    assert rep.grad_norm <= 1e-10 * (1.0 + rep.grad_norm0)


def test_reported_grad_norm_matches_fresh_evaluation():
    ops, data = make_instance(seed=13)
    stepper = Stepper(data, "P")
    rep = solve_cg(stepper, 1e-10)
    fresh = hq_norm(gradient_J(rep.control, stepper), ops, data.grid)
    assert abs(fresh - rep.grad_norm) <= 1e-12 * (1.0 + fresh)


# -- convexity ---------------------------------------------------------------------

def test_convexity_gap_vanishes_at_segment_ends():
    ops, data = make_instance(seed=14)
    rng = np.random.default_rng(15)
    c1 = random_control(ops, data.grid, rng)
    c2 = random_control(ops, data.grid, rng)
    stepper = Stepper(data, "P")
    assert convexity_gap(c1, c2, 0.0, stepper) == 0.0
    for t in (0.0, 0.3, 1.0):
        assert abs(convexity_gap(c1, c1, t, stepper)) <= 1e-12


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_convexity_identity(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=16)
    grid = data.grid
    stepper = Stepper(data, variant, ALPHA)
    rng = np.random.default_rng(17)
    for _ in range(10):
        c1 = random_control(ops, grid, rng)
        c2 = random_control(ops, grid, rng)
        u1 = solve_state(c1, stepper)
        u2 = solve_state(c2, stepper)
        dmis = u2[1:] - u1[1:]
        for t in (0.25, 0.5, 0.75):
            gap = convexity_gap(c1, c2, t, stepper)
            expected = 0.5 * t * (1 - t) * (
                h_inner(dmis, dmis, ops, grid)
                + data.M1 * h_inner(c2.g - c1.g, c2.g - c1.g, ops, grid)
                + data.M2 * q_inner(c2.q - c1.q, c2.q - c1.q, ops, grid)
            )
            assert abs(gap - expected) <= 1e-10 * abs(expected)


def test_convexity_gap_rejects_bad_t():
    ops, data = make_instance(seed=18)
    zero = ControlPair.zeros_like(ops, data.grid)
    with pytest.raises(ValueError, match="t must"):
        convexity_gap(zero, zero, 1.5, Stepper(data, "P"))


# -- conjugate gradients -------------------------------------------------------------

def test_cg_trivial_optimum_zero_iterations():
    ops, data = make_instance(seed=19)
    data = matched_target(data, ops)
    rep = solve_cg(Stepper(data, "P"), 1e-10)
    assert rep.converged and rep.iterations == 0
    assert rep.cost == 0.0
    assert hq_norm(rep.control, ops, data.grid) == 0.0


@pytest.mark.parametrize("variant, solver", [
    pytest.param("P", "simultaneous", id="P"),
    pytest.param("Palpha", "simultaneous", id="Palpha"),
    pytest.param("P", "distributed_only", id="distributed_only-P"),
    pytest.param("P", "fixed_point", id="fixed_point-P"),
    pytest.param("P", "fixed_point_capped", id="fixed_point_capped-P"),
])
def test_cg_costs_two_sweeps_per_iteration_plus_four(variant, solver, monkeypatch):
    counts = {"forward": 0, "backward": 0, "factorization": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(heatctrl.state, "_forward",
                        counted("forward", heatctrl.state._forward))
    monkeypatch.setattr(heatctrl.adjoint, "_backward",
                        counted("backward", heatctrl.adjoint._backward))
    monkeypatch.setattr(heatctrl.state, "SpdFactor",
                        counted("factorization", heatctrl.state.SpdFactor))
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    if solver == "fixed_point":
        data = replace(data, M1=60.0, M2=60.0)  # large penalties make the map contract
    elif solver == "fixed_point_capped":
        data = replace(data, M1=1.0, M2=1.0)
    stepper = Stepper(data, variant, ALPHA)
    if solver == "simultaneous":
        rep = solve_cg(stepper, 1e-10)
    elif solver == "distributed_only":
        q_fixed = np.random.default_rng(22).standard_normal(
            (data.grid.n_steps, len(ops.gamma2_nodes)))
        rep = solve_distributed_only(q_fixed, stepper, 1e-10)
    elif solver == "fixed_point":
        rep = solve_fixed_point(stepper, 1e-10)
    else:
        rep = solve_fixed_point(stepper, 1e-10, max_iter=5)
        assert rep.iterations == 5
    k = rep.iterations
    assert rep.converged == (solver != "fixed_point_capped") and k > 0
    # gradient at zero, one state/adjoint pair per iteration, final report;
    # the fixed-point map takes its first step from the pair at zero, and
    # its report reuses the pair at the last iterate, capped or not
    pairs = k + 1 if solver.startswith("fixed_point") else k + 2
    assert counts == {"forward": pairs, "backward": pairs, "factorization": 1}


SOLVE_SCRIPT = """
import numpy as np
from heatctrl import (ProblemData, Stepper, TimeGrid, assemble, build_rect_mesh,
                      solve_cg)
mesh = build_rect_mesh(101, 101, "left")
ops = assemble(mesh)
grid = TimeGrid(1.0, 2)
x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
z = np.exp(-((x - 0.7) ** 2 + (y - 0.5) ** 2) / (2 * 0.15**2))
data = ProblemData(ops=ops, b=np.zeros(len(ops.dirichlet_nodes)),
                   v_b=np.zeros(ops.n_nodes), z_d=np.tile(z, (grid.n_steps, 1)),
                   M1=1.0, M2=1.0, grid=grid)
for variant in ("P", "Palpha"):
    rep = solve_cg(Stepper(data, variant, 10.0), 1e-10)
    print(rep.cost.hex(), rep.grad_norm.hex(), rep.iterations)
"""


def test_cg_does_not_depend_on_the_blas_thread_count():
    # 10404 nodes: long enough for OpenBLAS to split a dot product across
    # threads, which changes its rounding
    src = str(Path(heatctrl.__file__).resolve().parents[1])
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", SOLVE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        results.append(proc.stdout)
    assert len(results[0].splitlines()) == 2
    assert results[0] == results[1]


@pytest.mark.parametrize("variant", ["P", "Palpha"])
@pytest.mark.parametrize("hold_q", [False, True], ids=["simultaneous", "held_flux"])
def test_one_buffer_product_is_the_product_of_fresh_sweeps(variant, hold_q):
    # both sweeps and the gradient formula share one buffer of n_steps + 2
    # slices, which starts as NaN: the product must set every entry it reads
    ops, data = make_instance(nx=4, ny=3, n_steps=5, seed=75, M1=0.3, M2=2.0)
    stepper = Stepper(data, variant, ALPHA)
    d = _held(random_control(ops, data.grid, np.random.default_rng(76)), hold_q)
    work = np.full((data.grid.n_steps + 2, ops.n_nodes), np.nan)
    z = _held(_hessian_apply(d, stepper, work), hold_q)
    p = solve_adjoint_homogeneous(solve_state_homogeneous(d, stepper), stepper)
    fresh = _held(_gradient(data, d, p), hold_q)
    assert np.array_equal(z.g, fresh.g) and np.array_equal(z.q, fresh.q)


def test_cg_refuses_non_finite_curvature(monkeypatch):
    ops, data = make_instance(seed=37)
    monkeypatch.setattr(heatctrl.control, "_hessian_apply", lambda d, stepper, work:
                        ControlPair(np.full_like(d.g, np.nan), np.full_like(d.q, np.nan)))
    with pytest.raises(SolverError, match=r"curvature .*\(d'Ad = nan\)$"):
        solve_cg(Stepper(data, "P", ALPHA), 1e-10)


@pytest.mark.parametrize("solve", ["simultaneous", "distributed_only", "operator_job"])
def test_cg_keeps_no_dead_work_array(solve):
    # CG holds its iterate, residual, direction and one sweep buffer of
    # n_steps + 2 slices, and they die before the final state/adjoint pass,
    # whose adjoint overwrites its own residual: a product that allocates its
    # sweeps, a second buffer, or a workspace kept through that pass lifts
    # the peak above 4.75 trajectory arrays.  The sweep's operator job also
    # builds its stepper and keeps the zero-control adjoint p that starts CG
    # alive through the solve (as _operator_pass's p and solve_cg's
    # _start_adjoint), one trajectory more: at most 6.25
    ops, data = make_instance(nx=32, ny=32, n_steps=32, seed=5, M1=1e-2, M2=1e-2)
    stepper = Stepper(data, "P", ALPHA)
    zero = ControlPair.zeros_like(ops, data.grid)
    tracemalloc.start()  # traces only what the solve allocates
    try:
        if solve == "simultaneous":
            rep = solve_cg(stepper, 1e-10)
        elif solve == "distributed_only":
            rep = solve_distributed_only(zero.q, stepper, 1e-10)
        else:
            _, rep = _operator_pass(data, zero, None, 1e-10, CG_MAX_ITER,
                                    lambda u, p: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged and rep.iterations == {"simultaneous": 21, "operator_job": 21,
                                                "distributed_only": 11}[solve]
    trajectory_bytes = (data.grid.n_steps + 1) * ops.n_nodes * 8
    assert peak / trajectory_bytes <= (6.25 if solve == "operator_job" else 4.75)


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_cg_matches_dense_kkt_oracle(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=20)
    rep = solve_cg(Stepper(data, variant, ALPHA), 1e-12)
    assert rep.converged
    oracle = SpaceTimeSystem(ops, data.grid, variant, ALPHA).kkt_optimum(data)
    assert hq_norm(rep.control - oracle, ops, data.grid) <= 1e-8


def test_cg_matches_oracle_on_two_sided_gamma1():
    ops, data = make_instance(nx=2, ny=3, n_steps=2, seed=60,
                              gamma1=("bottom", "top"))
    for variant in ("P", "Palpha"):
        rep = solve_cg(Stepper(data, variant, ALPHA), 1e-12)
        assert rep.converged
        oracle = SpaceTimeSystem(ops, data.grid, variant, ALPHA).kkt_optimum(data)
        assert hq_norm(rep.control - oracle, ops, data.grid) <= 1e-8


def psi_derivative(i, j, x, y):
    """d^i/dx^i d^j/dy^j of psi = w(x) w(y) sin(pi (x + 2 y) / 3 + 0.3), w(s) = (4 s (1 - s))^4.

    The Leibniz rule in each variable: the k-th derivative of sin(a x + b y + c)
    in x is a^k sin(a x + b y + c + k pi / 2), and numpy.polynomial gives the
    weight's.
    """
    a, b, c = math.pi / 3, 2 * math.pi / 3, 0.3
    w = Polynomial([0.0, 4.0, -4.0]) ** 4
    return sum(math.comb(i, k) * math.comb(j, m) * a ** k * b ** m
               * w.deriv(i - k)(x) * w.deriv(j - m)(y)
               * np.sin(a * x + b * y + c + (k + m) * math.pi / 2)
               for k in range(i + 1) for m in range(j + 1))


def manufactured_optimum(n, n_steps=32, T=1.0, M1=1.0):
    """Data of P on an n x n mesh whose continuous optimum is known, and its g*.

    u* = (T - t)^2 psi, b = 0, v_b = T^2 psi.  psi vanishes with its
    derivatives up to order 3 on every side, so p* = -M1 (u*_t - Lap u*)
    vanishes on the boundary with zero normal derivative: g* = -p* / M1 and
    q* = 0 satisfy the optimality system with the target z_d = u* + p*_t +
    Lap p* = (T - t)^2 (psi + M1 Lap^2 psi) - 2 M1 psi.  z_d and g* are
    sampled at the nodes at each step's right end.
    """
    mesh = build_rect_mesh(n, n, "left")
    ops = assemble(mesh)
    grid = TimeGrid(T, n_steps)
    x, y = mesh.nodes.T
    psi = psi_derivative(0, 0, x, y)
    lap = psi_derivative(2, 0, x, y) + psi_derivative(0, 2, x, y)
    bilap = (psi_derivative(4, 0, x, y) + 2 * psi_derivative(2, 2, x, y)
             + psi_derivative(0, 4, x, y))
    s = T - grid.tau * np.arange(1, n_steps + 1)[:, None]
    data = ProblemData(ops=ops, b=np.zeros(len(ops.dirichlet_nodes)), v_b=T ** 2 * psi,
                       z_d=s ** 2 * (psi + M1 * bilap) - 2 * M1 * psi, M1=M1, M2=1.0,
                       grid=grid)
    return data, -2 * s * psi - s ** 2 * lap


def test_cg_converges_to_a_manufactured_continuous_optimum():
    g_errors, q_sizes = [], []
    for n in (8, 16, 32):
        data, g_star = manufactured_optimum(n)
        rep = solve_cg(Stepper(data, "P"), 1e-12)
        assert rep.converged
        ops, grid = data.ops, data.grid
        scale = math.sqrt(h_inner(g_star, g_star, ops, grid))
        diff = rep.control.g - g_star
        g_errors.append(math.sqrt(h_inner(diff, diff, ops, grid)) / scale)
        q_sizes.append(math.sqrt(q_inner(rep.control.q, rep.control.q, ops, grid)) / scale)
    for errors in (g_errors, q_sizes):
        orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert min(orders) >= 1.8, (g_errors, q_sizes)


def test_large_penalties_force_zero_control():
    ops, data = make_instance(seed=21, M1=1e6, M2=1e6)
    rep = solve_cg(Stepper(data, "P"), 1e-12)
    assert rep.converged
    assert hq_norm(rep.control, ops, data.grid) <= 1e-5


# -- fixed-point map ------------------------------------------------------------------

def test_W_at_zero_with_matched_target():
    ops, data = make_instance(seed=22)
    data = matched_target(data, ops)
    stepper = Stepper(data, "P")
    w = apply_W(ControlPair.zeros_like(ops, data.grid), stepper)
    assert hq_norm(w, ops, data.grid) == 0.0


def test_gradient_vanishes_at_any_W_fixed_point():
    # at a fixed point, M1 g + p = 0 and M2 q - p = 0 by construction
    ops, data, _ = contractive_instance(seed=23)
    stepper = Stepper(data, "P")
    rep = solve_fixed_point(stepper, 1e-12, max_iter=300)
    assert rep.converged
    grad = gradient_J(rep.control, stepper)
    assert hq_norm(grad, ops, data.grid) <= 1e-9


def test_W_matches_dense_adjoint_scaling():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=24, M1=0.7, M2=1.9)
    rng = np.random.default_rng(25)
    ctrl = random_control(ops, data.grid, rng)
    sts = SpaceTimeSystem(ops, data.grid, "P")
    u = sts.state(data, ctrl)
    p = sts.adjoint(data, u)[:-1]
    w = apply_W(ctrl, Stepper(data, "P"))
    assert np.max(np.abs(w.g - (-p / data.M1))) <= 1e-10
    assert np.max(np.abs(w.q - p[:, ops.gamma2_nodes] / data.M2)) <= 1e-10


def test_contraction_constant_formula():
    consts = {"lambda0": 1.0, "lambda1": 1.0, "trace_norm": 1.0, "mesh": "synthetic"}
    # frozen values computed from the closed-form bound
    assert contraction_constant(consts, 4.0, 4.0, "P") \
        == pytest.approx(1.4142135623730951, rel=1e-12)
    assert contraction_constant(consts, 10.0, 10.0, "P") \
        == pytest.approx(0.5656854249492381, rel=1e-12)
    # for alpha >= 1 the Robin branch depends on lambda1 alone
    big = contraction_constant(consts, 4.0, 4.0, "Palpha", alpha=7.0)
    assert big == contraction_constant(consts, 4.0, 4.0, "Palpha", alpha=1.0)
    assert contraction_constant(consts, 4.0, 4.0, "Palpha", alpha=0.5) \
        == pytest.approx(big / 0.25, rel=1e-12)
    # a squared weight of 1e-170 underflows to zero: the bound reads inf
    # (1e-160 squares to a subnormal and the bound overflows to inf itself)
    assert contraction_constant(consts, 1e-170, 1.0, "P") == math.inf
    assert contraction_constant(consts, 1.0, 1e-170, "P") == math.inf
    # the Robin bound needs an alpha, and no other variant has one
    with pytest.raises(ValueError,
                       match=r"^alpha must be a real number in \(0, inf\), got None$"):
        contraction_constant(consts, 1.0, 1.0, "Palpha")
    with pytest.raises(ValueError, match="unknown variant 'Q'"):
        contraction_constant(consts, 1.0, 1.0, "Q")


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_robin_bound_refuses_an_alpha_that_is_not_finite_and_positive(alpha):
    # nan fails no comparison in alpha <= 0, and min(1, nan) is 1
    consts = {"lambda0": 0.5, "lambda1": 0.6, "trace_norm": 1.2}
    message = rf"^alpha must be a real number in \(0, inf\), got {alpha}$"
    with pytest.raises(ValueError, match=message):
        contraction_constant(consts, 1.0, 1.0, "Palpha", alpha=alpha)
    with pytest.raises(ValueError, match=message):
        _coercivity(consts, "Palpha", alpha)


@pytest.mark.parametrize("M1, M2", [(1e160, 1.0), (1.0, 1e160), (1e300, 1e300)])
def test_contraction_constant_of_weights_whose_squares_overflow(M1, M2):
    # 1e160**2 is beyond the float range, but the bound itself is not
    consts = {"lambda0": 0.5, "lambda1": 0.6, "trace_norm": 1.2}
    expected = (2.0 / 0.5**2) * math.hypot(1.0 / M1, 1.2 / M2) * (1.0 + 1.2)
    assert contraction_constant(consts, M1, M2, "P") == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("weight", [-1.0, 0.0, math.nan])
def test_contraction_constant_refuses_a_weight_that_is_not_positive(weight):
    # -1 read as +1 and nan gave nan
    consts = {"lambda0": 0.5, "lambda1": 0.6, "trace_norm": 1.2}
    for M1, M2, name in ((weight, 1.0, "M1"), (1.0, weight, "M2")):
        with pytest.raises(ValueError, match=re.escape(
                f"{name} must be a real number in (0, inf), got {weight}")):
            contraction_constant(consts, M1, M2, "P")


def test_fixed_point_trivial_instance_converges_in_one_step():
    ops, data = make_instance(seed=26)
    data = matched_target(data, ops)
    rep = solve_fixed_point(Stepper(data, "P"), 1e-10)
    assert rep.converged and rep.iterations == 1
    assert hq_norm(rep.control, ops, data.grid) == 0.0


def test_fixed_point_contracts_and_matches_cg():
    ops, data, consts = contractive_instance(seed=27, target_c0=0.5)
    c0 = contraction_constant(consts, data.M1, data.M2, "P")
    assert c0 == pytest.approx(0.5, rel=1e-9)
    tol = 1e-11
    stepper = Stepper(data, "P")
    fp = solve_fixed_point(stepper, tol, max_iter=300)
    cg = solve_cg(stepper, tol)
    assert fp.converged and cg.converged
    ratio = measured_step_ratio(fp.history, floor=1e-13)
    assert ratio <= 0.6
    assert hq_norm(fp.control - cg.control, ops, data.grid) <= 10 * tol
    # the controlled residual is the step norm; the gradient scales with it
    assert fp.grad_norm <= max(data.M1, data.M2) * tol * (1 + 1e-6)


def test_fixed_point_reports_divergence():
    ops, data = make_instance(seed=28, M1=1e-3, M2=1e-3)
    rep = solve_fixed_point(Stepper(data, "P"), 1e-10, max_iter=25)
    assert not rep.converged
    assert measured_step_ratio(rep.history) > 1.0


@pytest.mark.parametrize("M", [1e-2, 1e-4, 1e-8])
def test_divergent_fixed_point_stops_quietly_at_a_non_finite_step(M):
    # the RuntimeWarning filter of the test run turns any overflow warning
    # into a failure
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21, M1=M, M2=M)
    rep = solve_fixed_point(Stepper(data, "P"), 1e-10)
    steps = [norm for _, norm in rep.history]
    assert not rep.converged and rep.iterations == len(steps) - 1
    assert not math.isfinite(steps[-1])
    assert all(math.isfinite(norm) for norm in steps[:-1])
    assert math.isfinite(rep.cost) and math.isfinite(rep.grad_norm)


def test_lipschitz_ratio_below_contraction_constant():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=29, M1=0.8, M2=1.4)
    consts = compute_constants(ops)
    c0 = contraction_constant(consts, data.M1, data.M2, "P")
    stepper = Stepper(data, "P")
    rng = np.random.default_rng(30)
    for _ in range(50):
        a = random_control(ops, data.grid, rng)
        b = random_control(ops, data.grid, rng)
        wa = apply_W(a, stepper)
        wb = apply_W(b, stepper)
        denom = hq_norm(b - a, ops, data.grid)
        assert hq_norm(wb - wa, ops, data.grid) <= c0 * denom


# -- distributed-only problem -----------------------------------------------------------

def test_distributed_only_trivial():
    ops, data = make_instance(seed=31)
    data = matched_target(data, ops)
    q0 = np.zeros((data.grid.n_steps, len(ops.gamma2_nodes)))
    rep = solve_distributed_only(q0, Stepper(data, "P"), 1e-10)
    assert rep.converged
    assert np.max(np.abs(rep.control.g)) == 0.0


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_distributed_only_matches_dense_g_block(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=32)
    rng = np.random.default_rng(33)
    q_fixed = rng.standard_normal((data.grid.n_steps, len(ops.gamma2_nodes)))
    rep = solve_distributed_only(q_fixed, Stepper(data, variant, ALPHA), 1e-12)
    assert rep.converged
    oracle = SpaceTimeSystem(ops, data.grid, variant, ALPHA) \
        .kkt_optimum_distributed(data, q_fixed)
    diff = rep.control.g - oracle
    assert math.sqrt(h_inner(diff, diff, ops, data.grid)) <= 1e-8


def test_simultaneous_cost_never_exceeds_frozen_flux_cost():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=34)
    stepper = Stepper(data, "P")
    full = solve_cg(stepper, 1e-11)
    dist = solve_distributed_only(full.control.q, stepper, 1e-11)
    assert full.cost <= dist.cost * (1.0 + 1e-12) + 1e-14


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["P", "Palpha"])
@pytest.mark.parametrize("flux", ["random", "simultaneous_optimum", "zero_data"])
def test_distributed_only_is_the_g_only_cg_bit_for_bit(variant, flux):
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=39,
                              zero_data=flux == "zero_data")
    shape_q = (data.grid.n_steps, len(ops.gamma2_nodes))
    stepper = Stepper(data, variant, ALPHA)
    if flux == "random":
        q_fixed = np.random.default_rng(40).standard_normal(shape_q)
    elif flux == "simultaneous_optimum":
        q_fixed = solve_cg(stepper, 1e-11).control.q
    else:
        q_fixed = np.zeros(shape_q)
    rep = solve_distributed_only(q_fixed, stepper, 1e-11)
    ref = distributed_only_on_g(data, q_fixed, ops, variant, 1e-11)
    assert (flux == "zero_data") == (ref.iterations == 0)
    for got, expected in ((rep.control.g, ref.control.g), (rep.control.q, ref.control.q),
                          (rep.state, ref.state),
                          (rep.adjoint, ref.adjoint)):
        assert same_bits(got, expected)
    for name in ("cost", "grad_norm", "grad_norm0", "iterations", "history",
                 "converged", "solver", "tol"):
        assert getattr(rep, name) == getattr(ref, name), name


def test_bad_q_fixed_shape_rejected():
    ops, data = make_instance(seed=35)
    with pytest.raises(ValueError, match="q_fixed"):
        solve_distributed_only(np.zeros((1, 1)), Stepper(data, "P"), 1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_q_fixed_rejected_by_name(bad):
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=35)
    q_fixed = np.zeros((data.grid.n_steps, len(ops.gamma2_nodes)))
    q_fixed[1, 2] = bad
    with pytest.raises(ValueError, match="q_fixed must be finite"):
        solve_distributed_only(q_fixed, Stepper(data, "P"), 1e-8)


def test_nonpositive_tolerances_rejected():
    # a nan tolerance never compares, an inf one converges at once
    ops, data = make_instance(seed=36)
    stepper = Stepper(data, "P")
    q_fixed = np.zeros((data.grid.n_steps, len(ops.gamma2_nodes)))
    for tol in (0.0, -1.0, math.nan, math.inf):
        for solve in (lambda: solve_cg(stepper, tol),
                      lambda: solve_fixed_point(stepper, tol),
                      lambda: solve_distributed_only(q_fixed, stepper, tol)):
            with pytest.raises(ValueError, match=re.escape(
                    f"tol must be a real number in (0, inf), got {tol}")):
                solve()
