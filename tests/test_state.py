from dataclasses import replace

import numpy as np
import pytest

from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, assemble,
                      build_rect_mesh, cost_J, solve_state)
from heatctrl.analysis import boundary_residual_norm

from oracles import (ALPHA, SpaceTimeSystem, extend_gamma2, make_instance,
                     random_control, two_product_state)


def zero_instance(nx=2, ny=2, n_steps=3):
    return make_instance(nx=nx, ny=ny, n_steps=n_steps, zero_data=True)


def constant_instance(nx=3, ny=2, n_steps=4):
    """b = 1 on the pinned side, v_b = 1 everywhere, z_d = 1."""
    mesh = build_rect_mesh(nx, ny, "left")
    ops = assemble(mesh)
    grid = TimeGrid(1.0, n_steps)
    data = ProblemData(
        ops=ops,
        b=np.ones(len(ops.dirichlet_nodes)),
        v_b=np.ones(ops.n_nodes),
        z_d=np.ones((n_steps, ops.n_nodes)),
        M1=1.0, M2=1.0, grid=grid,
    )
    return ops, data


def test_zero_data_gives_zero_state():
    ops, data = zero_instance()
    ctrl = ControlPair.zeros_like(ops, data.grid)
    u = solve_state(ctrl, Stepper(data, "P"))
    ua = solve_state(ctrl, Stepper(data, "Palpha", ALPHA))
    assert np.max(np.abs(u)) == 0.0
    assert np.max(np.abs(ua)) == 0.0


def test_constant_state_is_stationary():
    ops, data = constant_instance()
    ctrl = ControlPair.zeros_like(ops, data.grid)
    u = solve_state(ctrl, Stepper(data, "P"))
    assert np.max(np.abs(u - 1.0)) <= 1e-12


@pytest.mark.parametrize("alpha", [1.5, 10.0, 1e4])
def test_constant_state_is_stationary_robin(alpha):
    ops, data = constant_instance()
    ctrl = ControlPair.zeros_like(ops, data.grid)
    ua = solve_state(ctrl, Stepper(data, "Palpha", alpha))
    assert np.max(np.abs(ua - 1.0)) <= 1e-12


def test_state_matches_dense_spacetime_solve():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=21)
    rng = np.random.default_rng(22)
    ctrl = random_control(ops, data.grid, rng)
    dense = SpaceTimeSystem(ops, data.grid, "P").state(data, ctrl)
    u = solve_state(ctrl, Stepper(data, "P"))
    assert np.max(np.abs(u - dense)) <= 1e-10


def test_robin_state_matches_dense_spacetime_solve():
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=23)
    rng = np.random.default_rng(24)
    ctrl = random_control(ops, data.grid, rng)
    dense = SpaceTimeSystem(ops, data.grid, "Palpha", 10.0).state(data, ctrl)
    ua = solve_state(ctrl, Stepper(data, "Palpha", 10.0))
    assert np.max(np.abs(ua - dense)) <= 1e-10


def test_superposition_of_the_affine_map():
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=30)
    rng = np.random.default_rng(31)
    c1 = random_control(ops, data.grid, rng)
    c2 = random_control(ops, data.grid, rng)
    stepper = Stepper(data, "P")
    u00 = solve_state(ControlPair.zeros_like(ops, data.grid), stepper)
    u1 = solve_state(c1, stepper)
    u2 = solve_state(c2, stepper)
    u12 = solve_state(c1 + c2, stepper)
    assert np.max(np.abs((u12 - u00) - ((u1 - u00) + (u2 - u00)))) <= 1e-10


def test_dirichlet_trace_is_exact():
    ops, data = make_instance(nx=3, ny=2, n_steps=4, seed=33)
    rng = np.random.default_rng(34)
    ctrl = random_control(ops, data.grid, rng)
    u = solve_state(ctrl, Stepper(data, "P"))
    for k in range(data.grid.n_steps + 1):
        assert np.array_equal(u[k][ops.dirichlet_nodes], data.b)


def test_penalized_boundary_mismatch_stays_bounded():
    ops, data = make_instance(nx=4, ny=4, n_steps=8, seed=35)
    rng = np.random.default_rng(36)
    ctrl = random_control(ops, data.grid, rng)
    residuals = []
    for alpha in (10.0, 100.0, 1000.0, 10000.0):
        ua = solve_state(ctrl, Stepper(data, "Palpha", alpha))
        residuals.append(boundary_residual_norm(ua, data.b, alpha, ops, data.grid))
    assert max(residuals) <= 10.0 * residuals[0]


def manufactured_problem(nx, n_steps, with_flux):
    """Instance built from an exact separable solution space(x, y) * e^{-t}.

    The no-flux case uses sin(3 pi x / 2), whose normal derivative vanishes
    on every gamma2 side; the flux case uses sin(pi x) sin^2(pi y), whose
    right-side flux pi sin^2(pi y) e^{-t} is continuous at the corners (a
    discontinuous corner flux is not representable by nodal values and
    would degrade the convergence order).
    """
    mesh = build_rect_mesh(nx, nx, "left")
    ops = assemble(mesh)
    grid = TimeGrid(1.0, n_steps)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    t = (np.arange(n_steps) + 1) * grid.tau
    decay = np.exp(-t)[:, None]
    if with_flux:
        s, c = np.sin(np.pi * x), np.sin(np.pi * y)
        space = s * c**2
        lap = -np.pi**2 * s * c**2 + 2 * np.pi**2 * s * np.cos(2 * np.pi * y)
        g = decay * (-space - lap)[None, :]
        xg, yg = mesh.nodes[ops.gamma2_nodes, 0], mesh.nodes[ops.gamma2_nodes, 1]
        q_profile = np.where(xg == 1.0, np.pi * np.sin(np.pi * yg) ** 2, 0.0)
        q = decay * q_profile[None, :]
    else:
        w = 1.5 * np.pi
        space = np.sin(w * x)
        g = (w**2 - 1.0) * decay * space[None, :]
        q = np.zeros((n_steps, len(ops.gamma2_nodes)))
    data = ProblemData(
        ops=ops, b=np.zeros(len(ops.dirichlet_nodes)), v_b=space,
        z_d=np.zeros((n_steps, mesh.n_nodes)), M1=1.0, M2=1.0, grid=grid)
    return ops, data, ControlPair(g, q), space


@pytest.mark.parametrize("with_flux", [False, True])
def test_spatial_convergence_against_exact_solution(with_flux):
    errs = []
    for nx in (4, 8, 16):
        ops, data, ctrl, space = manufactured_problem(nx, 2048, with_flux)
        u = solve_state(ctrl, Stepper(data, "P"))
        err = u[-1] - np.exp(-1.0) * space
        errs.append(np.sqrt(err @ (ops.M @ err)))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(rates) > 1.6, (errs, rates)  # second order in h, time error tiny


def test_temporal_convergence_is_first_order():
    ops, data_ref, ctrl_ref, _ = manufactured_problem(12, 2048, True)
    u_ref = solve_state(ctrl_ref, Stepper(data_ref, "P"))
    errs = []
    for n_steps in (8, 16, 32):
        _, data_c, ctrl_c, _ = manufactured_problem(12, n_steps, True)
        u = solve_state(ctrl_c, Stepper(data_c, "P"))
        d = u[-1] - u_ref[-1]
        errs.append(np.sqrt(d @ (ops.M @ d)))
    rates = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 < r < 1.2 for r in rates), (errs, rates)


@pytest.mark.parametrize("variant, alpha", [("P", None), ("Palpha", 10.0)])
def test_load_equals_the_zero_extended_flux_product(variant, alpha):
    ops, data = make_instance(nx=5, ny=4, n_steps=2, gamma1="left,bottom", zero_data=True)
    stepper = Stepper(data, variant, alpha)
    rng = np.random.default_rng(3)
    g = rng.standard_normal(ops.n_nodes)
    q = rng.standard_normal(len(ops.gamma2_nodes))
    # the load lives on the solved rows: the free nodes for "P", all for "Palpha"
    S = stepper.nodes
    expected = (ops.M @ g - ops.B2 @ extend_gamma2(ops, q))[S]
    assert np.array_equal(stepper.load(g, q), expected)
    assert np.array_equal(stepper.load(g, np.zeros_like(q)), (ops.M @ g)[S])


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_sweep_matches_the_two_product_loop(variant):
    # nonzero b, v_b, g and q exercise the -A_SD b lifting and the flux load
    ops, data = make_instance(nx=5, ny=4, n_steps=6, seed=61, gamma1="left,bottom")
    ctrl = random_control(ops, data.grid, np.random.default_rng(62))
    assert np.all(data.b != 0.0) and np.all(ctrl.q != 0.0)
    reference = two_product_state(data, ctrl, ops, variant)
    u = solve_state(ctrl, Stepper(data, variant, ALPHA))
    assert np.max(np.abs(u - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_mismatched_data_rejected():
    ops, data = make_instance()
    ctrl = ControlPair.zeros_like(ops, data.grid)
    stepper = Stepper(data, "P")
    with pytest.raises(ValueError, match="Dirichlet"):
        solve_state(ctrl, Stepper(replace(data, v_b=data.v_b + 1.0), "P"))
    with pytest.raises(ValueError, match="positive"):
        solve_state(ctrl, Stepper(replace(data, M1=-1.0), "P"))
    k = len(ops.dirichlet_nodes)
    for name, message in (("v_b", "v_b must have shape"),
                          ("b", rf"^b must have shape \({k},\), got \({k - 1},\)$"),
                          ("z_d", "z_d must have shape")):
        with pytest.raises(ValueError, match=message):
            solve_state(ctrl, Stepper(replace(data, **{name: getattr(data, name)[:-1]}),
                                      "P"))
    for name, short in (("g", ControlPair(ctrl.g[:-1], ctrl.q)),
                        ("q", ControlPair(ctrl.g, ctrl.q[:, :-1]))):
        with pytest.raises(ValueError, match=f"{name} series must have shape"):
            solve_state(short, stepper)
    z_d = data.z_d.copy()
    z_d[1, 2] = np.nan
    for name, value in (("z_d", z_d), ("b", np.full_like(data.b, np.inf)),
                        ("M2", np.nan)):
        # the data refuses itself when it is made, before either solve runs
        for solve in (solve_state, cost_J):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                solve(ctrl, Stepper(replace(data, **{name: value}), "P"))


def test_robin_variant_needs_alpha():
    ops, data = make_instance()
    with pytest.raises(ValueError, match="alpha"):
        solve_state(ControlPair.zeros_like(ops, data.grid), Stepper(data, "Palpha"))


def test_stepper_refuses_an_unknown_variant():
    ops, data = make_instance()
    with pytest.raises(ValueError, match="variant must be one of"):
        Stepper(data, "Q")


@pytest.mark.parametrize("alpha", [np.inf, np.nan, 0.0, -1.0])
def test_robin_stepper_refuses_a_bad_alpha_by_name(alpha):
    ops, data = make_instance()
    with pytest.raises(ValueError, match=r"needs a finite alpha > 0, got"):
        Stepper(data, "Palpha", alpha)
