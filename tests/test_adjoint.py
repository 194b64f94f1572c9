from dataclasses import replace

import numpy as np
import pytest

from heatctrl import (ControlPair, Stepper, h_inner, q_inner, solve_adjoint,
                      solve_state)
from heatctrl.state import Trajectory, solve_state_homogeneous

from oracles import (ALPHA, SpaceTimeSystem, make_instance, random_control,
                     two_product_adjoint)


def test_state_equal_to_target_gives_zero_adjoint():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=1)
    rng = np.random.default_rng(2)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(ops, data.grid, "P")
    u = solve_state(data, ctrl, stepper)
    matched = replace(data, z_d=u.slices[1:].copy())
    p = solve_adjoint(matched, u, stepper)
    assert np.max(np.abs(p.slices)) == 0.0


def test_zero_controls_with_matching_target():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=3)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    stepper = Stepper(ops, data.grid, "P")
    u00 = solve_state(data, ctrl, stepper)
    matched = replace(data, z_d=u00.slices[1:].copy())
    p = solve_adjoint(matched, u00, stepper)
    assert np.max(np.abs(p.slices)) == 0.0


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_adjoint_matches_dense_transpose(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=4)
    rng = np.random.default_rng(5)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(ops, data.grid, variant, ALPHA)
    u = solve_state(data, ctrl, stepper)
    p = solve_adjoint(data, u, stepper)
    dense = SpaceTimeSystem(ops, data.grid, variant, ALPHA).adjoint(data, u.slices)
    assert np.max(np.abs(p.slices - dense)) <= 1e-10


def test_single_impulse_unrolls_to_one_backward_solve():
    ops, data = make_instance(nx=2, ny=2, n_steps=4, seed=6)
    stepper = Stepper(ops, data.grid, "Palpha", 7.0)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    u = solve_state(data, ctrl, stepper)
    # craft a target whose tracking residual is a single nodal impulse at step 3
    k0, node = 2, 5
    z_d = u.slices[1:].copy()
    impulse = np.zeros(ops.n_nodes)
    impulse[node] = 1.0
    from heatctrl.linalg import SpdFactor
    z_d[k0] -= SpdFactor(ops.M).solve(impulse)
    crafted = replace(data, z_d=z_d)
    p = solve_adjoint(crafted, u, stepper)
    assert np.max(np.abs(p.slices[k0 + 1:])) <= 1e-12
    expected = stepper.factor.solve(impulse)
    assert np.max(np.abs(p.slices[k0] - expected)) <= 1e-10


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_adjoint_identity(variant):
    ops, data = make_instance(nx=3, ny=2, n_steps=4, seed=7)
    stepper = Stepper(ops, data.grid, variant, ALPHA)
    rng = np.random.default_rng(8)
    base = random_control(ops, data.grid, rng)
    u = solve_state(data, base, stepper)
    p = solve_adjoint(data, u, stepper)
    for _ in range(20):
        d = random_control(ops, data.grid, rng)
        cu = solve_state_homogeneous(d, stepper)
        lhs = h_inner(cu.slices[1:], u.slices[1:] - data.z_d, ops, data.grid)
        rhs = h_inner(d.g, p.slices[:-1], ops, data.grid) \
            - q_inner(d.q, ops.trace2(p.slices[:-1]), ops, data.grid)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_terminal_slice_is_zero(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=9)
    rng = np.random.default_rng(10)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(ops, data.grid, variant, ALPHA)
    u = solve_state(data, ctrl, stepper)
    p = solve_adjoint(data, u, stepper)
    assert np.array_equal(p.slices[-1], np.zeros(ops.n_nodes))


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_sweep_matches_the_two_product_loop(variant):
    ops, data = make_instance(nx=5, ny=4, n_steps=6, seed=63,
                              gamma1="left,bottom")
    ctrl = random_control(ops, data.grid, np.random.default_rng(64))
    stepper = Stepper(ops, data.grid, variant, ALPHA)
    u = solve_state(data, ctrl, stepper)
    reference = two_product_adjoint(data, u.slices, ops, variant)
    p = solve_adjoint(data, u, stepper).slices
    assert np.max(np.abs(p - reference)) <= 1e-13 * np.max(np.abs(reference))


def test_residual_to_adjoint_map_is_linear():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=11)
    stepper = Stepper(ops, data.grid, "P")
    rng = np.random.default_rng(12)
    shape = (data.grid.n_steps + 1, ops.n_nodes)
    d1 = Trajectory(rng.standard_normal(shape))
    d2 = Trajectory(rng.standard_normal(shape))
    both = Trajectory(d1.slices + d2.slices)
    from heatctrl.adjoint import solve_adjoint_homogeneous
    p1 = solve_adjoint_homogeneous(d1, stepper).slices
    p2 = solve_adjoint_homogeneous(d2, stepper).slices
    p12 = solve_adjoint_homogeneous(both, stepper).slices
    assert np.max(np.abs(p12 - (p1 + p2))) <= 1e-10


def test_wrong_trajectory_length_rejected():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=13)
    short = Trajectory(np.zeros((2, ops.n_nodes)))
    with pytest.raises(ValueError, match="shape"):
        solve_adjoint(data, short, Stepper(ops, data.grid, "P"))
