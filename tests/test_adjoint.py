import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from heatctrl import (ControlPair, Stepper, h_inner, q_inner, solve_adjoint,
                      solve_state)
from heatctrl.adjoint import _backward, solve_adjoint_homogeneous
from heatctrl.linalg import SpdFactor
from heatctrl.state import solve_state_homogeneous

from oracles import (ALPHA, SpaceTimeSystem, explicit_backward, make_instance,
                     random_control, two_product_adjoint)


def test_state_equal_to_target_gives_zero_adjoint():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=1)
    rng = np.random.default_rng(2)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(data, "P")
    u = solve_state(ctrl, stepper)
    matched = Stepper(replace(data, z_d=u[1:].copy()), "P")
    p = solve_adjoint(u, matched)
    assert np.max(np.abs(p)) == 0.0


def test_zero_controls_with_matching_target():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=3)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    stepper = Stepper(data, "P")
    u00 = solve_state(ctrl, stepper)
    matched = Stepper(replace(data, z_d=u00[1:].copy()), "P")
    p = solve_adjoint(u00, matched)
    assert np.max(np.abs(p)) == 0.0


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_adjoint_matches_dense_transpose(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=2, seed=4)
    rng = np.random.default_rng(5)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(data, variant, ALPHA)
    u = solve_state(ctrl, stepper)
    p = solve_adjoint(u, stepper)
    dense = SpaceTimeSystem(ops, data.grid, variant, ALPHA).adjoint(data, u)
    assert np.max(np.abs(p - dense)) <= 1e-10


def test_single_impulse_unrolls_to_one_backward_solve():
    ops, data = make_instance(nx=2, ny=2, n_steps=4, seed=6)
    stepper = Stepper(data, "Palpha", 7.0)
    ctrl = ControlPair.zeros_like(ops, data.grid)
    u = solve_state(ctrl, stepper)
    # craft a target whose tracking residual is a single nodal impulse at step 3
    k0, node = 2, 5
    z_d = u[1:].copy()
    impulse = np.zeros(ops.n_nodes)
    impulse[node] = 1.0
    from heatctrl.linalg import SpdFactor
    z_d[k0] -= SpdFactor(ops.M).solve(impulse)
    crafted = Stepper(replace(data, z_d=z_d), "Palpha", 7.0)
    p = solve_adjoint(u, crafted)
    assert np.max(np.abs(p[k0 + 1:])) <= 1e-12
    expected = stepper.factor.solve(impulse)
    assert np.max(np.abs(p[k0] - expected)) <= 1e-10


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_adjoint_identity(variant):
    ops, data = make_instance(nx=3, ny=2, n_steps=4, seed=7)
    stepper = Stepper(data, variant, ALPHA)
    rng = np.random.default_rng(8)
    base = random_control(ops, data.grid, rng)
    u = solve_state(base, stepper)
    p = solve_adjoint(u, stepper)
    for _ in range(20):
        d = random_control(ops, data.grid, rng)
        cu = solve_state_homogeneous(d, stepper)
        lhs = h_inner(cu[1:], u[1:] - data.z_d, ops, data.grid)
        rhs = h_inner(d.g, p[:-1], ops, data.grid) \
            - q_inner(d.q, ops.trace2(p[:-1]), ops, data.grid)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_terminal_slice_is_zero(variant):
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=9)
    rng = np.random.default_rng(10)
    ctrl = random_control(ops, data.grid, rng)
    stepper = Stepper(data, variant, ALPHA)
    u = solve_state(ctrl, stepper)
    p = solve_adjoint(u, stepper)
    assert np.array_equal(p[-1], np.zeros(ops.n_nodes))


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_sweep_matches_the_two_product_loop(variant):
    ops, data = make_instance(nx=5, ny=4, n_steps=6, seed=63,
                              gamma1="left,bottom")
    ctrl = random_control(ops, data.grid, np.random.default_rng(64))
    stepper = Stepper(data, variant, ALPHA)
    u = solve_state(ctrl, stepper)
    reference = two_product_adjoint(data, u, ops, variant)
    p = solve_adjoint(u, stepper)
    assert np.max(np.abs(p - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_sweep_is_bit_for_bit_the_explicit_backward_loop(variant):
    ops, data = make_instance(nx=4, ny=3, n_steps=6, seed=65)
    stepper = Stepper(data, variant, ALPHA)
    rng = np.random.default_rng(66)
    u = rng.standard_normal((data.grid.n_steps + 1, ops.n_nodes))
    # the last two residual slices are exactly zero, so the first two
    # backward steps take the zero-rhs shortcut of the factor's solve
    u[-2:] = data.z_d[-2:]
    residual = u[1:] - data.z_d
    assert np.any(residual[:, ops.dirichlet_nodes])
    assert not np.any(residual[-2:])
    reference = explicit_backward(stepper, residual)
    assert solve_adjoint(u, stepper).tobytes() == reference.tobytes()
    assert solve_adjoint_homogeneous(u, stepper).tobytes() \
        == explicit_backward(stepper, u[1:]).tobytes()


def test_solve_adjoint_is_the_sweep_on_a_fresh_residual():
    # b != 0 and z_d != b on the Dirichlet nodes: the residual is nonzero
    # there, so a pinned write that ran before its step read the residual
    # slice it overwrites would change p
    ops, data = make_instance(nx=4, ny=3, n_steps=5, seed=67)
    stepper = Stepper(data, "P")
    u = solve_state(random_control(ops, data.grid, np.random.default_rng(68)),
                    stepper)
    residual = u[1:] - data.z_d
    assert np.all(data.b) and np.all(residual[:, ops.dirichlet_nodes])
    fresh = _backward(stepper, residual, np.empty(u.shape))
    assert np.array_equal(solve_adjoint(u, stepper), fresh)


def test_solve_adjoint_allocates_about_one_trajectory():
    # the residual is written into the adjoint's own array and swept in place
    ops, data = make_instance(nx=32, ny=32, n_steps=32, seed=69)
    stepper = Stepper(data, "P")
    u = solve_state(random_control(ops, data.grid, np.random.default_rng(70)),
                    stepper)
    tracemalloc.start()  # traces only what the sweep allocates
    try:
        solve_adjoint(u, stepper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / u.nbytes <= 1.25


@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_the_adjoint_may_overwrite_the_residual_one_slice_ahead(variant):
    # out[:-1] the memory of du[1:], as in CG's one-buffer product
    ops, data = make_instance(nx=4, ny=3, n_steps=5, seed=71)
    stepper = Stepper(data, variant, ALPHA)
    du = np.random.default_rng(72).standard_normal((data.grid.n_steps + 1, ops.n_nodes))
    work = np.empty((data.grid.n_steps + 2, ops.n_nodes))
    work[:-1] = du
    p = solve_adjoint_homogeneous(work[:-1], stepper, work[1:])
    assert np.array_equal(p, solve_adjoint_homogeneous(du, stepper))


@pytest.mark.parametrize("layout", ["same", "one_slice_behind"])
def test_any_other_overlap_of_the_adjoint_and_the_residual_is_refused(layout):
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=73)
    work = np.random.default_rng(74).standard_normal(
        (data.grid.n_steps + 2, ops.n_nodes))
    before = work.copy()
    du, out = ((work[:-1], work[:-1]) if layout == "same" else (work[1:], work[:-1]))
    with pytest.raises(ValueError, match=r"out\[:-1\] = du\[1:\]"):
        solve_adjoint_homogeneous(du, Stepper(data, "P"), out)
    assert np.array_equal(work, before)  # refused before anything is solved


def counted_solves(monkeypatch):
    """A list that gains one entry per triangular solve from now on."""
    solves = []
    inner = SpdFactor.solve

    def counted(self, rhs):
        solves.append(1)
        return inner(self, rhs)

    monkeypatch.setattr(SpdFactor, "solve", counted)
    return solves


@pytest.mark.parametrize("shape", [(8, 16), (4, 16), (5, 18)], ids=["long", "short", "wide"])
def test_a_residual_of_the_wrong_shape_is_refused_before_any_solve(monkeypatch, shape):
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    assert (data.grid.n_steps + 1, ops.n_nodes) == (5, 16)
    stepper = Stepper(data, "P")
    solves = counted_solves(monkeypatch)
    du = np.random.default_rng(75).standard_normal(shape)
    with pytest.raises(ValueError, match=rf"^du must have shape \(5, 16\), "
                                         rf"got \({shape[0]}, {shape[1]}\)$"):
        solve_adjoint_homogeneous(du, stepper)
    assert solves == []


@pytest.mark.parametrize("sweep", ["state", "adjoint"])
def test_a_long_output_buffer_is_refused_before_any_solve(monkeypatch, sweep):
    ops, data = make_instance(nx=3, ny=3, n_steps=4, seed=21)
    stepper = Stepper(data, "P")
    rng = np.random.default_rng(76)
    ctrl = random_control(ops, data.grid, rng)
    du = rng.standard_normal((5, 16))
    out = np.zeros((8, 16))
    solves = counted_solves(monkeypatch)
    with pytest.raises(ValueError, match=r"^out must have shape \(5, 16\), got \(8, 16\)$"):
        if sweep == "state":
            solve_state_homogeneous(ctrl, stepper, out)
        else:
            solve_adjoint_homogeneous(du, stepper, out)
    assert solves == []
    assert not out.any()


def test_residual_to_adjoint_map_is_linear():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=11)
    stepper = Stepper(data, "P")
    rng = np.random.default_rng(12)
    shape = (data.grid.n_steps + 1, ops.n_nodes)
    d1 = rng.standard_normal(shape)
    d2 = rng.standard_normal(shape)
    both = d1 + d2
    p1 = solve_adjoint_homogeneous(d1, stepper)
    p2 = solve_adjoint_homogeneous(d2, stepper)
    p12 = solve_adjoint_homogeneous(both, stepper)
    assert np.max(np.abs(p12 - (p1 + p2))) <= 1e-10


def test_wrong_trajectory_length_rejected():
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=13)
    short = np.zeros((2, ops.n_nodes))
    with pytest.raises(ValueError, match="shape"):
        solve_adjoint(short, Stepper(data, "P"))


@pytest.mark.parametrize("shape", [(3, 9), (4, 8)], ids=["one_slice_short", "wrong_node_count"])
def test_state_of_the_wrong_shape_is_refused_by_name(shape):
    ops, data = make_instance(nx=2, ny=2, n_steps=3, seed=13)
    assert (data.grid.n_steps + 1, ops.n_nodes) == (4, 9)
    with pytest.raises(ValueError, match=rf"^state trajectory must have shape \(4, 9\), "
                                         rf"got \({shape[0]}, {shape[1]}\)$"):
        solve_adjoint(np.zeros(shape), Stepper(data, "P"))
