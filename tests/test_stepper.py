"""The stepper is the operator a solver runs: ops, grid, variant and alpha.

The data owns its mesh operators.  Every solver entry point takes one
stepper and refuses one that does not fit its data (another time grid, or
operators other than the data's), and validates the data before any sweep.
"""

import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

import heatctrl.adjoint
import heatctrl.analysis
import heatctrl.control
import heatctrl.state
from heatctrl import (ControlPair, ProblemData, Stepper, TimeGrid, cost_J,
                      solve_adjoint, solve_cg, solve_state)
from heatctrl.state import Trajectory

from oracles import ALPHA, make_instance

# the entry points that read ops, grid, variant and alpha from the stepper
SOLVERS = ("state.solve_state", "adjoint.solve_adjoint", "control.cost_J",
           "control.gradient_J", "control.convexity_gap", "control.apply_W",
           "control.solve_cg", "control.solve_fixed_point",
           "control.solve_distributed_only")

# each called on data and the operators of its own mesh, with a stepper
CALLS = {
    "solve_state": lambda data, ops, stepper: solve_state(
        data, ControlPair.zeros_like(ops, data.grid), stepper),
    "solve_adjoint": lambda data, ops, stepper: solve_adjoint(
        data, Trajectory(np.zeros((data.grid.n_steps + 1, ops.n_nodes))), stepper),
    "cost_J": lambda data, ops, stepper: cost_J(
        data, ControlPair.zeros_like(ops, data.grid), stepper),
    "solve_cg": lambda data, ops, stepper: solve_cg(data, stepper, 1e-10),
}


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("variant", ["P", "Palpha"])
def test_stepper_on_another_time_grid_is_refused(call, variant):
    # the sweeps would run with the stepper's tau and converge to a wrong cost
    ops, data = make_instance(nx=4, ny=4, n_steps=4, seed=1)
    stepper = Stepper(ops, TimeGrid(2.0, 4), variant, ALPHA)
    with pytest.raises(ValueError) as err:
        CALLS[call](data, ops, stepper)
    assert str(stepper.grid) in str(err.value) and str(data.grid) in str(err.value)


@pytest.mark.parametrize("call", CALLS)
def test_stepper_on_another_mesh_is_refused(call):
    ops, data = make_instance(nx=4, ny=4, n_steps=4, seed=2)
    # zero b and v_b fit the 4x4 mesh pinned on the right as well, so only
    # the operators tell the two meshes apart
    unpinned = replace(data, b=np.zeros_like(data.b), v_b=np.zeros_like(data.v_b))
    for (n, gamma1), case in (((3, "left"), data), ((4, "right"), unpinned)):
        other, _ = make_instance(nx=n, ny=n, n_steps=4, gamma1=gamma1)
        stepper = Stepper(other, data.grid, "P")
        with pytest.raises(ValueError) as err:
            CALLS[call](case, ops, stepper)
        message = str(err.value)
        assert f"{other.n_nodes} nodes" in message and f"({ops.n_nodes},)" in message


def nan_target_instance():
    ops, data = make_instance(nx=3, ny=3, n_steps=3, seed=3)
    stepper = Stepper(ops, data.grid, "P")
    u = solve_state(data, ControlPair.zeros_like(ops, data.grid), stepper)
    z_d = data.z_d.copy()
    z_d[1, 4] = np.nan
    return replace(data, z_d=z_d), stepper, u


def test_adjoint_refuses_a_non_finite_target():
    data, stepper, u = nan_target_instance()
    with pytest.raises(ValueError, match="z_d must be finite"):
        solve_adjoint(data, u, stepper)


def test_cost_at_a_given_state_refuses_a_non_finite_target():
    data, stepper, u = nan_target_instance()
    ctrl = ControlPair.zeros_like(stepper.ops, data.grid)
    with pytest.raises(ValueError, match="z_d must be finite"):
        cost_J(data, ctrl, stepper, u=u)


def public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


@pytest.mark.parametrize("module", [heatctrl.state, heatctrl.adjoint,
                                    heatctrl.control])
def test_no_public_function_takes_a_stepper_with_ops_or_variant(module):
    for name, fn in public_functions(module).items():
        params = inspect.signature(fn).parameters
        if "stepper" in params:
            assert not {"ops", "variant"} & set(params), name


def test_solvers_take_a_required_stepper():
    modules = {"state": heatctrl.state, "adjoint": heatctrl.adjoint,
               "control": heatctrl.control}
    for qualname in SOLVERS:
        short, name = qualname.split(".")
        stepper = inspect.signature(getattr(modules[short], name)).parameters["stepper"]
        assert stepper.default is inspect.Parameter.empty, qualname
    assert not hasattr(heatctrl.state, "stepper_for")
    assert not hasattr(heatctrl.state.ProblemData, "with_alpha")


def test_the_data_owns_its_operators():
    assert {f.name for f in fields(ProblemData)} \
        == {"ops", "b", "v_b", "z_d", "M1", "M2", "grid"}
    assert list(inspect.signature(ProblemData.validate).parameters) == ["self"]
    for module in (heatctrl.state, heatctrl.adjoint, heatctrl.control,
                   heatctrl.analysis):
        for name, fn in public_functions(module).items():
            params = inspect.signature(fn).parameters
            assert not {"data", "ops"} <= set(params), f"{module.__name__}.{name}"
